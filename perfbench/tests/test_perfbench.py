"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke runs use reduced horizons and take about a minute in total.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Names and the BENCHMARK.json contract
# ----------------------------------------------------------------------


def test_metric_and_workload_names_are_well_formed_and_unique():
    doc = benchmark_json()
    metrics = doc["end_to_end"] + doc["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in doc["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_benchmark_json_lists_what_the_benchmark_emits():
    doc = benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(worker.WORKLOADS)
    emitted_e2e = {(n, u, b) for n, u, b in worker.E2E_METRICS} | {("setup_s", "s", "lower")}
    assert {(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]} == emitted_e2e
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(
        tracer.LAYER_METRICS
    )


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def pinned_rep(name: str, seed: int = 0) -> tuple[worker.Workload, worker.Rep, dict]:
    workload = worker.Workload(name, seed)
    expected = worker.load_expected(workload)
    outputs = {op: copy.deepcopy(expected[op]) for op in workload.ops()}
    return workload, worker.Rep(wall_s=1.0, train_s=1.0, mea_ms=[], outputs=outputs), expected


@pytest.mark.parametrize("name", list(worker.WORKLOADS))
def test_pinned_outputs_pass_their_own_check(name):
    workload, rep, expected = pinned_rep(name)
    assert worker.check_rep(workload, rep, expected, rep) == {}


def test_perturbed_expected_output_is_reported_failed():
    workload, rep, expected = pinned_rep("closed-loop-ubf")
    perturbed = copy.deepcopy(expected)
    perturbed["eval"]["pfm_failures"] += 1
    assert worker.check_rep(workload, rep, perturbed, None) == {
        "eval": "differs from the pinned output"
    }
    perturbed = copy.deepcopy(expected)
    perturbed["train"]["sha256"] = "0" * 64
    assert set(worker.check_rep(workload, rep, perturbed, None)) == {"train"}


def test_perturbed_fleet_shard_and_failed_shard_are_reported_failed():
    workload, rep, expected = pinned_rep("campaign-fleet")
    perturbed = copy.deepcopy(expected)
    perturbed["all-fronts"]["availability"] -= 1e-12
    assert set(worker.check_rep(workload, rep, perturbed, None)) == {"all-fronts"}
    rep.program_failed.append("no-pfm")
    assert worker.check_rep(workload, rep, expected, None) == {
        "no-pfm": "failed in the program"
    }


def test_output_differing_between_repetitions_is_failed():
    workload, rep, _ = pinned_rep("closed-loop-ubf")
    other = copy.deepcopy(rep)
    other.outputs["eval"]["warnings_raised"] += 1
    # A seed without pins still checks repetitions against each other.
    assert set(worker.check_rep(workload, other, None, rep)) == {"eval"}


def test_unpinned_seed_still_checks_invariants():
    workload, rep, _ = pinned_rep("closed-loop-ubf")
    rep.outputs["eval"]["mea_iterations"] -= 1
    failed = worker.check_rep(workload, rep, None, None)
    assert set(failed) == {"eval"} and "mea_iterations" in failed["eval"]


def test_seed_zero_reproduces_the_reference_closed_loop():
    # train seed 11, eval seed 21, one day: 23 -> 14 failures, 2881 cycles.
    _, _, expected = pinned_rep("closed-loop-ubf")
    assert expected["eval"]["baseline_failures"] == 23
    assert expected["eval"]["pfm_failures"] == 14
    assert expected["eval"]["mea_iterations"] == 2881


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(worker.WORKLOADS))
def test_seed_changes_the_generated_inputs(name):
    first = worker.Workload(name, 0).inputs()
    assert worker.Workload(name, 0).inputs() == first
    assert worker.Workload(name, 1).inputs() != first
    assert worker.Workload(name, 1).inputs()["eval_seed"] != first["eval_seed"]


def test_seed_changes_the_campaign_shards():
    keys = {seed: {s.key() for s in worker.Workload("campaign-fleet", seed).campaign_specs()}
            for seed in (0, 1)}
    assert len(keys[0]) == 8
    assert keys[0].isdisjoint(keys[1])


# ----------------------------------------------------------------------
# End-to-end smoke runs (reduced horizons)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(worker.WORKLOADS))
def test_smoke_run(name):
    proc = run_bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in benchmark_json()["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_with_equal_outputs():
    proc = run_bench(
        "--workload", "campaign-fleet", "--seed", "2", "--seconds", "1", "--trace", "1", "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    # Untraced and traced repetitions each checked; equal outputs or failed.
    assert result["correct"] is True and result["attempted"] == 2 * 10
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(values) == [name for name, _unit, _better in tracer.LAYER_METRICS]
    for layer in (
        "simulator.self_s",
        "telecom.tick_s",
        "monitoring.write_s",
        "faults.episodes",
        "prediction.ubf.fit_s",
        "core.mea.cycles",
        "actions.executed",
        "resilience.s",
        "telemetry.events",
        "fleet.prewarm_s",
        "fleet.shard_s_p50",
    ):
        assert values[layer] > 0, layer
    assert 0.5 < values["trace.coverage"] <= 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", "closed-loop-ubf", "--seed", "0", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
