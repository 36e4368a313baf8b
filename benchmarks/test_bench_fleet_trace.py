"""Bench: fleet tracing — observation must not perturb, and off means free.

Runs one closed-loop grid three ways on identical training artifacts:

1. **serial, tracing off** — the reference aggregate,
2. **serial, tracing on** (deterministic sidecars), and
3. **process backend + chaos + tracing on** — a worker is hard-killed
   mid-run, the pool rebuilds, the shard retries, and its sidecar is
   rewritten by the retry attempt.

Three invariants, asserted unconditionally on any hardware:

- **tracing must not perturb**: all three runs produce byte-identical
  ``aggregate_json()`` documents (the trace pipeline only *reads* hub
  state after the runner returns; it draws no randomness and feeds
  nothing back),
- **a crashed shard's trace is complete**: the sidecar the retried
  attempt publishes carries the *same event lines* as the clean serial
  run's sidecar for that shard (only the header's ``attempt`` differs),
  and the shard appears fully in the merged timeline, and
- **disabled-mode overhead < 5%**: the cost of the tracing hooks when no
  trace is installed (the ``active_trace() is None`` branch in
  ``execute_spec`` plus the guarded no-op ``announce_shard_hub`` call
  every runner makes), extrapolated to the whole fleet, stays below 5%
  of the untraced serial run's wall time.

Results land in ``BENCH_fleet_trace.json``.  Env knobs for the CI
smoke: ``FLEET_TRACE_SHARDS`` (default 6), ``FLEET_TRACE_WORKERS``
(default 2), ``FLEET_TRACE_CRASH_P`` (default 0.2).
"""

import json
import os
import time
from pathlib import Path

import pytest

from benchmarks.bench_env import environment
from repro.faults.chaos import ChaosConfig, crash_decision
from repro.fleet import grid, run_fleet
from repro.fleet.shards import clear_training_cache
from repro.resilience import RetryPolicy
from repro.telemetry.hub import NULL_HUB
from repro.telemetry.tracing import (
    active_trace,
    announce_shard_hub,
    read_merged_trace,
    read_trace_file,
    safe_lane_name,
)

ARTIFACT = Path(__file__).with_name("BENCH_fleet_trace.json")

SHARDS = int(os.environ.get("FLEET_TRACE_SHARDS", "6"))
WORKERS = int(os.environ.get("FLEET_TRACE_WORKERS", "2"))
CRASH_P = float(os.environ.get("FLEET_TRACE_CRASH_P", "0.2"))
HORIZON = 0.4 * 86_400.0
BASE_SEED = 21
TRAIN_SEED = 11

#: Attempts the seed search clears for every shard (collateral-safe).
SEARCH_ATTEMPTS = 4


def _transient_crash_config(keys) -> tuple[ChaosConfig, dict]:
    """A seeded regime with >=1 attempt-1 crash and all-clean retries."""
    for seed in range(20000):
        config = ChaosConfig(seed=seed, crash_probability=CRASH_P)
        planned = [key for key in keys if crash_decision(config, key, 1)]
        if not planned:
            continue
        if all(
            not crash_decision(config, key, attempt)
            for key in keys
            for attempt in range(2, SEARCH_ATTEMPTS + 1)
        ):
            return config, {
                "chaos_seed": seed,
                "planned_attempt1_crashes": len(planned),
            }
    pytest.fail(
        f"no chaos seed under 20000 yields a transient crash regime at "
        f"p={CRASH_P} for {len(keys)} shards"
    )


def _sidecar_lines(trace_dir: str, key: str) -> tuple[dict, list[str]]:
    """A shard sidecar's header meta and its raw event lines."""
    path = os.path.join(trace_dir, "shards", f"{safe_lane_name(key)}.jsonl")
    meta, _ = read_trace_file(path)
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return meta, lines[1:]  # line 0 is the header


def _disabled_hook_cost(iterations: int = 200_000) -> float:
    """Wall seconds per shard spent in tracing hooks when tracing is off.

    Replays the exact no-trace path one shard execution takes: the
    ``active_trace()`` check in ``execute_spec`` and the runner's
    ``announce_shard_hub`` call (a no-op when no capture window is
    open).
    """
    start = time.perf_counter()
    for _ in range(iterations):
        if active_trace() is None:
            announce_shard_hub(NULL_HUB)
    return (time.perf_counter() - start) / iterations


@pytest.mark.slow
def test_bench_fleet_trace_does_not_perturb(tmp_path):
    specs = grid(
        ["closed-loop"],
        seeds=range(BASE_SEED, BASE_SEED + SHARDS),
        horizon=HORIZON,
        telemetry=True,
        train_seed=TRAIN_SEED,
    )
    keys = [spec.key() for spec in specs]
    config, search = _transient_crash_config(keys)
    planned = [key for key in keys if crash_decision(config, key, 1)]

    serial_trace_dir = str(tmp_path / "trace-serial")
    chaos_trace_dir = str(tmp_path / "trace-chaos")

    clear_training_cache()
    plain = run_fleet(
        specs, backend="serial", artifact_store=str(tmp_path / "store-plain")
    )
    clear_training_cache()
    traced = run_fleet(
        specs,
        backend="serial",
        artifact_store=str(tmp_path / "store-traced"),
        trace_dir=serial_trace_dir,
        trace_deterministic=True,
    )
    clear_training_cache()
    chaotic = run_fleet(
        specs,
        backend="process",
        workers=WORKERS,
        artifact_store=str(tmp_path / "store-chaos"),
        chaos=config,
        retry=RetryPolicy(max_attempts=SEARCH_ATTEMPTS + 2),
        trace_dir=chaos_trace_dir,
        trace_deterministic=True,
    )

    plain_doc = plain.aggregate_json()
    traced_doc = traced.aggregate_json()
    chaos_doc = chaotic.aggregate_json()
    recovery = chaotic.timing["recovery"]

    # --- invariant 1: tracing (and chaos under tracing) never perturbs.
    assert traced_doc == plain_doc, (
        "serial aggregate changed when tracing was enabled"
    )
    assert chaos_doc == plain_doc, (
        "chaotic traced aggregate diverged from the untraced serial run"
    )
    assert chaotic.quarantined == []
    assert recovery["worker_restarts"] >= 1
    assert recovery["infrastructure_failures"] >= 1

    # --- invariant 2: the crashed shard's trace is complete.  The chaos
    # harness may kill a worker before every planned crash fires (the
    # doomed shard is then resubmitted directly at attempt 2), so only
    # shards that actually crashed are required to show attempt >= 2.
    merged = read_merged_trace(chaos_trace_dir)
    fired = {
        doc["key"]
        for doc in merged
        if str(doc.get("event", "")) == "chaos.crash"
    }
    assert fired and fired <= set(planned)
    retried_attempts = {}
    for key in keys:
        serial_meta, serial_lines = _sidecar_lines(serial_trace_dir, key)
        chaos_meta, chaos_lines = _sidecar_lines(chaos_trace_dir, key)
        assert chaos_lines == serial_lines, (
            f"shard {key}: traced event lines diverged after recovery"
        )
        assert chaos_meta["events"] == serial_meta["events"]
        if key in fired:
            assert chaos_meta["attempt"] >= 2, (
                f"crashed shard {key} sidecar not rewritten by the retry"
            )
            retried_attempts[key] = chaos_meta["attempt"]
    lanes = {doc.get("lane") for doc in merged}
    assert lanes >= set(keys), "merged timeline is missing shard lanes"

    # --- invariant 3: disabled-mode hooks are free (< 5% of the run).
    per_shard = _disabled_hook_cost()
    wall_off = plain.timing["wall_seconds"]
    disabled_overhead = (per_shard * SHARDS) / wall_off if wall_off else 0.0

    record = {
        "env": environment(),
        "config": {
            "shards": SHARDS,
            "workers": WORKERS,
            "horizon_days": HORIZON / 86_400.0,
            "base_seed": BASE_SEED,
            "train_seed": TRAIN_SEED,
            "crash_probability": config.crash_probability,
            "max_attempts": SEARCH_ATTEMPTS + 2,
            **search,
        },
        "wall_seconds": {
            "serial_untraced": plain.timing["wall_seconds"],
            "serial_traced": traced.timing["wall_seconds"],
            "process_chaos_traced": chaotic.timing["wall_seconds"],
        },
        "trace": {
            **{
                k: chaotic.timing["trace"][k]
                for k in ("events", "shards", "supervisor_events",
                          "chaos_events")
            },
            "fired_crashes": sorted(fired),
            "retried_attempts": retried_attempts,
        },
        "recovery": recovery,
        "aggregates_identical": traced_doc == plain_doc == chaos_doc,
        "disabled_per_shard_us": per_shard * 1e6,
        "disabled_overhead_pct": 100.0 * disabled_overhead,
    }
    ARTIFACT.write_text(json.dumps(record, indent=2) + "\n")

    print("\n=== fleet tracing perturbation + overhead ===")
    print(
        f"shards={SHARDS} workers={WORKERS} chaos_seed={config.seed} "
        f"fired_crashes={sorted(fired)}"
    )
    print(
        f"wall: untraced={plain.timing['wall_seconds']:.2f}s "
        f"traced={traced.timing['wall_seconds']:.2f}s "
        f"chaos+traced={chaotic.timing['wall_seconds']:.2f}s"
    )
    print(
        f"disabled hooks: {per_shard * 1e6:.3f}us/shard x {SHARDS} shards "
        f"= {100.0 * disabled_overhead:.5f}% of run"
    )

    assert disabled_overhead < 0.05
