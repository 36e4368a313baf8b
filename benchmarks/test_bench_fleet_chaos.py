"""Bench: the chaos invariant — aggregates under chaos == clean serial.

Runs one closed-loop grid twice: once cleanly on the serial backend, and
once on the process backend with the fleet chaos harness hard-killing
workers (``os._exit`` via seeded crash decisions) while the supervisor
loop rebuilds the pool and retries the lost shards.  The invariant this
bench exists to prove, asserted unconditionally on any hardware:

    **the aggregate of the chaotic run is byte-identical to the clean
    serial run** — worker loss, pool rebuilds, and retries change the
    wall-clock story only, never the results — and no shard was
    quarantined (every injected crash was transient and absorbed).

The chaos seed is *searched for* at run time over the pure decision
functions in :mod:`repro.faults.chaos`: the bench demands a regime where
at least one shard dies on its first attempt but every retry draw (for
every shard, covering collateral resubmissions after a pool break) is
clean, so the retry budget provably suffices.  The search is recorded in
``BENCH_fleet_chaos.json`` along with the recovery counters (retries,
worker restarts, infrastructure failures absorbed).

Env knobs for the CI smoke: ``FLEET_CHAOS_SHARDS`` (default 8),
``FLEET_CHAOS_WORKERS`` (default 2), ``FLEET_CHAOS_CRASH_P`` (default
0.2), and ``FLEET_CHAOS_SPEC`` to override the chaos spec entirely
(``crash=...,slow=...,torn=...`` — parsed by
:func:`repro.faults.chaos.parse_chaos`; the seed search is skipped and
the run may legitimately quarantine, which is then recorded, not
asserted against).
"""

import json
import os
from pathlib import Path

import pytest

from benchmarks.bench_env import environment
from repro.faults.chaos import ChaosConfig, crash_decision, parse_chaos
from repro.fleet import grid, run_fleet
from repro.fleet.shards import clear_training_cache
from repro.resilience import RetryPolicy

ARTIFACT = Path(__file__).with_name("BENCH_fleet_chaos.json")

SHARDS = int(os.environ.get("FLEET_CHAOS_SHARDS", "8"))
WORKERS = int(os.environ.get("FLEET_CHAOS_WORKERS", "2"))
CRASH_P = float(os.environ.get("FLEET_CHAOS_CRASH_P", "0.2"))
CHAOS_SPEC = os.environ.get("FLEET_CHAOS_SPEC")
HORIZON = 0.4 * 86_400.0
BASE_SEED = 21
TRAIN_SEED = 11

#: Attempts the seed search clears for every shard (collateral-safe: a
#: pool break resubmits innocent in-flight shards with bumped attempt
#: numbers, so their retry draws must be clean too).
SEARCH_ATTEMPTS = 4


def _transient_crash_config(keys) -> tuple[ChaosConfig, dict]:
    """A seeded regime with >=1 attempt-1 crash and all-clean retries."""
    for seed in range(20000):
        config = ChaosConfig(seed=seed, crash_probability=CRASH_P)
        first_attempt_crashes = [
            key for key in keys if crash_decision(config, key, 1)
        ]
        if not first_attempt_crashes:
            continue
        if all(
            not crash_decision(config, key, attempt)
            for key in keys
            for attempt in range(2, SEARCH_ATTEMPTS + 1)
        ):
            return config, {
                "chaos_seed": seed,
                "planned_attempt1_crashes": len(first_attempt_crashes),
            }
    pytest.fail(
        f"no chaos seed under 20000 yields a transient crash regime at "
        f"p={CRASH_P} for {len(keys)} shards"
    )


@pytest.mark.slow
def test_bench_fleet_chaos_equals_clean_serial(tmp_path):
    specs = grid(
        ["closed-loop"],
        seeds=range(BASE_SEED, BASE_SEED + SHARDS),
        horizon=HORIZON,
        telemetry=True,
        train_seed=TRAIN_SEED,
    )
    keys = [spec.key() for spec in specs]
    if CHAOS_SPEC:
        config, search = parse_chaos(CHAOS_SPEC), {"chaos_spec": CHAOS_SPEC}
        transient_guaranteed = False
    else:
        config, search = _transient_crash_config(keys)
        transient_guaranteed = True

    clean_store = str(tmp_path / "artifacts-clean")
    chaos_store = str(tmp_path / "artifacts-chaos")
    clear_training_cache()
    clean = run_fleet(specs, backend="serial", artifact_store=clean_store)
    clear_training_cache()
    chaotic = run_fleet(
        specs,
        backend="process",
        workers=WORKERS,
        artifact_store=chaos_store,
        chaos=config,
        retry=RetryPolicy(max_attempts=SEARCH_ATTEMPTS + 2),
    )

    clean_doc = clean.aggregate_json()
    chaos_doc = chaotic.aggregate_json()
    recovery = chaotic.timing["recovery"]

    record = {
        "env": environment(),
        "config": {
            "shards": SHARDS,
            "workers": WORKERS,
            "horizon_days": HORIZON / 86_400.0,
            "base_seed": BASE_SEED,
            "train_seed": TRAIN_SEED,
            "crash_probability": config.crash_probability,
            "slow_probability": config.slow_probability,
            "torn_artifact_probability": config.torn_artifact_probability,
            "max_attempts": SEARCH_ATTEMPTS + 2,
            **search,
        },
        "clean_wall_seconds": clean.timing["wall_seconds"],
        "chaos_wall_seconds": chaotic.timing["wall_seconds"],
        "recovery": recovery,
        "quarantined": [q["key"] for q in chaotic.quarantined],
        "aggregates_identical": clean_doc == chaos_doc,
    }
    ARTIFACT.write_text(json.dumps(record, indent=2) + "\n")

    print("\n=== fleet under chaos vs clean serial ===")
    print(
        f"shards={SHARDS} workers={WORKERS} "
        f"crash_p={config.crash_probability} seed={config.seed}"
    )
    print(
        f"recovery: {recovery['retries']} retries, "
        f"{recovery['worker_restarts']} pool rebuilds, "
        f"{recovery['infrastructure_failures']} infra failures absorbed"
    )

    if transient_guaranteed:
        # The searched regime guarantees full absorption: every shard
        # completes, nothing quarantines, and the chaos provably fired.
        assert recovery["infrastructure_failures"] >= 1, (
            "chaos fired no faults — the bench proved nothing"
        )
        assert recovery["worker_restarts"] >= 1, (
            "no pool rebuild happened despite a planned worker kill"
        )
        assert chaotic.quarantined == [], (
            f"transient regime still quarantined {chaotic.quarantined}"
        )
        assert chaos_doc == clean_doc, (
            "aggregate under chaos diverged from the clean serial run"
        )
    else:
        # User-supplied regime: quarantine is legitimate; the invariant
        # narrows to "every shard that completed matches its clean twin".
        surviving = {r.spec.key() for r in chaotic.results}
        for result in clean.results:
            if result.spec.key() in surviving:
                assert (
                    chaotic.result_for(result.spec).availability
                    == result.availability
                )
