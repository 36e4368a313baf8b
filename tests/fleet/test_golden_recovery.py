"""Golden fleet report: recovery bytes of one seeded serial chaos run.

Six cheap shards run on the serial backend under a chaos config chosen
so that shards crash on their first attempt and recover on a retry, and
one shard crashes on every attempt and is quarantined.  The bytes of
``aggregate_json(include_recovery=True)`` and ``summary()`` (wall time
zeroed) are compared with the committed files in ``golden/``: any change
to the recovery counters, their names, the quarantine record or the
summary layout shows up as a byte difference.

A deliberate change regenerates them with
``PYTHONPATH=src python tests/fleet/test_golden_recovery.py``.
"""

import sys
from pathlib import Path

from repro.faults.chaos import ChaosConfig, crash_decision
from repro.fleet import RunResult, RunSpec, grid, run_fleet
from repro.fleet.shards import register_scenario_runner
from repro.resilience import RetryPolicy

GOLDEN = Path(__file__).with_name("golden")

GOLDEN_FAKE = "golden-fake"
MAX_ATTEMPTS = 3


def _fake_runner(spec: RunSpec) -> RunResult:
    return RunResult(
        spec=spec,
        availability=0.9 + (spec.seed % 10) / 100.0,
        failures=spec.seed % 3,
        warnings_raised=spec.seed,
        actions_taken=spec.seed % 2,
    )


register_scenario_runner(GOLDEN_FAKE, _fake_runner, overwrite=True)


def _chaos_config(keys) -> ChaosConfig:
    """The first seed where two shards crash once and one crashes always."""
    for seed in range(5000):
        config = ChaosConfig(seed=seed, crash_probability=0.3)
        crashes = [
            [crash_decision(config, key, attempt) for attempt in range(1, 4)]
            for key in keys
        ]
        transient = sum(c == [True, False, False] for c in crashes)
        poisoned = sum(c == [True, True, True] for c in crashes)
        clean = sum(not any(c) for c in crashes)
        if transient == 2 and poisoned == 1 and clean == len(keys) - 3:
            return config
    raise AssertionError("no chaos seed with the wanted fault pattern")


def run_golden():
    """The pinned run: aggregate-with-recovery bytes and summary bytes."""
    specs = grid([GOLDEN_FAKE], seeds=range(1, 7))
    report = run_fleet(
        specs,
        backend="serial",
        chaos=_chaos_config([spec.key() for spec in specs]),
        retry=RetryPolicy(max_attempts=MAX_ATTEMPTS),
    )
    report.timing["wall_seconds"] = 0.0
    document = report.aggregate_json(include_recovery=True) + "\n"
    return report, document.encode(), (report.summary() + "\n").encode()


class TestGoldenRecovery:
    def test_run_retries_and_quarantines(self):
        report, _, _ = run_golden()
        recovery = report.timing["recovery"]
        assert recovery["retries"] >= 1
        assert recovery["quarantined"] == 1
        assert len(report.quarantined) == 1

    def test_bytes_match_golden(self):
        _, document, summary = run_golden()
        assert document == (GOLDEN / "recovery.json").read_bytes()
        assert summary == (GOLDEN / "recovery_summary.txt").read_bytes()


if __name__ == "__main__":
    _, document, summary = run_golden()
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "recovery.json").write_bytes(document)
    (GOLDEN / "recovery_summary.txt").write_bytes(summary)
    sys.stdout.write(f"wrote {GOLDEN}/recovery.json and recovery_summary.txt\n")
