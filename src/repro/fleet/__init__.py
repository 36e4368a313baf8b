"""``repro.fleet``: sharded multi-seed experiment campaigns.

One :class:`RunSpec` describes one run; :func:`grid` builds the cross
product ``scenario x seed x predictor``; :func:`run_fleet` fans the grid
across a process pool (or runs it serially for debugging), checkpoints
completed shards to a JSONL ledger, and returns a :class:`FleetReport`
with per-scenario distributions and merged telemetry metrics.  The
parallel run is bit-identical to the serial run because every shard
derives all of its randomness from its own spec.

Quickstart::

    from repro.fleet import RunSpec, grid, run_fleet

    report = run_fleet(
        grid(["closed-loop"], seeds=range(21, 29), horizon=86_400.0),
        backend="process", workers=4, ledger_path="fleet.jsonl",
        artifact_store="fleet-artifacts",   # train once, load per worker
    )
    print(report.summary())
    report.scenario("closed-loop").to_json_dict()["availability"]["ci95"]

The heavyweight pieces (runner, aggregation — which pull in the whole
experiment stack) load lazily; importing :mod:`repro.fleet` for the spec
types alone stays cheap and cycle-free.
"""

from repro.fleet.spec import CLOSED_LOOP, RunResult, RunSpec, grid

__all__ = [
    "CLOSED_LOOP",
    "RunSpec",
    "RunResult",
    "grid",
    # lazily loaded:
    "ArtifactStore",
    "DETERMINISTIC",
    "INFRASTRUCTURE",
    "FleetReport",
    "classify_failure",
    "ScenarioAggregate",
    "ShardLedger",
    "bootstrap_ci",
    "collect_report",
    "execute_spec",
    "prewarm_training",
    "render_html",
    "render_markdown",
    "register_scenario_runner",
    "run_fleet",
    "train_key_digest",
]

_LAZY = {
    "FleetReport": ("repro.fleet.aggregate", "FleetReport"),
    "ScenarioAggregate": ("repro.fleet.aggregate", "ScenarioAggregate"),
    "bootstrap_ci": ("repro.fleet.aggregate", "bootstrap_ci"),
    "ArtifactStore": ("repro.fleet.artifacts", "ArtifactStore"),
    "prewarm_training": ("repro.fleet.artifacts", "prewarm_training"),
    "train_key_digest": ("repro.fleet.artifacts", "train_key_digest"),
    "DETERMINISTIC": ("repro.fleet.failures", "DETERMINISTIC"),
    "INFRASTRUCTURE": ("repro.fleet.failures", "INFRASTRUCTURE"),
    "classify_failure": ("repro.fleet.failures", "classify_failure"),
    "ShardLedger": ("repro.fleet.ledger", "ShardLedger"),
    "collect_report": ("repro.fleet.report", "collect_report"),
    "render_markdown": ("repro.fleet.report", "render_markdown"),
    "render_html": ("repro.fleet.report", "render_html"),
    "execute_spec": ("repro.fleet.shards", "execute_spec"),
    "register_scenario_runner": ("repro.fleet.shards", "register_scenario_runner"),
    "run_fleet": ("repro.fleet.runner", "run_fleet"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)
