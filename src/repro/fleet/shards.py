"""Shard execution: turn one :class:`RunSpec` into one :class:`RunResult`.

A shard is fully self-contained — it derives every RNG seed from the
spec, trains its own predictor (through a per-process memo cache, so a
worker that sees ten shards with the same training configuration trains
once), runs the simulation, and returns a picklable result.  That
self-containment is what makes the K-shard parallel run bit-identical to
the serial run: no shard reads state another shard wrote.

Scenario dispatch is by name:

- ``closed-loop`` — train, then replay one faultload with and without the
  PFM controller (the :func:`repro.core.run_closed_loop` experiment);
- everything else is routed to the PFM fault-injection campaign
  (:func:`repro.resilience.campaign.run_scenario_spec`): ``no-pfm``,
  ``healthy-pfm``, and any attacked scenario whose attack surfaces are
  carried in ``spec.options["attacks"]``.

Custom workloads plug in via :func:`register_scenario_runner`, which
records a scenario's runner and, optionally, its training plan in one
table entry.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.fleet.spec import CLOSED_LOOP, RunResult, RunSpec

# ----------------------------------------------------------------------
# Per-process training cache
# ----------------------------------------------------------------------

#: Trained-model memo, keyed by hashable training configuration.  Lives at
#: module level so each worker process (and the serial backend) trains a
#: given configuration exactly once.  Training is deterministic given the
#: key, so a cache hit and a fresh train are interchangeable — the
#: property the parallel/serial equality guarantee rests on.
_TRAIN_CACHE: dict = {}


def cached_training(key, builder: Callable):
    """The trained model for ``key``: memo, then artifact store, then build.

    Lookup order is (1) the per-process memo, (2) the process's active
    :class:`~repro.fleet.artifacts.ArtifactStore` (where a pre-warm pass
    or another worker already published the model), and only then (3)
    ``builder()`` — whose product is published back to the store so every
    later process loads instead of training.
    """
    if key in _TRAIN_CACHE:
        return _TRAIN_CACHE[key]
    from repro.fleet.artifacts import active_artifact_store

    store = active_artifact_store()
    trained = store.load(key) if store is not None else None
    if trained is None:
        trained = builder()
        if store is not None:
            store.save(key, trained)
    _TRAIN_CACHE[key] = trained
    return trained


def seed_training_cache(key, trained) -> None:
    """Pre-populate the cache (benchmarks inject pre-trained models)."""
    _TRAIN_CACHE[key] = trained


def clear_training_cache() -> None:
    """Drop every cached model (tests; memory pressure)."""
    _TRAIN_CACHE.clear()


# ----------------------------------------------------------------------
# Scenario runners
# ----------------------------------------------------------------------

#: scenario name -> (runner, training plan or None)
_SCENARIOS: dict[str, tuple[Callable[[RunSpec], RunResult], Callable | None]] = {}


def register_scenario_runner(
    name: str,
    runner: Callable[[RunSpec], RunResult],
    plan: Callable | None = None,
    overwrite: bool = False,
) -> None:
    """Make scenario ``name`` executable (and pre-warmable) by the fleet.

    ``runner(spec)`` must return a :class:`RunResult`.  ``plan(spec)``
    returns ``(train_key, builder)`` — the exact pair the runner hands to
    :func:`cached_training` — or ``None`` for specs that need no
    training; scenarios without a plan still run, they just cannot be
    pre-warmed.  Registration happens at import time of the defining
    module, so worker processes inherit it (the pool forks after
    imports).
    """
    if name in _SCENARIOS and not overwrite:
        raise ConfigurationError(f"scenario runner {name!r} already registered")
    _SCENARIOS[name] = (runner, plan)


def _closed_loop_inputs(spec: RunSpec):
    """``(seeds, variables, base dataset config)`` of a closed-loop shard."""
    from repro.core.experiment import DEFAULT_VARIABLES
    from repro.telecom.dataset import DatasetConfig

    base = spec.option("dataset")
    if base is None:
        base = DatasetConfig()
    elif isinstance(base, dict):
        base = DatasetConfig(**base)
    variables = list(spec.variables) if spec.variables else list(DEFAULT_VARIABLES)
    return spec.seeds(), variables, base


def _closed_loop_training_plan(spec: RunSpec):
    """``(train_key, builder)`` for a closed-loop shard.

    Shared by the in-shard training path and the fleet's pre-warm pass,
    so both address the identical cache/artifact entry.
    """
    from dataclasses import replace as dc_replace

    from repro.core import experiment
    from repro.prediction.registry import make_predictor

    seeds, variables, base = _closed_loop_inputs(spec)
    train_config = dc_replace(base, seed=seeds["train"], horizon=spec.horizon)

    train_key = (
        CLOSED_LOOP,
        spec.predictor,
        spec.predictor_params,
        seeds["train"],
        spec.horizon,
        tuple(variables),
        repr(base),
    )

    def _train():
        predictor = make_predictor(
            spec.predictor,
            rng=np.random.default_rng(seeds["train"]),
            **spec.params(),
        )
        return experiment.train_predictor(train_config, variables, predictor)

    return train_key, _train


def _closed_loop_runner(spec: RunSpec) -> RunResult:
    from repro.core import experiment
    from repro.telemetry.hub import TelemetryHub

    seeds, variables, base = _closed_loop_inputs(spec)
    trained = cached_training(*_closed_loop_training_plan(spec))

    hub = TelemetryHub() if spec.telemetry else None
    if hub is not None:
        from repro.telemetry.tracing import announce_shard_hub

        announce_shard_hub(hub)
    wall_start = time.perf_counter()
    result = experiment.run_closed_loop(
        train_seed=seeds["train"],
        eval_seed=seeds["eval"],
        horizon=spec.horizon,
        variables=variables,
        config=base,
        trained=trained,
        telemetry=hub,
    )
    wall_seconds = time.perf_counter() - wall_start

    return RunResult(
        spec=spec,
        availability=result.pfm_window_availability,
        failures=result.pfm_failures,
        baseline_availability=result.baseline_window_availability,
        baseline_failures=result.baseline_failures,
        mea_iterations=result.mea_iterations,
        warnings_raised=result.warnings_raised,
        actions_taken=result.actions_taken,
        outcome_matrix=result.outcome_matrix,
        telemetry_events=len(hub.events) if hub is not None else 0,
        metrics_state=hub.registry.to_state() if hub is not None else None,
        wall_seconds=wall_seconds,
    )


register_scenario_runner(CLOSED_LOOP, _closed_loop_runner, _closed_loop_training_plan)


def _scenario_entry(spec: RunSpec):
    """``(runner, plan)`` for ``spec``, or ``None`` when no scenario fits.

    Campaign scenarios resolve lazily through
    :mod:`repro.resilience.campaign` (importing it here would pull the
    whole experiment stack into the fleet substrate): its runner and
    training plan serve every built-in campaign name and any spec that
    carries its attack surfaces in ``options["attacks"]``.
    """
    entry = _SCENARIOS.get(spec.scenario)
    if entry is None:
        from repro.resilience import campaign

        if campaign.knows_scenario(spec):
            entry = (campaign.run_scenario_spec, campaign.training_plan_for_spec)
    return entry


def training_plan(spec: RunSpec):
    """``(train_key, builder)`` for ``spec``, or ``None`` when unknown."""
    entry = _scenario_entry(spec)
    if entry is None or entry[1] is None:
        return None
    return entry[1](spec)


def execute_spec(spec: RunSpec, attempt: int = 1) -> RunResult:
    """Run one shard in this process (the worker entry point).

    Module-level (hence picklable) so a ``ProcessPoolExecutor`` can ship
    it; the campaign runners resolve lazily to keep import cycles out of
    the fleet substrate.

    When fleet tracing is armed in this process (the worker initializer
    installed a :class:`~repro.telemetry.tracing.TraceContext`), the
    runner call is bracketed by a capture window: whatever telemetry
    hubs the runner announces are serialized to the shard's JSONL
    sidecar after the run succeeds.  ``attempt`` stamps the sidecar
    header only — a retried shard's event lines byte-match the first
    attempt's, which is how the chaos bench proves a restarted worker's
    trace is complete.  Tracing reads the hubs, never mutates them, so
    results are identical with tracing on or off.
    """
    entry = _scenario_entry(spec)
    if entry is None:
        from repro.resilience.campaign import known_scenario_names

        raise ConfigurationError(
            f"no runner for scenario {spec.scenario!r}; known: "
            f"{sorted(_SCENARIOS) + sorted(known_scenario_names())}"
        )
    runner = entry[0]

    from repro.telemetry import tracing

    context = tracing.active_trace()
    if context is None:
        return runner(spec)

    tracing.begin_shard_capture()
    try:
        result = runner(spec)
    finally:
        hubs = tracing.end_shard_capture()
    tracing.write_shard_trace(context, spec.key(), hubs, attempt=attempt)
    return result
