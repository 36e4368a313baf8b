"""Per-layer accounting from outside the program.

The benchmark never edits ``src/``.  Instead it installs class-level (and
module-level) wrappers around each layer's public entry points, keeps a
span stack, and charges every wrapped call's *self time* (its duration
minus the wrapped calls nested inside it) to the caller's layer.  Layer
names follow the package layout: ``simulator``, ``telecom``,
``monitoring``, ``faults``, ``prediction.*``, ``core``, ``actions``,
``resilience``, ``telemetry``, ``fleet``.

Two profiles share one mechanism:

- ``"e2e"`` installs only what untraced repetitions need: the
  ``MEACycle.step`` latency timer, plus (for fleet runs) the pre-warm
  timer and the per-shard dump hook that carries worker numbers home.
  Untraced repetitions run the same way with and without ``--trace``.
- ``"layers"`` installs every wrapper below (the traced run).

Wrappers installed before ``run_fleet`` forks its pool are inherited by
the workers.  Each worker resets its accounting when a shard starts and
writes one JSON dump per shard into ``dump_dir``; the parent merges them.
Spans whose names start with ``_`` are bookkeeping roots, not layers:
``_root`` (the workload body), ``_shard`` (one shard in a worker) and
``_idle`` (the parent blocked on the worker pool).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
from collections import defaultdict
from time import perf_counter

ROOT = "_root"
SHARD = "_shard"
IDLE = "_idle"


def _process_layer(args) -> str | None:
    """Layer of one simulation-process resume, by the process's name.

    Processes whose bodies call a wrapped entry point (ticks, sampling,
    the MEA cycle) pass through; the rest would otherwise be charged to
    the engine.
    """
    name = args[0].name
    if name.startswith(("inject:", "pfm-inject:")):
        return "faults"
    if name.startswith("aging-"):
        return "telecom.aging"
    if name == "pfm-housekeeping":
        return "core.housekeeping"
    return None


def _hsmm_layer(args) -> str:
    return "prediction.hsmm.online" if len(args[1]) == 1 else "prediction.hsmm.batch"


class Tracer:
    """Span stack plus per-layer counters for one process."""

    def __init__(self, profile: str, dump_dir: str | None = None) -> None:
        if profile not in ("e2e", "layers"):
            raise ValueError(f"unknown trace profile {profile!r}")
        self.profile = profile
        self.dump_dir = dump_dir
        self._installed: list[tuple[object, str, object, bool]] = []
        self._dumps = 0
        self.parent_pid = os.getpid()
        self.reset()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def reset(self) -> None:
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def enter(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        elapsed = perf_counter() - frame[1]
        self.stack.pop()
        name = frame[0]
        self.self_s[name] += elapsed - frame[2]
        self.incl_s[name] += elapsed
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += elapsed
        return elapsed

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def state(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def merge(self, state: dict) -> None:
        for key in ("self_s", "incl_s", "calls", "counts"):
            target = getattr(self, key)
            for name, value in state[key].items():
                target[name] += value
        for name, values in state["samples"].items():
            self.samples[name].extend(values)

    def merge_dumps(self) -> None:
        """Fold every worker dump into this (parent) tracer."""
        if self.dump_dir is None or not os.path.isdir(self.dump_dir):
            return
        for entry in sorted(os.listdir(self.dump_dir)):
            if entry.endswith(".json"):
                path = os.path.join(self.dump_dir, entry)
                with open(path, encoding="utf-8") as handle:
                    self.merge(json.load(handle))
                os.remove(path)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        self._installed.append((owner, attr, original, had_own))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, layer, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``layer`` is a layer name, or a callable of the call's positional
        arguments returning one (``None``: no span, just ``after``).  A
        call made while the same layer is already innermost passes
        through, so recursion and layer-internal delegation are charged
        once.  ``after(elapsed, args, result)`` sees each completed call.
        """
        original = getattr(owner, attr)
        tracer = self
        dynamic = callable(layer)

        def wrapper(*args, **kwargs):
            name = layer(args) if dynamic else layer
            stack = tracer.stack
            if name is None or (stack and stack[-1][0] == name):
                result = original(*args, **kwargs)
                if after is not None and name is None:
                    after(0.0, args, result)
                return result
            frame = tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = tracer.exit(frame)
            if after is not None:
                after(elapsed, args, result)
            return result

        self._patch(owner, attr, functools.wraps(original)(wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._installed):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    def install(self, fleet: bool = False) -> None:
        """Install the profile's wrappers (``fleet``: worker plumbing too)."""
        from repro.core.mea import MEACycle

        def mea_after(elapsed, _args, record):
            self.samples["core.mea"].append(elapsed * 1e3)
            if record.failed_steps:
                self.counts["resilience.degraded_cycles"] += 1

        self.wrap(MEACycle, "step", "core.mea", after=mea_after)
        if fleet:
            self._install_fleet()
        if self.profile == "layers":
            self._install_layers()

    def _install_fleet(self) -> None:
        from repro.fleet import executors, runner

        tracer = self
        original = runner.execute_spec

        def execute_spec(spec, attempt=1):
            in_worker = os.getpid() != tracer.parent_pid
            if in_worker:
                tracer.reset()  # shed the parent state the fork copied
            frame = tracer.enter(SHARD)
            try:
                return original(spec, attempt=attempt)
            finally:
                tracer.exit(frame)
                if in_worker:
                    tracer.dump()

        execute_spec.__wrapped__ = original
        self._patch(runner, "execute_spec", execute_spec)
        self.wrap(runner, "prewarm_training", "fleet.prewarm")
        if self.profile == "layers":
            from repro.fleet.artifacts import ArtifactStore

            self.wrap(runner, "run_fleet", "fleet.run")
            self.wrap(ArtifactStore, "save", "fleet.store")
            self.wrap(ArtifactStore, "load", "fleet.store")
            self.wrap(executors, "wait", IDLE)

    def dump(self) -> None:
        """Write this worker's accounting for the parent, then start over."""
        if self.dump_dir is None:
            return
        self._dumps += 1
        path = os.path.join(self.dump_dir, f"{os.getpid()}-{self._dumps}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(self.state(), handle)
        os.replace(path + ".tmp", path)
        self.reset()

    def _install_layers(self) -> None:
        import scipy.optimize

        from repro.actions.base import Action
        from repro.core.controller import PFMController
        from repro.faults.injectors import FaultInjector, IntermittentErrorInjector
        from repro.monitoring.collectors import PeriodicCollector
        from repro.monitoring.logbook import ErrorLog
        from repro.monitoring.timeseries import TimeSeries, TimeSeriesStore
        from repro.prediction.arbitration import NoisyOrArbitrator
        from repro.prediction.baselines.mset import MSETPredictor
        from repro.prediction.baselines.rate import ErrorRatePredictor
        from repro.prediction.hsmm.predictor import HSMMPredictor
        from repro.prediction.ubf.predictor import UBFPredictor
        from repro.resilience import campaign
        from repro.resilience.fallback import FallbackPredictor
        from repro.resilience.sanitizer import GaugeSanitizer
        from repro.simulator.engine import Engine
        from repro.simulator.process import Process
        from repro.telecom.dataset import TelecomDataset
        from repro.telecom.system import SCPSystem

        tracer = self

        # simulator: Engine.run minus everything it calls back into.
        original_run = Engine.run

        def engine_run(engine, *args, **kwargs):
            before = engine.processed_events
            frame = tracer.enter("simulator")
            try:
                return original_run(engine, *args, **kwargs)
            finally:
                tracer.exit(frame)
                tracer.counts["simulator.events"] += engine.processed_events - before

        engine_run.__wrapped__ = original_run
        self._patch(Engine, "run", engine_run)
        self.wrap(Process, "resume", _process_layer)

        # telecom: the engine-scheduled SCP tick, dataset assembly.
        self.wrap(SCPSystem, "_do_tick", "telecom.tick")
        self.wrap(TelecomDataset, "training_data", "telecom.dataset")

        # monitoring: collector writes; store, series and error-log reads.
        self.wrap(PeriodicCollector, "sample_once", "monitoring.write")
        for owner, attr in (
            (TimeSeriesStore, "matrix"),
            (TimeSeries, "window"),
            (TimeSeries, "value_at"),
            (TimeSeries, "mean_over"),
            (TimeSeries, "resample"),
            (ErrorLog, "window"),
        ):
            self.wrap(owner, attr, "monitoring.read")

        # faults: episodes started (background noise is not an episode).
        def fault_started(_elapsed, args, _result):
            if not isinstance(args[0], IntermittentErrorInjector):
                tracer.counts["faults.episodes"] += 1

        self.wrap(FaultInjector, "start", "faults", after=fault_started)

        # prediction.ubf: fit (with optimizer call counts) and scoring.
        self.wrap(UBFPredictor, "fit_samples", "prediction.ubf.fit")

        def ubf_scored(elapsed, _args, _result):
            tracer.samples["prediction.ubf.score"].append(elapsed)

        self.wrap(UBFPredictor, "score_samples", "prediction.ubf.score", after=ubf_scored)

        def minimized(_elapsed, _args, result):
            if tracer.inside("prediction.ubf.fit"):
                tracer.counts["prediction.ubf.objective_calls"] += int(result.nfev)
                tracer.counts["prediction.ubf.gradient_calls"] += int(getattr(result, "njev", 0))

        self.wrap(scipy.optimize, "minimize", None, after=minimized)

        # prediction.hsmm: EM fit; batch (B>1) vs online (B=1) scoring.
        self.wrap(HSMMPredictor, "fit_sequences", "prediction.hsmm.fit")

        def hsmm_scored(elapsed, args, _result):
            if len(args[1]) == 1:
                tracer.samples["prediction.hsmm.online"].append(elapsed)
            else:
                tracer.counts["prediction.hsmm.batch_sequences"] += len(args[1])

        self.wrap(HSMMPredictor, "score_sequences", _hsmm_layer, after=hsmm_scored)

        # prediction.arbitration: panel fit and fusion, members excluded.
        self.wrap(NoisyOrArbitrator, "fit", "prediction.arbitration.fit")
        self.wrap(NoisyOrArbitrator, "score_batch", "prediction.arbitration.fuse")
        self.wrap(NoisyOrArbitrator, "score_samples", "prediction.arbitration.fuse")

        # Other predictors (the rate member, the MSET fallback).
        for owner, attr in (
            (ErrorRatePredictor, "fit_sequences"),
            (ErrorRatePredictor, "score_sequences"),
            (MSETPredictor, "fit_samples"),
            (MSETPredictor, "score_samples"),
        ):
            self.wrap(owner, attr, "prediction.other")

        # core: the controller's post-run accounting (the MEA step and
        # housekeeping are wrapped above).
        self.wrap(PFMController, "outcome_matrix", "core.accounting")

        # actions: every concrete countermeasure's execute.
        for cls in _all_subclasses(Action):
            if "execute" in vars(cls):
                self.wrap(cls, "execute", "actions")

        # resilience: failover scoring and the gauge sanitizer.
        def scored(_elapsed, _args, result):
            if result.source == "secondary":
                tracer.counts["resilience.fallback_scores"] += 1

        self.wrap(FallbackPredictor, "score", "resilience", after=scored)
        self.wrap(GaugeSanitizer, "read", "resilience")

        # telemetry: the campaign's JSONL export.
        self.wrap(campaign, "export_jsonl", "telemetry.export")


def _all_subclasses(cls) -> list[type]:
    import repro.actions  # noqa: F401  (registers the built-in actions)
    import repro.faults.pfm_injectors  # noqa: F401  (flaky action proxy)

    seen: list[type] = []
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop(0)
        if sub not in seen:
            seen.append(sub)
            todo.extend(sub.__subclasses__())
    return sorted(seen, key=lambda c: (c.__module__, c.__qualname__))


# ----------------------------------------------------------------------
# Layer metrics
# ----------------------------------------------------------------------


#: Per-layer metrics: name, unit, better.  Counts that a performance
#: change must leave alone (ticks, samples, cycles, resilience totals)
#: are "lower" only because the contract needs a direction.
LAYER_METRICS = [
    ("simulator.events", "count", "lower"),
    ("simulator.self_s", "s", "lower"),
    ("telecom.ticks", "count", "lower"),
    ("telecom.tick_s", "s", "lower"),
    ("telecom.tick_us", "us", "lower"),
    ("telecom.other_s", "s", "lower"),
    ("monitoring.samples", "count", "lower"),
    ("monitoring.write_s", "s", "lower"),
    ("monitoring.read_s", "s", "lower"),
    ("faults.episodes", "count", "lower"),
    ("faults.s", "s", "lower"),
    ("prediction.ubf.fit_s", "s", "lower"),
    ("prediction.ubf.objective_calls", "count", "lower"),
    ("prediction.ubf.gradient_calls", "count", "lower"),
    ("prediction.ubf.score_us", "us", "lower"),
    ("prediction.hsmm.fit_s", "s", "lower"),
    ("prediction.hsmm.batch_score_us_per_seq", "us", "lower"),
    ("prediction.hsmm.online_score_us", "us", "lower"),
    ("prediction.arbitration.fit_s", "s", "lower"),
    ("prediction.arbitration.fuse_s", "s", "lower"),
    ("prediction.other_s", "s", "lower"),
    ("core.mea.cycles", "count", "lower"),
    ("core.mea.step_p50_ms", "ms", "lower"),
    ("core.mea.step_p99_ms", "ms", "lower"),
    ("core.mea.self_s", "s", "lower"),
    ("core.other_s", "s", "lower"),
    ("actions.executed", "count", "lower"),
    ("actions.s", "s", "lower"),
    ("resilience.degraded_cycles", "count", "lower"),
    ("resilience.fallback_scores", "count", "lower"),
    ("resilience.s", "s", "lower"),
    ("telemetry.events", "count", "lower"),
    ("telemetry.export_s", "s", "lower"),
    ("fleet.prewarm_s", "s", "lower"),
    ("fleet.self_s", "s", "lower"),
    ("fleet.wait_s", "s", "lower"),
    ("fleet.shard_s_p50", "s", "lower"),
    ("fleet.parallel_efficiency", "ratio", "higher"),
    ("fleet.worker_restarts", "count", "lower"),
    ("fleet.retries", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.uncovered_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, extra: dict) -> dict[str, float]:
    """The per-layer metric values of one traced repetition.

    ``extra`` carries what the program itself reports (fleet timing,
    telemetry event totals) and what the untraced repetitions of the same
    run measured: their wall time (for the overhead) and the
    ``MEACycle.step`` latency percentiles, which the layer wrappers nested
    inside a traced step would inflate.
    """
    s, incl, calls, counts, samples = (
        tracer.self_s,
        tracer.incl_s,
        tracer.calls,
        tracer.counts,
        tracer.samples,
    )
    layers = [name for name in s if not name.startswith("_")]
    covered = sum(s[name] for name in layers)
    busy = incl[ROOT] + incl[SHARD] - s[IDLE]
    ticks = calls["telecom.tick"]
    batch_seqs = counts["prediction.hsmm.batch_sequences"]
    traced_wall = extra["traced_wall_s"]
    untraced_wall = extra["untraced_wall_s"]
    return {
        "simulator.events": counts["simulator.events"],
        "simulator.self_s": s["simulator"],
        "telecom.ticks": ticks,
        "telecom.tick_s": s["telecom.tick"],
        "telecom.tick_us": s["telecom.tick"] / ticks * 1e6 if ticks else 0.0,
        "telecom.other_s": s["telecom.aging"] + s["telecom.dataset"],
        "monitoring.samples": calls["monitoring.write"],
        "monitoring.write_s": s["monitoring.write"],
        "monitoring.read_s": s["monitoring.read"],
        "faults.episodes": counts["faults.episodes"],
        "faults.s": s["faults"],
        "prediction.ubf.fit_s": incl["prediction.ubf.fit"],
        "prediction.ubf.objective_calls": counts["prediction.ubf.objective_calls"],
        "prediction.ubf.gradient_calls": counts["prediction.ubf.gradient_calls"],
        "prediction.ubf.score_us": _median(samples["prediction.ubf.score"]) * 1e6,
        "prediction.hsmm.fit_s": incl["prediction.hsmm.fit"],
        "prediction.hsmm.batch_score_us_per_seq": (
            s["prediction.hsmm.batch"] / batch_seqs * 1e6 if batch_seqs else 0.0
        ),
        "prediction.hsmm.online_score_us": (
            _median(samples["prediction.hsmm.online"]) * 1e6
        ),
        "prediction.arbitration.fit_s": s["prediction.arbitration.fit"],
        "prediction.arbitration.fuse_s": s["prediction.arbitration.fuse"],
        "prediction.other_s": s["prediction.other"],
        "core.mea.cycles": calls["core.mea"],
        "core.mea.step_p50_ms": extra["mea_step_p50_ms"],
        "core.mea.step_p99_ms": extra["mea_step_p99_ms"],
        "core.mea.self_s": s["core.mea"],
        "core.other_s": s["core.housekeeping"] + s["core.accounting"],
        "actions.executed": calls["actions"],
        "actions.s": incl["actions"],
        "resilience.degraded_cycles": counts["resilience.degraded_cycles"],
        "resilience.fallback_scores": counts["resilience.fallback_scores"],
        "resilience.s": s["resilience"],
        "telemetry.events": extra.get("telemetry_events", 0),
        "telemetry.export_s": incl["telemetry.export"],
        "fleet.prewarm_s": incl["fleet.prewarm"],
        "fleet.self_s": s["fleet.prewarm"] + s["fleet.run"] + s["fleet.store"],
        "fleet.wait_s": s[IDLE],
        "fleet.shard_s_p50": extra.get("shard_s_p50", 0.0),
        "fleet.parallel_efficiency": extra.get("parallel_efficiency", 0.0),
        "fleet.worker_restarts": extra.get("worker_restarts", 0),
        "fleet.retries": extra.get("retries", 0),
        "trace.coverage": covered / busy if busy > 0 else 0.0,
        "trace.uncovered_s": busy - covered,
        "trace.overhead_pct": (
            (traced_wall / untraced_wall - 1.0) * 100.0 if untraced_wall else 0.0
        ),
    }
