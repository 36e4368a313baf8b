"""One workload process of the benchmark: set up, measure, check.

Started by ``perfbench/run.py`` (never by hand in a measurement) with the
thread pins already in its environment.  Protocol on standard output:

1. ``PERFBENCH-READY`` once imports and workload construction are done
   (the driver times process start up to this line as ``setup_s``);
2. human-readable progress lines;
3. one JSON object as the last line (the driver turns it into the
   contract line).

``--setup-only`` stops after step 1.  ``--record SEEDS`` (``0-31`` or
``0,5,7``) regenerates ``expected/<workload>.json`` instead of measuring.

Each repetition runs the workload body once, in a fresh directory with
a fresh artifact store and telemetry directory, and checks its canonical
outputs.  Repetitions continue until ``--seconds`` would be exceeded
(at least one).  With ``--trace 1`` every untraced repetition is
followed by a traced one, and the per-layer metrics come from the
traced repetitions (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.getcwd()
SRC = os.path.join(ROOT_DIR, "src")
EXPECTED_DIR = os.path.join(HERE, "expected")

READY = "PERFBENCH-READY"
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DAY = 86_400.0
#: The fixed training history: every seed retrains on the same reference
#: day, so ``train_s`` measures one identical retraining job per run.
TRAIN_SEED = 11
#: ``MEACycle`` period of the default controller (simulated seconds).
MEA_PERIOD = 30.0
#: Fleet pool size, fixed so the workload is the same on any host.
FLEET_WORKERS = 2

#: End-to-end metrics measured in the workload process: name, unit, better.
#: The driver adds ``setup_s`` and folds its own and the set-up probes'
#: resident sets into ``peak_rss_mb``.
E2E_METRICS = [
    ("wall_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("availability_min", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

PANEL = {
    "name": "noisy-or",
    "members": ["ubf", "hsmm", "rate"],
    "criticality": {"hsmm": 0.8},
}

#: name -> (kind, predictor, train horizon, eval horizon); smoke sizes second.
WORKLOADS = {
    "closed-loop-ubf": {
        "kind": "closed-loop",
        "predictor": "ubf",
        "horizon": (DAY, DAY),
        "smoke": (0.25 * DAY, 0.1 * DAY),
    },
    "closed-loop-panel": {
        "kind": "closed-loop",
        "predictor": PANEL,
        "horizon": (0.4 * DAY, 0.35 * DAY),
        "smoke": (0.25 * DAY, 0.05 * DAY),
    },
    "campaign-fleet": {
        "kind": "campaign",
        "predictor": "ubf",
        "horizon": (0.5 * DAY, 0.5 * DAY),
        "smoke": (0.25 * DAY, 0.25 * DAY),
    },
}


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical(obj) -> str:
    """Byte-stable JSON (sorted keys, floats by ``repr``)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def scores_digest(scores) -> dict:
    import numpy as np

    array = np.ascontiguousarray(np.asarray(scores, dtype=np.float64))
    return {"n": int(array.size), "sha256": hashlib.sha256(array.tobytes()).hexdigest()}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass
class Rep:
    """What one repetition of a workload body produced."""

    wall_s: float
    train_s: float
    mea_ms: list[float]
    #: op name -> canonical output section (one op per checked output).
    outputs: dict[str, dict]
    #: ops the program itself failed (fleet shard failed or quarantined).
    program_failed: list[str] = field(default_factory=list)
    availability_min: float = 1.0
    extra: dict = field(default_factory=dict)
    summary: str = ""


class Workload:
    """The seeded inputs of one workload, and how to run its body."""

    def __init__(self, name: str, seed: int, smoke: bool = False) -> None:
        if name not in WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; use one of {sorted(WORKLOADS)}")
        if seed < 0:
            raise SystemExit("--seed must be >= 0")
        spec = WORKLOADS[name]
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.kind = spec["kind"]
        self.predictor = spec["predictor"]
        self.train_horizon, self.eval_horizon = spec["smoke" if smoke else "horizon"]

    def inputs(self) -> dict:
        """The generated inputs the program receives (a pure function of the seed)."""
        doc = {
            "workload": self.name,
            "predictor": self.predictor,
            "train_seed": TRAIN_SEED,
            "train_horizon": self.train_horizon,
            "eval_horizon": self.eval_horizon,
        }
        if self.kind == "closed-loop":
            doc["eval_seed"] = 21 + self.seed
        else:
            doc["eval_seed"] = 1011 + self.seed
            doc["injection_seed"] = 2011 + self.seed
            doc["workers"] = FLEET_WORKERS
        return doc

    # -- closed loop -----------------------------------------------------

    def train(self) -> tuple[tuple, float]:
        """``train_predictor`` on the fixed history: ``(trained, train_s)``."""
        from dataclasses import replace

        import numpy as np

        from repro.core.experiment import DEFAULT_VARIABLES, train_predictor
        from repro.prediction.registry import make_predictor
        from repro.telecom.dataset import DatasetConfig

        train_config = replace(DatasetConfig(), seed=TRAIN_SEED, horizon=self.train_horizon)
        predictor = make_predictor(self.predictor, rng=np.random.default_rng(TRAIN_SEED))
        start = time.perf_counter()
        trained = train_predictor(train_config, list(DEFAULT_VARIABLES), predictor)
        return trained, time.perf_counter() - start

    def run_closed_loop(self, tracer, workdir: str, trained=None) -> Rep:
        from repro.core.experiment import run_closed_loop
        from repro.telemetry.hub import NULL_HUB

        inputs = self.inputs()
        start = time.perf_counter()
        train_s = 0.0
        if trained is None:
            trained, train_s = self.train()
        result = run_closed_loop(
            train_seed=TRAIN_SEED,
            eval_seed=inputs["eval_seed"],
            horizon=self.eval_horizon,
            trained=trained,
            telemetry=NULL_HUB,
        )
        wall_s = time.perf_counter() - start
        evaluation = asdict(result)
        evaluation["unavailability_ratio"] = result.unavailability_ratio
        outputs = {
            "train": {**scores_digest(trained[1]), "threshold": float(trained[0].threshold)},
            "eval": evaluation,
        }
        return Rep(
            wall_s=wall_s,
            train_s=train_s,
            mea_ms=list(tracer.samples["core.mea"]),
            outputs=outputs,
            availability_min=result.pfm_window_availability,
            summary=(
                f"failures {result.baseline_failures} -> {result.pfm_failures}, "
                f"unavailability ratio {result.unavailability_ratio:.4f}, "
                f"MEA cycles {result.mea_iterations}"
            ),
        )

    # -- fleet campaign --------------------------------------------------

    def campaign_specs(self):
        from repro.resilience.campaign import CampaignConfig, campaign_specs

        inputs = self.inputs()
        return campaign_specs(
            CampaignConfig(
                train_seed=TRAIN_SEED,
                eval_seed=inputs["eval_seed"],
                injection_seed=inputs["injection_seed"],
                horizon=self.eval_horizon,
                telemetry_dir="telemetry",
            )
        )

    def run_campaign(self, tracer, workdir: str) -> Rep:
        import numpy as np

        from repro.errors import FleetExecutionError
        from repro.fleet import runner
        from repro.fleet.artifacts import ArtifactStore
        from repro.fleet.shards import clear_training_cache
        from repro.resilience.campaign import NO_PFM, training_plan_for_spec

        specs = self.campaign_specs()
        scenario_of = {spec.key(): spec.scenario for spec in specs}
        store = os.path.join(workdir, "artifacts")
        clear_training_cache()
        previous = os.getcwd()
        os.chdir(workdir)  # the telemetry dir in the specs is relative
        try:
            start = time.perf_counter()
            try:
                report = runner.run_fleet(
                    specs, backend="process", workers=FLEET_WORKERS, artifact_store=store
                )
            except FleetExecutionError as exc:
                wall_s = time.perf_counter() - start
                failed = sorted(scenario_of.get(f["key"], f["key"]) for f in exc.failures)
                return Rep(
                    wall_s=wall_s,
                    train_s=tracer.incl_s["fleet.prewarm"],
                    mea_ms=[],
                    outputs={},
                    program_failed=["train", "aggregate", *sorted(scenario_of.values())],
                    summary=f"fleet failed: {failed}",
                )
            wall_s = time.perf_counter() - start
        finally:
            os.chdir(previous)
            tracer.merge_dumps()
        trained = ArtifactStore(store).load(training_plan_for_spec(specs[1])[0])
        outputs: dict[str, dict] = {
            "train": {
                **scores_digest(trained[2]),
                "primary_threshold": float(trained[0].threshold),
                "secondary_threshold": float(trained[1].threshold),
            },
            "aggregate": {"sha256": sha256_text(report.aggregate_json())},
        }
        for result in report.results:
            outputs[result.spec.scenario] = {
                "availability": result.availability,
                "failures": result.failures,
                "mea_iterations": result.mea_iterations,
                "warnings_raised": result.warnings_raised,
                "warning_episodes": result.warning_episodes,
                "actions_taken": result.actions_taken,
                "attack_episodes": result.attack_episodes,
                "resilience": result.resilience,
                "telemetry_events": result.telemetry_events,
            }
        program_failed = sorted(
            scenario_of.get(q["key"], q["key"]) for q in report.quarantined
        )
        timing = report.timing
        shard_s = list(timing["shard_wall_seconds"].values())
        prewarm_s = tracer.incl_s["fleet.prewarm"]
        busy = timing["workers"] * (timing["wall_seconds"] - prewarm_s)
        availability = [r.availability for r in report.results if r.spec.scenario != NO_PFM]
        return Rep(
            wall_s=wall_s,
            train_s=prewarm_s,
            mea_ms=list(tracer.samples["core.mea"]),
            outputs=outputs,
            program_failed=program_failed,
            availability_min=min(availability),
            extra={
                "telemetry_events": sum(r.telemetry_events for r in report.results),
                "shard_s_p50": float(np.median(shard_s)) if shard_s else 0.0,
                "parallel_efficiency": sum(shard_s) / busy if busy > 0 else 0.0,
                "worker_restarts": timing["recovery"]["worker_restarts"],
                "retries": timing["recovery"]["retries"],
                "resilience": {
                    "degraded_cycles": sum(
                        r.resilience.get("degraded_iterations", 0) for r in report.results
                    ),
                    "fallback_scores": sum(
                        r.resilience.get("fallback_scores", 0) for r in report.results
                    ),
                },
            },
            summary=(
                f"{len(report.results)} shards, PFM availability min {min(availability):.6f}, "
                f"quarantined {len(report.quarantined)}, "
                f"prewarm {prewarm_s:.2f}s"
            ),
        )

    def run(self, tracer, workdir: str) -> Rep:
        if self.kind == "closed-loop":
            return self.run_closed_loop(tracer, workdir)
        return self.run_campaign(tracer, workdir)

    def ops(self) -> list[str]:
        if self.kind == "closed-loop":
            return ["train", "eval"]
        from repro.resilience.campaign import known_scenario_names

        return ["train", "aggregate", *sorted(known_scenario_names())]


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def expected_path(workload: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{workload}.json")


def load_expected(workload: Workload) -> dict | None:
    """Pinned outputs for this workload and seed (``None``: not pinned)."""
    if workload.smoke:
        return None
    path = expected_path(workload.name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    pinned = doc["seeds"].get(str(workload.seed))
    return {"train": doc["train"], **(pinned or {})}


def invariant_problems(workload: Workload, op: str, section: dict) -> list[str]:
    """Seed-independent sanity of one output section."""
    problems = []
    if op == "eval":
        cycles = int(workload.eval_horizon // MEA_PERIOD) + 1
        if section["mea_iterations"] != cycles:
            problems.append(f"mea_iterations {section['mea_iterations']} != {cycles}")
        for key in ("baseline_window_availability", "pfm_window_availability"):
            if not 0.0 <= section[key] <= 1.0:
                problems.append(f"{key} {section[key]} outside [0, 1]")
        if section["actions_taken"] > section["warnings_raised"]:
            problems.append("more actions than warnings")
    elif "availability" in section:
        if not 0.0 <= section["availability"] <= 1.0:
            problems.append(f"availability {section['availability']} outside [0, 1]")
        if op != "no-pfm" and section["mea_iterations"] < 1:
            problems.append("MEA cycle never ran")
    return problems


def check_rep(workload: Workload, rep: Rep, expected: dict | None, reference: Rep | None):
    """Failed op names of one repetition, with a reason for each.

    An op fails when the program failed it, when its output is missing,
    when it differs from the pinned output for this seed (or, for seeds
    without pins, breaks an invariant), or when it differs from the
    first repetition of this run (outputs must not depend on the
    repetition, on tracing, or on the artifact store being fresh).
    """
    failed: dict[str, str] = {}
    for op in workload.ops():
        if op in rep.program_failed:
            failed[op] = "failed in the program"
            continue
        section = rep.outputs.get(op)
        if section is None:
            failed[op] = "no output"
            continue
        if expected is not None and op in expected:
            if canonical(section) != canonical(expected[op]):
                failed[op] = "differs from the pinned output"
                continue
        problems = invariant_problems(workload, op, section)
        if problems:
            failed[op] = "; ".join(problems)
            continue
        if reference is not None and canonical(section) != canonical(
            reference.outputs.get(op)
        ):
            failed[op] = "differs from the first repetition"
    return failed


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------


def git_commit(root: str) -> str | None:
    """HEAD's commit id read from ``.git`` (``None`` outside a repository)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(src: str) -> str:
    """sha256 over every ``.py`` file under ``src`` (path and bytes)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "fleet_workers": FLEET_WORKERS,
        "git_commit": git_commit(ROOT_DIR),
        "src_sha256": source_digest(SRC),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def fresh_dir(base: str, name: str) -> str:
    path = os.path.join(base, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def measured_rep(workload: Workload, tracer, workdir: str) -> Rep:
    tracer.reset()
    rep = workload.run(tracer, workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    return rep


def traced_rep(workload: Workload, e2e, workdir: str) -> tuple[Rep, float, object]:
    """One repetition under the full layer trace (the e2e timers swapped out)."""
    from tracer import ROOT, Tracer

    fleet = workload.kind == "campaign"
    e2e.uninstall()
    layers = Tracer("layers", dump_dir=fresh_dir(workdir, "trace"))
    layers.install(fleet=fleet)
    try:
        frame = layers.enter(ROOT)
        start = time.perf_counter()
        rep = workload.run(layers, workdir)
        wall = time.perf_counter() - start
        layers.exit(frame)
    finally:
        layers.uninstall()
        e2e.install(fleet=fleet)
    # The program's own resilience totals must match what the trace saw.
    for key, total in rep.extra.get("resilience", {}).items():
        seen = layers.counts[f"resilience.{key}"]
        if seen != total:
            rep.program_failed.append("aggregate")
            rep.summary += f"; trace saw {seen} {key}, program reported {total}"
    shutil.rmtree(workdir, ignore_errors=True)
    return rep, wall, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record", default=None)
    parser.add_argument("--tmp", default=os.path.join(ROOT_DIR, ".perfbench_tmp"))
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # --- set-up: imports and workload construction ------------------------
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401

    import repro.core.experiment  # noqa: F401
    import repro.fleet.runner  # noqa: F401
    import repro.resilience.campaign  # noqa: F401
    import repro.telemetry.hub  # noqa: F401
    from tracer import LAYER_METRICS, Tracer, layer_metrics

    workload = Workload(args.workload, args.seed, smoke=args.smoke)
    if workload.kind == "campaign":
        workload.campaign_specs()
    os.makedirs(args.tmp, exist_ok=True)
    e2e = Tracer("e2e", dump_dir=fresh_dir(args.tmp, "dumps"))
    e2e.install(fleet=workload.kind == "campaign")
    print(READY, flush=True)
    if args.setup_only:
        return 0
    if args.record is not None:
        return record(workload, e2e, args.tmp, args.record)

    expected = load_expected(workload)
    print(f"inputs: {canonical(workload.inputs())}", flush=True)
    if expected is None:
        scope = "invariants and repetition equality (no pins for this size)"
    elif len(expected) > 1:
        scope = "pinned outputs for this seed"
    else:
        scope = "training pin, invariants and repetition equality (seed not pinned)"
    print(f"output check: {scope}", flush=True)

    reps: list[Rep] = []
    traced: list[tuple[Rep, float, object]] = []
    failed: dict[str, str] = {}
    attempted = 0
    start = time.perf_counter()
    while True:
        rep = measured_rep(workload, e2e, fresh_dir(args.tmp, "rep"))
        reps.append(rep)
        if len(reps) == 1:
            # Peak resident set of this process and its fleet workers over
            # the first repetition: independent of how many fit the budget.
            peak_rss_mb = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            ) / 1024.0
        batch = [(f"rep{len(reps)}", rep)]
        if args.trace:
            traced.append(traced_rep(workload, e2e, fresh_dir(args.tmp, "rep")))
            batch.append((f"rep{len(reps)}-traced", traced[-1][0]))
        for label, one in batch:
            attempted += len(workload.ops())
            for op, reason in check_rep(workload, one, expected, reps[0]).items():
                failed[f"{label}:{op}"] = reason
            print(
                f"{label}: wall {one.wall_s:.3f}s train {one.train_s:.3f}s "
                f"mea p50 {percentile(one.mea_ms, 50):.4f}ms; {one.summary}",
                flush=True,
            )
        elapsed = time.perf_counter() - start
        if args.smoke or elapsed + elapsed / len(reps) > args.seconds * 1.05:
            break

    for key, reason in sorted(failed.items()):
        print(f"FAILED {key}: {reason}", flush=True)
    untraced_wall = statistics.median(r.wall_s for r in reps)
    mea = [sample for r in reps for sample in r.mea_ms]
    print(f"MEA cycle samples: {len(mea)} over {len(reps)} repetition(s)", flush=True)
    if args.trace:
        untraced = {
            "untraced_wall_s": untraced_wall,
            "mea_step_p50_ms": percentile(mea, 50),
            "mea_step_p99_ms": percentile(mea, 99),
        }
        per_rep = [
            layer_metrics(layers, {**t_rep.extra, **untraced, "traced_wall_s": t_wall})
            for t_rep, t_wall, layers in traced
        ]
        metrics = {
            name: statistics.median(values[name] for values in per_rep)
            for name, _unit, _better in LAYER_METRICS
        }
        print(
            f"trace: coverage {metrics['trace.coverage']:.4f}, "
            f"uncovered {metrics['trace.uncovered_s']:.3f}s, "
            f"overhead {metrics['trace.overhead_pct']:.1f}%",
            flush=True,
        )
    else:
        metrics = {
            "wall_s": untraced_wall,
            "train_s": statistics.median(r.train_s for r in reps),
            "availability_min": statistics.median(r.availability_min for r in reps),
            "peak_rss_mb": peak_rss_mb,
        }
    units = {name: unit for name, unit, _better in (LAYER_METRICS + E2E_METRICS)}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": attempted,
                "failed": len(failed),
                "metrics": metrics,
                "repetitions": len(reps),
                "outputs_sha256": sha256_text(canonical(reps[0].outputs)),
                "env": environment(),
            }
        ),
        flush=True,
    )
    return 0


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    return seeds


def record(workload: Workload, e2e, tmp: str, seeds_text: str) -> int:
    """Pin the canonical outputs of ``seeds`` into ``expected/<workload>.json``."""
    path = expected_path(workload.name)
    doc = {"workload": workload.name, "inputs": {}, "train": None, "seeds": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    trained = None
    for seed in parse_seeds(seeds_text):
        one = Workload(workload.name, seed)
        e2e.reset()
        workdir = fresh_dir(tmp, "rep")
        if one.kind == "closed-loop":
            # Training does not depend on the seed: train once, pin once.
            if trained is None:
                trained, _ = one.train()
            rep = one.run_closed_loop(e2e, workdir, trained=trained)
        else:
            rep = one.run(e2e, workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        problems = check_rep(one, rep, None, None)
        if problems:
            print(f"seed {seed}: not pinned, {problems}", flush=True)
            return 1
        if doc["train"] is not None and canonical(doc["train"]) != canonical(
            rep.outputs["train"]
        ):
            print(f"seed {seed}: training output changed; delete {path} to re-pin")
            return 1
        doc["train"] = rep.outputs["train"]
        doc["inputs"][str(seed)] = one.inputs()
        doc["seeds"][str(seed)] = {k: v for k, v in rep.outputs.items() if k != "train"}
        print(f"seed {seed}: pinned ({rep.wall_s:.1f}s) {rep.summary}", flush=True)
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(pins_text(doc))
    return 0


def pins_text(doc: dict) -> str:
    """The pin file: canonical JSON with one line per seed, so diffs stay readable."""
    parts = []
    for key in sorted(doc):
        value = doc[key]
        if key in ("inputs", "seeds"):
            rows = ",\n".join(
                f"  {canonical(seed)}: {canonical(value[seed])}"
                for seed in sorted(value, key=int)
            )
            parts.append(f" {canonical(key)}: {{\n{rows}\n }}")
        else:
            parts.append(f" {canonical(key)}: {canonical(value)}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
