"""The repo benchmark: closed-loop, HSMM-panel and fleet-campaign workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload closed-loop-ubf --seed 0 --seconds 30 --trace 0

Workloads: ``closed-loop-ubf``, ``closed-loop-panel``, ``campaign-fleet``
(see ``perfbench/README.md``).  With ``--trace 0`` the last line of
standard output is the end-to-end result; with ``--trace 1`` it holds
the per-layer metrics of a separately traced run.  ``--out FILE``
appends the full record (metrics, environment, output digest) as one
JSON line, for ``perfbench/compare.py``.

This driver imports nothing from the program.  It pins every BLAS/OpenMP
pool to one thread, times ``setup_s`` as process start through imports
and workload construction of fresh workload processes (the median of
``SETUP_SAMPLES`` starts), runs the measured workload process, and folds
its own and the probes' peak resident set into ``peak_rss_mb`` (the
workload process reports its own and its fleet workers' peak over the
first repetition).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
READY = "PERFBENCH-READY"
WORKLOADS = ("closed-loop-ubf", "closed-loop-panel", "campaign-fleet")

#: Process starts timed for ``setup_s`` (the measured run's own start
#: is one of them).
SETUP_SAMPLES = 3
#: Grace beyond ``--seconds`` before a workload process is killed.
GRACE_S = 150.0


def pinned_env(tmp: str) -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    env["TMPDIR"] = tmp
    return env


def start_worker(args, extra: list[str], env: dict, tmp: str):
    """Launch a workload process; returns ``(process, seconds to READY)``."""
    command = [
        sys.executable,
        WORKER,
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--tmp",
        tmp,
        *extra,
    ]
    start = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True
    )
    for line in process.stdout:
        if line.strip() == READY:
            return process, time.perf_counter() - start
        print(line, end="", flush=True)
    process.wait()
    return process, None


def stop(process) -> None:
    """Kill the workload process and its fleet workers (one session) if running."""
    if process.poll() is None:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    process.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced horizons, one repetition")
    parser.add_argument("--out", default=None, help="append the full record to this JSONL file")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        print("perfbench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    tmp = os.path.join(root, ".perfbench_tmp", f"run-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    env = pinned_env(tmp)
    extra = ["--smoke"] if args.smoke else []
    process = watchdog = None
    try:
        setups: list[float] = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probe, seconds = start_worker(args, [*extra, "--setup-only"], env, tmp)
                probe.stdout.read()
                probe.wait()
                if seconds is None or probe.returncode != 0:
                    print("perfbench: set-up probe failed", file=sys.stderr)
                    return 1
                setups.append(seconds)
        probes_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        process, seconds = start_worker(args, extra, env, tmp)
        if seconds is None:
            print("perfbench: workload process failed during set-up", file=sys.stderr)
            return 1
        setups.append(seconds)
        watchdog = threading.Timer(args.seconds + GRACE_S, stop, args=(process,))
        watchdog.start()
        last = None
        for line in process.stdout:
            stripped = line.strip()
            if stripped.startswith("{"):
                last = stripped
            else:
                print(line, end="", flush=True)
        process.wait()
        if process.returncode != 0 or last is None:
            print(f"perfbench: workload process exited {process.returncode}", file=sys.stderr)
            return 1
    finally:
        if watchdog is not None:
            watchdog.cancel()
        if process is not None:
            stop(process)
        shutil.rmtree(tmp, ignore_errors=True)

    record = json.loads(last)
    metrics = record["metrics"]
    if not args.trace:
        own_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, probes_rss_kb)
        rss = metrics["peak_rss_mb"]
        rss["value"] = max(rss["value"], own_kb / 1024.0)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"setup_s samples: {[round(s, 4) for s in setups]}")
    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "workload": args.workload,
                        "seed": args.seed,
                        "seconds": args.seconds,
                        "trace": args.trace,
                        "repetitions": record["repetitions"],
                        "outputs_sha256": record["outputs_sha256"],
                        "env": record["env"],
                        **result,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
