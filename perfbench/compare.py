"""Compare two benchmark result files side by side.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``perfbench/run.py --out FILE`` appends, one
per run.  For every workload the report shows each end-to-end metric's
median and quartiles (``statistics.quantiles(values, n=4)``) for both
files, the change of the median as a share of the base median, and the
base file's own quartile spread, so a change smaller than the noise
reads as unresolved rather than as a gain.  Traced runs add the median
of every per-layer metric and its delta, which is where a saving
should show up (which layer moved).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> dict:
    """``(workload, trace) -> metric -> [values]`` plus run bookkeeping."""
    table: dict = defaultdict(lambda: defaultdict(list))
    info: dict = defaultdict(lambda: {"runs": 0, "incorrect": 0, "env": None})
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], record["trace"])
            info[key]["runs"] += 1
            info[key]["incorrect"] += 0 if record["correct"] else 1
            info[key]["env"] = record.get("env")
            for name, metric in record["metrics"].items():
                table[key][name].append(metric["value"])
    return {"table": table, "info": info}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def fmt(value: float) -> str:
    return f"{value:.4g}"


def change(base: float, new: float) -> str:
    if base == 0:
        return "n/a" if new == 0 else "new"
    return f"{(new - base) / abs(base) * 100:+.1f}%"


def env_differences(base_env: dict | None, new_env: dict | None) -> list[str]:
    if not base_env or not new_env:
        return []
    keys = ("cpu_count", "python", "numpy", "scipy", "blas", "thread_pins", "src_sha256")
    return [
        f"  env {key}: {base_env.get(key)} -> {new_env.get(key)}"
        for key in keys
        if base_env.get(key) != new_env.get(key)
    ]


def report(base: dict, new: dict) -> list[str]:
    lines: list[str] = []
    keys = sorted(set(base["table"]) | set(new["table"]))
    for workload, trace in keys:
        b_info, n_info = base["info"][(workload, trace)], new["info"][(workload, trace)]
        kind = "per-layer (traced)" if trace else "end-to-end"
        lines.append(
            f"== {workload} — {kind}: base {b_info['runs']} runs "
            f"({b_info['incorrect']} incorrect), new {n_info['runs']} runs "
            f"({n_info['incorrect']} incorrect)"
        )
        lines.extend(env_differences(b_info["env"], n_info["env"]))
        b_table, n_table = base["table"][(workload, trace)], new["table"][(workload, trace)]
        names = list(dict.fromkeys([*b_table, *n_table]))
        if trace:
            lines.append(f"  {'metric':40s} {'base':>12s} {'new':>12s} {'delta':>9s}")
            for name in names:
                b = statistics.median(b_table[name]) if b_table.get(name) else 0.0
                n = statistics.median(n_table[name]) if n_table.get(name) else 0.0
                lines.append(f"  {name:40s} {fmt(b):>12s} {fmt(n):>12s} {change(b, n):>9s}")
            continue
        lines.append(
            f"  {'metric':20s} {'base median [q1, q3]':>30s} "
            f"{'new median [q1, q3]':>30s} {'delta':>8s} {'base spread':>11s}"
        )
        for name in names:
            if not b_table.get(name) or not n_table.get(name):
                lines.append(f"  {name:20s} (only in one file)")
                continue
            b1, bm, b3 = quartiles(b_table[name])
            n1, nm, n3 = quartiles(n_table[name])
            spread = (b3 - b1) / abs(bm) if bm else 0.0
            lines.append(
                f"  {name:20s} {f'{fmt(bm)} [{fmt(b1)}, {fmt(b3)}]':>30s} "
                f"{f'{fmt(nm)} [{fmt(n1)}, {fmt(n3)}]':>30s} "
                f"{change(bm, nm):>8s} {spread * 100:>10.1f}%"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result files.")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    print("\n".join(report(load(args.base), load(args.new))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
