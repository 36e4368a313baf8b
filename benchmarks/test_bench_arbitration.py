"""Bench: Noisy-OR arbitration — fusion overhead, batching, determinism.

Writes ``BENCH_arbitration.json`` with three sections:

- **fusion overhead**: wall time of scoring one aligned grid through a
  three-member Noisy-OR panel versus each member alone.  The panel
  necessarily costs at least the sum of its members; what this pins
  down is the *arbitration* surcharge (member calibration + fusion +
  attribution) on top of raw member scoring, asserted to stay under
  ``MAX_FUSION_SURCHARGE`` of the panel's total.
- **HSMM batch-vs-loop**: the panel scores event members through
  ``score_sequences``; for the HSMM that is one batched forward
  recursion over all windows.  Asserts the batch path returns
  byte-identical scores to the per-sequence loop and is at least
  ``MIN_HSMM_BATCH_SPEEDUP`` times faster (the whole point of routing
  panels through it).
- **serial-vs-process determinism**: a small closed-loop fleet grid with
  a Noisy-OR predictor spec, run on the serial and process backends,
  asserting byte-identical aggregate documents — nested ensemble specs
  must not break the fleet's core guarantee.

Sizes are env-tunable for CI smokes: ``ARB_BENCH_ROWS`` (scored rows,
default 400), ``ARB_BENCH_LOOP_SEQS`` (loop-comparison sequences,
default 150), ``ARB_BENCH_SEEDS`` (fleet shards, default 2),
``ARB_BENCH_WORKERS`` (default 2).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.bench_env import environment
from repro.fleet import grid, run_fleet
from repro.fleet.shards import clear_training_cache
from repro.prediction.base import PredictionBatch
from repro.prediction.registry import make_predictor
from repro.telecom import DatasetConfig, generate_dataset

ARTIFACT = Path(__file__).with_name("BENCH_arbitration.json")

DAY = 86_400.0
ROWS = int(os.environ.get("ARB_BENCH_ROWS", "400"))
LOOP_SEQS = int(os.environ.get("ARB_BENCH_LOOP_SEQS", "150"))
SEEDS = int(os.environ.get("ARB_BENCH_SEEDS", "2"))
WORKERS = int(os.environ.get("ARB_BENCH_WORKERS", "2"))
FLEET_HORIZON = 0.4 * DAY
TRAIN_SEED = 11

PANEL = {
    "name": "noisy-or",
    "members": ["ubf", "hsmm", "rate"],
    "criticality": {"hsmm": 0.8},
}

#: Arbitration's own surcharge (calibration + fusion + attribution) may
#: claim at most this fraction of total panel scoring time — the panel
#: must be dominated by its members, not by the glue.
MAX_FUSION_SURCHARGE = 0.5

#: The batch path steps every window through one (B, T, S) forward
#: recursion, so its per-slot numpy calls are shared by the whole batch
#: instead of paid once per window; on the default 150 sequences it
#: measured 17x the per-sequence loop (2-vCPU Xeon VM).  A batch path
#: below this speedup has fallen back to a loop in disguise.
MIN_HSMM_BATCH_SPEEDUP = 5.0

#: Scoring repetitions; the minimum wall time is recorded (noise floor).
REPEATS = 2


def _best_time(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.slow
def test_bench_arbitration(tmp_path):
    dataset = generate_dataset(DatasetConfig(horizon=1 * DAY, seed=3))
    arbitrator = make_predictor(PANEL, seed=TRAIN_SEED)
    data = dataset.training_data(
        consumes=arbitrator.consumes, rng=np.random.default_rng(TRAIN_SEED + 917)
    )
    arbitrator.fit(data)
    # Score a fixed-size slice: per-row cost is what matters, and the
    # HSMM member prices every row at a full sequence forward pass.
    batch = PredictionBatch(
        x=data.x[:ROWS], sequences=data.sequences[:ROWS]
    )
    n_rows = min(ROWS, len(data.labels))

    # --- fusion overhead per scored row -------------------------------
    panel_time = _best_time(lambda: arbitrator.score_batch(batch))
    member_times = {
        member.name: _best_time(lambda m=member: m.predictor.score_batch(batch))
        for member in arbitrator.members
    }
    members_total = sum(member_times.values())
    surcharge = max(panel_time - members_total, 0.0)
    surcharge_fraction = surcharge / panel_time if panel_time else 0.0

    # --- HSMM batch path vs per-sequence loop -------------------------
    hsmm = next(
        member.predictor for member in arbitrator.members if member.name == "hsmm"
    )
    # The panel must reach the HSMM through the batched entry point.
    calls = []
    original = hsmm.score_sequences

    def spy(seqs):
        calls.append(len(seqs))
        return original(seqs)

    hsmm.score_sequences = spy
    arbitrator.score_batch(batch)
    hsmm.score_sequences = original
    assert calls == [n_rows], "panel bypassed the HSMM batched scoring path"

    sequences = data.sequences[:LOOP_SEQS]
    batched_scores = hsmm.score_sequences(sequences)
    loop_scores = np.asarray([hsmm.score_sequence(s) for s in sequences])
    assert np.array_equal(batched_scores, loop_scores)
    batch_time = _best_time(lambda: hsmm.score_sequences(sequences))
    loop_time = _best_time(
        lambda: [hsmm.score_sequence(s) for s in sequences]
    )
    hsmm_speedup = loop_time / batch_time if batch_time else float("inf")

    # --- serial vs process on a noisy-or grid -------------------------
    specs = grid(
        ["closed-loop"],
        seeds=range(21, 21 + SEEDS),
        predictors=[PANEL],
        horizon=FLEET_HORIZON,
        train_seed=TRAIN_SEED,
    )
    clear_training_cache()
    serial = run_fleet(specs, backend="serial")
    clear_training_cache()
    parallel = run_fleet(specs, backend="process", workers=WORKERS)
    serial_doc = serial.aggregate_json()
    parallel_doc = parallel.aggregate_json()

    record = {
        "env": environment(),
        "config": {
            "panel": PANEL,
            "rows": n_rows,
            "loop_sequences": len(sequences),
            "fleet_seeds": SEEDS,
            "fleet_workers": WORKERS,
            "fleet_horizon_days": FLEET_HORIZON / DAY,
            "repeats": REPEATS,
        },
        "fusion": {
            "panel_seconds": panel_time,
            "panel_microseconds_per_row": 1e6 * panel_time / n_rows,
            "member_seconds": member_times,
            "surcharge_seconds": surcharge,
            "surcharge_fraction": surcharge_fraction,
            "max_surcharge_fraction": MAX_FUSION_SURCHARGE,
        },
        "hsmm_batching": {
            "batch_seconds": batch_time,
            "loop_seconds": loop_time,
            "speedup": hsmm_speedup,
            "min_speedup": MIN_HSMM_BATCH_SPEEDUP,
        },
        "fleet_determinism": {
            "aggregates_identical": serial_doc == parallel_doc,
            "serial_wall_seconds": serial.timing["wall_seconds"],
            "parallel_wall_seconds": parallel.timing["wall_seconds"],
        },
    }
    ARTIFACT.write_text(json.dumps(record, indent=2) + "\n")

    print("\n=== noisy-or arbitration bench ===")
    print(
        f"panel: {1e6 * panel_time / n_rows:.1f} us/row over {n_rows} rows "
        f"(surcharge {100 * surcharge_fraction:.1f}% of panel time)"
    )
    print(
        f"hsmm batch path: {batch_time:.3f}s vs loop {loop_time:.3f}s "
        f"({hsmm_speedup:.2f}x)"
    )
    print(f"fleet aggregates identical: {serial_doc == parallel_doc}")

    assert serial_doc == parallel_doc, (
        "noisy-or fleet aggregate diverged between serial and process backends"
    )
    assert batched_scores.shape == (len(sequences),)
    assert hsmm_speedup >= MIN_HSMM_BATCH_SPEEDUP, (
        f"HSMM batched scoring ({batch_time:.3f}s) is only "
        f"{hsmm_speedup:.2f}x the per-sequence loop ({loop_time:.3f}s)"
    )
    assert surcharge_fraction <= MAX_FUSION_SURCHARGE, (
        f"arbitration surcharge {100 * surcharge_fraction:.1f}% exceeds "
        f"{100 * MAX_FUSION_SURCHARGE:.0f}% of panel scoring time"
    )
