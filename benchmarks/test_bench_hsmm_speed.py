"""Bench: HSMM inference-core speedups.

Two comparisons, written to ``BENCH_hsmm_speed.json`` next to this file
with the environment (``cpu_count``, python, numpy) they were taken on:

- **kernels vs loop oracle**: soft-EM training and batch scoring on the
  acceptance configuration (T=200 observations, N=4 states, D=10 max
  duration), against the original per-duration loops kept as the
  oracle in ``tests/markov/hsmm_oracle.py``.  The kernels must be at
  least 5x faster at soft EM.
- **cross-sequence batching**: a panel-shaped batch (500 sequences of
  20-122 symbols, N=6, D=8) scored in one ``log_likelihood_batch`` call
  against one ``B = 1`` call per sequence.  The scores must be
  byte-identical and the batch at least 5x faster, so the batch axis
  cannot silently fall back to a per-sequence loop.
"""

import json
import os
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.markov import HiddenSemiMarkovModel
from tests.markov.hsmm_oracle import ReferenceHSMM

SEQ_LEN = 200
N_STATES = 4
N_SYMBOLS = 10
MAX_DURATION = 10
N_SEQUENCES = 3
EM_ITERATIONS = 2

#: Panel-shaped cross-sequence batch: the failure model's shape and the
#: calibration windows' length range.
CROSS_SEQUENCES = 500
CROSS_LENGTHS = (20, 122)
CROSS_STATES = 6
CROSS_SYMBOLS = 20
CROSS_MAX_DURATION = 8

MIN_SPEEDUP = 5.0

ARTIFACT = Path(__file__).with_name("BENCH_hsmm_speed.json")


def _material():
    rng = np.random.default_rng(42)
    generator = HiddenSemiMarkovModel(
        N_STATES,
        N_SYMBOLS,
        max_duration=MAX_DURATION,
        rng=np.random.default_rng(7),
    )
    return [generator.sample(SEQ_LEN, rng)[1] for _ in range(N_SEQUENCES)]


def _fresh(model_class):
    return model_class(
        N_STATES,
        N_SYMBOLS,
        max_duration=MAX_DURATION,
        rng=np.random.default_rng(0),
    )


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _cross_sequence():
    """Batch vs per-sequence scoring of one panel-shaped batch."""
    rng = np.random.default_rng(3)
    model = HiddenSemiMarkovModel(
        CROSS_STATES, CROSS_SYMBOLS, max_duration=CROSS_MAX_DURATION, rng=rng
    )
    low, high = CROSS_LENGTHS
    sequences = [
        rng.integers(0, CROSS_SYMBOLS, size=rng.integers(low, high + 1))
        for _ in range(CROSS_SEQUENCES)
    ]
    model.log_likelihood_batch(sequences[:1])  # build the cached parameters
    batch_s, batch = _timed(lambda: model.log_likelihood_batch(sequences))
    single_s, singles = _timed(
        lambda: np.array([model.log_likelihood(seq) for seq in sequences])
    )
    assert batch.tobytes() == singles.tobytes()
    return {
        "sequences": CROSS_SEQUENCES,
        "lengths": list(CROSS_LENGTHS),
        "n_states": CROSS_STATES,
        "n_symbols": CROSS_SYMBOLS,
        "max_duration": CROSS_MAX_DURATION,
        "batch_s": batch_s,
        "single_calls_s": single_s,
        "speedup": single_s / batch_s,
    }


@pytest.mark.slow
def test_bench_hsmm_vectorized_speedup(benchmark):
    sequences = _material()

    def train(model_class):
        model = _fresh(model_class)
        trace = model.fit(
            sequences, max_iter=EM_ITERATIONS, tol=0.0, algorithm="soft"
        )
        return model, trace

    ref_train_s, (ref_model, ref_trace) = _timed(lambda: train(ReferenceHSMM))
    vec_train_s, (vec_model, vec_trace) = _timed(
        lambda: benchmark.pedantic(
            lambda: train(HiddenSemiMarkovModel), rounds=1, iterations=1
        )
    )
    np.testing.assert_allclose(vec_trace, ref_trace, atol=1e-8)

    ref_score_s, ref_ll = _timed(
        lambda: ref_model.log_likelihood_batch(sequences)
    )
    vec_score_s, vec_ll = _timed(
        lambda: vec_model.log_likelihood_batch(sequences)
    )
    np.testing.assert_allclose(vec_ll, ref_ll, atol=1e-8)

    train_speedup = ref_train_s / vec_train_s
    score_speedup = ref_score_s / vec_score_s
    cross = _cross_sequence()

    record = {
        "config": {
            "seq_len": SEQ_LEN,
            "n_states": N_STATES,
            "n_symbols": N_SYMBOLS,
            "max_duration": MAX_DURATION,
            "n_sequences": N_SEQUENCES,
            "em_iterations": EM_ITERATIONS,
            "algorithm": "soft",
        },
        "env": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "soft_em": {
            "reference_s": ref_train_s,
            "vectorized_s": vec_train_s,
            "speedup": train_speedup,
        },
        "scoring": {
            "reference_s": ref_score_s,
            "vectorized_s": vec_score_s,
            "speedup": score_speedup,
        },
        "cross_sequence": cross,
    }
    ARTIFACT.write_text(json.dumps(record, indent=2) + "\n")

    print("\n=== HSMM inference-core speedup (T=200, N=4, D=10) ===")
    print(
        f"soft EM : reference {ref_train_s:.3f}s vs vectorized "
        f"{vec_train_s:.3f}s -> {train_speedup:.1f}x"
    )
    print(
        f"scoring : reference {ref_score_s:.3f}s vs vectorized "
        f"{vec_score_s:.3f}s -> {score_speedup:.1f}x"
    )
    print(
        f"cross-sequence ({CROSS_SEQUENCES} seqs): B=1 calls "
        f"{cross['single_calls_s']:.3f}s vs one batch {cross['batch_s']:.3f}s "
        f"-> {cross['speedup']:.1f}x"
    )

    # The vectorized soft-EM hot path is at least 5x faster than the loop
    # oracle, and one batched call at least 5x faster than B=1 calls.
    assert train_speedup >= MIN_SPEEDUP
    assert cross["speedup"] >= MIN_SPEEDUP
