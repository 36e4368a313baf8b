"""Bench: HSMM inference-core speedups.

Three comparisons, written to ``BENCH_hsmm_speed.json`` next to this file
with the environment they were taken on (``benchmarks/bench_env.py``):

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
- **online pair**: 1,000 panel-shaped ``B = 1`` windows (40-88 symbols,
  the predictor's 6 + 4 states, D=8), each scored under both models in
  one union ``log_likelihoods`` call against two single-model calls, as
  one MEA cycle of the two-model predictor scores its window.  The scores
  must be byte-identical and the union at least 1.5x faster.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.bench_env import environment
from repro.markov import HiddenSemiMarkovModel
from repro.markov.hsmm import log_likelihoods
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

#: One MEA cycle's window pair: the predictor's two models, the online
#: windows' length range.
ONLINE_WINDOWS = 1000
ONLINE_LENGTHS = (40, 88)
ONLINE_STATES = (6, 4)

MIN_SPEEDUP = 5.0
#: A union call does all the work of either single-model call and more,
#: so it can never reach 2x their sum: the gate sits below that ceiling.
MIN_ONLINE_SPEEDUP = 1.5

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


def _online_pair():
    """One union call per ``B = 1`` window against two single-model calls."""
    rng = np.random.default_rng(5)
    models = [
        HiddenSemiMarkovModel(
            n_states, CROSS_SYMBOLS, max_duration=CROSS_MAX_DURATION, rng=rng
        )
        for n_states in ONLINE_STATES
    ]
    low, high = ONLINE_LENGTHS
    windows = [
        rng.integers(0, CROSS_SYMBOLS, size=rng.integers(low, high + 1))
        for _ in range(ONLINE_WINDOWS)
    ]
    log_likelihoods(models, windows[:1])  # build the cached parameters
    union = np.empty((len(models), ONLINE_WINDOWS))
    pair = np.empty_like(union)
    union_s = pair_s = 0.0
    # Interleaved per window, so a slow spell of the machine taxes both.
    for i, window in enumerate(windows):
        elapsed, union[:, i] = _timed(lambda: log_likelihoods(models, [window])[:, 0])
        union_s += elapsed
        elapsed, pair[:, i] = _timed(
            lambda: [m.log_likelihood_batch([window])[0] for m in models]
        )
        pair_s += elapsed
    assert union.tobytes() == pair.tobytes()
    return {
        "windows": ONLINE_WINDOWS,
        "lengths": list(ONLINE_LENGTHS),
        "n_states": list(ONLINE_STATES),
        "n_symbols": CROSS_SYMBOLS,
        "max_duration": CROSS_MAX_DURATION,
        "union_s": union_s,
        "two_calls_s": pair_s,
        "union_ms_per_window": union_s / ONLINE_WINDOWS * 1e3,
        "two_calls_ms_per_window": pair_s / ONLINE_WINDOWS * 1e3,
        "speedup": pair_s / union_s,
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
    online = _online_pair()

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
        "env": environment(),
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
        "online_pair": online,
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
    print(
        f"online pair ({ONLINE_WINDOWS} windows): two calls "
        f"{online['two_calls_ms_per_window']:.2f} ms vs one union call "
        f"{online['union_ms_per_window']:.2f} ms -> {online['speedup']:.1f}x"
    )

    # The vectorized soft-EM hot path is at least 5x faster than the loop
    # oracle, one batched call at least 5x faster than B=1 calls, and one
    # union call at least 2x faster than one call per model.
    assert train_speedup >= MIN_SPEEDUP
    assert cross["speedup"] >= MIN_SPEEDUP
    assert online["speedup"] >= MIN_ONLINE_SPEEDUP
