"""Memory bound of batched HSMM scoring.

The Noisy-OR panel scores about 1,000 calibration windows of up to ~120
symbols under both of its models (6 + 4 states) in one union
``log_likelihoods`` call.  Blocked scoring keeps that call's allocations
to a few MB; scoring the batch as one unblocked ``(B, T, S)`` recursion
would allocate about 30 MB and show in the process's peak resident set.
"""

import tracemalloc

import numpy as np

from repro.markov import HiddenSemiMarkovModel
from repro.markov.hsmm import log_likelihoods

#: Ceiling on the traced allocation peak of one panel-sized batch.
PEAK_LIMIT_BYTES = 8 * 1024 * 1024


def traced_peak(score):
    """``(result, peak bytes)`` of one call under ``tracemalloc``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = score()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_panel_sized_batch_peak_allocation():
    rng = np.random.default_rng(0)
    model = HiddenSemiMarkovModel(6, 20, max_duration=8, rng=rng)
    sequences = [rng.integers(0, 20, size=120) for _ in range(1000)]
    model.log_likelihood_batch(sequences[:1])  # build the cached parameters
    scores, peak = traced_peak(lambda: model.log_likelihood_batch(sequences))
    assert scores.shape == (1000,)
    assert np.all(np.isfinite(scores))
    assert peak <= PEAK_LIMIT_BYTES, f"peak {peak / 2**20:.1f} MB"


def test_panel_union_peak_allocation():
    """Both panel models (6 + 4 states) scored in one union pass."""
    rng = np.random.default_rng(0)
    models = [
        HiddenSemiMarkovModel(n_states, 20, max_duration=8, rng=rng)
        for n_states in (6, 4)
    ]
    sequences = [rng.integers(0, 20, size=120) for _ in range(1000)]
    log_likelihoods(models, sequences[:1])  # build the cached parameters
    scores, peak = traced_peak(lambda: log_likelihoods(models, sequences))
    assert scores.shape == (2, 1000)
    assert np.all(np.isfinite(scores))
    assert peak <= PEAK_LIMIT_BYTES, f"peak {peak / 2**20:.1f} MB"
