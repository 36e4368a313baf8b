"""Memory bound of batched HSMM scoring.

The Noisy-OR panel scores about 1,000 calibration windows of up to ~120
symbols per model in one ``log_likelihood_batch`` call.  Blocked
scoring keeps that call's allocations to a few MB; scoring the batch as
one unblocked ``(B, T, S)`` recursion would allocate about 20 MB and show
in the process's peak resident set.
"""

import tracemalloc

import numpy as np

from repro.markov import HiddenSemiMarkovModel

#: Ceiling on the traced allocation peak of one panel-sized batch.
PEAK_LIMIT_BYTES = 8 * 1024 * 1024


def test_panel_sized_batch_peak_allocation():
    rng = np.random.default_rng(0)
    model = HiddenSemiMarkovModel(6, 20, max_duration=8, rng=rng)
    sequences = [rng.integers(0, 20, size=120) for _ in range(1000)]
    model.log_likelihood_batch(sequences[:1])  # build the cached parameters
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        scores = model.log_likelihood_batch(sequences)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scores.shape == (1000,)
    assert np.all(np.isfinite(scores))
    assert peak <= PEAK_LIMIT_BYTES, f"peak {peak / 2**20:.1f} MB"
