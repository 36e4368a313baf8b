"""Hypothesis property tests for the HMM/HSMM machinery."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.markov import (
    EmpiricalDuration,
    GeometricDuration,
    HiddenMarkovModel,
    HiddenSemiMarkovModel,
)
from repro.markov import hsmm as hsmm_module
from repro.markov.hsmm import _BLOCK, log_likelihoods
from tests.markov.hsmm_oracle import loop_log_likelihood


def symbol_sequences(n_symbols=3, min_len=2, max_len=20):
    return st.lists(
        st.integers(0, n_symbols - 1), min_size=min_len, max_size=max_len
    )


class TestHMMProperties:
    @given(symbol_sequences(), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_likelihood_is_log_probability(self, sequence, seed):
        model = HiddenMarkovModel(2, 3, np.random.default_rng(seed))
        assert model.log_likelihood(sequence) <= 1e-9

    @given(symbol_sequences(min_len=2, max_len=8), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_extending_sequence_lowers_likelihood(self, sequence, seed):
        model = HiddenMarkovModel(2, 3, np.random.default_rng(seed))
        shorter = model.log_likelihood(sequence[:-1]) if len(sequence) > 1 else 0.0
        assert model.log_likelihood(sequence) <= shorter + 1e-9

    @given(symbol_sequences(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_viterbi_path_valid(self, sequence, seed):
        model = HiddenMarkovModel(3, 3, np.random.default_rng(seed))
        path = model.viterbi(sequence)
        assert len(path) == len(sequence)
        assert all(0 <= s < 3 for s in path)

    @given(symbol_sequences(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_posterior_rows_are_distributions(self, sequence, seed):
        model = HiddenMarkovModel(2, 3, np.random.default_rng(seed))
        gamma = model.posterior_states(sequence)
        np.testing.assert_allclose(gamma.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(gamma >= -1e-12)


class TestHSMMProperties:
    @given(symbol_sequences(max_len=14), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_likelihood_is_log_probability(self, sequence, seed):
        model = HiddenSemiMarkovModel(
            2, 3, max_duration=4, rng=np.random.default_rng(seed)
        )
        assert model.log_likelihood(sequence) <= 1e-9

    @given(symbol_sequences(max_len=12), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_viterbi_segments_partition_sequence(self, sequence, seed):
        model = HiddenSemiMarkovModel(
            2, 3, max_duration=4, rng=np.random.default_rng(seed)
        )
        segments = model.viterbi(sequence)
        assert segments[0].start == 0
        assert segments[-1].end == len(sequence) - 1
        covered = sum(segment.duration for segment in segments)
        assert covered == len(sequence)
        for segment in segments:
            assert 1 <= segment.duration <= 4

    @given(symbol_sequences(max_len=12), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_viterbi_score_never_exceeds_total_likelihood(self, sequence, seed):
        """The best single segmentation is one term of the forward sum."""
        model = HiddenSemiMarkovModel(
            2, 3, max_duration=4, rng=np.random.default_rng(seed)
        )
        segments = model.viterbi(sequence)
        viterbi_score = model._segmentation_score(
            np.asarray(sequence, dtype=int), segments
        )
        assert viterbi_score <= model.log_likelihood(sequence) + 1e-9

    @given(st.integers(2, 15), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sampling_round_trip_valid(self, length, seed):
        rng = np.random.default_rng(seed)
        model = HiddenSemiMarkovModel(2, 3, max_duration=4, rng=rng)
        states, observations = model.sample(length, rng)
        assert len(observations) == length
        # Generated observations are scoreable.
        assert np.isfinite(model.log_likelihood(observations))


#: Longest state duration of the batch-property models; sequences run
#: from length 1 to well past it.
BATCH_MAX_DURATION = 4


def batch_model(n_states, seed):
    rng = np.random.default_rng(seed)
    model = HiddenSemiMarkovModel(
        n_states, 3, max_duration=BATCH_MAX_DURATION, rng=rng
    )
    model._randomize(rng)
    for dist in model.durations:
        dist.fit(rng.random(BATCH_MAX_DURATION) + 0.05)
    return model


def batch_sequences(min_size=1, max_size=8):
    return st.lists(
        symbol_sequences(min_len=1, max_len=3 * BATCH_MAX_DURATION),
        min_size=min_size,
        max_size=max_size,
    )


class TestHSMMBatchProperties:
    """The batched forward kernel scores each sequence as if it were alone."""

    @given(
        symbol_sequences(min_len=1, max_len=3 * BATCH_MAX_DURATION),
        batch_sequences(min_size=0),
        st.integers(0, 8),
        st.booleans(),
        st.integers(1, 4),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_padding_invariance(
        self, target, companions, position, beyond_block, n_states, seed
    ):
        model = batch_model(n_states, seed)
        if beyond_block and companions:
            # Enough companions that the batch spans several blocks.
            companions = companions * (_BLOCK // len(companions) + 1)
        position = min(position, len(companions))
        batch = companions[:position] + [target] + companions[position:]
        alone = model.log_likelihood_batch([target])
        scores = model.log_likelihood_batch(batch)
        assert scores[position : position + 1].tobytes() == alone.tobytes()
        reordered = model.log_likelihood_batch(batch[::-1])
        assert reordered[::-1].tobytes() == scores.tobytes()

    @given(batch_sequences(), st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batch_equals_single(self, sequences, n_states, seed):
        model = batch_model(n_states, seed)
        batch = model.log_likelihood_batch(sequences)
        singles = np.array([model.log_likelihood(seq) for seq in sequences])
        assert batch.tobytes() == singles.tobytes()

    def test_empty_batch(self):
        assert batch_model(2, 0).log_likelihood_batch([]).shape == (0,)

    @given(
        batch_sequences(),
        st.integers(0, 8),
        st.sampled_from([[], [3], [-1], [0, 1, 7]]),
    )
    @settings(max_examples=30, deadline=None)
    def test_invalid_sequence_rejected_before_kernel(
        self, sequences, position, invalid
    ):
        model = batch_model(2, 0)
        position = min(position, len(sequences))
        batch = sequences[:position] + [invalid] + sequences[position:]
        with mock.patch.object(
            hsmm_module, "_forward_pass", side_effect=AssertionError("kernel ran")
        ):
            with pytest.raises(ModelError):
                model.log_likelihood_batch(batch)


#: The union-property models use the panel's longest state duration.
UNION_MAX_DURATION = 8
UNION_SYMBOLS = 5
UNION_MAX_LENGTH = 130
#: Every length from 1 to the longest, in a batch that spans three blocks.
CROSS_BLOCK_LENGTHS = [1 + (7 * i) % UNION_MAX_LENGTH for i in range(2 * _BLOCK + 44)]


def union_model(n_states, seed, geometric):
    rng = np.random.default_rng(seed)
    factory = functools.partial(GeometricDuration, p=0.5) if geometric else None
    model = HiddenSemiMarkovModel(
        n_states,
        UNION_SYMBOLS,
        max_duration=UNION_MAX_DURATION,
        duration_factory=factory,
        rng=rng,
    )
    model._randomize(rng)
    for dist in model.durations:
        dist.fit(rng.random(UNION_MAX_DURATION) + 0.05)
    return model


def with_zeros(rng, rows, share):
    """``rows`` with about ``share`` of its entries set to exactly zero."""
    return np.where(rng.random(rows.shape) < share, 0.0, rows)


class TestHSMMUnionProperties:
    """One pass over the block-diagonal union scores each model as alone."""

    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.one_of(
            st.lists(st.integers(1, UNION_MAX_LENGTH), min_size=1, max_size=1),
            st.lists(st.integers(1, UNION_MAX_LENGTH), min_size=2, max_size=300),
        ),
        st.booleans(),
        st.integers(0, 2**31 - 1),
    )
    @example(8, 8, CROSS_BLOCK_LENGTHS, False, 0)
    @example(6, 4, CROSS_BLOCK_LENGTHS, True, 1)
    @settings(max_examples=12, deadline=None)
    def test_union_equals_oracle_per_model(
        self, n_first, n_second, lengths, geometric, seed
    ):
        models = [
            union_model(n_first, seed, geometric),
            union_model(n_second, seed + 1, geometric),
        ]
        rng = np.random.default_rng(seed)
        sequences = [rng.integers(0, UNION_SYMBOLS, size=n) for n in lengths]
        union = log_likelihoods(models, sequences)
        for model, scores in zip(models, union, strict=True):
            oracle = np.array([loop_log_likelihood(model, seq) for seq in sequences])
            if model.n_states > 1:
                assert scores.tobytes() == oracle.tobytes()
            else:
                # Alone, a one-state model's duration terms lie on a
                # contiguous axis, where numpy sums 8 or more terms
                # pairwise; inside the union that axis is strided and
                # summed in index order, so only reassociation differs.
                np.testing.assert_allclose(scores, oracle, rtol=1e-13, atol=0)

    @given(
        st.integers(1, 6),
        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_log_params_finite_with_exact_zeros(self, n_states, shares, seed):
        """Exact zeros in any parameter still give finite log-parameters.

        This is why the kernels need no ``-inf`` fix-up: no ``log(0)``,
        ``inf - inf`` or ``nan`` forms anywhere in a scoring pass.
        """
        rng = np.random.default_rng(seed)
        model = HiddenSemiMarkovModel(
            n_states, UNION_SYMBOLS, max_duration=UNION_MAX_DURATION, rng=rng
        )
        initial, transition, emission, duration = shares
        model.initial = with_zeros(rng, model.initial, initial)
        model.transition = with_zeros(rng, model.transition, transition)
        model.emission = with_zeros(rng, model.emission, emission)
        model.durations = [
            EmpiricalDuration(
                UNION_MAX_DURATION,
                pmf=with_zeros(rng, rng.random(UNION_MAX_DURATION), duration),
            )
            for _ in range(n_states)
        ]
        assert all(np.isfinite(table).all() for table in model._log_params())
        sequences = [rng.integers(0, UNION_SYMBOLS, size=n) for n in (1, 9, 40)]
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            scores = log_likelihoods([model, union_model(2, seed, False)], sequences)
        assert np.isfinite(scores).all()
