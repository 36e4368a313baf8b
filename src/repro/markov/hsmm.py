"""Hidden semi-Markov models with explicit state durations.

This is the pattern-recognition engine behind the paper's HSMM failure
predictor (Sect. 3.2): error sequences are mapped to discrete-time symbol
sequences and scored by sequence log-likelihood under two trained models
(failure vs. non-failure).

The implementation is an explicit-duration ("segment") HSMM:

- hidden states do not self-transition; instead each visit to state ``j``
  lasts ``d`` time slots with probability ``p_j(d)`` given by a pluggable
  :class:`~repro.markov.distributions.DiscreteDuration`,
- one observation symbol is emitted per time slot from the state's
  categorical emission distribution.

Inference (forward likelihood, Viterbi segmentation) runs in log space in
``O(T * N^2 * D)``.  Two trainers are provided:

- segmental hard-EM (Viterbi re-estimation) -- fast and robust, the
  default for the short error sequences the predictor operates on;
- full Baum-Welch soft EM over segment posteriors (``algorithm="soft"``)
  -- the textbook explicit-duration HSMM re-estimation, monotone in true
  sequence likelihood.

Inference-core architecture
---------------------------
All scoring runs through one forward kernel with a batch axis
(:func:`_forward_pass`): padded symbols ``(B, T)`` become one
cumulative-emission table ``(B, T+1, S)``, and each time slot is one step
for the whole batch.  Per slot the admissible segment scores for *all*
durations are assembled with one gather from that table and reduced with
a single ``logsumexp``, and the entry mass ``in(t, j)`` is maintained
incrementally instead of being recomputed per duration.  Each sequence's
likelihood is read from its own ``alpha`` row at its own end index, so
the padding past it is never read.  ``log_likelihood`` is the ``B = 1``
case and the soft EM E-step reads the kernel's full ``B = 1`` tables.
Every reduction runs along the same axis and in the same order for any
batch, so a sequence's score is bit-identical whatever it is batched
with.  Batches are sorted by length and scored in blocks of
:data:`_BLOCK` sequences, which bounds the tables' memory.

The soft-EM E-step accumulates segment posteriors duration-major: per
duration ``d`` all starts are handled at once, and per-slot emission mass
is recovered from a difference-array (cumulative range-update) instead of
walking every symbol of every candidate segment -- dropping the E-step
from ``O(T^2 * D * N)`` to ``O(T * D * N)``.  Log-parameters are memoized
behind a parameter-version fingerprint so repeated scoring calls and the
many table builds inside one EM iteration share a single ``_log_params``
computation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import logsumexp

from repro.errors import ModelError, NotFittedError
from repro.markov.distributions import DiscreteDuration, EmpiricalDuration
from repro.rng import ensure_rng

_EPS = 1e-12
_LOG_EPS = np.log(_EPS)

#: Sequences per forward-kernel block.  Scoring 1,000 sequences of 120
#: symbols (S = 6, D = 8) peaks near 5 MB in blocks of 256 and near
#: 19 MB unblocked; blocks of 128 halve the peak but cost 10-20% more.
_BLOCK = 256


def _default_duration_factory(max_duration: int) -> DiscreteDuration:
    """Module-level default factory (keeps default models picklable)."""
    return EmpiricalDuration(max_duration)


@dataclass(frozen=True)
class Segment:
    """A maximal run of one hidden state in a Viterbi segmentation."""

    state: int
    start: int  # inclusive slot index
    end: int  # inclusive slot index

    @property
    def duration(self) -> int:
        return self.end - self.start + 1


class LogParams(NamedTuple):
    """Log-space model parameters, cached per parameter version."""

    log_pi: np.ndarray  # (n_states,)
    log_a: np.ndarray  # (n_states, n_states)
    log_b: np.ndarray  # (n_states, n_symbols)
    log_d: np.ndarray  # (n_states, max_duration)


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    matrix = np.clip(matrix, 0.0, None)
    sums = matrix.sum(axis=1, keepdims=True)
    sums[sums <= 0] = 1.0
    return matrix / sums


# ----------------------------------------------------------------------
# Vectorized inference kernels.
# ----------------------------------------------------------------------


def _lse(a: np.ndarray, axis: int) -> np.ndarray:
    """Lean log-sum-exp reduction.

    ``scipy.special.logsumexp``'s array-API dispatch, and even
    ``np.max``/``np.sum``'s Python wrappers, cost more than the arithmetic
    on the small per-slot arrays this module reduces, so the kernels use
    this minimal max-shifted implementation on the bare ufunc reductions
    (the same reductions ``np.max``/``np.sum`` run).  Callers run it under
    ``np.errstate(divide="ignore", invalid="ignore")``, set once per pass
    rather than once per call: a column that is all ``-inf`` computes
    ``nan`` before it is set back to ``-inf``.
    """
    m = np.maximum.reduce(a, axis=axis, keepdims=True)
    out = m + np.log(np.add.reduce(np.exp(a - m), axis=axis, keepdims=True))
    if not np.isfinite(m).all():
        out = np.where(np.isfinite(m), out, m)
    return out.squeeze(axis)


def _forward_pass(
    cum: np.ndarray,
    log_pi: np.ndarray,
    log_a: np.ndarray,
    log_d: np.ndarray,
    max_duration: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Duration-vectorized forward recursion over a batch of sequences.

    ``cum`` is the ``(B, T+1, S)`` table of :meth:`HiddenSemiMarkovModel.
    _segment_emissions`.  Returns ``(alpha, in_log)``, both ``(B, T, S)``:
    ``alpha[b, t, j]`` is the log-mass of segments of state ``j`` ending
    exactly at ``t`` and ``in_log[b, s, j]`` is the log-mass of entering
    state ``j`` at slot ``s`` (the initial law at ``s=0``, alpha-weighted
    transitions afterwards).  Rows past a sequence's own length are
    computed from its padding and must not be read.

    The elementwise adds run in the per-sequence order, and the
    reductions run along axis 1 (durations, then predecessor states),
    not the contiguous state axis, so numpy accumulates them in index
    order for every batch size: each sequence's rows are bit-identical
    to scoring it alone.
    """
    n_seq, n_slots = cum.shape[0], cum.shape[1] - 1
    log_d_t = log_d.T  # (max_duration, n_states)
    alpha = np.empty((n_seq, n_slots, log_pi.size))
    in_log = np.empty_like(alpha)
    in_log[:, 0] = log_pi
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(n_slots):
            d_max = min(max_duration, t + 1)
            # Row k corresponds to duration d = k + 1, i.e. start slot t - k.
            starts = slice(t - d_max + 1, t + 1)
            terms = (
                in_log[:, starts][:, ::-1]
                + log_d_t[:d_max]
                + (cum[:, t + 1, None] - cum[:, starts][:, ::-1])
            )
            alpha[:, t] = _lse(terms, axis=1)
            if t + 1 < n_slots:
                in_log[:, t + 1] = _lse(alpha[:, t, :, None] + log_a, axis=1)
    return alpha, in_log


def _backward_pass(
    cum: np.ndarray,
    log_a: np.ndarray,
    log_d: np.ndarray,
    max_duration: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Duration-vectorized backward recursion over one sequence.

    ``cum[t, j]`` is the log-probability that state ``j`` emitted
    ``obs[0..t]``.  Returns ``(beta, eta)``: ``beta[t, j]`` is the
    log-probability of ``obs[t+1..]`` given a segment of ``j`` ends at
    ``t``; ``eta[s, j]`` is the log-mass of a segment of ``j`` starting at
    ``s`` followed by the rest of the sequence (``eta[0]`` is unused).
    ``eta`` is exactly the per-boundary quantity the soft-EM transition
    posteriors need, so the E-step reuses it instead of re-deriving it per
    boundary.
    """
    n, n_states = cum.shape
    beta = np.full((n, n_states), -np.inf)
    eta = np.full((n, n_states), -np.inf)
    beta[n - 1] = 0.0
    log_d_t = log_d.T
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(n - 2, -1, -1):
            d_max = min(max_duration, n - 1 - t)
            ends = slice(t + 1, t + 1 + d_max)  # end slot for d = 1 .. d_max
            terms = log_d_t[:d_max] + (cum[ends] - cum[t]) + beta[ends]
            eta[t + 1] = _lse(terms, axis=0)
            beta[t] = _lse(log_a + eta[t + 1][None, :], axis=1)
    return beta, eta


class HiddenSemiMarkovModel:
    """Explicit-duration HSMM over a discrete observation alphabet.

    Parameters
    ----------
    n_states:
        Number of hidden states.
    n_symbols:
        Observation alphabet size.
    max_duration:
        Longest representable state duration (in time slots).
    duration_factory:
        Callable producing a fresh duration distribution per state;
        defaults to nonparametric :class:`EmpiricalDuration`.
    rng:
        Generator for random initialization and sampling.
    """

    def __init__(
        self,
        n_states: int,
        n_symbols: int,
        max_duration: int = 10,
        duration_factory: Callable[[int], DiscreteDuration] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if n_states < 1 or n_symbols < 1:
            raise ModelError("need at least one state and one symbol")
        self.n_states = int(n_states)
        self.n_symbols = int(n_symbols)
        self.max_duration = int(max_duration)
        rng = ensure_rng(rng, default_seed=0)
        factory = duration_factory or _default_duration_factory
        self._duration_factory = factory
        self.initial = np.full(n_states, 1.0 / n_states)
        transition = rng.random((n_states, n_states)) + 0.5
        if n_states > 1:
            np.fill_diagonal(transition, 0.0)
        self.transition = _normalize_rows(transition)
        self.emission = _normalize_rows(rng.random((n_states, n_symbols)) + 0.5)
        self.durations: list[DiscreteDuration] = [
            factory(self.max_duration) for _ in range(n_states)
        ]
        self._fitted = False
        self._params_cache: LogParams | None = None
        self._params_fingerprint: bytes | None = None
        self._params_version = 0

    # ------------------------------------------------------------------
    # Log-space helpers
    # ------------------------------------------------------------------

    def _check_sequence(self, sequence: Sequence[int]) -> np.ndarray:
        obs = np.asarray(sequence, dtype=int)
        if obs.ndim != 1 or obs.size == 0:
            raise ModelError("sequence must be a non-empty 1-D array of symbols")
        if obs.min() < 0 or obs.max() >= self.n_symbols:
            raise ModelError("sequence contains symbols outside the alphabet")
        return obs

    @property
    def params_version(self) -> int:
        """Monotone counter, bumped whenever ``_log_params`` recomputes."""
        return self._params_version

    def _fingerprint(self) -> bytes:
        """Cheap content fingerprint of all parameters.

        Detects both reassignment and in-place mutation of the parameter
        arrays (the arrays are tiny, so hashing their bytes costs far less
        than one table build).
        """
        parts = [
            np.ascontiguousarray(self.initial).tobytes(),
            np.ascontiguousarray(self.transition).tobytes(),
            np.ascontiguousarray(self.emission).tobytes(),
        ]
        parts.extend(
            np.ascontiguousarray(dist.pmf()).tobytes() for dist in self.durations
        )
        return b"\x00".join(parts)

    def _log_params(self) -> LogParams:
        """Log-space parameters, recomputed only when parameters changed."""
        fingerprint = self._fingerprint()
        if self._params_cache is None or fingerprint != self._params_fingerprint:
            self._params_cache = LogParams(
                log_pi=np.log(self.initial + _EPS),
                log_a=np.log(self.transition + _EPS),
                log_b=np.log(self.emission + _EPS),
                log_d=np.log(
                    np.vstack([dist.pmf() for dist in self.durations]) + _EPS
                ),
            )
            self._params_fingerprint = fingerprint
            self._params_version += 1
        return self._params_cache

    def _segment_emissions(self, padded: np.ndarray, log_b: np.ndarray) -> np.ndarray:
        """Cumulative per-state emission log-probs of a ``(B, T)`` batch.

        ``cum[b, t, j]`` is the log-probability that state ``j`` emitted
        the first ``t`` symbols of row ``b`` (``cum[b, 0] = 0``); segment
        scores are differences of this ``(B, T+1, S)`` array.
        """
        cum = np.zeros((padded.shape[0], padded.shape[1] + 1, self.n_states))
        np.cumsum(log_b.T[padded], axis=1, out=cum[:, 1:])
        return cum

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def log_likelihood(self, sequence: Sequence[int]) -> float:
        """Log-probability that the model generated ``sequence``.

        A segment boundary is assumed at the end of the sequence (the
        standard right-boundary convention for segment models).
        """
        return float(self.log_likelihood_batch([sequence])[0])

    def log_likelihood_batch(self, sequences: Sequence[Sequence[int]]) -> np.ndarray:
        """Log-likelihood of every sequence, in one batched forward pass.

        Every sequence is validated before any kernel work.  The batch is
        sorted by length and scored in blocks of :data:`_BLOCK` sequences
        padded to the block's longest; the results come back in input
        order, each bit-identical to scoring that sequence alone.
        """
        observations = [self._check_sequence(seq) for seq in sequences]
        out = np.empty(len(observations))
        if not observations:
            return out
        params = self._log_params()
        order = np.argsort([obs.size for obs in observations], kind="stable")
        for first in range(0, order.size, _BLOCK):
            block = order[first : first + _BLOCK]
            out[block] = self._score_block([observations[i] for i in block], params)
        return out

    def _score_block(
        self, observations: list[np.ndarray], params: LogParams
    ) -> np.ndarray:
        """Log-likelihoods of one block, padded to its longest sequence.

        The padding symbol 0 is in the alphabet, so the rows past a
        sequence's end stay finite; they are never read.  Returning from
        here frees the block's tables before the next block allocates
        its own, which keeps the batch's peak at one block's worth.
        """
        lengths = np.array([obs.size for obs in observations])
        padded = np.zeros((lengths.size, lengths.max()), dtype=int)
        for row, obs in enumerate(observations):
            padded[row, : obs.size] = obs
        alpha, _ = _forward_pass(
            self._segment_emissions(padded, params.log_b),
            params.log_pi,
            params.log_a,
            params.log_d,
            self.max_duration,
        )
        return logsumexp(alpha[np.arange(lengths.size), lengths - 1], axis=-1)

    def viterbi(self, sequence: Sequence[int]) -> list[Segment]:
        """Most likely segmentation of ``sequence`` into state runs."""
        obs = self._check_sequence(sequence)
        params = self._log_params()
        cum0 = self._segment_emissions(obs[None], params.log_b)[0]
        return self._viterbi(obs, params, cum0)

    def _viterbi(
        self, obs: np.ndarray, params: LogParams, cum0: np.ndarray
    ) -> list[Segment]:
        log_pi, log_a, _, log_d = params
        n = obs.size
        n_states = self.n_states
        cum = cum0[1:]
        log_d_t = log_d.T
        delta = np.empty((n, n_states))
        best_dur = np.zeros((n, n_states), dtype=int)
        best_prev = np.full((n, n_states), -1, dtype=int)
        # prev_val[s, j] = best log-score of entering state j at slot s;
        # prev_arg[s, j] = the argmax predecessor state (-1 at s = 0).
        prev_val = np.empty((n, n_states))
        prev_arg = np.full((n, n_states), -1, dtype=int)
        prev_val[0] = log_pi
        cols = np.arange(n_states)
        for t in range(n):
            d_max = min(self.max_duration, t + 1)
            # Row k corresponds to duration d = k + 1, i.e. start slot t - k.
            starts = slice(t - d_max + 1, t + 1)
            scores = (
                prev_val[starts][::-1]
                + log_d_t[:d_max]
                + (cum[t] - cum0[starts][::-1])
            )
            d_idx = np.argmax(scores, axis=0)  # first max <=> smallest duration
            delta[t] = scores[d_idx, cols]
            best_dur[t] = d_idx + 1
            best_prev[t] = prev_arg[t - d_idx, cols]
            if t + 1 < n:
                candidates = delta[t][:, None] + log_a
                prev_arg[t + 1] = np.argmax(candidates, axis=0)
                prev_val[t + 1] = candidates[prev_arg[t + 1], cols]
        return self._viterbi_backtrack(n, delta, best_dur, best_prev)

    def _viterbi_backtrack(
        self,
        n: int,
        delta: np.ndarray,
        best_dur: np.ndarray,
        best_prev: np.ndarray,
    ) -> list[Segment]:
        segments: list[Segment] = []
        t = n - 1
        state = int(np.argmax(delta[t]))
        while t >= 0:
            d = int(best_dur[t, state])
            if d <= 0:
                raise ModelError("Viterbi backtrack failed (zero duration)")
            segments.append(Segment(state=state, start=t - d + 1, end=t))
            prev = int(best_prev[t, state])
            t -= d
            state = prev
        segments.reverse()
        return segments

    # ------------------------------------------------------------------
    # Training (segmental hard-EM)
    # ------------------------------------------------------------------

    def fit(
        self,
        sequences: Sequence[Sequence[int]],
        max_iter: int = 20,
        tol: float = 1e-4,
        pseudocount: float = 0.05,
        n_restarts: int = 1,
        restart_rng: np.random.Generator | None = None,
        algorithm: str = "hard",
    ) -> list[float]:
        """Train the model; returns the per-iteration score trace.

        ``algorithm="hard"`` runs segmental hard-EM (Viterbi
        re-estimation; the trace is the total Viterbi-path score);
        ``algorithm="soft"`` runs full Baum-Welch over segment posteriors
        (the trace is the true total log-likelihood, non-decreasing).
        Both converge to local optima, so ``n_restarts > 1`` re-randomizes
        the parameters and keeps the best-scoring solution.
        """
        if algorithm not in ("hard", "soft"):
            raise ModelError(f"unknown algorithm {algorithm!r}")
        if n_restarts < 1:
            raise ModelError("n_restarts must be >= 1")
        if n_restarts > 1:
            rng = ensure_rng(restart_rng, default_seed=0)
            best_score = -np.inf
            best_state: tuple | None = None
            best_trace: list[float] = []
            for _ in range(n_restarts):
                self._randomize(rng)
                trace = self.fit(
                    sequences, max_iter=max_iter, tol=tol,
                    pseudocount=pseudocount, n_restarts=1,
                    algorithm=algorithm,
                )
                if trace[-1] > best_score:
                    best_score = trace[-1]
                    best_trace = trace
                    best_state = (
                        self.initial.copy(),
                        self.transition.copy(),
                        self.emission.copy(),
                        copy.deepcopy(self.durations),
                    )
            assert best_state is not None
            self.initial, self.transition, self.emission, self.durations = best_state
            self._fitted = True
            return best_trace

        observations = [self._check_sequence(seq) for seq in sequences]
        if not observations:
            raise ModelError("need at least one training sequence")
        if algorithm == "soft":
            return self._fit_soft(observations, max_iter, tol, pseudocount)
        return self._fit_hard(observations, max_iter, tol, pseudocount)

    def _fit_hard(
        self,
        observations: list[np.ndarray],
        max_iter: int,
        tol: float,
        pseudocount: float,
    ) -> list[float]:
        trace: list[float] = []
        for _ in range(max_iter):
            init_acc = np.zeros(self.n_states)
            trans_acc = np.zeros((self.n_states, self.n_states))
            emit_acc = np.zeros((self.n_states, self.n_symbols))
            dur_acc = np.zeros((self.n_states, self.max_duration))
            total_score = 0.0
            for obs in observations:
                segments = self.viterbi(obs)
                total_score += self._segmentation_score(obs, segments)
                init_acc[segments[0].state] += 1.0
                for prev, cur in zip(segments, segments[1:], strict=False):
                    trans_acc[prev.state, cur.state] += 1.0
                state_of_slot = np.empty(obs.size, dtype=int)
                for seg in segments:
                    dur_acc[seg.state, seg.duration - 1] += 1.0
                    state_of_slot[seg.start : seg.end + 1] = seg.state
                np.add.at(emit_acc, (state_of_slot, obs), 1.0)
            self.initial = (init_acc + pseudocount) / (
                init_acc.sum() + pseudocount * self.n_states
            )
            trans = trans_acc + pseudocount
            if self.n_states > 1:
                np.fill_diagonal(trans, 0.0)
            self.transition = _normalize_rows(trans)
            self.emission = _normalize_rows(emit_acc + pseudocount)
            for j, dist in enumerate(self.durations):
                dist.fit(dur_acc[j])
            trace.append(total_score)
            if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= tol * (
                abs(trace[-2]) + _EPS
            ):
                break
        self._fitted = True
        return trace

    def _fit_soft(
        self,
        observations: list[np.ndarray],
        max_iter: int,
        tol: float,
        pseudocount: float,
    ) -> list[float]:
        """Full Baum-Welch for the explicit-duration HSMM.

        The E-step enumerates candidate segments ``(state j, start s,
        duration d)`` and weighs each by its posterior probability::

            w(j, s, d) = P(segment | obs)
                       = in(s, j) * p_j(d) * emis(s..s+d-1, j) * beta[s+d-1, j] / L

        where ``in(s, j)`` is the probability mass of entering state ``j``
        at slot ``s`` (initial law at s=0, alpha-weighted transitions
        otherwise).  All segment statistics (durations, emissions,
        transitions, initial law) are the corresponding weighted sums.
        """
        trace: list[float] = []
        for _ in range(max_iter):
            init_acc = np.full(self.n_states, pseudocount)
            trans_acc = np.full((self.n_states, self.n_states), pseudocount)
            if self.n_states > 1:
                np.fill_diagonal(trans_acc, 0.0)
            emit_acc = np.full((self.n_states, self.n_symbols), pseudocount)
            dur_acc = np.full((self.n_states, self.max_duration), pseudocount)
            total_ll = 0.0
            params = self._log_params()
            accumulators = (init_acc, trans_acc, emit_acc, dur_acc)
            for obs in observations:
                total_ll += self._soft_estep(obs, params, accumulators)
            # M-step.
            self.initial = init_acc / init_acc.sum()
            if self.n_states > 1:
                np.fill_diagonal(trans_acc, 0.0)
            self.transition = _normalize_rows(trans_acc)
            self.emission = _normalize_rows(emit_acc)
            for j, dist in enumerate(self.durations):
                dist.fit(dur_acc[j])
            trace.append(total_ll)
            if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= tol * (
                abs(trace[-2]) + _EPS
            ):
                break
        self._fitted = True
        return trace

    def _soft_estep(
        self, obs: np.ndarray, params: LogParams, accumulators: tuple
    ) -> float:
        """Duration-major E-step in ``O(T * D * N)``.

        Instead of walking the symbols of every candidate segment
        (``O(T^2 * D * N)`` overall), per-slot posterior occupancy is
        accumulated as a difference array -- segment ``(s, d)`` adds its
        weight at row ``s`` and subtracts it at row ``s + d`` -- whose
        cumulative sum yields the per-slot mass; one scatter-add then
        projects it onto the observed symbols (the cumulative one-hot
        count trick, transposed).
        """
        init_acc, trans_acc, emit_acc, dur_acc = accumulators
        log_pi, log_a, log_b, log_d = params
        n = obs.size
        n_states = self.n_states
        cum0 = self._segment_emissions(obs[None], log_b)
        alpha, in_log = _forward_pass(cum0, log_pi, log_a, log_d, self.max_duration)
        alpha, in_log, cum0 = alpha[0], in_log[0], cum0[0]
        cum = cum0[1:]
        beta, eta = _backward_pass(cum, log_a, log_d, self.max_duration)
        log_likelihood = float(logsumexp(alpha[-1]))
        log_d_t = log_d.T
        pos_diff = np.zeros((n + 1, n_states))
        for d in range(1, min(self.max_duration, n) + 1):
            s_count = n - d + 1  # admissible starts: 0 .. n - d
            ends = np.arange(d - 1, n)
            log_w = (
                in_log[:s_count]
                + log_d_t[d - 1]
                + (cum[ends] - cum0[:s_count])
                + beta[ends]
                - log_likelihood
            )
            w = np.exp(np.clip(log_w, -700.0, 50.0))
            dur_acc[:, d - 1] += w.sum(axis=0)
            init_acc += w[0]
            pos_diff[:s_count] += w
            pos_diff[d:] -= w
        per_slot = np.cumsum(pos_diff[:n], axis=0)  # (T, n_states)
        per_symbol = np.zeros((self.n_symbols, n_states))
        np.add.at(per_symbol, obs, per_slot)
        emit_acc += per_symbol.T
        if n > 1:
            # Transition posteriors at each boundary t -> t+1; eta[t+1] is
            # the per-boundary entry mass already computed by the backward
            # pass.
            log_xi = (
                alpha[:-1, :, None]
                + log_a[None, :, :]
                + eta[1:, None, :]
                - log_likelihood
            )
            trans_acc += np.exp(np.clip(log_xi, -700.0, 50.0)).sum(axis=0)
        return log_likelihood

    def _randomize(self, rng: np.random.Generator) -> None:
        """Re-randomize all parameters (used between EM restarts).

        Emissions are drawn sharply (Dirichlet with small concentration)
        so restarts explore genuinely different state/symbol assignments,
        and durations are reset to fresh factory instances -- otherwise all
        restarts inherit the previous run's duration model and land in the
        same basin.
        """
        self.initial = np.full(self.n_states, 1.0 / self.n_states)
        transition = rng.random((self.n_states, self.n_states)) + 0.5
        if self.n_states > 1:
            np.fill_diagonal(transition, 0.0)
        self.transition = _normalize_rows(transition)
        self.emission = rng.dirichlet(
            np.full(self.n_symbols, 0.5), size=self.n_states
        )
        self.durations = [
            self._duration_factory(self.max_duration) for _ in range(self.n_states)
        ]

    def _segmentation_score(self, obs: np.ndarray, segments: list[Segment]) -> float:
        log_pi, log_a, log_b, log_d = self._log_params()
        score = log_pi[segments[0].state]
        for prev, cur in zip(segments, segments[1:], strict=False):
            score += log_a[prev.state, cur.state]
        for seg in segments:
            score += log_d[seg.state, seg.duration - 1]
            score += log_b[seg.state, obs[seg.start : seg.end + 1]].sum()
        return float(score)

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def require_fitted(self) -> None:
        """Raise :class:`NotFittedError` if :meth:`fit` has not run."""
        if not self._fitted:
            raise NotFittedError("HSMM has not been fitted")

    def clone(self) -> "HiddenSemiMarkovModel":
        """Deep copy (useful for model comparison)."""
        return copy.deepcopy(self)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def sample(
        self, length: int, rng: np.random.Generator
    ) -> tuple[list[int], list[int]]:
        """Sample ``(states_per_slot, observations)`` of exactly ``length``.

        Consumes exactly the draws needed for the returned slots: the
        transition out of the final (possibly truncated) segment is never
        drawn, so back-to-back sampling from one generator is reproducible.
        """
        if length < 1:
            raise ModelError("length must be >= 1")
        states: list[int] = []
        observations: list[int] = []
        state = int(rng.choice(self.n_states, p=self.initial))
        while True:
            duration = self.durations[state].sample(rng)
            for _ in range(duration):
                states.append(state)
                observations.append(
                    int(rng.choice(self.n_symbols, p=self.emission[state]))
                )
                if len(observations) >= length:
                    return states, observations
            state = int(rng.choice(self.n_states, p=self.transition[state]))

    def __repr__(self) -> str:
        return (
            f"HiddenSemiMarkovModel(n_states={self.n_states}, "
            f"n_symbols={self.n_symbols}, max_duration={self.max_duration})"
        )
