"""Loop oracles for the HSMM inference kernels in ``repro.markov.hsmm``.

Two oracles, kept out of ``src/`` because only tests run them:

- :class:`ReferenceHSMM` runs the original per-duration Python loops for
  the forward and backward tables, Viterbi and the soft-EM E-step.  They
  reassociate the sums differently from the kernels, so the equivalence
  tests compare against them at 1e-8.
- :func:`forward_per_sequence` is the duration-vectorized forward pass
  over one sequence that preceded the batched kernel.  The batched kernel
  keeps its summation order, so :func:`loop_log_likelihood` must equal
  ``log_likelihood_batch`` byte for byte.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.special import logsumexp

from repro.markov.hsmm import HiddenSemiMarkovModel, LogParams, Segment


def _cumulative_emissions(obs: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """``cum[t, j]``: log-probability that state ``j`` emitted ``obs[0..t]``."""
    return np.cumsum(log_b[:, obs].T, axis=0)


def _lse_per_call(a: np.ndarray, axis: int) -> np.ndarray:
    """The max-shifted log-sum-exp the per-sequence pass used."""
    m = np.max(a, axis=axis)
    safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe + np.log(np.sum(np.exp(a - np.expand_dims(safe, axis)), axis=axis))
    return np.where(np.isfinite(m), out, m)


def forward_per_sequence(
    obs: np.ndarray,
    log_pi: np.ndarray,
    log_a: np.ndarray,
    log_d: np.ndarray,
    cum: np.ndarray,
    max_duration: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Duration-vectorized forward recursion over one sequence.

    Returns ``(alpha, in_log)``, both ``(T, S)``, as the batched kernel
    returns them per row.
    """
    n = obs.size
    n_states = log_pi.size
    cum0 = np.vstack([np.zeros((1, n_states)), cum])  # cum0[s] = cum[s - 1]
    log_d_t = log_d.T  # (max_duration, n_states)
    alpha = np.empty((n, n_states))
    in_log = np.empty((n, n_states))
    in_log[0] = log_pi
    for t in range(n):
        d_max = min(max_duration, t + 1)
        # Row k corresponds to duration d = k + 1, i.e. start slot t - k.
        starts = slice(t - d_max + 1, t + 1)
        terms = (
            in_log[starts][::-1]
            + log_d_t[:d_max]
            + (cum[t] - cum0[starts][::-1])
        )
        alpha[t] = _lse_per_call(terms, axis=0)
        if t + 1 < n:
            in_log[t + 1] = _lse_per_call(alpha[t][:, None] + log_a, axis=0)
    return alpha, in_log


def loop_log_likelihood(model: HiddenSemiMarkovModel, sequence) -> float:
    """``log_likelihood`` as the per-sequence loop computed it."""
    obs = np.asarray(sequence, dtype=int)
    params = model._log_params()
    alpha, _ = forward_per_sequence(
        obs,
        params.log_pi,
        params.log_a,
        params.log_d,
        _cumulative_emissions(obs, params.log_b),
        model.max_duration,
    )
    return float(logsumexp(alpha[-1]))


class ReferenceHSMM(HiddenSemiMarkovModel):
    """An HSMM whose inference runs the original per-duration loops."""

    def forward_table(self, obs: np.ndarray) -> np.ndarray:
        params = self._log_params()
        return self._forward_reference(
            obs, params, _cumulative_emissions(obs, params.log_b)
        )

    def backward_table(self, obs: np.ndarray) -> np.ndarray:
        params = self._log_params()
        return self._backward_reference(
            obs, params, _cumulative_emissions(obs, params.log_b)
        )

    def log_likelihood_batch(self, sequences: Sequence[Sequence[int]]) -> np.ndarray:
        observations = [self._check_sequence(seq) for seq in sequences]
        return np.array(
            [float(logsumexp(self.forward_table(obs)[-1])) for obs in observations]
        )

    def _viterbi(
        self, obs: np.ndarray, params: LogParams, cum0: np.ndarray
    ) -> list[Segment]:
        return self._viterbi_reference(obs, params, cum0[1:])

    def _soft_estep(
        self, obs: np.ndarray, params: LogParams, accumulators: tuple
    ) -> float:
        return self._soft_estep_reference(obs, params, accumulators)

    def _forward_reference(
        self, obs: np.ndarray, params: LogParams, cum: np.ndarray
    ) -> np.ndarray:
        """Original per-duration forward loop (correctness oracle)."""
        log_pi, log_a, _, log_d = params
        n = obs.size
        alpha = np.full((n, self.n_states), -np.inf)
        for t in range(n):
            d_max = min(self.max_duration, t + 1)
            # Contributions for each admissible duration d (vectorized over states).
            terms = np.full((d_max, self.n_states), -np.inf)
            for d in range(1, d_max + 1):
                start = t - d + 1
                emis = cum[t] - (cum[start - 1] if start > 0 else 0.0)
                dur = log_d[:, d - 1]
                if start == 0:
                    terms[d - 1] = log_pi + dur + emis
                else:
                    prev = logsumexp(
                        alpha[start - 1][:, None] + log_a, axis=0
                    )  # (n_states,)
                    terms[d - 1] = prev + dur + emis
            alpha[t] = logsumexp(terms, axis=0)
        return alpha

    def _backward_reference(
        self, obs: np.ndarray, params: LogParams, cum: np.ndarray
    ) -> np.ndarray:
        """Original per-duration backward loop (correctness oracle)."""
        _, log_a, _, log_d = params
        n = obs.size
        beta = np.full((n, self.n_states), -np.inf)
        beta[n - 1] = 0.0
        for t in range(n - 2, -1, -1):
            # eta[j'] = log P(a segment of j' starts at t+1 and the rest
            # of the sequence follows).
            d_max = min(self.max_duration, n - 1 - t)
            terms = np.full((d_max, self.n_states), -np.inf)
            for d in range(1, d_max + 1):
                end = t + d
                emis = cum[end] - cum[t]
                terms[d - 1] = log_d[:, d - 1] + emis + beta[end]
            eta = logsumexp(terms, axis=0)  # (n_states,)
            beta[t] = logsumexp(log_a + eta[None, :], axis=1)
        return beta

    def _viterbi_reference(
        self, obs: np.ndarray, params: LogParams, cum: np.ndarray
    ) -> list[Segment]:
        """Original per-duration Viterbi loop (correctness oracle)."""
        log_pi, log_a, _, log_d = params
        n = obs.size
        delta = np.full((n, self.n_states), -np.inf)
        best_dur = np.zeros((n, self.n_states), dtype=int)
        best_prev = np.full((n, self.n_states), -1, dtype=int)
        for t in range(n):
            d_max = min(self.max_duration, t + 1)
            for d in range(1, d_max + 1):
                start = t - d + 1
                emis = cum[t] - (cum[start - 1] if start > 0 else 0.0)
                dur = log_d[:, d - 1]
                if start == 0:
                    scores = log_pi + dur + emis
                    prev_state = np.full(self.n_states, -1, dtype=int)
                else:
                    candidates = delta[start - 1][:, None] + log_a
                    prev_state = np.argmax(candidates, axis=0)
                    scores = (
                        candidates[prev_state, np.arange(self.n_states)] + dur + emis
                    )
                better = scores > delta[t]
                delta[t][better] = scores[better]
                best_dur[t][better] = d
                best_prev[t][better] = prev_state[better]
        return self._viterbi_backtrack(n, delta, best_dur, best_prev)

    def _soft_estep_reference(
        self, obs: np.ndarray, params: LogParams, accumulators: tuple
    ) -> float:
        """Original segment-major E-step loops (correctness oracle)."""
        init_acc, trans_acc, emit_acc, dur_acc = accumulators
        log_pi, log_a, log_b, log_d = params
        n = obs.size
        cum = _cumulative_emissions(obs, log_b)
        alpha = self._forward_reference(obs, params, cum)
        beta = self._backward_reference(obs, params, cum)
        log_likelihood = float(logsumexp(alpha[-1]))
        # in_log[s, j]: log-mass of entering state j at slot s.
        in_log = np.full((n, self.n_states), -np.inf)
        in_log[0] = log_pi
        for s in range(1, n):
            in_log[s] = logsumexp(alpha[s - 1][:, None] + log_a, axis=0)
        # Segment posteriors.
        for s in range(n):
            d_max = min(self.max_duration, n - s)
            for d in range(1, d_max + 1):
                end = s + d - 1
                emis = cum[end] - (cum[s - 1] if s > 0 else 0.0)
                log_w = (
                    in_log[s]
                    + log_d[:, d - 1]
                    + emis
                    + beta[end]
                    - log_likelihood
                )
                w = np.exp(np.clip(log_w, -700.0, 50.0))
                if not w.any():
                    continue
                dur_acc[:, d - 1] += w
                if s == 0:
                    init_acc += w
                for symbol in obs[s : end + 1]:
                    emit_acc[:, symbol] += w
        # Transition posteriors at each boundary t -> t+1.
        for t in range(n - 1):
            # eta[j'] = log P(segment of j' starts at t+1, rest follows).
            d_max = min(self.max_duration, n - 1 - t)
            terms = np.full((d_max, self.n_states), -np.inf)
            for d in range(1, d_max + 1):
                end = t + d
                terms[d - 1] = (
                    log_d[:, d - 1] + (cum[end] - cum[t]) + beta[end]
                )
            eta = logsumexp(terms, axis=0)
            log_xi = (
                alpha[t][:, None] + log_a + eta[None, :] - log_likelihood
            )
            trans_acc += np.exp(np.clip(log_xi, -700.0, 50.0))
        return log_likelihood


def reference_twin(model: HiddenSemiMarkovModel) -> ReferenceHSMM:
    """A copy of ``model`` that runs the loop oracles."""
    twin = model.clone()
    twin.__class__ = ReferenceHSMM
    return twin
