"""Online application of event-based predictors.

Event predictors (HSMM, DFT, event sets, error rate) are trained on
extracted windows, but at runtime they must score the error log
*continuously*: at each evaluation instant, the window of errors ending
"now" is the input (the paper's Fig. 4 problem statement).  This module
turns any fitted :class:`~repro.prediction.base.EventPredictor` into a
time-indexed score stream over an error log.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.monitoring.logbook import ErrorLog
from repro.monitoring.records import EventSequence
from repro.prediction.base import EventPredictor, Prediction


class OnlineEventScorer:
    """Slides a data window over an error log and scores each position."""

    def __init__(
        self,
        predictor: EventPredictor,
        data_window: float,
        lead_time: float,
        max_events: int = 200,
    ) -> None:
        if data_window <= 0 or lead_time < 0:
            raise ConfigurationError("need data_window > 0 and lead_time >= 0")
        self.predictor = predictor
        self.data_window = data_window
        self.lead_time = lead_time
        self.max_events = max_events

    def window_at(self, log: ErrorLog, now: float) -> EventSequence:
        """The error sequence of the window ending at ``now``."""
        records = log.window(now - self.data_window, now)[-self.max_events :]
        return EventSequence(
            times=[r.time for r in records],
            message_ids=[r.message_id for r in records],
            origin=now - self.data_window,
        )

    def score_at(self, log: ErrorLog, now: float) -> Prediction:
        """One online prediction at time ``now``."""
        score = self.predictor.score_sequence(self.window_at(log, now))
        return Prediction(
            time=now,
            score=score,
            warning=score >= self.predictor.threshold,
            lead_time=self.lead_time,
        )

    def score_series(
        self, log: ErrorLog, times: np.ndarray
    ) -> list[Prediction]:
        """Predictions for every evaluation instant in ``times``.

        Windows are extracted up-front and scored as one batch, so
        predictors with a batched ``score_sequences`` (e.g. the HSMM,
        which runs one forward recursion over the whole batch) score the
        series without a per-instant pass.  The result is identical to
        calling :meth:`score_at` per instant.
        """
        instants = [float(t) for t in np.asarray(times, dtype=float)]
        windows = [self.window_at(log, now) for now in instants]
        scores = self.predictor.score_sequences(windows)
        return [
            Prediction(
                time=now,
                score=float(score),
                warning=float(score) >= self.predictor.threshold,
                lead_time=self.lead_time,
            )
            for now, score in zip(instants, scores, strict=True)
        ]

    def evaluate_against_failures(
        self,
        log: ErrorLog,
        times: np.ndarray,
        failure_times: np.ndarray,
        prediction_period: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scores plus ground-truth labels for each evaluation instant.

        A prediction at ``t`` is labeled positive when a failure starts in
        ``[t + lead_time, t + lead_time + prediction_period)`` -- the
        paper's lead-time semantics (Fig. 4).
        """
        times = np.asarray(times, dtype=float)
        failure_times = np.asarray(failure_times, dtype=float)
        predictions = self.score_series(log, times)
        scores = np.array([p.score for p in predictions])
        labels = np.zeros(times.size, dtype=bool)
        for i, t in enumerate(times):
            start = t + self.lead_time
            end = start + prediction_period
            labels[i] = bool(
                failure_times.size
                and np.any((failure_times >= start) & (failure_times < end))
            )
        return scores, labels
