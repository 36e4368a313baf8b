"""Unified Predictor protocol: TrainingData, fit hooks, as_predictor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.prediction import (
    PredictionBatch,
    TrainingData,
    as_predictor,
)
from repro.prediction.base import EventPredictor, SymptomPredictor
from repro.monitoring.records import EventSequence


class MeanScorer(SymptomPredictor):
    """New-style symptom predictor (implements the hooks)."""

    def fit_samples(self, x, y):
        self._fitted = True
        return self

    def score_samples(self, x):
        return np.asarray(x, dtype=float).mean(axis=1)


def _sequences(n, events, label):
    return [
        EventSequence(
            times=list(np.linspace(0.0, 10.0, events)),
            message_ids=[1] * events,
            label=label,
        )
        for _ in range(n)
    ]


class TestTrainingData:
    def test_from_samples_round_trip(self, rng):
        x = rng.normal(size=(20, 3))
        y = rng.random(20)
        data = TrainingData.from_samples(x, y)
        np.testing.assert_array_equal(data.x, x)
        np.testing.assert_array_equal(data.target(), y)
        batch = data.batch()
        assert isinstance(batch, PredictionBatch)
        np.testing.assert_array_equal(batch.x, x)

    def test_target_falls_back_to_labels(self, rng):
        labels = rng.random(10) < 0.5
        data = TrainingData(x=rng.normal(size=(10, 2)), y=None, labels=labels)
        np.testing.assert_array_equal(data.target(), labels.astype(float))

    def test_batch_coerce_accepts_array(self, rng):
        x = rng.normal(size=(5, 2))
        batch = PredictionBatch.coerce(x)
        np.testing.assert_array_equal(batch.x, x)
        assert PredictionBatch.coerce(batch) is batch

    def test_batch_requires_alignment(self, rng):
        with pytest.raises(ConfigurationError):
            PredictionBatch(
                x=rng.normal(size=(3, 2)), sequences=_sequences(2, 3, None)
            )

    def test_require_missing_view(self, rng):
        batch = PredictionBatch(x=rng.normal(size=(3, 2)))
        with pytest.raises(ConfigurationError):
            batch.require_sequences("test")


class TestFitContract:
    def test_fit_takes_only_training_data(self, rng):
        x, y = rng.normal(size=(30, 2)), rng.random(30)
        with pytest.raises(TypeError):
            MeanScorer().fit(x, y)

    def test_fit_delegates_to_hook(self, rng):
        data = TrainingData.from_samples(rng.normal(size=(30, 2)), rng.random(30))
        predictor = MeanScorer().fit(data)
        assert predictor._fitted
        assert predictor.score_batch(data.batch()).shape == (30,)

    def test_hooks_are_abstract(self):
        class NoHook(SymptomPredictor):
            def score_samples(self, x):
                return np.zeros(len(x))

        class NoEventHook(EventPredictor):
            def score_sequence(self, sequence):
                return 0.0

        for cls in (NoHook, NoEventHook):
            with pytest.raises(TypeError):
                cls()


class TestAsPredictor:
    class DuckSymptom:
        """Not a Predictor subclass; speaks only the symptom dialect."""

        threshold = 0.5

        def fit(self, x, y):
            return self

        def score_samples(self, x):
            return np.asarray(x, dtype=float)[:, 0]

    class DuckEvent:
        threshold = 0.5

        def fit(self, failure, nonfailure):
            return self

        def score_sequence(self, sequence):
            return float(len(sequence.times))

    class Structural:
        """Outside the class hierarchy but speaks the unified protocol."""

        threshold = 0.5

        def fit(self, data):
            return self

        def score_batch(self, batch):
            return np.zeros(len(PredictionBatch.coerce(batch)))

    def test_as_predictor_passthrough(self):
        predictor = MeanScorer()
        assert as_predictor(predictor) is predictor

    def test_structural_predictor_passes_through(self):
        structural = self.Structural()
        assert as_predictor(structural) is structural

    def test_symptom_duck_is_rejected(self):
        with pytest.raises(ConfigurationError, match="DuckSymptom"):
            as_predictor(self.DuckSymptom())

    def test_event_duck_is_rejected(self):
        with pytest.raises(ConfigurationError, match="DuckEvent"):
            as_predictor(self.DuckEvent())

    def test_unadaptable_object_rejected(self):
        with pytest.raises(ConfigurationError):
            as_predictor(object())
