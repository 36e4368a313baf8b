"""Predictor interfaces: the unified protocol and the two data families.

The taxonomy's two big implemented families differ in their input data:

- :class:`SymptomPredictor` consumes periodic numeric feature vectors
  (symptom monitoring; "in most cases real-valued"),
- :class:`EventPredictor` consumes event-driven error sequences
  (detected error reporting; "discrete, categorical data").

Historically the two families had incompatible ``fit``/``score``
signatures, so nothing downstream (ensembles, registry grids, the
controller) could treat a mixed panel of base learners uniformly.  The
unified :class:`Predictor` protocol collapses the duality:

- ``fit(data)`` trains on a :class:`TrainingData` bundle carrying
  whichever inputs the predictor declares it :attr:`~Predictor.consumes`
  (feature matrices, labeled sequence classes, or both),
- ``score_batch(batch)`` scores a :class:`PredictionBatch` (or a bare
  feature matrix / sequence list) into one score per example.

Both family ABCs *are* unified predictors: they implement
``fit``/``score_batch`` by delegating to the family-specific hooks
(:meth:`SymptomPredictor.fit_samples`,
:meth:`EventPredictor.fit_sequences`), which every subclass implements.
``fit`` takes only a :class:`TrainingData` bundle.

Every predictor produces a continuous failure-proneness *score* per
input; a warning is raised when the score crosses the predictor's
threshold, which is the knob trading precision against recall
(Sect. 3.3).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.monitoring.records import EventSequence
from repro.prediction.metrics import ContingencyTable, auc
from repro.prediction.thresholds import max_f_threshold

#: Input modalities a predictor can declare in :attr:`Predictor.consumes`.
SAMPLES = "samples"
SEQUENCES = "sequences"


@dataclass(frozen=True)
class Prediction:
    """One prediction: a score, the warning decision, and its horizon."""

    time: float
    score: float
    warning: bool
    lead_time: float = 0.0


@dataclass(frozen=True)
class PredictorInfo:
    """Metadata tying a predictor to the Fig. 3 taxonomy."""

    name: str
    category: str  # taxonomy leaf, e.g. "symptom-monitoring/function-approximation"
    description: str = ""


@dataclass
class PredictionBatch:
    """Aligned multi-modal inputs: one example per row.

    ``x`` holds the feature-vector view (shape ``(n, d)``), ``sequences``
    the event-window view (length ``n``); row ``i`` of both describes the
    *same* example (e.g. the same evaluation instant).  Either view may be
    absent — a predictor that needs a missing view raises a
    :class:`ConfigurationError` with a pointed message instead of
    guessing.
    """

    x: np.ndarray | None = None
    sequences: list[EventSequence] | None = None

    def __post_init__(self) -> None:
        if self.x is not None:
            self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if self.x is None and self.sequences is None:
            raise ConfigurationError("a PredictionBatch needs x or sequences")
        if (
            self.x is not None
            and self.sequences is not None
            and self.x.shape[0] != len(self.sequences)
        ):
            raise ConfigurationError(
                f"misaligned batch: {self.x.shape[0]} feature rows vs "
                f"{len(self.sequences)} sequences"
            )

    def __len__(self) -> int:
        if self.x is not None:
            return int(self.x.shape[0])
        return len(self.sequences)

    def require_x(self, who: str = "predictor") -> np.ndarray:
        if self.x is None:
            raise ConfigurationError(
                f"{who} consumes feature samples but the batch carries none"
            )
        return self.x

    def require_sequences(self, who: str = "predictor") -> list[EventSequence]:
        if self.sequences is None:
            raise ConfigurationError(
                f"{who} consumes event sequences but the batch carries none"
            )
        return self.sequences

    @classmethod
    def coerce(cls, batch) -> "PredictionBatch":
        """Accept a batch, a bare feature matrix, or a sequence list."""
        if isinstance(batch, PredictionBatch):
            return batch
        if isinstance(batch, np.ndarray):
            return cls(x=batch)
        if isinstance(batch, (list, tuple)):
            if batch and isinstance(batch[0], EventSequence):
                return cls(sequences=list(batch))
            if not batch:
                raise ConfigurationError("cannot coerce an empty list to a batch")
            return cls(x=np.asarray(batch, dtype=float))
        raise ConfigurationError(
            f"cannot coerce {type(batch).__name__} to a PredictionBatch"
        )


@dataclass
class TrainingData:
    """Everything a mixed predictor panel can train on, in one bundle.

    Aligned fields (``x``, ``y``, ``labels``, ``sequences``) describe the
    same examples row by row; ``failure_sequences``/``nonfailure_sequences``
    are the class-separated sequence sets event predictors train on
    (Fig. 6).  Builders fill only the fields the consuming predictor
    declares via :attr:`Predictor.consumes`.
    """

    #: Feature matrix ``(n, d)`` (symptom monitoring view).
    x: np.ndarray | None = None
    #: Regression target per row (e.g. interval availability).
    y: np.ndarray | None = None
    #: Boolean failure labels per row (calibration / thresholding).
    labels: np.ndarray | None = None
    #: Event window per row, aligned with ``x`` (panel calibration view).
    sequences: list[EventSequence] | None = None
    #: Class-separated training sequences (event-predictor fit view).
    failure_sequences: list[EventSequence] | None = None
    nonfailure_sequences: list[EventSequence] | None = None

    def __post_init__(self) -> None:
        if self.x is not None:
            self.x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if self.y is not None:
            self.y = np.asarray(self.y, dtype=float).ravel()
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=bool).ravel()
        n = None
        for name in ("x", "y", "labels", "sequences"):
            value = getattr(self, name)
            if value is None:
                continue
            size = value.shape[0] if isinstance(value, np.ndarray) else len(value)
            if n is None:
                n = size
            elif size != n:
                raise ConfigurationError(
                    f"misaligned training data: field {name!r} has {size} "
                    f"examples, expected {n}"
                )

    @classmethod
    def from_samples(
        cls, x: np.ndarray, y: np.ndarray, labels: np.ndarray | None = None
    ) -> "TrainingData":
        """The symptom-monitoring bundle: features + target (+ labels)."""
        return cls(x=x, y=y, labels=labels)

    @classmethod
    def from_sequences(
        cls,
        failure_sequences: list[EventSequence],
        nonfailure_sequences: list[EventSequence],
    ) -> "TrainingData":
        """The detected-error bundle: class-separated sequence sets."""
        return cls(
            failure_sequences=list(failure_sequences),
            nonfailure_sequences=list(nonfailure_sequences),
        )

    def sequence_classes(self) -> tuple[list[EventSequence], list[EventSequence]]:
        """``(failure, nonfailure)`` sequences for event-predictor training.

        Explicit class-separated sets win; otherwise the aligned
        ``sequences`` are split by ``labels``.
        """
        if self.failure_sequences is not None and self.nonfailure_sequences is not None:
            return self.failure_sequences, self.nonfailure_sequences
        if self.sequences is not None and self.labels is not None:
            failure = [s for s, bad in zip(self.sequences, self.labels) if bad]
            nonfailure = [s for s, bad in zip(self.sequences, self.labels) if not bad]
            return failure, nonfailure
        raise ConfigurationError(
            "training data carries no event sequences (need "
            "failure/nonfailure sets, or aligned sequences plus labels)"
        )

    def target(self) -> np.ndarray:
        """The regression target, falling back to boolean labels."""
        if self.y is not None:
            return self.y
        if self.labels is not None:
            return self.labels.astype(float)
        raise ConfigurationError("training data carries neither y nor labels")

    def batch(self) -> PredictionBatch:
        """The aligned views as a scoring batch (calibration passes)."""
        return PredictionBatch(x=self.x, sequences=self.sequences)


class _ThresholdMixin:
    """Shared score-thresholding behaviour."""

    threshold: float = 0.5

    def set_threshold(self, threshold: float) -> None:
        self.threshold = float(threshold)

    def calibrate_threshold(
        self, scores: np.ndarray, labels: np.ndarray
    ) -> float:
        """Set the threshold to the max-F point on validation data."""
        threshold, _ = max_f_threshold(scores, labels)
        self.set_threshold(threshold)
        return threshold


class Predictor(_ThresholdMixin, abc.ABC):
    """The unified predictor protocol every family implements.

    ``fit`` takes a :class:`TrainingData` bundle, ``score_batch`` takes a
    :class:`PredictionBatch` (or anything :meth:`PredictionBatch.coerce`
    accepts) and returns one failure-proneness score per example.  The
    :attr:`consumes` set declares which input modalities the predictor
    needs, so data builders materialize only what is used.
    """

    info: PredictorInfo

    #: Input modalities this predictor reads (subset of {SAMPLES, SEQUENCES}).
    consumes: frozenset = frozenset()

    def __init__(self) -> None:
        self._fitted = False

    @abc.abstractmethod
    def fit(self, data: TrainingData) -> "Predictor":
        """Train on a :class:`TrainingData` bundle."""

    @abc.abstractmethod
    def score_batch(self, batch) -> np.ndarray:
        """Failure-proneness score per example (higher = failure-prone)."""

    def predict_batch(self, batch) -> np.ndarray:
        """Boolean warnings at the current threshold."""
        return self.score_batch(batch) >= self.threshold

    def evaluate_batch(self, batch, labels: np.ndarray) -> ContingencyTable:
        """Contingency table at the current threshold."""
        return ContingencyTable.from_scores(
            self.score_batch(batch), np.asarray(labels, dtype=bool), self.threshold
        )

    def auc_batch(self, batch, labels: np.ndarray) -> float:
        return auc(self.score_batch(batch), np.asarray(labels, dtype=bool))

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")


class SymptomPredictor(Predictor):
    """Predictor over periodic monitoring feature vectors.

    Subclasses implement :meth:`fit_samples` and :meth:`score_samples`;
    the unified ``fit``/``score_batch`` surface delegates to them.
    """

    consumes = frozenset({SAMPLES})

    def fit(self, data: TrainingData) -> "SymptomPredictor":
        """Train on a :class:`TrainingData` bundle."""
        return self.fit_samples(
            data.x if data.x is not None else np.empty((0, 0)), data.target()
        )

    @abc.abstractmethod
    def fit_samples(self, x: np.ndarray, y: np.ndarray) -> "SymptomPredictor":
        """Train on feature matrix ``x`` and target ``y``.

        ``y`` may be continuous (e.g. interval availability) or boolean
        failure labels, depending on the method.
        """

    @abc.abstractmethod
    def score_samples(self, x: np.ndarray) -> np.ndarray:
        """Failure-proneness score per row (higher = more failure-prone)."""

    def score_batch(self, batch) -> np.ndarray:
        return self.score_samples(
            PredictionBatch.coerce(batch).require_x(type(self).__name__)
        )

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Boolean warnings at the current threshold."""
        return self.score_samples(x) >= self.threshold

    def evaluate(self, x: np.ndarray, labels: np.ndarray) -> ContingencyTable:
        """Contingency table at the current threshold."""
        return ContingencyTable.from_scores(
            self.score_samples(x), np.asarray(labels, dtype=bool), self.threshold
        )

    def auc(self, x: np.ndarray, labels: np.ndarray) -> float:
        return auc(self.score_samples(x), np.asarray(labels, dtype=bool))


class EventPredictor(Predictor):
    """Predictor over event-driven error sequences.

    Subclasses implement :meth:`fit_sequences` and :meth:`score_sequence`
    (optionally overriding :meth:`score_sequences` with a batched path, as
    the HSMM does); the unified ``fit``/``score_batch`` surface delegates
    to them.
    """

    consumes = frozenset({SEQUENCES})

    def fit(self, data: TrainingData) -> "EventPredictor":
        """Train on a :class:`TrainingData` bundle."""
        failure, nonfailure = data.sequence_classes()
        return self.fit_sequences(failure, nonfailure)

    @abc.abstractmethod
    def fit_sequences(
        self,
        failure_sequences: list[EventSequence],
        nonfailure_sequences: list[EventSequence],
    ) -> "EventPredictor":
        """Train on labeled error sequences (Fig. 6)."""

    @abc.abstractmethod
    def score_sequence(self, sequence: EventSequence) -> float:
        """Failure-proneness score of one sequence (higher = failure-prone)."""

    def score_sequences(self, sequences: list[EventSequence]) -> np.ndarray:
        """Scores for a batch of sequences.

        The default loops :meth:`score_sequence` per item; predictors with
        a genuinely batched inference path (the HSMM's
        ``log_likelihood_batch``) override this, and *every* panel/ensemble
        scoring path calls this method — never the per-sequence one — so
        the batched path is used whenever it exists.
        """
        return np.asarray([self.score_sequence(s) for s in sequences])

    def score_batch(self, batch) -> np.ndarray:
        return self.score_sequences(
            PredictionBatch.coerce(batch).require_sequences(type(self).__name__)
        )

    def predict(self, sequence: EventSequence) -> bool:
        return self.score_sequence(sequence) >= self.threshold

    def evaluate(
        self,
        failure_sequences: list[EventSequence],
        nonfailure_sequences: list[EventSequence],
    ) -> ContingencyTable:
        scores, labels = self._score_labeled(failure_sequences, nonfailure_sequences)
        return ContingencyTable.from_scores(scores, labels, self.threshold)

    def auc(
        self,
        failure_sequences: list[EventSequence],
        nonfailure_sequences: list[EventSequence],
    ) -> float:
        scores, labels = self._score_labeled(failure_sequences, nonfailure_sequences)
        return auc(scores, labels)

    def _score_labeled(
        self,
        failure_sequences: list[EventSequence],
        nonfailure_sequences: list[EventSequence],
    ) -> tuple[np.ndarray, np.ndarray]:
        scores = np.concatenate(
            [
                self.score_sequences(failure_sequences),
                self.score_sequences(nonfailure_sequences),
            ]
        )
        labels = np.concatenate(
            [
                np.ones(len(failure_sequences), dtype=bool),
                np.zeros(len(nonfailure_sequences), dtype=bool),
            ]
        )
        return scores, labels


def as_predictor(obj) -> Predictor:
    """Check that ``obj`` speaks the unified protocol and return it.

    :class:`Predictor` instances pass through unchanged, as do structural
    predictors from outside the class hierarchy (anything with ``fit`` and
    ``score_batch``).  Anything else is rejected.
    """
    if isinstance(obj, Predictor) or (
        hasattr(obj, "score_batch") and hasattr(obj, "fit")
    ):
        return obj
    raise ConfigurationError(
        f"{type(obj).__name__} is not a Predictor (needs fit(TrainingData) "
        "and score_batch methods)"
    )
