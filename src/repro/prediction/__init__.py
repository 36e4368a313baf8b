"""Online failure prediction (the paper's core contribution, Sect. 3).

- :mod:`~repro.prediction.base` -- predictor interfaces and prediction
  records,
- :mod:`~repro.prediction.taxonomy` -- the Fig. 3 classification tree,
- :mod:`~repro.prediction.metrics` -- precision / recall / FPR / F-measure /
  ROC / AUC (Sect. 3.3 "Metrics"),
- :mod:`~repro.prediction.thresholds` -- threshold selection (max-F,
  precision = recall),
- :mod:`~repro.prediction.ubf` -- Universal Basis Functions with PWA
  variable selection (symptom monitoring),
- :mod:`~repro.prediction.hsmm` -- hidden semi-Markov model sequence
  classifier (detected error reporting),
- :mod:`~repro.prediction.baselines` -- DFT, event sets, trend analysis,
  MSET, error-rate and failure-tracking predictors,
- :mod:`~repro.prediction.meta` -- stacked-generalization meta-learner,
- :mod:`~repro.prediction.changepoint` -- retraining triggers,
- :mod:`~repro.prediction.evaluation` -- train/test evaluation harness,
- :mod:`~repro.prediction.registry` -- declarative predictor construction
  (:func:`make_predictor`), the factory behind fleet :class:`RunSpec`\\ s.
"""

from repro.prediction.adaptive import AdaptiveRetrainingPredictor
from repro.prediction.arbitration import (
    ArbitrationMember,
    Attribution,
    NoisyOrArbitrator,
)
from repro.prediction.base import (
    EventPredictor,
    Prediction,
    PredictionBatch,
    Predictor,
    PredictorInfo,
    SymptomPredictor,
    TrainingData,
    as_predictor,
)
from repro.prediction.diagnosis import ComponentRanker, FaultTypeClassifier
from repro.prediction.online import OnlineEventScorer
from repro.prediction.metrics import (
    ContingencyTable,
    auc,
    roc_curve,
)
from repro.prediction.calibration import (
    IsotonicCalibration,
    PlattScaling,
    make_calibrator,
)
from repro.prediction.registry import (
    available_predictors,
    make_predictor,
    normalize_predictor_spec,
    register_predictor,
)
from repro.prediction.thresholds import (
    max_f_threshold,
    precision_recall_equality_threshold,
)

__all__ = [
    "AdaptiveRetrainingPredictor",
    "ArbitrationMember",
    "Attribution",
    "IsotonicCalibration",
    "NoisyOrArbitrator",
    "PlattScaling",
    "make_calibrator",
    "normalize_predictor_spec",
    "ComponentRanker",
    "FaultTypeClassifier",
    "OnlineEventScorer",
    "EventPredictor",
    "Prediction",
    "PredictionBatch",
    "Predictor",
    "PredictorInfo",
    "SymptomPredictor",
    "TrainingData",
    "as_predictor",
    "ContingencyTable",
    "auc",
    "roc_curve",
    "max_f_threshold",
    "precision_recall_equality_threshold",
    "available_predictors",
    "make_predictor",
    "register_predictor",
]
