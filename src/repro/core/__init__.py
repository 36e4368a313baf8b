"""The PFM architecture (paper Sects. 2 and 6).

- :mod:`~repro.core.mea` -- the Monitor-Evaluate-Act cycle engine,
- :mod:`~repro.core.controller` -- a PFM controller binding a trained
  predictor and a countermeasure repertoire to the running SCP,
- :mod:`~repro.core.blueprint` -- the Fig. 11 multi-layer architecture
  with per-layer predictors and a meta-learning combiner,
- :mod:`~repro.core.experiment` -- closed-loop experiments measuring the
  effect of PFM on the simulated system (Table 1 behaviour, availability
  improvement, TTR).
"""

from repro.core.blueprint import BlueprintArchitecture, Layer, LayerPredictor
from repro.core.controller import PFMController
from repro.core.experiment import (
    ClosedLoopResult,
    TTRComparison,
    measure_repair_improvement,
    run_closed_loop,
)
from repro.core.mea import EvaluationResult, MEACycle, MEARecord, StepFailure
from repro.core.translucency import LayerInsight, TranslucencyReport

__all__ = [
    "BlueprintArchitecture",
    "Layer",
    "LayerPredictor",
    "PFMController",
    "ClosedLoopResult",
    "TTRComparison",
    "measure_repair_improvement",
    "run_closed_loop",
    "EvaluationResult",
    "MEACycle",
    "MEARecord",
    "StepFailure",
    "LayerInsight",
    "TranslucencyReport",
]
