"""Behaviour pins for the predictor fit/score path.

The UBF and HSMM predictors are fitted through the registry at fixed
seeds on the session ``small_dataset`` and their training scores,
calibrated thresholds and warning counts are compared against committed
values (``pins/predictor_pins.json``).  ``train_predictor``'s default
predictor is pinned the same way, so a refactor of the training path
that draws from the RNG stream differently fails here.

A deliberate behaviour change regenerates the pins with::

    PYTHONPATH=src python tests/prediction/test_behaviour_pins.py

and says why in the change log.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.experiment import train_predictor
from repro.prediction.registry import make_predictor
from repro.telecom import DatasetConfig, generate_dataset

# Divide/invalid RuntimeWarnings fail the pins instead of turning into
# NaNs (the module fixture computes under the first test's filters).
pytestmark = pytest.mark.filterwarnings("error")

PINS = Path(__file__).with_name("pins") / "predictor_pins.json"

#: Every 16th sampling instant: enough rows to exercise calibration while
#: keeping the HSMM scoring pass (two models, ~170 windows) short.
GRID_STRIDE = 16


def _fit_and_score(name: str, dataset, **seeding) -> dict:
    predictor = make_predictor(name, **seeding)
    data = dataset.training_data(
        consumes=predictor.consumes,
        grid=dataset.sample_grid()[::GRID_STRIDE],
        rng=np.random.default_rng(4),
    )
    predictor.fit(data)
    batch = data.batch()
    scores = predictor.score_batch(batch)
    threshold = predictor.calibrate_threshold(scores, data.labels)
    return {
        "scores": scores.tolist(),
        "threshold": float(threshold),
        "warnings": int(predictor.predict_batch(batch).sum()),
    }


def _default_training() -> dict:
    predictor, scores = train_predictor(DatasetConfig(horizon=0.25 * 86_400.0, seed=11))
    return {
        "scores": scores.tolist(),
        "threshold": float(predictor.threshold),
        "warnings": int((scores >= predictor.threshold).sum()),
    }


def compute_pins(dataset) -> dict:
    return {
        "ubf": _fit_and_score("ubf", dataset, rng=np.random.default_rng(3)),
        "hsmm": _fit_and_score("hsmm", dataset, seed=3),
        "train_predictor": _default_training(),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINS.read_text())


@pytest.fixture(scope="module")
def actual(small_dataset) -> dict:
    return compute_pins(small_dataset)


@pytest.mark.parametrize("key", ["ubf", "hsmm", "train_predictor"])
def test_scores_thresholds_and_warnings_match_pins(key, actual, pinned):
    got, want = actual[key], pinned[key]
    assert len(got["scores"]) == len(want["scores"])
    np.testing.assert_allclose(got["scores"], want["scores"], rtol=0, atol=1e-9)
    assert got["threshold"] == pytest.approx(want["threshold"], rel=0, abs=1e-9)
    assert got["warnings"] == want["warnings"]


if __name__ == "__main__":
    pins = compute_pins(generate_dataset(DatasetConfig(horizon=86_400.0, seed=5)))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS}")
