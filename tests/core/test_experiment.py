"""Closed-loop experiment tests.

These run real (short) simulations including predictor training, so they
are the slowest tests in the suite; the horizon is kept at two simulated
days, enough for a handful of fault episodes.
"""

import pytest

from repro.core import run_closed_loop
from repro.core.experiment import DEFAULT_VARIABLES, train_predictor
from repro.telecom.dataset import DatasetConfig


@pytest.fixture(scope="module")
def result():
    return run_closed_loop(train_seed=11, eval_seed=21, horizon=2 * 86_400.0)


class TestClosedLoop:
    def test_pfm_reduces_failures(self, result):
        assert result.pfm_failures < result.baseline_failures

    def test_pfm_improves_window_availability(self, result):
        assert (
            result.pfm_window_availability > result.baseline_window_availability
        )

    def test_measured_ratio_below_one(self, result):
        """The measured counterpart of Eq. 14: PFM cuts unavailability."""
        assert result.unavailability_ratio < 0.9

    def test_warnings_and_actions_happened(self, result):
        assert result.warnings_raised > 0
        assert result.actions_taken > 0
        assert sum(result.actions_by_name.values()) == result.actions_taken

    def test_table1_matrix_structure(self, result):
        """Table 1 semantics: actions only ever follow positive
        predictions; negatives are left alone."""
        matrix = result.outcome_matrix
        assert set(matrix) == {"TP", "FP", "TN", "FN"}
        assert matrix["TN"]["acted"] == 0
        assert matrix["FN"]["acted"] == 0
        assert matrix["TP"]["acted"] + matrix["FP"]["acted"] == result.actions_taken

    def test_summary_mentions_key_numbers(self, result):
        text = result.summary()
        assert "failures:" in text
        assert "unavailability ratio" in text


class TestReplication:
    """One trained predictor evaluated against several faultload seeds."""

    @pytest.fixture(scope="class")
    def report(self):
        from repro.fleet import grid, run_fleet

        specs = grid(
            ["closed-loop"], seeds=[21, 23], train_seed=11, horizon=1.5 * 86_400.0
        )
        return run_fleet(specs, backend="serial")

    def test_one_result_per_seed(self, report):
        assert sorted(r.spec.seed for r in report.results) == [21, 23]

    def test_improvement_on_every_seed(self, report):
        ratios = [r.unavailability_ratio for r in report.results]
        assert all(ratio < 1.0 for ratio in ratios)

    def test_summary_shows_spread(self, report):
        ratio = report.scenario("closed-loop").to_json_dict()["unavailability_ratio"]
        assert ratio["n"] == 2
        assert ratio["mean"] < 1.0
        assert ratio["min"] <= ratio["mean"] <= ratio["max"]

    def test_requires_seeds(self):
        from repro.errors import ConfigurationError
        from repro.fleet import grid

        with pytest.raises(ConfigurationError, match="empty grid"):
            grid(["closed-loop"], seeds=[], train_seed=11)


class TestRepairMeasurement:
    @pytest.fixture(scope="class")
    def ttr(self):
        from repro.core import measure_repair_improvement

        return measure_repair_improvement(
            train_seed=11, eval_seed=21, horizon=1.5 * 86_400.0
        )

    def test_repairs_happen_in_both_runs(self, ttr):
        assert ttr.classical_repairs
        assert ttr.prepared_repairs

    def test_baseline_repairs_are_all_classical(self, ttr):
        """Without warnings the spare is never booted ahead of time."""
        assert all(r.reconfiguration >= 100.0 for r in ttr.classical_repairs)

    def test_preparation_reduces_mean_ttr(self, ttr):
        assert ttr.mean_prepared_ttr < ttr.mean_classical_ttr
        assert ttr.k_measured > 1.0


class TestTrainPredictor:
    def test_training_produces_calibrated_predictor(self):
        config = DatasetConfig(seed=11, horizon=2 * 86_400.0)
        predictor, scores = train_predictor(config)
        assert scores.size > 100
        # Threshold sits inside the observed score range.
        assert scores.min() <= predictor.threshold <= scores.max()

    def test_default_variables_exist_on_system(self):
        from repro.simulator import Engine, RandomStreams
        from repro.telecom import SCPConfig, SCPSystem

        system = SCPSystem(Engine(), RandomStreams(0), SCPConfig())
        gauges = {g.variable for g in system.all_gauges()}
        assert set(DEFAULT_VARIABLES) <= gauges
