"""Public-API surface checks: everything advertised imports and exists."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro.simulator",
    "repro.faults",
    "repro.monitoring",
    "repro.telecom",
    "repro.markov",
    "repro.prediction",
    "repro.prediction.ubf",
    "repro.prediction.hsmm",
    "repro.prediction.baselines",
    "repro.actions",
    "repro.reliability",
    "repro.core",
    "repro.reporting",
    "repro.telemetry",
    "repro.fleet",
    "repro.resilience",
    "repro.cli",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


def test_version_exposed():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_top_level_surface_pinned():
    """The curated ``repro`` namespace: the one-import experiment API."""
    assert set(repro.__all__) == {
        "__version__",
        "RunSpec",
        "RunResult",
        "FleetReport",
        "grid",
        "run_fleet",
        "run_closed_loop",
        "run_campaign",
        "CampaignConfig",
        "make_predictor",
        "available_predictors",
        "TelemetryHub",
    }


def test_top_level_exports_resolve_lazily():
    for symbol in repro.__all__:
        assert getattr(repro, symbol) is not None
    with pytest.raises(AttributeError):
        repro.not_a_symbol


def test_top_level_identity_matches_canonical_modules():
    from repro.fleet.spec import RunSpec
    from repro.prediction.registry import make_predictor

    assert repro.RunSpec is RunSpec
    assert repro.make_predictor is make_predictor


def test_exception_hierarchy():
    from repro import errors

    for name in [
        "SimulationError",
        "ModelError",
        "NotFittedError",
        "ConvergenceError",
        "ConfigurationError",
        "ActionError",
    ]:
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError)
        assert issubclass(exc, Exception)


def test_quickstart_snippet_from_readme():
    """The README's quickstart code must actually run."""
    from repro.reliability import PFMModel, PFMParameters, unavailability_ratio

    params = PFMParameters.paper_example()
    model = PFMModel(params)
    assert 0.9 < model.availability() < 1.0
    assert 0.0 < unavailability_ratio(params) < 1.0
    assert 0.0 < model.reliability(10_000.0) < 1.0
    assert model.hazard_rate(500.0) > 0.0
