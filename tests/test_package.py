"""The package namespace is the union of its modules' public lists."""

import inspect

import pytest

import infobell
from infobell import expsim, fitting, infogeo, states, tomography

MODULES = (states, infogeo, expsim, tomography, fitting)

# Every name the package exported before it re-exported each module's whole list.
EARLIER_NAMES = (
    "__version__",
    "DensityMatrix", "EntanglementReport", "JointDistribution", "MeasurementSetting", "PureState",
    "bell_state", "concurrence", "entanglement_report", "fidelity", "joint_probabilities",
    "modified_werner", "partial_trace", "polarizer_projector", "visibility",
    "REFERENCE_THETAS", "MetricAxiomsReport", "QuadrilateralGeometry", "ReactivityResult",
    "ViolationCurve", "conditional_entropy", "info_area", "info_distance", "info_volume",
    "max_violation", "metric_axioms_check", "quadrilateral", "reactivity", "schumacher_settings",
    "shannon_entropy", "stream_rng", "sweep", "violation",
    "CoincidenceRecord", "ConfigError", "EstimationError", "NoiseConfig", "SimulationConfig",
    "add_accidentals", "estimate_distribution", "propagate_error", "sample_counts",
    "simulate_schumacher_run", "simulate_sweep",
    "MODE_LABELS", "OPTIMAL_BELL_SETTINGS", "TomoDataset", "TomographyError", "TomographyResult",
    "chsh", "correlation", "expected_counts", "linear_inversion", "mle_reconstruct",
    "WernerFit", "fit_werner", "model_curve",
)


def test_package_all_is_the_module_lists_in_order():
    expected = ["__version__"] + [name for module in MODULES for name in module.__all__]
    assert infobell.__all__ == expected
    assert len(set(infobell.__all__)) == len(infobell.__all__)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_each_public_name_is_the_module_object(module):
    for name in module.__all__:
        assert getattr(infobell, name) is getattr(module, name), name


def test_no_earlier_name_leaves_the_package():
    assert len(EARLIER_NAMES) == 57
    assert set(EARLIER_NAMES) <= set(infobell.__all__)


# Public types whose float fields are computed results, not inputs a caller enters.
RESULT_TYPES = ("WernerFit", "EntanglementReport", "MetricAxiomsReport", "TomographyResult")

def test_every_public_float_input_is_in_a_gate_table():
    """A public parameter annotated float is a real-number input: a row of the gate tests' tables
    must enter it, unless its owner is a result type. A float input added without the gate fails here."""
    from test_expsim import BAD_CONFIG_FIELDS
    from test_infogeo import ANGLE_ENTRY_POINTS

    gated = {tuple(param.id.split("-", 1)) for param in ANGLE_ENTRY_POINTS}
    gated |= {("SimulationConfig", getattr(param, "values", param)[0]) for param in BAD_CONFIG_FIELDS}
    floats = set()
    for name in infobell.__all__:
        obj = getattr(infobell, name)
        if callable(obj) and name not in RESULT_TYPES and not (isinstance(obj, type) and issubclass(obj, Exception)):
            floats |= {(name, p.name) for p in inspect.signature(obj).parameters.values()
                       if "float" in str(p.annotation)}
    assert {("modified_werner", "lam"), ("QuadrilateralGeometry", "dd_a1b2"), ("SimulationConfig", "phase")} <= floats
    assert floats <= gated, sorted(floats - gated)
