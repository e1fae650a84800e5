"""The package namespace is the union of its modules' public lists."""

import dataclasses
import inspect

import numpy as np
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


# Each public type with an ndarray field, and fresh constructor arguments that include caller arrays.
HELD_ARRAYS = [
    ("PureState", lambda: {"amplitudes": np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)}),
    ("DensityMatrix", lambda: {"n_qubits": 1, "matrix": np.eye(2) / 2}),
    ("JointDistribution", lambda: {"probs": np.full((2, 2), 0.25)}),
    ("ViolationCurve", lambda: {"thetas": np.array([0.1, 0.2]), "v": np.array([0.3, 0.4]),
                                "dv": np.array([0.01, 0.02])}),
    ("CoincidenceRecord", lambda: {"settings": None, "counts": np.array([[100, 100], [100, 50]]),
                                   "accidental_estimate": np.zeros((2, 2)), "total_trials": 350}),
    ("TomoDataset", lambda: {"counts": np.arange(16)}),
    ("WernerFit", lambda: {"lam": 0.9, "phase": 0.3, "residual_sum": 0.01**2 + 0.02**2,
                           "per_point_residuals": np.array([0.01, -0.02])}),
]


@pytest.mark.parametrize("name, arguments", HELD_ARRAYS, ids=[name for name, _ in HELD_ARRAYS])
def test_value_types_hold_read_only_copies_of_caller_arrays(name, arguments):
    """An edit of the caller's array after construction used to reach a value type past its checks."""
    given = arguments()
    instance = getattr(infobell, name)(**given)
    arrays = {field: value for field, value in given.items() if isinstance(value, np.ndarray)}
    held = {field: getattr(instance, field).copy() for field in arrays}
    for field, array in arrays.items():
        array.flat[0] = -5
        assert np.array_equal(getattr(instance, field), held[field]), field
        with pytest.raises(ValueError, match="read-only"):
            getattr(instance, field)[(0,) * array.ndim] = 0


def test_every_public_type_with_an_array_field_is_in_the_read_only_table():
    """A value type added with an ndarray field but without a held copy fails here. TomographyResult
    is exempt: it holds no checked invariant, and only mle_reconstruct builds it, from fresh arrays."""
    with_arrays = {name for name in infobell.__all__
                   if isinstance(obj := getattr(infobell, name), type) and dataclasses.is_dataclass(obj)
                   and any("ndarray" in str(field.type) for field in dataclasses.fields(obj))}
    assert with_arrays == {name for name, _ in HELD_ARRAYS} | {"TomographyResult"}
