import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from infobell import (
    REFERENCE_THETAS,
    DensityMatrix,
    JointDistribution,
    MeasurementSetting,
    NoiseConfig,
    QuadrilateralGeometry,
    ReactivityResult,
    ViolationCurve,
    bell_state,
    conditional_entropy,
    info_area,
    info_distance,
    info_volume,
    joint_probabilities,
    max_violation,
    metric_axioms_check,
    modified_werner,
    propagate_error,
    quadrilateral,
    reactivity,
    schumacher_settings,
    shannon_entropy,
    simulate_schumacher_run,
    simulate_sweep,
    stream_rng,
    sweep,
    violation,
)
from infobell import expsim, infogeo, states
from infobell import OPTIMAL_BELL_SETTINGS, chsh, visibility
from infobell.infogeo import golden_section_min

from conftest import random_density

# Exact-model values on the eight-angle reference grid, frozen from an
# independent high-precision evaluation of the closed-form statistics.
BELL_GRID_V = np.array([
    0.323721772, 0.415017340, 0.466872811, 0.467766295,
    0.382636808, 0.266271108, 0.134365598, -0.015856624,
])
WERNER_GRID_V = np.array([
    0.250259243, 0.326618699, 0.363578603, 0.351730463,
    0.253165794, 0.130720971, -0.004267489, -0.155780387,
])


def random_joint(rng, n_parties):
    p = rng.dirichlet(np.ones(2**n_parties)).reshape((2,) * n_parties)
    return JointDistribution(p)


dirichlet_joint = st.integers(min_value=0, max_value=2**31 - 1)


def test_shannon_entropy_known_values():
    assert shannon_entropy(np.array([0.5, 0.5])) == pytest.approx(1.0, abs=1e-12)
    assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
    assert shannon_entropy(np.full(8, 0.125)) == pytest.approx(3.0, abs=1e-12)


def test_shannon_entropy_ignores_sub_threshold_mass():
    assert shannon_entropy(np.array([1.0, 1e-16])) == 0.0
    assert shannon_entropy(np.array([1.0, 0.0])) == 0.0


@pytest.mark.parametrize("table, message", [
    ([np.nan, 0.5], "non-finite probability nan"),
    ([-np.inf, 0.5], "non-finite probability -inf"),
    ([np.inf, 0.5], "sum to inf"),
    ([3.0, 3.0], "sum to 6.0"),
    ([1.5, -0.5], "negative or non-finite probability -0.5"),
    (5.0, "5.0 needs at least one axis"),
    ([], "needs at least one axis and one entry"),
])
def test_shannon_entropy_rejects_a_bare_table_that_is_not_a_distribution(table, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        shannon_entropy(table)


def test_shannon_entropy_accepts_the_joint_distribution_tolerances():
    assert shannon_entropy([0.5 + 5e-11, 0.5, -1e-12]) == pytest.approx(1.0, abs=1e-9)
    assert shannon_entropy(JointDistribution(np.array([0.5, 0.5 + 5e-11]))) == pytest.approx(1.0, abs=1e-9)


def test_joint_and_conditional_entropy_consistency(rng):
    dist = random_joint(rng, 2)
    h_ab = shannon_entropy(dist)
    h_a = shannon_entropy(dist.marginal((0,)))
    h_b = shannon_entropy(dist.marginal((1,)))
    assert conditional_entropy(dist, given=1) == pytest.approx(h_ab - h_b, abs=1e-12)
    assert conditional_entropy(dist, given=0) == pytest.approx(h_ab - h_a, abs=1e-12)


def test_joint_entropy_bell_at_pi_over_8():
    rho = bell_state("phi+").density_matrix()
    a1, _, b1, _ = schumacher_settings(np.pi / 8)
    dist = joint_probabilities(rho, (a1, b1))
    assert shannon_entropy(dist) == pytest.approx(1.233326629, abs=1e-9)


def test_info_distance_identical_variables_is_zero():
    p = np.array([[0.3, 0.0], [0.0, 0.7]])
    assert info_distance(JointDistribution(p)) == 0.0


def test_info_distance_independent_uniform_bits():
    p = np.full((2, 2), 0.25)
    assert info_distance(JointDistribution(p)) == pytest.approx(2.0, abs=1e-12)


@given(seed=dirichlet_joint)
def test_info_distance_symmetry(seed):
    dist = random_joint(np.random.default_rng(seed), 2)
    swapped = JointDistribution(dist.probs.T)
    assert info_distance(dist) == pytest.approx(info_distance(swapped), abs=1e-12)


@given(seed=dirichlet_joint)
def test_info_distance_bounds(seed):
    dist = random_joint(np.random.default_rng(seed), 2)
    d = info_distance(dist)
    h_a = shannon_entropy(dist.marginal((0,)))
    h_b = shannon_entropy(dist.marginal((1,)))
    assert -1e-12 <= d <= h_a + h_b + 1e-12
    assert h_a + h_b <= 2.0 + 1e-12


@given(seed=dirichlet_joint)
def test_classical_triangle_inequality(seed):
    """Pairwise distances from one classical 3-party joint always form a metric."""
    dist = random_joint(np.random.default_rng(seed), 3)
    report = metric_axioms_check(dist)
    assert report.ok
    assert report.max_triangle_excess <= 1e-9
    assert report.max_symmetry_residual <= 1e-12
    assert report.min_distance >= -1e-12


def _reference_info_distances(p):
    """The per-marginal formula that the cell-wise pass replaced."""
    d = 2.0 * infogeo._entropies(p, 2) - infogeo._entropies(p.sum(axis=-1), 1) - infogeo._entropies(p.sum(axis=-2), 1)
    return np.maximum(0.0, d)


def _two_party_bank(seed):
    """Seeded (..., 2, 2) tables, sparse and dense, with exact zeros, entries below the 1e-15
    cutoff, deterministic, perfectly correlated and uniform rows."""
    rng = np.random.default_rng(seed)
    bank = np.concatenate([rng.dirichlet(np.full(4, alpha), size=600) for alpha in (0.05, 0.5, 2.0)])
    bank[::5, 0] = 0.0
    bank[1::5, -1] = 4e-16
    bank[2::5, 1:3] = 1e-17
    bank = bank / bank.sum(axis=-1, keepdims=True)
    bank[:3] = [[1.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.5], [0.25, 0.25, 0.25, 0.25]]
    return bank.reshape(-1, 2, 2)


def test_info_distances_match_the_per_marginal_formula_bit_for_bit():
    tables = _two_party_bank(21)
    for p in (tables, tables[::3], np.swapaxes(tables, -1, -2), tables.reshape(-1, 4, 2, 2)[:, ::2],
              tables.reshape(30, -1, 2, 2).transpose(1, 0, 2, 3), tables[7], tables[:0], tables[:0].reshape(0, 5, 2, 2)):
        got, expected = infogeo._info_distances(p), _reference_info_distances(p)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert [info_distance(JointDistribution(p)) for p in tables[:60]] == [
        float(_reference_info_distances(p)) for p in tables[:60]]


def test_each_state_computes_its_pauli_coefficients_once(monkeypatch):
    calls = []
    original = states._pauli_coefficients
    monkeypatch.setattr(states, "_pauli_coefficients", lambda matrix: calls.append(matrix) or original(matrix))
    rho = random_density(np.random.default_rng(5))
    max_violation(rho, step=2.5e-3)
    quadrilateral(rho, np.pi / 8)
    chsh(rho, *OPTIMAL_BELL_SETTINGS)
    visibility(rho, "HV")
    visibility(rho, "DA")
    assert len(calls) == 1
    twin = DensityMatrix(2, rho.matrix)
    assert quadrilateral(twin, np.pi / 8) == quadrilateral(rho, np.pi / 8)
    assert len(calls) == 2 and twin.pauli_coefficients is not rho.pauli_coefficients
    assert np.array_equal(twin.pauli_coefficients, states._pauli_coefficients(rho.matrix))
    assert not rho.pauli_coefficients.flags.writeable


def test_import_computes_no_pauli_coefficients():
    code = ("import sys\ncalls = []\n"
            "sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_name)"
            " if event == 'call' and frame.f_code.co_name == '_pauli_coefficients' else None)\n"
            "import infobell\nsys.setprofile(None)\nprint(len(calls))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "0"


def test_schumacher_settings_layout():
    a1, a2, b1, b2 = schumacher_settings(0.3)
    assert (a1.stokes_angle, a2.stokes_angle) == (0.0, 0.6)
    assert (b1.stokes_angle, b2.stokes_angle) == (0.3, pytest.approx(0.9))
    shifted = schumacher_settings(0.3, offset=0.1)
    assert shifted[0].stokes_angle == pytest.approx(0.1)
    assert shifted[3].stokes_angle == pytest.approx(1.0)


@pytest.mark.parametrize("offset", [0.0, 0.1, -0.25])
@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 8, 0.5])
def test_edge_table_pairs_the_schumacher_settings(theta, offset):
    """Edge k of _edge_angles measures the settings named by EDGE_NAMES[k]."""
    a1, a2, b1, b2 = (s.stokes_angle for s in schumacher_settings(theta, offset))
    settings = {"a1": a1, "a2": a2, "b1": b1, "b2": b2}
    pairs = [(settings[edge[:2]], settings[edge[2:]]) for edge in infogeo.EDGE_NAMES]
    assert_allclose(infogeo._edge_angles(theta, offset), pairs, rtol=0.0, atol=1e-15)


def test_quadrilateral_fields_follow_edge_names():
    names = [field.name for field in dataclasses.fields(QuadrilateralGeometry)]
    assert names == [f"{prefix}_{edge}" for prefix in ("d", "dd") for edge in infogeo.EDGE_NAMES]


def test_quadrilateral_bell_golden_values():
    quad = quadrilateral(bell_state("phi+").density_matrix(), np.pi / 8)
    assert_allclose(quad.sides, [0.466653257] * 3, atol=1e-9)
    assert quad.base == pytest.approx(1.783237204, abs=1e-9)
    assert quad.violation == pytest.approx(0.383277432, abs=1e-9)
    assert quad.uncertainties is None
    assert quad.violation_uncertainty is None


def test_sweep_bell_grid_golden():
    curve = sweep(bell_state("phi+").density_matrix(), REFERENCE_THETAS)
    assert_allclose(curve.v, BELL_GRID_V, atol=1e-9)
    assert curve.dv is None


def test_sweep_werner_grid_golden():
    curve = sweep(modified_werner(0.998, 0.225), REFERENCE_THETAS)
    assert_allclose(curve.v, WERNER_GRID_V, atol=1e-9)


def test_violation_offset_invariance_phase_zero_werner():
    rho = modified_werner(0.9, 0.0)
    base = violation(rho, 0.35)
    for offset in (0.1, 0.5, 1.0):
        assert violation(rho, 0.35, offset=offset) == pytest.approx(base, abs=1e-9)


def test_violation_curve_validation():
    with pytest.raises(ValueError):
        ViolationCurve(np.array([0.2, 0.1]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        ViolationCurve(np.array([0.1, 0.2]), np.array([0.0]))
    with pytest.raises(ValueError):
        ViolationCurve(np.array([0.1, 0.2]), np.zeros(2), np.array([0.1, -0.1]))
    with pytest.raises(ValueError):
        ViolationCurve(np.array([0.1, 0.2]), np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        ViolationCurve(np.array([0.1, 0.2]), np.zeros(2), np.array([0.1, np.nan]))
    with pytest.raises(ValueError):
        ViolationCurve(np.array([0.1, 0.2]), np.zeros(2), np.array([0.1, np.inf]))


def test_violation_curve_holds_read_only_copies():
    """An edit of the caller's arrays after construction cannot reach the checked curve."""
    thetas, v, dv = np.array([0.1, 0.2]), np.array([0.3, 0.4]), np.array([0.01, 0.02])
    curve = ViolationCurve(thetas, v, dv)
    thetas[0], v[0], dv[0] = 0.5, np.nan, -1.0
    assert list(curve) == [(0.1, 0.3, 0.01), (0.2, 0.4, 0.02)]
    for held in (curve.thetas, curve.v, curve.dv):
        assert not held.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            held[0] = np.nan


def test_quadrilateral_geometry_rejects_non_finite_uncertainties():
    fields = ("dd_a1b1", "dd_a2b1", "dd_a2b2", "dd_a1b2")
    for name in fields:
        for bad, message in ((float("nan"), "nan is not finite"), (float("inf"), "inf is not finite"),
                             (-1e-3, "-0.001 must be at least 0")):
            dds = {field: bad if field == name else 0.01 for field in fields}
            with pytest.raises(ValueError, match=f"^{name} = {message}$"):
                QuadrilateralGeometry(0.1, 0.1, 0.1, 0.5, **dds)
    assert QuadrilateralGeometry(0.1, 0.1, 0.1, 0.5, 0.0, 0.0, 0.0, 0.0).violation_uncertainty == 0.0


def test_quadrilateral_geometry_holds_python_floats():
    """A float32 distance used to be kept, so the violation came out a float32."""
    quad = QuadrilateralGeometry(np.float32(0.5), 0, np.int64(0), 2, dd_a1b1=np.float32(0.25), dd_a1b2=1)
    assert [type(d) for d in quad.edges] == [float] * 4
    assert type(quad.violation) is float and quad.violation == 1.5
    assert (type(quad.dd_a1b1), type(quad.dd_a1b2), quad.dd_a2b1) == (float, float, None)


# The edge fields of one valid QuadrilateralGeometry.
QUAD_FIELDS = {"d_a1b1": 0.1, "d_a2b1": 0.1, "d_a2b2": 0.1, "d_a1b2": 0.5,
               "dd_a1b1": 0.01, "dd_a2b1": 0.01, "dd_a2b2": 0.01, "dd_a1b2": 0.01}


def _never(t):
    pytest.fail("golden_section_min called f before checking its arguments")


# Each public real-number input, entered with one argument replaced: the bare angles
# first, then the scan bounds and tolerances, the state parameters and the float fields.
ANGLE_ENTRY_POINTS = [
    pytest.param("theta", lambda rho, bad: quadrilateral(rho, bad), id="quadrilateral-theta"),
    pytest.param("offset", lambda rho, bad: quadrilateral(rho, 0.3, bad), id="quadrilateral-offset"),
    pytest.param("theta", lambda rho, bad: violation(rho, bad), id="violation-theta"),
    pytest.param("offset", lambda rho, bad: violation(rho, 0.3, offset=bad), id="violation-offset"),
    pytest.param("thetas", lambda rho, bad: sweep(rho, [0.1, bad]), id="sweep-thetas"),
    pytest.param("lo", lambda rho, bad: max_violation(rho, lo=bad), id="max_violation-lo"),
    pytest.param("hi", lambda rho, bad: max_violation(rho, hi=bad), id="max_violation-hi"),
    pytest.param("step", lambda rho, bad: max_violation(rho, step=bad), id="max_violation-step"),
    pytest.param("theta", lambda rho, bad: propagate_error(rho, bad, 350, NoiseConfig()),
                 id="propagate_error-theta"),
    pytest.param("theta", lambda rho, bad: simulate_schumacher_run(rho, bad, 350, NoiseConfig()),
                 id="simulate_schumacher_run-theta"),
    pytest.param("thetas", lambda rho, bad: simulate_sweep(rho, [0.1, bad], 350, NoiseConfig()),
                 id="simulate_sweep-thetas"),
    pytest.param("tol", lambda rho, bad: max_violation(rho, tol=bad), id="max_violation-tol"),
    pytest.param("theta", lambda rho, bad: schumacher_settings(bad), id="schumacher_settings-theta"),
    pytest.param("offset", lambda rho, bad: schumacher_settings(0.3, bad), id="schumacher_settings-offset"),
    pytest.param("lo", lambda rho, bad: golden_section_min(_never, bad, 1.0), id="golden_section_min-lo"),
    pytest.param("hi", lambda rho, bad: golden_section_min(_never, 0.0, bad), id="golden_section_min-hi"),
    pytest.param("tol", lambda rho, bad: golden_section_min(_never, 0.0, 1.0, bad), id="golden_section_min-tol"),
    pytest.param("stokes_angle", lambda rho, bad: MeasurementSetting(bad), id="MeasurementSetting-stokes_angle"),
    pytest.param("lam", lambda rho, bad: modified_werner(bad, 0.0), id="modified_werner-lam"),
    pytest.param("phase", lambda rho, bad: modified_werner(0.9, bad), id="modified_werner-phase"),
    pytest.param("accidental_mean", lambda rho, bad: NoiseConfig(accidental_mean=bad),
                 id="NoiseConfig-accidental_mean"),
    pytest.param("angle_sigma", lambda rho, bad: NoiseConfig(angle_sigma=bad), id="NoiseConfig-angle_sigma"),
    *(pytest.param(field, lambda rho, bad, field=field: QuadrilateralGeometry(**{**QUAD_FIELDS, field: bad}),
                   id=f"QuadrilateralGeometry-{field}") for field in QUAD_FIELDS),
    pytest.param("mean_area", lambda rho, bad: ReactivityResult(bad, 1.0, 1.0, 1, 0), id="ReactivityResult-mean_area"),
    pytest.param("mean_volume", lambda rho, bad: ReactivityResult(1.0, bad, 1.0, 1, 0),
                 id="ReactivityResult-mean_volume"),
    pytest.param("reactivity", lambda rho, bad: ReactivityResult(1.0, 1.0, bad, 1, 0),
                 id="ReactivityResult-reactivity"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, enter", ANGLE_ENTRY_POINTS)
def test_non_finite_angles_are_rejected_where_they_enter(monkeypatch, name, enter):
    """A NaN or infinite real input raises a ValueError naming its argument, and a bool or a
    string a TypeError naming it, before any Born-rule work."""
    rho = bell_state("phi+").density_matrix()
    for module, kernel in ((infogeo, "_born_tables"), (infogeo, "_row_tables"), (expsim, "_born_tables")):
        monkeypatch.setattr(module, kernel, lambda *args: pytest.fail("an angle was not checked first"))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"^{name} = .* is not finite$"):
            enter(rho, bad)
    for bad in (True, "0.3"):
        with pytest.raises(TypeError, match=f"^{name} = {bad!r} is not a real number$"):
            enter(rho, bad)


def test_violation_curve_iteration():
    curve = ViolationCurve(np.array([0.1, 0.2]), np.array([0.3, 0.4]))
    points = list(curve)
    assert len(curve) == 2
    assert points[0] == (0.1, 0.3, None)
    with_dv = ViolationCurve(np.array([0.1]), np.array([0.3]), np.array([0.05]))
    assert list(with_dv)[0] == (0.1, 0.3, 0.05)


# Each scan argument that no scan can take, with the argument its error must name.
BAD_SCANS = [
    pytest.param("step", {"step": 0.0}, id="step-zero"),
    pytest.param("step", {"step": -0.1}, id="step-negative"),
    pytest.param("hi", {"lo": 0.6, "hi": 0.1}, id="hi-below-lo"),
    pytest.param("tol", {"tol": 0.0}, id="tol-zero"),
    pytest.param("tol", {"tol": -1.0}, id="tol-negative"),
    pytest.param("tol", {"tol": float("nan")}, id="tol-nan"),
    pytest.param("tol", {"tol": float("inf")}, id="tol-inf"),
]


@pytest.mark.parametrize("name, bad", BAD_SCANS)
def test_max_violation_rejects_a_scan_that_is_not_a_scan(monkeypatch, name, bad):
    """Bad scan arguments raise a ValueError naming the argument, before any Born-rule work."""
    rho = bell_state("phi+").density_matrix()
    monkeypatch.setattr(infogeo, "_violations", lambda *args: pytest.fail("a scan was not checked first"))
    with pytest.raises(ValueError, match=f"^{name} = "):
        max_violation(rho, **bad)


def test_max_violation_of_a_one_point_scan():
    rho = bell_state("phi+").density_matrix()
    assert max_violation(rho, lo=0.3, hi=0.3) == (0.3, violation(rho, 0.3))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_golden_section_min_rejects_a_tolerance_it_cannot_reach(tol):
    def f(t):
        pytest.fail("tol was not checked first")

    message = "must be positive" if np.isfinite(tol) else "is not finite"
    with pytest.raises(ValueError, match=f"^tol = {tol} {message}$"):
        golden_section_min(f, 0.0, 1.0, tol)


def test_golden_section_min_quadratic():
    x = golden_section_min(lambda t: (t - 1.3) ** 2, 0.0, 2.0, 1e-10)
    assert x == pytest.approx(1.3, abs=1e-8)


def test_max_violation_bell():
    """Continuous peak of the ideal-state violation curve."""
    theta_star, v_star = max_violation(bell_state("phi+").density_matrix())
    assert theta_star == pytest.approx(0.3046836, abs=1e-4)
    assert v_star == pytest.approx(0.473765203, abs=1e-6)


@pytest.mark.parametrize("kind, lo, hi", [("phi-", 0.1, 0.6), ("phi+", 0.1, 0.25)])
def test_max_violation_at_scan_edge_beats_every_grid_point(kind, lo, hi):
    """A peak on a scan bound is reported inside the scan and never below the grid."""
    rho = bell_state(kind).density_matrix()
    step = 2.5e-3
    grid = np.minimum(np.arange(lo, hi + step / 2.0, step), hi)
    theta_star, v_star = max_violation(rho, lo, hi, step=step)
    assert lo <= theta_star <= hi
    assert v_star >= sweep(rho, grid).v.max()
    assert v_star == pytest.approx(violation(rho, theta_star), abs=1e-15)


# Bracket arguments golden_section_min cannot search, with the argument its error must name.
BAD_BRACKETS = [
    pytest.param("hi", 1.0, 0.0, id="reversed"),
    pytest.param("lo", float("nan"), 1.0, id="lo-nan"),
    pytest.param("hi", 0.0, float("nan"), id="hi-nan"),
    pytest.param("lo", -float("inf"), 1.0, id="lo-inf"),
    pytest.param("hi", 0.0, float("inf"), id="hi-inf"),
]


@pytest.mark.parametrize("name, lo, hi", BAD_BRACKETS)
def test_golden_section_min_rejects_a_bracket_before_calling_f(name, lo, hi):
    def f(t):
        pytest.fail("the bracket was not checked first")

    with pytest.raises(ValueError, match=f"^{name} = "):
        golden_section_min(f, lo, hi)


def test_searches_stop_once_the_bracket_stops_shrinking(monkeypatch):
    """A tol below one ulp of theta ends the search instead of looping forever."""
    calls = []

    def f(t):
        calls.append(t)
        if len(calls) > 10_000:
            pytest.fail("golden_section_min did not stop")
        return (t - 0.3) ** 2

    assert golden_section_min(f, 0.0, 1.0, 1e-300) == pytest.approx(0.3, abs=1e-15)
    violations = infogeo._violations
    calls.clear()

    def counted(rho, theta, *rows):
        calls.append(theta)
        if len(calls) > 1_000:
            pytest.fail("max_violation did not stop")
        return violations(rho, theta, *rows)

    monkeypatch.setattr(infogeo, "_violations", counted)
    theta_star, _ = max_violation(bell_state("phi+").density_matrix(), step=2.5e-3, tol=1e-300)
    assert theta_star == pytest.approx(0.3046835, abs=1e-6)


def _refinement_bank():
    """The four Bell states, 20 modified Werner states and 20 Ginibre mixed states."""
    rng = np.random.default_rng(1515)
    bank = [bell_state(kind).density_matrix() for kind in ("phi+", "phi-", "psi+", "psi-")]
    bank += [modified_werner(lam, phase) for lam, phase in rng.uniform((0.0, 0.0), (1.0, np.pi), (20, 2))]
    bank += [random_density(rng) for _ in range(20)]
    return bank


# The exact phi+ peak, from the closed form V = D(3 theta) - 3 D(theta), D(x) = 2 h2(cos^2(x / 2)).
PHI_PLUS_PEAK = 0.30468350878


def _reference_argmax(rho, lo=0.1, hi=0.6, step=5e-5):
    """Argmax of V by a scan of spacing 5e-5 and a golden-section search to 1e-12 about its best point."""
    grid = np.minimum(np.arange(lo, hi + step / 2.0, step), hi)
    i = int(np.argmax(sweep(rho, grid).v))
    t = golden_section_min(lambda t: -violation(rho, t), grid[max(0, i - 1)], grid[min(grid.size - 1, i + 1)],
                           1e-12)
    return t if violation(rho, t) >= violation(rho, grid[i]) else grid[i]


def test_max_violation_refines_to_the_peak_on_a_seeded_bank():
    """v* is an evaluated value, never below the scan, and theta* is within tol of the argmax."""
    tol = 1e-6
    for rho in _refinement_bank():
        reference = _reference_argmax(rho)
        for step in (2.5e-3, 1e-4):
            grid = np.minimum(np.arange(0.1, 0.6 + step / 2.0, step), 0.6)
            theta_star, v_star = max_violation(rho, step=step, tol=tol)
            assert v_star >= sweep(rho, grid).v.max()
            assert v_star == pytest.approx(violation(rho, theta_star), abs=1e-15)
            assert abs(theta_star - reference) <= tol


def test_max_violation_settles_a_bound_peak_after_one_round(monkeypatch):
    """A scan whose best grid point is lo or hi costs two _violations calls, the scan and one
    round, and returns that bound, within tol of the argmax."""
    violations, scans, tol, bound_peaks = infogeo._violations, [], 1e-6, 0

    def recorded(rho, theta, *rows):
        scans.append(violations(rho, theta, *rows))
        return scans[-1]

    for rho in _refinement_bank():
        reference = _reference_argmax(rho)
        for step in (2.5e-3, 1e-4):
            scans.clear()
            with monkeypatch.context() as patch:
                patch.setattr(infogeo, "_violations", recorded)
                theta_star, v_star = max_violation(rho, step=step, tol=tol)
            if int(np.argmax(scans[0])) in (0, scans[0].size - 1):
                bound_peaks += 1
                assert len(scans) == 2 and theta_star in (0.1, 0.6) and v_star == scans[0].max()
                assert abs(theta_star - reference) <= tol
    assert bound_peaks == 62


@pytest.mark.parametrize("lo, hi", [(0.1, 0.305), (0.3045, 0.6), (0.1, PHI_PLUS_PEAK + 2e-5),
                                    (PHI_PLUS_PEAK - 2e-5, 0.6)])
def test_max_violation_refines_a_peak_just_inside_a_bound(monkeypatch, lo, hi):
    """A peak inside the scan refines as any interior peak does, even where V falls away from the
    bound across the first round: 2e-5 inside the bound is under half that round's spacing."""
    violations, calls = infogeo._violations, []
    monkeypatch.setattr(infogeo, "_violations", lambda *args: calls.append(1) or violations(*args))
    theta_star, _ = max_violation(bell_state("phi+").density_matrix(), lo, hi, step=2.5e-3)
    assert len(calls) == 6
    assert abs(theta_star - PHI_PLUS_PEAK) <= 1e-6


@pytest.mark.parametrize("lo, hi, step", [(0.1, 0.3047, 10.0), (0.1, 0.3047, 0.1), (0.3046, 0.6, 10.0)])
def test_max_violation_refines_a_bound_peak_on_a_coarse_scan(lo, hi, step):
    """At step 10 over [0.1, 0.3047] the grid is the two bounds and the first round's spacing is
    0.012. The parabola's slope at the bound is then off by more than V's slope 3.6e-4 there, and
    settling returned the bound, 1.6e-5 from the peak and 2.9e-9 below its V."""
    rho = bell_state("phi+").density_matrix()
    theta_star, v_star = max_violation(rho, lo, hi, step=step)
    assert abs(theta_star - PHI_PLUS_PEAK) <= 1e-6
    assert v_star > violation(rho, lo) and v_star > violation(rho, hi)


@pytest.mark.parametrize("step", [0.07, 0.1, 0.004, 10.0])
def test_max_violation_scan_grid_ends_at_hi(step):
    """V of phi+ rises across [0.1, 0.25], so the scan returns hi at any step, also where hi - lo
    is no multiple of it: a grid that stopped short returned (0.2, 0.3716) at step 0.1."""
    rho = bell_state("phi+").density_matrix()
    theta_star, v_star = max_violation(rho, 0.1, 0.25, step=step)
    assert theta_star == 0.25
    assert v_star == pytest.approx(violation(rho, 0.25), abs=1e-15)


@pytest.mark.parametrize("lo, hi, step, size", [(0.1, 0.25, 0.1, 3), (0.1, 0.25, 10.0, 2), (0.49, 0.99, 0.1, 6),
                                                (0.3, 0.3, 0.1, 1)])
def test_scan_grid_ends_at_hi_without_a_sliver(lo, hi, step, size):
    """The grid steps from lo and ends at hi; at (0.49, 0.99, 0.1) arange's last point falls 1.1e-16
    short of hi and becomes hi, rather than leaving an interval that V's round-off would resolve."""
    grid = infogeo._scan_grid(lo, hi, step)[0]
    assert (grid.size, grid[0], grid[-1]) == (size, lo, hi)
    assert np.all(np.diff(grid) > 1e-6 * step)


def test_max_violation_refines_in_a_few_batched_calls(monkeypatch):
    violations, calls = infogeo._violations, []

    def counted(rho, theta, *rows):
        calls.append(np.size(theta))
        return violations(rho, theta, *rows)

    monkeypatch.setattr(infogeo, "_violations", counted)
    for rho in _refinement_bank():
        calls.clear()
        max_violation(rho, step=2.5e-3, tol=1e-6)
        assert len(calls) <= 8


def test_max_violation_scans_read_only_cached_grid_rows(monkeypatch):
    """The scan's values are _violations(rho, grid) bit for bit, and a second scan of a grid rebuilds nothing."""
    violations, polarizer_rows, scans, builds = infogeo._violations, infogeo._polarizer_rows, [], []

    def recorded(rho, theta, *rows):
        values = violations(rho, theta, *rows)
        if rows:
            scans.append((theta, rows[0], values))
        return values

    monkeypatch.setattr(infogeo, "_violations", recorded)
    monkeypatch.setattr(infogeo, "_polarizer_rows", lambda stokes: builds.append(1) or polarizer_rows(stokes))
    for step in (2.5e-3, 1e-4):
        infogeo._scan_grid.cache_clear()
        builds.clear()
        for rho in _refinement_bank():
            max_violation(rho, step=step)
            grid, rows, values = scans.pop()
            assert np.array_equal(grid, np.minimum(np.arange(0.1, 0.6 + step / 2.0, step), 0.6))
            assert not grid.flags.writeable and not rows.flags.writeable
            assert np.array_equal(values, violations(rho, grid))
        assert (infogeo._scan_grid.cache_info().misses, infogeo._scan_grid.cache_info().currsize) == (1, 1)
        assert builds == [1] and not scans


def test_max_violation_bell_lands_on_the_peak():
    """theta* is within 1e-8 of the exact peak.

    The exact peak, 0.30468350878 from the closed form
    V = D(3 theta) - 3 D(theta) with D(x) = 2 h2(cos^2(x / 2)), lies 8.8e-9
    above the six-digit rounding boundary 0.3046835, so a theta* that
    errs low by more than that prints 0.304683 instead of 0.304684.
    """
    theta_star, _ = max_violation(bell_state("phi+").density_matrix())
    assert theta_star == pytest.approx(0.3046835, abs=1e-8)


def test_max_violation_below_resolvable_spacing_leaves_the_peak_to_the_vertex():
    """A tol far below V's resolution is no less accurate than the default 1e-6.

    Rounds finer than 2**-25 would let V's round-off pick the best point;
    on phi+ they once moved theta* from 5e-10 to 3.5e-9 off the exact
    peak 0.30468350878 at tol 1e-10.
    """
    rho = bell_state("phi+").density_matrix()
    default_miss = abs(max_violation(rho, tol=1e-6)[0] - PHI_PLUS_PEAK)
    for tol in (1e-8, 1e-10, 1e-300):
        assert abs(max_violation(rho, tol=tol)[0] - PHI_PLUS_PEAK) <= default_miss


def test_max_violation_spacing_floor_leaves_coarser_tolerances_alone(monkeypatch):
    """For tol >= 17 * 2**-25 every round is coarser than the floor, so
    (theta*, v*) are bit for bit those of the rounds without it."""
    bank = _refinement_bank()
    for tol in (1e-6, 17 * 2.0**-25):
        with_floor = [max_violation(rho, step=step, tol=tol) for rho in bank for step in (2.5e-3, 1e-4)]
        monkeypatch.setattr(infogeo, "_MIN_SPACING", 0.0)
        without = [max_violation(rho, step=step, tol=tol) for rho in bank for step in (2.5e-3, 1e-4)]
        monkeypatch.undo()
        assert with_floor == without


def test_info_area_and_volume_permutation_invariance(rng):
    dist3 = random_joint(rng, 3)
    area = info_area(dist3)
    for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
        permuted = JointDistribution(np.transpose(dist3.probs, perm))
        assert info_area(permuted) == pytest.approx(area, abs=1e-12)
    dist4 = random_joint(rng, 4)
    volume = info_volume(dist4)
    for perm in ((3, 2, 1, 0), (1, 0, 3, 2), (2, 0, 3, 1)):
        permuted = JointDistribution(np.transpose(dist4.probs, perm))
        assert info_volume(permuted) == pytest.approx(volume, abs=1e-12)


def test_info_area_requires_three_parties(rng):
    with pytest.raises(ValueError):
        info_area(random_joint(rng, 2))
    with pytest.raises(ValueError):
        info_volume(random_joint(rng, 3))


def test_stream_rng_determinism_and_separation():
    a = stream_rng(5, 1, 2).standard_normal(4)
    b = stream_rng(5, 1, 2).standard_normal(4)
    c = stream_rng(5, 1, 3).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# Seeds of one, two and three 32-bit words, as SeedSequence splits them.
KEY_SEEDS = (0, 2**31 - 1, 2**32, 2**64 + 3, 10**23)


# Index shapes of the batched draws: one key per index, in C order.
KEY_SHAPES = ((), (0,), (2, 0), (6,), (3, 4), (2, 3, 2))


def _seed_sequence_reference(seed, prefix, shape):
    """SeedSequence's keys of the streams (seed, *prefix, *index), one per index of shape in C order."""
    return np.reshape([np.random.SeedSequence((seed, *prefix, *index)).generate_state(2, np.uint64)
                       for index in np.ndindex(shape)], shape + (2,))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", KEY_SEEDS)
@pytest.mark.parametrize("n_entries", [0, 1, 2, 3, 4, 7, 8, 9])
def test_stream_keys_match_seed_sequence(seed, n_entries):
    """Keys of a prefix of n_entries entries, over empty, 1-d, 2-d and 3-d index shapes.

    More than four words of entropy (a big seed with a prefix and an index, or
    7 to 9 entries) run SeedSequence's extra mixing loop, 8 and 9 entries at
    least twice; the 32-bit hash wraps without a RuntimeWarning.
    """
    prefix = tuple(np.random.default_rng([n_entries, 5]).integers(0, 1000, size=n_entries).tolist())
    for shape in KEY_SHAPES:
        keys = infogeo._stream_keys(seed, [prefix], shape)[0]
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, _seed_sequence_reference(seed, prefix, shape))


def test_stream_keys_of_entries_of_several_words():
    """Seeds and prefix entries of one to three 32-bit words hash with all their words."""
    prefixes = [(0, 2**32), (5, 3), (2**40, 1), (2**63 - 1, 0), (2**70, 2), (3, 10**23), (2**33,)]
    for seed in (9, 2**32, 10**23):
        for prefix in prefixes:
            for shape in ((), (4,), (2, 3)):
                assert np.array_equal(infogeo._stream_keys(seed, [prefix], shape)[0],
                                      _seed_sequence_reference(seed, prefix, shape))
    assert infogeo._stream_keys(9, [(2**70,)], (2, 0)).shape == (1, 2, 0, 2)


def test_stream_keys_of_several_prefixes_in_one_pass(monkeypatch):
    """Prefixes of equal word counts share one hash pass; block j holds the keys of prefix j."""
    passes = []
    seed_sequence_keys = infogeo._seed_sequence_keys
    monkeypatch.setattr(infogeo, "_seed_sequence_keys", lambda words: passes.append(1) or seed_sequence_keys(words))
    for seed in (0, 2**40):
        for prefixes, shape in (([(0,), (1,)], (3, 4)), ([(0, 2**33), (1, 2**40), (7, 2**35)], (2,)),
                                ([(0, 1, 2, 3, 4), (1, 1, 2, 3, 4)], ()), ([(4,), (9,)], (2, 0))):
            keys = infogeo._stream_keys(seed, prefixes, shape)
            assert keys.shape == (len(prefixes), *shape, 2)
            for block, prefix in zip(keys, prefixes):
                assert np.array_equal(block, _seed_sequence_reference(seed, prefix, shape))
    assert len(passes) == 8


@pytest.mark.filterwarnings("error")
def test_seed_sequence_keys_of_all_ones_words_and_of_no_rows():
    """Words of 2**32 - 1 hash as SeedSequence hashes them, in any position; m = 0 gives no keys."""
    rng = np.random.default_rng(17)
    for n_words in (4, 5, 8, 9, 12):
        for m in (0, 1, 6):
            words = rng.integers(0, 2**32, size=(n_words, m), dtype=np.uint32)
            words[rng.random((n_words, m)) < 0.4] = 2**32 - 1
            if m:
                words[:, 0] = 2**32 - 1
            keys = infogeo._seed_sequence_keys(words)
            assert keys.shape == (m, 2) and keys.dtype == np.uint64
            reference = [np.random.SeedSequence(column.tolist()).generate_state(2, np.uint64)
                         for column in words.T]
            assert np.array_equal(keys, np.reshape(reference, (m, 2)))
    for n_entries in (0, 1, 3, 4, 8, 9):
        prefix = (2**32 - 1,) * n_entries
        for shape in ((0,), (3,), (2, 2)):
            assert np.array_equal(infogeo._stream_keys(2**64 - 1, [prefix], shape)[0],
                                  _seed_sequence_reference(2**64 - 1, prefix, shape))


# Draws that leave a Philox stream mid-block or holding a buffered 32-bit half.
PARTIAL_DRAWS = [
    lambda rng: None,
    lambda rng: rng.integers(2**32, dtype=np.uint32),
    lambda rng: rng.random(dtype=np.float32),
    lambda rng: rng.standard_normal(3),
    lambda rng: rng.integers(2**32, dtype=np.uint32, size=5),
]


@pytest.mark.parametrize("partial", PARTIAL_DRAWS)
def test_streams_reset_every_field_of_the_state_between_keys(partial):
    """A stream left mid-block or with a buffered half does not leak into the next one."""
    shape = (3,)
    for index, rng in zip(np.ndindex(shape), infogeo._streams(infogeo._stream_keys(11, [(2,)], shape))):
        reference = stream_rng(11, 2, *index)
        assert rng.integers(2**32, dtype=np.uint32) == reference.integers(2**32, dtype=np.uint32)
        assert np.array_equal(rng.random(5), reference.random(5))
        assert rng.random(dtype=np.float32) == reference.random(dtype=np.float32)
        partial(rng)


def test_streams_draw_what_stream_rng_draws():
    for seed in (0, 4, 10**23):
        for prefix, shape in (((0,), (3, 4)), ((1, 2**33), (2,)), ((), (5,)), ((1, 7), ()), ((1,), (2, 0))):
            indices = list(np.ndindex(shape))
            tables = np.random.default_rng(3).dirichlet(np.ones(4), size=len(indices))
            keys = infogeo._stream_keys(seed, [prefix], shape)
            assert sum(1 for _ in infogeo._streams(keys)) == len(indices)
            for index, table, rng in zip(indices, tables, infogeo._streams(keys)):
                reference = stream_rng(seed, *prefix, *index)
                assert np.array_equal(rng.standard_normal((4, 4)), reference.standard_normal((4, 4)))
                assert np.array_equal(rng.multinomial(350, table), reference.multinomial(350, table))
                assert np.array_equal(rng.poisson(6.0, size=(2, 2)), reference.poisson(6.0, size=(2, 2)))


# The public entry points that take a seed, called with (seed, stream entry).
# reactivity takes no stream, so it ignores the entry.
KEYED_ENTRY_POINTS = [
    lambda seed, entry: stream_rng(seed, 1, entry),
    lambda seed, entry: simulate_schumacher_run(
        bell_state("phi+").density_matrix(), 0.3, 10, NoiseConfig(seed=seed), stream=(1, entry)),
    lambda seed, entry: reactivity(modified_werner(0.5, 0.0, n_qubits=4), 1, seed),
]


@pytest.mark.parametrize("make_key", KEYED_ENTRY_POINTS)
def test_stream_key_entries_are_non_negative_integers(make_key):
    with pytest.raises(ValueError, match=r"seed = -1 must be at least 0"):
        make_key(-1, 2)
    with pytest.raises(TypeError, match=r"seed = 5\.0 is not an integer"):
        make_key(5.0, 2)
    with pytest.raises(TypeError, match=r"^stream key entry seed = True is not an integer$"):
        make_key(True, 2)
    if make_key is KEYED_ENTRY_POINTS[2]:
        return
    with pytest.raises(ValueError, match=r"\[1\] = -3 must be at least 0"):
        make_key(5, -3)
    with pytest.raises(TypeError, match=r"\[1\] = .*1\.5.* is not an integer"):
        make_key(5, 1.5)
    with pytest.raises(TypeError, match=r"^stream key entry stream\[1\] = False is not an integer$"):
        make_key(5, False)


def test_sweep_of_no_angles_is_an_empty_curve():
    curve = sweep(bell_state("phi+").density_matrix(), [])
    assert len(curve) == 0
    assert curve.thetas.shape == curve.v.shape == (0,)


def test_reactivity_maximally_mixed_any_seed():
    mixed = DensityMatrix(4, np.eye(16) / 16)
    for seed, n in ((0, 50), (99, 200)):
        result = reactivity(mixed, n, seed)
        assert result.mean_area == pytest.approx(3.0, abs=1e-12)
        assert result.mean_volume == pytest.approx(4.0, abs=1e-12)
        assert result.reactivity == pytest.approx(0.75, abs=1e-12)


def test_reactivity_deterministic_per_seed():
    rho = modified_werner(0.5, 0.0, n_qubits=4)
    r1 = reactivity(rho, 60, 11)
    r2 = reactivity(rho, 60, 11)
    assert r1.mean_area == r2.mean_area
    assert r1.mean_volume == r2.mean_volume
    assert r1.reactivity == r2.reactivity


# Seeded reactivity ratios frozen at the scalar per-sample implementation;
# they pin the counter-keyed sample streams, not just determinism.
REACTIVITY_SEED7_GOLDEN = {
    0.2: 0.76718550753267,
    0.4: 0.8174912301246774,
    0.6: 0.9101189139689086,
    0.8: 1.0749170898553728,
}


@pytest.mark.parametrize("lam", sorted(REACTIVITY_SEED7_GOLDEN))
def test_reactivity_seeded_golden(lam):
    result = reactivity(modified_werner(lam, 0.0, n_qubits=4), 2000, 7)
    assert result.reactivity == pytest.approx(REACTIVITY_SEED7_GOLDEN[lam], abs=1e-12)


def test_reactivity_result_json_keys():
    rho = modified_werner(0.3, 0.0, n_qubits=4)
    payload = reactivity(rho, 40, 2).to_json_dict()
    assert set(payload) == {
        "mean_area", "mean_volume", "reactivity", "n_samples", "seed", "volume_degenerate",
    }


def test_reactivity_result_validates_ratio():
    with pytest.raises(ValueError):
        ReactivityResult(
            mean_area=3.0, mean_volume=4.0, reactivity=0.9, n_samples=10, seed=0
        )


@pytest.mark.parametrize("fields, message", [
    ((np.nan, np.nan, np.nan, 1, 0), "mean_area = nan"),
    ((np.inf, 1.0, np.inf, 1, 0), "mean_area = inf"),
    ((1.0, np.inf, 0.0, 1, 0), "mean_volume = inf"),
    ((1.0, -0.5, -2.0, 1, 0), "mean_volume = -0.5"),
    ((3.0, 4.0, 0.75, -5, 0), "n_samples = -5"),
    ((3.0, 4.0, 0.75, 0, 0), "n_samples = 0"),
    ((3.0, 4.0, np.nan, 10, 0), "reactivity = nan is not finite"),
    ((1.0, 0.0, 2.0, 10, 0), "infinite reactivity"),
    ((1.0, 0.0, -np.inf, 10, 0), "reactivity = -inf is not finite"),
    ((1.0, 0.0, np.nan, 10, 0), "reactivity = nan is not finite"),
])
def test_reactivity_result_rejects_non_finite_or_negative_fields(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ReactivityResult(*fields)


@pytest.mark.parametrize("n_samples, seed, error, message", [
    (10, -3, ValueError, "seed = -3 must be at least 0"),
    (10, 2.5, TypeError, "seed = 2.5 is not an integer"),
    (10, True, TypeError, "seed = True is not an integer"),
    (True, 0, TypeError, "n_samples = True is not an integer"),
    (10.0, 0, TypeError, "n_samples = 10.0 is not an integer"),
])
def test_reactivity_result_takes_integer_counts_and_seeds(n_samples, seed, error, message):
    with pytest.raises(error, match=re.escape(message)):
        ReactivityResult(3.0, 4.0, 0.75, n_samples, seed)


def test_reactivity_result_holds_python_ints():
    result = ReactivityResult(3.0, 4.0, 0.75, np.int64(10), np.uint8(2))
    assert type(result.n_samples) is int and type(result.seed) is int
    assert result == ReactivityResult(3.0, 4.0, 0.75, 10, 2)


def test_reactivity_result_holds_python_floats():
    result = ReactivityResult(3.0, 4.0, np.float64(0.75), 10, 2)
    assert type(result.reactivity) is float and result.reactivity == 0.75
    flagged = ReactivityResult(1.0, 0.0, np.float64(np.inf), 1, 0)
    assert type(flagged.reactivity) is float and flagged.volume_degenerate


def test_reactivity_result_flags_zero_volume_as_infinite():
    result = ReactivityResult(1.0, 0.0, np.inf, 1, 0)
    assert result.volume_degenerate
    assert ReactivityResult(0.0, 0.0, np.inf, 1, 0).to_json_dict()["volume_degenerate"]


def test_reactivity_takes_any_integer_type():
    rho = modified_werner(0.5, 0.0, n_qubits=4)
    assert reactivity(rho, np.int8(1), 1) == reactivity(rho, 1, 1)
    result = reactivity(rho, np.int64(3), np.uint8(1))
    assert result == reactivity(rho, 3, 1)
    assert type(result.n_samples) is int and type(result.seed) is int
    json.dumps(result.to_json_dict())
    with pytest.raises(TypeError):
        reactivity(rho, 3.0, 1)


@pytest.mark.parametrize("n_samples, seed, error, message", [
    (True, 0, TypeError, "n_samples = True is not an integer"),
    (3.0, 0, TypeError, "n_samples = 3.0 is not an integer"),
    (-2, 0, ValueError, "n_samples = -2 must be at least 1"),
    (0, 0, ValueError, "n_samples = 0 must be at least 1"),
    (3, True, TypeError, "seed = True is not an integer"),
    (3, 1.0, TypeError, "seed = 1.0 is not an integer"),
    (3, -1, ValueError, "seed = -1 must be at least 0"),
])
def test_reactivity_gates_its_sample_count_and_seed(n_samples, seed, error, message):
    """The entry point refuses what ReactivityResult refuses, naming the field, before any draw."""
    with pytest.raises(error, match=re.escape(message)):
        reactivity(modified_werner(0.5, 0.0, n_qubits=4), n_samples, seed)
    with pytest.raises(error, match=re.escape(message)):
        ReactivityResult(3.0, 4.0, 0.75, n_samples, seed)


def test_reactivity_requires_four_qubits():
    with pytest.raises(ValueError):
        reactivity(modified_werner(0.5, 0.0), 50, 0)


def _plain_entropy(q):
    q = q.ravel()
    return -float((q * np.log2(np.where(q > 1e-15, q, 1.0))).sum())


def _leave_one_out(p):
    """H(X_i | rest) = H(all) - H(all but i), clamped at zero, written out per party."""
    return [max(0.0, _plain_entropy(p) - _plain_entropy(p.sum(axis=i))) for i in range(p.ndim)]


def test_contents_are_the_elementary_symmetric_polynomials(rng):
    tables3 = rng.dirichlet(np.full(8, 0.5), size=50).reshape(-1, 2, 2, 2)
    tables4 = rng.dirichlet(np.full(16, 0.5), size=50).reshape(-1, 2, 2, 2, 2)
    areas = infogeo._contents(tables3, 3)
    volumes = infogeo._contents(tables4, 4)
    for p, area in zip(tables3, areas):
        h0, h1, h2 = _leave_one_out(p)
        assert area == pytest.approx(h0 * h1 + h0 * h2 + h1 * h2, abs=1e-15)
    for p, volume in zip(tables4, volumes):
        h0, h1, h2, h3 = _leave_one_out(p)
        e3 = h1 * h2 * h3 + h0 * h2 * h3 + h0 * h1 * h3 + h0 * h1 * h2
        assert volume == pytest.approx(e3, abs=1e-15)
    for n in (3, 4):
        correlated = np.zeros((2,) * n)
        correlated[(0,) * n] = correlated[(1,) * n] = 0.5
        assert infogeo._contents(correlated, n) == 0.0
        assert infogeo._contents(np.full((2,) * n, 0.5**n), n) == pytest.approx(n, abs=1e-14)


def _reference_contents(p, n):
    """The per-party loop that the drop-one kernel replaced: one marginal per ``sum``, one product per ``delete``."""
    h_all = infogeo._entropies(p, n)
    h = np.stack([h_all - infogeo._entropies(p.sum(axis=i - n), n - 1) for i in range(n)], axis=-1)
    h = np.clip(h, 0.0, None)
    return sum(np.prod(np.delete(h, i, axis=-1), axis=-1) for i in range(n))


def _reference_reactivity(rho, n_samples, seed):
    """(mean_area, mean_volume) with one stream_rng per sample and the stacked-face tail."""
    z = np.stack([stream_rng(seed, i).standard_normal((4, 4)) for i in range(n_samples)])
    rows = states._qubit_rows(np.ascontiguousarray(infogeo._random_blochs(z).transpose(1, 0, 2)))
    p = np.clip(states._born(rows, states._pauli_coefficients(rho.matrix)), 0.0, None)
    p = p.reshape(-1, 16)
    p = (p / p.sum(axis=-1, keepdims=True)).reshape(-1, 2, 2, 2, 2)
    faces = np.stack([p.sum(axis=k) for k in range(1, 5)], axis=1)
    return float(_reference_contents(faces, 3).mean(axis=-1).mean()), float(_reference_contents(p, 4).mean())


def _dirichlet_bank(n, seed):
    """Seeded n-party tables, sparse and dense, with exact zeros and entries below the 1e-15 cutoff."""
    rng = np.random.default_rng(seed)
    bank = np.concatenate([rng.dirichlet(np.full(2**n, alpha), size=200) for alpha in (0.05, 0.5, 2.0)])
    bank[::5, 0] = 0.0
    bank[1::5, -1] = 4e-16
    bank[2::5, 1:3] = 1e-17
    return (bank / bank.sum(axis=-1, keepdims=True)).reshape((-1,) + (2,) * n)


@pytest.mark.parametrize("n", [3, 4])
def test_contents_match_the_per_party_loop_bit_for_bit(n):
    tables = _dirichlet_bank(n, 40 + n)
    assert np.array_equal(infogeo._contents(tables, n), _reference_contents(tables, n))
    content = info_area if n == 3 else info_volume
    assert [content(JointDistribution(t)) for t in tables[:60]] == [
        float(_reference_contents(t, n)) for t in tables[:60]]


@pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("phase", [0.0, 0.7])
def test_reactivity_matches_the_stacked_face_tail_bit_for_bit(lam, phase):
    rho = modified_werner(lam, phase, n_qubits=4)
    for n_samples, seed in ((1, 0), (13, 5), (2000, 7), (500, 2**40)):
        area, volume = _reference_reactivity(rho, n_samples, seed)
        result = reactivity(rho, n_samples, seed)
        assert (result.mean_area, result.mean_volume) == (area, volume)
        assert result.reactivity == area / volume


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_contents_of_any_n_are_e_n_minus_1_of_the_conditional_entropies(n):
    rng = np.random.default_rng(60 + n)
    tables = rng.dirichlet(np.full(2**n, 0.3), size=20).reshape((-1,) + (2,) * n)
    contents = infogeo._contents(tables, n)
    assert contents.shape == (20,)
    for p, content in zip(tables, contents):
        dist = JointDistribution(p)
        h = [max(0.0, conditional_entropy(dist, tuple(j for j in range(n) if j != i))) for i in range(n)]
        e = sum(np.prod([h[j] for j in range(n) if j != i]) for i in range(n))
        assert content == pytest.approx(e, abs=1e-13)


def test_import_builds_no_drop_one_map():
    """Nor any other cache of infogeo's kernels."""
    code = ("import infobell\nfrom infobell.infogeo import _drop_one_map, _others, _scan_grid\n"
            "print(*(cache.cache_info().currsize for cache in (_drop_one_map, _others, _scan_grid)))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.split() == ["0", "0", "0"]


def test_drop_one_maps_are_built_once_per_n(rng):
    rho = modified_werner(0.5, 0.0, n_qubits=4)
    reactivity(rho, 3, 0)
    info_area(random_joint(rng, 3))
    misses = infogeo._drop_one_map.cache_info().misses, infogeo._others.cache_info().misses
    for seed in range(4):
        reactivity(rho, 10, seed)
        info_area(random_joint(rng, 3))
        info_volume(random_joint(rng, 4))
    assert (infogeo._drop_one_map.cache_info().misses, infogeo._others.cache_info().misses) == misses
    assert not infogeo._drop_one_map(3).flags.writeable
    assert not infogeo._others(4).flags.writeable

def test_reactivity_builds_its_bases_in_one_call(monkeypatch):
    calls = {"_random_blochs": 0, "_stream_keys": 0, "stream_rng": 0}

    def counted(name):
        original = getattr(infogeo, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(infogeo, name, counted(name))
    reactivity(modified_werner(0.5, 0.0, n_qubits=4), 37, 3)
    assert calls == {"_random_blochs": 1, "_stream_keys": 1, "stream_rng": 0}


def _per_sample_bases(rng, n_qubits):
    """One sample's bases as the per-sample implementation built them."""
    z = rng.standard_normal((n_qubits, 4))
    a = z[:, 0] + 1j * z[:, 1]
    b = z[:, 2] + 1j * z[:, 3]
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    a /= norm
    b /= norm
    bases = np.empty((n_qubits, 2, 2), dtype=complex)
    bases[:, 0, 0] = a
    bases[:, 0, 1] = b
    bases[:, 1, 0] = -b.conj()
    bases[:, 1, 1] = a.conj()
    return bases


def test_batched_bases_match_the_per_sample_reference():
    """The batched Bloch vectors are <u|sigma|u> of the per-sample pass kets, and the block kets have -r."""
    paulis = np.stack([states.SIGMA_X, states.SIGMA_Y, states.SIGMA_Z])
    for seed, n_samples in ((7, 300), (0, 1), (12345, 17)):
        z = np.stack([stream_rng(seed, i).standard_normal((4, 4)) for i in range(n_samples)])
        batched = infogeo._random_blochs(z)
        reference = np.stack([_per_sample_bases(stream_rng(seed, i), 4) for i in range(n_samples)])
        vectors = np.einsum("...oi,sij,...oj->...os", reference.conj(), paulis, reference).real
        assert batched.shape == (n_samples, 4, 3)
        assert_allclose(batched, vectors[..., 0, :], rtol=0, atol=1e-15)
        assert_allclose(batched, -vectors[..., 1, :], rtol=0, atol=1e-15)
        assert_allclose(np.linalg.norm(batched, axis=-1), 1.0, rtol=0, atol=1e-15)
