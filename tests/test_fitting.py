import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from infobell import (
    REFERENCE_THETAS,
    NoiseConfig,
    ViolationCurve,
    WernerFit,
    bell_state,
    fit_werner,
    model_curve,
    modified_werner,
    simulate_sweep,
    sweep,
)
from infobell import fitting
from infobell.fitting import (
    _GRID_COS,
    _GRID_LAM,
    _GRID_PHASE,
    _LN2,
    _Q_FLOOR,
    LAMBDA_STEP,
    PHASE_STEP,
    _binary_entropy,
    _curve_derivatives,
    _curves,
    _edge_range,
    _edge_table,
    _grid_start,
    _start_grid,
)

THETAS = np.array(REFERENCE_THETAS)
KEY = tuple(float(t) for t in THETAS)
PINS = json.loads((Path(__file__).parent / "data" / "solver_pins.json").read_text())
FIT_BITS = json.loads((Path(__file__).parent / "data" / "fit_bits.json").read_text())


def grid_curves(thetas):
    """model_curve over every cell of the start grid on ``thetas``."""
    return model_curve(_GRID_LAM[:, None], _GRID_PHASE[None, :], thetas)


@pytest.fixture(scope="module")
def by_theta():
    """grid_curves(THETAS), built once, theta axis first."""
    return np.ascontiguousarray(np.moveaxis(grid_curves(THETAS), -1, 0))


def brute_force(by_theta, v, weights):
    """The grid objective sum_t w_t (c_t - v_t)^2 of every start grid cell,
    one theta at a time, so equal curves get equal objectives."""
    total, term = np.zeros(by_theta.shape[1:]), np.empty(by_theta.shape[1:])
    for c, v_t, w_t in zip(by_theta, v, weights):
        np.subtract(c, v_t, out=term)
        np.square(term, out=term)
        term *= w_t
        total += term
    return total


def curve_for(lam, phase, thetas=THETAS):
    return ViolationCurve(thetas, model_curve(lam, phase, thetas))


def test_model_curve_agrees_with_full_quantum_pipeline():
    for lam, phase in ((1.0, 0.0), (0.998, 0.225), (0.6, 1.9), (0.0, 0.4)):
        direct = sweep(modified_werner(lam, phase), THETAS).v
        assert_allclose(model_curve(lam, phase, THETAS), direct, atol=1e-12)


def test_model_curve_is_even_in_phase():
    """The curve depends on the phase only through its cosine."""
    for phase in (0.3, 1.0, 2.5):
        assert_allclose(
            model_curve(0.9, phase, THETAS),
            model_curve(0.9, 2 * np.pi - phase, THETAS),
            atol=1e-12,
        )


def test_model_curve_shape_is_broadcast_shape_plus_thetas_shape():
    assert model_curve(0.5, 0.1, []).shape == (0,)
    assert model_curve(np.zeros((3, 0)), 0.1, [0.2, 0.3]).shape == (3, 0, 2)
    assert model_curve(np.linspace(0.0, 1.0, 5)[:, None], np.zeros((1, 7)), 0.3).shape == (5, 7, 1)


def test_fit_recovers_reference_parameters():
    fit = fit_werner(curve_for(0.998, 0.225))
    assert fit.lam == pytest.approx(0.998, abs=1e-3)
    assert fit.phase == pytest.approx(0.225, abs=1e-3)


def test_fit_bell_curve_gives_unit_lambda():
    fit = fit_werner(sweep(bell_state("phi+").density_matrix(), THETAS))
    assert fit.lam == pytest.approx(1.0, abs=2e-3)
    assert fit.residual_sum < 1e-8


def test_fit_phase_zero_truth():
    fit = fit_werner(curve_for(0.95, 0.0))
    assert min(fit.phase, 2 * np.pi - fit.phase) < 1e-3


def test_fit_idempotent():
    first = fit_werner(curve_for(0.998, 0.225))
    second = fit_werner(curve_for(first.lam, first.phase))
    assert second.lam == pytest.approx(first.lam, abs=1e-6)
    assert second.phase == pytest.approx(first.phase, abs=1e-6)


def test_fit_noise_robust_median():
    """Zero-mean noise of 0.02 moves the median recovered lambda < 0.01."""
    recovered = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        noisy = model_curve(0.9, 0.5, THETAS) + rng.normal(0.0, 0.02, size=THETAS.size)
        recovered.append(fit_werner(ViolationCurve(THETAS, noisy)).lam)
    assert abs(float(np.median(recovered)) - 0.9) < 0.01


def test_fit_beats_every_coarse_grid_candidate():
    """Every candidate of the full (lam, phase) grid over [0, 1] x [0, 2 pi),
    not only the half-circle grid the fit starts from."""
    rng = np.random.default_rng(3)
    v_obs = model_curve(0.85, 0.7, THETAS) + rng.normal(0.0, 0.03, size=THETAS.size)
    fit = fit_werner(ViolationCurve(THETAS, v_obs))
    lam_grid = np.arange(0.0, 1.0 + LAMBDA_STEP / 2.0, LAMBDA_STEP)
    phase_grid = np.arange(0.0, 2.0 * np.pi, PHASE_STEP)
    curves = model_curve(lam_grid[:, None], phase_grid[None, :], THETAS)
    grid_best = float(((curves - v_obs) ** 2).sum(axis=-1).min())
    assert fit.residual_sum <= grid_best + 1e-12


@pytest.mark.parametrize("pin", PINS["fit"], ids=lambda pin: f"seed{pin['seed']}")
def test_fit_never_worse_than_derivative_free_pins(pin):
    curve = ViolationCurve(THETAS, pin["v"], pin["dv"])
    assert fit_werner(curve).residual_sum <= pin["residual_sum"] + 1e-12
    weighted = fit_werner(curve, weighted=True).per_point_residuals / curve.dv
    assert float(np.sum(weighted**2)) <= pin["weighted_objective"] * (1.0 + 1e-7)


def _bits(fit) -> dict:
    return {"lam": fit.lam.hex(), "phase": fit.phase.hex(), "residual_sum": fit.residual_sum.hex()}


@pytest.mark.parametrize("k", range(len(PINS["fit"])), ids=lambda k: f"seed{PINS['fit'][k]['seed']}")
def test_fits_on_the_pins_are_the_recorded_bits(k):
    """fit_werner on each pin curve, unweighted and weighted, equals the recorded fit bit for bit."""
    pin = PINS["fit"][k]
    curve = ViolationCurve(THETAS, pin["v"], pin["dv"])
    assert _bits(fit_werner(curve)) == FIT_BITS["fit"][k]["unweighted"]
    assert _bits(fit_werner(curve, weighted=True)) == FIT_BITS["fit"][k]["weighted"]


def test_reproduce_fit_is_the_recorded_bits():
    """The seed-7 curve of infobell reproduce; its fit sits on the lam = 1 bound, so the step that
    holds a parameter is pinned as well as the one that moves both."""
    rows = simulate_sweep(modified_werner(0.998, 0.225), REFERENCE_THETAS, 350, NoiseConfig(seed=7))
    curve = ViolationCurve(THETAS, [quad.violation for _, quad in rows],
                           [quad.violation_uncertainty for _, quad in rows])
    fit = fit_werner(curve)
    assert fit.lam == 1.0
    assert _bits(fit) == FIT_BITS["reproduce_seed7"]


@pytest.mark.parametrize("lam, c", [(0.6, 0.3), (0.95, -0.7), (0.2, 0.99),
                                    (0.8, 1.0), (0.7, -1.0), (1.0, 0.4), (1.0, 1.0)])
def test_fit_derivatives_match_central_differences(lam, c):
    """First and second derivatives of the curve by (lam, c = cos phase).

    Central differences in c at c = +-1 and in lam at lam = 1 step just
    outside the parameter box, where the closed form still holds.
    """
    h = 1e-6
    curve, jacobian, hessian = _curve_derivatives(lam, c, _edge_table(THETAS))
    assert_allclose(curve, model_curve(lam, np.arccos(c), THETAS), atol=1e-12)
    for axis, step in enumerate((np.array([h, 0.0]), np.array([0.0, h]))):
        up = _curve_derivatives(lam + step[0], c + step[1], _edge_table(THETAS))
        down = _curve_derivatives(lam - step[0], c - step[1], _edge_table(THETAS))
        assert_allclose(jacobian[:, axis], (up[0] - down[0]) / (2 * h), rtol=1e-6, atol=1e-8)
        assert_allclose(hessian[:, :, axis], (up[1] - down[1]) / (2 * h), rtol=1e-6, atol=1e-6)
    if 0.0 < c < 1.0:
        # The lam column through the public phase form as well.
        by_lam = (model_curve(lam + h, np.arccos(c), THETAS)
                  - model_curve(lam - h, np.arccos(c), THETAS)) / (2 * h)
        assert_allclose(jacobian[:, 0], by_lam, rtol=1e-6, atol=1e-8)


def test_fit_on_the_lambda_bound_reports_exactly_one():
    fit = fit_werner(sweep(bell_state("phi+").density_matrix(), THETAS))
    assert fit.lam == 1.0


def test_fit_does_not_load_scipy():
    code = (
        "import sys, numpy as np\n"
        "from infobell import REFERENCE_THETAS, ViolationCurve, fit_werner, model_curve\n"
        "fit_werner(ViolationCurve(REFERENCE_THETAS, model_curve(0.998, 0.225, REFERENCE_THETAS)))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_grid_steps_match_documented_resolution():
    assert _GRID_LAM[1] - _GRID_LAM[0] == pytest.approx(LAMBDA_STEP)
    assert _GRID_PHASE[1] - _GRID_PHASE[0] == pytest.approx(PHASE_STEP)
    assert _GRID_LAM[0] == 0.0 and _GRID_LAM[-1] == pytest.approx(1.0)
    assert _GRID_PHASE[0] == 0.0 and _GRID_PHASE[-1] < np.pi < _GRID_PHASE[-1] + PHASE_STEP


def test_weighted_fit_requires_uncertainties():
    curve = curve_for(0.9, 0.3)
    with pytest.raises(ValueError):
        fit_werner(curve, weighted=True)
    bad = ViolationCurve(THETAS, curve.v, np.zeros_like(THETAS))
    with pytest.raises(ValueError):
        fit_werner(bad, weighted=True)


@pytest.mark.parametrize("dv", [np.r_[1e-170, np.full(THETAS.size - 1, 0.01)],
                                np.full(THETAS.size, 1e200)],
                         ids=["weight-overflows", "weights-underflow"])
def test_weighted_fit_rejects_a_weight_that_is_not_finite_and_positive(dv):
    """1/dv^2 = inf would turn every grid objective into inf, and 1/dv^2 = 0
    into 0, so the fit would start and stay at lam = 0 whatever the curve."""
    curve = ViolationCurve(THETAS, model_curve(0.95, 0.3, THETAS), dv)
    with pytest.raises(ValueError, match="dv"):
        fit_werner(curve, weighted=True)
    assert fit_werner(curve).lam == pytest.approx(0.95, abs=1e-6)


def test_weighted_fit_downweights_noisy_points():
    rng = np.random.default_rng(11)
    v = model_curve(0.9, 0.0, THETAS).copy()
    v[-1] += 0.3  # one wildly off point
    dv = np.full(THETAS.size, 0.01)
    dv[-1] = 10.0
    weighted = fit_werner(ViolationCurve(THETAS, v, dv), weighted=True)
    unweighted = fit_werner(ViolationCurve(THETAS, v))
    assert abs(weighted.lam - 0.9) < abs(unweighted.lam - 0.9)
    assert weighted.lam == pytest.approx(0.9, abs=2e-3)


def test_fit_requires_two_points():
    with pytest.raises(ValueError):
        fit_werner(ViolationCurve(np.array([0.3]), np.array([0.2])))


def test_werner_fit_validation_and_json():
    residuals = np.array([0.01, -0.02])
    fit = WernerFit(
        lam=0.9,
        phase=0.3,
        residual_sum=float((residuals**2).sum()),
        per_point_residuals=residuals,
    )
    payload = fit.to_json_dict()
    assert set(payload) == {"lambda", "phase", "residual_sum", "residuals"}
    assert payload["lambda"] == 0.9
    with pytest.raises(ValueError):
        WernerFit(lam=1.2, phase=0.0, residual_sum=0.0, per_point_residuals=np.zeros(2))
    with pytest.raises(ValueError):
        WernerFit(lam=0.5, phase=7.0, residual_sum=0.0, per_point_residuals=np.zeros(2))
    with pytest.raises(ValueError):
        WernerFit(lam=0.5, phase=0.0, residual_sum=0.5, per_point_residuals=residuals)
    assert not fit.per_point_residuals.flags.writeable
    for residual_sum, bad, name in ((np.nan, [np.nan] * 8, "per_point_residuals"),
                                    (0.0, [0.0, np.inf], "per_point_residuals"),
                                    (np.nan, [0.0, 0.0], "residual_sum"),
                                    (np.inf, [1.0], "residual_sum")):
        with pytest.raises(ValueError, match=f"^{name} = .* is not finite$"):
            WernerFit(0.5, 0.1, residual_sum, bad)
    with pytest.raises(TypeError, match="^per_point_residuals = '0.1' is not a real number$"):
        WernerFit(0.5, 0.1, 0.01, [0.0, "0.1"])
    with pytest.raises(ValueError, match="^residual_sum = -0.0001 must be at least 0$"):
        WernerFit(0.5, 0.1, -1e-4, [0.0])


@pytest.mark.parametrize("field", ["lam", "phase"])
@pytest.mark.parametrize("bad", [True, False, "0.5"])
def test_werner_fit_refuses_bool_and_string_parameters(field, bad):
    """WernerFit(True, ...) used to construct and write "lambda": true."""
    fields = {"lam": 0.9, "phase": 0.3, "residual_sum": 0.0, "per_point_residuals": [0.0] * 8}
    with pytest.raises(TypeError, match=f"^{field} = {bad!r} is not a real number$"):
        WernerFit(**{**fields, field: bad})


def test_werner_fit_holds_python_floats():
    fit = WernerFit(np.float32(0.5), np.int64(1), np.float64(0.0), [0.0] * 8)
    assert [type(x) for x in (fit.lam, fit.phase, fit.residual_sum)] == [float] * 3
    assert json.dumps(fit.to_json_dict()) == json.dumps(
        {"lambda": 0.5, "phase": 1.0, "residual_sum": 0.0, "residuals": [0.0] * 8})
    with pytest.raises(ValueError, match="^lam = 1.2 must be from 0 to 1$"):
        WernerFit(1.2, 0.0, 0.0, [0.0])
    with pytest.raises(ValueError, match=r"^phase = -0.1 outside \[0, 2 pi\)$"):
        WernerFit(0.5, -0.1, 0.0, [0.0])


def test_fit_ignores_an_edit_of_the_caller_array_after_the_curve_is_built():
    """A NaN written into the caller's array after ViolationCurve checked it used to reach the fit."""
    v = model_curve(0.9, 0.4, THETAS)
    curve = ViolationCurve(THETAS, v)
    expected = _bits(fit_werner(curve))
    v[0] = np.nan
    assert _bits(fit_werner(curve)) == expected


def test_fit_at_zero_lambda_reports_phase_zero():
    """Every phase gives the same curve at lam = 0; the tie rule picks phase 0."""
    v = model_curve(0.0, 0.3, THETAS) + np.random.default_rng([9, 52]).normal(0.0, 0.05, 8)
    fit = fit_werner(ViolationCurve(THETAS, v))
    assert fit.lam == 0.0
    assert fit.phase == 0.0


def test_start_grid_cells_match_model_curve(by_theta):
    """The search evaluates a cell with the closed form, bit for bit as
    model_curve gives it over the whole grid."""
    edges = _start_grid(KEY).edges
    assert np.array_equal(_GRID_COS, np.cos(_GRID_PHASE))
    curves = np.moveaxis(by_theta, 0, -1)
    for rows in np.array_split(np.arange(_GRID_LAM.size), 16):
        i, j = (a.ravel() for a in np.meshgrid(rows, np.arange(_GRID_PHASE.size), indexing="ij"))
        cells = _curves(_GRID_LAM[i], _GRID_COS[j], edges)
        assert np.array_equal(cells, curves[rows].reshape(-1, THETAS.size))


@pytest.mark.parametrize("thetas", [THETAS, np.sort(np.random.default_rng(31).uniform(0.0, np.pi / 2, 5))],
                         ids=["reference", "random-five"])
def test_block_bounds_contain_every_cell(thetas):
    """Every cell's V at every theta lies inside the (centre, half-width)
    of its fine block and of its coarse block."""
    grid = _start_grid(tuple(float(t) for t in thetas))
    curves = grid_curves(thetas)
    for (centre, half), side in ((grid.fine, fitting._FINE_CELLS),
                                 (grid.coarse, fitting._FINE_CELLS * fitting._COARSE_BLOCKS)):
        assert centre.shape == half.shape == (-(-_GRID_LAM.size // side), -(-_GRID_PHASE.size // side), thetas.size)
        block_rows, block_cols = np.arange(_GRID_LAM.size) // side, np.arange(_GRID_PHASE.size) // side
        inside = np.abs(curves - centre[block_rows][:, block_cols]) <= half[block_rows][:, block_cols]
        assert inside.all()


def test_edge_range_bounds_the_edge_over_its_q_range():
    """Every 2 H2(q) on a dense sample of [q_lo, q_hi] lies in the range,
    whose ends are attained: at an end of [q_lo, q_hi], or at q = 1/2."""
    rng = np.random.default_rng(41)
    ends = np.sort(rng.uniform(0.0, 1.0, (2, 400)), axis=0)
    ends[:, :50] = np.sort(0.5 + rng.uniform(-0.01, 0.01, (2, 50)), axis=0)
    ends[:, 50:60] = [[0.0, 0.3, 0.5, 0.5, 0.7, 0.0, 1.0, 0.2, 0.5, 0.0],
                      [0.0, 0.3, 0.5, 0.9, 1.0, 1.0, 1.0, 0.5, 1.0, 0.5]]
    least, most = _edge_range(*ends)
    edges = 2.0 * _binary_entropy(ends[0] + np.linspace(0.0, 1.0, 2001)[:, None] * (ends[1] - ends[0]))
    assert np.all(edges >= least - 1e-15) and np.all(edges <= most + 1e-15)
    assert np.allclose(edges.min(axis=0), least, rtol=0.0, atol=1e-15)
    assert np.allclose(edges.max(axis=0), most, rtol=0.0, atol=1e-6)


def test_weighted_and_unweighted_fits_share_one_start_grid():
    """Weights enter only the search, so fits of any weights on one theta
    grid build its start grid once."""
    curve = ViolationCurve(THETAS, model_curve(0.9, 0.4, THETAS), np.full(THETAS.size, 0.01))
    unweighted = fit_werner(curve)
    misses = _start_grid.cache_info().misses
    rng = np.random.default_rng(8)
    for _ in range(6):
        fit_werner(ViolationCurve(THETAS, curve.v, rng.uniform(0.005, 0.02, THETAS.size)), weighted=True)
    again = fit_werner(curve)
    assert _start_grid.cache_info().misses == misses
    assert (again.lam, again.phase) == (unweighted.lam, unweighted.phase)


def test_warm_fit_builds_no_edge_table(monkeypatch):
    """The start search, the Newton steps and the residuals all read the
    theta grid's cached edge table, and the cache entry holds nothing
    that does not depend on the thetas."""
    curve = ViolationCurve(THETAS, model_curve(0.93, 1.2, THETAS) + 0.01, np.full(THETAS.size, 0.01))
    fit_werner(curve)
    assert [f.name for f in dataclasses.fields(_start_grid(KEY))] == ["edges", "fine", "coarse"]
    calls = []
    monkeypatch.setattr(fitting, "_edge_table", lambda th: calls.append(th) or _edge_table(th))
    for weighted in (False, True):
        fit_werner(curve, weighted=weighted)
    assert len(calls) <= 1


def test_fit_residuals_are_model_curve_bit_for_bit():
    """The residuals read from the cached edge table are model_curve's at
    the reported (lam, phase), weighted and unweighted."""
    rng = np.random.default_rng(61)
    for _ in range(60):
        lam, phase, sigma = rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * np.pi), rng.uniform(0.002, 0.05)
        curve = ViolationCurve(THETAS, model_curve(lam, phase, THETAS) + rng.normal(0.0, sigma, THETAS.size),
                               np.full(THETAS.size, sigma))
        for weighted in (False, True):
            fit = fit_werner(curve, weighted=weighted)
            assert np.array_equal(fit.per_point_residuals, model_curve(fit.lam, fit.phase, THETAS) - curve.v)


def test_start_grid_build_allocates_little_beyond_its_result():
    """The block bounds are built a few block rows at a time, not in
    full-grid temporaries."""
    grid = _start_grid(KEY)
    result = sum(a.nbytes for a in (*grid.edges, *grid.fine, *grid.coarse))
    tracemalloc.start()
    try:
        _start_grid.__wrapped__(KEY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= result + 3e6


def per_edge_reference(lam, c, th):
    """The per-edge loop the edge table replaced: the curve, its Jacobian
    and its Hessian by (lam, c = cos phase); lam and c broadcast as in
    model_curve, the derivatives are for scalar (lam, c) only."""
    curve, jacobian, hessian = 0, np.zeros((th.size, 2)), np.zeros((th.size, 2, 2))
    for sign, a, b in ((1.0, 0.0, 3 * th), (-1.0, 0.0, th),
                       (-1.0, 2 * th, th), (-1.0, 2 * th, 3 * th)):
        s = np.sin(a) * np.sin(b)
        k = np.cos(a) * np.cos(b) + c * s
        q = (1.0 + lam * k) / 2.0
        curve = curve + sign * 2.0 * _binary_entropy(q)
        if np.ndim(lam) or np.ndim(c):
            continue
        q = np.clip(q, _Q_FLOOR, 1.0 - _Q_FLOOR)
        slope = sign * np.log((1.0 - q) / q) / _LN2
        bend = -sign / (2.0 * _LN2 * q * (1.0 - q))
        jacobian[:, 0] += k * slope
        jacobian[:, 1] += lam * s * slope
        hessian[:, 0, 0] += k * k * bend
        hessian[:, 0, 1] += s * slope + lam * s * k * bend
        hessian[:, 1, 1] += lam * lam * s * s * bend
    hessian[:, 1, 0] = hessian[:, 0, 1]
    return curve, jacobian, hessian


def test_edge_table_matches_the_per_edge_loop_bit_for_bit():
    rng = np.random.default_rng(17)
    lams, cs = rng.uniform(0.0, 1.0, 300), rng.uniform(-1.0, 1.0, 300)
    for lam, c in zip(np.concatenate([lams, [0.0, 1.0, 1.0]]), np.concatenate([cs, [0.4, 1.0, -1.0]])):
        for got, want in zip(_curve_derivatives(lam, c, _edge_table(THETAS)), per_edge_reference(lam, c, THETAS)):
            assert np.array_equal(got, want)
        phase = np.arccos(c)
        assert np.array_equal(model_curve(lam, phase, THETAS),
                              per_edge_reference(lam, np.cos(phase), THETAS)[0])
    phases = np.arccos(cs)
    grid = per_edge_reference(lams[:, None, None], np.cos(phases)[None, :, None], THETAS)[0]
    assert np.array_equal(model_curve(lams[:, None], phases[None, :], THETAS), grid)


def test_grid_start_is_the_brute_force_grid_minimum(by_theta):
    """The start cell's direct objective sum w (c - v)^2 is the grid minimum,
    weighted and unweighted, on a seeded bank of noisy curves."""
    rng = np.random.default_rng(29)
    for _ in range(300):
        lam, phase, sigma = rng.uniform(0.0, 1.0), rng.uniform(0.0, np.pi), rng.uniform(0.005, 0.1)
        v = model_curve(lam, phase, THETAS) + rng.normal(0.0, sigma, THETAS.size)
        dv = rng.uniform(0.5, 1.5, THETAS.size) * sigma
        for weights in (np.ones_like(THETAS), 1.0 / dv**2):
            direct = brute_force(by_theta, v, weights)
            assert direct[_grid_start(KEY, v, weights)] <= direct.min() + 1e-12


def test_grid_start_ties_go_to_the_first_cell(by_theta):
    """Every cell of the lam = 0 row has the same curve; when that row holds
    the grid minimum, the start is its first cell, (0, 0)."""
    rng = np.random.default_rng(5)
    on_row_zero = 0
    for _ in range(20):
        v = model_curve(0.0, 0.0, THETAS) + rng.normal(0.0, 0.05, THETAS.size)
        direct = brute_force(by_theta, v, np.ones_like(THETAS))
        if direct[0].min() == direct.min():
            on_row_zero += 1
            assert _grid_start(KEY, v, np.ones_like(THETAS)) == (0, 0)
    assert on_row_zero >= 5
