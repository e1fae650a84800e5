"""Least-squares fit of the two-parameter mixed-state model to a violation curve.

The model family is modified_werner(lam, phase); its violation curve has
a closed form (see model_curve) that makes the coarse grid stage cheap.
The generic Born-rule route through infogeo.violation remains the
definition; tests keep the two in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .infogeo import _EDGE_MULTIPLES, ViolationCurve

__all__ = [
    "LAMBDA_STEP",
    "PHASE_STEP",
    "WernerFit",
    "model_curve",
    "fit_werner",
]

LAMBDA_STEP = 0.002
PHASE_STEP = 0.01

_LN2 = np.log(2.0)
# Bounds of (lam, c = cos phase) for the refinement, its step cap, the
# damping at which it gives up looking for a better point, and the move
# below which it stops.
_LOWER = np.array([0.0, -1.0])
_UPPER = np.array([1.0, 1.0])
_MAX_STEPS = 200
_MAX_DAMPING = 1e16
_REFINE_TOL = 1e-8
# Distance from 0 and 1 at which an edge's slope log2((1 - q)/q) is taken.
_Q_FLOOR = 1e-15
# infogeo's edges with the direct edge first, and the sign of each in V:
# V = edge(0, 3t) - edge(0, t) - edge(2t, t) - edge(2t, 3t). The order fixes
# the float sum over edges, and so the fitted numbers to the last digit.
_MULTIPLES = _EDGE_MULTIPLES[[3, 0, 1, 2]]
_SIGN = np.array([[1.0], [-1.0], [-1.0], [-1.0]])
# Values per temporary array of a blockwise pass (see _row_blocks). At
# 64 KB a temporary stays below glibc's default 128 KB mmap
# threshold, so successive blocks reuse heap memory instead of faulting
# in fresh pages; in a fresh process, 512 KB blocks built the coarse
# grid about 1.7 times slower.
_BLOCK_VALUES = 1 << 13


@dataclass(frozen=True, eq=False)
class WernerFit:
    """Fitted (lam, phase) with the residuals of the final model curve."""

    lam: float
    phase: float
    residual_sum: float
    per_point_residuals: np.ndarray

    def __post_init__(self):
        residuals = np.asarray(self.per_point_residuals, dtype=float)
        object.__setattr__(self, "per_point_residuals", residuals)
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError(f"lam = {self.lam!r} outside [0, 1]")
        if not 0.0 <= self.phase < 2.0 * np.pi:
            raise ValueError(f"phase = {self.phase!r} outside [0, 2 pi)")
        if abs(self.residual_sum - float((residuals**2).sum())) > 1e-12:
            raise ValueError("residual_sum must equal the sum of squared residuals")

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "phase": self.phase,
            "residual_sum": self.residual_sum,
            "residuals": self.per_point_residuals.tolist(),
        }


def _binary_entropy(p):
    """H2(p) in bits, elementwise, exact at the endpoints."""
    p = np.clip(p, 0.0, 1.0)
    return -(_xlogx(p) + _xlogx(1.0 - p)) / _LN2


def _xlogx(x):
    """x ln x for x >= 0, with the limit 0 at x = 0."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def _edge_table(th):
    """(cos a cos b, sin a sin b) of every edge at every theta, each (4, n).

    An edge is 2 H2(q) with q = (1 + lam K)/2 and K = cos a cos b + c sin a sin b,
    c = cos phase.
    """
    a = _MULTIPLES[:, :1] * th
    b = _MULTIPLES[:, 1:] * th
    return np.cos(a) * np.cos(b), np.sin(a) * np.sin(b)


def _edge_sum(q):
    """The signed edge sum of 2 H2(q) over the edge axis, q of shape (..., 4, n)."""
    return (_SIGN * 2.0 * _binary_entropy(q)).sum(axis=-2)


def _row_blocks(rows: int, width: int):
    """Slices that cover range(rows) with at most _BLOCK_VALUES // width
    rows each (at least one), so a pass over rows of `width` values keeps
    its temporaries to one block."""
    step = max(1, _BLOCK_VALUES // max(width, 1))
    return (slice(start, start + step) for start in range(0, rows, step))


def model_curve(lam, phase, thetas):
    """Closed-form violation curve of the modified Werner family.

    Every edge of the quadrilateral sees uniform marginals and a
    pass-pass probability (1 + lam*K)/4 with
    K(a, b) = cos a cos b + cos(phase) sin a sin b, so the edge distance
    collapses to 2 H2((1 + lam*K)/2) and

        V(theta) = edge(0, 3t) - edge(0, t) - edge(2t, t) - edge(2t, 3t).

    ``lam`` and ``phase`` may be broadcastable arrays; the returned shape
    is broadcast(lam, phase).shape + thetas.shape. A broadcast grid is
    evaluated in blocks of (lam, phase) points, so its temporaries stay
    the size of one block whatever the size of the grid.
    """
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    lam, cph = np.broadcast_arrays(np.asarray(lam, dtype=float), np.cos(np.asarray(phase, dtype=float)))
    shape = lam.shape + th.shape
    lam, cph = lam.reshape(-1, 1, 1), cph.reshape(-1, 1, 1)
    cc, ss = _edge_table(th)
    curves = np.empty((len(lam), th.size))
    for rows in _row_blocks(len(lam), 4 * th.size):
        curves[rows] = _edge_sum((1.0 + lam[rows] * (cc + cph[rows] * ss)) / 2.0)
    return curves.reshape(shape)


def _curve_derivatives(lam: float, c: float, th: np.ndarray):
    """model_curve at (lam, phase = arccos c) with its first and second
    derivatives by (lam, c).

    An edge is 2 H2(q) with q = (1 + lam K)/2, K linear in c. With
    L = log2((1 - q)/q) = H2'(q) and L' = -1/(ln 2 q (1 - q)), its
    gradient is (K L, lam s L) and its Hessian is
    [[K^2 L'/2, s L + lam s K L'/2], [., lam^2 s^2 L'/2]], s = sin a sin b.
    q is kept a hair inside (0, 1) for L and L' only, so both stay finite
    on a pure state. Returns arrays of shapes (n,), (n, 2) and (n, 2, 2).
    """
    cc, s = _edge_table(th)
    k = cc + c * s
    q = (1.0 + lam * k) / 2.0
    curve = _edge_sum(q)
    q = np.clip(q, _Q_FLOOR, 1.0 - _Q_FLOOR)
    slope = _SIGN * np.log((1.0 - q) / q) / _LN2
    bend = -_SIGN / (2.0 * _LN2 * q * (1.0 - q))
    jacobian = np.stack(((k * slope).sum(axis=0), (lam * s * slope).sum(axis=0)), axis=-1)
    hessian = np.empty((th.size, 2, 2))
    hessian[:, 0, 0] = (k * k * bend).sum(axis=0)
    hessian[:, 0, 1] = hessian[:, 1, 0] = (s * slope + lam * s * k * bend).sum(axis=0)
    hessian[:, 1, 1] = (lam * lam * s * s * bend).sum(axis=0)
    return curve, jacobian, hessian


@lru_cache(maxsize=4)
def _coarse_grid(thetas: tuple):
    """Model curves over the coarse (lam, phase) grid and their unit-weight
    norms sum_t c_t^2, cached per theta grid.

    The model depends on the phase only through cos(phase), so phases
    on [0, pi) cover every curve the full circle gives.
    """
    lam_grid = np.arange(0.0, 1.0 + LAMBDA_STEP / 2.0, LAMBDA_STEP)
    phase_grid = np.arange(0.0, np.pi, PHASE_STEP)
    curves = model_curve(lam_grid[:, None], phase_grid[None, :], np.array(thetas))
    norms = _add_grid_norms(np.zeros(curves.shape[:2]), curves, np.ones(len(thetas)))
    return lam_grid, phase_grid, curves, norms


def _add_grid_norms(total, curves, weights):
    """Add sum_t w_t c_t^2 of every grid curve to ``total``, shape (lam, phase),
    one block at a time, in place; returns ``total``."""
    flat, out = curves.reshape(-1, weights.size), total.reshape(-1)
    for rows in _row_blocks(len(flat), weights.size):
        out[rows] += np.square(flat[rows]) @ weights
    return total


def _grid_start(thetas: tuple, v_obs, weights=None) -> tuple:
    """(lam, phase) indices of the coarse grid cell of least sum w (c - v)^2,
    taken as N - 2 c.(w v) with the norms N. ``weights`` None means unit
    weights, whose norms are cached with the grid; the norms of other
    weights are added on each call. Ties go to the first cell."""
    _, _, curves, norms = _coarse_grid(thetas)
    if weights is None:
        objective = curves @ (-2.0 * v_obs)
        objective += norms
    else:
        objective = _add_grid_norms(curves @ (-2.0 * weights * v_obs), curves, weights)
    return np.unravel_index(int(np.argmin(objective)), objective.shape)


def fit_werner(observed: ViolationCurve, weighted: bool = False) -> WernerFit:
    """Least-squares (lam, phase) fit of the mixed-state model.

    A coarse grid search (lam step 0.002 on [0, 1], phase step 0.01 on
    [0, pi)) picks the start; grid ties resolve to the smallest
    (lam, phase) pair. The grid objective sum_t w_t (c_t - v_t)^2 of a
    grid curve c is taken as N - 2 c.(w v), dropping the constant
    sum_t w_t v_t^2: the curves and their unit-weight norms
    N = sum_t c_t^2 are cached per theta grid, so an unweighted call
    costs one matrix-vector product over the grid, and a weighted one
    a second pass for its own N. A bounded, damped
    Newton iteration then refines (lam, c = cos phase) on [0, 1] x [-1, 1]
    with the analytic derivatives of model_curve (see _damped_newton). It
    accepts only steps that do not raise the objective, so the fit is
    never worse than its grid start, and it stops once a step moves both
    parameters by less than 1e-8. A fit on a bound reports the bound
    exactly. The curve depends on the phase only through c, so the
    reported phase is arccos c, in [0, pi]; at lam = 0 every phase gives
    the same curve, and both the start and the fit then take phase 0.
    Deterministic. Unweighted by default; ``weighted=True`` applies
    1/dv^2 weights (requires uncertainties on the curve). residual_sum
    is always the unweighted sum of squares.
    """
    if len(observed) < 2:
        raise ValueError("need at least two curve points to fit")
    thetas = observed.thetas
    v_obs = observed.v
    if weighted:
        if observed.dv is None:
            raise ValueError("weighted fit requires a curve with uncertainties")
        if observed.dv.min() <= 0.0:
            raise ValueError("weighted fit requires strictly positive uncertainties")
        weights = 1.0 / np.square(observed.dv)
    else:
        weights = np.ones_like(v_obs)

    key = tuple(float(t) for t in thetas)
    lam_grid, phase_grid = _coarse_grid(key)[:2]
    i, j = _grid_start(key, v_obs, weights if weighted else None)
    start_c = np.cos(phase_grid[j]) if lam_grid[i] > 0.0 else 1.0
    lam, c = _damped_newton(np.array([lam_grid[i], start_c]), thetas, v_obs, weights)
    phase = float(np.arccos(c)) if lam > 0.0 else 0.0
    residuals = model_curve(lam, phase, thetas) - v_obs
    return WernerFit(
        lam=lam,
        phase=phase,
        residual_sum=float((residuals**2).sum()),
        per_point_residuals=residuals,
    )


def _damped_newton(x, thetas, v_obs, weights):
    """Minimize f = sum(w r^2) over (lam, c) in [0, 1] x [-1, 1], starting from x.

    A parameter on a bound whose gradient points out of the box is held
    there for the step; the others take a Levenberg-Marquardt step,
    clipped to the box. Its Hessian is the Gauss-Newton term J'WJ plus
    the residual curvature sum(w r r''), which Gauss-Newton drops and
    without which the iteration zigzags across the narrow valley of a
    small-lam fit; its damping adds a multiple of diag(J'WJ). A step
    that raises f is refused and the damping grows until a step is
    accepted, or until the refused step moves less than _REFINE_TOL (x
    is then the minimum to within that). Returns (lam, c) as floats.
    """
    def evaluate(point):
        curve, jacobian, second = _curve_derivatives(point[0], point[1], thetas)
        r = curve - v_obs
        wr = weights * r
        gauss_newton = (jacobian.T * weights) @ jacobian
        hessian = gauss_newton + np.einsum("i,ijk->jk", wr, second)
        return float(r @ wr), jacobian.T @ wr, hessian, np.diag(gauss_newton)

    value, gradient, hessian, scale = evaluate(x)
    damping = 1e-3
    for _ in range(_MAX_STEPS):
        held = ((x <= _LOWER) & (gradient > 0.0)) | ((x >= _UPPER) & (gradient < 0.0))
        # A nonzero gradient entry needs a nonzero Jacobian column, so the
        # damping scale of every free parameter is positive.
        free = ~held & (gradient != 0.0)
        if not free.any():
            break
        h = hessian[np.ix_(free, free)]
        d = np.diag(scale[free])
        while True:
            trial = x.copy()
            trial[free] -= np.linalg.solve(h + damping * d, gradient[free])
            np.clip(trial, _LOWER, _UPPER, out=trial)
            moved = float(np.abs(trial - x).max())
            if moved > 0.0:
                evaluated = evaluate(trial)
                if evaluated[0] <= value or moved < _REFINE_TOL:
                    break
            damping *= 10.0
            if damping > _MAX_DAMPING:
                return float(x[0]), float(x[1])
        if evaluated[0] > value:
            break
        x = trial
        value, gradient, hessian, scale = evaluated
        damping = max(damping / 10.0, 1e-12)
        if moved < _REFINE_TOL:
            break
    return float(x[0]), float(x[1])
