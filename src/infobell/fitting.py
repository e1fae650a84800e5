"""Least-squares fit of the two-parameter mixed-state model to a violation curve.

The model family is modified_werner(lam, phase); its violation curve has
a closed form (see model_curve) that makes the grid search for the start
cheap.
The generic Born-rule route through infogeo.violation remains the
definition; tests keep the two in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .infogeo import _EDGE_MULTIPLES, ViolationCurve
from .states import _held, _real, _reals

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
# Values per temporary array of a blockwise pass: model_curve's blocks of
# (lam, phase) points, the block rows of the bound build (see _row_blocks)
# and the chunks of cells of the start search. At 64 KB a temporary stays
# below glibc's default 128 KB mmap threshold, so successive blocks reuse
# heap memory instead of faulting in fresh pages.
_BLOCK_VALUES = 1 << 13
# The axes of the start grid: lam on [0, 1], the phase on [0, pi) and
# c = cos phase. The model depends on the phase only through c, so these
# phases cover every curve the full circle gives.
_GRID_LAM = np.arange(0.0, 1.0 + LAMBDA_STEP / 2.0, LAMBDA_STEP)
_GRID_PHASE = np.arange(0.0, np.pi, PHASE_STEP)
_GRID_COS = np.cos(_GRID_PHASE)
# Grid cells per side of the fine and the coarse blocks of the start
# search (a coarse block is _COARSE_BLOCKS x _COARSE_BLOCKS fine ones),
# the padding of each block's V range, far above the round-off of an
# edge sum, and the relative slack of the pruning test, far above the
# round-off of a lower bound.
_FINE_CELLS = 4
_COARSE_BLOCKS = 4
_RANGE_PAD = 1e-12
_PRUNE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class WernerFit:
    """Fitted (lam, phase) with the residuals of the final model curve.

    Every number passes the real-number gate, so a bool, a NaN or an
    infinity is refused; the numbers are held as Python floats and the
    residuals as a read-only array.
    """

    lam: float
    phase: float
    residual_sum: float
    per_point_residuals: np.ndarray

    def __post_init__(self):
        residuals = _held(_reals(self.per_point_residuals, "per_point_residuals"))
        object.__setattr__(self, "per_point_residuals", residuals)
        object.__setattr__(self, "residual_sum", _real(self.residual_sum, "residual_sum", 0))
        object.__setattr__(self, "lam", _real(self.lam, "lam", 0, 1))
        object.__setattr__(self, "phase", _real(self.phase, "phase"))
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
    lam, cph = lam.reshape(-1), cph.reshape(-1)
    edges = _edge_table(th)
    curves = np.empty((len(lam), th.size))
    for rows in _row_blocks(len(lam), 4 * th.size):
        curves[rows] = _curves(lam[rows], cph[rows], edges)
    return curves.reshape(shape)


def _curves(lam, c, edges):
    """model_curve at the points (lam[k], c[k] = cos phase), 1-d arrays, on
    the theta grid of the edge table ``edges``; shape (k, n)."""
    cc, ss = edges
    lam, c = lam[:, None, None], c[:, None, None]
    return _edge_sum((1.0 + lam * (cc + c * ss)) / 2.0)


def _curve_derivatives(lam: float, c: float, edges):
    """model_curve at (lam, phase = arccos c) with its first and second
    derivatives by (lam, c), on the theta grid of the edge table ``edges``.

    An edge is 2 H2(q) with q = (1 + lam K)/2, K linear in c. With
    L = log2((1 - q)/q) = H2'(q) and L' = -1/(ln 2 q (1 - q)), its
    gradient is (K L, lam s L) and its Hessian is
    [[K^2 L'/2, s L + lam s K L'/2], [., lam^2 s^2 L'/2]], s = sin a sin b.
    q is kept a hair inside (0, 1) for L and L' only, so both stay finite
    on a pure state. Returns arrays of shapes (n,), (n, 2) and (n, 2, 2).
    """
    cc, s = edges
    k = cc + c * s
    q = (1.0 + lam * k) / 2.0
    curve = _edge_sum(q)
    q = np.clip(q, _Q_FLOOR, 1.0 - _Q_FLOOR)
    slope = _SIGN * np.log((1.0 - q) / q) / _LN2
    bend = -_SIGN / (2.0 * _LN2 * q * (1.0 - q))
    jacobian = np.stack(((k * slope).sum(axis=0), (lam * s * slope).sum(axis=0)), axis=-1)
    hessian = np.empty((cc.shape[1], 2, 2))
    hessian[:, 0, 0] = (k * k * bend).sum(axis=0)
    hessian[:, 0, 1] = hessian[:, 1, 0] = (s * slope + lam * s * k * bend).sum(axis=0)
    hessian[:, 1, 1] = (lam * lam * s * s * bend).sum(axis=0)
    return curve, jacobian, hessian


@dataclass(frozen=True, eq=False)
class _StartGrid:
    """What a fit on one theta grid reads: its edge table, and bounds on
    the model curves over blocks of cells of the start grid.

    ``fine`` and ``coarse`` hold the (centre, half-width) of each theta's
    V over every block of _FINE_CELLS and of _FINE_CELLS * _COARSE_BLOCKS
    cells a side, each of shape (block rows, block columns, n); a last
    block row or column may hold fewer cells.
    """

    edges: tuple
    fine: tuple
    coarse: tuple


@lru_cache(maxsize=4)
def _start_grid(thetas: tuple) -> _StartGrid:
    """The edge table and block bounds of a theta grid, cached per theta grid.

    An edge's q = (1 + lam (cc + c ss))/2 is bilinear in (lam, c), and c
    falls with the phase, so q's range over a block is that over its four
    corner cells. Each edge's range follows from its q range (see
    _edge_range), and V's range is the sum of the signed edges' ranges,
    padded by _RANGE_PAD for round-off. The fine bounds are built a few
    block rows at a time, so no temporary spans the grid, and each coarse
    range is the hull of its fine ranges.
    """
    edges = _edge_table(np.array(thetas))
    cc, ss = edges
    # K = cc + c ss of every edge over each block of columns, from its first
    # and last column, each of shape (block columns, 4, n).
    first, last = _block_ends(_GRID_COS.size)
    k_first, k_last = cc + _GRID_COS[first, None, None] * ss, cc + _GRID_COS[last, None, None] * ss
    k_lo, k_hi = np.minimum(k_first, k_last), np.maximum(k_first, k_last)
    first, last = _block_ends(_GRID_LAM.size)
    lo = np.empty((first.size, k_lo.shape[0], len(thetas)))
    hi = np.empty_like(lo)
    for rows in _row_blocks(first.size, k_lo.size):
        # lam >= 0, so lam K is least at the block's first or last row at
        # K's least value, and greatest at one of them at K's greatest.
        lam_a, lam_b = _GRID_LAM[first[rows], None, None, None], _GRID_LAM[last[rows], None, None, None]
        q_lo = (1.0 + np.minimum(lam_a * k_lo, lam_b * k_lo)) / 2.0
        q_hi = (1.0 + np.maximum(lam_a * k_hi, lam_b * k_hi)) / 2.0
        least, most = _edge_range(q_lo, q_hi)
        lo[rows] = (_SIGN * np.where(_SIGN > 0.0, least, most)).sum(axis=-2)
        hi[rows] = (_SIGN * np.where(_SIGN > 0.0, most, least)).sum(axis=-2)
    starts = [np.arange(0, size, _COARSE_BLOCKS) for size in lo.shape[:2]]
    coarse = tuple(hull.reduceat(hull.reduceat(a, starts[0], axis=0), starts[1], axis=1)
                   for hull, a in ((np.minimum, lo), (np.maximum, hi)))
    for low, high in ((lo, hi), coarse):
        # In place, (low, high) becomes (centre, half-width + pad).
        high -= low
        high *= 0.5
        low += high
        high += _RANGE_PAD
    return _StartGrid(edges, (lo, hi), coarse)


def _edge_range(q_lo, q_hi):
    """Least and greatest edge 2 H2(q) over q in [q_lo, q_hi], elementwise.
    H2 is concave with its maximum 1 at q = 1/2, so the least is at an
    end, and so is the greatest unless the range holds 1/2."""
    h_lo, h_hi = _binary_entropy(q_lo), _binary_entropy(q_hi)
    most = np.where((q_lo <= 0.5) & (q_hi >= 0.5), 1.0, np.maximum(h_lo, h_hi))
    return 2.0 * np.minimum(h_lo, h_hi), 2.0 * most


def _block_ends(cells: int):
    """Indices of the first and last cell of each block of _FINE_CELLS
    consecutive cells out of ``cells``; the last block may be shorter."""
    first = np.arange(0, cells, _FINE_CELLS)
    return first, np.minimum(first + _FINE_CELLS - 1, cells - 1)


def _members(rows, cols, side: int, shape: tuple):
    """Row and column indices of the cells of the blocks (rows[k], cols[k])
    of side x side cells of a grid of ``shape``, block by block and in C
    order within a block; cells beyond the grid are left out."""
    d_row, d_col = np.divmod(np.arange(side * side), side)
    i = (rows[:, None] * side + d_row).ravel()
    j = (cols[:, None] * side + d_col).ravel()
    inside = (i < shape[0]) & (j < shape[1])
    return i[inside], j[inside]


def _lower_bound(bounds, v_obs, weights):
    """sum_t w_t max(|v_t - centre_t| - half_t, 0)^2 of each block of
    ``bounds`` = (centre, half-width): no cell of the block has a smaller
    objective."""
    centre, half = bounds
    gap = np.abs(v_obs - centre)
    gap -= half
    np.maximum(gap, 0.0, out=gap)
    return np.square(gap) @ weights


def _best_cell(grid: _StartGrid, rows, cols, v_obs, weights) -> tuple:
    """(objective, flat index) of the first cell in C order of least
    objective sum_t w_t (c_t - v_t)^2 among the cells of the fine blocks
    (rows[k], cols[k]). Each objective is a row sum of its own, so equal
    curves give equal objectives wherever they lie in the grid."""
    i, j = _members(rows, cols, _FINE_CELLS, (_GRID_LAM.size, _GRID_COS.size))
    curves = _curves(_GRID_LAM[i], _GRID_COS[j], grid.edges)
    objective = (np.square(curves - v_obs) * weights).sum(axis=1)
    least = objective.min()
    return float(least), int((i * _GRID_COS.size + j)[objective == least].min())


def _grid_start(thetas: tuple, v_obs, weights) -> tuple:
    """(lam, phase) indices of the start grid cell of least objective
    sum_t w_t (c_t - v_t)^2; ties go to the first cell in C order.

    A branch and bound over the block bounds of _start_grid returns the
    same cell as a scan of every cell. No cell of a fine block has an
    objective above the block's upper bound sum_t w_t (|v_t - centre_t|
    + half_t)^2. The least upper bound over the fine blocks of the coarse
    block of least lower bound thus caps the minimum, and only the coarse
    blocks whose lower bound does not exceed it can hold it. Their fine
    blocks are evaluated exactly in order of their lower bound, a chunk
    at a time, each chunk lowering the incumbent, until the next bound
    exceeds it. Every comparison with a cap allows a relative slack of
    _PRUNE_SLACK.
    """
    grid = _start_grid(thetas)
    coarse = _lower_bound(grid.coarse, v_obs, weights)

    def fine_blocks(coarse_rows, coarse_cols):
        rows, cols = _members(coarse_rows, coarse_cols, _COARSE_BLOCKS, grid.fine[0].shape)
        return rows, cols, [a[rows, cols] for a in grid.fine]

    centre, half = fine_blocks(*np.unravel_index([np.argmin(coarse)], coarse.shape))[2]
    upper = float((np.square(np.abs(v_obs - centre) + half) @ weights).min())
    rows, cols, bounds = fine_blocks(*np.nonzero(coarse <= upper * (1.0 + _PRUNE_SLACK)))
    lower = _lower_bound(bounds, v_obs, weights)
    order = np.argsort(lower, kind="stable")
    rows, cols, lower = rows[order], cols[order], lower[order]
    chunk = max(1, _BLOCK_VALUES // (_FINE_CELLS**2 * grid.edges[0].size))
    best, start = (np.inf, 0), 0
    while True:
        stop = min(start + chunk, int(np.searchsorted(lower, best[0] * (1.0 + _PRUNE_SLACK), side="right")))
        if stop <= start:
            return np.unravel_index(best[1], (_GRID_LAM.size, _GRID_COS.size))
        best = min(best, _best_cell(grid, rows[start:stop], cols[start:stop], v_obs, weights))
        start = stop


def fit_werner(observed: ViolationCurve, weighted: bool = False) -> WernerFit:
    """Least-squares (lam, phase) fit of the mixed-state model.

    A grid search (lam step 0.002 on [0, 1], phase step 0.01 on [0, pi))
    picks the start: the grid cell of least sum_t w_t (c_t - v_t)^2, ties
    going to the smallest (lam, phase) pair. It is a branch and bound
    (see _grid_start) over bounds on the model curves of 4 x 4 and
    16 x 16 blocks of cells, cached per theta grid with the grid's edge
    table: it evaluates only the cells whose block a lower bound cannot
    rule out, and returns the same cell as a scan of every cell. Unit and
    1/dv^2 weights take the same path. A bounded, damped Newton iteration
    then refines (lam, c = cos phase) on [0, 1] x [-1, 1] with the
    analytic derivatives of model_curve (see _damped_newton), and the
    residuals are model_curve's, both read from the same cached table. It
    accepts only steps that do not raise the objective, so the fit is
    never worse than its grid start, and it stops once a step moves both
    parameters by less than 1e-8. A fit on a bound reports the bound
    exactly. The curve depends on the phase only through c, so the
    reported phase is arccos c, in [0, pi]; at lam = 0 every phase gives
    the same curve, and both the start and the fit then take phase 0.
    Deterministic. Unweighted by default; ``weighted=True`` applies
    1/dv^2 weights (requires uncertainties on the curve, each with
    1/dv^2 a finite positive float, so dv from about 1e-154 to 1e154).
    residual_sum is always the unweighted sum of squares.
    """
    if len(observed) < 2:
        raise ValueError("need at least two curve points to fit")
    v_obs = observed.v
    if weighted:
        if observed.dv is None:
            raise ValueError("weighted fit requires a curve with uncertainties")
        with np.errstate(divide="ignore", over="ignore"):
            weights = 1.0 / np.square(observed.dv)
        usable = np.isfinite(weights) & (weights > 0.0)
        if not usable.all():
            bad = float(observed.dv[~usable][0])
            raise ValueError(f"weighted fit requires 1/dv^2 finite and positive, got dv = {bad!r}")
    else:
        weights = np.ones_like(v_obs)

    key = tuple(float(t) for t in observed.thetas)
    edges = _start_grid(key).edges
    i, j = _grid_start(key, v_obs, weights)
    start = np.array([_GRID_LAM[i], _GRID_COS[j] if i > 0 else 1.0])
    lam, c = _damped_newton(start, edges, v_obs, weights)
    phase = float(np.arccos(c)) if lam > 0.0 else 0.0
    residuals = _curves(np.array([lam]), np.array([np.cos(phase)]), edges)[0] - v_obs
    return WernerFit(
        lam=lam,
        phase=phase,
        residual_sum=float((residuals**2).sum()),
        per_point_residuals=residuals,
    )


def _damped_newton(x, edges, v_obs, weights):
    """Minimize f = sum(w r^2) over (lam, c) in [0, 1] x [-1, 1], starting
    from x, on the theta grid of the edge table ``edges``.

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
        curve, jacobian, second = _curve_derivatives(point[0], point[1], edges)
        r = curve - v_obs
        wr = weights * r
        gauss_newton = (jacobian.T * weights) @ jacobian
        hessian = gauss_newton + np.einsum("i,ijk->jk", wr, second)
        return float(r @ wr), jacobian.T @ wr, hessian, gauss_newton.diagonal()

    value, gradient, hessian, scale = evaluate(x)
    damping = 1e-3
    for _ in range(_MAX_STEPS):
        held = ((x <= _LOWER) & (gradient > 0.0)) | ((x >= _UPPER) & (gradient < 0.0))
        # A nonzero gradient entry needs a nonzero Jacobian column, so the
        # damping scale of every free parameter is positive.
        free = ~held & (gradient != 0.0)
        if not free.any():
            break
        if free.all():
            h, d, g = hessian, scale, gradient
        else:
            h, d, g = hessian[np.ix_(free, free)], scale[free], gradient[free]
        while True:
            damped = h.copy()
            damped.reshape(-1)[::d.size + 1] += damping * d
            trial = x.copy()
            trial[free] -= np.linalg.solve(damped, g)
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
