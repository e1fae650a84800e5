"""Shannon-entropy information geometry on measurement outcomes.

The central object is the Rokhlin-Rajski distance
D(A, B) = H(A|B) + H(B|A) = 2 H(A,B) - H(A) - H(B), a true metric on
jointly distributed random variables. Schumacher's single-angle
quadrilateral (Phys. Rev. A 44, 7047 (1991)) measures four such
distances between two settings per party; for entangled states the
direct edge can exceed the three-edge path, which no set of four
classical variables with a common joint distribution can do. The
multipartite area/volume functionals and their Monte Carlo "reactivity"
ratio generalize the same construction to four qubits.

All entropies are base 2 (bits); 0 log 0 counts as 0 and probabilities
below 1e-15 are treated as exact zeros.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .states import (DensityMatrix, JointDistribution, MeasurementSetting, _born, _born_tables,
                     _checked_probabilities, _density, _held, _integer, _polarizer_rows, _qubit_rows,
                     _real, _reals, _row_tables)

__all__ = [
    "REFERENCE_THETAS",
    "EDGE_NAMES",
    "QuadrilateralGeometry",
    "ViolationCurve",
    "MetricAxiomsReport",
    "ReactivityResult",
    "shannon_entropy",
    "conditional_entropy",
    "info_distance",
    "schumacher_settings",
    "quadrilateral",
    "violation",
    "sweep",
    "max_violation",
    "metric_axioms_check",
    "info_area",
    "info_volume",
    "reactivity",
    "stream_rng",
    "golden_section_min",
]

# Eight-angle reference grid for sweep demos, strictly increasing.
REFERENCE_THETAS = (0.175, 0.227, 0.279, 0.328, 0.393, 0.436, 0.471, 0.503)

_ZERO_CUTOFF = 1e-15


# The four measured edges, in schumacher_settings' layout: the sides (a1,b1), (a2,b1),
# (a2,b2), then the direct edge (a1,b2); and their Stokes angles (a, b) as multiples of theta.
EDGE_NAMES = ("a1b1", "a2b1", "a2b2", "a1b2")
_EDGE_MULTIPLES = np.array([(0.0, 1.0), (2.0, 1.0), (2.0, 3.0), (0.0, 3.0)])


def _entropies(p: np.ndarray, n_axes: int) -> np.ndarray:
    """Shannon entropies in bits of the tables held in the trailing ``n_axes`` axes."""
    lead = p.shape[: p.ndim - n_axes]
    flat = p.reshape(lead + (math.prod(p.shape[len(lead):]),))
    return -(flat * np.log2(np.where(flat > _ZERO_CUTOFF, flat, 1.0))).sum(axis=-1)


def _info_distances(p: np.ndarray) -> np.ndarray:
    """D = 2 H(A,B) - H(A) - H(B), clamped at zero, for tables of shape (..., 2, 2).

    One cell-wise pass: rows 0-3 of ``x`` hold each table's cells, rows
    4-7 its marginal cells x0+x1, x2+x3, x0+x2, x1+x3, and one x log2 x
    pass covers all eight. The rows are summed in the order in which
    ``_entropies``' ``.sum(axis=-1)`` adds fewer than eight cells, left to
    right, so D is bit for bit 2 H(p) - H(p.sum(-1)) - H(p.sum(-2)).
    """
    batch = p.shape[:-2]
    x = np.empty((8, math.prod(batch)))
    x[:4] = p.reshape(-1, 4).T
    np.add(x[0:4:2], x[1:4:2], out=x[4:6])
    np.add(x[0:2], x[2:4], out=x[6:8])
    t = x * np.log2(np.where(x > _ZERO_CUTOFF, x, 1.0))
    h_ab, h_a, h_b = -(t[0] + t[1] + t[2] + t[3]), -(t[4] + t[5]), -(t[6] + t[7])
    return np.maximum(0.0, (2.0 * h_ab - h_a - h_b).reshape(batch))


@functools.lru_cache(maxsize=None)
def _drop_one_map(n: int) -> np.ndarray:
    """Read-only 0/1 matrix (2**n, n * 2**(n-1)) whose block i sums party i out of a flat n-party table.

    Each marginal cell is the sum of two table cells, so a matrix product
    gives it bit for bit as ``p.sum(axis=i)`` does.
    """
    cells = np.eye(2**n).reshape((2,) * n + (2**n,))
    drop = np.concatenate([cells.sum(axis=i).reshape(-1, 2**n).T for i in range(n)], axis=1)
    drop.flags.writeable = False
    return drop


def _drop_one(flat: np.ndarray, n: int):
    """The n drop-one marginals of flat n-party tables (..., 2**n) and their entropies.

    Returns the marginals, shape (..., n, 2**(n-1)), row i with party i
    summed out, and their entropies, shape (..., n), from one x log2 x pass.
    """
    marginals = (flat.reshape(-1, 2**n) @ _drop_one_map(n)).reshape(flat.shape[:-1] + (n, 2 ** (n - 1)))
    return marginals, _entropies(marginals, 1)


@functools.lru_cache(maxsize=None)
def _others(n: int) -> np.ndarray:
    """Read-only index array (n, n - 1) whose row i lists the parties other than i, in order."""
    others = np.nonzero(~np.eye(n, dtype=bool))[1].reshape(n, n - 1)
    others.flags.writeable = False
    return others


def _content(h_all, h_rest: np.ndarray) -> np.ndarray:
    """Sum over parties of the product of the other parties' H(X_j | rest), bits^(n-1).

    H(X_j | rest) = h_all - h_rest[..., j], clamped at zero; n is the last
    axis of ``h_rest``. The products and their sum run in party order.
    """
    h = np.clip(np.expand_dims(h_all, -1) - h_rest, 0.0, None)
    return h[..., _others(h_rest.shape[-1])].prod(axis=-1).sum(axis=-1)


def _contents(p: np.ndarray, n: int) -> np.ndarray:
    """Information content of the binary n-party tables in the trailing n axes, bits^(n-1).

    The elementary symmetric polynomial e_(n-1) of the conditional
    entropies H(X_j | rest), each clamped at zero: the area for n = 3,
    the volume for n = 4, and defined the same way for any n >= 2. The
    drop-one marginals come from one product with a cached 0/1 map and
    their entropies from one pass, bit for bit what summing out each
    party in turn gives.
    """
    flat = p.reshape(p.shape[: p.ndim - n] + (2**n,))
    return _content(_entropies(flat, 1), _drop_one(flat, n)[1])


def shannon_entropy(dist) -> float:
    """Shannon entropy in bits of a distribution or bare probability table.

    A bare table needs at least one axis, finite entries of at least
    -1e-12 and a sum within 1e-10 of one, the checks of JointDistribution.
    """
    if isinstance(dist, JointDistribution):
        return float(_entropies(dist.probs, dist.n_parties))
    p = np.asarray(dist, dtype=float)
    if p.ndim < 1 or p.size == 0:
        raise ValueError(f"probability table {dist!r} needs at least one axis and one entry")
    return float(_entropies(_checked_probabilities(p), p.ndim))


def conditional_entropy(dist: JointDistribution, given) -> float:
    """H(rest | given) = H(all) - H(given); ``given`` is a party index or tuple (see marginal)."""
    return shannon_entropy(dist) - shannon_entropy(dist.marginal(given))


def info_distance(dist: JointDistribution) -> float:
    """Rokhlin-Rajski distance D = 2 H(A,B) - H(A) - H(B) in bits.

    Zero for identical variables, H(A) + H(B) for independent ones,
    symmetric under party swap, and a metric on any family of variables
    sharing one joint distribution.
    """
    if dist.n_parties != 2:
        raise ValueError("info_distance needs a two-party distribution")
    return float(_info_distances(dist.probs))


def schumacher_settings(theta: float, offset: float = 0.0):
    """Stokes angles (a1, a2, b1, b2) = (0, 2t, t, 3t), plus an optional common offset.

    A single angle theta generates both parties' setting pairs: the three
    side edges (a1,b1), (a2,b1), (a2,b2) each span a relative angle of
    theta, while the direct edge (a1,b2) spans 3 theta.
    """
    theta, offset = _real(theta, "theta"), _real(offset, "offset")
    return (
        MeasurementSetting(offset),
        MeasurementSetting(offset + 2.0 * theta),
        MeasurementSetting(offset + theta),
        MeasurementSetting(offset + 3.0 * theta),
    )


def _edge_angles(theta, offset: float = 0.0) -> np.ndarray:
    """Stokes-angle pairs of the four measured edges for an array of angles, shape (..., 4, 2)."""
    return offset + np.asarray(theta, dtype=float)[..., None, None] * _EDGE_MULTIPLES


def _edge_distances(rho: DensityMatrix, theta, offset: float = 0.0, rows=None) -> np.ndarray:
    """Exact (d_a1b1, d_a2b1, d_a2b2, d_a1b2) on the last axis, for an array of angles, or for the
    edges' effect rows when given (as _scan_grid holds them), which then stand in for the angles."""
    tables = _born_tables(rho, _edge_angles(theta, offset)) if rows is None else _row_tables(rho, rows)
    return _info_distances(tables)


def _violations(rho: DensityMatrix, theta, rows=None) -> np.ndarray:
    """V = D(a1,b2) - sum of the three sides, for an array of angles; rows as in _scan_grid."""
    d = _edge_distances(rho, theta, rows=rows)
    return d[..., 3] - (d[..., 0] + d[..., 1] + d[..., 2])


@dataclass(frozen=True)
class QuadrilateralGeometry:
    """Information distances (bits) on the four measured edges.

    d_a1b1, d_a2b1, d_a2b2 are the side edges; d_a1b2 is the direct base
    edge. The dd_* fields carry per-edge uncertainties when known
    (simulated or propagated runs) and stay None for exact model values.
    Each one given is held as a Python float.
    """

    d_a1b1: float
    d_a2b1: float
    d_a2b2: float
    d_a1b2: float
    dd_a1b1: float | None = None
    dd_a2b1: float | None = None
    dd_a2b2: float | None = None
    dd_a1b2: float | None = None

    def __post_init__(self):
        for edge in EDGE_NAMES:
            d, dd = _real(getattr(self, f"d_{edge}"), f"d_{edge}"), getattr(self, f"dd_{edge}")
            if not -1e-9 <= d <= 2.0 + 1e-9:
                raise ValueError(f"d_{edge} = {d!r} outside [0, 2]")
            object.__setattr__(self, f"d_{edge}", d)
            if dd is not None:
                object.__setattr__(self, f"dd_{edge}", _real(dd, f"dd_{edge}", 0))

    @property
    def edges(self) -> tuple:
        return (self.d_a1b1, self.d_a2b1, self.d_a2b2, self.d_a1b2)

    @property
    def sides(self) -> tuple:
        return (self.d_a1b1, self.d_a2b1, self.d_a2b2)

    @property
    def base(self) -> float:
        return self.d_a1b2

    @property
    def uncertainties(self) -> tuple | None:
        dds = (self.dd_a1b1, self.dd_a2b1, self.dd_a2b2, self.dd_a1b2)
        return None if any(dd is None for dd in dds) else dds

    @property
    def violation(self) -> float:
        """Direct edge minus the three-edge path; positive certifies violation."""
        return self.d_a1b2 - (self.d_a1b1 + self.d_a2b1 + self.d_a2b2)

    @property
    def violation_uncertainty(self) -> float | None:
        dds = self.uncertainties
        if dds is None:
            return None
        return float(np.sqrt(sum(dd * dd for dd in dds)))


def quadrilateral(rho: DensityMatrix, theta: float, offset: float = 0.0) -> QuadrilateralGeometry:
    """Exact Born-rule edge distances of the single-angle scheme at theta."""
    theta, offset = _real(theta, "theta"), _real(offset, "offset")
    return QuadrilateralGeometry(*map(float, _edge_distances(_density(rho), theta, offset)))


def violation(rho: DensityMatrix, theta: float, offset: float = 0.0) -> float:
    """Triangle-violation functional V = D(a1,b2) - sum of the three sides.

    Positive values cannot occur for outcomes of four classical variables
    with a common joint distribution (metric_axioms_check shows why); the
    quadrilateral evades the constraint because its diagonal pairs are
    never measured together.
    """
    return quadrilateral(rho, theta, offset).violation


@dataclass(frozen=True, eq=False)
class ViolationCurve:
    """Sequence of (theta, V, dV) points with strictly increasing theta, held read-only (see states._held)."""

    thetas: np.ndarray
    v: np.ndarray
    dv: np.ndarray | None = None

    def __post_init__(self):
        thetas, v = _held(self.thetas), _held(self.v)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "v", v)
        if thetas.ndim != 1 or thetas.shape != v.shape:
            raise ValueError("thetas and v must be 1-d arrays of equal length")
        if not (np.isfinite(thetas).all() and np.isfinite(v).all()):
            raise ValueError("thetas and v must be finite")
        if thetas.size >= 2 and not np.all(np.diff(thetas) > 0):
            raise ValueError("thetas must be strictly increasing")
        if self.dv is not None:
            dv = _held(self.dv)
            object.__setattr__(self, "dv", dv)
            if dv.shape != thetas.shape:
                raise ValueError("dv must match thetas in length")
            if not np.all(np.isfinite(dv) & (dv >= 0.0)):
                raise ValueError("dv entries must be finite and nonnegative")

    def __len__(self) -> int:
        return self.thetas.size

    def __iter__(self):
        for i in range(len(self)):
            yield (
                float(self.thetas[i]),
                float(self.v[i]),
                None if self.dv is None else float(self.dv[i]),
            )


def sweep(rho: DensityMatrix, thetas) -> ViolationCurve:
    """Exact violation curve over a strictly increasing list of angles."""
    thetas = np.array(_reals(thetas, "thetas"))
    return ViolationCurve(thetas, _violations(_density(rho), thetas))


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Golden-section minimizer on [lo, hi]; returns the abscissa.

    Derivative-free and fully deterministic. The bracket must be finite
    with lo <= hi, and ``tol`` finite and positive; both are checked
    before ``f`` is first called. The search stops once the bracket is
    no wider than ``tol``, or once it stops shrinking, which a bracket a
    few ulps wide does.
    """
    a = _real(lo, "lo")
    b, tol = _real(hi, "hi", a), _real(tol, "tol")
    if tol <= 0.0:
        raise ValueError(f"tol = {tol} must be positive")
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        width = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if b - a >= width:
            break
    return 0.5 * (a + b)


# Interior angles per refinement round of max_violation. A round is one
# _violations call, which costs about the same for 1 to 33 angles, and
# narrows the bracket (K + 1) / 2-fold, so a few wide rounds beat many
# narrow ones. K is even so that no round re-evaluates the bracket's
# centre, the best point so far: an odd K evaluates it again up to an ulp
# off, a neighbour too close for the vertex step. Median max_violation
# time on two-qubit Bell, Werner and Ginibre states (step 2.5e-3, tol
# 1e-6, one BLAS thread on a 2-core x86 host): 1.92 ms at K = 8, 1.63 at
# 16, 1.69 at 17, 1.96 at 32.
_REFINE_POINTS = 16
# Smallest spacing a refinement round uses, 2 sqrt(eps). V's round-off is
# about 4e-16; at this spacing V at the best point of a peak of curvature
# ~20 (phi+: 21.5) stands ~1e-14 above its neighbours, and rounds any
# finer let round-off pick the best point. The vertex step through the
# last resolved triple locates the peak better than such rounds do.
_MIN_SPACING = 2.0**-25


def _uniform_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The grid lo, lo + step, ..., ending at hi. hi follows a last point more than step / 1e6 short
    of it; a nearer last point, one short by arange's round-off or past hi, becomes hi, so no
    interval is a sliver that V's round-off would have to resolve."""
    grid = np.arange(lo, hi + step / 2.0, step)
    if hi - grid[-1] > 1e-6 * step:
        grid = np.append(grid, hi)
    grid[-1] = hi
    return grid


@functools.lru_cache(maxsize=4)
def _scan_grid(lo: float, hi: float, step: float) -> tuple:
    """max_violation's read-only _uniform_grid and the polarizer rows of its edge angles."""
    grid = _uniform_grid(lo, hi, step)
    rows = _polarizer_rows(_edge_angles(grid))
    grid.flags.writeable = rows.flags.writeable = False
    return grid, rows


def _parabola_vertex(t: np.ndarray, v: np.ndarray) -> float | None:
    """Abscissa of the parabola through three points, or None when they are collinear."""
    left, right = t[0] - t[1], t[2] - t[1]
    rise_left, rise_right = v[0] - v[1], v[2] - v[1]
    denominator = left * rise_right - right * rise_left
    if denominator == 0.0:
        return None
    return float(t[1] + 0.5 * (left * left * rise_right - right * right * rise_left) / denominator)


def max_violation(rho: DensityMatrix, lo: float = 0.1, hi: float = 0.6,
                  step: float = 1e-4, tol: float = 1e-6):
    """Locate the angle maximizing V by a dense scan plus batched bracket refinement.

    V is taken over the paper's polarizer family, x-z settings a = 0, 2
    theta and b = theta, 3 theta, so v_star answers for that apparatus and
    can lie below the state's best violation over all settings.
    The scan evaluates V on a grid of spacing ``step`` from lo, which
    always ends at hi, even where hi - lo is no multiple of ``step``;
    the best grid point and its neighbours bracket the peak. Each round
    then evaluates V at equally spaced interior points of the bracket in
    one batched call and shrinks the bracket to the best point seen so
    far, plus or minus one spacing. The rounds stop once the bracket is
    no wider than ``tol``, or once the next round's spacing would fall
    below 2**-25 (about 3e-8), where V's round-off rather than its shape
    would pick the best point; so for ``tol`` below 17 * 2**-25 (about
    5e-7) the final bracket can be wider than ``tol``. A last
    parabolic-vertex step through the best point and its two nearest
    evaluated neighbours, clipped to the bracket, is kept only if it
    does not lower V. When the best grid point is lo or hi, the search
    stops at that bound after the first round if V falls strictly away
    from the bound across the round's points, and the parabola through
    the bound and its two nearest points falls away from it too: a bound
    peak costs the scan and one round. That parabola's slope is trusted
    only where the round's spacing h has h**2 <= tol; h is at most
    step / 17, so every scan with step <= 17 sqrt(tol) (0.017 at the
    default ``tol``) may settle, and a coarser one refines a bound peak
    like any other.

    Returns (theta_star, v_star), the best evaluated point: v_star is
    never below any grid value, and a peak on a scan bound is returned
    at that bound. A scan needs step > 0 and hi >= lo; lo == hi scans
    one point. The grid and its edges' effect rows are cached read-only
    per (lo, hi, step), four grids at most, at 520 bytes per angle: 105 KB
    at step 2.5e-3, 2.6 MB at the default 1e-4.
    """
    _density(rho)
    lo = _real(lo, "lo")
    hi, step, tol = _real(hi, "hi", lo), _real(step, "step"), _real(tol, "tol")
    for name, value in (("step", step), ("tol", tol)):
        if value <= 0.0:
            raise ValueError(f"{name} = {value} must be positive")
    grid, rows = _scan_grid(lo, hi, step)
    thetas, values = [grid], [_violations(rho, grid, rows)]
    i = int(np.argmax(values[0]))
    best_t, best_v = grid[i], values[0][i]
    a, b = grid[max(0, i - 1)], grid[min(grid.size - 1, i + 1)]
    while b - a > tol:
        spacing = (b - a) / (_REFINE_POINTS + 1)
        if spacing < _MIN_SPACING:
            break
        points = a + spacing * np.arange(1, _REFINE_POINTS + 1)
        thetas.append(points)
        values.append(_violations(rho, points))
        if len(values) == 2 and i in (0, grid.size - 1) and spacing * spacing <= tol:
            # V0, V1, V2 are the bound and its two nearest points; (4 V1 - V2 - 3 V0) / (2 spacing)
            # is V's slope at the bound. V falling alone also passes a peak up to half a spacing
            # inside the bound: on phi+ at step 2.5e-3, a peak 1e-6 to 5e-5 inside it. The slope
            # is off by spacing^2 V'''/3, so a peak the test misses lies within about
            # spacing^2 |V'''/V''| / 3 of the bound, 1.1 spacing^2 at phi+'s peak: hence the
            # cap spacing^2 <= tol.
            away = np.append(best_v, values[1] if i == 0 else values[1][::-1])
            if np.all(np.diff(away) < 0.0) and 4.0 * away[1] - away[2] < 3.0 * away[0]:
                return float(best_t), float(best_v)
        j = int(np.argmax(values[-1]))
        if values[-1][j] > best_v:
            best_t, best_v = points[j], values[-1][j]
        a, b = max(a, best_t - spacing), min(b, best_t + spacing)
    t, first = np.unique(np.concatenate(thetas), return_index=True)
    v = np.concatenate(values)[first]
    k = int(np.searchsorted(t, best_t))
    if 0 < k < t.size - 1:
        vertex = _parabola_vertex(t[k - 1:k + 2], np.array([v[k - 1], best_v, v[k + 1]]))
        if vertex is not None:
            vertex = min(max(vertex, a), b)
            vertex_v = _violations(rho, vertex)
            if vertex_v >= best_v:
                best_t, best_v = vertex, vertex_v
    return float(best_t), float(best_v)


@dataclass(frozen=True)
class MetricAxiomsReport:
    """Residuals of the metric axioms on one classical three-party distribution."""

    max_symmetry_residual: float
    min_distance: float
    max_triangle_excess: float

    @property
    def ok(self) -> bool:
        return (
            self.max_symmetry_residual <= 1e-12
            and self.min_distance >= -1e-12
            and self.max_triangle_excess <= 1e-9
        )


def metric_axioms_check(dist: JointDistribution) -> MetricAxiomsReport:
    """Symmetry, nonnegativity and triangle residuals for all pairs of a triple.

    For any classical joint distribution these axioms hold identically;
    max_triangle_excess is the largest D(x,y) - D(x,z) - D(z,y) over the
    six ordered assignments and should never exceed numerical noise.
    """
    if dist.n_parties != 3:
        raise ValueError("metric_axioms_check needs a three-party distribution")
    d = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                d[i, j] = info_distance(dist.marginal((i, j)))
    symmetry = max(abs(d[i, j] - d[j, i]) for i in range(3) for j in range(i + 1, 3))
    triangle = max(
        d[i, j] - d[i, k] - d[k, j]
        for i in range(3)
        for j in range(3)
        for k in range(3)
        if len({i, j, k}) == 3
    )
    return MetricAxiomsReport(symmetry, min(d.values()), triangle)


def info_area(dist: JointDistribution) -> float:
    """Sum of pairwise products of the three conditional entropies H(X|rest), bits^2.

    Symmetric under party relabeling; 3 for independent uniform bits, 0
    for perfectly correlated ones.
    """
    if dist.n_parties != 3:
        raise ValueError("info_area needs a three-party distribution")
    return float(_contents(dist.probs, 3))


def info_volume(dist: JointDistribution) -> float:
    """Sum of the four triple products of conditional entropies H(X|rest), bits^3."""
    if dist.n_parties != 4:
        raise ValueError("info_volume needs a four-party distribution")
    return float(_contents(dist.probs, 4))


def _key_entry(value, name: str) -> int:
    """One entry of a stream key as a non-negative Python int (see states._integer)."""
    return _integer(value, f"stream key entry {name}", 0)


def _key_entries(stream) -> tuple:
    """The entries of a stream key, each checked by _key_entry."""
    return tuple(_key_entry(s, f"stream[{j}]") for j, s in enumerate(stream))


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Counter-keyed random stream.

    The same (seed, stream...) key always yields the same sequence, so
    samples drawn under different keys do not depend on evaluation order
    or interleaving. Key entries must be non-negative integers. Keys that
    differ only by trailing zeros within four 32-bit words in all give the
    same stream, because SeedSequence pads a short entropy pool with
    zeros: (7, 0) and (7, 0, 0, 0) draw the same numbers, while
    (7, 0, 0, 0, 0) does not. Other distinct keys are independent.
    """
    entropy = (_key_entry(seed, "seed"), *_key_entries(stream))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


# numpy.random.SeedSequence's hash constants (O'Neill's seed_seq_fe, pool of four 32-bit words).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(value) -> list:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it (0 is one word)."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """SeedSequence's running hash constants c_0 = init, ..., c_n with c_(k+1) = c_k * mult mod 2**32,
    as an (n + 1, 1) uint32 column: hash k xors its value with c_k and multiplies it by c_(k+1)."""
    consts = [init]
    for _ in range(n):
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _seed_sequence_keys(words: np.ndarray) -> np.ndarray:
    """Philox keys (m, 2) uint64 of m entropies given word-major, words[j, r] the j-th 32-bit word of entropy r.

    Row r gives SeedSequence(entropy).generate_state(2, np.uint64) for the
    entropy whose words are words[:, r]; ``words`` has at least four rows,
    zero rows padding a shorter entropy as SeedSequence pads its pool. The
    pool is one (4, m) uint32 array. Each mixing stage hashes its source
    word once per destination, with consecutive hash constants, and mixes
    all destination rows in one step: a stage's destinations never include
    its source, so they are independent. Arrays of uint32 wrap silently.
    """
    n_words = words.shape[0]
    const = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * n_words)

    def hashmix(value, c):
        """Hash row j of ``value`` with c[j] and c[j + 1], one row per hash of the stage."""
        value = (value ^ c[:-1]) * c[1:]
        return value ^ (value >> 16)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    pool = hashmix(words[:_POOL_SIZE], const[:_POOL_SIZE + 1])
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], const[k:k + _POOL_SIZE]))
        k += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, n_words):
        pool = mix(pool, hashmix(words[src], const[k:k + _POOL_SIZE + 1]))
        k += _POOL_SIZE

    state = hashmix(pool, _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)).astype(np.uint64)
    return np.stack([state[0] | (state[1] << np.uint64(32)), state[2] | (state[3] << np.uint64(32))], axis=-1)


def _stream_keys(seed: int, prefixes, shape: tuple) -> np.ndarray:
    """Philox keys, shape (len(prefixes), *shape, 2) uint64, of the streams (seed, *prefix, *index)
    for every prefix of ``prefixes`` and every index of ``shape``.

    The entry points have checked the seed and the prefix entries, and
    every prefix splits into the same number of 32-bit words. Each
    (prefix, index) gives exactly the key that stream_rng(seed, *prefix,
    *index) seeds its Philox with, computed for all of them in one
    vectorised pass of SeedSequence's hash: the seed and the prefix words
    are word rows constant along each prefix's block of columns, and each
    index axis is one row (no array has 2**32 rows).
    """
    n = math.prod(shape)
    heads = np.array([[word for entry in (seed, *prefix) for word in _words(entry)] for prefix in prefixes],
                     dtype=np.uint32).reshape(len(prefixes), -1)
    n_head = heads.shape[1]
    words = np.zeros((max(_POOL_SIZE, n_head + len(shape)), len(prefixes), n), dtype=np.uint32)
    words[:n_head] = heads.T[:, :, None]
    words[n_head:n_head + len(shape)] = np.indices(shape).reshape(len(shape), 1, n)
    return _seed_sequence_keys(words.reshape(words.shape[0], -1)).reshape(len(prefixes), *shape, 2)


def _streams(keys: np.ndarray):
    """Yield, for each Philox key of ``keys`` (..., 2) in C order, a Generator that draws
    what a Philox seeded with that key draws; _stream_keys gives the keys of stream_rng.

    One Philox bit generator is re-keyed in place for every key, by
    setting it to one state dict of plain Python ints in which only the
    key changes: a zero counter, an empty buffer (position 4, so the next
    draw computes a fresh block) and no buffered 32-bit half, exactly the
    state a newly seeded Philox starts in. The setter reads every field
    and never writes the dict. Plain ints make a re-key more than twice
    as cheap as the arrays of ``bitgen.state``, which the setter reads
    entry by entry as numpy scalars. Each yielded Generator is valid only
    until the next one is requested.
    """
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    philox = {"counter": [0, 0, 0, 0], "key": [0, 0]}
    state = {"bit_generator": "Philox", "state": philox, "buffer": [0, 0, 0, 0], "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for key in keys.reshape(-1, 2).tolist():
        philox["key"] = key
        bitgen.state = state
        yield rng


def _random_blochs(z: np.ndarray) -> np.ndarray:
    """Bloch vectors of uniformly random qubit pure states from Gaussian draws z of shape (..., 4).

    The normalized complex-Gaussian state (a, b) = (z0 + i z1, z2 + i z3) / |z|
    has Bloch vector (2 Re(a* b), 2 Im(a* b), |a|^2 - |b|^2); its orthogonal
    partner, the basis's other outcome, has the opposite vector. Shape (..., 3).
    """
    z0, z1, z2, z3 = z[..., 0], z[..., 1], z[..., 2], z[..., 3]
    r = np.stack([2.0 * (z0 * z2 + z1 * z3), 2.0 * (z0 * z3 - z1 * z2),
                  z0 * z0 + z1 * z1 - z2 * z2 - z3 * z3], axis=-1)
    return r / (z * z).sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class ReactivityResult:
    """Monte Carlo means of information area and volume, and their ratio.

    ``reactivity`` is mean_area / mean_volume (ratio of the means, not
    mean of ratios); a degenerate zero mean volume is flagged by an
    infinite reactivity instead of a division error. Every other
    reactivity goes through the real-number gate, as the means do.
    """

    mean_area: float
    mean_volume: float
    reactivity: float
    n_samples: int
    seed: int

    def __post_init__(self):
        for name in ("mean_area", "mean_volume"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0))
        object.__setattr__(self, "n_samples", _integer(self.n_samples, "n_samples", 1))
        object.__setattr__(self, "seed", _key_entry(self.seed, "seed"))
        flagged = self.mean_volume == 0.0 and isinstance(self.reactivity, float) and self.reactivity == np.inf
        object.__setattr__(self, "reactivity", np.inf if flagged else _real(self.reactivity, "reactivity", 0))
        if self.mean_volume > 0.0:
            expected = self.mean_area / self.mean_volume
            if not abs(self.reactivity - expected) <= 1e-12 * max(1.0, abs(expected)):
                raise ValueError("reactivity must equal mean_area / mean_volume")
        elif not flagged:
            raise ValueError("zero mean volume must be flagged as infinite reactivity")

    @property
    def volume_degenerate(self) -> bool:
        return not np.isfinite(self.reactivity)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "volume_degenerate": self.volume_degenerate}


def reactivity(rho: DensityMatrix, n_samples: int, seed: int) -> ReactivityResult:
    """Measurement-averaged area-to-volume ratio of a four-qubit state.

    For each sample one random projective basis per qubit is drawn, the
    16-outcome distribution computed, the four three-party face areas
    averaged, and the four-party volume evaluated. The faces are the
    volume's drop-one marginals: one product with the cached drop-one map
    gives them and their entropies serve the volume; one more drop-one
    pass over the faces gives the areas. Means are taken over samples
    first and the ratio last. The sample-i stream depends only on
    (seed, i), so the result is independent of evaluation order and
    repeats bit-identically for a fixed seed. ``n_samples`` (at least 1)
    and ``seed`` (non-negative) may be any integer type but bool, and are
    checked as ReactivityResult checks them, before any work; the result
    holds them as Python ints.
    """
    return _reactivities([rho], n_samples, seed)[0]


def _reactivities(rhos, n_samples: int, seed: int) -> list:
    """reactivity of each four-qubit state of ``rhos`` on one set of bases: the same (n_samples,
    seed) draws the same bases for every state, so a scan draws them once."""
    n_samples, seed = _integer(n_samples, "n_samples", 1), _key_entry(seed, "seed")
    rhos = [_density(rho) for rho in rhos]
    if any(rho.n_qubits != 4 for rho in rhos):
        raise ValueError("reactivity is implemented for 4-qubit states")
    z = np.empty((n_samples, 4, 4))
    for zi, rng in zip(z, _streams(_stream_keys(seed, [()], (n_samples,)))):
        rng.standard_normal(out=zi)
    rows = _qubit_rows(_random_blochs(z.transpose(1, 0, 2)))
    results = []
    for rho in rhos:
        p = _born(rows, rho.pauli_coefficients).reshape(-1, 16)
        np.maximum(p, 0.0, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        faces, h_faces = _drop_one(p, 4)
        mean_area = float(_content(h_faces, _drop_one(faces, 3)[1]).mean(axis=-1).mean())
        mean_volume = float(_content(_entropies(p, 1), h_faces).mean())
        ratio = mean_area / mean_volume if mean_volume > 0.0 else float("inf")
        results.append(ReactivityResult(mean_area, mean_volume, ratio, n_samples, seed))
    return results
