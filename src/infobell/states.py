"""Quantum states, polarizer measurements, and entanglement metrics.

Conventions fixed here and used everywhere else:

* ``|0>`` is vertical polarization, ``|1>`` horizontal.
* Analyzer settings are Stokes angles. A polarizer rotated by ``t`` from
  vertical has Stokes angle ``2 t`` and is driven by a half-wave plate
  at ``t / 2``; only angle differences are physical, the absolute zero
  is a convention.
* The polarizer at Stokes angle ``a`` passes ``cos(a/2)|0> + sin(a/2)|1>``.
* Measurement outcomes are binary: 0 means the photon passed the
  analyzer, 1 that it went to the orthogonal port.

Every exact outcome table comes from one real Born-rule contraction,
``_born``. The state enters through its Pauli coefficients
R_a = Tr(rho sigma_a1 x ... x sigma_an) and each qubit's measurement
through its effect rows Tr(E_o sigma_a) = (1, +-r), so a table costs
O(n 4**n) real operations and no 2**n x 2**n product ket is built.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "MeasurementSetting",
    "PureState",
    "DensityMatrix",
    "JointDistribution",
    "EntanglementReport",
    "bell_state",
    "modified_werner",
    "polarizer_projector",
    "joint_probabilities",
    "partial_trace",
    "fidelity",
    "concurrence",
    "entanglement_report",
    "visibility",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
# Floor of a state's eigenvalues and of a table's entries; a state above it has tables above it.
PROBABILITY_FLOOR = -1e-12
NORM_TOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_SPIN_FLIP = np.kron(SIGMA_Y, SIGMA_Y)


_INT64_MAX = 2**63 - 1  # the one integer ceiling: every count must fit numpy's int64


def _bound(b: int) -> str:
    """An integer bound as text, with 2**k and 2**k - 1 written so from k = 32 on."""
    for power, tail in ((b, ""), (b + 1, " - 1")):
        if power >= 2**32 and not power & (power - 1):
            return f"2**{power.bit_length() - 1}{tail}"
    return str(b)


def _within(x, name: str, lo, hi):
    """``x`` within the inclusive bounds lo and hi (``hi`` only given with ``lo``), else a ValueError
    "{name} = {x} must be from {lo} to {hi}", or "must be at least {lo}" when ``hi`` is None."""
    if lo is not None and not (lo <= x and (hi is None or x <= hi)):
        allowed = f"at least {lo}" if hi is None else f"from {lo} to {_bound(hi)}"
        raise ValueError(f"{name} = {x} must be {allowed}")
    return x


def _integer(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a Python int through operator.index, within the inclusive bounds lo and hi.

    A bool or a non-integer, 350.0 included, is a TypeError "{name} =
    {value!r} is not an integer"; a value outside the bounds is the
    ValueError of _within.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} = {value!r} is not an integer") from None
    return _within(n, name, lo, hi)


def _real(value, name: str, lo: float | None = None, hi: float | None = None) -> float:
    """``value`` as a finite Python float, within the inclusive bounds lo and hi.

    A bool, a string or anything else that is not a numbers.Real is a
    TypeError "{name} = {value!r} is not a real number". NaN or an
    infinity is a ValueError "{name} = {x} is not finite", an int beyond
    float range a ValueError naming ``name``, and a value outside the
    bounds the ValueError of _within.
    """
    # float and int first: they cover Python and numpy float64 values, for which the ABC check
    # alone would cost several times the rest of the gate.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise TypeError(f"{name} = {value!r} is not a real number")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None
    if not math.isfinite(x):
        raise ValueError(f"{name} = {x} is not finite")
    return _within(x, name, lo, hi)


def _reals(values, name: str) -> tuple:
    """Each entry of a 1-d sequence through _real under ``name``; a bare number is a TypeError naming it."""
    if not np.iterable(values):
        raise TypeError(f"{name} = {values!r} is not a sequence of real numbers")
    return tuple(_real(v, name) for v in values)


def _held(values, dtype=float) -> np.ndarray:
    """A read-only ``dtype`` copy of ``values`` (``dtype`` None keeps theirs): the one way a value
    type keeps caller data, so a later edit of the caller's array cannot skip its checks."""
    held = np.array(values, dtype=dtype)
    held.flags.writeable = False
    return held


def _parties(selection, n: int) -> tuple:
    """One party index or an iterable of them as a tuple of Python ints, in the order given.

    Each index goes through _integer with bounds 0 and n - 1; an empty
    selection or a repeated index is a ValueError. Every error names the selection.
    """
    name = f"party selection {selection!r}"
    items = selection if np.iterable(selection) else (selection,)
    keep = tuple(_integer(k, f"{name}: index", 0, n - 1) for k in items)
    if not keep or len(set(keep)) != len(keep):
        raise ValueError(f"{name} must name at least one index, each once")
    return keep


def _stokes(setting, name: str) -> float:
    """The Stokes angle of a MeasurementSetting, or a bare angle in radians through _real under ``name``."""
    return setting.stokes_angle if isinstance(setting, MeasurementSetting) else _real(setting, name)


@dataclass(frozen=True)
class MeasurementSetting:
    """A linear-polarizer setting, stored as a Stokes angle in radians.

    The physical rotation of the polarizer from vertical is half the
    Stokes angle; the half-wave plate implementing that rotation sits at
    a quarter of it. Both views are exact halvings, so round trips
    through them are lossless.
    """

    stokes_angle: float

    def __post_init__(self):
        object.__setattr__(self, "stokes_angle", _real(self.stokes_angle, "stokes_angle"))

    @property
    def physical_angle(self) -> float:
        return self.stokes_angle / 2

    @property
    def hwp_angle(self) -> float:
        return self.stokes_angle / 4


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector on one or more qubits, held as a read-only complex copy."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _held(self.amplitudes, complex)
        object.__setattr__(self, "amplitudes", amps)
        dim = amps.shape[0] if amps.ndim == 1 else 0
        if dim < 2 or dim & (dim - 1):
            raise ValueError("amplitudes must be a 1-d vector of power-of-2 length")
        if not abs(np.vdot(amps, amps).real - 1.0) <= NORM_TOL:
            raise ValueError(f"squared norm {np.vdot(amps, amps).real!r} is not 1")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite matrix on n qubits.

    This is the one check on a state. ``n_qubits`` is stored as a Python
    int; the matrix must be finite, Hermitian and of trace one to 1e-10,
    with smallest eigenvalue at least -1e-12. Every instance in
    circulation is then a valid state, and its exact outcome tables are
    valid probability tables up to round-off. The matrix is held read-only
    (see _held), so the cached ``pauli_coefficients`` cannot go stale.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        n = _integer(self.n_qubits, "n_qubits", 1)
        mat = _held(self.matrix, complex)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "matrix", mat)
        dim = 2**n
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix for {n} qubit(s)")
        if not np.isfinite(mat).all():
            raise ValueError("matrix has non-finite entries")
        if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian")
        tr = complex(np.trace(mat))
        if abs(tr.real - 1.0) > TRACE_TOL or abs(tr.imag) > TRACE_TOL:
            raise ValueError(f"trace {tr if tr.imag else tr.real!r} is not 1")
        low = float(np.linalg.eigvalsh(mat)[0])
        if low < PROBABILITY_FLOOR:
            raise ValueError(f"matrix has a negative eigenvalue {low!r} beyond tolerance")

    @property
    def dim(self) -> int:
        return 2 ** self.n_qubits

    @functools.cached_property
    def pauli_coefficients(self) -> np.ndarray:
        """Read-only Pauli coefficients R of the state, shape (4,)*n, computed on first use."""
        coefficients = _pauli_coefficients(self.matrix)
        coefficients.flags.writeable = False
        return coefficients

    def purity(self) -> float:
        return float(np.vdot(self.matrix, self.matrix).real)

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "re": self.matrix.real.tolist(),
            "im": self.matrix.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DensityMatrix":
        mat = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
        return cls(payload["n_qubits"], mat)


def _density(rho, name: str = "rho") -> DensityMatrix:
    """``rho`` if it is a DensityMatrix, else a TypeError naming ``name``."""
    if not isinstance(rho, DensityMatrix):
        raise TypeError(f"{name} must be a DensityMatrix, not {type(rho).__name__}; "
                        "a PureState gives one through .density_matrix()")
    return rho


def _checked_probabilities(p: np.ndarray) -> np.ndarray:
    """The table ``p`` clamped at zero, once its entries are checked.

    Raises a ValueError naming the value unless every entry is at least
    PROBABILITY_FLOOR (NaN and -inf fail) and the clamped table sums to 1
    within TRACE_TOL (+inf fails).
    """
    low = float(p.min())
    if not low >= PROBABILITY_FLOOR:
        raise ValueError(f"negative or non-finite probability {low!r}")
    p = np.clip(p, 0.0, None)
    total = float(p.sum())
    if not abs(total - 1.0) <= TRACE_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return p


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Probability table over binary outcome tuples, one axis per party.

    Index 0 on an axis means that party's photon passed its analyzer,
    index 1 that it was blocked. Entries are clamped at zero (tiny
    negative floating-point noise is tolerated up to -1e-12) and the
    table must sum to 1 within 1e-10. The table is held read-only.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim < 1 or p.shape != (2,) * p.ndim:
            raise ValueError("probability table must have one binary axis per party")
        object.__setattr__(self, "probs", _held(_checked_probabilities(p)))

    @property
    def n_parties(self) -> int:
        return self.probs.ndim

    def marginal(self, parties) -> "JointDistribution":
        """Marginal over the named parties, in the order given."""
        keep = _parties(parties, self.probs.ndim)
        rest = tuple(a for a in range(self.probs.ndim) if a not in keep)
        arr = np.transpose(self.probs, keep + rest)
        if rest:
            arr = arr.reshape(arr.shape[: len(keep)] + (-1,)).sum(axis=-1)
        return JointDistribution(arr)


@dataclass(frozen=True)
class EntanglementReport:
    """Standard two-qubit state-quality numbers, each a Python float in [0, 1]."""

    fidelity: float
    tangle: float
    concurrence: float
    linear_entropy: float
    purity: float

    def __post_init__(self):
        for name in ("fidelity", "tangle", "concurrence", "linear_entropy", "purity"):
            value = _real(getattr(self, name), name)
            if not -1e-9 <= value <= 1.0 + 1e-9:
                raise ValueError(f"{name} = {value!r} outside [0, 1]")
            object.__setattr__(self, name, value)
        if abs(self.tangle - self.concurrence**2) > 1e-9:
            raise ValueError("tangle must equal concurrence squared")

    def to_json_dict(self) -> dict:
        return asdict(self)


_BELL_TABLE = {
    "phi+": (1, 0, 0, 1),
    "phi-": (1, 0, 0, -1),
    "psi+": (0, 1, 1, 0),
    "psi-": (0, 1, -1, 0),
}


def bell_state(kind: str = "phi+") -> PureState:
    """One of the four maximally entangled two-qubit states.

    ``kind`` is "phi+", "phi-", "psi+" or "psi-" (case-insensitive).
    """
    if not isinstance(kind, str):
        raise TypeError(f"kind = {kind!r} is not a string")
    key = kind.strip().lower()
    if key not in _BELL_TABLE:
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {sorted(_BELL_TABLE)}")
    return PureState(np.array(_BELL_TABLE[key], dtype=complex) / np.sqrt(2))


def modified_werner(lam: float, phase: float, n_qubits: int = 2) -> DensityMatrix:
    """Phase-tagged pure state mixed with white noise.

    rho = lam |psi><psi| + (1 - lam) / 2**n * identity, where
    |psi> = (|0...0> + exp(i*phase) |1...1>) / sqrt(2).

    Parameters
    ----------
    lam : float
        Mixing weight in [0, 1]; 1 is the pure state, 0 maximally mixed.
    phase : float
        Relative phase of the all-ones branch, radians.
    n_qubits : int
        Number of qubits (2 for the photon-pair model, 4 for the
        multipartite generalization).
    """
    lam, phase = _real(lam, "lam", 0, 1), _real(phase, "phase")
    n_qubits = _integer(n_qubits, "n_qubits", 1)
    dim = 2 ** n_qubits
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0 / np.sqrt(2.0)
    psi[-1] = np.exp(1j * phase) / np.sqrt(2.0)
    mat = lam * np.outer(psi, psi.conj()) + (1.0 - lam) / dim * np.eye(dim)
    return DensityMatrix(n_qubits, mat)


def polarizer_projector(setting) -> np.ndarray:
    """Rank-1 projector onto the pass state of a linear polarizer.

    For Stokes angle ``a`` the pass state is cos(a/2)|0> + sin(a/2)|1>
    with |0> vertical; the returned 2x2 matrix is idempotent and has
    unit trace by construction.
    """
    half = _stokes(setting, "setting") / 2.0
    c, s = math.cos(half), math.sin(half)
    return np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)


_PAULI_MAP = np.stack([np.eye(2), SIGMA_X, SIGMA_Y, SIGMA_Z]).transpose(0, 2, 1).reshape(4, 4)


def _pauli_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Pauli coefficients R[a1, ..., an] = Re Tr(rho sigma_a1 x ... x sigma_an), shape (4,)*n.

    rho = 2**-n sum_a R_a sigma_a1 x ... x sigma_an for Hermitian rho. The
    matrix is reshaped so that each qubit holds one (i, j) pair axis, and
    the fixed 4x4 map ``_PAULI_MAP`` (row a, column (i, j): rho[i, j] ->
    Tr(rho sigma_a), with sigma_0..3 = I, X, Y, Z) is applied to one qubit
    at a time; each application cycles the next qubit's axis to the front.
    """
    n = matrix.shape[-1].bit_length() - 1
    r = matrix.reshape((2,) * (2 * n)).transpose([axis for k in range(n) for axis in (k, n + k)])
    for _ in range(n):
        r = (_PAULI_MAP @ r.reshape(4, -1)).T
    return r.real.reshape((4,) * n)


def _qubit_rows(blochs: np.ndarray) -> np.ndarray:
    """Effect rows Tr(E_o sigma_a), shape (..., 2, 4), of qubit projectors (I + r.sigma)/2 and
    their complements from Bloch vectors r (..., 3): (1, r) for outcome 0 and (1, -r) for 1."""
    rows = np.empty(blochs.shape[:-1] + (2, 4))
    rows[..., 0] = 1.0
    rows[..., 0, 1:] = blochs
    np.negative(blochs, out=rows[..., 1, 1:])
    return rows


def _polarizer_rows(stokes) -> np.ndarray:
    """Party-major effect rows (n, ..., 2, 4) of polarizers at Stokes angles a of shape (..., n);
    the polarizer at Stokes angle a has Bloch vector (sin a, 0, cos a)."""
    angles = np.asarray(stokes, dtype=float)
    flat = angles.reshape(-1, angles.shape[-1]).T
    blochs = np.zeros(flat.shape + (3,))
    np.sin(flat, out=blochs[..., 0])
    np.cos(flat, out=blochs[..., 2])
    return _qubit_rows(blochs).reshape(angles.shape[-1:] + angles.shape[:-1] + (2, 4))


def _born(rows: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Born-rule outcome tables (m, n_outcomes, ..., n_outcomes) of one local measurement per party.

    ``rows`` (n, m, n_outcomes, d**2), party-major, hold Tr(E_o L_a) for
    an operator basis with L_0 = I and Tr(L_a L_b) = d delta_ab (Pauli
    for qubits); ``coefficients`` are R_a = Tr(rho L_a1 x ... x L_an).
    p(o) = d**-n sum_a R_a prod_k rows[k, :, o_k, a_k]: the first party is
    one GEMM against the shared R, each middle party a batched
    left-multiply, the last party one right-multiply per table by a
    contiguous transposed copy of its rows, which BLAS takes.
    """
    n, m, outcomes, size = rows.shape
    p = rows[0].reshape(m * outcomes, size) @ (math.sqrt(size) ** -n * coefficients).reshape(size, -1)
    for k in range(1, n - 1):
        p = rows[k, :, None] @ p.reshape(m, outcomes**k, size, size ** (n - 1 - k))
    if n > 1:
        p = p.reshape(m, outcomes ** (n - 1), size) @ np.ascontiguousarray(rows[-1].transpose(0, 2, 1))
    return p.reshape((m,) + (outcomes,) * n)


def _row_tables(rho: DensityMatrix, rows: np.ndarray) -> np.ndarray:
    """Outcome tables (..., 2, ..., 2), one binary axis per qubit, of party-major effect rows
    (n, ..., 2, 4) such as ``_polarizer_rows`` gives; round-off negatives are clipped to zero,
    and ``rho`` is a valid state, so the tables need no further check."""
    p = _born(rows.reshape(rows.shape[:1] + (-1,) + rows.shape[-2:]), rho.pauli_coefficients)
    return np.clip(p.reshape(rows.shape[1:-2] + p.shape[1:]), 0.0, None)


def _born_tables(rho: DensityMatrix, stokes) -> np.ndarray:
    """Outcome tables (..., 2, ..., 2) for Stokes angles of shape (..., n), one analyzer per qubit."""
    return _row_tables(rho, _polarizer_rows(stokes))


def joint_probabilities(rho: DensityMatrix, settings) -> JointDistribution:
    """Born-rule outcome table for one analyzer per qubit.

    Entry ``p[o1, ..., on]`` is Tr(rho M1^o1 x ... x Mn^on) with M^0 the
    pass projector for that party's setting and M^1 its complement.
    """
    _density(rho)
    settings = list(settings)
    if len(settings) != rho.n_qubits:
        raise ValueError(
            f"got {len(settings)} settings for {rho.n_qubits} qubit(s); need one per qubit"
        )
    return JointDistribution(_born_tables(rho, [_stokes(s, "settings") for s in settings]))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the qubits named in ``keep`` (0-based, kept in index order)."""
    n = _density(rho).n_qubits
    keep = _parties(keep, n)
    order = sorted(keep) + [i for i in range(n) if i not in keep]
    k = len(keep)
    tensor = rho.matrix.reshape((2,) * (2 * n)).transpose(order + [n + i for i in order])
    block = tensor.reshape(2**k, 2 ** (n - k), 2**k, 2 ** (n - k))
    return DensityMatrix(k, np.trace(block, axis1=1, axis2=3))


def fidelity(rho: DensityMatrix, target: PureState) -> float:
    """Overlap <target| rho |target> with a pure target state."""
    _density(rho)
    if not isinstance(target, PureState):
        raise TypeError("fidelity target must be a PureState")
    if target.dim != rho.dim:
        raise ValueError("state and target dimensions differ")
    amps = target.amplitudes
    return float(np.real(amps.conj() @ rho.matrix @ amps))


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state.

    Square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy) in
    decreasing order l1 >= ... >= l4 give C = max(0, l1 - l2 - l3 - l4).
    """
    if _density(rho).n_qubits != 2:
        raise ValueError("concurrence is defined for 2-qubit states")
    m = rho.matrix
    product = m @ _SPIN_FLIP @ m.conj() @ _SPIN_FLIP
    lam = np.sqrt(np.clip(np.linalg.eigvals(product).real, 0.0, None))
    lam = np.sort(lam)[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _clip01(x: float) -> float:
    return float(min(1.0, max(0.0, x)))


def entanglement_report(rho: DensityMatrix, target: PureState) -> EntanglementReport:
    """Fidelity to a pure target plus the standard entanglement metrics.

    Linear entropy uses the normalized convention (d/(d-1))(1 - Tr rho^2)
    with d = 4 so the value runs over the full [0, 1] range; tangle is
    the squared concurrence.
    """
    if _density(rho).n_qubits != 2:
        raise ValueError("entanglement report is defined for 2-qubit states")
    conc = _clip01(concurrence(rho))
    pur = _clip01(rho.purity())
    return EntanglementReport(
        fidelity=_clip01(fidelity(rho, target)),
        tangle=conc**2,
        concurrence=conc,
        linear_entropy=_clip01((4.0 / 3.0) * (1.0 - pur)),
        purity=pur,
    )


def visibility(rho: DensityMatrix, basis: str) -> float:
    """Coincidence-fringe visibility with one analyzer held fixed.

    Party A's analyzer is fixed in the named basis ("HV" means Stokes 0,
    "DA" Stokes pi/2) while party B's Stokes angle sweeps a full turn.
    The pass-pass probability is affine in (cos b, sin b), so its
    extrema follow exactly from four probe evaluations; the returned
    value is (max - min) / (max + min), or 0 when there is no signal.
    """
    if _density(rho).n_qubits != 2:
        raise ValueError("visibility is defined for 2-qubit states")
    if not isinstance(basis, str):
        raise TypeError(f"basis = {basis!r} is not a string")
    try:
        alpha = {"hv": 0.0, "da": np.pi / 2.0}[basis.strip().lower()]
    except KeyError:
        raise ValueError(f"basis must be 'HV' or 'DA', got {basis!r}") from None

    probes = [(alpha, beta) for beta in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)]
    p0, p90, p180, p270 = _born_tables(rho, probes)[:, 0, 0]
    offset = 0.5 * (p0 + p180)
    amp = np.hypot(0.5 * (p0 - p180), 0.5 * (p90 - p270))
    if offset + amp <= 0.0:
        return 0.0
    return float(amp / offset) if amp < offset else 1.0
