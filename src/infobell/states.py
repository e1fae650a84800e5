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
through the unit Bloch vector of its pass projector, so a table costs
O(n 4**n) real operations and no 2**n x 2**n product ket is built.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

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


def _integer(value, name: str) -> int:
    """``value`` as a Python int through operator.index; a bool or a
    non-integer, 350.0 included, is a TypeError that names ``name``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} = {value!r} is not an integer") from None


def _stokes(setting) -> float:
    """The Stokes angle of a MeasurementSetting, or of a bare angle in radians checked as one."""
    if not isinstance(setting, MeasurementSetting):
        setting = MeasurementSetting(float(setting))
    return float(setting.stokes_angle)


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
        if not math.isfinite(self.stokes_angle):
            raise ValueError(f"Stokes angle {self.stokes_angle!r} is not finite")

    @property
    def physical_angle(self) -> float:
        return self.stokes_angle / 2

    @property
    def hwp_angle(self) -> float:
        return self.stokes_angle / 4


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector on one or more qubits."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
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
    valid probability tables up to round-off. The instance holds its own
    read-only copy of the matrix, so neither that check nor the cached
    ``pauli_coefficients`` can go stale; build a new instance for a new
    matrix.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        n = operator.index(self.n_qubits)
        if n < 1:
            raise ValueError("n_qubits must be at least 1")
        mat = np.array(self.matrix, dtype=complex)
        mat.flags.writeable = False
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
    table must sum to 1 within 1e-10.
    """

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim < 1 or p.shape != (2,) * p.ndim:
            raise ValueError("probability table must have one binary axis per party")
        object.__setattr__(self, "probs", _checked_probabilities(p))

    @property
    def n_parties(self) -> int:
        return self.probs.ndim

    def marginal(self, parties) -> "JointDistribution":
        """Marginal over the named parties, in the order given."""
        keep = (parties,) if isinstance(parties, int) else tuple(parties)
        axes = range(self.probs.ndim)
        if not keep or len(set(keep)) != len(keep) or any(a not in axes for a in keep):
            raise ValueError(f"invalid party selection {parties!r}")
        rest = tuple(a for a in axes if a not in keep)
        arr = np.transpose(self.probs, keep + rest)
        if rest:
            arr = arr.reshape(arr.shape[: len(keep)] + (-1,)).sum(axis=-1)
        return JointDistribution(arr)


@dataclass(frozen=True)
class EntanglementReport:
    """Standard two-qubit state-quality numbers, all in [0, 1]."""

    fidelity: float
    tangle: float
    concurrence: float
    linear_entropy: float
    purity: float

    def __post_init__(self):
        for name in ("fidelity", "tangle", "concurrence", "linear_entropy", "purity"):
            value = getattr(self, name)
            if not -1e-9 <= value <= 1.0 + 1e-9:
                raise ValueError(f"{name} = {value!r} outside [0, 1]")
        if abs(self.tangle - self.concurrence**2) > 1e-9:
            raise ValueError("tangle must equal concurrence squared")

    def to_json_dict(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "tangle": self.tangle,
            "concurrence": self.concurrence,
            "linear_entropy": self.linear_entropy,
            "purity": self.purity,
        }


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
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda = {lam!r} outside [0, 1]")
    if not math.isfinite(phase):
        raise ValueError(f"phase = {phase!r} is not finite")
    n_qubits = _integer(n_qubits, "n_qubits")
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
    half = _stokes(setting) / 2.0
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


def _born(blochs: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Born-rule outcome tables of one projective measurement per qubit.

    ``blochs`` (..., n, 3) holds the unit Bloch vector r_k of each qubit's
    outcome-0 projector (I + r_k.sigma)/2; outcome 1 has -r_k.
    ``coefficients`` are the state's Pauli coefficients R, shape (4,)*n.
    Returns tables (..., 2, ..., 2) with one binary axis per qubit:
    p(o) = 2**-n sum_a R_a prod_k v_k[o_k, a_k] with v_k = ((1, r_k), (1, -r_k)).
    The first qubit is one GEMM against the shared R and each later qubit
    one batched matmul, so a table costs O(n 4**n) real operations.
    """
    batch, n = blochs.shape[:-2], blochs.shape[-2]
    m = math.prod(batch)
    v = np.ones((n, m, 2, 4))
    v[..., 1:] = blochs.reshape(m, n, 1, 3).transpose(1, 0, 2, 3) * [[1.0], [-1.0]]
    p = v[0].reshape(2 * m, 4) @ (0.5**n * coefficients).reshape(4, 4 ** (n - 1))
    for k in range(1, n):
        p = v[k, :, None] @ p.reshape(m, 2**k, 4, 4 ** (n - 1 - k))
    return p.reshape(batch + (2,) * n)


def _born_tables(rho: DensityMatrix, stokes) -> np.ndarray:
    """Outcome tables for Stokes angles of shape (..., n), one analyzer per qubit.

    The polarizer at Stokes angle ``a`` has Bloch vector (sin a, 0, cos a).
    Returns shape (..., 2, ..., 2) with one binary axis per qubit, with
    round-off negatives clipped to zero; ``rho`` is a valid state, so
    the tables need no further check.
    """
    stokes = np.asarray(stokes, dtype=float)
    blochs = np.zeros(stokes.shape + (3,))
    np.sin(stokes, out=blochs[..., 0])
    np.cos(stokes, out=blochs[..., 2])
    return np.clip(_born(blochs, rho.pauli_coefficients), 0.0, None)


def joint_probabilities(rho: DensityMatrix, settings) -> JointDistribution:
    """Born-rule outcome table for one analyzer per qubit.

    Entry ``p[o1, ..., on]`` is Tr(rho M1^o1 x ... x Mn^on) with M^0 the
    pass projector for that party's setting and M^1 its complement.
    """
    settings = list(settings)
    if len(settings) != rho.n_qubits:
        raise ValueError(
            f"got {len(settings)} settings for {rho.n_qubits} qubit(s); need one per qubit"
        )
    return JointDistribution(_born_tables(rho, [_stokes(s) for s in settings]))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the qubits named in ``keep`` (0-based, kept in index order)."""
    keep = (keep,) if isinstance(keep, int) else tuple(keep)
    n = rho.n_qubits
    if not keep or len(set(keep)) != len(keep) or any(not 0 <= k < n for k in keep):
        raise ValueError(f"invalid subsystem selection {keep!r} for {n} qubit(s)")
    order = sorted(keep) + [i for i in range(n) if i not in keep]
    k = len(keep)
    tensor = rho.matrix.reshape((2,) * (2 * n)).transpose(order + [n + i for i in order])
    block = tensor.reshape(2**k, 2 ** (n - k), 2**k, 2 ** (n - k))
    return DensityMatrix(k, np.trace(block, axis1=1, axis2=3))


def fidelity(rho: DensityMatrix, target: PureState) -> float:
    """Overlap <target| rho |target> with a pure target state."""
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
    if rho.n_qubits != 2:
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
    if rho.n_qubits != 2:
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
    if rho.n_qubits != 2:
        raise ValueError("visibility is defined for 2-qubit states")
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
