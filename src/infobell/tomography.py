"""Two-qubit polarization state tomography and CHSH evaluation.

Reconstruction runs on the standard informationally complete set of 16
coincidence modes. Linear inversion gives a fast estimate that can leave
the physical set (negative eigenvalues at finite counts); the maximum
likelihood step reparameterizes the state as T'T / Tr(T'T) with T
lower-triangular, which is positive by construction, and maximizes the
Poisson likelihood of the observed counts with the overall count scale
profiled out analytically.

Circular polarization uses R = (H - iV)/sqrt(2), L = (H + iV)/sqrt(2),
one of the two standard sign conventions; it matters for the sign of
imaginary off-diagonal elements, so it is fixed here once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    DensityMatrix,
    EntanglementReport,
    MeasurementSetting,
    PureState,
    _born,
    _born_tables,
    _stokes,
    bell_state,
    entanglement_report,
)

__all__ = [
    "MODE_LABELS",
    "OPTIMAL_BELL_SETTINGS",
    "TomoDataset",
    "TomographyResult",
    "TomographyError",
    "mode_probabilities",
    "expected_counts",
    "linear_inversion",
    "mle_reconstruct",
    "correlation",
    "chsh",
]

KET_V = np.array([1.0, 0.0], dtype=complex)
KET_H = np.array([0.0, 1.0], dtype=complex)
KET_D = (KET_H + KET_V) / np.sqrt(2.0)
KET_R = (KET_H - 1j * KET_V) / np.sqrt(2.0)
KET_L = (KET_H + 1j * KET_V) / np.sqrt(2.0)

_KETS = {"H": KET_H, "V": KET_V, "D": KET_D, "R": KET_R, "L": KET_L}

MODE_LABELS = (
    "HH", "HV", "VV", "VH", "RH", "RV", "DV", "DH",
    "DR", "DD", "RD", "HD", "VD", "VL", "HL", "RL",
)

_MODE_STATES = np.array([np.kron(_KETS[lbl[0]], _KETS[lbl[1]]) for lbl in MODE_LABELS])

# CHSH settings maximizing |S| for an ideal Bell state (Stokes angles).
OPTIMAL_BELL_SETTINGS = (
    MeasurementSetting(0.0),
    MeasurementSetting(np.pi / 2.0),
    MeasurementSetting(np.pi / 4.0),
    MeasurementSetting(3.0 * np.pi / 4.0),
)


class TomographyError(RuntimeError):
    """Tomography data cannot be processed."""


@dataclass(frozen=True, eq=False)
class TomoDataset:
    """Coincidence counts for the 16 modes, aligned with MODE_LABELS."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        object.__setattr__(self, "counts", counts)
        if counts.shape != (16,) or not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be 16 integers aligned with MODE_LABELS")
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")

    @classmethod
    def from_mapping(cls, mapping) -> "TomoDataset":
        missing = [lbl for lbl in MODE_LABELS if lbl not in mapping]
        extra = sorted(set(mapping) - set(MODE_LABELS))
        if missing or extra:
            raise ValueError(f"bad mode labels; missing {missing}, unexpected {extra}")
        return cls(np.array([int(mapping[lbl]) for lbl in MODE_LABELS], dtype=np.int64))

    @classmethod
    def from_csv(cls, path) -> "TomoDataset":
        """Read rows of "label,counts"; comment lines (#) and an optional
        header row are skipped."""
        mapping = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                label, sep, value = line.partition(",")
                label = label.strip().upper()
                if not sep:
                    raise ValueError(f"line {lineno}: expected 'label,counts', got {raw!r}")
                if label == "LABEL":
                    continue
                if label in mapping:
                    raise ValueError(f"line {lineno}: duplicate mode {label}")
                try:
                    mapping[label] = int(value.strip())
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: bad count {value!r}") from exc
        return cls.from_mapping(mapping)

    def to_csv(self) -> str:
        lines = ["# infobell tomo counts v1", "label,counts"]
        lines += [f"{lbl},{int(n)}" for lbl, n in zip(MODE_LABELS, self.counts)]
        return "\n".join(lines) + "\n"


def expected_counts(rho: DensityMatrix, per_basis: int) -> TomoDataset:
    """Noise-free dataset: expected counts round(per_basis * p_i) for each mode."""
    p = mode_probabilities(rho.matrix)
    return TomoDataset(np.round(per_basis * p).astype(np.int64))


def mode_probabilities(rho_matrix: np.ndarray) -> np.ndarray:
    """p_i = <s_i| rho |s_i> for the 16 mode projection states."""
    return _born(_MODE_STATES, rho_matrix)


def linear_inversion(data: TomoDataset) -> np.ndarray:
    """Direct inversion of the 16 mode expectations.

    Returns a Hermitian trace-one matrix that may have negative
    eigenvalues at finite counts; the MLE step restores physicality.
    The count scale comes from the first four modes (HH, HV, VV, VH),
    a complete basis whose probabilities sum to one.
    """
    scale = float(data.counts[:4].sum())
    if scale <= 0:
        raise TomographyError("cannot set the count scale: HV-basis modes are all empty")
    phat = data.counts / scale
    design = np.einsum("oi,oj->oij", _MODE_STATES.conj(), _MODE_STATES).reshape(16, 16)
    rho = np.linalg.solve(design, phat).reshape(4, 4)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


_LOWER_OFFDIAG = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))
_ROWS, _COLS = np.array(_LOWER_OFFDIAG).T
_FLIP = np.eye(4)[::-1]
_PROBABILITY_FLOOR = 1e-12


def _chart(t: np.ndarray):
    """(T, rho, Tr(T'T)) for the 16 real parameters of a lower-triangular T.

    The parameters are T's 4 real diagonal entries, then the real and
    imaginary parts of each entry below the diagonal. rho = T'T / Tr(T'T)
    is Hermitian, positive and trace-one for any parameter values, so the
    optimizer can roam freely; T = 0 maps to the maximally mixed state.
    """
    T = np.zeros((4, 4), dtype=complex)
    T[np.diag_indices(4)] = t[:4]
    T[_ROWS, _COLS] = t[4::2] + 1j * t[5::2]
    rho = T.conj().T @ T
    trace = np.trace(rho).real
    if trace <= 0.0:
        return T, np.eye(4, dtype=complex) / 4.0, 0.0
    return T, rho / trace, trace


def _t_to_rho(t: np.ndarray) -> np.ndarray:
    """Density matrix of the Cholesky parameters t (see _chart)."""
    return _chart(t)[1]


def _rho_to_t(rho: np.ndarray) -> np.ndarray:
    """Inverse chart: lower-triangular T with T'T = rho.

    Uses the flipped Cholesky factorization: with J the index-reversal
    permutation, J rho J = L L' gives T = J L' J, which is lower
    triangular and satisfies T'T = rho.
    """
    lower = np.linalg.cholesky(_FLIP @ rho @ _FLIP + 1e-12 * np.eye(4))
    T = _FLIP @ lower.conj().T @ _FLIP
    t = np.empty(16)
    t[:4] = np.diag(T).real
    t[4::2] = T[_ROWS, _COLS].real
    t[5::2] = T[_ROWS, _COLS].imag
    return t


def _nll_and_gradient(t: np.ndarray, counts: np.ndarray):
    """Profiled Poisson -logL of the state with parameters t, and its gradient in t.

    With mu_i = N p_i and N free, the maximizing N is sum(n)/sum(p);
    substituting it keeps the objective a function of the state alone.
    Probabilities are floored at 1e-12 before the logarithm.

    The gradient runs the chain rule back through the chart: the
    derivative by p_i is g_i = N/P - n_i/p_i (0 where p_i is floored),
    so the derivative by rho is G = sum_i g_i |s_i><s_i|; through
    rho = T'T / Tr(T'T) the derivative by T'T is
    M = (G - Tr(G rho) 1) / Tr(T'T), and d(-logL) = 2 Re Tr(M T' dT), so
    the parameters' derivatives are read from X = 2 M T'.
    """
    T, rho, trace = _chart(t)
    raw = mode_probabilities(rho)
    floored = raw < _PROBABILITY_FLOOR
    p = np.where(floored, _PROBABILITY_FLOOR, raw)
    scale = counts.sum() / p.sum()
    mu = scale * p
    nll = float((mu - counts * np.log(mu)).sum())
    gradient = np.zeros(16)
    if trace == 0.0:
        return nll, gradient
    g = np.where(floored, 0.0, scale - counts / p)
    G = np.einsum("i,ij,ik->jk", g, _MODE_STATES, _MODE_STATES.conj())
    M = (G - np.trace(G @ rho).real * np.eye(4)) / trace
    X = 2.0 * M @ T.conj().T
    gradient[:4] = np.diag(X).real
    gradient[4::2] = X[_COLS, _ROWS].real
    gradient[5::2] = -X[_COLS, _ROWS].imag
    return nll, gradient


def _negative_log_likelihood(t: np.ndarray, counts: np.ndarray) -> float:
    """Poisson -logL (up to the count-factorial constant), scale profiled."""
    return _nll_and_gradient(t, counts)[0]


@dataclass(frozen=True, eq=False)
class TomographyResult:
    """Physical MLE state, raw linear inversion, and quality metrics."""

    rho_mle: DensityMatrix
    rho_linear: np.ndarray
    report: EntanglementReport
    log_likelihood: float
    n_iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "rho_mle": self.rho_mle.to_json_dict(),
            "rho_linear": {
                "re": self.rho_linear.real.tolist(),
                "im": self.rho_linear.imag.tolist(),
            },
            "report": self.report.to_json_dict(),
            "log_likelihood": self.log_likelihood,
            "n_iterations": self.n_iterations,
            "converged": self.converged,
        }


def _project_physical(rho: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues to zero and renormalize the trace."""
    w, vecs = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        raise TomographyError("linear inversion produced no positive weight")
    return (vecs * (w / total)) @ vecs.conj().T


def mle_reconstruct(data: TomoDataset, target: PureState | None = None,
                    max_rounds: int = 40, tol: float = 1e-9) -> TomographyResult:
    """Poisson maximum-likelihood reconstruction from 16-mode counts.

    Starts from the physicality-projected linear inversion and runs
    L-BFGS-B on the 16 Cholesky parameters with the exact gradient of
    the negative log-likelihood (see _nll_and_gradient), restarting
    until it improves by less than ``tol`` over a full round (guards
    against flat-stretch early exits). A run that never
    settles is returned with converged=False rather than raised, so the
    diagnostics stay inspectable.

    ``target`` sets the state used for the fidelity entry of the quality
    report; default is the phi+ Bell state.
    """
    from scipy.optimize import minimize

    counts = data.counts.astype(float)
    if counts.sum() <= 0:
        raise TomographyError("dataset has no counts")
    linear = linear_inversion(data)
    t = _rho_to_t(_project_physical(linear))
    previous = _negative_log_likelihood(t, counts)
    converged = False
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        result = minimize(
            _nll_and_gradient,
            t,
            args=(counts,),
            method="L-BFGS-B",
            jac=True,
            options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-10},
        )
        t = result.x
        if previous - result.fun < tol:
            previous = min(previous, float(result.fun))
            converged = True
            break
        previous = float(result.fun)
    rho = DensityMatrix(2, _t_to_rho(t))
    report = entanglement_report(rho, target if target is not None else bell_state("phi+"))
    return TomographyResult(
        rho_mle=rho,
        rho_linear=linear,
        report=report,
        log_likelihood=-previous,
        n_iterations=rounds,
        converged=converged,
    )


def correlation(rho: DensityMatrix, a: MeasurementSetting, b: MeasurementSetting) -> float:
    """E(a, b) = p(agree) - p(disagree) for the pass/block outcomes."""
    return float(_correlations(rho, (_stokes(a), _stokes(b))))


def _correlations(rho: DensityMatrix, pairs) -> np.ndarray:
    """E(a, b) for Stokes-angle pairs of shape (..., 2)."""
    p = _born_tables(rho, pairs)
    return p[..., 0, 0] + p[..., 1, 1] - p[..., 0, 1] - p[..., 1, 0]


def chsh(rho: DensityMatrix, a1, a2, b1, b2) -> float:
    """CHSH combination with the sign placement maximizing |S|.

    The four standard placements put the single minus sign on one of the
    four correlators E(a_i, b_j); the signed S of largest magnitude is
    returned. |S| <= 2 classically and <= 2 sqrt(2) for any quantum
    state (Tsirelson).
    """
    pairs = [[(_stokes(a), _stokes(b)) for b in (b1, b2)] for a in (a1, a2)]
    e = _correlations(rho, pairs)
    total = e.sum()
    candidates = [total - 2.0 * e[i, j] for i in (0, 1) for j in (0, 1)]
    return float(max(candidates, key=abs))
