"""Two-qubit polarization state tomography and CHSH evaluation.

Reconstruction runs on the standard informationally complete set of 16
coincidence modes. Linear inversion gives a fast estimate that can leave
the physical set (negative eigenvalues at finite counts). When every
count is positive and the linear inversion is positive definite, it is
already the maximum-likelihood state, exactly. Otherwise the maximum
likelihood step is a log-barrier Newton loop over the 16 expected mode
counts, in which the Poisson negative log-likelihood is convex; after
each shrink of the barrier weight a tangent (predictor) step follows the
central path before the Newton corrections resume. It stops once the
barrier's duality gap certifies the likelihood to within 1e-10 of its
maximum (or the round-off of the objective, at high counts).

Circular polarization uses R = (H - iV)/sqrt(2), L = (H + iV)/sqrt(2),
one of the two standard sign conventions; it matters for the sign of
imaginary off-diagonal elements, so it is fixed here once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import (
    _INT64_MAX,
    DensityMatrix,
    EntanglementReport,
    MeasurementSetting,
    PureState,
    _born_tables,
    _density,
    _held,
    _integer,
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

# Row i of the design matrix maps a flattened state to p_i = <s_i|rho|s_i>.
_DESIGN = np.einsum("oi,oj->oij", _MODE_STATES.conj(), _MODE_STATES).reshape(16, 16)
# The dual frame, flattened: sigma = (m @ _FRAME).reshape(4, 4) has <s_i|sigma|s_i> = m_i.
_FRAME = np.linalg.inv(_DESIGN).T
_FRAME = 0.5 * (_FRAME + _FRAME.reshape(16, 4, 4).conj().transpose(0, 2, 1).reshape(16, 16))

_BARRIER_SHRINK = 0.01
_CENTRED = 1e-3  # a weight mu is centred once the squared Newton decrement <= _CENTRED * mu
_SELF_CONCORDANT = 0.1  # a Newton step with squared decrement <= this * min(mu, 1) needs no search
_GAP = 1e-10  # the certified likelihood gap 4 mu at the last weight, ...
_ROUND_OFF = 16 * np.finfo(float).eps  # ... or this much per count, if larger
_MAX_NEWTON_STEPS = 200
_MAX_TOTAL = 2**53  # float64 holds every count total up to here exactly

# CHSH settings maximizing |S| for an ideal Bell state (Stokes angles).
OPTIMAL_BELL_SETTINGS = (
    MeasurementSetting(0.0),
    MeasurementSetting(np.pi / 2.0),
    MeasurementSetting(np.pi / 4.0),
    MeasurementSetting(3.0 * np.pi / 4.0),
)


class TomographyError(RuntimeError):
    """Tomography data cannot be processed."""


def _check_counts(counts) -> list:
    """The 16 counts as Python ints from 0 to 2**63 - 1 (see states._integer), totalling at most 2**53."""
    counts = [_integer(n, f"mode {label}: count", 0, _INT64_MAX) for label, n in zip(MODE_LABELS, counts)]
    if sum(counts) > _MAX_TOTAL:
        raise ValueError(f"count total {sum(counts)} exceeds 2**53, beyond which float counts are inexact")
    return counts


@dataclass(frozen=True, eq=False)
class TomoDataset:
    """Coincidence counts for the 16 modes, aligned with MODE_LABELS.

    Each count fits int64 and their total is at most 2**53, so the float arithmetic of the
    reconstructions holds every count exactly. The counts are held as a read-only int64 array (see
    states._held). Anything but an ndarray (a list, say) becomes an object array, and an object
    array's entries reach the count gate as they are, so a bool or a float is refused by mode.
    """

    counts: np.ndarray

    def __post_init__(self):
        counts = self.counts if isinstance(self.counts, np.ndarray) else np.asarray(self.counts, dtype=object)
        if counts.shape != (16,) or not (np.issubdtype(counts.dtype, np.integer) or counts.dtype == object):
            raise ValueError("counts must be 16 integers aligned with MODE_LABELS")
        object.__setattr__(self, "counts", _held(_check_counts(counts.tolist()), np.int64))

    @classmethod
    def from_mapping(cls, mapping) -> "TomoDataset":
        """Counts from a mapping of every mode label to an integer (not a bool)."""
        missing = [lbl for lbl in MODE_LABELS if lbl not in mapping]
        extra = sorted(set(mapping) - set(MODE_LABELS))
        if missing or extra:
            raise ValueError(f"bad mode labels; missing {missing}, unexpected {extra}")
        return cls(np.fromiter((mapping[lbl] for lbl in MODE_LABELS), object, len(MODE_LABELS)))

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
    """Noise-free dataset: expected counts round(per_basis * p_i) for each mode.

    ``per_basis`` is an integer (not a bool) from 0 to 2**53. The 16 mode
    probabilities sum to between 1.74 and 6.88 (the extreme eigenvalues of
    sum_i |s_i><s_i|), so TomoDataset's cap of 2**53 on the count total
    refuses any per_basis above 2**53 / sum_i p_i, about 1.3e15 to 5.2e15
    depending on the state.
    """
    per_basis = _integer(per_basis, "per_basis", 0, _MAX_TOTAL)
    p = mode_probabilities(_density(rho).matrix)
    return TomoDataset(np.round(per_basis * p).astype(np.int64))


def mode_probabilities(rho_matrix: np.ndarray) -> np.ndarray:
    """p_i = <s_i| rho |s_i> for the 16 mode projection states: the rows of the
    design matrix, whose dual frame linear_inversion applies, on the flattened state."""
    return (_DESIGN @ rho_matrix.reshape(16)).real


def linear_inversion(data: TomoDataset) -> np.ndarray:
    """Direct inversion of the 16 mode expectations: the dual frame applied to them.

    Returns a Hermitian trace-one matrix that may have negative
    eigenvalues at finite counts; the MLE step restores physicality.
    The count scale comes from the first four modes (HH, HV, VV, VH),
    a complete basis whose probabilities sum to one.
    """
    scale = float(data.counts[:4].sum())
    if scale <= 0:
        raise TomographyError("cannot set the count scale: HV-basis modes are all empty")
    rho = (data.counts / scale @ _FRAME).reshape(4, 4)
    return rho / np.trace(rho).real


def _frame_cholesky(m: np.ndarray):
    """Cholesky factor of sigma(m) = sum_i m_i F_i, or None unless sigma(m) > 0."""
    try:
        return np.linalg.cholesky((m @ _FRAME).reshape(4, 4))
    except np.linalg.LinAlgError:
        return None


def _barrier_derivatives(m: np.ndarray, counts: np.ndarray, mu: float, chol: np.ndarray):
    """Gradient and Hessian in m of sum(m - n log m) - mu log det sigma(m).

    With sigma = L L' (``chol`` is L) and B_i = L^-1 F_i L'^-1,
    tr(sigma^-1 F_i) = tr(B_i) and tr(sigma^-1 F_i sigma^-1 F_j) =
    Re tr(B_i B_j'), so the barrier's Hessian is a Gram matrix: one real
    product of the rows of B read as (real, imaginary) pairs.
    """
    inv = np.linalg.inv(chol)
    kron = (inv[:, None, :, None] * inv.conj()[None, :, None, :]).reshape(16, 16)
    pairs = (_FRAME @ kron.T).view(float)  # row i is B_i, flattened, as (real, imaginary) pairs
    gradient = 1.0 - counts / m - mu * pairs[:, ::10].sum(axis=1)
    hessian = pairs @ pairs.T
    hessian *= mu
    hessian.reshape(-1)[::17] += counts / m**2
    return gradient, hessian


def _newton_step(m, step, decrement, counts, mu, chol):
    """Backtrack along ``step`` until sigma stays positive definite and the
    barrier objective falls by a quarter of its linear prediction, t times
    ``decrement`` (minus the objective's slope along ``step``); None if
    no step of 1e-12 or more does. The fall is summed term by term
    (log1p, log-diagonals of the Cholesky factors) to keep its precision.
    For a Newton step whose squared decrement is at most 0.1 min(mu, 1),
    the objective over min(mu, 1) is self-concordant and a full step
    provably lowers it, so any positive-definite step is taken there;
    ``mle_reconstruct`` passes a predictor step only with a larger slope.
    """
    any_step = decrement <= _SELF_CONCORDANT * min(mu, 1.0)
    old_log_det = None if any_step else np.log(chol.diagonal().real).sum()
    t = 1.0
    while t >= 1e-12:
        trial = m + t * step
        trial_chol = _frame_cholesky(trial) if trial.min() > 0.0 else None
        if trial_chol is not None:
            if any_step:
                return trial, trial_chol
            moved = trial - m
            change = float((moved - counts * np.log1p(moved / m)).sum())
            change -= 2.0 * mu * (np.log(trial_chol.diagonal().real).sum() - old_log_det)
            if change <= -0.25 * t * decrement:
                return trial, trial_chol
        t *= 0.5
    return None


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


def _project_physical(w: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The state of eigenvalues ``w`` and eigenvectors ``vecs`` (np.linalg.eigh of a
    Hermitian matrix) with its negative eigenvalues clipped to zero and its trace renormalized."""
    w = np.clip(w, 0.0, None)
    total = w.sum()
    if total <= 0.0:
        raise TomographyError("linear inversion produced no positive weight")
    return (vecs * (w / total)) @ vecs.conj().T


def _barrier_mle(counts: np.ndarray, w: np.ndarray, vecs: np.ndarray):
    """The barrier loop of mle_reconstruct from the eigendecomposition (w, vecs) of the
    linear inversion: the expected mode counts m, the steps taken and whether it converged."""
    total = counts.sum()
    p = mode_probabilities(0.99 * _project_physical(w, vecs) + 0.0025 * np.eye(4))
    m = total / p.sum() * p
    chol = _frame_cholesky(m)
    mu = 1.0
    last = max(_GAP, _ROUND_OFF * total) / 4.0
    steps = 0
    while steps < _MAX_NEWTON_STEPS:
        gradient, hessian = _barrier_derivatives(m, counts, mu, chol)
        try:
            step = -np.linalg.solve(hessian, gradient)
        except np.linalg.LinAlgError:
            break
        decrement = float(-gradient @ step)
        if decrement <= _CENTRED * mu:
            if mu <= last:
                return m, steps, True
            shrunk = max(mu * _BARRIER_SHRINK, last)
            # Tangent predictor along the central path; the gradient becomes the new weight's.
            log_det_gradient = (1.0 - counts / m - gradient) / mu
            step = (shrunk - mu) * np.linalg.solve(hessian, log_det_gradient)
            gradient += (mu - shrunk) * log_det_gradient
            mu = shrunk
            decrement = float(-gradient @ step)
            if decrement <= _SELF_CONCORDANT * min(mu, 1.0):
                continue
        accepted = _newton_step(m, step, decrement, counts, mu, chol)
        if accepted is None:
            break
        m, chol = accepted
        steps += 1
    return m, steps, False


def mle_reconstruct(data: TomoDataset, target: PureState | None = None) -> TomographyResult:
    """Poisson maximum-likelihood reconstruction from 16-mode counts.

    The expected mode counts m determine the unnormalised state
    sigma(m) = sum_i m_i F_i one to one, F being the dual frame of the
    16 linearly independent mode projectors, and the profiled Poisson
    objective sum(m - n log m) has its unconstrained minimum at m = n.
    So when every count n_i is positive and the linear inversion
    sigma(n) is positive definite, m = n is the MLE exactly: it is
    returned with ``n_iterations`` 0, ``converged`` set and no Newton
    step. Conversely, a full-rank MLE is an interior stationary point
    and has m = n, so the barrier loop below runs exactly for the
    rank-deficient MLEs (and for data with an empty mode).

    Newton's method minimizes sum(m - n log m) - mu log det sigma(m) over
    m from the projected linear inversion mixed with 1% white noise. The
    barrier weight mu starts at 1, whatever the total count N. Once the
    squared Newton decrement is at most 1e-3 mu, mu shrinks 100-fold, down to
    4 mu = max(1e-10, 16 eps N); above N = 2**48 that floor exceeds 1,
    and the run stops at its first centred point. At a central point
    4 mu bounds how far the likelihood can still rise; 16 eps N is the
    objective's own round-off.

    After each shrink to mu' a tangent predictor follows the central
    path: with d = grad log det sigma(m), the step (mu' - mu) H^-1 d uses
    the Hessian H already factored at mu. Near-pure states put the MLE
    on the rank boundary, where an eigenvalue of sigma scales like mu;
    a Newton step at mu' overshoots it about 100-fold and its line
    search halves it down to 1/128, while the tangent moves it from
    about c mu to c mu' in one step. The predictor goes through the same
    line search, with slope -(g + (mu - mu') d) . step for the gradient
    g at mu. It is skipped when minus that slope is at most 0.1
    min(mu', 1): the search takes any positive-definite step below that
    bound, which is safe for Newton steps alone, and so small a
    predictor would gain little.

    ``converged`` means that the exact optimum was taken or the certified
    stop was reached within 200 steps, predictor steps included
    (``n_iterations``); a run that misses it is returned, not raised, so
    the diagnostics stay inspectable. The state is sigma / tr(sigma), and
    ``log_likelihood`` is its Poisson log-likelihood with the count scale
    profiled out: -sum(n - n log n) on the exact path.

    ``target`` sets the state used for the fidelity entry of the quality
    report; default is the phi+ Bell state.
    """
    counts = data.counts.astype(float)
    total = counts.sum()
    if total <= 0:
        raise TomographyError("dataset has no counts")
    linear = linear_inversion(data)
    w, vecs = np.linalg.eigh(linear)
    if counts.min() > 0.0 and w[0] > 0.0:
        m, steps, converged = counts, 0, True
    else:
        m, steps, converged = _barrier_mle(counts, w, vecs)
    sigma = (m @ _FRAME).reshape(4, 4)
    rho = DensityMatrix(2, sigma / np.trace(sigma).real)
    expected = total / m.sum() * m
    report = entanglement_report(rho, target if target is not None else bell_state("phi+"))
    return TomographyResult(
        rho_mle=rho,
        rho_linear=linear,
        report=report,
        log_likelihood=-float((expected - counts * np.log(expected)).sum()),
        n_iterations=steps,
        converged=converged,
    )


def correlation(rho: DensityMatrix, a: MeasurementSetting, b: MeasurementSetting) -> float:
    """E(a, b) = p(agree) - p(disagree) for the pass/block outcomes."""
    return float(_correlations(_density(rho), (_stokes(a, "a"), _stokes(b, "b"))))


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
    a1, a2, b1, b2 = _stokes(a1, "a1"), _stokes(a2, "a2"), _stokes(b1, "b1"), _stokes(b2, "b2")
    e = _correlations(_density(rho), [[(a, b) for b in (b1, b2)] for a in (a1, a2)])
    total = e.sum()
    candidates = [total - 2.0 * e[i, j] for i in (0, 1) for j in (0, 1)]
    return float(max(candidates, key=abs))
