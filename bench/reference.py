"""Independent numpy reference for the quantities the benchmark checks.

Nothing here imports infobell: each output of the package is compared
against a second implementation written directly from the definitions
(Born rule, Shannon entropy, Rokhlin-Rajski distance, CHSH, the 16
tomography modes), so a wrong answer cannot hide behind its own code.
All functions broadcast over leading axes of the angle arrays.
"""

from __future__ import annotations

import numpy as np

ZERO_CUTOFF = 1e-15
TSIRELSON = 2.0 * np.sqrt(2.0)
REFERENCE_THETAS = (0.175, 0.227, 0.279, 0.328, 0.393, 0.436, 0.471, 0.503)
OPTIMAL_BELL_ANGLES = (0.0, np.pi / 2.0, np.pi / 4.0, 3.0 * np.pi / 4.0)

_BELL = {
    "phi+": (1, 0, 0, 1),
    "phi-": (1, 0, 0, -1),
    "psi+": (0, 1, 1, 0),
    "psi-": (0, 1, -1, 0),
}


def bell_matrix(kind: str) -> np.ndarray:
    psi = np.array(_BELL[kind], dtype=complex) / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def werner_matrix(lam: float, phase: float, n_qubits: int = 2) -> np.ndarray:
    """lam |psi><psi| + (1 - lam) I / d with |psi> = (|0..0> + e^{i phase} |1..1>) / sqrt 2."""
    dim = 2**n_qubits
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0 / np.sqrt(2.0)
    psi[-1] = np.exp(1j * phase) / np.sqrt(2.0)
    return lam * np.outer(psi, psi.conj()) + (1.0 - lam) / dim * np.eye(dim)


def _effects(angle) -> np.ndarray:
    """Pass and block projectors of a polarizer at Stokes angle ``angle``: shape (..., 2, 2, 2)."""
    half = np.asarray(angle, dtype=float) / 2.0
    v = np.stack([np.cos(half), np.sin(half)], axis=-1)
    passp = v[..., :, None] * v[..., None, :]
    return np.stack([passp, np.eye(2) - passp], axis=-3)


def joint_table(rho: np.ndarray, alpha, beta) -> np.ndarray:
    """Born-rule table p[..., x, y] = Tr(rho (E_alpha^x (x) E_beta^y)), clipped at zero."""
    alpha, beta = np.broadcast_arrays(np.asarray(alpha, float), np.asarray(beta, float))
    r = np.asarray(rho).reshape(2, 2, 2, 2)
    p = np.einsum("ikjl,...xji,...ylk->...xy", r, _effects(alpha), _effects(beta)).real
    return np.clip(p, 0.0, None)


def entropy(p: np.ndarray, axes) -> np.ndarray:
    """Shannon entropy in bits over ``axes``, treating entries <= 1e-15 as zero."""
    safe = np.where(p > ZERO_CUTOFF, p, 1.0)
    return -np.where(p > ZERO_CUTOFF, p * np.log2(safe), 0.0).sum(axis=axes)


def info_distance(p: np.ndarray) -> np.ndarray:
    """2 H(A,B) - H(A) - H(B) of tables p[..., x, y], clamped at zero."""
    d = 2.0 * entropy(p, (-2, -1)) - entropy(p.sum(-1), -1) - entropy(p.sum(-2), -1)
    return np.maximum(d, 0.0)


def edges(rho: np.ndarray, theta) -> np.ndarray:
    """Edge distances (a1b1, a2b1, a2b2, a1b2) at settings (0, 2t, t, 3t): shape (..., 4)."""
    t = np.asarray(theta, dtype=float)
    zero = np.zeros_like(t)
    pairs = [(zero, t), (2 * t, t), (2 * t, 3 * t), (zero, 3 * t)]
    return np.stack([info_distance(joint_table(rho, a, b)) for a, b in pairs], axis=-1)


def violation(rho: np.ndarray, theta) -> np.ndarray:
    e = edges(rho, theta)
    return e[..., 3] - e[..., 0] - e[..., 1] - e[..., 2]


def chsh(rho: np.ndarray, a1, a2, b1, b2) -> float:
    """Signed CHSH value of largest magnitude over the four sign placements."""
    p = joint_table(rho, np.array([[a1, a1], [a2, a2]]), np.array([[b1, b2], [b1, b2]]))
    e = p[..., 0, 0] + p[..., 1, 1] - p[..., 0, 1] - p[..., 1, 0]
    candidates = e.sum() - 2.0 * e.ravel()
    return float(candidates[np.argmax(np.abs(candidates))])


def visibility(rho: np.ndarray, basis: str) -> float:
    """Fringe visibility of the pass-pass probability with A fixed at Stokes 0 (HV) or pi/2 (DA)."""
    alpha = {"HV": 0.0, "DA": np.pi / 2.0}[basis]
    betas = np.array([0.0, np.pi / 2.0, np.pi, 1.5 * np.pi])
    p = joint_table(rho, np.full(4, alpha), betas)[:, 0, 0]
    offset = 0.5 * (p[0] + p[2])
    amp = np.hypot(0.5 * (p[0] - p[2]), 0.5 * (p[1] - p[3]))
    if offset + amp <= 0.0:
        return 0.0
    return float(min(amp / offset, 1.0))


_KETS = {
    "V": np.array([1.0, 0.0], dtype=complex),
    "H": np.array([0.0, 1.0], dtype=complex),
}
_KETS["D"] = (_KETS["H"] + _KETS["V"]) / np.sqrt(2.0)
_KETS["R"] = (_KETS["H"] - 1j * _KETS["V"]) / np.sqrt(2.0)
_KETS["L"] = (_KETS["H"] + 1j * _KETS["V"]) / np.sqrt(2.0)

MODE_LABELS = (
    "HH", "HV", "VV", "VH", "RH", "RV", "DV", "DH",
    "DR", "DD", "RD", "HD", "VD", "VL", "HL", "RL",
)
_MODES = np.array([np.kron(_KETS[m[0]], _KETS[m[1]]) for m in MODE_LABELS])


def mode_probabilities(rho: np.ndarray) -> np.ndarray:
    """<s|rho|s> for the 16 standard two-photon tomography modes."""
    return np.einsum("oi,ij,oj->o", _MODES.conj(), rho, _MODES).real


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum())
