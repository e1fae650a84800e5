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

from .infogeo import ViolationCurve, golden_section_min

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
    from scipy.special import xlogy

    p = np.clip(p, 0.0, 1.0)
    return -(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p)) / _LN2


def model_curve(lam, phase, thetas):
    """Closed-form violation curve of the modified Werner family.

    Every edge of the quadrilateral sees uniform marginals and a
    pass-pass probability (1 + lam*K)/4 with
    K(a, b) = cos a cos b + cos(phase) sin a sin b, so the edge distance
    collapses to 2 H2((1 + lam*K)/2) and

        V(theta) = edge(0, 3t) - edge(0, t) - edge(2t, t) - edge(2t, 3t).

    ``lam`` and ``phase`` may be broadcastable arrays; the returned shape
    is broadcast(lam, phase).shape + thetas.shape.
    """
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    lam = np.asarray(lam, dtype=float)
    cph = np.cos(np.asarray(phase, dtype=float))
    if lam.ndim:
        lam = lam[..., None]
    if cph.ndim:
        cph = cph[..., None]

    def edge(a, b):
        k = np.cos(a) * np.cos(b) + cph * np.sin(a) * np.sin(b)
        return 2.0 * _binary_entropy((1.0 + lam * k) / 2.0)

    return edge(0.0, 3 * th) - (edge(0.0, th) + edge(2 * th, th) + edge(2 * th, 3 * th))


@lru_cache(maxsize=4)
def _coarse_grid(thetas: tuple):
    """Model curves over the full coarse (lam, phase) grid, cached per theta grid."""
    lam_grid = np.arange(0.0, 1.0 + LAMBDA_STEP / 2.0, LAMBDA_STEP)
    phase_grid = np.arange(0.0, 2.0 * np.pi, PHASE_STEP)
    curves = model_curve(lam_grid[:, None], phase_grid[None, :], np.array(thetas))
    return lam_grid, phase_grid, curves


def fit_werner(observed: ViolationCurve, weighted: bool = False,
               refine_tol: float = 1e-8) -> WernerFit:
    """Least-squares (lam, phase) fit of the mixed-state model.

    Coarse grid search (lam step 0.002 on [0, 1], phase step 0.01 on
    [0, 2 pi)) followed by coordinate descent with golden-section line
    searches over a two-grid-cell bracket. Deterministic; grid ties
    resolve to the smallest (lam, phase) pair. Unweighted by default;
    ``weighted=True`` applies 1/dv^2 weights (requires uncertainties on
    the curve). residual_sum is always the unweighted sum of squares.
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

    lam_grid, phase_grid, curves = _coarse_grid(tuple(float(t) for t in thetas))
    objective_grid = (weights * (curves - v_obs) ** 2).sum(axis=-1)
    i, j = np.unravel_index(int(np.argmin(objective_grid)), objective_grid.shape)
    lam, phase = float(lam_grid[i]), float(phase_grid[j])

    def objective(lam_value: float, phase_value: float) -> float:
        r = model_curve(lam_value, phase_value, thetas) - v_obs
        return float((weights * r * r).sum())

    lam_span = 2.0 * LAMBDA_STEP
    phase_span = 2.0 * PHASE_STEP
    for _ in range(200):
        lam_new = golden_section_min(
            lambda x: objective(x, phase),
            max(0.0, lam - lam_span),
            min(1.0, lam + lam_span),
            refine_tol,
        )
        phase_new = golden_section_min(
            lambda x: objective(lam_new, x),
            phase - phase_span,
            phase + phase_span,
            refine_tol,
        )
        moved = max(abs(lam_new - lam), abs(phase_new - phase))
        lam, phase = lam_new, phase_new
        if moved < refine_tol:
            break

    # The model depends on the phase only through cos(phase), so phi and
    # 2pi - phi are exactly degenerate; report the lexicographically
    # smaller representative, i.e. fold into [0, pi].
    phase %= 2.0 * np.pi
    phase = min(phase, 2.0 * np.pi - phase)
    residuals = model_curve(lam, phase, thetas) - v_obs
    return WernerFit(
        lam=lam,
        phase=phase,
        residual_sum=float((residuals**2).sum()),
        per_point_residuals=residuals,
    )
