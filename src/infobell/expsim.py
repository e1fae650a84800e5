"""Finite-statistics simulation of coincidence measurements.

One "edge" measurement draws ``n_trials`` coincidences multinomially
over the four pass/block outcome pairs of an analyzer-pair setting,
adds Poisson accidental coincidences per bin, and estimates the outcome
table by subtracting the known accidental mean, clamping at zero and
renormalizing. Edge uncertainties come from the usual quadrature
propagation: finite-difference sensitivities of the information
distance to the two analyzer angles (times the calibration sigma) and
to the four mode counts (times the Poisson sqrt(N) count errors).

The plug-in entropy estimate biases each distance by about -2/(n ln 2)
(-0.008 at n = 350), so V (direct edge minus three sides) is biased
upward by about +4/(n ln 2) (+0.016 at n = 350), enough to fake a
violation where the exact V is slightly negative. It is left uncorrected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .infogeo import (QuadrilateralGeometry, _edge_angles, _info_distances, _key_entries, _key_entry, _streams,
                      stream_rng)
from .states import (_INT64_MAX, DensityMatrix, JointDistribution, _born_tables, _density, _held, _integer, _real,
                     _reals, modified_werner)

__all__ = [
    "DEFAULT_ACCIDENTAL_MEAN",
    "DEFAULT_ANGLE_SIGMA",
    "NoiseConfig",
    "CoincidenceRecord",
    "EstimationError",
    "ConfigError",
    "SimulationConfig",
    "sample_counts",
    "add_accidentals",
    "estimate_distribution",
    "propagate_error",
    "simulate_schumacher_run",
    "simulate_sweep",
]

DEFAULT_ACCIDENTAL_MEAN = 6.0
DEFAULT_ANGLE_SIGMA = 0.0030

_CONFIG_FIELDS = frozenset({"state", "state.lambda", "state.phase", "thetas", "counts_per_mode", "seed",
                            "accidental_mean", "angle_sigma"})

_ANGLE_STEP = 1e-5
_COUNT_STEP_FRACTION = 1e-3

# Angle offsets of the model evaluations behind one edge: the edge itself,
# then the central-difference stencil in alpha and in beta.
_ANGLE_STENCIL = _ANGLE_STEP * np.array([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)])

# Stream tags keeping multinomial and accidental draws on distinct substreams.
_STREAM_SAMPLE = 0
_STREAM_ACCIDENTAL = 1


class EstimationError(RuntimeError):
    """Counts could not be turned into a probability estimate."""


class ConfigError(ValueError):
    """A run configuration is missing fields or malformed."""


@dataclass(frozen=True)
class NoiseConfig:
    """Noise model: mean accidental coincidences per bin, analyzer
    calibration sigma (radians, Stokes), and the run seed, a
    non-negative integer of any integer type, stored as a Python int."""

    accidental_mean: float = DEFAULT_ACCIDENTAL_MEAN
    angle_sigma: float = DEFAULT_ANGLE_SIGMA
    seed: int = 0

    def __post_init__(self):
        for name in ("accidental_mean", "angle_sigma"):
            object.__setattr__(self, name, _real(getattr(self, name), name, 0))
        object.__setattr__(self, "seed", _key_entry(self.seed, "seed"))


@dataclass(frozen=True, eq=False)
class CoincidenceRecord:
    """Integer counts per outcome pair for one analyzer-pair setting.

    counts[i, j] is the number of coincidences with party A in outcome i
    and party B in outcome j (0 = pass, 1 = block); accidental_estimate
    holds the expected spurious coincidences per bin, finite and
    nonnegative. total_trials, a Python int, equals the count sum. The
    tables are held read-only (see states._held). settings is None or a tuple.
    """

    settings: tuple | None
    counts: np.ndarray
    accidental_estimate: np.ndarray
    total_trials: int

    def __post_init__(self):
        if not (self.settings is None or isinstance(self.settings, tuple)):
            raise TypeError(f"settings = {self.settings!r} is neither None nor a tuple")
        counts, acc = _held(self.counts, None), _held(self.accidental_estimate)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "accidental_estimate", acc)
        if counts.shape != (2, 2) or acc.shape != (2, 2):
            raise ValueError("counts and accidental_estimate must be 2x2 tables")
        if not np.issubdtype(counts.dtype, np.integer):
            raise ValueError("counts must be integers")
        if counts.min() < 0 or not (np.isfinite(acc).all() and acc.min() >= 0.0):
            raise ValueError("counts must be nonnegative and accidental estimates finite and nonnegative")
        total = _integer(self.total_trials, "total_trials", 0, _INT64_MAX)
        object.__setattr__(self, "total_trials", total)
        if int(counts.sum()) != total:
            raise ValueError(f"total_trials = {total} must equal the count sum {counts.sum()}")


def _draw_counts(p: np.ndarray, n_trials: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial 2x2 coincidence counts from one outcome table."""
    p = p.ravel()
    return rng.multinomial(n_trials, p / p.sum()).reshape(2, 2)


def _estimated_tables(counts: np.ndarray, accidental) -> np.ndarray:
    """Accidental-subtracted estimates max(0, N - acc), renormalized, for (..., 2, 2) counts."""
    est = np.clip(counts - accidental, 0.0, None)
    total = est.sum(axis=(-2, -1), keepdims=True)
    if not np.all(total > 0.0):
        raise EstimationError("all outcome bins are empty after accidental subtraction")
    return est / total


def sample_counts(dist: JointDistribution, n_trials: int, seed: int,
                  stream: tuple = (), settings=None) -> CoincidenceRecord:
    """One multinomial draw of n_trials coincidences from a two-party table.

    ``stream`` extends the RNG key (see infogeo.stream_rng) so that
    independent draws inside a larger run stay order-independent.
    """
    if dist.n_parties != 2:
        raise ValueError("sample_counts needs a two-party distribution")
    n_trials = _integer(n_trials, "n_trials", 1, _INT64_MAX)
    return CoincidenceRecord(
        settings=None if settings is None else tuple(settings),
        counts=_draw_counts(dist.probs, n_trials, stream_rng(seed, _STREAM_SAMPLE, *stream)),
        accidental_estimate=np.zeros((2, 2)),
        total_trials=n_trials,
    )


def add_accidentals(record: CoincidenceRecord, noise: NoiseConfig,
                    stream: tuple = ()) -> CoincidenceRecord:
    """Add Poisson(accidental_mean) spurious coincidences to every bin.

    The configured mean, not the realized draw, is recorded in
    accidental_estimate: subtraction later uses the known level.
    """
    if noise.accidental_mean == 0.0:
        return record
    rng = stream_rng(noise.seed, _STREAM_ACCIDENTAL, *stream)
    counts = record.counts + rng.poisson(noise.accidental_mean, size=(2, 2))
    return CoincidenceRecord(
        settings=record.settings,
        counts=counts,
        accidental_estimate=record.accidental_estimate + noise.accidental_mean,
        total_trials=int(counts.sum()),
    )


def estimate_distribution(record: CoincidenceRecord) -> JointDistribution:
    """Accidental-subtracted probability estimate: max(0, N - acc), renormalized."""
    return JointDistribution(_estimated_tables(record.counts, record.accidental_estimate))


def _edge_uncertainties(d: np.ndarray, p: np.ndarray, n_trials: int, noise: NoiseConfig) -> np.ndarray:
    """Quadrature uncertainties of a batch of edge distances.

    ``d`` (..., 5) holds the exact model distances on _ANGLE_STENCIL and
    ``p`` (..., 2, 2) the edges' outcome tables. Two angle terms
    (dD/dalpha, dD/dbeta by central differences, each times angle_sigma)
    plus four count terms (dD/dN_j by central differences through the
    estimator at the expected counts, each times sqrt of the expected
    observed count).
    """
    d_dalpha = (d[..., 1] - d[..., 2]) / (2 * _ANGLE_STEP)
    d_dbeta = (d[..., 3] - d[..., 4]) / (2 * _ANGLE_STEP)
    variance = (d_dalpha * noise.angle_sigma) ** 2 + (d_dbeta * noise.angle_sigma) ** 2

    expected = n_trials * p.reshape(p.shape[:-2] + (4,)) + noise.accidental_mean
    step = max(1.0, _COUNT_STEP_FRACTION * n_trials) * np.eye(4)
    # Row j of up/down perturbs mode j; every row of every edge goes through the estimator at once.
    up = expected[..., None, :] + step
    down = np.maximum(0.0, expected[..., None, :] - step)
    counts = np.stack([up, down]).reshape((2,) + up.shape[:-1] + (2, 2))
    d_up, d_down = _info_distances(_estimated_tables(counts, noise.accidental_mean))
    for j in range(4):
        slope = (d_up[..., j] - d_down[..., j]) / (up[..., j, j] - down[..., j, j])
        variance += slope ** 2 * expected[..., j]
    return np.sqrt(variance)


def _model_edges(rho: DensityMatrix, theta, counts_per_mode: int, noise: NoiseConfig):
    """Model edge tables (..., 4, 2, 2), distances and uncertainties (..., 4) at an array of angles.

    One Born-rule and one entropy pass cover every edge and stencil point.
    """
    tables = _born_tables(rho, _edge_angles(theta)[..., None, :] + _ANGLE_STENCIL)
    d = _info_distances(tables)
    edge_tables = tables[..., 0, :, :]
    return edge_tables, d[..., 0], _edge_uncertainties(d, edge_tables, counts_per_mode, noise)


def propagate_error(rho_model: DensityMatrix, theta: float, counts_per_mode: int,
                    noise: NoiseConfig) -> QuadrilateralGeometry:
    """Exact model edge distances dressed with propagated uncertainties.

    The distances are the noise-free model values; the uncertainties are
    what a counts_per_mode-trial measurement with the configured noise
    would assign to each edge. In the limit angle_sigma -> 0 and
    counts -> infinity every uncertainty goes to zero.
    """
    theta = _real(theta, "theta")
    counts_per_mode = _integer(counts_per_mode, "counts_per_mode", 1, _INT64_MAX)
    _, d, dd = _model_edges(_density(rho_model, "rho_model"), theta, counts_per_mode, noise)
    return QuadrilateralGeometry(*map(float, d), *map(float, dd))


def _simulated_counts(tables: np.ndarray, counts_per_mode: int, noise: NoiseConfig, stream: tuple) -> np.ndarray:
    """Raw int64 coincidence counts (..., 4, 2, 2) drawn from model edge tables of that shape.

    Edge k of the angle at index i draws its counts on (_STREAM_SAMPLE,
    *stream, *i, k) and its accidentals on (_STREAM_ACCIDENTAL, *stream,
    *i, k). All tables are normalised in one pass, each row as _draw_counts
    normalises it, and each draw writes one row of a single count array.
    """
    shape = tables.shape[:-2]
    pvals = tables.reshape(-1, 4)
    pvals = pvals / pvals.sum(axis=-1, keepdims=True)
    counts = np.empty(pvals.shape, dtype=np.int64)
    for row, p, rng in zip(counts, pvals, _streams(noise.seed, (_STREAM_SAMPLE, *stream), shape)):
        row[:] = rng.multinomial(counts_per_mode, p)
    if noise.accidental_mean != 0.0:
        for row, rng in zip(counts, _streams(noise.seed, (_STREAM_ACCIDENTAL, *stream), shape)):
            row += rng.poisson(noise.accidental_mean, size=4)
    return counts.reshape(tables.shape)


def _simulate(rho: DensityMatrix, thetas: np.ndarray, counts_per_mode: int,
              noise: NoiseConfig, stream: tuple):
    """Simulated edge distances and their model uncertainties, (d, dd) of shape (..., 4).

    ``thetas`` is a 0-d angle (one run) or a 1-d array (a sweep); the
    counts come from _simulated_counts on the model edge tables.
    """
    tables, _, dd = _model_edges(rho, thetas, counts_per_mode, noise)
    counts = _simulated_counts(tables, counts_per_mode, noise, stream)
    return _info_distances(_estimated_tables(counts, noise.accidental_mean)), dd


def simulate_schumacher_run(rho: DensityMatrix, theta: float, counts_per_mode: int,
                            noise: NoiseConfig, stream: tuple = ()) -> QuadrilateralGeometry:
    """Simulate one full four-edge measurement at angle theta.

    Per edge: multinomial coincidence draw, Poisson accidentals,
    accidental subtraction, then the information distance of the
    estimated table. Edge k of the run uses substream (*stream, k), so
    edges are independent and the whole run repeats bit-identically for
    a fixed seed. The attached uncertainties are the model-propagated
    ones (they depend on the model and noise settings, not on the
    realized counts, mirroring how error bars are assigned from expected
    count levels). ``theta`` must be finite, ``counts_per_mode`` an
    integer from 1 to 2**63 - 1 and ``stream`` entries non-negative
    integers.
    """
    theta = _real(theta, "theta")
    counts_per_mode = _integer(counts_per_mode, "counts_per_mode", 1, _INT64_MAX)
    d, dd = _simulate(_density(rho), theta, counts_per_mode, noise, _key_entries(stream))
    return QuadrilateralGeometry(*map(float, d), *map(float, dd))


def simulate_sweep(rho: DensityMatrix, thetas, counts_per_mode: int,
                   noise: NoiseConfig) -> list:
    """Simulated runs at each angle; returns [(theta, QuadrilateralGeometry), ...].

    The run at thetas[i] is simulate_schumacher_run with stream (i,): the
    keys are positional, so appending angles keeps the earlier rows,
    while dropping or reordering angles changes the draws of every angle
    whose position moves. All angles share one Born-rule pass and one
    key computation per draw purpose.
    """
    _density(rho)
    thetas = _reals(thetas, "thetas")
    counts_per_mode = _integer(counts_per_mode, "counts_per_mode", 1, _INT64_MAX)
    if not thetas:
        return []
    d, dd = _simulate(rho, np.array(thetas), counts_per_mode, noise, ())
    return [(t, QuadrilateralGeometry(*map(float, di), *map(float, ddi))) for t, di, ddi in zip(thetas, d, dd)]


def _whole(value, field: str) -> int:
    """A whole-number config value: 350 and 350.0 pass; 350.9, true, "350" and NaN do not."""
    try:
        if _real(value, field).is_integer():
            return int(value)
    except TypeError:
        pass
    raise ConfigError(f"{field} must be a whole number, got {value!r}")


@dataclass(frozen=True)
class SimulationConfig:
    """Parsed run configuration for the simulate pipeline; __post_init__ is its one gate."""

    lam: float
    phase: float
    thetas: tuple
    counts_per_mode: int
    accidental_mean: float = DEFAULT_ACCIDENTAL_MEAN
    angle_sigma: float = DEFAULT_ANGLE_SIGMA
    seed: int = 0

    def __post_init__(self):
        try:
            for name, lo, hi in (("lam", 0, 1), ("phase", None, None),
                                 ("accidental_mean", 0, None), ("angle_sigma", 0, None)):
                object.__setattr__(self, name, _real(getattr(self, name), name, lo, hi))
            object.__setattr__(self, "thetas", _reals(self.thetas, "thetas"))
            object.__setattr__(self, "counts_per_mode",
                               _integer(self.counts_per_mode, "counts_per_mode", 1, _INT64_MAX))
            object.__setattr__(self, "seed", _key_entry(self.seed, "seed"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config: {exc}") from None
        if not self.thetas:
            raise ConfigError("thetas must be a nonempty list")
        if any(b <= a for a, b in zip(self.thetas, self.thetas[1:])):
            raise ConfigError("thetas must be strictly increasing")

    @classmethod
    def from_dict(cls, payload: dict) -> "SimulationConfig":
        """Build from a config mapping.

        Required: state.lambda, state.phase, thetas (strictly
        increasing), counts_per_mode, seed. Optional: accidental_mean
        (default 6), angle_sigma (default 0.003); any other field is a ConfigError. state.lambda
        and state.phase are typed here, so their errors carry the config's names.
        """
        try:
            state = payload["state"]
            lam = _real(state["lambda"], "state.lambda")
            phase = _real(state["phase"], "state.phase")
            thetas = payload["thetas"]
            counts = _whole(payload["counts_per_mode"], "counts_per_mode")
            seed = _whole(payload["seed"], "seed")
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"missing or malformed config field: {exc}") from exc
        for key in [*payload, *(f"state.{k}" for k in state)]:
            if key not in _CONFIG_FIELDS:
                raise ConfigError(f"unknown config field {key!r}")
        return cls(lam, phase, thetas, counts, payload.get("accidental_mean", DEFAULT_ACCIDENTAL_MEAN),
                   payload.get("angle_sigma", DEFAULT_ANGLE_SIGMA), seed)

    @classmethod
    def load(cls, path) -> "SimulationConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def noise(self) -> NoiseConfig:
        return NoiseConfig(self.accidental_mean, self.angle_sigma, self.seed)

    def state(self) -> DensityMatrix:
        return modified_werner(self.lam, self.phase)
