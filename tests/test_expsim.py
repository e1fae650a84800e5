import dataclasses
import json
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from infobell import (
    REFERENCE_THETAS,
    ConfigError,
    EstimationError,
    NoiseConfig,
    SimulationConfig,
    add_accidentals,
    bell_state,
    estimate_distribution,
    info_distance,
    joint_probabilities,
    modified_werner,
    propagate_error,
    quadrilateral,
    sample_counts,
    schumacher_settings,
    simulate_schumacher_run,
    simulate_sweep,
    sweep,
)
from infobell import expsim, infogeo
from infobell.expsim import CoincidenceRecord
from infobell.states import DensityMatrix, JointDistribution

WERNER = modified_werner(0.998, 0.225)
QUIET = NoiseConfig(accidental_mean=0.0, angle_sigma=0.0, seed=0)


def bell_dist(theta=0.3):
    rho = bell_state("phi+").density_matrix()
    a1, _, b1, _ = schumacher_settings(theta)
    return joint_probabilities(rho, (a1, b1))


def test_sample_counts_shape_and_total():
    record = sample_counts(bell_dist(), 500, seed=1)
    assert record.counts.shape == (2, 2)
    assert record.counts.sum() == 500
    assert record.total_trials == 500
    assert (record.accidental_estimate == 0.0).all()


def test_sample_counts_deterministic_per_seed():
    a = sample_counts(bell_dist(), 300, seed=9)
    b = sample_counts(bell_dist(), 300, seed=9)
    c = sample_counts(bell_dist(), 300, seed=10)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


@pytest.mark.parametrize("n", [1000, 100000])
def test_multinomial_frequencies_within_five_sigma(n):
    dist = bell_dist(0.45)
    record = sample_counts(dist, n, seed=4)
    p = dist.probs
    sigma = np.sqrt(np.maximum(p * (1 - p) / n, 1e-12))
    assert (np.abs(record.counts / n - p) <= 5 * sigma + 1.0 / n).all()


def test_estimator_mean_consistent_over_seeds():
    """Mean of p-hat over 500 seeds matches the model within 3 standard errors."""
    dist = bell_dist(0.35)
    n = 200
    estimates = []
    for seed in range(500):
        record = sample_counts(dist, n, seed=seed)
        estimates.append(estimate_distribution(record).probs)
    mean = np.mean(estimates, axis=0)
    se = np.sqrt(dist.probs * (1 - dist.probs) / n / 500)
    assert (np.abs(mean - dist.probs) <= 3 * se + 1e-3).all()


def test_add_accidentals_zero_mean_is_identity():
    record = sample_counts(bell_dist(), 100, seed=2)
    assert add_accidentals(record, QUIET) is record


def test_add_accidentals_updates_counts_and_estimate():
    record = sample_counts(bell_dist(), 100, seed=2)
    noise = NoiseConfig(accidental_mean=6.0, angle_sigma=0.0, seed=5)
    noisy = add_accidentals(record, noise)
    assert (noisy.counts >= record.counts).all()
    assert noisy.total_trials == noisy.counts.sum()
    assert (noisy.accidental_estimate == 6.0).all()
    again = add_accidentals(record, noise)
    assert np.array_equal(noisy.counts, again.counts)


def test_estimate_distribution_subtracts_and_clamps():
    record = CoincidenceRecord(
        settings=schumacher_settings(0.3)[:2],
        counts=np.array([[50, 2], [4, 60]]),
        accidental_estimate=np.full((2, 2), 5.0),
        total_trials=116,
    )
    est = estimate_distribution(record)
    assert est.probs[0, 1] == 0.0  # 2 - 5 clamps to zero
    assert est.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert est.probs[0, 0] == pytest.approx(45 / 100, abs=1e-12)


def test_estimate_distribution_empty_after_subtraction():
    record = CoincidenceRecord(
        settings=schumacher_settings(0.3)[:2],
        counts=np.array([[3, 1], [2, 0]]),
        accidental_estimate=np.full((2, 2), 10.0),
        total_trials=6,
    )
    with pytest.raises(EstimationError):
        estimate_distribution(record)


def test_coincidence_record_validation():
    with pytest.raises(ValueError):
        CoincidenceRecord(
            settings=schumacher_settings(0.3)[:2],
            counts=np.array([[1, -1], [0, 0]]),
            accidental_estimate=np.zeros((2, 2)),
            total_trials=0,
        )
    with pytest.raises(ValueError):
        CoincidenceRecord(
            settings=schumacher_settings(0.3)[:2],
            counts=np.array([[1, 1], [1, 1]]),
            accidental_estimate=np.zeros((2, 2)),
            total_trials=5,
        )
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            CoincidenceRecord(
                settings=None,
                counts=np.array([[1, 1], [1, 1]]),
                accidental_estimate=np.array([[0.0, 0.0], [0.0, bad]]),
                total_trials=4,
            )
    with pytest.raises(TypeError, match="^settings = 'not settings' is neither None nor a tuple$"):
        CoincidenceRecord("not settings", np.ones((2, 2), int), np.zeros((2, 2)), 4)


def test_propagate_error_edges_equal_model():
    noise = NoiseConfig(accidental_mean=6.0, angle_sigma=0.0030, seed=0)
    quad = propagate_error(WERNER, 0.393, 350, noise)
    exact = quadrilateral(WERNER, 0.393)
    assert_allclose(quad.edges, exact.edges, atol=1e-12)
    assert all(u > 0 for u in quad.uncertainties)


def test_propagate_error_base_uncertainty_magnitude():
    noise = NoiseConfig(accidental_mean=6.0, angle_sigma=0.0030, seed=0)
    quad = propagate_error(WERNER, 0.393, 350, noise)
    assert 0.05 < quad.uncertainties[3] < 0.25


def test_propagate_error_continuous_in_theta():
    noise = NoiseConfig(accidental_mean=6.0, angle_sigma=0.0030, seed=0)
    for theta in REFERENCE_THETAS:
        a = np.array(propagate_error(WERNER, theta, 350, noise).uncertainties)
        b = np.array(propagate_error(WERNER, theta + 1e-4, 350, noise).uncertainties)
        assert (np.abs(a - b) < 1e-2).all()


def test_simulate_run_deterministic_and_physical():
    noise = NoiseConfig(accidental_mean=6.0, angle_sigma=0.0030, seed=3)
    q1 = simulate_schumacher_run(WERNER, 0.393, 350, noise)
    q2 = simulate_schumacher_run(WERNER, 0.393, 350, noise)
    assert q1.edges == q2.edges
    assert all(0.0 <= d <= 2.0 for d in q1.edges)
    assert q1.violation_uncertainty is not None and q1.violation_uncertainty > 0


def test_simulated_sweep_tracks_model_within_two_sigma():
    """At a fixed seed, every grid estimate falls within 2 error bars of the model."""
    noise = NoiseConfig(accidental_mean=6.0, angle_sigma=0.0030, seed=2)
    rows = simulate_sweep(WERNER, REFERENCE_THETAS, 350, noise)
    model = sweep(WERNER, REFERENCE_THETAS).v
    within = [
        abs(quad.violation - m) <= 2.0 * quad.violation_uncertainty
        for (_, quad), m in zip(rows, model)
    ]
    assert sum(within) >= 7
    assert all(within)


def test_sweep_per_angle_streams_differ():
    noise = NoiseConfig(accidental_mean=0.0, angle_sigma=0.0, seed=6)
    rows = simulate_sweep(WERNER, (0.3, 0.3001), 400, noise)
    assert rows[0][1].edges != rows[1][1].edges


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(accidental_mean=-1.0, angle_sigma=0.0, seed=0)
    with pytest.raises(ValueError):
        NoiseConfig(accidental_mean=0.0, angle_sigma=-0.1, seed=0)


def test_noise_config_rejects_non_finite_levels_and_negative_seeds():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="accidental_mean"):
            NoiseConfig(accidental_mean=bad, angle_sigma=0.0, seed=0)
        with pytest.raises(ValueError, match="angle_sigma"):
            NoiseConfig(accidental_mean=0.0, angle_sigma=bad, seed=0)
    with pytest.raises(ValueError, match="seed"):
        NoiseConfig(accidental_mean=0.0, angle_sigma=0.0, seed=-1)
    for bad in (True, False, np.True_, "0.3"):
        with pytest.raises(TypeError, match="^accidental_mean = .* is not a real number$"):
            NoiseConfig(accidental_mean=bad, angle_sigma=0.0, seed=0)
        with pytest.raises(TypeError, match="^angle_sigma = .* is not a real number$"):
            NoiseConfig(accidental_mean=0.0, angle_sigma=bad, seed=0)


GOOD_CONFIG = {
    "state": {"lambda": 0.998, "phase": 0.225},
    "thetas": [0.2, 0.3, 0.4],
    "counts_per_mode": 350,
    "accidental_mean": 6.0,
    "angle_sigma": 0.003,
    "seed": 42,
}


def test_noise_config_seed_is_a_python_int():
    assert type(NoiseConfig(seed=np.int64(7)).seed) is int
    assert NoiseConfig(seed=np.uint8(7)) == NoiseConfig(seed=7)
    with pytest.raises(TypeError, match=r"seed = 1\.5 is not an integer"):
        NoiseConfig(seed=1.5)
    with pytest.raises(ConfigError, match="not an integer"):
        SimulationConfig(lam=0.9, phase=0.0, thetas=(0.3,), counts_per_mode=350, seed=1.5)
    with pytest.raises(TypeError, match=r"^stream key entry seed = True is not an integer$"):
        NoiseConfig(seed=True)
    with pytest.raises(ConfigError, match=r"seed = True is not an integer$"):
        SimulationConfig(lam=0.9, phase=0.0, thetas=(0.3,), counts_per_mode=350, seed=True)
    config = SimulationConfig(np.float32(0.5), np.int64(0), (np.float32(0.25), 1), 350, np.int64(6),
                              np.float32(0.5), seed=np.int64(3))
    noise = config.noise()
    held = (config.lam, config.phase, *config.thetas, config.accidental_mean, config.angle_sigma,
            noise.accidental_mean, noise.angle_sigma)
    assert [type(value) for value in held] == [float] * 8
    assert type(config.seed) is int and config.seed == 3


def test_simulated_run_checks_its_stream_before_any_work(monkeypatch):
    run = simulate_schumacher_run(WERNER, 0.3, 350, QUIET, stream=(np.int64(1), 2))
    assert run == simulate_schumacher_run(WERNER, 0.3, 350, QUIET, stream=(1, 2))
    monkeypatch.setattr(expsim, "_born_tables", lambda *args: pytest.fail("the stream was not checked first"))
    with pytest.raises(ValueError, match=r"^stream key entry stream\[1\] = -3 must be at least 0$"):
        simulate_schumacher_run(WERNER, 0.3, 350, QUIET, stream=(1, -3))


def test_simulation_config_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(GOOD_CONFIG))
    config = SimulationConfig.load(str(path))
    assert config.lam == 0.998
    assert config.thetas == (0.2, 0.3, 0.4)
    from_array = dataclasses.replace(config, thetas=np.array(config.thetas))
    assert from_array == config and type(from_array.thetas) is tuple
    assert config.counts_per_mode == 350
    assert config.noise().seed == 42
    assert config.state().n_qubits == 2


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: c.pop("state"),
        lambda c: c.pop("thetas"),
        lambda c: c.__setitem__("thetas", []),
        lambda c: c.__setitem__("thetas", [0.3, 0.2]),
        lambda c: c.__setitem__("counts_per_mode", 0),
        lambda c: c.__setitem__("state", {"lambda": 1.5, "phase": 0.0}),
        lambda c: c.__setitem__("accidental_mean", -2.0),
        lambda c: c.__setitem__("counts_per_mode", "many"),
    ],
)
def test_simulation_config_rejects_malformed(mutate):
    bad = json.loads(json.dumps(GOOD_CONFIG))
    mutate(bad)
    with pytest.raises(ConfigError):
        SimulationConfig.from_dict(bad)


@pytest.mark.parametrize("mutate, key", [
    (lambda c: c.__setitem__("acidental_mean", 0.0), "acidental_mean"),
    (lambda c: c["state"].__setitem__("lamda", 0.5), "state.lamda"),
])
def test_simulation_config_refuses_an_unknown_field(mutate, key):
    """A misspelt optional field used to load with its default in place of the value it meant."""
    bad = json.loads(json.dumps(GOOD_CONFIG))
    mutate(bad)
    with pytest.raises(ConfigError, match=f"^unknown config field '{key}'$"):
        SimulationConfig.from_dict(bad)


# Each config field with a value that no config may hold.
BAD_CONFIG_FIELDS = [
    ("accidental_mean", float("nan")),
    ("accidental_mean", float("inf")),
    ("angle_sigma", float("nan")),
    ("angle_sigma", float("inf")),
    ("seed", -1),
    ("phase", float("nan")),
    ("thetas", [0.2, float("nan")]),
    ("counts_per_mode", True),
    ("counts_per_mode", 2.5),
    ("lam", True),
    ("phase", True),
    ("thetas", [True, 2.0]),
    ("accidental_mean", True),
    ("angle_sigma", False),
    pytest.param("lam", 10**400, id="lam-10**400"),
    pytest.param("accidental_mean", 10**400, id="accidental_mean-10**400"),
    ("thetas", 0.2),
]


@pytest.mark.parametrize("field, value", BAD_CONFIG_FIELDS)
def test_simulation_config_rejects_non_finite_values_and_negative_seeds(field, value):
    bad = json.loads(json.dumps(GOOD_CONFIG))
    if field in ("lam", "phase"):
        bad["state"]["lambda" if field == "lam" else field] = value
    else:
        bad[field] = value
    with pytest.raises(ConfigError, match=field.split("_")[0]):
        SimulationConfig.from_dict(bad)
    fields = {"lam": 0.998, "phase": 0.225, "thetas": (0.2, 0.3), "counts_per_mode": 350,
              "accidental_mean": 6.0, "angle_sigma": 0.003, "seed": 42}
    fields[field] = value
    with pytest.raises(ConfigError, match=field.split("_")[0]):
        SimulationConfig(**fields)


def test_simulation_config_checks_each_field_once_without_building_a_state(monkeypatch):
    """The config used to build and drop a state (a 4x4 eigendecomposition) and a NoiseConfig to
    check itself, and from_dict gated every field a second time under another message."""
    monkeypatch.setattr(expsim, "modified_werner", lambda *args: pytest.fail("a state was built"))
    monkeypatch.setattr(expsim, "NoiseConfig", lambda *args: pytest.fail("a noise model was built"))
    assert SimulationConfig.from_dict(GOOD_CONFIG).lam == 0.998
    for field, value, message in (("accidental_mean", float("nan"), "accidental_mean = nan is not finite"),
                                  ("angle_sigma", -1e-3, "angle_sigma = -0.001 must be at least 0"),
                                  ("thetas", [0.2, "0.3"], "thetas = '0.3' is not a real number")):
        with pytest.raises(ConfigError, match=f"^bad config: {re.escape(message)}$"):
            SimulationConfig.from_dict({**GOOD_CONFIG, field: value})
    with pytest.raises(ConfigError, match="^bad config: lam = 1.5 must be from 0 to 1$"):
        SimulationConfig.from_dict({**GOOD_CONFIG, "state": {"lambda": 1.5, "phase": 0.0}})
    with pytest.raises(ConfigError, match="^missing or malformed config field: state.lambda = True is not"):
        SimulationConfig.from_dict({**GOOD_CONFIG, "state": {"lambda": True, "phase": 0.0}})


def test_simulation_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        SimulationConfig.load(str(path))


# Edges and propagated uncertainties of one seeded simulated sweep, frozen
# at the per-edge scalar implementation; they pin the counter-keyed draws.
SIM_SWEEP_SEED7_EDGES = np.array([
    [0.12331316763897537, 0.1586390653069133, 0.14088994124702658, 0.6371366829588272],
    [0.12584369952271346, 0.15899243519797435, 0.28681157449474437, 1.0687777825159819],
    [0.28663093557825137, 0.30651526928119266, 0.21522801404286485, 1.4657090508736696],
    [0.18553544002825983, 0.18945230020041515, 0.4463625125099857, 1.531763530113256],
    [0.4500305060609189, 0.5348366651260432, 0.5615570007345352, 1.7489939368088963],
    [0.4120297262705681, 0.608449987939752, 0.5332605744494845, 1.9201202561867232],
    [0.5617825800908665, 0.7664575473275471, 0.7253021627395846, 1.9579115885101466],
    [0.7549179696512209, 0.7938030104600513, 0.857048708995833, 1.9697615312351222],
])
SIM_SWEEP_SEED7_UNCERTAINTIES = np.array([
    [0.15326194886065175, 0.15131681328934465, 0.14834498208994593, 0.12360832930629581],
    [0.14384371230940074, 0.1424205531750556, 0.14028569358628365, 0.11399427521911912],
    [0.13805263765760928, 0.13690507949507347, 0.1352499632434119, 0.1009096866214629],
    [0.1342252588307316, 0.13322665587446836, 0.1318399875697578, 0.0852024668349543],
    [0.13035993571294624, 0.12942429323865925, 0.12820097453106435, 0.05996969228973339],
    [0.12813974731460287, 0.1271728507370011, 0.12598228833321876, 0.041161229600981133],
    [0.12638400805856304, 0.12535537864942237, 0.1241717856322252, 0.02501242240923234],
    [0.12475820941311735, 0.12364893388409252, 0.12247031116408139, 0.009851199577999752],
])


def test_simulated_sweep_seeded_golden():
    rows = simulate_sweep(WERNER, REFERENCE_THETAS, 350, NoiseConfig(6.0, 0.003, 7))
    assert [theta for theta, _ in rows] == list(REFERENCE_THETAS)
    assert_allclose([quad.edges for _, quad in rows], SIM_SWEEP_SEED7_EDGES, rtol=0, atol=1e-12)
    assert_allclose(
        [quad.uncertainties for _, quad in rows], SIM_SWEEP_SEED7_UNCERTAINTIES, rtol=0, atol=1e-12
    )


def test_sweep_appending_an_angle_keeps_earlier_rows():
    noise = NoiseConfig(6.0, 0.003, 11)
    short = simulate_sweep(WERNER, REFERENCE_THETAS[:5], 350, noise)
    longer = simulate_sweep(WERNER, REFERENCE_THETAS[:5] + (0.55,), 350, noise)
    assert longer[:5] == short


def test_sweep_of_no_angles_is_empty():
    assert simulate_sweep(WERNER, (), 350, NoiseConfig(6.0, 0.003, 1)) == []
    assert simulate_sweep(WERNER, np.array([]), 350, QUIET) == []


def _ginibre_state(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    return DensityMatrix(2, m / np.trace(m).real)


def _per_edge_reference(rho, theta, counts_per_mode, noise, stream):
    """One run the scalar way: per-edge Born table, draws, estimate, and error bars.

    Returns the four edges' raw counts, then either their estimated
    distances or the EstimationError the estimate raised, then the
    propagated uncertainties.
    """
    h = expsim._ANGLE_STEP
    a1, a2, b1, b2 = (s.stokes_angle for s in schumacher_settings(theta))
    counts, distances, deltas = [], [], []
    error = None
    for k, (a, b) in enumerate([(a1, b1), (a2, b1), (a2, b2), (a1, b2)]):
        dist = joint_probabilities(rho, [a, b])
        record = sample_counts(dist, counts_per_mode, noise.seed, stream=(*stream, k))
        record = add_accidentals(record, noise, stream=(*stream, k))
        counts.append(record.counts)
        try:
            distances.append(info_distance(estimate_distribution(record)))
        except EstimationError as exc:
            error = error or exc

        d = [info_distance(joint_probabilities(rho, [a + da, b + db]))
             for da, db in [(h, 0), (-h, 0), (0, h), (0, -h)]]
        variance = ((d[0] - d[1]) / (2 * h) * noise.angle_sigma) ** 2
        variance += ((d[2] - d[3]) / (2 * h) * noise.angle_sigma) ** 2
        expected = counts_per_mode * dist.probs.ravel() + noise.accidental_mean
        step = max(1.0, expsim._COUNT_STEP_FRACTION * counts_per_mode)
        for j in range(4):
            shifted = []
            for sign in (1.0, -1.0):
                n = expected.copy()
                n[j] = max(0.0, n[j] + sign * step)
                est = np.clip(n - noise.accidental_mean, 0.0, None)
                shifted.append((n[j], info_distance(JointDistribution((est / est.sum()).reshape(2, 2)))))
            (n_up, d_up), (n_down, d_down) = shifted
            variance += ((d_up - d_down) / (n_up - n_down)) ** 2 * expected[j]
        deltas.append(np.sqrt(variance))
    return np.array(counts), error or np.array(distances), np.array(deltas)


@pytest.mark.parametrize("state", ["werner", "bell", "ginibre"])
@pytest.mark.parametrize("accidental_mean", [0.0, 6.0])
@pytest.mark.parametrize("angle_sigma", [0.0, 0.003])
@pytest.mark.parametrize("counts_per_mode", [1, 50, 350, 5000])
def test_simulated_sweep_matches_per_edge_reference(monkeypatch, state, accidental_mean,
                                                    angle_sigma, counts_per_mode):
    rho = {"werner": WERNER, "bell": bell_state("phi+").density_matrix(),
           "ginibre": _ginibre_state(3)}[state]
    noise = NoiseConfig(accidental_mean, angle_sigma, seed=counts_per_mode + 17)
    thetas = REFERENCE_THETAS[::2] if counts_per_mode == 1 else REFERENCE_THETAS
    reference = [_per_edge_reference(rho, t, counts_per_mode, noise, (i,)) for i, t in enumerate(thetas)]

    # The estimator sees every drawn count table once, in one integer (n, 4, 2, 2) array.
    drawn = []
    estimated_tables = expsim._estimated_tables

    def spy(counts, accidental):
        if np.issubdtype(np.asarray(counts).dtype, np.integer):
            drawn.append(np.array(counts))
        return estimated_tables(counts, accidental)

    monkeypatch.setattr(expsim, "_estimated_tables", spy)
    if any(isinstance(d, EstimationError) for _, d, _ in reference):
        with pytest.raises(EstimationError):
            simulate_sweep(rho, thetas, counts_per_mode, noise)
        assert len(drawn) == 1
        assert np.array_equal(drawn[0], [c for c, _, _ in reference])
        return
    rows = simulate_sweep(rho, thetas, counts_per_mode, noise)
    assert len(drawn) == 1
    assert np.array_equal(drawn[0], [c for c, _, _ in reference])
    assert [t for t, _ in rows] == list(thetas)
    assert_allclose([q.edges for _, q in rows], [d for _, d, _ in reference], rtol=0, atol=1e-15)
    assert_allclose([q.uncertainties for _, q in rows], [dd for _, _, dd in reference], rtol=0, atol=1e-15)
    monkeypatch.undo()
    for i, (theta, quad) in enumerate(rows):
        assert simulate_schumacher_run(rho, theta, counts_per_mode, noise, stream=(i,)) == quad


@pytest.mark.parametrize("accidental_mean", [0.0, 6.0])
def test_simulated_counts_estimate_to_the_sweep_distances(accidental_mean):
    """The raw counts, estimated and turned into distances, are the sweep's distances bit for bit."""
    noise = NoiseConfig(accidental_mean, 0.003, 4)
    tables = expsim._model_edges(WERNER, np.array(REFERENCE_THETAS), 350, noise)[0]
    counts = expsim._simulated_counts(tables, 350, noise, ())
    assert counts.dtype == np.int64 and counts.shape == (len(REFERENCE_THETAS), 4, 2, 2)
    assert counts.sum(axis=(-2, -1)).min() >= 350
    d = infogeo._info_distances(expsim._estimated_tables(counts, accidental_mean))
    rows = simulate_sweep(WERNER, REFERENCE_THETAS, 350, noise)
    assert np.array_equal(d, [quad.edges for _, quad in rows])


@pytest.mark.parametrize("accidental_mean", [6.0, 0.0])
def test_simulated_sweep_is_one_born_pass(monkeypatch, accidental_mean):
    """One Born pass, and one batched key computation for both draw purposes: no per-draw stream_rng."""
    calls = {"_born_tables": 0, "_stream_keys": 0, "_seed_sequence_keys": 0, "stream_rng": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(expsim, "_born_tables")
    counted(expsim, "_stream_keys")
    counted(infogeo, "_seed_sequence_keys")
    counted(expsim, "stream_rng")
    counted(infogeo, "stream_rng")
    rows = simulate_sweep(WERNER, REFERENCE_THETAS, 350, NoiseConfig(accidental_mean, 0.003, 4))
    assert len(rows) == len(REFERENCE_THETAS)
    assert calls == {"_born_tables": 1, "_stream_keys": 1, "_seed_sequence_keys": 1, "stream_rng": 0}


# One count per mode under six accidentals per bin: at this seed every bin of
# some edge at the first reference angle falls to zero after subtraction.
CLAMPED_NOISE = NoiseConfig(accidental_mean=6.0, angle_sigma=0.003, seed=8)


def test_simulated_sweep_raises_when_every_bin_clamps():
    theta = REFERENCE_THETAS[0]
    a1, a2, b1, b2 = schumacher_settings(theta)
    emptied = []
    for k, (a, b) in enumerate([(a1, b1), (a2, b1), (a2, b2), (a1, b2)]):
        record = sample_counts(joint_probabilities(WERNER, [a, b]), 1, CLAMPED_NOISE.seed, stream=(0, k))
        record = add_accidentals(record, CLAMPED_NOISE, stream=(0, k))
        emptied.append(bool((record.counts <= record.accidental_estimate).all()))
    assert any(emptied)
    with pytest.raises(EstimationError, match="empty after accidental subtraction"):
        simulate_sweep(WERNER, (theta,), 1, CLAMPED_NOISE)
    with pytest.raises(EstimationError):
        simulate_sweep(WERNER, REFERENCE_THETAS, 1, CLAMPED_NOISE)


COUNT_ENTRIES = {
    "sample_counts": ("n_trials", lambda n: sample_counts(bell_dist(), n, seed=1)),
    "propagate_error": ("counts_per_mode", lambda n: propagate_error(WERNER, 0.3, n, QUIET)),
    "simulate_schumacher_run": ("counts_per_mode", lambda n: simulate_schumacher_run(WERNER, 0.3, n, QUIET)),
    "simulate_sweep": ("counts_per_mode", lambda n: simulate_sweep(WERNER, [0.3], n, QUIET)),
    "CoincidenceRecord": ("total_trials", lambda n: CoincidenceRecord(
        None, np.array([[350, 0], [0, 0]]), np.zeros((2, 2)), n)),
}


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
@pytest.mark.parametrize("count, error", [
    (350.9, TypeError), (350.0, TypeError), (True, TypeError), (float("nan"), TypeError), ("350", TypeError),
    (0, ValueError), (-3, ValueError), (2**63, ValueError), (10**20, ValueError),
])
def test_counts_are_checked_where_they_enter(entry, count, error):
    """A count is an integer from 1 to 2**63 - 1 (a record's total from 0, and equal to its
    count sum) and not a bool; the error names the argument."""
    name, call = COUNT_ENTRIES[entry]
    with pytest.raises(error, match=f"^{name} = "):
        call(count)
    assert repr(call(np.int64(350))) == repr(call(350))
