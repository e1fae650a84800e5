import json
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from infobell import (
    MODE_LABELS,
    OPTIMAL_BELL_SETTINGS,
    DensityMatrix,
    MeasurementSetting,
    TomoDataset,
    TomographyError,
    bell_state,
    chsh,
    concurrence,
    correlation,
    expected_counts,
    fidelity,
    joint_probabilities,
    linear_inversion,
    mle_reconstruct,
    modified_werner,
)
from infobell import tomography
from infobell.tomography import (
    _FRAME,
    _KETS,
    _MODE_STATES,
    _barrier_derivatives,
    _frame_cholesky,
    _project_physical,
    mode_probabilities,
)
from conftest import random_density

BELL = bell_state("phi+").density_matrix()
WERNER = modified_werner(0.998, 0.225)
PINS = json.loads((Path(__file__).parent / "data" / "solver_pins.json").read_text())
# Drawn from modified_werner(0.971596590988624, 1.924760804691114) at 10,000 per basis.
RANK_DEFICIENT_COUNTS = np.array([4918, 84, 4947, 78, 2453, 2460, 2429, 2548,
                                  4783, 1646, 4919, 2595, 2454, 2461, 2554, 1629])


def trace_distance(a, b) -> float:
    ma = getattr(a, "matrix", a)
    mb = getattr(b, "matrix", b)
    eigs = np.linalg.eigvalsh(ma - mb)
    return 0.5 * float(np.abs(eigs).sum())


def noisy_dataset(rho, per_basis, seed):
    rng = np.random.default_rng(seed)
    p = mode_probabilities(rho.matrix)
    return TomoDataset(rng.poisson(per_basis * p).astype(np.int64))


def profiled_nll(rho_matrix, counts) -> float:
    """Poisson -logL of the state, the count scale set to its optimum sum(n)/sum(p)."""
    p = mode_probabilities(rho_matrix)
    mu = (counts.sum() / p.sum()) * p
    return float((mu - counts * np.log(mu)).sum())


def test_mode_labels_canonical_order():
    assert len(MODE_LABELS) == 16
    assert MODE_LABELS[:4] == ("HH", "HV", "VV", "VH")
    assert len(set(MODE_LABELS)) == 16


def test_tomo_modes_are_normalized_product_states():
    for label, state in zip(MODE_LABELS, _MODE_STATES):
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
        assert_allclose(state, np.kron(_KETS[label[0]], _KETS[label[1]]), atol=0)
        ket_a = _KETS[label[0]]
        p = np.outer(ket_a, ket_a.conj())
        assert_allclose(p @ p, p, atol=1e-12)


def test_mode_probabilities_first_quartet_sums_to_one(rng):
    rho = random_density(rng)
    p = mode_probabilities(rho.matrix)
    assert p.shape == (16,)
    assert (p > -1e-12).all() and (p < 1 + 1e-12).all()
    assert p[:4].sum() == pytest.approx(1.0, abs=1e-10)


def test_mode_probabilities_are_the_mode_kets_born_rule(rng):
    for _ in range(20):
        rho = random_density(rng).matrix
        expected = np.einsum("oi,ij,oj->o", _MODE_STATES.conj(), rho, _MODE_STATES).real
        assert_allclose(mode_probabilities(rho), expected, rtol=0, atol=1e-15)


def test_expected_counts_returns_dataset():
    data = expected_counts(BELL, 1000)
    assert isinstance(data, TomoDataset)
    assert data.counts.dtype == np.int64
    assert data.counts[MODE_LABELS.index("HH")] == 500
    assert np.array_equal(expected_counts(BELL, np.int32(1000)).counts, data.counts)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 1e30, 2.5, True, "7"])
def test_expected_counts_rejects_a_per_basis_that_is_not_an_integer(bad):
    with pytest.raises(TypeError, match="^per_basis = .* is not an integer$"):
        expected_counts(BELL, bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [-1, 2**53 + 1, 10**30])
def test_expected_counts_rejects_a_per_basis_out_of_range(bad):
    with pytest.raises(ValueError, match=f"^per_basis = {bad} must be from 0 to 2\\*\\*53$"):
        expected_counts(BELL, bad)


def test_expected_counts_total_overflows_before_per_basis_does():
    """The 16 mode probabilities sum to more than 1 (4.5 for a Bell state),
    so a per_basis inside its own gate can still push the count total
    past 2**53."""
    with pytest.raises(ValueError, match=r"^count total \d+ exceeds 2\*\*53"):
        expected_counts(BELL, 2**51)
    assert int(expected_counts(BELL, 2**53 // 7).counts.sum()) <= 2**53


def test_linear_inversion_exact_round_trip(rng):
    rho = random_density(rng)
    data = expected_counts(rho, 10**7)
    recovered = linear_inversion(data)
    assert trace_distance(recovered, rho) < 1e-5


def test_linear_inversion_rejects_empty_scale():
    with pytest.raises(TomographyError):
        linear_inversion(TomoDataset(np.zeros(16, dtype=np.int64)))


def test_dataset_csv_round_trip(tmp_path):
    data = expected_counts(WERNER, 5000)
    path = tmp_path / "counts.csv"
    path.write_text(data.to_csv())
    back = TomoDataset.from_csv(str(path))
    assert np.array_equal(back.counts, data.counts)


def test_dataset_from_csv_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    rows = ["label,counts"] + [f"{lab},10" for lab in MODE_LABELS] + ["HH,3"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="HH"):
        TomoDataset.from_csv(str(path))


def test_dataset_from_csv_rejects_missing_and_unknown(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("label,counts\nHH,10\n")
    with pytest.raises(ValueError):
        TomoDataset.from_csv(str(path))
    path.write_text("label,counts\n" + "\n".join(f"{lab},1" for lab in MODE_LABELS) + "\nXX,5\n")
    with pytest.raises(ValueError, match="XX"):
        TomoDataset.from_csv(str(path))


def test_dataset_from_csv_rejects_bad_count_with_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,counts\nHH,ten\n")
    with pytest.raises(ValueError, match="line 2"):
        TomoDataset.from_csv(str(path))


def _write_counts(path, count):
    path.write_text("label,counts\n" + "".join(f"{lab},{count}\n" for lab in MODE_LABELS))
    return str(path)


def test_dataset_from_csv_rejects_a_total_beyond_exact_floats(tmp_path):
    """2**62 per mode fits int64, but the total 2**66 wraps an int64 sum."""
    with pytest.raises(ValueError, match=f"^count total {16 * 2**62} exceeds 2\\*\\*53"):
        TomoDataset.from_csv(_write_counts(tmp_path / "big.csv", 2**62))
    TomoDataset(np.full(16, 2**49, dtype=np.int64))  # 2**53 in all is still exact
    with pytest.raises(ValueError, match="exceeds 2\\*\\*53"):
        TomoDataset(np.array([2**53 - 14] + [1] * 15, dtype=np.int64))


def test_dataset_rejects_a_count_beyond_int64_by_mode(tmp_path):
    with pytest.raises(ValueError, match=f"^mode HH: count = {2**70} must be from 0 to 2\\*\\*63 - 1$"):
        TomoDataset.from_csv(_write_counts(tmp_path / "huge.csv", 2**70))
    counts = np.zeros(16, dtype=np.uint64)
    counts[5] = 2**63
    with pytest.raises(ValueError, match=f"^mode {MODE_LABELS[5]}: count = {2**63} must be from"):
        TomoDataset(counts)
    with pytest.raises(ValueError, match="^mode VV: count = -1 must be from"):
        TomoDataset(np.array([0, 0, -1] + [0] * 13))


def test_dataset_holds_a_read_only_copy_of_the_counts():
    """A -5 written into the caller's array after the checks used to reach the MLE,
    which then returned converged=False without raising."""
    counts = np.full(16, 100)
    data = TomoDataset(counts)
    counts[0] = -5
    assert data.counts[0] == 100
    assert not data.counts.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        data.counts[0] = -5
    assert mle_reconstruct(data).converged


def test_dataset_from_mapping():
    mapping = {lab: 7 for lab in MODE_LABELS}
    data = TomoDataset.from_mapping(mapping)
    assert (data.counts == 7).all()
    with pytest.raises(ValueError):
        TomoDataset.from_mapping({lab: 7 for lab in MODE_LABELS[:-1]})


def test_dataset_checks_its_counts_once(tmp_path, monkeypatch):
    calls = []
    check = tomography._check_counts
    monkeypatch.setattr(tomography, "_check_counts", lambda counts: calls.append(1) or check(counts))
    TomoDataset.from_csv(_write_counts(tmp_path / "counts.csv", 7))
    TomoDataset.from_mapping({lab: 7 for lab in MODE_LABELS})
    TomoDataset(np.full(16, 7))
    assert len(calls) == 3


@pytest.mark.parametrize("value", [12.7, 12.0, "12", True, np.float64(12.0)])
def test_dataset_from_mapping_refuses_non_integer_counts(value):
    """Each count passes operator.index and is not a bool, so nothing is truncated; the error names the mode."""
    mapping = {lab: 7 for lab in MODE_LABELS}
    mapping["HV"] = value
    with pytest.raises(TypeError, match=re.escape(f"mode HV: count = {value!r} is not an integer")):
        TomoDataset.from_mapping(mapping)
    mapping["HV"] = np.int32(12)
    assert TomoDataset.from_mapping(mapping).counts[MODE_LABELS.index("HV")] == 12


def test_mle_output_is_always_physical(rng):
    for seed in range(5):
        data = noisy_dataset(random_density(rng), 300, seed)
        result = mle_reconstruct(data)
        rho = result.rho_mle
        assert isinstance(rho, DensityMatrix)  # constructor enforces the axioms
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-9


def test_mle_beats_projected_linear_inversion():
    data = noisy_dataset(WERNER, 800, seed=21)
    result = mle_reconstruct(data)
    projected = _project_physical(linear_inversion(data))
    counts = data.counts.astype(float)
    nll_li = profiled_nll(projected, counts)
    assert np.isfinite(nll_li)
    assert profiled_nll(result.rho_mle.matrix, counts) <= nll_li + 1e-9


@pytest.mark.parametrize("pin", PINS["mle"], ids=lambda pin: f"seed{pin['seed']}")
def test_mle_never_worse_than_derivative_free_pins(pin):
    result = mle_reconstruct(TomoDataset(np.array(pin["counts"], dtype=np.int64)))
    assert result.converged
    assert result.log_likelihood >= pin["log_likelihood"] - 1e-9
    pinned = np.array(pin["rho_re"]) + 1j * np.array(pin["rho_im"])
    assert trace_distance(result.rho_mle, pinned) <= 1e-4


def test_mle_passes_a_rank_deficient_stationary_point():
    """Counts drawn from modified_werner(0.971596590988624, 1.924760804691114)
    at 10,000 per basis. A Cholesky-chart optimizer stopped here at a
    rank-2 state, log-likelihood 304300.0793; the maximum has rank 3 and
    lies 0.196 higher. The tangent predictor after each barrier shrink
    reaches it in 18 steps; Newton steps alone took 37, their line search
    halving them down to 1/128 on the rank boundary."""
    result = mle_reconstruct(TomoDataset(RANK_DEFICIENT_COUNTS))
    assert result.converged
    assert result.n_iterations <= 20
    assert result.log_likelihood >= 304300.27
    assert np.linalg.eigvalsh(result.rho_mle.matrix)[1] > 1e-3


def test_log_likelihood_is_the_profiled_poisson_formula(rng):
    for data in (noisy_dataset(WERNER, 500, seed=4), noisy_dataset(random_density(rng), 300, seed=5)):
        result = mle_reconstruct(data)
        counts = data.counts.astype(float)
        assert result.log_likelihood == pytest.approx(-profiled_nll(result.rho_mle.matrix, counts),
                                                      rel=1e-13)


def test_dual_frame_reproduces_the_mode_counts(rng):
    m = rng.uniform(1.0, 50.0, size=16)
    sigma = (m @ _FRAME).reshape(4, 4)
    assert np.array_equal(sigma, sigma.conj().T)
    assert_allclose(mode_probabilities(sigma), m, rtol=1e-13)


def _barrier_objective(m, counts, mu) -> float:
    eigenvalues = np.linalg.eigvalsh((m @ _FRAME).reshape(4, 4))
    assert eigenvalues.min() > 0.0
    return float((m - counts * np.log(m)).sum()) - mu * float(np.log(eigenvalues).sum())


def test_barrier_derivatives_match_central_differences(rng):
    """Gradient against differences of the objective, Hessian against
    differences of the gradient, with one mode at zero counts."""
    counts = noisy_dataset(random_density(rng), 300, seed=5).counts.astype(float)
    counts[3] = 0.0
    for mu in (2.0, 0.05):
        m = counts.sum() * mode_probabilities(random_density(rng).matrix)
        gradient, hessian = _barrier_derivatives(m, counts, mu, _frame_cholesky(m))
        numeric_gradient = np.empty(16)
        numeric_hessian = np.empty((16, 16))
        for k in range(16):
            h = 1e-6 * m[k]
            up, down = m.copy(), m.copy()
            up[k] += h
            down[k] -= h
            numeric_gradient[k] = (_barrier_objective(up, counts, mu)
                                   - _barrier_objective(down, counts, mu)) / (2 * h)
            numeric_hessian[k] = (_barrier_derivatives(up, counts, mu, _frame_cholesky(up))[0]
                                  - _barrier_derivatives(down, counts, mu, _frame_cholesky(down))[0]
                                  ) / (2 * h)
        assert np.linalg.norm(gradient - numeric_gradient) <= 1e-6 * np.linalg.norm(gradient)
        assert np.linalg.norm(hessian - numeric_hessian) <= 1e-6 * np.linalg.norm(hessian)
        assert np.array_equal(hessian, hessian.T)


def _near_pure_werner_bank():
    """20 Poisson datasets about modified_werner(lambda in [0.9, 1], phase in [0, pi]) at 10,000 per basis."""
    rng = np.random.default_rng(1616)
    return [TomoDataset(rng.poisson(expected_counts(modified_werner(lam, phase), 10_000).counts))
            for lam, phase in rng.uniform((0.9, 0.0), (1.0, np.pi), (20, 2))]


def test_every_newton_step_lowers_the_barrier_objective(monkeypatch):
    """Predictor steps after each barrier shrink included: on the
    rank-deficient counts, near-pure Werner datasets and the pins."""
    newton_step = tomography._newton_step
    falls = []

    def checked(m, step, decrement, counts, mu, chol):
        accepted = newton_step(m, step, decrement, counts, mu, chol)
        if accepted is not None:
            falls.append(_barrier_objective(m, counts, mu)
                         - _barrier_objective(accepted[0], counts, mu))
        return accepted

    monkeypatch.setattr(tomography, "_newton_step", checked)
    bank = [TomoDataset(RANK_DEFICIENT_COUNTS)] + _near_pure_werner_bank()
    bank += [TomoDataset(np.array(pin["counts"])) for pin in PINS["mle"]]
    for data in bank:
        falls.clear()
        result = mle_reconstruct(data)
        assert result.converged
        assert len(falls) == result.n_iterations
        assert min(falls) >= -1e-9


def test_predictor_steps_stay_off_the_self_concordance_shortcut(monkeypatch):
    """The line search takes any positive-definite step whose squared decrement
    is at most 0.1 min(mu, 1); that bound holds for Newton steps alone. A
    predictor step is the one searched at a weight the derivatives were not
    evaluated at."""
    barrier_derivatives, newton_step = tomography._barrier_derivatives, tomography._newton_step
    evaluated_at, predictor_slopes = [], []

    def derivatives(m, counts, mu, chol):
        evaluated_at.append(mu)
        return barrier_derivatives(m, counts, mu, chol)

    def searched(m, step, decrement, counts, mu, chol):
        if mu != evaluated_at[-1]:
            predictor_slopes.append(decrement / min(mu, 1.0))
        return newton_step(m, step, decrement, counts, mu, chol)

    monkeypatch.setattr(tomography, "_barrier_derivatives", derivatives)
    monkeypatch.setattr(tomography, "_newton_step", searched)
    bank = _near_pure_werner_bank() + [TomoDataset(np.array(pin["counts"])) for pin in PINS["mle"]]
    for data in bank:
        assert mle_reconstruct(data).converged
    assert len(predictor_slopes) >= 4 * len(bank)
    assert min(predictor_slopes) > 0.1


def test_mle_on_near_pure_states_takes_few_steps():
    """Median 17 steps on this bank with the barrier starting at 1; 20 from a start of 1e-4 of
    the total count, and 33.5 with Newton steps alone after each barrier shrink."""
    steps = [mle_reconstruct(data).n_iterations for data in _near_pure_werner_bank()]
    assert np.median(steps) <= 18


def test_barrier_starts_at_one_whatever_the_count_total(monkeypatch):
    """At 10,000 per basis the total count is about 45,000, so a start of 1e-4 of it would be 4.5."""
    barrier_derivatives, weights = tomography._barrier_derivatives, []

    def derivatives(m, counts, mu, chol):
        weights.append(mu)
        return barrier_derivatives(m, counts, mu, chol)

    monkeypatch.setattr(tomography, "_barrier_derivatives", derivatives)
    data = noisy_dataset(WERNER, 10_000, seed=3)
    assert data.counts.sum() > 4e4
    assert mle_reconstruct(data).converged
    assert weights[0] == 1.0
    assert weights[-1] == max(1e-10, 16 * np.finfo(float).eps * data.counts.sum()) / 4.0


def test_mle_that_hits_the_step_cap_reports_it(monkeypatch):
    monkeypatch.setattr(tomography, "_MAX_NEWTON_STEPS", 3)
    result = mle_reconstruct(noisy_dataset(WERNER, 3000, seed=7))
    assert not result.converged
    assert result.n_iterations == 3
    assert np.linalg.eigvalsh(result.rho_mle.matrix).min() >= -1e-9


def test_mle_round_trip_error_shrinks_with_counts():
    """Median reconstruction error over 20 seeds decreases as counts grow."""
    medians = []
    for per_basis in (10**3, 10**4, 10**5):
        errors = [
            trace_distance(mle_reconstruct(noisy_dataset(WERNER, per_basis, seed)).rho_mle, WERNER)
            for seed in range(20)
        ]
        medians.append(float(np.median(errors)))
    assert medians[0] > medians[1] > medians[2]


def test_mle_reports_target_comparison():
    result = mle_reconstruct(expected_counts(BELL, 10**5), target=bell_state("phi+"))
    assert result.report.fidelity >= 0.999
    assert result.converged
    payload = result.to_json_dict()
    assert set(payload) >= {"rho_mle", "rho_linear", "report", "log_likelihood", "converged"}


def test_correlation_matches_direct_computation(rng):
    rho = random_density(rng)
    a, b = MeasurementSetting(0.4), MeasurementSetting(1.1)
    p = joint_probabilities(rho, (a, b)).probs
    assert correlation(rho, a, b) == pytest.approx(
        p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0], abs=1e-12
    )


def test_chsh_bell_optimal_settings():
    assert chsh(BELL, *OPTIMAL_BELL_SETTINGS) == pytest.approx(2 * np.sqrt(2), abs=1e-9)


def test_chsh_maximally_mixed_is_zero():
    mixed = DensityMatrix(2, np.eye(4) / 4)
    assert chsh(mixed, *OPTIMAL_BELL_SETTINGS) == pytest.approx(0.0, abs=1e-9)


def test_chsh_exchange_invariance(rng):
    for _ in range(20):
        rho = random_density(rng)
        a1, a2, b1, b2 = (MeasurementSetting(x) for x in rng.uniform(-4, 4, size=4))
        s = chsh(rho, a1, a2, b1, b2)
        swapped = chsh(rho, a2, a1, b2, b1)
        assert abs(s) == pytest.approx(abs(swapped), abs=1e-9)


def test_chsh_tsirelson_sample(rng):
    for _ in range(50):
        rho = random_density(rng)
        settings = [MeasurementSetting(x) for x in rng.uniform(-7, 7, size=4)]
        assert abs(chsh(rho, *settings)) <= 2 * np.sqrt(2) + 1e-9


def test_tomography_round_trip_concurrence():
    result = mle_reconstruct(expected_counts(WERNER, 10**4))
    assert concurrence(result.rho_mle) == pytest.approx(0.997, abs=0.02)
    assert fidelity(result.rho_mle, bell_state("phi+")) > 0.9
