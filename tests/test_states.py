import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from infobell import (
    DensityMatrix,
    EntanglementReport,
    JointDistribution,
    MeasurementSetting,
    PureState,
    bell_state,
    chsh,
    concurrence,
    conditional_entropy,
    entanglement_report,
    fidelity,
    joint_probabilities,
    max_violation,
    modified_werner,
    partial_trace,
    polarizer_projector,
    quadrilateral,
    reactivity,
    sweep,
    violation,
    visibility,
)
from infobell import states
from conftest import random_density, random_pure

ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_measurement_setting_angle_conventions():
    s = MeasurementSetting(1.2)
    assert s.stokes_angle == 1.2
    assert s.physical_angle == pytest.approx(0.6)
    assert s.hwp_angle == pytest.approx(0.3)


def test_measurement_setting_rejects_non_finite_angles():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not finite"):
            MeasurementSetting(bad)
    for bad in (True, "0.3"):
        with pytest.raises(TypeError, match=f"^stokes_angle = {bad!r} is not a real number$"):
            MeasurementSetting(bad)
    assert type(MeasurementSetting(np.float32(0.5)).stokes_angle) is float


def test_bare_angles_are_checked_where_they_enter():
    rho = bell_state("phi+").density_matrix()
    entries = (("setting", lambda bad: polarizer_projector(bad)),
               ("settings", lambda bad: joint_probabilities(rho, [0.0, bad])),
               ("a1", lambda bad: chsh(rho, bad, 0.0, 0.5, 1.0)))
    for name, enter in entries:
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not finite"):
                enter(bad)
        for bad in (True, "0.3"):
            with pytest.raises(TypeError, match=f"^{name} = {bad!r} is not a real number$"):
                enter(bad)
    for theta, offset, name in ((float("nan"), 0.0, "theta"), (0.3, float("nan"), "offset")):
        with pytest.raises(ValueError, match=f"^{name} = nan is not finite$"):
            violation(rho, theta, offset)


def test_bell_states_are_orthonormal():
    kinds = ("phi+", "phi-", "psi+", "psi-")
    states = [bell_state(k).amplitudes for k in kinds]
    gram = np.array([[np.vdot(a, b) for b in states] for a in states])
    assert_allclose(gram, np.eye(4), atol=1e-12)


def test_bell_state_phi_plus_amplitudes():
    amps = bell_state("PHI+").amplitudes
    assert_allclose(amps, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)


def test_bell_state_unknown_kind():
    with pytest.raises(ValueError):
        bell_state("sigma+")


@pytest.mark.parametrize("kind", [3, None, b"phi+"])
def test_bell_state_refuses_a_non_string_kind(kind):
    with pytest.raises(TypeError, match=f"^kind = {re.escape(repr(kind))} is not a string$"):
        bell_state(kind)


def test_pure_state_requires_normalization():
    for amplitudes in ([1.0, 1.0], [np.nan, 0.0], [1.0, np.inf]):
        with pytest.raises(ValueError, match="squared norm"):
            PureState(np.array(amplitudes))


def test_pure_state_requires_qubit_dimension():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 0.0, 0.0]))


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(1, m)


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.diag([0.7, 0.7]).astype(complex))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        DensityMatrix(1, np.diag([1.5, -0.5]).astype(complex))


def test_density_matrix_rejects_eigenvalues_below_the_table_floor():
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(2, np.diag([0.5 + 5e-10, 0.5, 0.0, -5e-10]))
    DensityMatrix(2, np.diag([0.5 + 5e-13, 0.5, 0.0, -5e-13]))


@pytest.mark.parametrize("matrix, message", [
    (np.eye(4) / 2, "trace 2.0 is not 1"),
    (np.diag([1.1, -0.1, 0.0, 0.0]), "negative eigenvalue -0.1 beyond tolerance"),
])
def test_density_matrix_messages_print_plain_numbers(matrix, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        DensityMatrix(2, matrix)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_density_matrix_rejects_non_finite_entries(bad):
    for i, j in ((0, 0), (0, 1)):
        m = np.eye(2, dtype=complex) / 2
        m[i, j] = m[j, i] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(1, m)


def test_density_matrix_holds_n_qubits_as_a_python_int():
    rho = DensityMatrix(np.int64(2), np.eye(4) / 4)
    assert type(rho.n_qubits) is int and type(rho.dim) is int
    payload = json.loads(json.dumps(rho.to_json_dict()))
    assert DensityMatrix.from_json_dict(payload).n_qubits == 2
    with pytest.raises(TypeError):
        DensityMatrix(2.0, np.eye(4) / 4)
    with pytest.raises(TypeError):
        DensityMatrix.from_json_dict({**payload, "n_qubits": 2.9})
    with pytest.raises(TypeError, match=r"^n_qubits = True is not an integer$"):
        DensityMatrix(True, np.eye(2) / 2)
    with pytest.raises(TypeError, match=r"^n_qubits = True is not an integer$"):
        DensityMatrix.from_json_dict({**DensityMatrix(1, np.eye(2) / 2).to_json_dict(), "n_qubits": True})


def test_density_matrix_holds_a_read_only_copy_of_the_callers_matrix():
    """Mutating the caller's array, before or after the coefficients are cached, changes neither."""
    m = np.eye(4, dtype=complex) / 4
    rho, cached = DensityMatrix(2, m), DensityMatrix(2, m)
    cached.pauli_coefficients
    m[0, 0] = 5
    reference = DensityMatrix(2, np.eye(4) / 4)
    for state in (rho, cached):
        assert np.array_equal(state.matrix, reference.matrix)
        assert np.array_equal(state.pauli_coefficients, reference.pauli_coefficients)
        assert not state.matrix.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rho.matrix[0, 0] = 5


def _state_with_eigenvalue(rng, eigenvalue, stokes):
    """A random state whose eigenvalue ``eigenvalue`` belongs to the product
    state that analyzers at the Stokes angles ``stokes`` all pass."""
    d = 2 ** len(stokes)
    g = rng.standard_normal((d, d - 1)) + 1j * rng.standard_normal((d, d - 1))
    g[0] = 0.0
    m = g @ g.conj().T
    m *= (1.0 - eigenvalue) / np.trace(m).real
    m[0, 0] = eigenvalue
    u = _kron_all([np.array([[np.cos(a / 2), -np.sin(a / 2)], [np.sin(a / 2), np.cos(a / 2)]])
                   for a in stokes])
    return u @ m @ u.T


# Smallest eigenvalues on both sides of the shared floor of -1e-12.
FLOOR_PROBES = (-1e-9, -5e-10, -1e-11, -1.01e-12, -0.99e-12, -5e-13, 0.0, 1e-13)


def test_accepted_states_never_fail_a_probability_check(rng):
    """A state is rejected below the floor; above it, no exact kernel finds a bad table,
    even with an analyzer setting that reads the state's smallest eigenvalue."""
    for n in (1, 2, 3, 4):
        for eigenvalue in FLOOR_PROBES:
            for stokes in (rng.uniform(-np.pi, np.pi, n), np.resize([np.pi / 2, 3 * np.pi / 2], n)):
                matrix = _state_with_eigenvalue(rng, eigenvalue, stokes)
                if eigenvalue < -1e-12:
                    with pytest.raises(ValueError, match="negative eigenvalue"):
                        DensityMatrix(n, matrix)
                    continue
                rho = DensityMatrix(n, matrix)
                assert states._born_tables(rho, stokes).min() >= 0.0
                corner = joint_probabilities(rho, stokes).probs[(0,) * n]
                assert corner == pytest.approx(max(eigenvalue, 0.0), abs=1e-14)
                if n == 2:
                    a, b = stokes
                    quadrilateral(rho, b - a, a)
                    violation(rho, b - a, a)
                    chsh(rho, a, 0.3, b, 1.1)
                    visibility(rho, "HV")
                    visibility(rho, "DA")
                if n == 4:
                    reactivity(rho, 4, 0)


def test_density_matrix_json_round_trip(rng):
    rho = random_density(rng)
    back = DensityMatrix.from_json_dict(rho.to_json_dict())
    assert back.n_qubits == rho.n_qubits
    assert_allclose(back.matrix, rho.matrix, atol=0)


def test_modified_werner_pure_limit():
    rho = modified_werner(1.0, 0.0)
    target = bell_state("phi+").density_matrix()
    assert_allclose(rho.matrix, target.matrix, atol=1e-15)


def test_modified_werner_mixed_limit():
    assert_allclose(modified_werner(0.0, 1.234).matrix, np.eye(4) / 4, atol=1e-15)


def test_modified_werner_rejects_bad_lambda():
    with pytest.raises(ValueError):
        modified_werner(1.2, 0.0)
    with pytest.raises(ValueError):
        modified_werner(-0.1, 0.0)


def test_modified_werner_rejects_non_finite_phase():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="phase"):
            modified_werner(0.9, bad)
    for bad in (True, "0.5"):
        with pytest.raises(TypeError, match=f"^lam = {bad!r} is not a real number$"):
            modified_werner(bad, 0.0)
        with pytest.raises(TypeError, match=f"^phase = {bad!r} is not a real number$"):
            modified_werner(0.9, bad)


@pytest.mark.parametrize("n_qubits", [2.5, 2.0, "2", True])
def test_modified_werner_needs_an_integer_qubit_count(n_qubits):
    with pytest.raises(TypeError, match=f"^n_qubits = {n_qubits!r} is not an integer$"):
        modified_werner(0.9, 0.1, n_qubits=n_qubits)
    rho = modified_werner(0.9, 0.1, n_qubits=np.int64(3))
    assert type(rho.n_qubits) is int and rho.matrix.shape == (8, 8)


def test_modified_werner_four_qubit_ghz_limit():
    rho = modified_werner(1.0, 0.0, n_qubits=4)
    ghz = np.zeros(16)
    ghz[0] = ghz[15] = 1 / np.sqrt(2)
    assert_allclose(rho.matrix, np.outer(ghz, ghz), atol=1e-15)


def test_random_constructions_are_valid_density_matrices(rng):
    """Construction itself enforces Hermiticity, unit trace, positivity."""
    for _ in range(1000):
        lam = rng.uniform(0.0, 1.0)
        phase = rng.uniform(0.0, 2 * np.pi)
        rho = modified_werner(lam, phase)
        assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
    for _ in range(50):
        random_density(rng, 2)
        random_density(rng, 1)


def test_polarizer_projector_is_rank_one_projector(rng):
    for stokes in rng.uniform(-10, 10, size=1000):
        p = polarizer_projector(MeasurementSetting(stokes))
        assert_allclose(p @ p, p, atol=1e-12)
        assert abs(np.trace(p).real - 1.0) < 1e-12


def test_joint_probabilities_normalized_random(rng):
    for _ in range(200):
        rho = random_density(rng)
        settings = tuple(MeasurementSetting(a) for a in rng.uniform(-6, 6, size=2))
        dist = joint_probabilities(rho, settings)
        assert dist.probs.shape == (2, 2)
        assert dist.probs.min() >= 0.0
        assert abs(dist.probs.sum() - 1.0) < 1e-10


def test_joint_probabilities_match_kron_trace_reference(rng):
    """Tr(rho M1 x ... x Mn), built operator by operator, for one to four qubits."""
    eye = np.eye(2)
    for n in (1, 2, 3, 4):
        rho = random_density(rng, n)
        stokes = rng.uniform(-6, 6, size=n)
        effects = [(polarizer_projector(a), eye - polarizer_projector(a)) for a in stokes]
        expected = np.empty((2,) * n)
        for outcome in np.ndindex(*expected.shape):
            op = np.ones((1, 1))
            for k, o in enumerate(outcome):
                op = np.kron(op, effects[k][o])
            expected[outcome] = np.trace(rho.matrix @ op).real
        assert_allclose(joint_probabilities(rho, stokes).probs, expected, rtol=0, atol=1e-14)


PAULIS = (np.eye(2), states.SIGMA_X, states.SIGMA_Y, states.SIGMA_Z)


def _random_bases(rng, shape):
    """Random orthonormal qubit bases (..., 2, 2), kets as rows."""
    a, b = rng.standard_normal((2,) + shape) + 1j * rng.standard_normal((2,) + shape)
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    a, b = a / norm, b / norm
    return np.stack([np.stack([a, b], axis=-1), np.stack([-b.conj(), a.conj()], axis=-1)], axis=-2)


def test_born_matches_the_three_operand_einsum(rng):
    """The real Pauli/Bloch contraction against <u|rho|u> over explicit kron product kets, 1 to 6 qubits;
    then three-outcome lossy effect rows against explicit traces, 1 to 4 qubits."""
    for n in range(1, 7):
        rho = random_density(rng, n).matrix
        coefficients = states._pauli_coefficients(rho)
        for batch in ((), (5,), (3, 2), (0,), (0, 4)):
            bases = _random_bases(rng, batch + (n,))
            kets = np.empty(batch + (2,) * n + (2**n,), dtype=complex)
            for index in np.ndindex(*batch):
                for outcome in np.ndindex(*(2,) * n):
                    ket = np.ones(1)
                    for k, o in enumerate(outcome):
                        ket = np.kron(ket, bases[index + (k, o)])
                    kets[index + outcome] = ket
            expected = np.einsum("...i,ij,...j->...", kets.conj(), rho, kets).real
            passed = bases[..., 0, :]
            blochs = np.einsum("...i,sij,...j->...s", passed.conj(), PAULIS[1:], passed).real
            got = states._born(states._qubit_rows(np.moveaxis(blochs, -2, 0).reshape(n, -1, 3)), coefficients)
            assert got.shape == (math.prod(batch),) + (2,) * n
            assert_allclose(got.reshape(expected.shape), expected, rtol=0, atol=1e-15)
    # A lossy detector per party: efficiency eta times each projector, plus the no-click effect (1 - eta) I.
    m = 3
    for n in range(1, 5):
        rho = random_density(rng, n).matrix
        eta = rng.uniform(0.5, 1.0, (n, m))[..., None, None]
        passed = _random_bases(rng, (n, m))[..., 0, :]
        projector = np.einsum("...i,...j->...ij", passed, passed.conj())
        effects = np.stack([eta * projector, eta * (np.eye(2) - projector), (1.0 - eta) * np.eye(2)], axis=2)
        expected = np.empty((m,) + (3,) * n)
        for i in range(m):
            for outcome in np.ndindex(*(3,) * n):
                effect = np.ones((1, 1))
                for k, o in enumerate(outcome):
                    effect = np.kron(effect, effects[k, i, o])
                expected[(i,) + outcome] = np.trace(rho @ effect).real
        rows = np.einsum("...ij,aji->...a", effects, np.array(PAULIS)).real
        got = states._born(rows, states._pauli_coefficients(rho))
        assert got.shape == expected.shape
        assert_allclose(got, expected, rtol=0, atol=1e-15)
        assert_allclose(got.reshape(m, -1).sum(axis=-1), 1.0, rtol=0, atol=1e-15)


def test_pauli_coefficients_are_the_pauli_traces(rng):
    for n in (1, 2, 3, 4):
        rho = random_density(rng, n).matrix
        expected = np.empty((4,) * n)
        for index in np.ndindex(*expected.shape):
            sigma = np.ones((1, 1))
            for a in index:
                sigma = np.kron(sigma, PAULIS[a])
            expected[index] = np.trace(rho @ sigma).real
        got = states._pauli_coefficients(rho)
        assert got.shape == (4,) * n
        assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_joint_distribution_validates_tables():
    dist = JointDistribution(np.array([[0.5, -1e-13], [0.25, 0.25 + 1e-13]]))
    assert dist.probs.min() == 0.0
    for bad, message in (([[0.6, -0.1], [0.25, 0.25]], "probability -0.1"),
                         ([[0.5, 0.5], [0.5, 0.5]], "sum to 2.0, not 1"),
                         ([[np.nan, 0.5], [0.25, 0.25]], "probability nan"),
                         ([[np.inf, 0.0], [0.0, 0.0]], "sum to inf, not 1")):
        with pytest.raises(ValueError, match=re.escape(message)):
            JointDistribution(np.array(bad))


@given(alpha=ANGLES, beta=ANGLES)
def test_bell_disagreement_law(alpha, beta):
    """For |phi+> the disagreement probability is sin^2((beta-alpha)/2)."""
    rho = bell_state("phi+").density_matrix()
    dist = joint_probabilities(rho, (MeasurementSetting(alpha), MeasurementSetting(beta)))
    p_disagree = dist.probs[0, 1] + dist.probs[1, 0]
    assert p_disagree == pytest.approx(np.sin((beta - alpha) / 2.0) ** 2, abs=1e-10)


def test_partial_trace_of_bell_is_maximally_mixed():
    rho = bell_state("phi+").density_matrix()
    for keep in ((0,), (1,)):
        reduced = partial_trace(rho, keep)
        assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)


# The three entry points that take a party selection, called on a two-party state or its table.
SELECTED_STATE = modified_werner(0.8, 0.3)
SELECTED_TABLE = joint_probabilities(SELECTED_STATE, [0.2, 0.9])
SELECTION_ENTRIES = {
    "marginal": lambda sel: SELECTED_TABLE.marginal(sel).probs,
    "partial_trace": lambda sel: partial_trace(SELECTED_STATE, sel).matrix,
    "conditional_entropy": lambda sel: conditional_entropy(SELECTED_TABLE, sel),
}


@pytest.mark.parametrize("entry", SELECTION_ENTRIES)
@pytest.mark.parametrize("selection, error, detail", [
    (True, TypeError, ": index = True is not an integer"),
    ((0, False), TypeError, ": index = False is not an integer"),
    (1.0, TypeError, ": index = 1.0 is not an integer"),
    ((0, 2), ValueError, ": index = 2 must be from 0 to 1"),
    ((-1,), ValueError, ": index = -1 must be from 0 to 1"),
    ((1, 1), ValueError, " must name at least one index, each once"),
    ((), ValueError, " must name at least one index, each once"),
])
def test_party_selections_are_checked_by_one_rule(entry, selection, error, detail):
    """One index or an iterable of distinct indices in range, any integer type but bool;
    the error names the selection."""
    call = SELECTION_ENTRIES[entry]
    with pytest.raises(error, match=f"^{re.escape(f'party selection {selection!r}{detail}')}$"):
        call(selection)
    assert np.array_equal(call(np.int64(1)), call(1))
    assert np.array_equal(call((np.uint8(1), 0)), call((1, 0)))


def test_partial_trace_of_product_state(rng):
    a = random_density(rng, 1)
    b = random_density(rng, 1)
    joint = DensityMatrix(2, np.kron(a.matrix, b.matrix))
    assert_allclose(partial_trace(joint, (0,)).matrix, a.matrix, atol=1e-12)
    assert_allclose(partial_trace(joint, (1,)).matrix, b.matrix, atol=1e-12)


def _kron_all(matrices):
    out = np.ones((1, 1))
    for m in matrices:
        out = np.kron(out, m)
    return out


@pytest.mark.parametrize("n, keep", [
    (3, (0,)), (3, (2,)), (3, (2, 0)), (3, (1, 2)), (3, (0, 1, 2)),
    (4, (3, 1)), (4, (0, 2)), (4, (3, 0, 2)), (4, (1, 2, 3)), (4, (2,)),
])
def test_partial_trace_of_kron_products(rng, n, keep):
    factors = [random_density(rng, 1).matrix for _ in range(n)]
    reduced = partial_trace(DensityMatrix(n, _kron_all(factors)), keep)
    assert reduced.n_qubits == len(keep)
    assert_allclose(reduced.matrix, _kron_all([factors[i] for i in sorted(keep)]), atol=1e-14)


def test_partial_trace_keeps_an_entangled_pair(rng):
    pair = random_density(rng, 2).matrix
    c, d = random_density(rng, 1).matrix, random_density(rng, 1).matrix
    rho = DensityMatrix(4, _kron_all([pair, c, d]))
    assert_allclose(partial_trace(rho, (3, 1, 0)).matrix, _kron_all([pair, d]), atol=1e-14)
    assert_allclose(partial_trace(rho, (2, 3)).matrix, _kron_all([c, d]), atol=1e-14)


def test_partial_trace_on_nine_qubits(rng):
    mixed = partial_trace(DensityMatrix(9, np.eye(512) / 512), range(8))
    assert mixed.n_qubits == 8
    assert_allclose(mixed.matrix, np.eye(256) / 256, atol=1e-15)
    factors = [random_density(rng, 1).matrix for _ in range(9)]
    reduced = partial_trace(DensityMatrix(9, _kron_all(factors)), (8, 0, 4))
    assert_allclose(reduced.matrix, _kron_all([factors[0], factors[4], factors[8]]), atol=1e-14)


def test_fidelity_requires_pure_target():
    rho = bell_state("phi+").density_matrix()
    with pytest.raises(TypeError):
        fidelity(rho, rho)


@pytest.mark.parametrize("enter", [
    lambda psi: violation(psi, 0.3), lambda psi: max_violation(psi), lambda psi: sweep(psi, [0.2, 0.3]),
    lambda psi: concurrence(psi), lambda psi: reactivity(psi, 10, 0),
    lambda psi: chsh(psi, 0.0, 1.0, 0.5, 1.5),
], ids=["violation", "max_violation", "sweep", "concurrence", "reactivity", "chsh"])
def test_a_pure_state_given_as_rho_is_refused_by_name(enter):
    with pytest.raises(TypeError, match=r"^rho must be a DensityMatrix, not PureState; .*\.density_matrix\(\)$"):
        enter(bell_state("phi+"))


def test_fidelity_and_concurrence_global_phase_invariant(rng):
    rho = random_density(rng)
    target = random_pure(rng)
    shifted = PureState(target.amplitudes * np.exp(1j * 0.73))
    assert fidelity(rho, shifted) == pytest.approx(fidelity(rho, target), abs=1e-12)
    assert concurrence(rho) == pytest.approx(concurrence(rho), abs=0)


def test_concurrence_of_bell_state_is_one():
    assert concurrence(bell_state("phi+").density_matrix()) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_of_maximally_mixed_is_zero():
    assert concurrence(DensityMatrix(2, np.eye(4) / 4)) == 0.0


def test_concurrence_fitted_werner():
    assert concurrence(modified_werner(0.998, 0.225)) == pytest.approx(0.997, abs=0.002)


def test_concurrence_monotone_in_werner_lambda():
    values = [concurrence(modified_werner(lam, 0.0)) for lam in np.linspace(0, 1, 21)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_entanglement_report_bell():
    rho = bell_state("phi+").density_matrix()
    report = entanglement_report(rho, bell_state("phi+"))
    assert report.fidelity == pytest.approx(1.0, abs=1e-9)
    assert report.concurrence == pytest.approx(1.0, abs=1e-9)
    assert report.tangle == pytest.approx(1.0, abs=1e-9)
    assert report.linear_entropy == pytest.approx(0.0, abs=1e-9)
    assert report.purity == pytest.approx(1.0, abs=1e-9)


def test_entanglement_report_tangle_is_squared_concurrence(rng):
    rho = random_density(rng)
    report = entanglement_report(rho, bell_state("phi+"))
    assert report.tangle == pytest.approx(report.concurrence**2, abs=1e-9)
    as_dict = report.to_json_dict()
    assert set(as_dict) == {"fidelity", "tangle", "concurrence", "linear_entropy", "purity"}


REPORT_FIELDS = {"fidelity": 1.0, "tangle": 1.0, "concurrence": 1.0, "linear_entropy": 0.0, "purity": 1.0}


@pytest.mark.parametrize("field", REPORT_FIELDS)
@pytest.mark.parametrize("bad", [True, False, "1.0", "0"])
def test_entanglement_report_refuses_bool_and_string_fields(field, bad):
    """A bool used to pass the range check and reach the JSON as true or false."""
    with pytest.raises(TypeError, match=f"^{field} = {re.escape(repr(bad))} is not a real number$"):
        EntanglementReport(**{**REPORT_FIELDS, field: bad})


def test_entanglement_report_holds_python_floats_in_range():
    report = EntanglementReport(np.float32(1.0), np.int64(1), 1, np.float64(0.0), 1)
    assert [type(value) for value in report.to_json_dict().values()] == [float] * 5
    assert json.dumps(report.to_json_dict()) == json.dumps(REPORT_FIELDS)
    with pytest.raises(ValueError, match=r"^purity = 1.5 outside \[0, 1\]$"):
        EntanglementReport(**{**REPORT_FIELDS, "purity": np.float64(1.5)})
    with pytest.raises(ValueError, match=r"^fidelity = nan is not finite$"):
        EntanglementReport(**{**REPORT_FIELDS, "fidelity": float("nan")})


def test_visibility_werner_windows():
    rho = modified_werner(0.998, 0.225)
    assert visibility(rho, "HV") == pytest.approx(0.998, abs=1e-9)
    assert visibility(rho, "DA") == pytest.approx(0.998 * np.cos(0.225), abs=1e-9)


def test_visibility_bell_is_unity_and_mixed_is_zero():
    bell = bell_state("phi+").density_matrix()
    mixed = DensityMatrix(2, np.eye(4) / 4)
    assert visibility(bell, "hv") == pytest.approx(1.0, abs=1e-12)
    assert visibility(bell, "da") == pytest.approx(1.0, abs=1e-12)
    assert visibility(mixed, "HV") == 0.0


def test_visibility_unknown_basis():
    with pytest.raises(ValueError):
        visibility(bell_state("phi+").density_matrix(), "RL")


@pytest.mark.parametrize("basis", [None, 0.0, ("HV",)])
def test_visibility_refuses_a_non_string_basis(basis):
    with pytest.raises(TypeError, match=f"^basis = {re.escape(repr(basis))} is not a string$"):
        visibility(bell_state("phi+").density_matrix(), basis)
