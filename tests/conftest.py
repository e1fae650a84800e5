import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from infobell import DensityMatrix, PureState

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# Drawn from modified_werner(0.971596590988624, 1.924760804691114) at 10,000 per basis. The linear
# inversion has a negative eigenvalue and the maximum-likelihood state has rank 3.
RANK_DEFICIENT_COUNTS = np.array([4918, 84, 4947, 78, 2453, 2460, 2429, 2548,
                                  4783, 1646, 4919, 2595, 2454, 2461, 2554, 1629])


def random_density(rng: np.random.Generator, n_qubits: int = 2) -> DensityMatrix:
    """Ginibre-ensemble mixed state: rho = G G^dag / Tr(G G^dag)."""
    d = 2**n_qubits
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DensityMatrix(n_qubits, m / np.trace(m).real)


def random_pure(rng: np.random.Generator, n_qubits: int = 2) -> PureState:
    d = 2**n_qubits
    amps = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(amps / np.linalg.norm(amps))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20230815)
