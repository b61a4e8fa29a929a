import numpy as np
import pytest

from holomem import cli, measure, tomo

# The bundled scenario: the one statement of the reference source, channel and
# geometry that tests read.
BUNDLED = cli.load_scenario(cli.default_config())


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Ginibre-distributed random physical two-qubit state."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def exact_counts(rho: np.ndarray, ts: tomo.TomographySettings, exposure: float) -> np.ndarray:
    """Noiseless synthetic (K,) counts: round(exposure * p_k) per setting."""
    return np.round(exposure * measure.born_probabilities(rho, ts.projectors))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20120501)
