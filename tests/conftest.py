import numpy as np
import pytest

from holomem import cli, measure, tomo

# The bundled scenario: the one statement of the reference source, channel and
# geometry that tests read.
BUNDLED = cli.load_scenario(cli.default_config())

# Two sparse 36-setting count sets, in setting order.  The first has 3 counts
# in the H/V group, so some of its Poisson resamples draw none there.  Each
# leaves directions no observed setting constrains: their start Hessians are
# singular up to rounding.
SPARSE_PAIR = ((0, 0, 0, 0, 1, 0, 0, 3, 2, 0, 1, 0, 1, 0, 1, 0, 0, 0,
                1, 0, 0, 1, 0, 1, 0, 2, 1, 0, 0, 1, 4, 1, 3, 1, 1, 0),
               (0, 0, 2, 2, 0, 1, 0, 2, 0, 0, 0, 1, 2, 1, 1, 0, 2, 1,
                1, 0, 0, 2, 1, 0, 1, 2, 3, 0, 1, 4, 0, 0, 1, 4, 2, 0))


def random_density_matrix(rng: np.random.Generator) -> np.ndarray:
    """Ginibre-distributed random physical two-qubit state."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.real(np.trace(rho))


def exact_counts(rho: np.ndarray, ts: tomo.TomographySettings, exposure: float) -> np.ndarray:
    """Noiseless synthetic (K,) counts: round(exposure * p_k) per setting."""
    return np.round(exposure * measure.born_probabilities(rho, ts.projectors))


@pytest.fixture(autouse=True)
def cold_scenario_caches():
    """Each test starts with no config or model half kept from an earlier one, so
    that what it counts or patches is what its own calls do."""
    cli._config.cache_clear()
    cli._model.cache_clear()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20120501)
