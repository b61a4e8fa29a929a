import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holomem import registers
from conftest import BUNDLED

PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510")


def geometry(**overrides) -> registers.MemoryGeometry:
    base = dict(
        wavelength_m=795e-9,
        control_waist_m=850e-6,
        signal_waist_m=450e-6,
        cloud_length_m=2e-3,
        cloud_sigma_m=(0.5e-3, 0.5e-3, 1e-3),
        atom_count=int(1e8),
        signal_angles_deg=(-1.0, -0.6, 0.6, 1.0),
    )
    base.update(overrides)
    return registers.MemoryGeometry(**base)


class TestSpinWaveVectors:
    def test_copropagating_gives_zero(self):
        g = geometry(signal_angles_deg=(0.0,))
        q = registers.spin_wave_vectors(g)
        assert q.shape == (1, 3) and q.dtype == float
        assert np.linalg.norm(q[0]) == 0.0

    def test_one_degree_magnitude(self):
        g = geometry(signal_angles_deg=(-1.0,))
        (q,) = registers.spin_wave_vectors(g)
        # Independent trig oracle: |q| = 2 (2 pi / lambda) sin(theta/2).
        expected = 2.0 * (2.0 * math.pi / 795e-9) * math.sin(math.radians(1.0) / 2.0)
        assert np.linalg.norm(q) == pytest.approx(expected, rel=1e-12)
        assert np.linalg.norm(q) == pytest.approx(1.379e5, rel=1e-3)

    def test_units_converted(self):
        # The config states angles in degrees: its 1 degree gives the |q| oracle.
        g = BUNDLED.geometry
        assert max(g.signal_angles_deg) == 1.0
        q = registers.spin_wave_vectors(g)[np.argmax(g.signal_angles_deg)]
        expected = 2.0 * (2.0 * math.pi / g.wavelength_m) * math.sin(math.radians(1.0) / 2.0)
        assert np.linalg.norm(q) == pytest.approx(expected, rel=1e-12)

    def test_four_modes_distinct_and_symmetric(self):
        q = registers.spin_wave_vectors(geometry())
        assert q.shape == (4, 3)
        mags = np.linalg.norm(q, axis=1)
        assert len({tuple(row) for row in q.tolist()}) == 4
        assert mags[0] == pytest.approx(mags[3], rel=1e-12)  # -1 vs +1 degree
        assert mags[1] == pytest.approx(mags[2], rel=1e-12)

    def test_modes_lie_in_beam_plane(self):
        assert np.all(registers.spin_wave_vectors(geometry())[:, 1] == 0.0)


class TestCrosstalk:
    def test_identical_modes_exact_unity(self):
        g = geometry()
        m = registers.spin_wave_vectors(g)[0]
        assert registers.crosstalk(m, m, g, seed=0) == 1.0 + 0.0j

    def test_adjacent_modes_orthogonal(self):
        g = geometry()
        m1, m2 = registers.spin_wave_vectors(g)[:2]
        # Analytic expectation is below 1e-100 for adjacent experimental modes.
        assert registers.expected_crosstalk(m1, m2, g) < 1e-100
        samples = [registers.crosstalk(m1, m2, g, seed=s) for s in range(50)]
        mean = np.mean(samples)
        assert abs(mean) < 3.0 / math.sqrt(50 * registers.MAX_SAMPLE_ATOMS)

    def test_unit_dq_sigma_matches_characteristic_function(self):
        sigma = 0.5e-3
        g = geometry(cloud_sigma_m=(sigma, sigma, sigma), atom_count=20000)
        m1, m2 = np.zeros(3), np.array([1.0 / sigma, 0.0, 0.0])
        assert registers.expected_crosstalk(m1, m2, g) == pytest.approx(math.exp(-0.5), rel=1e-12)
        samples = np.array([registers.crosstalk(m1, m2, g, seed=s) for s in range(50)])
        mean = samples.mean()
        stderr = samples.std(ddof=1) / math.sqrt(50)
        assert abs(mean - math.exp(-0.5)) < 3.0 * stderr

    def test_magnitude_bounded_by_one(self):
        g = geometry(atom_count=5000)
        modes = registers.spin_wave_vectors(g)
        for s in range(5):
            assert abs(registers.crosstalk(modes[0], modes[1], g, seed=s)) <= 1.0

    def test_deterministic_for_fixed_seed(self):
        g = geometry(atom_count=5000)
        m1, m2 = registers.spin_wave_vectors(g)[:2]
        assert registers.crosstalk(m1, m2, g, 7) == registers.crosstalk(m1, m2, g, 7)

    def test_stderr_scaling(self):
        assert registers.crosstalk_stderr(geometry(atom_count=10000)) == pytest.approx(0.01)
        assert registers.crosstalk_stderr(geometry()) == pytest.approx(1.0 / math.sqrt(1e5))


class TestPhasors:
    def test_matches_complex_exp(self):
        # Nearest doubles to (2k+1) pi, from pi to 50 digits: there t = tan(phi/2)
        # is largest (about 1.6e16 at pi), so 1 + t^2 is the overflow risk.
        with localcontext() as ctx:
            ctx.prec = 60
            odd = [float((2 * k + 1) * PI_50) for k in range(10_001)]
        uniform = np.random.default_rng(0).uniform(-1e3, 1e3, 100_000).tolist()
        phi = np.array([0.0, math.pi / 2, 1e5] + odd + uniform)
        phi = np.concatenate([phi, -phi])
        assert phi[3] == math.pi
        cos, sin = rows = np.empty((2, len(phi)))
        registers._cos_sin_rows(0.5 * phi[None, :], rows)
        assert np.all(np.isfinite(cos)) and np.all(np.isfinite(sin))
        expected = np.exp(1j * phi)
        assert np.max(np.abs(cos - expected.real)) <= 4.5e-16
        assert np.max(np.abs(sin - expected.imag)) <= 4.5e-16


def pair_overlap(m1, m2, g, seed) -> complex:
    """Reference: the direct mean over the whole cloud, drawn in one go."""
    n = min(g.atom_count, registers.MAX_SAMPLE_ATOMS)
    positions = np.random.default_rng(seed).standard_normal((n, 3)) * np.array(g.cloud_sigma_m)
    return complex(np.exp(1j * (positions @ (m2 - m1))).mean())


def reference_crosstalk_matrix(q, g, seed) -> np.ndarray:
    """Reference: the complex-phasor kernel that the real cos/sin rows replaced.
    Per block, W = exp(i x.(q_b - q_0)) is a complex (b, M) array whose real and
    imaginary parts take the tan half-angle passes in place; the blocks sum W^H W."""
    q = np.asarray(q, dtype=float).reshape(-1, 3)
    half_dq = 0.5 * (q - q[:1]).T
    n = min(g.atom_count, registers.MAX_SAMPLE_ATOMS)
    rng = np.random.default_rng(seed)
    gram = np.zeros((len(q), len(q)), dtype=complex)
    for start in range(0, n, registers._BLOCK_ATOMS):
        positions = rng.standard_normal((min(registers._BLOCK_ATOMS, n - start), 3))
        half_phase = (positions * g.cloud_sigma_m) @ half_dq
        w = np.empty(half_phase.shape, dtype=complex)
        t = np.tan(half_phase, out=half_phase)
        r = np.multiply(t, t, out=w.imag)
        r += 1.0
        np.divide(2.0, r, out=r)
        np.subtract(r, 1.0, out=w.real)
        np.multiply(t, r, out=w.imag)
        gram += w.conj().T @ w
    gram = np.triu(gram, 1) / n
    gram += gram.conj().T
    gram[(q[:, None] == q[None, :]).all(axis=-1)] = 1.0
    return gram


@st.composite
def crosstalk_cases(draw):
    """1 to 5 modes of one geometry, at most one of them a repeat of another,
    with from one atom to one past three full blocks, and a seed."""
    angles = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5, unique=True))
    g = geometry(wavelength_m=draw(st.floats(400e-9, 1600e-9)),
                 cloud_sigma_m=draw(st.tuples(*[st.floats(1e-5, 2e-3)] * 3)),
                 atom_count=draw(st.integers(1, 3 * registers._BLOCK_ATOMS + 1)),
                 signal_angles_deg=tuple(angles))
    modes = registers.spin_wave_vectors(g)
    if len(modes) < 5 and draw(st.booleans()):
        repeat = modes[draw(st.integers(0, len(modes) - 1))]
        modes = np.insert(modes, draw(st.integers(0, len(modes))), repeat, axis=0)
    return modes, g, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None, database=None)
@given(crosstalk_cases())
def test_crosstalk_matrix_matches_complex_phasor_reference(case):
    modes, g, seed = case
    c = registers.crosstalk_matrix(modes, g, seed)
    assert np.max(np.abs(c - reference_crosstalk_matrix(modes, g, seed))) <= 1e-14
    assert np.array_equal(c, c.conj().T)
    same = (modes[:, None] == modes[None, :]).all(axis=-1)  # the diagonal and each repeat
    assert np.all(c[same] == 1.0)


class TestCrosstalkMatrix:
    def test_hermitian_with_exact_unit_diagonal(self):
        g = geometry()
        modes = registers.spin_wave_vectors(g)
        c = registers.crosstalk_matrix(modes, g, seed=3)
        assert c.shape == (4, 4)
        assert np.array_equal(c, c.conj().T)
        assert np.all(np.diag(c) == 1.0)

    def test_repeated_mode_exactly_one(self):
        g = geometry(atom_count=5000)
        m0, m1 = registers.spin_wave_vectors(g)[:2]
        c = registers.crosstalk_matrix(np.array([m0, m1, m0]), g, seed=4)
        assert c[0, 2] == 1.0 and c[2, 0] == 1.0
        assert c[0, 1] == c[2, 1]

    def test_entries_match_direct_pair_mean(self):
        # One atom, one block less, exactly one block and one block more than
        # _BLOCK_ATOMS, the full sample and the bundled geometry.
        from holomem import cli
        cases = [geometry(atom_count=n) for n in (1, 4095, 4096, 4097)]
        cases += [geometry(), cli.load_scenario(cli.default_config()).geometry]
        for g in cases:
            modes = registers.spin_wave_vectors(g)
            c = registers.crosstalk_matrix(modes, g, seed=11)
            for i, a in enumerate(modes):
                for j, b in enumerate(modes):
                    if i != j:
                        deviation = abs(c[i, j] - pair_overlap(a, b, g, 11))
                        assert deviation < 1e-15, (g.atom_count, i, j)

    def test_two_mode_case_is_crosstalk(self):
        g = geometry()
        m1, m2 = registers.spin_wave_vectors(g)[1:3]
        c = registers.crosstalk_matrix(np.array([m1, m2]), g, seed=5)
        assert abs(c[0, 1] - registers.crosstalk(m1, m2, g, seed=5)) < 1e-15

    @pytest.mark.parametrize("block", [registers.MAX_SAMPLE_ATOMS, 7919])
    def test_block_size_changes_only_rounding(self, monkeypatch, block):
        g = geometry()
        modes = registers.spin_wave_vectors(g)
        default = registers.crosstalk_matrix(modes, g, seed=9)
        monkeypatch.setattr(registers, "_BLOCK_ATOMS", block)
        np.testing.assert_allclose(registers.crosstalk_matrix(modes, g, seed=9), default,
                                   rtol=0.0, atol=1e-12)

    def test_squared_deviation_averages_one_over_n(self):
        # E|C_ab - expected|^2 = (1 - expected^2) / n, and expected is below
        # 1e-100 for every pair of the experimental modes.
        g = geometry(atom_count=4000)
        modes = registers.spin_wave_vectors(g)
        upper = np.triu_indices(len(modes), 1)
        expected = np.array([[registers.expected_crosstalk(a, b, g) for b in modes]
                             for a in modes])[upper]
        per_seed = np.array([
            np.mean(np.abs(registers.crosstalk_matrix(modes, g, seed=s)[upper] - expected) ** 2)
            for s in range(200)]) * g.atom_count
        band = 4.0 * per_seed.std(ddof=1) / math.sqrt(len(per_seed))
        assert abs(per_seed.mean() - 1.0) < band

    def test_traced_peak_below_1_5_mb_on_bundled_geometry(self):
        from holomem import cli
        g = cli.load_scenario(cli.default_config()).geometry
        modes = registers.spin_wave_vectors(g)
        # The first call imports numpy.random (about 0.65 MB traced); trace a later one.
        registers.crosstalk_matrix(modes, geometry(atom_count=1), seed=0)
        tracemalloc.start()
        try:
            registers.crosstalk_matrix(modes, g, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, f"crosstalk_matrix peaked at {peak / 1e6:.1f} MB traced"


class TestModeCapacity:
    def test_experimental_value(self):
        assert registers.mode_capacity(geometry()) == pytest.approx(240.6, abs=0.5)

    def test_waist_exchange_invariance(self):
        g1 = geometry()
        g2 = geometry(control_waist_m=450e-6, signal_waist_m=850e-6)
        assert registers.mode_capacity(g1) == pytest.approx(registers.mode_capacity(g2))

    def test_scalings(self):
        base = registers.mode_capacity(geometry())
        doubled = registers.mode_capacity(
            geometry(control_waist_m=1700e-6, signal_waist_m=900e-6))
        assert doubled == pytest.approx(4 * base, rel=1e-12)
        halved = registers.mode_capacity(geometry(wavelength_m=2 * 795e-9))
        assert halved == pytest.approx(base / 2, rel=1e-12)


class TestValidation:
    def test_rejects_bad_lengths(self):
        with pytest.raises(registers.GeometryError):
            geometry(wavelength_m=-1.0)
        with pytest.raises(registers.GeometryError):
            geometry(cloud_length_m=0.0)

    def test_rejects_duplicate_angles(self):
        with pytest.raises(registers.GeometryError):
            geometry(signal_angles_deg=(0.6, 0.6))

    def test_rejects_bad_counts(self):
        with pytest.raises(registers.GeometryError):
            geometry(atom_count=0)
