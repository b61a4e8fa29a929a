"""Holographic memory geometry: spin-wave wave vectors, register crosstalk
and mode capacity.

Conventions: the control beam propagates along +z; signal beams lie in the
x-z plane at angles theta_i relative to the control.  A spin wave stores a
phase pattern exp(i q.x) with q = k_signal - k_control (rad/m).  The registers
share the same atoms, so one sampled cloud per call serves every overlap, as the
real Gram matrix of contiguous rows of cos and sin of each register's phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Crosstalk Monte Carlo never instantiates more atoms than this; the
# estimator standard error scales as 1/sqrt(n_sample).
MAX_SAMPLE_ATOMS = 100_000
# Atoms per block of the crosstalk Gram sum; bounds peak memory.
_BLOCK_ATOMS = 4_096


class GeometryError(ValueError):
    """Invalid memory-geometry parameters."""


@dataclass(frozen=True)
class MemoryGeometry:
    """Beam and atomic-cloud geometry of the multimode memory.

    Waists are beam diameters (as quoted for the experiment), lengths in
    meters, angles in degrees.  cloud_sigma_m is the per-axis rms size
    (x, y, z) of the Gaussian atom cloud.
    """

    wavelength_m: float
    control_waist_m: float
    signal_waist_m: float
    cloud_length_m: float
    cloud_sigma_m: tuple[float, float, float]
    atom_count: int
    signal_angles_deg: tuple[float, ...]

    def __post_init__(self):
        lengths = {
            "wavelength_m": self.wavelength_m,
            "control_waist_m": self.control_waist_m,
            "signal_waist_m": self.signal_waist_m,
            "cloud_length_m": self.cloud_length_m,
        }
        for name, val in lengths.items():
            if not val > 0.0:
                raise GeometryError(f"{name} must be positive, got {val}")
        if len(self.cloud_sigma_m) != 3 or any(s <= 0.0 for s in self.cloud_sigma_m):
            raise GeometryError(f"cloud_sigma_m must be 3 positive values, got {self.cloud_sigma_m}")
        if self.atom_count < 1:
            raise GeometryError(f"atom_count must be >= 1, got {self.atom_count}")
        if len(set(self.signal_angles_deg)) != len(self.signal_angles_deg):
            raise GeometryError("signal angles must be pairwise distinct")


def spin_wave_vectors(g: MemoryGeometry) -> np.ndarray:
    """(M, 3) spin-wave wave vectors q_i = k_signal,i - k_control, one per angle."""
    k = 2.0 * math.pi / g.wavelength_m
    return np.array([(k * math.sin(theta), 0.0, k * (math.cos(theta) - 1.0))
                     for theta in map(math.radians, g.signal_angles_deg)]).reshape(-1, 3)


def _cos_sin_rows(half_phase: np.ndarray, out: np.ndarray) -> None:
    """Write cos(phi) into out[:M] and sin(phi) into out[M:], phi = 2 * half_phase of shape (M, b).

    With t = tan(phi / 2) and r = 2 / (1 + t^2), the half-angle identity gives
    cos(phi) = r - 1 and sin(phi) = t r.  On AVX-512 hosts numpy's float64 tan
    is SIMD-vectorised where sin, cos and complex exp run element by element,
    so this one tan call costs a fraction of np.exp(1j * phi).  It is finite
    for every finite phi: at phi = pi, t is about 1.6e16 and t^2 about 2.6e32.
    half_phase is overwritten.
    """
    cos, sin = out[:len(half_phase)], out[len(half_phase):]
    t = np.tan(half_phase, out=half_phase)
    r = np.multiply(t, t, out=sin)
    r += 1.0
    np.divide(2.0, r, out=r)
    np.subtract(r, 1.0, out=cos)
    np.multiply(t, r, out=sin)


def crosstalk_matrix(q: np.ndarray, g: MemoryGeometry, seed: int) -> np.ndarray:
    """Monte Carlo overlaps C[a, b] = (1/n) sum_j exp(i (q_b - q_a).x_j) of all pairs
    of the (M, 3) wave vectors q over one cloud of n = min(atom_count, MAX_SAMPLE_ATOMS)
    atoms, as C = (cc + ss) + i (cs - cs^T) from the real Gram matrix X X^T summed over
    blocks of _BLOCK_ATOMS.  _cos_sin_rows writes X, cos then sin of x.(q_b - q_0) in 2M
    contiguous rows, from one tan of the half phases (halving is exact in binary),
    because numpy's complex exp is not vectorised.
    The normal stream is sequential, so the positions do not depend on the
    block size.  C is Hermitian, identical vectors give exactly 1, and each other
    entry is unbiased with standard error at most crosstalk_stderr(g).
    """
    q = np.asarray(q, dtype=float).reshape(-1, 3)
    m = len(q)
    half_dq = 0.5 * (q - q[:1])
    n = min(g.atom_count, MAX_SAMPLE_ATOMS)
    rng = np.random.default_rng(seed)
    sigma = np.tile(g.cloud_sigma_m, (min(_BLOCK_ATOMS, n), 1))
    rows = np.empty((2 * m, len(sigma)))
    gram = np.zeros((2 * m, 2 * m))
    for start in range(0, n, _BLOCK_ATOMS):
        positions = rng.standard_normal((min(_BLOCK_ATOMS, n - start), 3))
        positions *= sigma[:len(positions)]
        x = rows[:, :len(positions)]
        _cos_sin_rows(half_dq @ positions.T, x)
        gram += x @ x.T
    cs = gram[:m, m:]
    c = np.triu(gram[:m, :m] + gram[m:, m:] + 1j * (cs - cs.T), 1) / n
    c += c.conj().T
    c[(q[:, None] == q[None, :]).all(axis=-1)] = 1.0
    return c


def crosstalk(q1: np.ndarray, q2: np.ndarray, g: MemoryGeometry, seed: int) -> complex:
    """Monte Carlo overlap of two registers, the two-mode case of
    crosstalk_matrix.  Identical wave vectors give exactly 1."""
    return complex(crosstalk_matrix([q1, q2], g, seed)[0, 1])


def crosstalk_stderr(g: MemoryGeometry) -> float:
    """Standard error of the crosstalk estimator, 1/sqrt(n_sample)."""
    return 1.0 / math.sqrt(min(g.atom_count, MAX_SAMPLE_ATOMS))


def expected_crosstalk(q1: np.ndarray, q2: np.ndarray, g: MemoryGeometry) -> float:
    """Analytic expectation of the overlap of wave vectors q1 and q2: the
    Gaussian characteristic function exp(-sum_a dq_a^2 sigma_a^2 / 2)."""
    return float(np.exp(-0.5 * np.sum((np.subtract(q2, q1) * g.cloud_sigma_m) ** 2)))


def mode_capacity(g: MemoryGeometry) -> float:
    """Geometric-mean Fresnel-number capacity estimate w_c w_s / (lambda L)."""
    return g.control_waist_m * g.signal_waist_m / (g.wavelength_m * g.cloud_length_m)

