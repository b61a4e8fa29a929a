"""Holographic memory geometry: spin-wave wave vectors, register crosstalk,
mode capacity, and a motional-dephasing diagnostic.

Conventions: the control beam propagates along +z; signal beams lie in the
x-z plane at angles theta_i relative to the control.  A spin wave stores a
phase pattern exp(i q.x) with q = k_signal - k_control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOLTZMANN_J_PER_K, RB87_MASS_KG

# Crosstalk Monte Carlo never instantiates more atoms than this; the
# estimator standard error scales as 1/sqrt(n_sample).
MAX_SAMPLE_ATOMS = 100_000


class GeometryError(ValueError):
    """Invalid memory-geometry parameters."""


@dataclass(frozen=True)
class MemoryGeometry:
    """Beam and atomic-cloud geometry of the multimode memory.

    Waists are beam diameters (as quoted for the experiment), lengths in
    meters, angles in radians, temperature in kelvin.  cloud_sigma_m is the
    per-axis rms size (x, y, z) of the Gaussian atom cloud.
    """

    wavelength_m: float
    control_waist_m: float
    signal_waist_m: float
    cloud_length_m: float
    cloud_sigma_m: tuple[float, float, float]
    atom_count: int
    temperature_k: float
    signal_angles_rad: tuple[float, ...]

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
        if not self.temperature_k > 0.0:
            raise GeometryError(f"temperature_k must be positive, got {self.temperature_k}")
        if len(set(self.signal_angles_rad)) != len(self.signal_angles_rad):
            raise GeometryError("signal angles must be pairwise distinct")


@dataclass(frozen=True)
class SpinWaveMode:
    """A stored spin-wave register, identified by its wave vector (rad/m)."""

    q_rad_per_m: tuple[float, float, float]

    def __post_init__(self):
        if len(self.q_rad_per_m) != 3 or any(not math.isfinite(v) for v in self.q_rad_per_m):
            raise GeometryError(f"wave vector must be 3 finite components, got {self.q_rad_per_m}")

    @property
    def q(self) -> np.ndarray:
        return np.asarray(self.q_rad_per_m, dtype=float)

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.q))


def spin_wave_vectors(g: MemoryGeometry) -> list[SpinWaveMode]:
    """Spin-wave wave vectors q_i = k_signal,i - k_control, one per angle."""
    k = 2.0 * math.pi / g.wavelength_m
    modes = []
    for theta in g.signal_angles_rad:
        q = (k * math.sin(theta), 0.0, k * (math.cos(theta) - 1.0))
        modes.append(SpinWaveMode(q_rad_per_m=q))
    return modes


def crosstalk(m1: SpinWaveMode, m2: SpinWaveMode, g: MemoryGeometry,
              seed: int) -> complex:
    """Monte Carlo overlap (1/n) sum_j exp(i (q2 - q1).x_j) between registers.

    Atom positions are drawn from the anisotropic Gaussian cloud; the sample
    size is capped at MAX_SAMPLE_ATOMS.  Identical modes give exactly 1.
    Deterministic for a fixed seed.
    """
    dq = m2.q - m1.q
    if np.all(dq == 0.0):
        return 1.0 + 0.0j
    n_sample = min(g.atom_count, MAX_SAMPLE_ATOMS)
    rng = np.random.default_rng(seed)
    sigma = np.asarray(g.cloud_sigma_m, dtype=float)
    positions = rng.standard_normal((n_sample, 3)) * sigma
    phases = positions @ dq
    return complex(np.exp(1j * phases).mean())


def crosstalk_stderr(g: MemoryGeometry) -> float:
    """Standard error of the crosstalk estimator, 1/sqrt(n_sample)."""
    return 1.0 / math.sqrt(min(g.atom_count, MAX_SAMPLE_ATOMS))


def expected_crosstalk(m1: SpinWaveMode, m2: SpinWaveMode,
                       g: MemoryGeometry) -> float:
    """Analytic expectation of the overlap: the Gaussian characteristic
    function exp(-sum_a dq_a^2 sigma_a^2 / 2)."""
    dq = m2.q - m1.q
    sigma = np.asarray(g.cloud_sigma_m, dtype=float)
    return float(np.exp(-0.5 * np.sum((dq * sigma) ** 2)))


def mode_capacity(g: MemoryGeometry) -> float:
    """Geometric-mean Fresnel-number capacity estimate w_c w_s / (lambda L)."""
    return g.control_waist_m * g.signal_waist_m / (g.wavelength_m * g.cloud_length_m)


def motional_dephasing_time(m: SpinWaveMode, g: MemoryGeometry) -> float:
    """Thermal-motion dephasing time 1/(|q| v_rms), seconds.

    For the experimental geometry this is ~1e-4 s, two orders above the
    observed storage lifetime, confirming motion is not the limiting
    mechanism.  Returns +inf for a copropagating (q = 0) mode.
    """
    if not g.temperature_k > 0.0:
        raise GeometryError("temperature must be positive")
    q_mag = m.magnitude
    if q_mag == 0.0:
        return math.inf
    v_rms = math.sqrt(BOLTZMANN_J_PER_K * g.temperature_k / RB87_MASS_KG)
    return 1.0 / (q_mag * v_rms)
