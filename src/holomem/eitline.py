"""Lambda-system EIT line shape: transmission spectrum, transparency-window
width, and slow-light group delay.

The probe susceptibility uses the standard three-level form with complex
response  chi(delta) ~ (gamma_gs - i delta) / D(delta),
D = (Gamma/2 - i delta)(gamma_gs - i delta) + Omega^2/4.  The absorption
exponent is normalized so that with the control off (Omega = 0) the
on-resonance transmission is exp(-OD).  With u = delta^2, A = Gamma gamma_gs/2
+ Omega^2/4 and B = Gamma/2 + gamma_gs, the absorption per OD is the rational
Re r(u) = (Gamma/2)(gamma_gs A + (B - gamma_gs) u) / ((A - u)^2 + B^2 u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

class EitError(ValueError):
    """Invalid EIT parameters."""


@dataclass(frozen=True)
class EitParams:
    """Line-shape parameters: optical depth, control Rabi frequency, excited decay,
    and ground-state decoherence, all rates in Hz: the shape depends only on their ratios."""

    od: float
    rabi_hz: float
    gamma_e_hz: float
    gamma_gs_hz: float

    def __post_init__(self):
        if not 0.0 < self.od < math.inf:
            raise EitError(f"optical depth must be finite and positive, got {self.od}")
        if not 0.0 <= self.rabi_hz < math.inf:
            raise EitError(f"Rabi frequency must be finite and >= 0, got {self.rabi_hz}")
        if not 0.0 < self.gamma_e_hz < math.inf:
            raise EitError("excited-state decay must be finite and positive, "
                           f"got {self.gamma_e_hz}")
        if not 0.0 <= self.gamma_gs_hz < math.inf:
            raise EitError("ground-state decoherence must be finite and >= 0, "
                           f"got {self.gamma_gs_hz}")
        # The line shape's term (Gamma/2) gamma_gs must fit a float.
        if not math.isfinite(self.gamma_e_hz * self.gamma_gs_hz):
            raise EitError("excited-state decay times ground-state decoherence must be "
                           f"finite, got {self.gamma_e_hz} * {self.gamma_gs_hz}")


def _response(p: EitParams, delta):
    """Complex normalized response; its real part is the absorption per OD."""
    delta = np.asarray(delta, dtype=float)
    num = p.gamma_gs_hz - 1j * delta
    den = (p.gamma_e_hz / 2.0 - 1j * delta) * num + p.rabi_hz ** 2 / 4.0
    return (p.gamma_e_hz / 2.0) * num / den


def transmission(p: EitParams, delta_hz):
    """Intensity transmission T(delta) in [0, 1]; delta is the two-photon
    detuning in Hz.  Accepts scalars or arrays."""
    t = np.exp(-p.od * np.real(_response(p, delta_hz)))
    return float(t) if np.isscalar(delta_hz) else t


def phase(p: EitParams, delta_hz):
    """Phase of the transmitted field, radians."""
    ph = -0.5 * p.od * np.imag(_response(p, delta_hz))
    return float(ph) if np.isscalar(delta_hz) else ph


def group_delay(p: EitParams) -> float:
    """Slow-light delay (s), d(phase)/d(2 pi delta) at delta = 0, in closed form:
    OD (Gamma/4)(A - gamma_gs B) / (2 pi A^2) with A - gamma_gs B = Omega^2/4 -
    gamma_gs^2.  Ideal limit (gamma_gs = 0): OD * Gamma / (2 pi Omega^2)."""
    if p.rabi_hz <= 0.0:
        raise EitError("group delay requires a nonzero control Rabi frequency")
    g, k, w = p.gamma_gs_hz, p.gamma_e_hz / 2.0, p.rabi_hz ** 2 / 4.0
    return p.od * k / 2.0 * (w - g * g) / (k * g + w) ** 2 / (2.0 * math.pi)


def transparency_fwhm(p: EitParams) -> float:
    """FWHM (Hz) of the transparency peak above the absorption floor.

    In closed form, with g = gamma_gs: dips flank line centre iff N(0) > 0,
    N(u) = -(B-g)u^2 - 2gA u + (B-g)A^2 - gA(B^2-2A) ~ dRe r/du, and the floor is
    T at the positive root of N.  T falls to T_h = (T(0) + floor)/2 at the least
    root u of c((A-u)^2 + B^2 u) = (Gamma/2)(gA + (B-g)u), where c = -ln(T_h)/OD.
    """
    if p.rabi_hz <= 0.0:
        raise EitError("no transparency window without a control field")
    g, k = p.gamma_gs_hz, p.gamma_e_hz / 2.0  # k = Gamma/2 = B - g
    a, b = k * g + p.rabi_hz ** 2 / 4.0, k + g
    n0 = k * a ** 2 - g * a * (b ** 2 - 2.0 * a)
    if not n0 > 0.0:
        raise EitError("no absorption dips flank the line centre: no transparency window")
    # Positive root of k u^2 + 2gA u - n0 = 0, in cancellation-free form.
    u_floor = n0 / (g * a + math.sqrt((g * a) ** 2 + k * n0))
    # ln T = -OD Re r is exact where T underflows: the half level in log space.
    ln_t0, ln_floor = -p.od * np.real(_response(p, [0.0, math.sqrt(u_floor)]))
    c = -(np.logaddexp(ln_t0, ln_floor) - math.log(2.0)) / p.od
    # Smallest root of c u^2 + q1 u + q0 = 0, with q0 > 0 and q1 < 0.
    q1 = c * (b ** 2 - 2.0 * a) - k * k
    q0 = c * a ** 2 - k * g * a
    disc = q1 * q1 - 4.0 * c * q0
    if not (q0 > 0.0 and disc >= 0.0):
        raise EitError("absorption dips too shallow to resolve a half-maximum crossing")
    u_half = 2.0 * q0 / (-q1 + math.sqrt(disc))
    return 2.0 * math.sqrt(u_half)
