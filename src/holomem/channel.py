"""Storage-and-retrieval channel model.

The memory stores the two polarization qubits across four spin-wave
registers (H1, H2, V2, V1 -> registers 1-4); register crosstalk is
negligible at the experimental geometry, so the channel reduces to a
per-photon efficiency eta(t) = eta0 exp(-t/tau) plus a white background.
Coincidences therefore decay as eta(t)^2 and the measured state is the
signal state mixed with I/4 in proportion to the background coincidence
probability.

That mixture is affine in the signal fraction f, so `store_retrieve` maps a
vector of storage times to a (T, 4, 4) stack at once; `simulate` samples
every track of it into one (B, K) count array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fitkit, qstate

class ChannelError(ValueError):
    """Invalid channel or source parameters."""


class ModelInfeasibleError(ChannelError):
    """No physical state satisfies the requested count ratios."""


@dataclass(frozen=True)
class SourceParams:
    """Entangled-pair source quality: the HH:HV and ++:+- count ratios."""

    ratio_hv: float
    ratio_pm: float

    def __post_init__(self):
        if not self.ratio_hv > 1.0 or not self.ratio_pm > 1.0:
            raise ChannelError(
                f"count ratios must exceed 1, got ({self.ratio_hv}, {self.ratio_pm})")


@dataclass(frozen=True)
class ChannelParams:
    """Memory noise model: per-photon efficiency at t=0, 1/e lifetime, and a
    lumped background coincidence probability (dark counts plus control
    leakage)."""

    eta0: float
    tau_s: float
    bg_coinc: float

    def __post_init__(self):
        if not 0.0 <= self.eta0 <= 1.0:
            raise ChannelError(f"eta0 must lie in [0, 1], got {self.eta0}")
        if not self.tau_s > 0.0:
            raise ChannelError(f"lifetime must be positive, got {self.tau_s}")
        if self.bg_coinc < 0.0:
            raise ChannelError(f"background must be >= 0, got {self.bg_coinc}")
        if not 0.0 < self.eta0 ** 2 + self.bg_coinc <= 1.0:
            raise ChannelError("coincidence probability eta0^2 + background must lie in (0, 1], "
                               f"got {self.eta0 ** 2 + self.bg_coinc}")


@functools.cache
def input_state(s: SourceParams) -> np.ndarray:
    """Source state model  a|phi+><phi+| + b|psi+><psi+| + c I/4.

    (a, b, c) is the unique solution of the normalization constraint plus
    the two measured count ratios P(HH)/P(HV) and P(++)/P(+-).  Raises
    ModelInfeasibleError if any weight comes out negative.  Cached, read-only.
    """
    # P(HH) = a/2 + c/4, P(HV) = b/2 + c/4,
    # P(++) = a/2 + b/2 + c/4, P(+-) = c/4.
    r1, r2 = s.ratio_hv, s.ratio_pm
    system = np.array([
        [1.0, 1.0, 1.0],
        [0.5, -0.5 * r1, 0.25 * (1.0 - r1)],
        [0.5, 0.5, 0.25 * (1.0 - r2)],
    ])
    a, b, c = np.linalg.solve(system, np.array([1.0, 0.0, 0.0]))
    for name, val in (("phi+ weight a", a), ("psi+ weight b", b), ("white-noise weight c", c)):
        if val < -1e-12:
            raise ModelInfeasibleError(
                f"ratios ({r1}, {r2}) give negative {name} = {val:.3e}")
    rho = (a * qstate.bell_phi_plus() + b * qstate.bell_psi_plus()
           + c * np.eye(4, dtype=complex) / 4.0)
    rho.flags.writeable = False
    return qstate.check_density_matrix(rho)


def efficiency(p: ChannelParams, t_s: float) -> float:
    """Per-photon storage-retrieval efficiency eta0 * exp(-t/tau)."""
    return p.eta0 * math.exp(-t_s / p.tau_s)


def store_retrieve(rho: np.ndarray, t_s, p: ChannelParams):
    """Apply the storage channel for time t, or at once for each of a sequence of times.

    Returns (rho_out, coinc_prob, signal_fraction): the measured state
    (signal mixed with I/4 background), the total coincidence probability
    per trial, and the signal fraction C_s / (C_s + C_b).  For T times these
    are a (T, 4, 4) stack, checked as one, and two (T,) arrays.
    """
    t = np.asarray(t_s, dtype=float)
    if np.any(t < 0.0):
        raise ChannelError(f"storage time must be >= 0, got {t[t < 0.0].flat[0]}")
    c_signal = np.array([efficiency(p, x) for x in t.ravel().tolist()]).reshape(t.shape) ** 2
    total = c_signal + p.bg_coinc
    if np.any(total == 0.0):
        # eta0 > 0 here, but eta(t)^2 underflows to zero beyond about 370 tau.
        raise ChannelError(f"zero coincidence probability at t = {t[total == 0.0].flat[0]}: "
                           "the signal has decayed to zero and the background is zero")
    frac = c_signal / total
    rho_out = (frac[..., None, None] * np.asarray(rho, dtype=complex)
               + (1.0 - frac)[..., None, None] * np.eye(4) / 4.0)
    qstate.check_density_matrix(rho_out, atol=qstate.CHANNEL_ATOL)
    return rho_out, total[()], frac[()]


def visibility_decay(p: ChannelParams, v0: float, t_s: float) -> float:
    """Fringe visibility after storage, V(t) = v0 * C_s(t) / (C_s(t) + C_b).

    Algebraically identical to V(t) = 1 / (a + b exp(2 t / tau)) with
    a = 1/v0 and b = (C_b / C_s(0)) / v0 (see visibility_decay_coeffs).
    """
    if not 0.0 < v0 <= 1.0:
        raise ChannelError(f"v0 must lie in (0, 1], got {v0}")
    c_signal = efficiency(p, t_s) ** 2
    return v0 * c_signal / (c_signal + p.bg_coinc)


def visibility_decay_coeffs(p: ChannelParams, v0: float) -> tuple[float, float]:
    """(a, b) of the equivalent closed form V(t) = 1/(a + b exp(2t/tau))."""
    if not 0.0 < v0 <= 1.0:
        raise ChannelError(f"v0 must lie in (0, 1], got {v0}")
    if p.eta0 == 0.0:
        raise ChannelError("closed form requires eta0 > 0")
    return 1.0 / v0, (p.bg_coinc / p.eta0 ** 2) / v0


def visibility_threshold_time(p: ChannelParams, v0: float) -> float:
    """Time at which V(t) falls to the CHSH-violation threshold 1/sqrt(2)
    (fitkit.CHSH_VISIBILITY); +inf if it never does."""
    if visibility_decay(p, v0, 0.0) <= fitkit.CHSH_VISIBILITY:
        return 0.0
    return fitkit.threshold_crossing(*visibility_decay_coeffs(p, v0), p.tau_s)


# The measured point that the bundled `channel.bg_coinc` was solved against:
# the output fidelity vs |phi+> after this storage time (the background rate
# itself was not reported).
CALIBRATION_TIME_S = 1e-6
CALIBRATION_FIDELITY = 0.81


def calibrated_channel_params(source: SourceParams, eta0: float, tau_s: float) -> ChannelParams:
    """The channel of eta0 and tau with bg_coinc chosen so that the output
    fidelity vs |phi+> of the source state after CALIBRATION_TIME_S of storage
    equals CALIBRATION_FIDELITY.
    """
    rho_in = input_state(source)
    f_in = float(np.real(np.trace(qstate.bell_phi_plus() @ rho_in)))
    frac = (CALIBRATION_FIDELITY - 0.25) / (f_in - 0.25)
    if not 0.0 < frac <= 1.0:
        raise ChannelError(f"fidelity target {CALIBRATION_FIDELITY} unreachable "
                           f"from input fidelity {f_in:.4f}")
    eta_cal = eta0 * math.exp(-CALIBRATION_TIME_S / tau_s)
    bg = eta_cal ** 2 * (1.0 / frac - 1.0)
    return ChannelParams(eta0=eta0, tau_s=tau_s, bg_coinc=bg)
