"""Polarization coincidence measurements: Born-rule probabilities,
correlation functions, CHSH S, fringe visibilities, and Poissonian count
sampling.

All Born-rule probabilities Tr(rho P1 x P2) of a call come from one vectorised
evaluation, clamped to [0, 1].  Linear analyzers at (phi1, phi2) correlate as
E = Tr(rho sigma(phi1) x sigma(phi2)) with sigma(phi) = cos 2phi Z + sin 2phi X.

Sign convention: with the textbook correlation E = cos 2(phi1 - phi2) for
|phi+>, the quoted S combination at angles (0, 45, 22.5, 67.5) degrees
evaluates to 0.  The experimental analyzers therefore implement the
mirrored convention (photon 2's angle negated, E = cos 2(phi1 + phi2)),
consistent with a wave-plate reflection between the two beam splitters.
Mirrored is the default everywhere; the textbook flag is kept for tests.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import qstate
from .qstate import KETS_BY_LABEL

Convention = Literal["mirrored", "textbook"]

# CHSH analyzer angles (phi1, phi1', phi2, phi2') used in the experiment.
CHSH_ANGLES_RAD = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


class MeasureError(ValueError):
    """Invalid measurement setting or record."""


@dataclass(frozen=True)
class AnalyzerSetting:
    """A pair of single-qubit projection kets with a human-readable label."""

    label: str
    ket1: tuple[complex, complex]
    ket2: tuple[complex, complex]

    def __post_init__(self):
        for name, k in (("ket1", self.ket1), ("ket2", self.ket2)):
            norm = math.hypot(abs(k[0]), abs(k[1]))
            if abs(norm - 1.0) > qstate.CONSTRUCTION_ATOL * 10:
                raise MeasureError(f"{name} of setting {self.label!r} is not normalized")

    @property
    def joint_projector(self) -> np.ndarray:
        k = np.kron(np.asarray(self.ket1, dtype=complex),
                    np.asarray(self.ket2, dtype=complex))
        return np.outer(k, k.conj())


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts accumulated for one analyzer setting."""

    setting_label: str
    counts: int
    duration_s: float = 1.0

    def __post_init__(self):
        if self.counts < 0:
            raise MeasureError(f"counts must be >= 0, got {self.counts}")
        if not 0.0 < self.duration_s < math.inf:
            raise MeasureError(f"duration must be finite and positive, got {self.duration_s}")
        if "\r" in self.setting_label:  # the count CSV cannot carry it
            raise MeasureError(f"setting label {self.setting_label!r} contains a carriage return")


@functools.cache
def setting_from_labels(l1: str, l2: str) -> AnalyzerSetting:
    """Analyzer setting from basis labels in {H, V, +, -, R, L}."""
    try:
        k1, k2 = KETS_BY_LABEL[l1], KETS_BY_LABEL[l2]
    except KeyError as exc:
        raise MeasureError(f"unknown basis label {exc.args[0]!r}") from None
    return AnalyzerSetting(label=l1 + l2, ket1=tuple(k1), ket2=tuple(k2))


def _born_probs(rho: np.ndarray, settings) -> np.ndarray:
    """Born-rule probabilities Tr(rho (P1 x P2)) of each setting, clamped to [0, 1]."""
    kets = np.array([(s.ket1, s.ket2) for s in settings], dtype=complex).reshape(-1, 2, 2)
    k = (kets[:, 0, :, None] * kets[:, 1, None, :]).reshape(-1, 4)
    p = np.einsum("ni,ij,nj->n", k.conj(), np.asarray(rho, dtype=complex), k).real
    return np.clip(p, 0.0, 1.0)


def coincidence_prob(rho: np.ndarray, s: AnalyzerSetting) -> float:
    """Born-rule coincidence probability Tr(rho (P1 x P2))."""
    return float(_born_probs(rho, [s])[0])


def _correlations(rho: np.ndarray, phi1_rad, phi2_rad, convention: Convention) -> np.ndarray:
    """Tr(rho sigma(phi1) x sigma(phi2)) per angle pair; mirrored negates phi2."""
    if convention not in ("mirrored", "textbook"):
        raise MeasureError(f"unknown convention {convention!r}")
    two_phi = 2.0 * np.array([phi1_rad, phi2_rad], dtype=float)
    two_phi[1] *= -1.0 if convention == "mirrored" else 1.0
    c, s = np.cos(two_phi), np.sin(two_phi)
    a, b = np.stack([c, s, s, -c], axis=-1).reshape(2, -1, 2, 2)
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    return np.einsum("ikjl,nji,nlk->n", r, a, b).real


def correlation(rho: np.ndarray, phi1_rad: float, phi2_rad: float,
                convention: Convention = "mirrored") -> float:
    """Polarization correlation E = P(++) + P(--) - P(+-) - P(-+) over linear
    analyzers at (phi1, phi2); the mirrored convention negates phi2."""
    return float(_correlations(rho, [phi1_rad], [phi2_rad], convention)[0])


def chsh_s(rho: np.ndarray, angles_rad: tuple[float, float, float, float] = CHSH_ANGLES_RAD,
           convention: Convention = "mirrored") -> float:
    """CHSH combination |-E(p1,p2) + E(p1,p2') + E(p1',p2) + E(p1',p2')|."""
    p1, p1p, p2, p2p = angles_rad
    e = _correlations(rho, [p1, p1, p1p, p1p], [p2, p2p, p2, p2p], convention).tolist()
    return abs(-e[0] + e[1] + e[2] + e[3])


BASIS_PAIRS = {"HV": ("H", "V"), "PM": ("+", "-"), "RL": ("R", "L")}


def basis_settings(basis: str) -> list[AnalyzerSetting]:
    """The four joint settings of a basis pair, e.g. HH, HV, VH, VV."""
    if basis not in BASIS_PAIRS:
        raise MeasureError(f"basis must be one of {sorted(BASIS_PAIRS)}, got {basis!r}")
    b1, b2 = BASIS_PAIRS[basis]
    return [setting_from_labels(x, y) for x in (b1, b2) for y in (b1, b2)]


def _visibilities(rho: np.ndarray, bases: tuple[str, ...]) -> list[float]:
    """Fringe visibilities (C_max - C_min)/(C_max + C_min) in each basis."""
    probs = _born_probs(rho, [s for b in bases for s in basis_settings(b)])
    c_max, c_min = probs.reshape(-1, 4).max(axis=1), probs.reshape(-1, 4).min(axis=1)
    for basis, total in zip(bases, (c_max + c_min).tolist()):
        if total == 0.0:
            raise MeasureError(f"all coincidence probabilities vanish in basis {basis}")
    return ((c_max - c_min) / (c_max + c_min)).tolist()


def visibility(rho: np.ndarray, basis: str) -> float:
    """Fringe visibility (C_max - C_min)/(C_max + C_min) in the given basis."""
    return _visibilities(rho, (basis,))[0]


def mean_visibility(rho: np.ndarray) -> float:
    """Average visibility over the HV, PM, and RL bases."""
    return sum(_visibilities(rho, ("HV", "PM", "RL"))) / 3.0


def sample_counts(rho: np.ndarray, settings: list[AnalyzerSetting],
                  n_trials: int, coinc_prob_scale: float,
                  seed: int) -> list[CountRecord]:
    """Poissonian coincidence counts, counts_k ~ Poisson(n * scale * p_k).

    Deterministic for a fixed seed: one generator draws all settings in list order.
    """
    if n_trials <= 0:
        raise MeasureError(f"n_trials must be positive, got {n_trials}")
    if not 0.0 < coinc_prob_scale <= 1.0:
        raise MeasureError(f"coinc_prob_scale must lie in (0, 1], got {coinc_prob_scale}")
    mu = n_trials * coinc_prob_scale * _born_probs(rho, settings)
    counts = np.random.default_rng(seed).poisson(mu).tolist()
    return [CountRecord(setting_label=s.label, counts=c) for s, c in zip(settings, counts)]


# ---------------------------------------------------------------------------
# CSV wire format: setting_label,counts,duration_s
# ---------------------------------------------------------------------------

def counts_to_csv(records: list[CountRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["setting_label", "counts", "duration_s"])
    w.writerows([r.setting_label, r.counts, repr(r.duration_s)] for r in records)
    return buf.getvalue()


def counts_from_csv(text: str) -> list[CountRecord]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["setting_label", "counts", "duration_s"]:
        raise MeasureError("count CSV must start with header setting_label,counts,duration_s")
    return [CountRecord(setting_label=label, counts=int(counts),
                        duration_s=float(duration))
            for label, counts, duration in rows[1:]]
