"""Polarization coincidence measurements: Born-rule probabilities,
correlation functions, CHSH S, fringe visibilities, and Poissonian count
sampling.

Each observable is Re Tr(rho W) over a (K, 4, 4) operator stack, one einsum for
a state or a (B, 4, 4) stack; Born-rule probabilities clamp it to [0, 1].  Two
tables are built once at import: CHSH_OPERATORS, the CHSH operator W of each
convention (S = |Tr(rho W)|, from sigma(phi) = cos 2phi Z + sin 2phi X at each
analyzer), and BASIS_PROJECTORS, the joint projectors of each basis pair, whose
probabilities give the visibilities.  Counts travel as (B, K) integer arrays;
only the count CSV functions know the file format.  `child_seed` hashes a
master seed and a task label into the seed of each Monte Carlo stream.

Sign convention: with the textbook correlation E = cos 2(phi1 - phi2) for
|phi+>, the quoted S combination at angles (0, 45, 22.5, 67.5) degrees
evaluates to 0.  The experimental analyzers therefore implement the
mirrored convention (photon 2's angle negated, E = cos 2(phi1 + phi2)),
consistent with a wave-plate reflection between the two beam splitters.
Mirrored is the default everywhere.
"""

from __future__ import annotations

import csv
import hashlib
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


class MeasureError(ValueError):
    """Invalid measurement setting or count CSV."""


class PoissonLimitError(MeasureError):
    """Row `row` of a Poisson draw has a mean above LIMIT, numpy's largest."""

    LIMIT = 9.223372006484771e18  # int64 max - 10 sqrt(int64 max)

    def __init__(self, row: int):
        super().__init__(f"row {row} has a Poisson mean above numpy's limit {self.LIMIT:.6g}")
        self.row = row


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
        return joint_projectors([self])[0]


def setting_from_labels(l1: str, l2: str) -> AnalyzerSetting:
    """Analyzer setting from basis labels in {H, V, +, -, R, L}."""
    try:
        k1, k2 = KETS_BY_LABEL[l1], KETS_BY_LABEL[l2]
    except KeyError as exc:
        raise MeasureError(f"unknown basis label {exc.args[0]!r}") from None
    return AnalyzerSetting(label=l1 + l2, ket1=tuple(k1), ket2=tuple(k2))


def joint_projectors(settings) -> np.ndarray:
    """(K, 4, 4) joint projectors (P1 x P2) of a sequence of settings."""
    kets = np.array([(s.ket1, s.ket2) for s in settings], dtype=complex).reshape(-1, 2, 2)
    k = (kets[:, 0, :, None] * kets[:, 1, None, :]).reshape(-1, 4)
    return k[:, :, None] * k.conj()[:, None, :]


def _traces(rho: np.ndarray, operators: np.ndarray) -> np.ndarray:
    """Re Tr(rho W_k) over a (K, 4, 4) operator stack: (K,) for a state, (B, K) for a stack."""
    return np.einsum("kij,...ji->...k", operators, np.asarray(rho, dtype=complex)).real


def born_probabilities(rho: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """Tr(rho Pi_k), clamped to [0, 1]: (K,) for a state, (B, K) for a stack."""
    return np.clip(_traces(rho, projectors), 0.0, 1.0)


def coincidence_prob(rho: np.ndarray, s: AnalyzerSetting) -> float:
    """Born-rule coincidence probability Tr(rho (P1 x P2))."""
    return float(born_probabilities(rho, joint_projectors([s]))[0])


def _correlators(phi1_rad, phi2_rad, convention: Convention) -> np.ndarray:
    """(N, 4, 4) operators sigma(phi1) x sigma(phi2), one per angle pair; mirrored negates phi2."""
    if convention not in ("mirrored", "textbook"):
        raise MeasureError(f"unknown convention {convention!r}")
    two_phi = 2.0 * np.array([phi1_rad, phi2_rad], dtype=float)
    two_phi[1] *= -1.0 if convention == "mirrored" else 1.0
    c, s = np.cos(two_phi), np.sin(two_phi)
    a, b = np.stack([c, s, s, -c], axis=-1).reshape(2, -1, 2, 2)
    return np.einsum("nij,nkl->nikjl", a, b).reshape(-1, 4, 4)


def correlation(rho: np.ndarray, phi1_rad: float, phi2_rad: float,
                convention: Convention = "mirrored") -> float:
    """Polarization correlation E = P(++) + P(--) - P(+-) - P(-+) over linear
    analyzers at (phi1, phi2); the mirrored convention negates phi2."""
    return float(_traces(rho, _correlators([phi1_rad], [phi2_rad], convention))[0])


# The CHSH operator W = -E(p1,p2) + E(p1,p2') + E(p1',p2) + E(p1',p2') at
# CHSH_ANGLES_RAD: -sqrt2 (XX + ZZ) mirrored, sqrt2 (XX - ZZ) textbook.
_P1, _P1P, _P2, _P2P = CHSH_ANGLES_RAD
CHSH_OPERATORS = {c: np.einsum("n,nij->ij", [-1.0, 1.0, 1.0, 1.0], _correlators(
    [_P1, _P1, _P1P, _P1P], [_P2, _P2P, _P2, _P2P], c)) for c in ("mirrored", "textbook")}


def chsh_s(rho: np.ndarray, convention: Convention = "mirrored") -> float | np.ndarray:
    """CHSH S = |Tr(rho W)| with W = CHSH_OPERATORS[convention]."""
    if convention not in CHSH_OPERATORS:
        raise MeasureError(f"unknown convention {convention!r}")
    return np.abs(_traces(rho, CHSH_OPERATORS[convention][None])[..., 0])[()]


BASIS_PAIRS = {"HV": ("H", "V"), "PM": ("+", "-"), "RL": ("R", "L")}
# (3, 4, 4, 4): the joint projectors of each basis pair, e.g. HH, HV, VH, VV.
BASIS_PROJECTORS = joint_projectors([setting_from_labels(x, y) for b1, b2 in BASIS_PAIRS.values()
                                     for x in (b1, b2) for y in (b1, b2)]).reshape(3, 4, 4, 4)


def _visibilities(rho: np.ndarray, bases: tuple[str, ...]) -> np.ndarray:
    """Fringe visibilities (C_max - C_min)/(C_max + C_min), one per basis (last axis)."""
    pis = BASIS_PROJECTORS[[list(BASIS_PAIRS).index(b) for b in bases]].reshape(-1, 4, 4)
    probs = born_probabilities(rho, pis).reshape(*np.shape(rho)[:-2], len(bases), 4)
    c_max, c_min = probs.max(axis=-1), probs.min(axis=-1)
    total = c_max + c_min
    if np.any(total == 0.0):
        basis = bases[np.argwhere(total == 0.0)[0][-1]]
        raise MeasureError(f"all coincidence probabilities vanish in basis {basis}")
    return (c_max - c_min) / total


def visibility(rho: np.ndarray, basis: str) -> float | np.ndarray:
    """Fringe visibility (C_max - C_min)/(C_max + C_min) in the given basis."""
    if basis not in BASIS_PAIRS:
        raise MeasureError(f"basis must be one of {sorted(BASIS_PAIRS)}, got {basis!r}")
    return _visibilities(rho, (basis,))[..., 0][()]


def visibilities(rho: np.ndarray) -> np.ndarray:
    """Visibilities in the bases of BASIS_PAIRS (HV, PM, RL), in that order (last axis)."""
    return _visibilities(rho, tuple(BASIS_PAIRS))


def child_seed(master_seed: int, task_label: str, index: int) -> int:
    """Deterministic seed of one Monte Carlo task: the first 8 bytes (big-endian) of
    SHA-256("{master}:{label}:{index}"), so each task gets an independent,
    reproducible stream regardless of the order in which tasks run."""
    payload = f"{master_seed}:{task_label}:{index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def sample_count_arrays(rho: np.ndarray, projectors: np.ndarray, n_trials: int,
                        coinc_prob_scale, seeds) -> np.ndarray:
    """(B, K) Poissonian counts of a (B, 4, 4) stack, counts_bk ~ Poisson(n scale_b
    p_bk), each row drawn in setting order by its own default_rng(seeds[b])."""
    if n_trials <= 0:
        raise MeasureError(f"n_trials must be positive, got {n_trials}")
    scale = np.asarray(coinc_prob_scale, dtype=float)
    if not np.all((0.0 < scale) & (scale <= 1.0)):
        raise MeasureError(f"coinc_prob_scale must lie in (0, 1], got {coinc_prob_scale}")
    mu = (n_trials * scale)[:, None] * born_probabilities(rho, projectors)
    if (over := mu.max(axis=1) > PoissonLimitError.LIMIT).any():
        raise PoissonLimitError(int(np.argmax(over)))
    rows = [np.random.default_rng(seed).poisson(m) for seed, m in zip(seeds, mu, strict=True)]
    return np.array(rows, dtype=np.int64).reshape(mu.shape)


def sample_counts(rho: np.ndarray, settings: list[AnalyzerSetting], n_trials: int,
                  coinc_prob_scale: float, seed: int) -> np.ndarray:
    """sample_count_arrays for one state and seed: its (K,) row."""
    return sample_count_arrays(np.asarray(rho)[None], joint_projectors(settings), n_trials,
                               [coinc_prob_scale], [seed])[0]


# ---------------------------------------------------------------------------
# CSV wire format: setting_label,counts,duration_s, one row per setting in order
# ---------------------------------------------------------------------------

def count_rule_breach(n, dur) -> str | None:
    """The rule for counts and durations at every entry: counts are finite,
    whole and >= 0, and durations finite and > 0.  The first breach as a
    message, or None."""
    n, dur = np.asarray(n, dtype=float).ravel(), np.asarray(dur, dtype=float).ravel()
    whole = np.isfinite(n) & (n == np.floor(n))
    if not whole.all():
        return f"counts must be finite and whole, got {n[~whole][0]}"
    if (n < 0.0).any():
        return f"counts must be >= 0, got {int(n[n < 0.0][0])}"
    positive = (dur > 0.0) & (dur < math.inf)
    if not positive.all():
        return f"duration must be finite and positive, got {dur[~positive][0]}"
    return None


def counts_to_csv(settings, n, dur) -> str:
    """The count CSV of (K,) counts and durations over the settings, in order."""
    if breach := count_rule_breach(n, dur):
        raise MeasureError(breach)
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["setting_label", "counts", "duration_s"])
    w.writerows([s.label, int(k), repr(float(d))] for s, k, d in zip(settings, n, dur, strict=True))
    return buf.getvalue()


def counts_from_csv(text: str, settings) -> tuple[np.ndarray, np.ndarray]:
    """(K,) float counts and durations of a count CSV whose rows follow the
    settings; a bad row raises MeasureError naming its line."""
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["setting_label", "counts", "duration_s"]:
        raise MeasureError("count CSV must start with header setting_label,counts,duration_s")
    rows = []
    for row in reader:
        try:
            if len(row) != 3:
                raise ValueError(f"expected 3 fields setting_label,counts,duration_s, "
                                 f"got {len(row)}")
            if len(rows) < len(settings) and row[0] != settings[len(rows)].label:
                raise ValueError(f"label {row[0]!r} does not match setting "
                                 f"{settings[len(rows)].label!r}")
            k, d = float(int(row[1])), float(row[2])
            if breach := count_rule_breach(k, d):
                raise ValueError(breach)
            rows.append((k, d))
        except (ValueError, OverflowError) as exc:
            raise MeasureError(f"count CSV line {reader.line_num}: {exc}") from None
    if len(rows) != len(settings):
        raise MeasureError(f"count CSV line {reader.line_num}: {len(rows)} rows for "
                           f"{len(settings)} settings")
    return tuple(np.array(rows).reshape(-1, 2).T)
