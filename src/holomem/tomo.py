"""Two-qubit state tomography: measurement schemes, linear inversion,
physical maximum-likelihood reconstruction, and Monte Carlo uncertainty.

The MLE maximizes the Poissonian log-likelihood
sum_k (n_k ln mu_k - mu_k) with mu_k = N_k Tr(rho Pi_k) over density
matrices.  The common exposure is profiled out analytically, so the
objective reduces to f = -sum n_k ln c_k + n_tot ln(sum c_k) with
c_k = d_k Tr(rho Pi_k) and d_k the setting durations over their mean.

B count sets are solved at once, as a (B, 4, 4) stack of states, with
batched matrix products, in up to two phases from the clamped
linear-inversion start; the second sees only the sets the first left.
The start and the physicality check of the output eigendecompose only the
states that the vectorised LDL^H test (qstate.positive_definite) does not
pass: the start tests rho - 1e-6 I, and the check rho itself.
Count sets travel as (B, K) count and duration arrays in setting order; the
one-set entries take (K,) arrays.

Damped Newton.  In the orthonormal coordinates v_m = Tr(E_m rho), with
E_m = B_m / 2 for the 15 traceless Pauli products B_m, f / n_tot is smooth
inside the state space and has the Hessian
H = sum_k nu_k (d_k / c_k)^2 a_k a_k^T - s s^T, where nu_k = n_k / n_tot,
a_k = (Tr(E_m Pi_k))_m and s = sum_k d_k a_k / C.  Each step solves
H dv = -grad and halves its length until the state stays positive definite
and f does not rise.  A set leaves this phase when H is not positive
definite or its step would be shorter than 2^-8, which is how iterates
approaching an optimum on the boundary end.  Interior optima are certified
here within a few steps.

Factored Newton (Burer & Monteiro, Math. Program. 95, 329 (2003); the
rho = T^H T form of James et al., PRA 64, 052312 (2001)).  With
rho = A A^H / Tr(A A^H) for a complex 4x4 factor A, every iterate is
physical without a projection, so an optimum of rank below 4 is reached by
columns of A shrinking.  A starts as V sqrt(max(lambda, 0)) from the
eigendecomposition of the Newton iterate.  In the 32 real coordinates of A
the gradient is 2 G A and the Hessian is
2 (I (x) G) + sum_k (nu_k / c_k^2) J_k J_k^T - s s^T, with
J_k = 2 d_k Pi_k A and s = sum_k J_k / C.  rho does not change along A X
(X anti-Hermitian, A -> A exp(X)) or along A (scale), so the Hessian is
restricted to the complement of those 17 directions and pseudo-inverted over
its eigendecomposition, using |eigenvalue| and dropping those below
_FACTOR_CUTOFF times the largest.  Each step halves its length until f does
not rise.  A step that no halving down to 2^-8 can accept raises the set's
Levenberg damping mu from 0: every kept |eigenvalue| is raised by mu times
the largest, which turns the step toward -grad f.  Accepted steps lower mu
again.  Since the 4x4 factor has full width, a rank-deficient local minimum of the
factored problem is a global one (Burer & Monteiro, Math. Program. 103, 427
(2005); Journee et al., SIAM J. Optim. 20, 2327 (2010)), so the damped
phase does not stall short of the optimum.  A set still uncertified after
_MAX_FACTORED_STEPS steps is returned with converged=False.

No accepted step raises f, and each set's iterates depend only on its own
counts and durations (up to rounding in the batched products; a Hessian
must pass the positive-definite test with a margin, so rounding cannot make
the batch decide a set's phase).  The solve returns one TomographyResult of
arrays, a row per set.  reconstruct_with_mc therefore solves the point
estimates and all their Monte Carlo resamples in one call, and returns the
point rows as one record and the resample states as a stack; cli reduces
them to a fidelity mean and spread.

Stopping rule, checked after every step of both phases (_MAX_ITER caps
both together): f is invariant under rescaling of rho, so Tr(rho G) = 0 for
the gradient G = grad f / n_tot at any state, and rho is optimal exactly
when G is positive semidefinite.  A set stops once G + _GTOL I passes the
vectorised LDL^H test (qstate.positive_definite), that is once the smallest
eigenvalue of G is at least -_GTOL, up to rounding in the pivots of a G at
that threshold; no eigendecomposition is taken.  By convexity of the
unprofiled likelihood, (f - f_min) / n_tot is then at most _GTOL * C / C_opt
with C = sum_k c_k, a ratio near 1 (exactly 1 for the 36-setting scheme at
equal durations).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import qstate
from .measure import (AnalyzerSetting, PoissonLimitError, child_seed, count_rule_breach,
                      joint_projectors, setting_from_labels)

SINGLE_QUBIT_LABELS_36 = ("H", "V", "+", "-", "R", "L")
SINGLE_QUBIT_LABELS_16 = ("H", "V", "+", "R")
_HV_GROUP = ("HH", "HV", "VH", "VV")


class TomographyError(ValueError):
    """Invalid tomography inputs (scheme or counts)."""


class EmptyResampleError(TomographyError):
    """A Monte Carlo resample of a count set with counts drew none."""

    def __init__(self, set_index: int, resample: int):
        super().__init__(f"Monte Carlo resample {resample} of count set {set_index} drew no counts")
        self.set_index, self.resample = set_index, resample


@dataclass(frozen=True)
class TomographySettings:
    """A measurement scheme: its name and ordered analyzer settings.

    `make_settings` also fills in, read-only, the (K, 4, 4) joint projector
    stack, the linear-inversion map (the state is
    inversion_offset + sum_k q_k inversion[k] for normalized probabilities q),
    the indices of the H/V group's four settings, and the tables of the MLE
    objective (see _Problem): pis_h, the (16, K) conjugate transpose of the
    flattened projectors, coords, a_km = Tr(E_m Pi_k), and outer, the (K, 225)
    flattened outer products a_k a_k^T.
    """

    scheme: str
    settings: tuple[AnalyzerSetting, ...]
    projectors: np.ndarray = field(compare=False, repr=False)
    inversion: np.ndarray = field(compare=False, repr=False)
    inversion_offset: np.ndarray = field(compare=False, repr=False)
    hv_group: np.ndarray = field(compare=False, repr=False)
    pis_h: np.ndarray = field(compare=False, repr=False)
    coords: np.ndarray = field(compare=False, repr=False)
    outer: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True)
class TomographyResult:
    """The solve of B count sets as arrays: rho_hat (B, 4, 4), the rest (B,).
    Indexing takes set i, with plain Python numbers, or a record of a slice of sets."""

    rho_hat: np.ndarray
    log_likelihood: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    # The leading part of `iterations` taken in the interior Newton phase; the
    # rest are damped factored-Newton steps.
    newton_steps: np.ndarray

    def __getitem__(self, i) -> TomographyResult:
        parts = (value[i] for value in vars(self).values())
        return TomographyResult(*(p.item() if p.ndim == 0 else p for p in parts))


# Two-qubit Pauli-product basis, B_0 = I (Tr(B_m B_n) = 4 delta_mn).
_PAULIS = [np.eye(2, dtype=complex),
           np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]], dtype=complex),
           np.array([[1, 0], [0, -1]], dtype=complex)]
_PAULI_BASIS = np.stack([np.kron(a, b) for a in _PAULIS for b in _PAULIS])
# Orthonormal coordinates of unit-trace states: rho = I/4 + sum_m v_m E_m
# with E_m = B_m / 2 (m = 1..15) flattened, so v_m = Tr(E_m rho).
_COORDS = _PAULI_BASIS[1:].reshape(15, 16) / 2.0


@functools.cache
def make_settings(scheme: int | str) -> TomographySettings:
    """The 36-setting (all pairs of H,V,+,-,R,L) or 16-setting (all pairs of
    H,V,+,R) scheme.  Both are informationally complete.  Built once per
    argument; the result is frozen and its arrays read-only."""
    key = str(scheme)
    if key not in ("36", "16"):
        raise TomographyError(f"scheme must be 16 or 36, got {scheme!r}")
    labels = SINGLE_QUBIT_LABELS_36 if key == "36" else SINGLE_QUBIT_LABELS_16
    settings = tuple(setting_from_labels(a, b) for a in labels for b in labels)
    pis = joint_projectors(settings)
    # Design: p_k = sum_m c_m Tr(B_m Pi_k), with c_0 = 1/4 fixed by trace;
    # least squares over the other 15 coefficients.
    design = np.real(np.einsum("mij,kji->km", _PAULI_BASIS, pis))
    pinv = np.linalg.pinv(design[:, 1:])
    inversion = np.einsum("mk,mij->kij", pinv, _PAULI_BASIS[1:])
    offset = 0.25 * (_PAULI_BASIS[0] - np.einsum("k,kij->ij", design[:, 0], inversion))
    hv_group = np.array([i for i, s in enumerate(settings) if s.label in _HV_GROUP])
    k = len(settings)
    flat = pis.reshape(k, 16)
    # c_k = d_k Re sum_ij rho_ij conj(Pi_k)_ij for Hermitian rho, Pi_k.
    pis_h = flat.conj().T
    # a_km = Tr(E_m Pi_k) and the flattened outer products a_k a_k^T.
    coords = np.real(flat.conj() @ _COORDS.T)
    outer = np.einsum("km,kn->kmn", coords, coords).reshape(k, -1)
    for a in (pis, inversion, offset, hv_group, pis_h, coords, outer):
        a.flags.writeable = False
    return TomographySettings(scheme=key, settings=settings, projectors=pis, inversion=inversion,
                              inversion_offset=offset, hv_group=hv_group, pis_h=pis_h,
                              coords=coords, outer=outer)


def _count_sets(n, dur, ts: TomographySettings) -> tuple[np.ndarray, np.ndarray]:
    """(B, K) float counts and durations, checked against the scheme and the count rule."""
    n, dur = np.asarray(n, dtype=float), np.asarray(dur, dtype=float)
    if n.ndim != 2 or n.shape != dur.shape or n.shape[1] != len(ts.settings):
        raise TomographyError(f"counts {n.shape} and durations {dur.shape} mismatch the scheme")
    if breach := count_rule_breach(n, dur):
        raise TomographyError(breach)
    return n, dur


def _linear_inversion_many(n: np.ndarray, dur: np.ndarray,
                           ts: TomographySettings) -> np.ndarray:
    """Linear inversion of (B, K) counts and durations to (B, 4, 4) states."""
    if np.any(n.sum(axis=1) <= 0):
        raise TomographyError("total counts must be positive")
    # Coincidences per second of exposure, estimated from the complete H/V
    # basis group, whose four probabilities sum to 1: at a common duration
    # d the group total is lambda0 * d.  Unequal durations within the group
    # are averaged.  A set with no H/V counts takes the rate at which I/4
    # would give its total (every projector has unit trace); the MLE start
    # needs only a positive scale.
    hv_total = n[:, ts.hv_group].sum(axis=1)
    rate = np.where(hv_total > 0, hv_total / dur[:, ts.hv_group].mean(axis=1),
                    4.0 * n.sum(axis=1) / dur.sum(axis=1))
    probs = n / (rate[:, None] * dur)
    return ts.inversion_offset + (probs @ ts.inversion.reshape(-1, 16)).reshape(-1, 4, 4)


def linear_inversion(n: np.ndarray, dur: np.ndarray, ts: TomographySettings) -> np.ndarray:
    """Least-squares state estimate of (K,) counts and durations: Hermitian,
    unit trace, possibly non-positive.  Exact on noiseless probabilities
    with counts in the H/V group."""
    return _linear_inversion_many(*_count_sets([n], [dur], ts), ts)[0]


# ---------------------------------------------------------------------------
# Batched MLE: damped Newton over density matrices and their factors
# ---------------------------------------------------------------------------

def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _from_eig(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    return (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(-1, -2)


def _certified(g: np.ndarray) -> np.ndarray:
    """The stopping rule: G + _GTOL I passes the LDL^H test (see the module docstring)."""
    return qstate.positive_definite(g + _GTOL * np.eye(4))


def _start_states(n: np.ndarray, dur: np.ndarray, ts: TomographySettings) -> np.ndarray:
    """Linear inversion with its eigenvalues clamped at 1e-6, unit trace.  Only the
    states that fail the LDL^H test of rho - 1e-6 I are eigendecomposed."""
    rho = _hermitian_part(_linear_inversion_many(n, dur, ts))
    clamp = ~qstate.positive_definite(rho - 1e-6 * np.eye(4))
    vals, vecs = np.linalg.eigh(rho[clamp])
    rho[clamp] = _from_eig(np.clip(vals, 1e-6, None), vecs)
    return rho / np.real(np.trace(rho, axis1=1, axis2=2))[:, None, None]


class _Problem:
    """Normalized profiled objective f / n_tot for a batch of count sets."""

    def __init__(self, n: np.ndarray, dur: np.ndarray, ts: TomographySettings):
        k = len(ts.settings)
        self.n_tot = n.sum(axis=1)
        self.nu = n / self.n_tot[:, None]
        self.observed = n > 0
        self.d = dur / dur.mean(axis=1, keepdims=True)
        self.pis = ts.projectors.reshape(k, 16)
        self.pis_h, self.coords, self.outer = ts.pis_h, ts.coords, ts.outer

    def rates(self, rho: np.ndarray, rows) -> np.ndarray:
        """c_k for the given rows (linear in rho, so also used for steps)."""
        return self.d[rows] * np.real(rho.reshape(len(rho), 16) @ self.pis_h)

    def gradient(self, c: np.ndarray, rows) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(self.observed[rows], self.nu[rows] / c, 0.0)
        w = self.d[rows] * (1.0 / c.sum(axis=1, keepdims=True) - ratio)
        return (w @ self.pis).reshape(-1, 4, 4)

    def hessian(self, c: np.ndarray, rows) -> np.ndarray:
        """(B, 15, 15) Hessian in the coordinates v at positive rates c:
        sum_k nu_k (d_k / c_k)^2 a_k a_k^T - s s^T with s = sum_k d_k a_k / C."""
        d = self.d[rows]
        h = (self.nu[rows] * (d / c) ** 2) @ self.outer
        s = (d @ self.coords) / c.sum(axis=1, keepdims=True)
        return h.reshape(-1, 15, 15) - s[:, :, None] * s[:, None, :]

    def factor_hessian(self, a: np.ndarray, c: np.ndarray, g: np.ndarray, rows) -> np.ndarray:
        """(B, 32, 32) Hessian of A -> f(A A^H) at (B, 4, 4) factors with rates c and
        gradient g, in the real coordinates of `_real`:
        2 (I (x) G) + sum_k nu_k / c_k^2 J_k J_k^T - s s^T, with J_k = 2 d_k Pi_k A
        and s = sum_k J_k / C."""
        b, k = len(a), len(self.pis)
        pa = (self.pis.reshape(1, k, 4, 4) @ a[:, None]).reshape(b, k, 16)
        jac = 2.0 * self.d[rows][:, :, None] * np.concatenate([pa.real, pa.imag], axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = np.where(self.observed[rows], self.nu[rows] / c ** 2, 0.0)
        s = jac.sum(axis=1) / c.sum(axis=1, keepdims=True)
        h = (jac.swapaxes(1, 2) * weights[:, None, :]) @ jac - s[:, :, None] * s[:, None, :]
        # dA -> G dA acts on the rows of A: G (x) I_4 on the row-major factor.
        gk = 2.0 * np.einsum("bij,lm->biljm", g, np.eye(4)).reshape(b, 16, 16)
        return h + np.block([[gk.real, -gk.imag], [gk.imag, gk.real]])

    def change(self, c: np.ndarray, dc: np.ndarray, rows) -> np.ndarray:
        """f(rho + step) - f(rho) from c(rho) and c(step), accurate for small
        steps where a difference of two objective values would cancel."""
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(self.observed[rows], np.log1p(dc / c), 0.0)
            total = np.log1p(dc.sum(axis=1) / c.sum(axis=1))
        out = total - np.sum(self.nu[rows] * rel, axis=1)
        return np.where(np.isnan(out), np.inf, out)


# Iteration cap, counting both phases.  A set that reaches it, or that ends
# _MAX_FACTORED_STEPS factored steps uncertified, is flagged converged=False.
_MAX_ITER = 10_000
# Converged when the smallest eigenvalue of the normalized gradient is at
# least -_GTOL (see the module docstring).
_GTOL = 1e-9
# A Hessian counts as positive definite if it stays so less _HESSIAN_MARGIN times
# its mean eigenvalue: sparse counts can leave H singular up to rounding, and
# rounding in the batched products must not decide a set's phase.
_HESSIAN_MARGIN = 1e-12
# Shortest damped Newton step: a set whose step must be shorter leaves the
# interior phase, or raises its damping in the factored phase.
_MIN_NEWTON_STEP = 2.0 ** -8
# Factored Newton: Hessian eigenvalues count in the pseudo-inverse when their
# magnitude exceeds _FACTOR_CUTOFF times the largest.  A set's damping mu is
# _DAMPING_START after its first step no halving can accept, and is multiplied
# by _DAMPING_RAISE after each further one and divided by _DAMPING_LOWER after
# an accepted step.  A set stops after _MAX_FACTORED_STEPS steps.
_FACTOR_CUTOFF = 1e-10
_DAMPING_START = 1e-6
_DAMPING_RAISE = 100.0
_DAMPING_LOWER = 10.0
_MAX_FACTORED_STEPS = 200
# i B_m spans the anti-Hermitian 4x4 matrices X; A -> A exp(X) leaves rho unchanged.
_GAUGE = 1j * _PAULI_BASIS


def _real(a: np.ndarray) -> np.ndarray:
    """Complex 4x4 factors, (B, 4, 4) or (B, 16), as (B, 32) real vectors
    (Re A, Im A), row-major."""
    flat = a.reshape(len(a), 16)
    return np.concatenate([flat.real, flat.imag], axis=1)


def _factored_direction(prob: _Problem, a: np.ndarray, c: np.ndarray, g: np.ndarray,
                        rows, mu: np.ndarray) -> np.ndarray:
    """The Newton step dA at (B, 4, 4) factors A with rates c, gradient g and damping mu.

    The Hessian is restricted to the complement of the directions A X and A,
    along which rho does not change, and pseudo-inverted over its
    eigendecomposition with |eigenvalues| above the relative cutoff, each
    raised by mu times the largest."""
    orbit = np.concatenate([a[:, None], a[:, None] @ _GAUGE], axis=1).reshape(-1, 16)
    q, r = np.linalg.qr(_real(orbit).reshape(len(a), 17, 32).swapaxes(1, 2))
    # A rank-deficient A spans fewer directions; drop the columns QR filled in.
    span = np.abs(np.diagonal(r, axis1=1, axis2=2))
    q = q * (span > 1e-10 * span.max(axis=1, keepdims=True))[:, None, :]
    p = np.eye(32) - q @ q.swapaxes(1, 2)
    lam, vec = np.linalg.eigh(p @ prob.factor_hessian(a, c, g, rows) @ p)
    size = np.abs(lam)
    top = size.max(axis=1, keepdims=True)
    keep = size > _FACTOR_CUTOFF * top
    inv = np.where(keep, 1.0 / np.where(keep, size + mu[:, None] * top, 1.0), 0.0)
    grad = _real(2.0 * g @ a)
    step = -((vec * inv[:, None, :]) @ (vec.swapaxes(1, 2) @ grad[:, :, None]))[:, :, 0]
    return (step[:, :16] + 1j * step[:, 16:]).reshape(-1, 4, 4)


def _factored_newton(prob: _Problem, rows: np.ndarray, x: np.ndarray, c_x: np.ndarray,
                     g_x: np.ndarray, iterations: np.ndarray, converged: np.ndarray,
                     accept) -> None:
    """Damped Newton steps on factors A, rho = A A^H / Tr(A A^H), for the sets
    `rows`, from A = V sqrt(max(lambda, 0)) of each iterate; `accept` records
    each step (see the module docstring)."""
    vals, vecs = np.linalg.eigh(x[rows])
    a = vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]
    mu = np.zeros(len(rows))
    active = np.ones(len(rows), dtype=bool)
    for _ in range(_MAX_FACTORED_STEPS):
        active &= ~converged[rows] & (iterations[rows] < _MAX_ITER)
        live = np.flatnonzero(active)
        if not len(live):
            break
        at = rows[live]
        da = _factored_direction(prob, a[live], c_x[at], g_x[at], at, mu[live])
        t = 1.0
        pending = np.arange(len(live))
        while len(pending):
            r, old, d = at[pending], a[live[pending]], t * da[pending]
            # A A^H grows by this; f ignores the scale of rho.
            cross = d @ old.conj().swapaxes(1, 2)
            grow = cross + cross.conj().swapaxes(1, 2) + d @ d.conj().swapaxes(1, 2)
            gain = prob.change(c_x[r], prob.rates(grow, r), r)
            ok = gain <= 0.0
            new = old[ok] + d[ok]
            new /= np.linalg.norm(new, axis=(1, 2))[:, None, None]
            a[live[pending[ok]]] = new
            mu[live[pending[ok]]] /= _DAMPING_LOWER
            accept(r[ok], new @ new.conj().swapaxes(1, 2))
            pending = pending[~ok]
            t *= 0.5
            if t < _MIN_NEWTON_STEP:
                failed = live[pending]
                mu[failed] = np.where(mu[failed] > 0.0, mu[failed] * _DAMPING_RAISE,
                                      _DAMPING_START)
                break


def _mle_many(n: np.ndarray, dur: np.ndarray, ts: TomographySettings) -> TomographyResult:
    """Solve the (B, K) count sets at once; see the module docstring."""
    x = _start_states(n, dur, ts)
    prob = _Problem(n, dur, ts)
    everyone = np.arange(len(n))
    c_x = prob.rates(x, everyone)
    g_x = prob.gradient(c_x, everyone)
    iterations = np.zeros(len(n), dtype=int)
    converged = _certified(g_x)

    def accept(moved, z):
        """Move the sets `moved` to the states z."""
        if not len(moved):
            return
        x[moved] = z
        c_x[moved] = prob.rates(z, moved)
        g_x[moved] = prob.gradient(c_x[moved], moved)
        iterations[moved] += 1
        converged[moved] = _certified(g_x[moved])

    # Damped Newton in the coordinates v while the Hessian is positive
    # definite and steps stay long; then factored Newton.
    newton = ~converged
    while newton.any():
        rows = np.flatnonzero(newton)
        h = prob.hessian(c_x[rows], rows)
        margin = _HESSIAN_MARGIN / 15.0 * np.trace(h, axis1=1, axis2=2)
        shifted = h.copy()
        np.einsum("bii->bi", shifted)[...] -= margin[:, None]
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            # cholesky fails the whole stack; only the failing sets leave.
            curved = qstate.positive_definite(shifted)
            newton[rows[~curved]] = False
            rows, h = rows[curved], h[curved]
        grad = np.real(g_x[rows].reshape(-1, 16) @ _COORDS.conj().T)
        dx = (np.linalg.solve(h, -grad[:, :, None])[:, :, 0] @ _COORDS).reshape(-1, 4, 4)
        dc = prob.rates(dx, rows)
        t = 1.0
        pending = np.arange(len(rows))
        while len(pending):
            at = rows[pending]
            z = x[at] + t * dx[pending]
            gain = prob.change(c_x[at], t * dc[pending], at)
            ok = (gain <= 0.0) & qstate.positive_definite(z)
            accept(at[ok], z[ok])
            pending = pending[~ok]
            t *= 0.5
            if t < _MIN_NEWTON_STEP:
                newton[rows[pending]] = False
                break
        newton[rows] &= ~converged[rows] & (iterations[rows] < _MAX_ITER)
    newton_steps = iterations.copy()

    left = np.flatnonzero(~converged & (iterations < _MAX_ITER))
    if len(left):
        _factored_newton(prob, left, x, c_x, g_x, iterations, converged, accept)

    rho_hat = qstate.check_density_matrix(_hermitian_part(x), atol=qstate.CHANNEL_ATOL)
    # Report the actual Poissonian log-likelihood at the profiled exposure.
    c = np.clip(c_x, 1e-300, None)
    mu = prob.n_tot[:, None] * c / c.sum(axis=1, keepdims=True)
    log_l = np.einsum("bk,bk->b", n, np.log(mu)) - mu.sum(axis=1)
    return TomographyResult(rho_hat, log_l, converged, iterations, newton_steps)


def mle_reconstruct(n: np.ndarray, dur: np.ndarray,
                    ts: TomographySettings) -> TomographyResult:
    """Poissonian maximum-likelihood state reconstruction of (K,) counts and
    durations from their clamped linear-inversion start (see the module
    docstring), as that one set's entries of the record."""
    return _mle_many(*_count_sets([n], [dur], ts), ts)[0]


def reconstruct_with_mc(n: np.ndarray, dur: np.ndarray, ts: TomographySettings, n_sets: int,
                        seeds: list[int]) -> tuple[TomographyResult, np.ndarray, np.ndarray]:
    """Point estimates of (B, K) count and duration arrays, their Monte Carlo
    resample estimates as a (B, n_sets, 4, 4) stack, and each set's (B,) count
    of non-converged resamples, from one batched solve.

    The resamples of set j are one (n_sets, K) draw counts_k ~ Poisson(n_k)
    from a generator seeded with child seed 0 of seeds[j] (one seed per set),
    so they do not depend on the other sets; resample i of set j is [j, i].
    n_sets is 0 (an empty stack) or at least 2.  A count above the sampler's
    limit raises PoissonLimitError before the draw.  A resample that draws no
    counts raises EmptyResampleError before the solve, unless its own set has
    no counts, which the solve rejects by name.
    """
    if n_sets < 0 or n_sets == 1:
        raise TomographyError(f"n_sets must be 0 or >= 2, got {n_sets}")
    n, dur = _count_sets(n, dur, ts)
    if n_sets and (over := n.max(axis=1) > PoissonLimitError.LIMIT).any():
        raise PoissonLimitError(int(np.argmax(over)))
    resampled = np.array(
        [np.random.default_rng(child_seed(seed, "mc-tomo", 0)).poisson(row, (n_sets, len(row)))
         for row, seed in zip(n, seeds, strict=True) if n_sets], dtype=float).reshape(-1, n.shape[1])
    empty = np.flatnonzero(~resampled.any(axis=1))
    if len(empty) and n.any(axis=1).all():
        raise EmptyResampleError(*map(int, divmod(empty[0], n_sets)))
    results = _mle_many(np.concatenate([n, resampled]),
                        np.concatenate([dur, np.repeat(dur, n_sets, axis=0)]), ts)
    draws = results[len(n):]
    failed = (~draws.converged).reshape(len(n), n_sets).sum(axis=1)
    return results[:len(n)], draws.rho_hat.reshape(len(n), n_sets, 4, 4), failed


def monte_carlo_fidelity(n: np.ndarray, dur: np.ndarray, ts: TomographySettings,
                         target: np.ndarray, n_sets: int, seed: int) -> np.ndarray:
    """The (n_sets,) fidelities to `target` of the Monte Carlo resample
    estimates of (K,) counts and durations (reconstruct_with_mc), with n_sets >= 2."""
    if n_sets < 2:
        raise TomographyError(f"n_sets must be >= 2, got {n_sets}")
    return qstate.fidelity(target, reconstruct_with_mc([n], [dur], ts, n_sets, [seed])[1][0])
