"""Two-qubit state tomography: measurement schemes, linear inversion,
physical maximum-likelihood reconstruction, and Monte Carlo uncertainty.

The MLE maximizes the Poissonian log-likelihood
sum_k (n_k ln mu_k - mu_k) with mu_k = N_k Tr(rho Pi_k) over density
matrices.  The common exposure is profiled out analytically, so the
objective reduces to f = -sum n_k ln c_k + n_tot ln(sum c_k) with
c_k = d_k Tr(rho Pi_k) and d_k the setting durations over their mean.

B count sets are solved at once, as a (B, 4, 4) stack of states, with
batched matrix products, in two phases from the clamped linear-inversion
start.

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

Accelerated projected gradient (Shang, Zhang & Ng, PRA 95, 062336 (2017))
takes every set the Newton phase left, from its Newton iterate.  Each
step moves along -grad f from a momentum point and projects onto the
unit-trace positive matrices, projecting the eigenvalues onto the simplex.
Every set keeps its own step size, found by backtracking on the curvature
along the step, and its own momentum, which restarts when a step would
raise f or runs against the gradient.  So the recorded f never rises, and
each set's iterates depend only on its own counts and durations (up to
rounding in the batched products).  reconstruct_with_mc therefore solves
the point estimates and all their Monte Carlo resamples in one call.

Stopping rule, checked after every step of either phase (_MAX_ITER caps
both together): f is invariant under rescaling of rho, so Tr(rho G) = 0 for
the gradient G = grad f / n_tot at any state, and rho is optimal exactly
when G is positive semidefinite.  A set stops once the smallest eigenvalue
of G is at least -_GTOL, computed by eigvalsh only where a vectorised LDL^H
test finds G + 2 _GTOL I positive definite.  By convexity of the unprofiled
likelihood, (f - f_min) / n_tot is then at most _GTOL * C / C_opt with
C = sum_k c_k, a ratio near 1 (exactly 1 for the 36-setting scheme at
equal durations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qstate
from .measure import AnalyzerSetting, CountRecord, setting_from_labels
from .seeding import child_seed

SINGLE_QUBIT_LABELS_36 = ("H", "V", "+", "-", "R", "L")
SINGLE_QUBIT_LABELS_16 = ("H", "V", "+", "R")
_HV_GROUP = ("HH", "HV", "VH", "VV")


class TomographyError(ValueError):
    """Invalid tomography inputs (scheme, counts, or design)."""


@dataclass(frozen=True)
class TomographySettings:
    """A measurement scheme: its name and ordered analyzer settings.

    `make_settings` also fills in, read-only, the (K, 4, 4) joint projector
    stack and the linear-inversion map: the state is
    inversion_offset + sum_k q_k inversion[k] for normalized probabilities q.
    """

    scheme: str
    settings: tuple[AnalyzerSetting, ...]
    projectors: np.ndarray = field(compare=False, repr=False)
    inversion: np.ndarray = field(compare=False, repr=False)
    inversion_offset: np.ndarray = field(compare=False, repr=False)


@dataclass
class TomographyResult:
    rho_hat: np.ndarray
    log_likelihood: float
    converged: bool
    iterations: int
    # The leading damped-Newton part of `iterations`; the rest are APG steps.
    newton_steps: int
    # Objective value (negative profiled log-likelihood) at the start and
    # after each accepted step; nonincreasing (a change within the rounding
    # of the projection is recorded as none).
    objective_history: list[float] = field(repr=False, default_factory=list)


@dataclass
class McSummary:
    """Monte Carlo fidelity distribution over resampled data sets."""

    n_sets: int
    fidelity_mean: float
    fidelity_std: float
    samples: list[float] = field(repr=False, default_factory=list)
    n_nonconverged: int = 0


# Two-qubit Pauli-product basis, B_0 = I (Tr(B_m B_n) = 4 delta_mn).
_PAULIS = [np.eye(2, dtype=complex),
           np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]], dtype=complex),
           np.array([[1, 0], [0, -1]], dtype=complex)]
_PAULI_BASIS = np.stack([np.kron(a, b) for a in _PAULIS for b in _PAULIS])
# Orthonormal coordinates of unit-trace states: rho = I/4 + sum_m v_m E_m
# with E_m = B_m / 2 (m = 1..15) flattened, so v_m = Tr(E_m rho).
_COORDS = _PAULI_BASIS[1:].reshape(15, 16) / 2.0


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_settings(scheme: int | str) -> TomographySettings:
    """Build the 36-setting (all pairs of H,V,+,-,R,L) or 16-setting
    (all pairs of H,V,+,R) scheme.  Both are informationally complete."""
    key = str(scheme)
    if key == "36":
        labels = SINGLE_QUBIT_LABELS_36
    elif key == "16":
        labels = SINGLE_QUBIT_LABELS_16
    else:
        raise TomographyError(f"scheme must be 16 or 36, got {scheme!r}")
    settings = tuple(setting_from_labels(a, b) for a in labels for b in labels)
    pis = np.stack([s.joint_projector for s in settings])
    # Design: p_k = sum_m c_m Tr(B_m Pi_k), with c_0 = 1/4 fixed by trace;
    # least squares over the other 15 coefficients.
    design = np.real(np.einsum("mij,kji->km", _PAULI_BASIS, pis))
    pinv = np.linalg.pinv(design[:, 1:])
    inversion = np.einsum("mk,mij->kij", pinv, _PAULI_BASIS[1:])
    offset = 0.25 * (_PAULI_BASIS[0] - np.einsum("k,kij->ij", design[:, 0], inversion))
    ts = TomographySettings(scheme=key, settings=settings, projectors=_read_only(pis),
                            inversion=_read_only(inversion),
                            inversion_offset=_read_only(offset))
    if design_rank(ts) != 16:
        raise TomographyError(f"scheme {key} is not informationally complete")
    return ts


def design_rank(ts: TomographySettings) -> int:
    """Rank of the projector design (Gram) matrix; 16 means complete."""
    flat = ts.projectors.reshape(len(ts.settings), 16)
    return int(np.linalg.matrix_rank(flat, tol=1e-10))


def forward_probabilities(rho: np.ndarray, ts: TomographySettings) -> np.ndarray:
    """Born-rule probabilities for every setting of the scheme."""
    return np.real(np.einsum("kij,ji->k", ts.projectors, np.asarray(rho, dtype=complex)))


def exact_counts(rho: np.ndarray, ts: TomographySettings,
                 exposure: float) -> list[CountRecord]:
    """Noiseless synthetic counts: round(exposure * p_k) per setting."""
    probs = forward_probabilities(rho, ts)
    return [CountRecord(setting_label=s.label, counts=int(round(exposure * p)))
            for s, p in zip(ts.settings, probs)]


def _check_alignment(counts: list[CountRecord], ts: TomographySettings) -> None:
    if len(counts) != len(ts.settings):
        raise TomographyError(
            f"{len(counts)} count records for {len(ts.settings)} settings")
    for rec, s in zip(counts, ts.settings):
        if rec.setting_label != s.label:
            raise TomographyError(
                f"count record {rec.setting_label!r} does not match setting {s.label!r}")


def _as_arrays(count_sets: list[list[CountRecord]],
               ts: TomographySettings) -> tuple[np.ndarray, np.ndarray]:
    """(B, K) counts and durations of aligned count sets."""
    for counts in count_sets:
        _check_alignment(counts, ts)
    n = np.array([[float(r.counts) for r in counts] for counts in count_sets])
    dur = np.array([[r.duration_s for r in counts] for counts in count_sets])
    return n.reshape(-1, len(ts.settings)), dur.reshape(-1, len(ts.settings))


def _linear_inversion_many(n: np.ndarray, dur: np.ndarray,
                           ts: TomographySettings) -> np.ndarray:
    """Linear inversion of (B, K) counts and durations to (B, 4, 4) states."""
    if np.any(n.sum(axis=1) <= 0):
        raise TomographyError("total counts must be positive")
    # Coincidences per second of exposure, estimated from the complete H/V
    # basis group, whose four probabilities sum to 1: at a common duration
    # d the group total is lambda0 * d.  Unequal durations within the group
    # are averaged.
    hv = [i for i, s in enumerate(ts.settings) if s.label in _HV_GROUP]
    if len(hv) != 4:
        raise TomographyError(
            f"scheme {ts.scheme} lacks the full H/V group needed for exposure estimation")
    hv_total = n[:, hv].sum(axis=1)
    if np.any(hv_total <= 0):
        raise TomographyError("no counts in the H/V group; cannot estimate exposure")
    rate = hv_total / dur[:, hv].mean(axis=1)
    probs = n / (rate[:, None] * dur)
    return ts.inversion_offset + np.einsum("bk,kij->bij", probs, ts.inversion)


def linear_inversion(counts: list[CountRecord], ts: TomographySettings) -> np.ndarray:
    """Least-squares state estimate: Hermitian, unit trace, possibly
    non-positive.  Exact on noiseless probabilities."""
    return _linear_inversion_many(*_as_arrays([counts], ts), ts)[0]


# ---------------------------------------------------------------------------
# Batched MLE: accelerated projected gradient over density matrices
# ---------------------------------------------------------------------------

def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _from_eig(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    return (vecs * vals[:, None, :]) @ vecs.conj().swapaxes(-1, -2)


def _positive_definite(h: np.ndarray) -> np.ndarray:
    """Whether each matrix of a (B, n, n) Hermitian stack is positive definite (all
    LDL^H pivots positive), reading like eigh the lower triangle and real diagonal."""
    a = h.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(a.shape[-1] - 1):
            col, pivot = a[:, k + 1:, k], a[:, k, k, None].real
            a[:, k + 1:, k + 1:] -= col[:, :, None] * (col.conj() / pivot)[:, None, :]
    return np.all(np.diagonal(a, axis1=1, axis2=2).real > 0.0, axis=1)


def _project_eig(h: np.ndarray) -> np.ndarray:
    """Frobenius-nearest density matrices to a (B, 4, 4) Hermitian stack:
    the eigenvalues are projected onto the probability simplex."""
    vals, vecs = np.linalg.eigh(h)
    desc = vals[:, ::-1]
    ranks = np.arange(1, vals.shape[1] + 1)
    excess = (np.cumsum(desc, axis=1) - 1.0) / ranks
    support = np.sum(desc > excess, axis=1)
    shift = excess[np.arange(len(vals)), support - 1]
    return _from_eig(np.maximum(vals - shift[:, None], 0.0), vecs)


def _certified(g: np.ndarray) -> np.ndarray:
    """The stopping rule, eigvalsh(G)[0] >= -_GTOL, run only where G + 2 _GTOL I is positive
    definite: a necessary condition, with a margin far beyond the LDL^H rounding."""
    ok = _positive_definite(g + 2.0 * _GTOL * np.eye(4))
    ok[ok] = np.linalg.eigvalsh(g[ok])[:, 0] >= -_GTOL
    return ok


def _start_states(n: np.ndarray, dur: np.ndarray, ts: TomographySettings) -> np.ndarray:
    """Linear inversion with its eigenvalues clamped at 1e-6, unit trace."""
    vals, vecs = np.linalg.eigh(_hermitian_part(_linear_inversion_many(n, dur, ts)))
    rho = _from_eig(np.clip(vals, 1e-6, None), vecs)
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
        # c_k = d_k Re sum_ij rho_ij conj(Pi_k)_ij for Hermitian rho, Pi_k.
        self.pis_h = self.pis.conj().T
        # a_km = Tr(E_m Pi_k) and the flattened outer products a_k a_k^T.
        self.coords = np.real(self.pis.conj() @ _COORDS.T)
        self.outer = np.einsum("km,kn->kmn", self.coords, self.coords).reshape(k, -1)

    def rates(self, rho: np.ndarray, rows) -> np.ndarray:
        """c_k for the given rows (linear in rho, so also used for steps)."""
        return self.d[rows] * np.real(rho.reshape(len(rho), 16) @ self.pis_h)

    def value(self, c: np.ndarray, rows) -> np.ndarray:
        with np.errstate(divide="ignore"):
            logs = np.where(self.observed[rows], np.log(np.clip(c, 0.0, None)), 0.0)
        return np.log(c.sum(axis=1)) - np.sum(self.nu[rows] * logs, axis=1)

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

    def change(self, c: np.ndarray, dc: np.ndarray, rows) -> np.ndarray:
        """f(rho + step) - f(rho) from c(rho) and c(step), accurate for small
        steps where a difference of two objective values would cancel."""
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(self.observed[rows], np.log1p(dc / c), 0.0)
            total = np.log1p(dc.sum(axis=1) / c.sum(axis=1))
        out = total - np.sum(self.nu[rows] * rel, axis=1)
        return np.where(np.isnan(out), np.inf, out)


# Iteration cap, counting both phases; only a set that reaches it is flagged
# converged=False.
_MAX_ITER = 10_000
# Converged when the smallest eigenvalue of the normalized gradient is at
# least -_GTOL (see the module docstring).
_GTOL = 1e-9
# Step halvings after which an extrapolated point is abandoned for x.
_MAX_HALVINGS = 40
# Shortest damped Newton step; a set whose step must be shorter leaves for APG.
_MIN_NEWTON_STEP = 2.0 ** -8


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(a b) for stacks of Hermitian matrices."""
    return np.real(np.einsum("bij,bji->b", a, b))


def _mle_many(n: np.ndarray, dur: np.ndarray, ts: TomographySettings) -> list[TomographyResult]:
    """Solve the (B, K) count sets at once; see the module docstring."""
    x = _start_states(n, dur, ts)
    prob = _Problem(n, dur, ts)
    b = len(n)
    everyone = np.arange(b)
    c_x = prob.rates(x, everyone)
    g_x = prob.gradient(c_x, everyone)
    f = prob.value(c_x, everyone)
    history = [[float(v)] for v in f * prob.n_tot]
    iterations = np.zeros(b, dtype=int)
    converged = _certified(g_x)

    # Damped Newton in the coordinates v while the Hessian is positive
    # definite and steps stay long; then APG from the Newton iterate.
    newton = ~converged
    while newton.any():
        rows = np.flatnonzero(newton)
        h = prob.hessian(c_x[rows], rows)
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            # cholesky fails the whole stack; only the failing sets leave.
            curved = _positive_definite(h)
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
            ok = (gain <= 0.0) & _positive_definite(z)
            moved = at[ok]
            x[moved] = z[ok]
            c_x[moved] = prob.rates(z[ok], moved)
            g_x[moved] = prob.gradient(c_x[moved], moved)
            f[moved] += gain[ok]
            for r, value in zip(moved.tolist(), (f[moved] * prob.n_tot[moved]).tolist()):
                history[r].append(value)
            iterations[moved] += 1
            converged[moved] = _certified(g_x[moved])
            pending = pending[~ok]
            t *= 0.5
            if t < _MIN_NEWTON_STEP:
                newton[rows[pending]] = False
                break
        newton[rows] &= ~converged[rows] & (iterations[rows] < _MAX_ITER)
    newton_steps = iterations.copy()

    x_prev = x.copy()
    theta = np.ones(b)
    step = np.ones(b)
    active = ~converged & (iterations < _MAX_ITER)

    while active.any():
        rows = np.flatnonzero(active)
        th = theta[rows]
        th_next = (1.0 + np.sqrt(1.0 + 4.0 * th * th)) / 2.0
        beta = ((th - 1.0) / th_next)[:, None, None]
        y = x[rows] + beta * (x[rows] - x_prev[rows])
        c_y = prob.rates(y, rows)
        # A plain step starts from x itself.  An extrapolated point outside
        # the likelihood's domain restarts the momentum, giving a plain step.
        outside = np.any(prob.observed[rows] & (c_y <= 0.0), axis=1)
        th_next[outside] = 1.0
        plain = outside | (th == 1.0)
        y[plain], c_y[plain] = x[rows[plain]], c_x[rows[plain]]
        g_y = prob.gradient(c_y, rows)
        g_y[plain] = g_x[rows[plain]]

        # Backtracking: halve each set's step t until the curvature along
        # the step is at most 1/t.  The test compares gradients, which stay
        # accurate near the optimum where differences of f are rounding.
        z, c_z, g_z = np.empty_like(y), np.empty_like(c_y), np.empty_like(g_y)
        pending = np.arange(len(rows))
        halvings = np.zeros(len(rows), dtype=int)
        while len(pending):
            at = rows[pending]
            t = step[at]
            z_try = _project_eig(y[pending] - t[:, None, None] * g_y[pending])
            c_try = prob.rates(z_try, at)
            g_try = prob.gradient(c_try, at)
            delta = z_try - y[pending]
            curvature = _inner(g_try - g_y[pending], delta)
            ok = np.isfinite(curvature) & (curvature <= np.sum(np.abs(delta) ** 2, axis=(1, 2)) / t)
            done = pending[ok]
            z[done], c_z[done], g_z[done] = z_try[ok], c_try[ok], g_try[ok]
            pending = pending[~ok]
            step[rows[pending]] *= 0.5
            halvings[pending] += 1
            # The projection of an extrapolated point can leave the domain
            # for every step size; such a set takes a plain step, once.
            stuck = pending[halvings[pending] == _MAX_HALVINGS]
            y[stuck], c_y[stuck], g_y[stuck] = x[rows[stuck]], c_x[rows[stuck]], g_x[rows[stuck]]
            plain[stuck], th_next[stuck] = True, 1.0
            step[rows[stuck]] *= 2.0 ** _MAX_HALVINGS

        # A plain step passing the test cannot raise f beyond the rounding
        # of the projection (eps times the gradient), which exceeds the true
        # change near an optimum on the boundary; it is kept and recorded as
        # no change.  A momentum step that raises f is dropped, and the next
        # step is plain.
        gain = prob.change(c_x[rows], prob.rates(z - x[rows], rows), rows)
        slack = 16.0 * np.finfo(float).eps * np.linalg.norm(g_y, axis=(1, 2))
        better = gain <= np.where(plain, slack, 0.0)
        moved = rows[better]
        x_prev[rows] = x[rows]
        x[moved], c_x[moved], g_x[moved] = z[better], c_z[better], g_z[better]
        f[moved] += np.minimum(gain[better], 0.0)
        for r, value in zip(moved.tolist(), (f[moved] * prob.n_tot[moved]).tolist()):
            history[r].append(value)
        # Gradient restart (O'Donoghue & Candes): momentum that points
        # against the projected gradient step is dropped as well.
        uphill = _inner(y - z, z - x_prev[rows]) > 0.0
        theta[rows] = np.where(better & ~uphill, th_next, 1.0)
        step[rows] *= np.where(better, 2.0, 0.5)
        iterations[rows] += 1

        converged[moved] = _certified(g_x[moved])
        active[rows] = ~converged[rows] & (iterations[rows] < _MAX_ITER)

    rho_hat = qstate.check_density_matrix(_hermitian_part(x), atol=qstate.CHANNEL_ATOL)
    # Report the actual Poissonian log-likelihood at the profiled exposure.
    c = np.clip(c_x, 1e-300, None)
    mu = prob.n_tot[:, None] * c / c.sum(axis=1, keepdims=True)
    log_l = np.einsum("bk,bk->b", n, np.log(mu)) - mu.sum(axis=1)
    return [TomographyResult(rho_hat=rho_hat[r], log_likelihood=float(log_l[r]),
                             converged=bool(converged[r]), iterations=int(iterations[r]),
                             newton_steps=int(newton_steps[r]),
                             objective_history=history[r]) for r in everyone]


def mle_reconstruct_many(count_sets: list[list[CountRecord]],
                         ts: TomographySettings) -> list[TomographyResult]:
    """Poissonian maximum-likelihood reconstruction of several count sets,
    solved together from their clamped linear-inversion starts (see the
    module docstring).  A result is flagged converged=False only if _MAX_ITER
    was hit before the optimality test passed."""
    return _mle_many(*_as_arrays(count_sets, ts), ts)


def mle_reconstruct(counts: list[CountRecord], ts: TomographySettings) -> TomographyResult:
    """Poissonian maximum-likelihood state reconstruction of one count set:
    mle_reconstruct_many for a single set."""
    return mle_reconstruct_many([counts], ts)[0]


def reconstruct_with_mc(count_sets: list[list[CountRecord]], ts: TomographySettings,
                        target: np.ndarray, n_sets: int,
                        seeds: list[int]) -> tuple[list[TomographyResult], list[McSummary]]:
    """Point estimates of several count sets and, for n_sets >= 2, each set's
    Monte Carlo fidelity summary versus `target`, from one batched solve.

    Resample i of set j draws counts_k ~ Poisson(n_k) from child seed i of
    seeds[j] (one seed per set); the fidelities are recorded in index order.
    With n_sets = 0 the summary list is empty.
    """
    if n_sets < 0 or n_sets == 1:
        raise TomographyError(f"n_sets must be 0 or >= 2, got {n_sets}")
    n, dur = _as_arrays(count_sets, ts)
    resampled = np.array([np.random.default_rng(child_seed(seed, "mc-tomo", i)).poisson(row)
                          for row, seed in zip(n, seeds, strict=True) for i in range(n_sets)],
                         dtype=float).reshape(-1, n.shape[1])
    results = _mle_many(np.concatenate([n, resampled]),
                        np.concatenate([dur, np.repeat(dur, n_sets, axis=0)]), ts)
    points, draws = results[:len(n)], results[len(n):]
    if not draws:
        return points, []
    fid = qstate.fidelity(np.stack([r.rho_hat for r in draws]), target).reshape(len(n), n_sets)
    failed = np.array([not r.converged for r in draws]).reshape(len(n), n_sets).sum(axis=1)
    return points, [McSummary(n_sets, float(f.mean()), float(f.std(ddof=1)), f.tolist(), int(k))
                    for f, k in zip(fid, failed)]


def monte_carlo_fidelity(counts: list[CountRecord], ts: TomographySettings,
                         target: np.ndarray, n_sets: int, seed: int) -> McSummary:
    """Poissonian-resampling uncertainty on the fidelity versus `target`:
    reconstruct_with_mc for one count set, with n_sets >= 2."""
    if n_sets < 2:
        raise TomographyError(f"n_sets must be >= 2, got {n_sets}")
    return reconstruct_with_mc([counts], ts, target, n_sets, [seed])[1][0]
