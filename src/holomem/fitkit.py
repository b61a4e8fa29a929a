"""Weighted nonlinear least-squares fits of the two decay models:

  efficiency:  y(t) = eta0 * exp(-t / tau)
  visibility:  V(t) = 1 / (a + b * exp(2 t / tau))     (tau held fixed)

Fitting uses Levenberg-Marquardt (Marquardt, SIAM J. Appl. Math. 11, 431
(1963)) with analytic Jacobians; parameter uncertainties come from the local
quadratic model of the weighted residual, and are inf for a parameter that
model cannot identify.  Data are sorted internally so results are
bit-identical under reordering of the input points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_ITERATIONS = 1000
TOL = 1e-12
# Eigenvalues of J^T J scaled to unit diagonal at or below this fraction of
# the largest count as zero: forming J^T J moves each by up to about 3 eps of
# the largest, so a kept one is known to within 7 %.
SINGULAR = 1e-14


class FitError(ValueError):
    """Degenerate or invalid fit input."""


@dataclass
class FitResult:
    params: dict[str, float]
    uncertainties: dict[str, float]
    covariance: np.ndarray = field(repr=False)
    residual_norm: float = 0.0
    converged: bool = True
    # Time where V(t) = 1/sqrt(2); +inf when never crossed.  Only set by
    # fit_visibility.
    t_star_s: float | None = None


def _prepare(data, min_points: int):
    rows = [(float(t), float(y), float(s)) for t, y, s in data]
    for i, row in enumerate(rows, start=1):
        for name, value in zip(("t", "y", "sigma"), row):
            if not math.isfinite(value):
                raise FitError(f"row {i}: {name} must be finite, got {value}")
    arr = np.array(sorted(rows))
    if arr.shape[0] < min_points:
        raise FitError(f"need at least {min_points} points, got {arr.shape[0]}")
    t, y, sigma = arr.T
    if np.any(sigma <= 0.0):
        raise FitError("all sigmas must be positive")
    if np.all(t == t[0]):
        raise FitError("degenerate data: all points share the same abscissa")
    return t, y, sigma


def _covariance(jtj: np.ndarray) -> np.ndarray:
    """(J^T J)^-1 over the eigenvalues of the unit-diagonal scaled J^T J above SINGULAR
    times the largest.  A parameter with a component along a dropped eigenvector is not
    identified: its row and column are inf."""
    scale = np.sqrt(np.diag(jtj))
    scale[scale == 0.0] = 1.0
    lam, vec = np.linalg.eigh(jtj / np.outer(scale, scale))
    kept = lam > SINGULAR * lam[-1]
    w = vec[:, kept] / np.sqrt(lam[kept]) / scale[:, None]
    cov = w @ w.T
    lost = np.sum(vec[:, ~kept] ** 2, axis=1) > SINGULAR
    cov[lost, :] = cov[:, lost] = np.inf
    return cov


def _solve(model, x, names, data, fixed=()):
    """Levenberg-Marquardt fit of model(x) -> (prediction, Jacobian) to data, all weighted
    by 1/sigma, damping each parameter by its J^T J diagonal.  Stops at TOL on the relative
    cost change, on each parameter's relative step, or on each |gradient| / |J column| |data|.
    A non-finite start raises FitError naming it and the (name, value) pairs `fixed`."""
    with np.errstate(all="ignore"):  # a start or a trial step that overflows is handled
        pred, jac = model(x)
        jtj = jac.T @ jac
        if not (np.isfinite(pred).all() and np.isfinite(jtj).all()):
            start = ", ".join(f"{k}={v:g}" for k, v in (*zip(names, x), *fixed))
            raise FitError(f"the model or J^T J of its Jacobian is not finite at the start {start}")
        r = pred - data
        cost, damping, gtol, converged = r @ r, 1e-3, TOL * np.linalg.norm(data), False
        for _ in range(MAX_ITERATIONS):
            grad = jac.T @ r
            if converged or np.all(np.abs(grad) <= gtol * np.sqrt(np.diag(jtj))):
                converged = True
                break
            step = -np.linalg.pinv(jtj + damping * np.diag(np.diag(jtj))) @ grad
            pred, jac_new = model(x + step)
            jtj_new = jac_new.T @ jac_new
            cost_new = (pred - data) @ (pred - data)
            accept = bool(cost_new < cost and np.all(np.isfinite(jtj_new)))
            converged = bool(np.all(np.abs(step) <= TOL * np.abs(x))
                             or accept and cost - cost_new <= TOL * cost)
            if accept:
                x, r, jac, jtj, cost = x + step, pred - data, jac_new, jtj_new, cost_new
            damping *= 0.1 if accept else 10.0
    cov = _covariance(jtj)
    params = dict(zip(names, (float(v) for v in x)))
    sigmas = dict(zip(names, (float(math.sqrt(c)) for c in np.diag(cov))))
    return FitResult(params=params, uncertainties=sigmas, covariance=cov,
                     residual_norm=float(math.sqrt(cost)), converged=converged)


def fit_exponential(data) -> FitResult:
    """Fit y = eta0 exp(-t/tau) to (t, y, sigma) triples.

    Initialization: eta0 from the largest y; tau from a log-linear
    regression over the positive-y points, each weighted by y/sigma, the
    inverse of its log-space sigma (falls back to the time span for flat
    data, where tau is unidentifiable and its uncertainty blows up).
    """
    t, y, sigma = _prepare(data, min_points=3)
    eta0_guess = float(y.max())
    pos = y > 0.0
    tau_guess = float(t.max() - t.min()) or 1.0
    if pos.sum() >= 2 and np.ptp(t[pos]) > 0.0:
        slope = np.polyfit(t[pos], np.log(y[pos]), 1, w=y[pos] / sigma[pos])[0]
        if slope < 0.0:
            tau_guess = -1.0 / slope

    def model(x):
        eta0, tau = x
        e = np.exp(-t / tau) / sigma
        return eta0 * e, np.column_stack((e, eta0 * t * e / tau ** 2))

    return _solve(model, np.array([eta0_guess, tau_guess]), ("eta0", "tau"), y / sigma)


def fit_visibility(data, tau_s: float, float_tau: bool = False) -> FitResult:
    """Fit V = 1/(a + b exp(2t/tau)) to (t, V, sigma) triples.

    tau is taken from the efficiency fit and held fixed (set float_tau to
    fit it jointly).  Also reports t_star, where the curve crosses the
    CHSH-violation threshold 1/sqrt(2).
    """
    if not 0.0 < tau_s < math.inf:
        raise FitError(f"tau must be finite and positive, got {tau_s}")
    t, v, sigma = _prepare(data, min_points=2 if not float_tau else 3)
    if np.any(v <= 0.0):
        raise FitError("visibility values must be positive for this model")
    a_guess = 1.0 / float(v[0])
    b_guess = max((1.0 / float(v[-1]) - a_guess) * math.exp(-2.0 * float(t[-1]) / tau_s), 0.0)

    def model(x):
        a, b = x[:2]
        tau = x[2] if float_tau else tau_s
        e = np.exp(2.0 * t / tau)
        fit = 1.0 / (a + b * e)
        dv = -fit ** 2 / sigma
        cols = [dv, dv * e]
        if float_tau:  # a fixed tau of 1e300 would overflow tau ** 2
            cols.append(-2.0 * b * dv * e * t / tau ** 2)
        return fit / sigma, np.column_stack(cols)

    names = ("a", "b", "tau")[:3 if float_tau else 2]
    result = _solve(model, np.array([a_guess, b_guess, tau_s][:len(names)]), names, v / sigma,
                    fixed=() if float_tau else (("tau", tau_s),))
    result.t_star_s = threshold_crossing(result.params["a"], result.params["b"],
                                         result.params.get("tau", tau_s))
    return result


# A visibility above 1/sqrt(2) lets the CHSH S exceed the classical bound 2.
CHSH_VISIBILITY = 1.0 / math.sqrt(2.0)


def threshold_crossing(a: float, b: float, tau_s: float) -> float:
    """Time where 1/(a + b exp(2t/tau)) = CHSH_VISIBILITY; +inf if never."""
    if b <= 0.0 or 1.0 / CHSH_VISIBILITY <= a:
        return math.inf
    arg = (1.0 / CHSH_VISIBILITY - a) / b
    return max(tau_s / 2.0 * math.log(arg), 0.0)
