"""Weighted nonlinear least-squares fits of the two decay models:

  efficiency:  y(t) = eta0 * exp(-t / tau)
  visibility:  V(t) = 1 / (a + b * exp(2 t / tau))     (tau held fixed)

Fitting uses a damped trust-region least-squares solver with numeric
Jacobians; parameter uncertainties come from the local quadratic model of
the weighted residual.  Data are sorted internally so results are
bit-identical under reordering of the input points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import CHSH_VISIBILITY

MAX_ITERATIONS = 1000


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


def _covariance(jac: np.ndarray) -> np.ndarray:
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj)
    # Symmetrize against roundoff.
    return (cov + cov.T) / 2.0


def _solve(residual, x0, names):
    # Imported here so that only fitting pays scipy's import cost.
    from scipy.optimize import least_squares
    res = least_squares(residual, x0, method="trf",
                        ftol=1e-12, xtol=1e-12, gtol=1e-12,
                        max_nfev=MAX_ITERATIONS * (len(x0) + 1))
    cov = _covariance(res.jac)
    params = dict(zip(names, (float(v) for v in res.x)))
    sigmas = dict(zip(names, (float(math.sqrt(max(c, 0.0))) for c in np.diag(cov))))
    return FitResult(params=params, uncertainties=sigmas, covariance=cov,
                     residual_norm=float(np.linalg.norm(res.fun)),
                     converged=bool(res.status > 0))


def fit_exponential(data) -> FitResult:
    """Fit y = eta0 exp(-t/tau) to (t, y, sigma) triples.

    Initialization: eta0 from the largest y; tau from a log-linear
    regression over the positive-y points (falls back to the time span for
    flat data, where tau is unidentifiable and its uncertainty blows up).
    """
    t, y, sigma = _prepare(data, min_points=3)
    eta0_guess = float(y.max())
    pos = y > 0.0
    tau_guess = float(t.max() - t.min()) or 1.0
    if pos.sum() >= 2 and np.ptp(t[pos]) > 0.0:
        slope = np.polyfit(t[pos], np.log(y[pos]), 1)[0]
        if slope < 0.0:
            tau_guess = -1.0 / slope

    def residual(x):
        eta0, tau = x
        return (eta0 * np.exp(-t / tau) - y) / sigma

    return _solve(residual, np.array([eta0_guess, tau_guess]), ("eta0", "tau"))


def fit_visibility(data, tau_s: float, float_tau: bool = False) -> FitResult:
    """Fit V = 1/(a + b exp(2t/tau)) to (t, V, sigma) triples.

    tau is taken from the efficiency fit and held fixed (set float_tau to
    fit it jointly).  Also reports t_star, where the curve crosses the
    CHSH-violation threshold 1/sqrt(2).
    """
    if not tau_s > 0.0:
        raise FitError(f"tau must be positive, got {tau_s}")
    t, v, sigma = _prepare(data, min_points=2 if not float_tau else 3)
    if np.any(v <= 0.0):
        raise FitError("visibility values must be positive for this model")
    a_guess = 1.0 / float(v[0])
    b_guess = max((1.0 / float(v[-1]) - a_guess) * math.exp(-2.0 * float(t[-1]) / tau_s), 0.0)

    if float_tau:
        def residual(x):
            a, b, tau = x
            return (1.0 / (a + b * np.exp(2.0 * t / tau)) - v) / sigma
        result = _solve(residual, np.array([a_guess, b_guess, tau_s]), ("a", "b", "tau"))
        tau_fit = result.params["tau"]
    else:
        def residual(x):
            a, b = x
            return (1.0 / (a + b * np.exp(2.0 * t / tau_s)) - v) / sigma
        result = _solve(residual, np.array([a_guess, b_guess]), ("a", "b"))
        tau_fit = tau_s

    result.t_star_s = threshold_crossing(result.params["a"], result.params["b"], tau_fit)
    return result


def threshold_crossing(a: float, b: float, tau_s: float) -> float:
    """Time where 1/(a + b exp(2t/tau)) = CHSH_VISIBILITY; +inf if never."""
    if b <= 0.0 or 1.0 / CHSH_VISIBILITY <= a:
        return math.inf
    arg = (1.0 / CHSH_VISIBILITY - a) / b
    return max(tau_s / 2.0 * math.log(arg), 0.0)
