"""Dense BFGS with Armijo backtracking, shared by the shooting and GRAPE drivers.

The engine is deliberately small: the parameter spaces here are tiny (d^2-1
or N*K reals) while each objective call costs a full propagation, so a
quasi-Newton step with a plain backtracking line search wins over
first-order methods on objective-call count.

Determinism contract: for fixed inputs the iterate sequence, accepted cost
trace, and stop reason are reproducible bitwise. Given a vectorized
``batch_fun``, the line search is a lazy ladder: it evaluates rung 0 (the
full step) alone, and only if that fails the Armijo test evaluates rungs
1..29 in one batch. It picks the largest step satisfying the Armijo test,
which accepts exactly the same step a sequential backtracking loop would.
Without ``batch_fun`` the ladder is that sequential loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .propagation import PulseSchedule
from .qudit import AdjointMatrix

ARMIJO_C = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 30
STALL_WINDOW = 25
CURVATURE_FLOOR = 1e-12


class ProbeFailure(RuntimeError):
    """Raised by an objective to abort a single line-search probe."""


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    trace: list[float]
    iterations: int
    stop_reason: str  # "tol" | "stall" | "max_iters" | "line_search"


@dataclass
class OptimizationReport:
    """The outcome of one shooting or GRAPE run (``final_g`` is None for GRAPE)."""

    final_g: AdjointMatrix | None
    final_schedule: PulseSchedule
    infidelity: float
    duration: float
    cost_trace: list[float]
    iterations: int
    converged: bool
    seed: int
    wall_time: float
    stop_reason: str  # MinimizeResult.stop_reason; in memory only, not in report_to_dict


def _safe_eval(fun: Callable[[np.ndarray], float], x: np.ndarray) -> float:
    try:
        value = float(fun(x))
    except ProbeFailure:
        return np.inf
    return value if np.isfinite(value) else np.inf


def _first_armijo(alphas, values, f: float, gp: float) -> tuple[float, float] | None:
    """The first (alpha, value) pair of a ladder that passes the Armijo test.

    ``values`` may be a generator: it is consumed only up to the accepted rung.
    """
    for alpha, fj in zip(alphas, values):
        if np.isfinite(fj) and fj <= f + ARMIJO_C * alpha * gp:
            return float(alpha), float(fj)
    return None


def minimize_bfgs(
    fun: Callable[[np.ndarray], float],
    grad: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    tol: float,
    max_iters: int,
    stall_tol: float = 1e-12,
    batch_fun: Callable[[np.ndarray], np.ndarray] | None = None,
) -> MinimizeResult:
    """Minimize ``fun`` from ``x0``; stop at ``fun <= tol``, stall, or budget.

    ``grad`` supplies the gradient (analytic or finite-difference, the
    caller decides). ``batch_fun``, if given, evaluates a (B, n) stack of
    points in one call and is used for the line-search ladder: once with
    rung 0 alone, then with the other rungs if rung 0 is rejected.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    f = _safe_eval(fun, x)
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the initial point")
    trace = [f]
    h_inv = np.eye(n)
    first_update = True
    g = None
    stop = "max_iters"

    for _ in range(max_iters):
        if f <= tol:
            break
        if g is None:
            g = np.asarray(grad(x), dtype=float)
        p = -h_inv @ g
        gp = float(g @ p)
        if gp >= 0.0:
            h_inv = np.eye(n)
            first_update = True
            p = -g
            gp = float(g @ p)
            if gp >= 0.0:
                stop = "line_search"
                break

        alpha0 = min(1.0, 1.0 / max(1.0, float(np.linalg.norm(g)))) if first_update else 1.0
        alphas = alpha0 * SHRINK ** np.arange(MAX_BACKTRACKS)
        if batch_fun is None:
            accepted = _first_armijo(alphas, (_safe_eval(fun, x + a * p) for a in alphas), f, gp)
        else:
            # rung 0 alone; the rest of the ladder in one batch only if it fails
            for rungs in (alphas[:1], alphas[1:]):
                values = batch_fun(x[None, :] + rungs[:, None] * p[None, :])
                accepted = _first_armijo(rungs, np.asarray(values, dtype=float), f, gp)
                if accepted is not None:
                    break
        if accepted is None:
            stop = "line_search"
            break
        alpha, f_new = accepted

        x_new = x + alpha * p
        g_new = np.asarray(grad(x_new), dtype=float)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > CURVATURE_FLOOR * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            if first_update:
                h_inv = (sy / float(y @ y)) * np.eye(n)
                first_update = False
            rho = 1.0 / sy
            v = np.eye(n) - rho * np.outer(s, y)
            h_inv = v @ h_inv @ v.T + rho * np.outer(s, s)
        x, f, g = x_new, f_new, g_new
        trace.append(f)

        if len(trace) > STALL_WINDOW:
            f_then = trace[-STALL_WINDOW - 1]
            if (f_then - f) < stall_tol * max(abs(f_then), 1e-300):
                stop = "stall"
                break

    if f <= tol:
        stop = "tol"
    return MinimizeResult(x=x, fun=f, trace=trace, iterations=len(trace) - 1, stop_reason=stop)
