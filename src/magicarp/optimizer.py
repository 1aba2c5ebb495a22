"""Dense BFGS with Armijo backtracking, shared by the shooting and GRAPE drivers.

The engine is deliberately small: the parameter spaces here are tiny (d^2-1
or N*K reals) while each objective call costs a full propagation, so a
quasi-Newton step with a plain backtracking line search wins over
first-order methods on objective-call count. The inverse-Hessian update is
the rank-two form (``bfgs_inverse_update``), O(n^2) per iteration, which
matters for GRAPE's N*K = 512 parameters at QFT(5) over 64 steps.

The loop is the generator ``bfgs_steps``: it yields evaluation requests
and returns the result, and its arithmetic does not depend on who answers.
``minimize_bfgs`` drives one run with plain callables; the shooting
module's lockstep runner drives many runs and answers their requests in
batches, and each run still follows the iterates it would follow alone.

Determinism contract: for fixed inputs the iterate sequence, accepted cost
trace, and stop reason are reproducible bitwise. With batched evaluation
the line search is a lazy ladder of doubling blocks: rung 0 (the full step)
alone, then rung 1 alone, then rungs 2-3, 4-7, 8-15 and 16-29, each block
asked for only if every rung before it failed the Armijo test. Most wide
ladders accept rung 2 or 3, so a rejection costs a few rows, not 28. It
picks the largest step satisfying the Armijo test, which accepts exactly the
same step a sequential backtracking loop would. Without batched evaluation
(GRAPE) the ladder is that sequential loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

import numpy as np

from .propagation import PulseSchedule
from .qudit import AdjointMatrix

ARMIJO_C = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 30
LADDER_EDGES = (0, 1, 2, 4, 8, 16, MAX_BACKTRACKS)  # batched ladder blocks: rungs [0], [1], [2, 3], ... [16, 29]
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
    wall_time: float  # of the whole lockstep group for a shooting restart
    stop_reason: str  # MinimizeResult.stop_reason; in memory only, not in report_to_dict
    # in memory only as well; counted by the shooting runner, 0 for GRAPE
    forward_points: int = 0  # points constructed: single passes plus ladder rows
    backward_passes: int = 0


def _safe_eval(fun: Callable[[np.ndarray], float], x: np.ndarray) -> float:
    try:
        return float(fun(x))
    except ProbeFailure:
        return np.inf


def _finite(value) -> float:
    value = float(value)
    return value if np.isfinite(value) else np.inf


def _first_armijo(alphas, values, f: float, gp: float) -> tuple[float, float] | None:
    """The first (alpha, value) pair of a ladder that passes the Armijo test."""
    for alpha, fj in zip(alphas, values):
        if np.isfinite(fj) and fj <= f + ARMIJO_C * alpha * gp:
            return float(alpha), float(fj)
    return None


def bfgs_inverse_update(h_inv: np.ndarray, s: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The BFGS inverse-Hessian update (1 - rho s y^T) H (1 - rho y s^T) + rho s s^T.

    With rho = 1 / (s.y) and H symmetric it expands to the rank-two form
    H + (rho^2 y.Hy + rho) s s^T - rho (Hy s^T + s (Hy)^T), which costs
    O(n^2) and keeps H exactly symmetric.
    """
    rho = 1.0 / float(s @ y)
    hy = h_inv @ y
    return h_inv + ((rho * rho * float(y @ hy) + rho) * np.outer(s, s) - rho * (np.outer(hy, s) + np.outer(s, hy)))


def bfgs_steps(
    x0: np.ndarray,
    *,
    tol: float,
    max_iters: int,
    stall_tol: float = 1e-12,
    batched: bool = False,
) -> Generator[tuple[str, np.ndarray], object, MinimizeResult]:
    """The BFGS loop as a generator: it yields evaluation requests and returns the result.

    A request is ``("fun", x)``, answered with the objective at x (a probe
    failure as +inf), ``("values", xs)``, answered with the objective at each
    row of a (B, n) stack, or ``("grad", x)``, answered with the gradient.
    The arithmetic is the same whoever answers, so a run's iterates depend
    only on the replies. With ``batched`` the line search asks for ``values``
    block by block (``LADDER_EDGES``: rung 0, rung 1, rungs 2-3, 4-7, 8-15,
    16-29), stopping at the first block with an accepted rung; otherwise it
    asks for ``fun`` rung by rung.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    f = _finite((yield ("fun", x)))
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
            g = np.asarray((yield ("grad", x)), dtype=float)
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
        accepted = None
        if batched:
            for lo, hi in zip(LADDER_EDGES[:-1], LADDER_EDGES[1:]):
                rungs = alphas[lo:hi]
                values = yield ("values", x[None, :] + rungs[:, None] * p[None, :])
                accepted = _first_armijo(rungs, np.asarray(values, dtype=float), f, gp)
                if accepted is not None:
                    break
        else:
            for alpha in alphas:
                accepted = _first_armijo((alpha,), (_finite((yield ("fun", x + alpha * p))),), f, gp)
                if accepted is not None:
                    break
        if accepted is None:
            stop = "line_search"
            break
        alpha, f_new = accepted

        x_new = x + alpha * p
        g_new = np.asarray((yield ("grad", x_new)), dtype=float)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > CURVATURE_FLOOR * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            if first_update:
                h_inv = (sy / float(y @ y)) * np.eye(n)
                first_update = False
            h_inv = bfgs_inverse_update(h_inv, s, y)
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

    Drives one ``bfgs_steps`` run. ``grad`` supplies the gradient (analytic
    or finite-difference, the caller decides). ``batch_fun``, if given,
    evaluates a (B, n) stack of points in one call and is used for the
    line-search ladder.
    """
    steps = bfgs_steps(x0, tol=tol, max_iters=max_iters, stall_tol=stall_tol, batched=batch_fun is not None)
    reply = None
    while True:
        try:
            kind, x = steps.send(reply)
        except StopIteration as done:
            return done.value
        if kind == "fun":
            reply = _safe_eval(fun, x)
        elif kind == "values":
            reply = batch_fun(x)
        else:
            reply = grad(x)
