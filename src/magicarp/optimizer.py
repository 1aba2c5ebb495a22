"""Dense BFGS with Armijo backtracking, shared by the shooting and GRAPE drivers.

The engine is deliberately small: the parameter spaces here are tiny (d^2-1
or N*K reals) while each objective call costs a full propagation, so a
quasi-Newton step with a plain backtracking line search wins over
first-order methods on objective-call count. The inverse-Hessian update is
the rank-two form (``bfgs_inverse_update``), O(n^2) per iteration and in
place: a run owns its inverse Hessian and two scratch blocks of at most
64 rows of n, and no update allocates an n x n array. The update goes over the inverse
Hessian 64 rows at a time, forming each block's rank-two term in the
scratch while those rows are in cache. That matters for GRAPE's N*K = 512
parameters at QFT(5) over 64 steps, whose 2 MB inverse Hessian it passes
over once, instead of also writing and reading two 2 MB outer products.

The loop is the generator ``bfgs_steps``: it yields evaluation requests
and returns the result, and its arithmetic does not depend on who answers.
``minimize_bfgs`` drives one run with plain callables; the shooting
module's lockstep runner drives many runs and answers their requests in
batches, and each run still follows the iterates it would follow alone.

Determinism contract: for fixed inputs the iterate sequence, accepted cost
trace, and stop reason are reproducible bitwise. The line search is one
ladder loop over blocks of Armijo rungs, each block asked for only if every
rung before it failed the test. With batched evaluation the blocks double:
rung 0 (the full step) alone, then rung 1 alone, then rungs 2-3, 4-7, 8-15
and 16-29 (``LADDER_EDGES``). Most wide ladders accept rung 2 or 3, so a
rejection costs a few rows, not 28. Without it (GRAPE) every block is one
rung, which is a sequential backtracking loop. Either way the ladder picks
the largest step that passes the Armijo test, so both accept the same step.
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
UPDATE_BLOCK = 64  # rows of H per block of the inverse-Hessian update


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    trace: list[float]
    iterations: int
    stop_reason: str  # "tol" | "stall" | "max_iters" | "line_search"
    curvature_updates: int  # iterations whose s.y passed the curvature floor


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
    # in memory only as well
    forward_points: int = 0  # points whose forward pass was built, ladder rows included
    backward_passes: int = 0  # gradients contracted
    curvature_updates: int = 0  # MinimizeResult.curvature_updates


def _first_armijo(alphas, values, f: float, gp: float) -> tuple[float, float] | None:
    """The first (alpha, value) pair of a ladder that passes the Armijo test."""
    for alpha, fj in zip(alphas, values):
        if np.isfinite(fj) and fj <= f + ARMIJO_C * alpha * gp:
            return float(alpha), float(fj)
    return None


def bfgs_inverse_update(
    h_inv: np.ndarray, s: np.ndarray, y: np.ndarray, work: tuple[np.ndarray, np.ndarray]
) -> None:
    """The BFGS inverse-Hessian update (1 - rho s y^T) H (1 - rho y s^T) + rho s s^T, in place.

    With rho = 1 / (s.y) and H symmetric it expands to the rank-two form
    H + s w^T + w s^T with w = (rho^2 y.Hy + rho)/2 s - rho Hy, which costs
    O(n^2). It runs over blocks of ``UPDATE_BLOCK`` rows of H, so that each
    block's rank-two term is formed in cache and added while H's rows are
    still there: ``work`` is two scratch blocks of min(n, UPDATE_BLOCK) rows,
    and the update allocates no n x n array. Entry (i, j) of s w^T + w s^T is
    s_i w_j + w_i s_j, each a single rounded product, and entry (j, i) adds
    the same two products in the other order, so the sum is symmetric bit
    for bit and a symmetric H stays exactly symmetric. Each entry of H gains
    the same sum as with whole (n, n) outer products.
    """
    sw, ws = work
    rho = 1.0 / float(s @ y)
    hy = h_inv @ y
    w = (0.5 * (rho * rho * float(y @ hy) + rho)) * s
    w -= rho * hy
    for lo in range(0, s.size, UPDATE_BLOCK):
        hi = min(lo + UPDATE_BLOCK, s.size)
        sw_block, ws_block = sw[: hi - lo], ws[: hi - lo]
        np.einsum("i,j->ij", s[lo:hi], w, out=sw_block)
        np.einsum("i,j->ij", w[lo:hi], s, out=ws_block)
        ws_block += sw_block
        h_inv[lo:hi] += ws_block


def _set_scaled_identity(h: np.ndarray, scale: float) -> None:
    h.fill(0.0)
    np.fill_diagonal(h, scale)


def bfgs_steps(
    x0: np.ndarray,
    *,
    tol: float,
    max_iters: int,
    stall_tol: float = 1e-12,
    batched: bool = False,
) -> Generator[tuple[str, np.ndarray], object, MinimizeResult]:
    """The BFGS loop as a generator: it yields evaluation requests and returns the result.

    A request is ``("values", xs)``, answered with the objective at each row
    of a (B, n) stack (+inf where it is undefined), or ``("grad", x)``,
    answered with the gradient. The initial value is a one-row ``values``
    request. The arithmetic is the same whoever answers, so a run's iterates
    depend only on the replies. The line search asks for its rungs block by
    block, stopping at the first block with an accepted rung: with
    ``batched`` the blocks are ``LADDER_EDGES`` (rung 0, rung 1, rungs 2-3,
    4-7, 8-15, 16-29), otherwise one rung each.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    edges = LADDER_EDGES if batched else range(MAX_BACKTRACKS + 1)
    f = float((yield ("values", x[None, :]))[0])
    if not np.isfinite(f):
        raise ValueError("objective is not finite at the initial point")
    trace = [f]
    h_inv = np.eye(n)
    work = (np.empty((min(n, UPDATE_BLOCK), n)), np.empty((min(n, UPDATE_BLOCK), n)))
    updates = 0
    first_update = True
    g = None
    stop = "max_iters"

    for _ in range(max_iters):
        if f <= tol:
            break
        if g is None:
            g = np.asarray((yield ("grad", x)), dtype=float)
        p = -(h_inv @ g)  # negating the product, not h_inv, which would copy it
        gp = float(g @ p)
        if gp >= 0.0:
            _set_scaled_identity(h_inv, 1.0)
            first_update = True
            p = -g
            gp = float(g @ p)
            if gp >= 0.0:
                stop = "line_search"
                break

        alpha0 = min(1.0, 1.0 / max(1.0, float(np.linalg.norm(g)))) if first_update else 1.0
        alphas = alpha0 * SHRINK ** np.arange(MAX_BACKTRACKS)
        accepted = None
        for lo, hi in zip(edges[:-1], edges[1:]):
            rungs = alphas[lo:hi]
            values = yield ("values", x[None, :] + rungs[:, None] * p[None, :])
            accepted = _first_armijo(rungs, np.asarray(values, dtype=float), f, gp)
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
                _set_scaled_identity(h_inv, sy / float(y @ y))
                first_update = False
            bfgs_inverse_update(h_inv, s, y, work)
            updates += 1
        x, f, g = x_new, f_new, g_new
        trace.append(f)

        if len(trace) > STALL_WINDOW:
            f_then = trace[-STALL_WINDOW - 1]
            if (f_then - f) < stall_tol * max(abs(f_then), 1e-300):
                stop = "stall"
                break

    if f <= tol:
        stop = "tol"
    return MinimizeResult(
        x=x, fun=f, trace=trace, iterations=len(trace) - 1, stop_reason=stop, curvature_updates=updates
    )


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

    Drives one ``bfgs_steps`` run. ``grad`` supplies the exact gradient of
    ``fun``; both drivers pass an analytic one. ``batch_fun``, if given,
    evaluates a (B, n) stack of points in one call and answers every value
    request, batching the line-search ladder; otherwise ``fun`` is called on
    each row in turn.
    """
    steps = bfgs_steps(x0, tol=tol, max_iters=max_iters, stall_tol=stall_tol, batched=batch_fun is not None)
    values = batch_fun if batch_fun is not None else lambda xs: [fun(x) for x in xs]
    reply = None
    while True:
        try:
            kind, x = steps.send(reply)
        except StopIteration as done:
            return done.value
        reply = values(x) if kind == "values" else grad(x)
