"""BFGS with Armijo backtracking, shared by the shooting and GRAPE drivers.

The engine is deliberately small: the parameter spaces here are tiny (d^2-1
or N*K reals) while each objective call costs a full propagation, so a
quasi-Newton step with a plain backtracking line search wins over
first-order methods on objective-call count. The inverse Hessian
(``InverseHessian``) is the compact form of Byrd, Nocedal and Schnabel
(Math. Program. 63, 129 (1994)), B + S^T W + W^T S: an update stores a row
of S and of W, and a full store is folded into B. The store holds one pair
up to ``DENSE_LIMIT`` = 64 parameters, shooting up to d = 8 among them, so
H there is dense after every update. Above 64, GRAPE's N*K amplitudes, it
holds n/4 pairs, and a product with H costs O(nk) for k stored pairs: at
QFT(5) over 64 steps, 512 parameters, a run reaches the gate before its
first fold and never passes over a 2 MB matrix.

Before a run's first curvature pair, its first step is |g| long at most,
the scale of the identity it starts from. GRAPE's amplitudes start far
from a gate on a landscape that is concave there, so those steps are short
and s.y < 0 leaves H as it was, step after step. With ``learn_step`` the
line search then starts at twice the step it last accepted, until the
first curvature pair (de Fouquieres, Schirmer, Glaser and Kuprov,
J. Magn. Reson. 212, 412 (2011), take quasi-Newton steps from the start).
Shooting keeps the plain rule: the learnt step gave its runs no gain.

The loop is the generator ``bfgs_steps``: it yields evaluation requests,
each at one point, and returns the result, and its arithmetic does not
depend on who answers. It has one driver, ``run_lockstep``, which runs
several generators in lockstep from two callables: a forward pass over a
list of points and a backward pass over rows of earlier forward passes. It
holds the pass of each run's last valued point, so the gradient at an
accepted rung and the final report build no second pass, counts the points
and gradients each run costs, and keeps a numerical failure to the run that
raised it. Shooting supplies batched passes (``shooting.run_restarts``),
GRAPE per-point passes (``grape.grape_optimize``); both report through
``LockstepRun.report``.

Determinism contract: for fixed inputs the iterate sequence, accepted cost
trace, and stop reason are reproducible bitwise. The line search is
sequential Armijo backtracking (Nocedal and Wright, Numerical Optimization,
Alg. 3.1): rung j tries x + alpha0 SHRINK^j p, and the first rung that
passes the Armijo test is accepted. A rung whose x + alpha p rounds to x is
never asked for: its value is f, and every smaller step leaves x unchanged
too, so the run ends on ``resolution``; after ``MAX_BACKTRACKS`` failed
rungs it ends on ``line_search``.
"""

from __future__ import annotations

import math
import time
from dataclasses import InitVar, dataclass
from typing import Callable, ClassVar, Generator, Sequence

import numpy as np

from .propagation import PulseSchedule
from .qudit import AdjointMatrix

ARMIJO_C = 1e-4
SHRINK = 0.5
MAX_BACKTRACKS = 30
STALL_WINDOW = 25
STALL_TOL = 1e-12  # a run stalls when STALL_WINDOW iterations gain less than this share of f
CURVATURE_FLOOR = 1e-12
# the largest parameter count whose store holds a single pair, so that its H is
# dense after every update; above it the store holds n // 4 pairs
DENSE_LIMIT = 64


class NonFiniteStartError(ValueError):
    """The objective is not finite at a run's initial point."""


# the numerical failures that end one run and leave its peers going; others propagate
RUN_FAILURES = (np.linalg.LinAlgError, RuntimeError, NonFiniteStartError)


def _finite_array(values) -> bool:
    """Whether ``values`` is a non-empty array of finite numbers (ragged rows are not an array)."""
    try:
        values = np.asarray(values, dtype=float)
    except ValueError:
        return False
    return values.size > 0 and bool(np.all(np.isfinite(values)))


@dataclass(frozen=True)
class RunConfig:
    """The run settings both optimizers share, their checks, and the start rule: a
    run starts from the field a subclass names in ``START`` if it is given, else
    from ``init_sigma`` times standard normal draws seeded by ``seed``."""

    START: ClassVar[str]  # the name of the subclass's explicit-start field
    n_steps: int
    max_iters: int
    convergence_tol: float = 1e-7
    init_sigma: float = 1.0
    seed: int = 0
    # the start switch of earlier releases, "random_normal" or "explicit", accepted if it
    # agrees with the START field; unsubscripted, as 3.10's get_type_hints rejects InitVar[...]
    init: InitVar = None

    def _checks(self) -> tuple:
        """The subclass's own (field, ok, expected) checks, made first."""
        return ()

    def __post_init__(self, init: str | None) -> None:
        start = getattr(self, self.START)
        for name, ok, expected in (
            *self._checks(),
            ("n_steps", self.n_steps >= 1, "an integer >= 1"),
            ("max_iters", self.max_iters >= 1, "an integer >= 1"),
            ("convergence_tol", 0 < self.convergence_tol < np.inf, "a positive finite number"),
            ("init_sigma", 0 < self.init_sigma < np.inf, "a positive finite number"),
            (self.START, start is None or _finite_array(start), "a non-empty array of finite numbers"),
            ("seed", 0 <= self.seed < 2**64, "a 64-bit unsigned integer"),
        ):
            if not ok:
                raise ValueError(f"{name}: expected {expected}, got {getattr(self, name)!r}")
        rule = "random_normal" if start is None else "explicit"
        if init not in (None, rule):
            raise ValueError(f"init: expected {rule}, which {self.START} implies, got {init!r}")

    def check_start(self, shape: tuple[int, ...]) -> None:
        """Raise a ValueError naming the explicit start if it is given and its shape is not ``shape``."""
        given = getattr(self, self.START)
        if given is not None and np.shape(given) != shape:
            raise ValueError(f"{self.START}: expected shape {shape}, got shape {np.shape(given)}")

    def start(self, shape: tuple[int, ...]) -> np.ndarray:
        """A run's initial point of ``shape``: the explicit start if it is given,
        else ``init_sigma`` times standard normal draws from ``default_rng(seed)``."""
        self.check_start(shape)
        if getattr(self, self.START) is None:
            return self.init_sigma * np.random.default_rng(self.seed).standard_normal(shape)
        return np.asarray(getattr(self, self.START), dtype=float)


@dataclass
class MinimizeResult:
    x: np.ndarray
    fun: float
    trace: list[float]
    iterations: int
    stop_reason: str  # "tol" | "stall" | "max_iters" | "line_search" | "resolution"
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
    wall_time: float  # of run_lockstep's whole call: the lockstep group's for a shooting restart
    stop_reason: str  # MinimizeResult.stop_reason; in memory only, not in report_to_dict
    # in memory only as well
    forward_points: int = 0  # points whose forward pass was built, one per valued point or rebuilt report
    backward_passes: int = 0  # gradients contracted
    curvature_updates: int = 0  # MinimizeResult.curvature_updates
    # seconds of the runner's rounds the run took part in, of its whole lockstep
    # group as wall_time is: in forward passes, in backward passes, and the rest
    # (BFGS arithmetic and the runner itself)
    forward_s: float = 0.0
    backward_s: float = 0.0
    bookkeeping_s: float = 0.0


def _rank_two_term(s: np.ndarray, y: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """w of the BFGS inverse update (1 - rho s y^T) H (1 - rho y s^T) + rho s s^T,
    rho = 1 / (s.y), which for a symmetric H is H + s w^T + w s^T with
    w = (rho^2 y.Hy + rho)/2 s - rho Hy."""
    rho = 1.0 / float(s @ y)
    w = (0.5 * (rho * rho * float(y @ hy) + rho)) * s
    w -= rho * hy
    return w


class InverseHessian:
    """A BFGS run's inverse Hessian over n parameters, H = B + S^T W + W^T S.

    Row i of the store S, W holds the i-th stored update's step s and its
    rank-two term w (``_rank_two_term``), so ``H @ v`` is B's product plus
    four thin ones. B is gamma I, held as the scalar, until the store first
    fills. A full store is folded into B as B += A + A^T with A = S^T W,
    from gamma I on the first fold, and empties; a + b equals b + a bit for
    bit, so B is exactly symmetric. The store holds one pair up to
    ``DENSE_LIMIT`` parameters and n // 4 above.
    """

    def __init__(self, n: int):
        rows = 1 if n <= DENSE_LIMIT else n // 4
        self.s, self.w = np.empty((rows, n)), np.empty((rows, n))
        self.reset(1.0)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        hv = self.gamma * v if self.dense is None else self.dense @ v
        if self.k:
            s, w = self.s[: self.k], self.w[: self.k]
            hv = hv + s.T @ (w @ v) + w.T @ (s @ v)
        return hv

    def reset(self, gamma: float) -> None:
        """H = gamma I."""
        self.gamma, self.dense, self.k = gamma, None, 0

    def update(self, s: np.ndarray, y: np.ndarray) -> None:
        """The BFGS update of H by the step s and gradient change y, s.y > 0."""
        self.s[self.k], self.w[self.k] = s, _rank_two_term(s, y, self @ y)
        self.k += 1
        if self.k == len(self.s):
            a = self.s.T @ self.w
            a = a + a.T
            if self.dense is None:
                a.flat[:: len(a) + 1] += self.gamma
                self.dense = a
            else:
                self.dense += a
            self.k = 0


def bfgs_steps(
    x0: np.ndarray,
    *,
    tol: float,
    max_iters: int,
    learn_step: bool = False,
) -> Generator[tuple[str, np.ndarray], object, MinimizeResult]:
    """The BFGS loop as a generator: it yields evaluation requests and returns the result.

    A request is ``("value", x)``, answered with the objective at x (+inf
    where it is undefined), or ``("grad", x)``, answered with the gradient.
    The arithmetic is the same whoever answers, so a run's iterates depend
    only on the replies. The line search asks for one rung at a time,
    x + alpha0 SHRINK^j p for j = 0, 1, ..., until one passes the Armijo
    test; the gradient request that follows is at that rung's point. A rung
    equal to x is not asked for and ends the run on ``resolution``, and
    ``MAX_BACKTRACKS`` failed rungs end it on ``line_search``.

    Until the first curvature pair the line search starts at
    1/max(1, |g|) times the step scale, 1 at first. With ``learn_step`` an
    accepted step that fails the curvature test sets the scale so that the
    next search starts at twice that step; the first curvature pair sets it
    back to 1.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    f = float((yield ("value", x)))
    if not np.isfinite(f):
        raise NonFiniteStartError("objective is not finite at the initial point")
    trace = [f]
    h_inv = InverseHessian(n)
    updates = 0
    first_update = True
    scale = 1.0
    g = None
    stop = "max_iters"

    for _ in range(max_iters):
        if f <= tol:
            break
        if g is None:
            g = np.asarray((yield ("grad", x)), dtype=float)
        p = -(h_inv @ g)
        gp = float(g @ p)
        if gp >= 0.0:
            h_inv.reset(1.0)
            first_update = True
            p = -g
            gp = float(g @ p)
            if gp >= 0.0:
                stop = "line_search"
                break

        alpha0 = scale * (1.0 / max(1.0, math.sqrt(g @ g))) if first_update else 1.0
        for j in range(MAX_BACKTRACKS):
            alpha = alpha0 * SHRINK**j
            x_new = x + alpha * p
            # rounding is monotone, so once a rung leaves x unchanged every smaller one does too
            if (x_new == x).all():
                stop = "resolution"
                break
            f_new = float((yield ("value", x_new)))
            if np.isfinite(f_new) and f_new <= f + ARMIJO_C * alpha * gp:
                break
        else:
            stop = "line_search"
        if stop != "max_iters":  # the search accepted no rung
            break

        g_new = np.asarray((yield ("grad", x_new)), dtype=float)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > CURVATURE_FLOOR * math.sqrt(s @ s) * math.sqrt(y @ y):
            if first_update:
                h_inv.reset(sy / float(y @ y))
                first_update, scale = False, 1.0
            h_inv.update(s, y)
            updates += 1
        elif learn_step and first_update:
            scale *= 2.0 * alpha / alpha0
        x, f, g = x_new, f_new, g_new
        trace.append(f)

        if len(trace) > STALL_WINDOW:
            f_then = trace[-STALL_WINDOW - 1]
            if (f_then - f) < STALL_TOL * max(abs(f_then), 1e-300):
                stop = "stall"
                break

    if f <= tol:
        stop = "tol"
    return MinimizeResult(
        x=x, fun=f, trace=trace, iterations=len(trace) - 1, stop_reason=stop, curvature_updates=updates
    )


class LockstepRun:
    """One BFGS run of ``run_lockstep``.

    It keeps its generator and the ``tol`` it stops on, its pending
    ``request`` and the bytes ``point_key`` of that request's point; the pass
    ``held`` (value, tape and row) of the last point it valued and the bytes
    ``key`` of that point; its counts, phase seconds and ``wall_time``; and
    how it ended, ``result`` or the ``error`` it raised.
    """

    def __init__(self, x0: np.ndarray, *, tol: float, max_iters: int, learn_step: bool):
        self.steps = bfgs_steps(x0, tol=tol, max_iters=max_iters, learn_step=learn_step)
        self.tol = tol
        self.key = self.held = self.result = self.error = None
        self.forward_points = 0  # points whose forward pass was built
        self.backward_passes = 0
        self.forward_s = self.backward_s = self.bookkeeping_s = self.wall_time = 0.0
        self.reply(None)

    def reply(self, value) -> None:
        """Answer the pending request; a finished run asks for its report pulse."""
        try:
            self.request = self.steps.send(value)
        except StopIteration as done:
            self.result = done.value
            self.request = ("pulse", self.result.x)
        except RUN_FAILURES as exc:
            self.fail(exc)
            return
        self.point_key = self.request[1].tobytes()

    def fail(self, exc: Exception) -> None:
        self.error, self.request, self.held = exc, None, None

    def report(
        self, schedule: PulseSchedule, infidelity: float, omega_max: float, *, final_g: AdjointMatrix | None, seed: int
    ) -> OptimizationReport:
        """The finished run's report on its final pulse ``schedule`` of that ``infidelity``:
        its duration at ``omega_max``, and converged if the infidelity reached the run's ``tol``."""
        result = self.result
        return OptimizationReport(
            final_g=final_g,
            final_schedule=schedule,
            infidelity=infidelity,
            duration=schedule.duration(omega_max),
            cost_trace=result.trace,
            iterations=result.iterations,
            converged=infidelity <= self.tol,
            seed=seed,
            wall_time=self.wall_time,
            stop_reason=result.stop_reason,
            forward_points=self.forward_points,
            backward_passes=self.backward_passes,
            curvature_updates=result.curvature_updates,
            forward_s=self.forward_s,
            backward_s=self.backward_s,
            bookkeeping_s=self.bookkeeping_s,
        )


def _serve(runs: list[LockstepRun], evaluate, deliver) -> None:
    """``deliver(run, out)`` for each run and its share of ``evaluate(runs)``.

    If the batch raises one of ``RUN_FAILURES``, each run is evaluated
    alone, so that only a run that fails on its own gets the error.
    """
    if not runs:
        return
    try:
        outs = evaluate(runs)
    except RUN_FAILURES as exc:
        if len(runs) == 1:
            runs[0].fail(exc)
            return
        for run in runs:
            _serve([run], evaluate, deliver)
        return
    for run, out in zip(runs, outs):
        deliver(run, out)


def run_lockstep(
    x0s: Sequence[np.ndarray],
    forward: Callable[[list[np.ndarray]], tuple[Sequence[float], object]],
    backward: Callable[[list[tuple[object, int]]], Sequence[np.ndarray]],
    *,
    tol: float,
    max_iters: int,
    learn_step: bool = False,
) -> list[LockstepRun | Exception]:
    """Independent ``bfgs_steps`` runs from the given points, in lockstep.

    ``forward(points)`` takes a list of points and gives their objective
    values (+inf where undefined) and a tape, whose row i is point i's pass;
    ``backward([(tape, row), ...])`` gives the gradient at each of those
    passes' points. Each round answers the runs' requests in two phases:
    (A) one forward pass over every requested point whose pass is not held
    (the initial value, each rung, a gradient point whose pass is not held,
    the final point), whose passes the runs hold, after which the value
    requests are answered; (B) one backward pass over every gradient whose
    forward pass is held. So the gradient at an accepted rung, whatever its
    depth, costs only its backward pass. Where the callables compute each
    row as they would alone, every run follows the iterates of its lone run.
    ``learn_step`` goes to every run's ``bfgs_steps``. Each run adds the
    seconds of every round it takes part in to its ``forward_s`` (inside
    ``forward``), ``backward_s`` (inside ``backward``) and ``bookkeeping_s``
    (the rest of the round), and the seconds of the whole call to its ``wall_time``.

    Returns one finished run per point, in order, holding the pass of its
    final point, or the ``RUN_FAILURES`` error (a ``LinAlgError``, ``RuntimeError``
    or ``NonFiniteStartError``) that ended that run; other errors propagate.
    """
    t0 = time.perf_counter()
    runs = [LockstepRun(x0, tol=tol, max_iters=max_iters, learn_step=learn_step) for x0 in x0s]
    spent = [0.0, 0.0]  # the round's seconds inside forward and inside backward

    def timed(phase, evaluate, args):
        t0 = time.perf_counter()
        try:
            return evaluate(args)
        finally:
            spent[phase] += time.perf_counter() - t0

    def hold_passes(group):
        values, tape = timed(0, forward, [run.request[1] for run in group])
        return [(value, tape, row) for row, value in enumerate(values)]

    def hold(run, held):
        run.key, run.held = run.point_key, held
        run.forward_points += 1

    def gradients(group):
        return timed(1, backward, [run.held[1:] for run in group])

    def answer_gradient(run, grad):
        run.backward_passes += 1
        run.reply(grad)

    while live := [run for run in runs if run.request is not None]:
        spent[:] = 0.0, 0.0
        start = time.perf_counter()
        # (A) forward passes at the points not held; then answer the value requests
        _serve([run for run in live if run.point_key != run.key], hold_passes, hold)
        for run in live:
            kind = run.request[0] if run.request else None
            if kind == "value":
                run.reply(run.held[0])
            elif kind == "pulse":
                run.request = None
        # (B) gradients at held points
        _serve(
            [run for run in live if run.request and run.request[0] == "grad" and run.point_key == run.key],
            gradients,
            answer_gradient,
        )
        rest = time.perf_counter() - start - spent[0] - spent[1]
        for run in live:
            run.forward_s += spent[0]
            run.backward_s += spent[1]
            run.bookkeeping_s += rest
    wall = time.perf_counter() - t0
    for run in runs:
        run.wall_time = wall
    return [run.error if run.error is not None else run for run in runs]
