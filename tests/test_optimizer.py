import time
import tracemalloc

import numpy as np
import pytest

from magicarp import grape, optimizer, shooting
from magicarp.grape import GrapeConfig, grape_optimize
from magicarp.optimizer import DENSE_LIMIT, InverseHessian, bfgs_steps, run_lockstep
from magicarp.qudit import nearest_neighbor_control_set, target_gate
from magicarp.shooting import MagicarpConfig, ShootingContext, optimize, report_to_dict, run_restarts

from conftest import same_bits, spy_on_requests


def quadratic(center):
    def fun(x):
        return float(np.sum((x - center) ** 2))

    def grad(x):
        return 2.0 * (x - center)

    return fun, grad


def rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2)


def rosenbrock_grad(x):
    return np.array(
        [
            -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
            200 * (x[1] - x[0] ** 2),
        ]
    )


def lone_run(fun, grad, x0, *, log=None, **options):
    """One ``run_lockstep`` run on the per-point callables ``fun`` and ``grad``;
    its result. ``log`` gets ("forward", points) for each forward call."""
    log = [] if log is None else log

    def forward(points):
        log.append(("forward", len(points)))
        return [fun(x) for x in points], points

    def backward(held):
        return [grad(tape[row]) for tape, row in held]

    outcome = run_lockstep([x0], forward, backward, **options)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome.result


class TestRunLockstep:
    def test_quadratic_converges(self):
        fun, grad = quadratic(np.array([1.0, -2.0, 3.0]))
        res = lone_run(fun, grad, np.zeros(3), tol=1e-12, max_iters=100)
        assert res.stop_reason == "tol"
        assert res.fun <= 1e-12
        assert np.allclose(res.x, [1.0, -2.0, 3.0], atol=1e-6)
        # s.y = 2 |s|^2 > 0: every accepted step updates the curvature
        assert res.curvature_updates == res.iterations >= 1

    def test_rosenbrock_converges(self):
        res = lone_run(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]), tol=1e-14, max_iters=300)
        assert res.fun <= 1e-12
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)

    def test_trace_non_increasing(self):
        res = lone_run(rosenbrock, rosenbrock_grad, np.array([2.0, -1.0]), tol=1e-14, max_iters=200)
        diffs = np.diff(res.trace)
        assert np.all(diffs <= 0)

    def test_max_iters_stop(self):
        fun, grad = quadratic(np.array([10.0]))
        res = lone_run(fun, grad, np.zeros(1), tol=0.0, max_iters=1)
        assert res.stop_reason == "max_iters"
        assert res.iterations == 1

    def test_stall_stop(self):
        # objective floor at 1 can never reach tol=0: stalls once converged
        def fun(x):
            return float(np.sum(x**2)) + 1.0

        def grad(x):
            return 2.0 * x

        res = lone_run(fun, grad, np.ones(2), tol=0.0, max_iters=10_000)
        assert res.stop_reason in ("stall", "line_search")
        assert res.fun == pytest.approx(1.0, abs=1e-10)

    def test_initial_point_must_be_finite(self):
        (outcome,) = run_lockstep([np.zeros(2)], lambda xs: ([np.inf] * len(xs), None), None, tol=1e-8, max_iters=10)
        assert isinstance(outcome, ValueError)
        assert "not finite at the initial point" in str(outcome)

    def test_probe_failure_aborts_probe_not_run(self):
        # objective undefined (+inf) on a half-space: line search backs off
        center = np.array([0.5, 0.5])

        def fun(x):
            if np.any(x > 1.0):
                return np.inf
            return float(np.sum((x - center) ** 2))

        def grad(x):
            return 2.0 * (x - center)

        res = lone_run(fun, grad, np.array([-3.0, -3.0]), tol=1e-12, max_iters=100)
        assert res.fun <= 1e-12

    @pytest.mark.parametrize("first", [0, 1, 2, 3, 5, 9, 16, 29])
    def test_accepts_the_first_passing_rung_of_a_sequential_search(self, first):
        # f(x) = -x + x^2 / delta from x = 0 along p = 1, with delta = 1.5 2^-first:
        # the Armijo test passes for steps up to about delta, so a backtracking
        # loop that tries rung 0, 1, 2, ... in turn stops at rung ``first``
        delta = 1.5 * 2.0**-first

        def fun(x):
            return float(-x[0] + x[0] ** 2 / delta)

        sequential = next(j for j in range(30) if fun([2.0**-j]) <= fun([0.0]) - optimizer.ARMIJO_C * 2.0**-j)
        assert sequential == first
        log = []
        res = lone_run(
            fun, lambda x: np.array([-1.0 + 2.0 * x[0] / delta]), np.zeros(1), tol=-1.0, max_iters=1, log=log
        )
        assert res.x[0] == 2.0**-first
        assert res.trace == [0.0, fun([2.0**-first])]
        # one pass for the initial value and one per rung, each of one point; the
        # gradient at the accepted rung and the report reuse its pass
        assert log == [("forward", 1)] * (first + 2)

    def test_every_rung_failing_stops_on_line_search(self):
        # a gradient of the wrong sign: every rung climbs, and the run stops
        def fun(x):
            return float(np.sum(x**2))

        log = []
        res = lone_run(fun, lambda x: -2.0 * x, np.ones(2), tol=0.0, max_iters=5, log=log)
        assert (res.stop_reason, res.iterations) == ("line_search", 0)
        # the initial value, one pass per rung, then the final point's pass again for the report
        assert log == [("forward", 1)] * (1 + optimizer.MAX_BACKTRACKS + 1)

    def test_deterministic(self):
        runs = [
            lone_run(rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]), tol=1e-14, max_iters=150) for _ in range(2)
        ]
        assert runs[0].trace == runs[1].trace
        assert np.array_equal(runs[0].x, runs[1].x)

    def test_failing_run_fails_alone(self):
        # a pass over a point with x_0 > 0.2 and x_1 > 2 raises: run 1 reaches one
        # at its first rung 0, in a batch with run 0, which goes on as if alone
        fun, grad = quadratic(np.array([1.0, 1.0]))

        def forward(points):
            if any(x[0] > 0.2 and x[1] > 2.0 for x in points):
                raise np.linalg.LinAlgError("poisoned point")
            return [fun(x) for x in points], points

        def backward(held):
            return [grad(tape[row]) for tape, row in held]

        x0s = [np.array([-3.0, 0.0]), np.array([0.0, 3.0])]
        options = dict(tol=1e-14, max_iters=50)
        outcomes = run_lockstep(x0s, forward, backward, **options)
        assert isinstance(outcomes[1], np.linalg.LinAlgError) and str(outcomes[1]) == "poisoned point"
        (alone,) = run_lockstep(x0s[:1], forward, backward, **options)
        assert outcomes[0].result.trace == alone.result.trace
        assert same_bits(outcomes[0].result.x, alone.result.x)
        assert (outcomes[0].forward_points, outcomes[0].backward_passes) == (alone.forward_points, alone.backward_passes)

    def test_phase_seconds_land_in_their_phase(self):
        # a forward pass that sleeps 5 ms, against a backward pass and BFGS
        # arithmetic on two parameters that take microseconds
        fun, grad = quadratic(np.array([1.0, -2.0]))

        def forward(points):
            time.sleep(0.005)
            return [fun(x) for x in points], points

        def backward(held):
            return [grad(tape[row]) for tape, row in held]

        (run,) = run_lockstep([np.zeros(2)], forward, backward, tol=1e-12, max_iters=50)
        assert run.result.stop_reason == "tol" and run.forward_points >= 3
        assert run.forward_s >= 0.005 * run.forward_points
        assert 0.0 < run.backward_s + run.bookkeeping_s < run.forward_s

    def test_phase_seconds_stay_in_memory(self):
        # a GRAPE run and a lockstep group of two shooting restarts: each run's
        # phases are seconds of its group's rounds, and no file sees them
        ctx = ShootingContext(
            controls=nearest_neighbor_control_set(3),
            target=target_gate("qft", 3),
            config=MagicarpConfig(n_steps=16, max_iters=40),
        )
        reports = run_restarts(ctx, [0, 1]) + [
            grape_optimize(target_gate("qft", 3), nearest_neighbor_control_set(3), GrapeConfig(n_steps=16, seed=1))
        ]
        assert reports[0].wall_time == reports[1].wall_time
        for report in reports:
            phases = (report.forward_s, report.backward_s, report.bookkeeping_s)
            assert min(phases) > 0.0
            assert sum(phases) <= report.wall_time
            assert not {"forward_s", "backward_s", "bookkeeping_s"} & set(report_to_dict(report))

    # numpy raises a plain ValueError for a shape or broadcast error, which is a bug too
    @pytest.mark.parametrize(
        "error",
        [TypeError("a bug, not a numerical failure"), ValueError("operands could not be broadcast together")],
        ids=["TypeError", "ValueError"],
    )
    def test_programming_error_propagates(self, error):
        def forward(points):
            raise error

        with pytest.raises(type(error)) as raised:
            run_lockstep([np.zeros(2), np.ones(2)], forward, None, tol=1e-8, max_iters=10)
        assert raised.value is error


class TestReport:
    """The report the runner builds for either driver, at a drive bound other than 1."""

    @staticmethod
    def run(method, omega_max, max_iters):
        controls, target = nearest_neighbor_control_set(3, omega_max), target_gate("qft", 3)
        if method == "shooting":
            return optimize(ShootingContext(controls, target, MagicarpConfig(n_steps=16, max_iters=max_iters, seed=3)))
        return grape_optimize(target, controls, GrapeConfig(n_steps=16, max_iters=max_iters, seed=3))

    @pytest.mark.parametrize("method", ["shooting", "grape"])
    @pytest.mark.parametrize("max_iters, stop", [(200, "tol"), (3, "max_iters")])
    def test_duration_and_convergence(self, method, max_iters, stop):
        unit, fast = (self.run(method, omega_max, max_iters) for omega_max in (1.0, 2.5))
        assert same_bits(fast.final_schedule.amplitudes, unit.final_schedule.amplitudes)
        assert (fast.infidelity, fast.iterations) == (unit.infidelity, unit.iterations)
        assert fast.duration == fast.final_schedule.duration(2.5)
        assert fast.duration < unit.duration == unit.final_schedule.duration(1.0)
        for report in (unit, fast):
            assert report.stop_reason == stop
            assert report.converged == (report.infidelity <= 1e-7) == (stop == "tol")


def drive_at_fixed_point(x0, f0, g0):
    """Run ``bfgs_steps`` with a constant objective f0 and gradient g0, whatever
    the point; log every request as (kind, bytes of its point)."""
    steps = bfgs_steps(x0, tol=-1.0, max_iters=100)
    log, reply = [], None
    while True:
        try:
            kind, x = steps.send(reply)
        except StopIteration as done:
            return done.value, log
        log.append((kind, x.tobytes()))
        reply = g0.copy() if kind == "grad" else f0


class TestLineSearchBelowResolution:
    # |alpha p| <= 2.2e-20 on x = (1, -2): every rung's x + alpha p is x bitwise
    X0 = np.array([1.0, -2.0])
    G0 = np.array([1e-20, 2e-20])

    def test_armijo_product_rounds_away_yet_no_rung_is_asked_for(self):
        # f + c alpha g.p rounds to f = 1, so a row equal to x would pass at
        # rung 0 with f unchanged, iteration after iteration; no such rung is asked for
        res, log = drive_at_fixed_point(self.X0, 1.0, self.G0)
        assert log == [("value", self.X0.tobytes()), ("grad", self.X0.tobytes())]
        assert (res.stop_reason, res.iterations, res.curvature_updates) == ("resolution", 0, 0)
        assert res.trace == [1.0] and res.x.tobytes() == self.X0.tobytes()

    def test_armijo_product_kept_yet_no_rung_is_asked_for(self):
        # at f = 0 the bound c alpha g.p < 0 survives, and every row equal to x
        # would fail; none is asked for
        res, log = drive_at_fixed_point(self.X0, 0.0, self.G0)
        assert log == [("value", self.X0.tobytes()), ("grad", self.X0.tobytes())]
        assert (res.stop_reason, res.iterations, res.trace) == ("resolution", 0, [0.0])

    def test_rungs_that_move_x_are_asked_for(self):
        # x = 1 along p = -2^-40 with f and g constant: rung j gives
        # 1 - 2^-(40+j), which moves x while it is at least the spacing 2^-53
        # below 1, that is for j <= 13 (j = 14 is a tie that rounds to 1). Every
        # rung fails the Armijo test, so the search asks for rungs 0-13, one at
        # a time, then stops before rung 14
        x0, g0 = np.array([1.0]), np.array([2.0**-40])
        res, log = drive_at_fixed_point(x0, 0.0, g0)
        rows = x0[None, :] + (2.0 ** -np.arange(14))[:, None] * -g0[None, :]
        assert log == [("value", x0.tobytes()), ("grad", x0.tobytes())] + [("value", row.tobytes()) for row in rows]
        assert (res.stop_reason, res.iterations) == ("resolution", 0)


def rungs_moving_x(runs):
    """For each rung a run asked for, whether its point differs from the run's
    x, the point of its last gradient request."""
    differs = []
    for requests in runs:
        x = None
        for kind, point in requests:
            if kind == "grad":
                x = point
            elif kind == "value" and x is not None:
                differs.append(bool(np.any(point != x)))
    return differs


class TestEveryRowMovesX:
    def test_grape_plateau_runs(self, monkeypatch):
        # QFT(3) on 2 steps: seeds 0 and 4 end on a plateau, 1 and 2 converge
        runs = spy_on_requests(monkeypatch)
        target, ctrl = target_gate("qft", 3), nearest_neighbor_control_set(3)
        seeds = (0, 1, 2, 4)
        stops = [grape_optimize(target, ctrl, GrapeConfig(n_steps=2, max_iters=300, seed=s)).stop_reason for s in seeds]
        assert stops == ["resolution", "tol", "tol", "resolution"]
        differs = rungs_moving_x(runs)
        assert len(differs) > 100 and all(differs)

    def test_shooting_restarts(self, monkeypatch):
        runs = spy_on_requests(monkeypatch)
        ctx = ShootingContext(
            controls=nearest_neighbor_control_set(3),
            target=target_gate("qft", 3),
            config=MagicarpConfig(n_steps=3, max_iters=80),
        )
        reports = run_restarts(ctx, range(16))
        assert "resolution" in {r.stop_reason for r in reports}
        differs = rungs_moving_x(runs)
        assert len(differs) > 100 and all(differs)


class TestHeldPassAtDeepRungs:
    """A run that accepts a rung >= 2 builds one pass per valued point, in the
    order it values them, and none for the gradient at an accepted rung."""

    @staticmethod
    def check(runs, built, report):
        (requests,) = runs
        valued = [point for kind, point in requests if kind == "value"]
        depths, rung = [], 0
        for kind, point in requests:
            if kind == "value":
                rung += 1
            elif kind == "grad":  # the initial value stands as rung 0 of x0
                depths.append(rung - 1)
                assert sum(same_bits(b, point) for b in built) == 1  # its pass was built once, as a rung
                rung = 0
        assert max(depths) >= 2
        # a run that ends on tol reports its last accepted point, whose pass it holds
        assert report.stop_reason == "tol"
        assert len(built) == len(valued) and all(same_bits(b, v) for b, v in zip(built, valued))
        assert report.forward_points == len(built)
        assert report.backward_passes == sum(kind == "grad" for kind, _ in requests) == report.iterations + 1

    @pytest.mark.parametrize("n_steps,seed,dense", [(8, 1, True), (32, 2, False)])
    def test_grape(self, monkeypatch, n_steps, seed, dense):
        # QFT(3): 8 steps, seed 1, accepts rungs 2 and 5 with a dense inverse
        # Hessian; 32 steps, seed 2, accepts rung 7 with a low-rank one
        runs, built = spy_on_requests(monkeypatch), []
        real = grape._forward_pass

        def spy(controls, schedule):
            built.append(schedule.amplitudes.ravel().copy())
            return real(controls, schedule)

        monkeypatch.setattr(grape, "_forward_pass", spy)
        cfg = GrapeConfig(n_steps=n_steps, max_iters=300, seed=seed)
        report = grape_optimize(target_gate("qft", 3), nearest_neighbor_control_set(3), cfg)
        assert (report.final_schedule.amplitudes.size <= DENSE_LIMIT) == dense
        self.check(runs, built, report)

    @pytest.mark.parametrize("mode,seed", [("energy_optimal", 7), ("time_optimal_renormalized", 5)])
    def test_shooting(self, monkeypatch, mode, seed):
        # QFT(2) on 16 steps: seed 7 accepts rung 5 in energy-optimal mode,
        # seed 5 rung 4 in renormalized mode
        runs, built = spy_on_requests(monkeypatch), []
        real = shooting._construct_batch

        def spy(coeff_batch, *args):
            built.extend(np.atleast_2d(coeff_batch).copy())
            return real(coeff_batch, *args)

        monkeypatch.setattr(shooting, "_construct_batch", spy)
        ctx = ShootingContext(
            controls=nearest_neighbor_control_set(2),
            target=target_gate("qft", 2),
            config=MagicarpConfig(n_steps=16, max_iters=300, seed=seed, mode=mode),
        )
        self.check(runs, built, optimize(ctx))


def product_form_update(h_inv, s, y):
    """The textbook (1 - rho s y^T) H (1 - rho y s^T) + rho s s^T: the reference of the rank-two form."""
    rho = 1.0 / float(s @ y)
    v = np.eye(s.size) - rho * np.outer(s, y)
    return v @ h_inv @ v.T + rho * np.outer(s, s)


class DenseRecurrence:
    """The oracle of ``InverseHessian``: a dense H updated by the explicit
    recurrence H + (w s^T + s w^T), w = (rho^2 y.Hy + rho)/2 s - rho Hy."""

    def __init__(self, n):
        self.h = np.eye(n)

    def __matmul__(self, v):
        return self.h @ v

    def reset(self, gamma):
        self.h = gamma * np.eye(len(self.h))

    def update(self, s, y):
        rho = 1.0 / float(s @ y)
        hy = self.h @ y
        w = (0.5 * (rho * rho * float(y @ hy) + rho)) * s
        w -= rho * hy
        self.h = self.h + (np.outer(w, s) + np.outer(s, w))


def curvature_pairs(rng, n, count):
    """``count`` (s, y) pairs with y = B s for one symmetric B with eigenvalues
    in [0.5, 2], so s.y > 0 and every H the updates build stays well conditioned."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = (q * rng.uniform(0.5, 2.0, n)) @ q.T
    return [(s, b @ s) for s in rng.standard_normal((count, n))]


class TestInverseHessian:
    @pytest.mark.parametrize("n", [3, 15, 512])
    def test_equals_product_form(self, rng, n):
        h, ref = InverseHessian(n), np.eye(n)
        for s, y in curvature_pairs(rng, n, 3):
            h.update(s, y)
            ref = product_form_update(ref, s, y)
            dense = h @ np.eye(n)
            assert np.linalg.norm(dense - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [3, 15, DENSE_LIMIT])
    def test_small_n_is_the_dense_recurrence_bitwise(self, rng, n):
        # a one-pair store is folded at every update, from gamma I after a reset too
        h, ref = InverseHessian(n), DenseRecurrence(n)
        for i, (s, y) in enumerate(curvature_pairs(rng, n, 8)):
            if i == 4:
                h.reset(0.7)
                ref.reset(0.7)
            h.update(s, y)
            ref.update(s, y)
            assert h.k == 0 and same_bits(h.dense, ref.h)
            v = rng.standard_normal(n)
            assert same_bits(h @ v, ref @ v)

    @pytest.mark.parametrize("n", [65, 512, 600])
    def test_products_match_the_dense_recurrence(self, rng, n):
        # from gamma I through a fold, a reset and two more folds, with pairs left in the store
        rows, folds = n // 4, 0
        h, ref = InverseHessian(n), DenseRecurrence(n)
        for i, (s, y) in enumerate(curvature_pairs(rng, n, 3 * rows + 4)):
            if i == rows + 2:
                h.reset(0.7)
                ref.reset(0.7)
                assert h.dense is None and h.k == 0
            h.update(s, y)
            ref.update(s, y)
            if h.k == 0:
                folds += 1
                assert np.array_equal(h.dense, h.dense.T)  # B += A + A^T: symmetric bit for bit
            v = rng.standard_normal(n)
            expected = ref @ v
            assert np.linalg.norm(h @ v - expected) <= 1e-12 * np.linalg.norm(expected)
        assert (folds, h.k) == (3, 2)

    @pytest.mark.parametrize("n", [65, 512])
    def test_product_sums_in_order_bitwise(self, rng, n):
        # H v = (B v + S^T (W v)) + W^T (S v) from the stored rows, B = gamma I
        # before the first fold and the dense B after it
        h, checked = InverseHessian(n), set()
        for s, y in curvature_pairs(rng, n, n // 4 + 3):
            h.update(s, y)
            if h.k >= 2:
                v = rng.standard_normal(n)
                s_k, w_k = h.s[: h.k], h.w[: h.k]
                base = h.gamma * v if h.dense is None else h.dense @ v
                assert same_bits(h @ v, base + s_k.T @ (w_k @ v) + w_k.T @ (s_k @ v))
                checked.add(h.dense is None)
        assert checked == {True, False}

    def test_allocates_no_n_by_n_array_before_the_first_fold(self, rng):
        n = 512
        pairs = curvature_pairs(rng, n, n // 4 - 1)
        v = rng.standard_normal(n)
        tracemalloc.start()
        try:
            h = InverseHessian(n)
            for s, y in pairs:
                h.update(s, y)
                h @ v
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.dense is None and h.k == n // 4 - 1
        assert peak < n * n * 8

    @pytest.mark.parametrize("n,dense_limit", [(DENSE_LIMIT, DENSE_LIMIT), (100, 10**9)])
    def test_small_runs_keep_the_dense_arithmetic(self, monkeypatch, n, dense_limit):
        # a run whose store holds one pair, at DENSE_LIMIT parameters or at any n
        # under a raised limit, is bitwise the run on the explicit dense recurrence
        monkeypatch.setattr(optimizer, "DENSE_LIMIT", dense_limit)
        a = np.random.default_rng(n).standard_normal((n, n))
        hessian, center = a @ a.T / n + np.eye(n), np.linspace(-1.0, 2.0, n)

        def fun(x):
            return 0.5 * float((x - center) @ hessian @ (x - center))

        def grad(x):
            return hessian @ (x - center)

        default = lone_run(fun, grad, np.zeros(n), tol=1e-14, max_iters=200)
        monkeypatch.setattr(optimizer, "InverseHessian", DenseRecurrence)
        dense = lone_run(fun, grad, np.zeros(n), tol=1e-14, max_iters=200)
        assert default.curvature_updates > 1
        assert default.trace == dense.trace
        assert same_bits(default.x, dense.x)


def gradient_points(fun, grad, x0, **options):
    """The points of a ``bfgs_steps`` run's gradient requests: x0, then each accepted point."""
    steps, reply, points = bfgs_steps(x0, **options), None, []
    while True:
        try:
            kind, x = steps.send(reply)
        except StopIteration:
            return points
        if kind == "grad":
            points.append(x.copy())
            reply = grad(x)
        else:
            reply = fun(x)


class TestLearnedStep:
    # f(x) = x^4/4 - x^2/2 is concave for |x| < 1/sqrt(3): from x = 0.01 each
    # accepted step has s.y < 0 and is rung 0, until a step reaches the convex part
    @staticmethod
    def fun(x):
        return float(x[0] ** 4 / 4 - x[0] ** 2 / 2)

    @staticmethod
    def grad(x):
        return np.array([x[0] ** 3 - x[0]])

    def step_ratios(self, **options):
        """|s| / min(|g|, 1) of each accepted step while s.y <= 0."""
        points = gradient_points(self.fun, self.grad, np.array([0.01]), tol=-1.0, max_iters=30, **options)
        ratios = []
        for x, x_new in zip(points, points[1:]):
            g, s = self.grad(x), x_new - x
            if float(s @ (self.grad(x_new) - g)) > 0:
                break
            ratios.append(float(np.linalg.norm(s)) / min(float(np.linalg.norm(g)), 1.0))
        return ratios

    def test_steps_double_until_the_first_curvature_pair(self):
        ratios = self.step_ratios(learn_step=True)
        assert len(ratios) >= 3
        assert ratios == pytest.approx([2.0**i for i in range(len(ratios))], rel=1e-12)

    def test_default_steps_stay_at_the_gradient_scale(self):
        ratios = self.step_ratios()
        assert len(ratios) >= 3
        assert ratios == pytest.approx([1.0] * len(ratios), rel=1e-12)
