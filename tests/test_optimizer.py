import tracemalloc

import numpy as np
import pytest

from magicarp import optimizer
from magicarp.grape import GrapeConfig, grape_optimize
from magicarp.optimizer import DENSE_LIMIT, InverseHessian, bfgs_steps, run_lockstep
from magicarp.qudit import nearest_neighbor_control_set, target_gate
from magicarp.shooting import MagicarpConfig, ShootingContext, run_restarts

from conftest import same_bits


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
    """One ``run_lockstep`` run on the per-point callables ``fun`` and ``grad``,
    with a ladder that calls ``fun`` on each row; its result. ``log`` gets
    ("forward", points) and ("ladder", rows) for each call."""
    log = [] if log is None else log

    def forward(points):
        log.append(("forward", len(points)))
        return [fun(x) for x in points], points

    def backward(held):
        return [grad(tape[row]) for tape, row in held]

    def batch(xs):
        log.append(("ladder", len(xs)))
        return np.array([fun(x) for x in xs])

    outcome = run_lockstep([x0], forward, backward, batch, **options)[0]
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
        (outcome,) = run_lockstep([np.zeros(2)], lambda xs: ([np.inf] * len(xs), None), None, None, tol=1e-8, max_iters=10)
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

    def test_ladder_matches_sequential(self, monkeypatch):
        # blocks of one rung each are a sequential backtracking loop
        fun, grad = quadratic(np.array([2.0, -1.0, 0.5, 4.0]))
        x0 = np.array([5.0, 5.0, 5.0, 5.0])
        bat = lone_run(fun, grad, x0, tol=1e-13, max_iters=100)
        monkeypatch.setattr(optimizer, "LADDER_EDGES", tuple(range(optimizer.MAX_BACKTRACKS + 1)))
        seq = lone_run(fun, grad, x0, tol=1e-13, max_iters=100)
        assert seq.trace == bat.trace
        assert np.array_equal(seq.x, bat.x)

    @pytest.mark.parametrize("first", [0, 1, 2, 3, 5, 9, 16, 29])
    def test_ladder_accepts_the_first_passing_rung_as_a_sequential_search(self, first):
        # f(x) = -x + x^2 / delta from x = 0 along p = 1, with delta = 1.5 2^-first:
        # the Armijo test passes for steps up to about delta, so a backtracking
        # loop that tries rung 0, 1, 2, ... in turn stops at rung ``first``, in
        # whichever block the ladder holds it
        delta = 1.5 * 2.0**-first

        def fun(x):
            return float(-x[0] + x[0] ** 2 / delta)

        sequential = next(j for j in range(30) if fun([2.0**-j]) <= fun([0.0]) - optimizer.ARMIJO_C * 2.0**-j)
        assert sequential == first
        res = lone_run(fun, lambda x: np.array([-1.0 + 2.0 * x[0] / delta]), np.zeros(1), tol=-1.0, max_iters=1)
        assert res.x[0] == 2.0**-first
        assert res.trace == [0.0, fun([2.0**-first])]

    def test_lazy_ladder_evaluates_rung_zero_alone(self):
        # a unit step from |g| <= 1 lands on the minimum, so rung 0 is accepted
        center = np.array([0.3, -0.2])

        def fun(x):
            return 0.5 * float(np.sum((x - center) ** 2))

        log = []
        res = lone_run(fun, lambda x: x - center, np.zeros(2), tol=1e-20, max_iters=5, log=log)
        assert res.fun == 0.0
        # the initial value, then rung 0; the gradient and the report reuse its pass
        assert log == [("forward", 1), ("forward", 1)]

    def test_lazy_ladder_batches_the_rest_after_a_rejection(self):
        # rung 1 is tested alone; only when it fails too come rungs 2-3, then 4-7, 8-15, 16-29
        # (the first call is the initial value)
        center = np.array([0.03, -0.02])

        def fun(x):
            return float(np.sum((x - center) ** 2))

        single = ("forward", 1)
        for scale, expected in ((2.0, [single] * 3), (8.0, [single] * 3 + [("ladder", 2), single])):
            # a gradient `scale` times too long: the unit step overshoots, and the
            # step of 2 / scale lands on the minimum (rung 1 for 2x, rung 3 for 8x,
            # whose gradient needs a pass of its own)
            log = []
            res = lone_run(fun, lambda x: scale * (x - center), np.zeros(2), tol=1e-20, max_iters=5, log=log)
            assert res.fun == 0.0
            assert log == expected

    def test_lazy_ladder_reaches_the_last_block(self):
        # f(x) = -x + x^2 / delta from x = 0 along p = 1: the Armijo test passes
        # only for steps below about delta, so the first accepted rung is 16,
        # in the last block of rungs 16-29
        delta = 1.5 * 2.0**-16
        log = []

        def fun(x):
            return float(-x[0] + x[0] ** 2 / delta)

        res = lone_run(
            fun, lambda x: np.array([-1.0 + 2.0 * x[0] / delta]), np.zeros(1), tol=-1.0, max_iters=1, log=log
        )
        assert res.x[0] == 2.0**-16
        # the initial value, then the ladder, then the pass of the accepted point for its gradient
        single = ("forward", 1)
        assert log == [single] * 3 + [("ladder", b) for b in (2, 4, 8, 14)] + [single]

    def test_lazy_ladder_asks_for_every_block_when_all_rungs_fail(self):
        # a gradient of the wrong sign: every rung climbs, and the run stops
        def fun(x):
            return float(np.sum(x**2))

        log = []
        res = lone_run(fun, lambda x: -2.0 * x, np.ones(2), tol=0.0, max_iters=5, log=log)
        assert (res.stop_reason, res.iterations) == ("line_search", 0)
        # the initial value, then the ladder, then the final point's pass again for the report
        single = ("forward", 1)
        assert log == [single] * 3 + [("ladder", b) for b in (2, 4, 8, 14)] + [single]

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
                raise ValueError("poisoned point")
            return [fun(x) for x in points], points

        def backward(held):
            return [grad(tape[row]) for tape, row in held]

        def batch(xs):
            return forward(list(xs))[0]

        x0s = [np.array([-3.0, 0.0]), np.array([0.0, 3.0])]
        options = dict(tol=1e-14, max_iters=50)
        outcomes = run_lockstep(x0s, forward, backward, batch, **options)
        assert isinstance(outcomes[1], ValueError) and str(outcomes[1]) == "poisoned point"
        (alone,) = run_lockstep(x0s[:1], forward, backward, batch, **options)
        assert outcomes[0].result.trace == alone.result.trace
        assert same_bits(outcomes[0].result.x, alone.result.x)
        assert (outcomes[0].forward_points, outcomes[0].backward_passes) == (alone.forward_points, alone.backward_passes)

    def test_programming_error_propagates(self):
        def forward(points):
            raise TypeError("a bug, not a numerical failure")

        with pytest.raises(TypeError, match="a bug"):
            run_lockstep([np.zeros(2), np.ones(2)], forward, None, None, tol=1e-8, max_iters=10)


def drive_at_fixed_point(x0, f0, g0):
    """Run ``bfgs_steps`` with a constant objective f0 and gradient g0, whatever
    the point; log every evaluated row as ("point", bytes) and every gradient
    request as ("grad", bytes), whatever kind of request carried them."""
    steps = bfgs_steps(x0, tol=-1.0, max_iters=100)
    log, reply = [], None
    while True:
        try:
            kind, x = steps.send(reply)
        except StopIteration as done:
            return done.value, log
        if kind == "grad":
            log.append(("grad", x.tobytes()))
            reply = g0.copy()
        else:
            rows = np.atleast_2d(x)
            log += [("point", row.tobytes()) for row in rows]
            reply = np.full(len(rows), f0) if kind == "values" else f0


class TestLadderBelowResolution:
    # |alpha p| <= 2.2e-20 on x = (1, -2): every rung's x + alpha p is x bitwise
    X0 = np.array([1.0, -2.0])
    G0 = np.array([1e-20, 2e-20])

    def test_armijo_product_rounds_away_yet_no_rung_is_asked_for(self):
        # f + c alpha g.p rounds to f = 1, so a row equal to x would pass at
        # rung 0 with f unchanged, iteration after iteration; no such row is asked for
        res, log = drive_at_fixed_point(self.X0, 1.0, self.G0)
        assert log == [("point", self.X0.tobytes()), ("grad", self.X0.tobytes())]
        assert (res.stop_reason, res.iterations, res.curvature_updates) == ("resolution", 0, 0)
        assert res.trace == [1.0] and res.x.tobytes() == self.X0.tobytes()

    def test_armijo_product_kept_yet_no_rung_is_asked_for(self):
        # at f = 0 the bound c alpha g.p < 0 survives, and every row equal to x
        # would fail; none is asked for
        res, log = drive_at_fixed_point(self.X0, 0.0, self.G0)
        assert log == [("point", self.X0.tobytes()), ("grad", self.X0.tobytes())]
        assert (res.stop_reason, res.iterations, res.trace) == ("resolution", 0, [0.0])

    def test_rows_that_move_x_are_asked_for_as_before(self):
        # x = 1 along p = -2^-40 with f and g constant: rung j gives
        # 1 - 2^-(40+j), which moves x while it is at least the spacing 2^-53
        # below 1, that is for j <= 13 (j = 14 is a tie that rounds to 1). Every
        # rung fails the Armijo test, so the ladder asks for rungs 0-13, in its
        # blocks cut before rung 14, with the same rows as before, then stops
        x0, g0 = np.array([1.0]), np.array([2.0**-40])
        res, log = drive_at_fixed_point(x0, 0.0, g0)
        rows = x0[None, :] + (2.0 ** -np.arange(14))[:, None] * -g0[None, :]
        assert log == [("point", x0.tobytes()), ("grad", x0.tobytes())] + [("point", row.tobytes()) for row in rows]
        assert (res.stop_reason, res.iterations) == ("resolution", 0)


def spy_on_ladder_rows(monkeypatch):
    """Wrap every ``bfgs_steps`` that ``run_lockstep`` starts. The returned list
    gets, for each row of a value request after the initial one, whether it
    differs from the run's x, the point of its last gradient request."""
    differs = []
    real = optimizer.bfgs_steps

    def spy(x0, **options):
        steps, reply, x = real(x0, **options), None, None
        while True:
            try:
                kind, point = steps.send(reply)
            except StopIteration as done:
                return done.value
            if kind == "grad":
                x = point.copy()
            elif x is not None:
                differs.extend(bool(np.any(row != x)) for row in point)
            reply = yield kind, point

    monkeypatch.setattr(optimizer, "bfgs_steps", spy)
    return differs


class TestEveryRowMovesX:
    def test_grape_plateau_runs(self, monkeypatch):
        # QFT(3) on 2 steps: seeds 0 and 4 end on a plateau, 1 and 2 converge
        differs = spy_on_ladder_rows(monkeypatch)
        target, ctrl = target_gate("qft", 3), nearest_neighbor_control_set(3)
        seeds = (0, 1, 2, 4)
        stops = [grape_optimize(target, ctrl, GrapeConfig(n_steps=2, max_iters=300, seed=s)).stop_reason for s in seeds]
        assert stops == ["resolution", "tol", "tol", "resolution"]
        assert len(differs) > 100 and all(differs)

    def test_shooting_restarts(self, monkeypatch):
        differs = spy_on_ladder_rows(monkeypatch)
        ctx = ShootingContext(
            controls=nearest_neighbor_control_set(3),
            target=target_gate("qft", 3),
            config=MagicarpConfig(n_steps=3, max_iters=80),
        )
        reports = run_restarts(ctx, range(16))
        assert "resolution" in {r.stop_reason for r in reports}
        assert len(differs) > 100 and all(differs)


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
            reply = np.array([fun(row) for row in x])


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
