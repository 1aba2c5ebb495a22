import tracemalloc

import numpy as np
import pytest

from magicarp.optimizer import MAX_BACKTRACKS, UPDATE_BLOCK, bfgs_inverse_update, bfgs_steps, minimize_bfgs

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


class TestMinimizeBfgs:
    def test_quadratic_converges(self):
        fun, grad = quadratic(np.array([1.0, -2.0, 3.0]))
        res = minimize_bfgs(fun, grad, np.zeros(3), tol=1e-12, max_iters=100)
        assert res.stop_reason == "tol"
        assert res.fun <= 1e-12
        assert np.allclose(res.x, [1.0, -2.0, 3.0], atol=1e-6)
        # s.y = 2 |s|^2 > 0: every accepted step updates the curvature
        assert res.curvature_updates == res.iterations >= 1

    def test_rosenbrock_converges(self):
        res = minimize_bfgs(
            rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]), tol=1e-14, max_iters=300
        )
        assert res.fun <= 1e-12
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)

    def test_trace_non_increasing(self):
        res = minimize_bfgs(
            rosenbrock, rosenbrock_grad, np.array([2.0, -1.0]), tol=1e-14, max_iters=200
        )
        diffs = np.diff(res.trace)
        assert np.all(diffs <= 0)

    def test_max_iters_stop(self):
        fun, grad = quadratic(np.array([10.0]))
        res = minimize_bfgs(fun, grad, np.zeros(1), tol=0.0, max_iters=1)
        assert res.stop_reason == "max_iters"
        assert res.iterations == 1

    def test_stall_stop(self):
        # objective floor at 1 can never reach tol=0: stalls once converged
        def fun(x):
            return float(np.sum(x**2)) + 1.0

        def grad(x):
            return 2.0 * x

        res = minimize_bfgs(fun, grad, np.ones(2), tol=0.0, max_iters=10_000)
        assert res.stop_reason in ("stall", "line_search")
        assert res.fun == pytest.approx(1.0, abs=1e-10)

    def test_initial_point_must_be_finite(self):
        def fun(x):
            return np.inf

        with pytest.raises(ValueError):
            minimize_bfgs(fun, lambda x: x, np.zeros(2), tol=1e-8, max_iters=10)

    def test_probe_failure_aborts_probe_not_run(self):
        # objective undefined (+inf) on a half-space: line search backs off
        center = np.array([0.5, 0.5])

        def fun(x):
            if np.any(x > 1.0):
                return np.inf
            return float(np.sum((x - center) ** 2))

        def grad(x):
            return 2.0 * (x - center)

        res = minimize_bfgs(fun, grad, np.array([-3.0, -3.0]), tol=1e-12, max_iters=100)
        assert res.fun <= 1e-12

    def test_batch_fun_matches_sequential(self):
        fun, grad = quadratic(np.array([2.0, -1.0, 0.5, 4.0]))

        def batch(xs):
            return np.array([fun(row) for row in xs])

        x0 = np.array([5.0, 5.0, 5.0, 5.0])
        seq = minimize_bfgs(fun, grad, x0, tol=1e-13, max_iters=100)
        bat = minimize_bfgs(fun, grad, x0, tol=1e-13, max_iters=100, batch_fun=batch)
        assert seq.trace == bat.trace
        assert np.array_equal(seq.x, bat.x)

    def test_lazy_ladder_evaluates_rung_zero_alone(self):
        # a unit step from |g| <= 1 lands on the minimum, so rung 0 is accepted
        center = np.array([0.3, -0.2])

        def fun(x):
            return 0.5 * float(np.sum((x - center) ** 2))

        sizes = []

        def batch(xs):
            sizes.append(xs.shape[0])
            return np.array([fun(row) for row in xs])

        res = minimize_bfgs(fun, lambda x: x - center, np.zeros(2), tol=1e-20, max_iters=5, batch_fun=batch)
        assert res.fun == 0.0
        assert sizes == [1, 1]  # the initial value, then rung 0

    def test_lazy_ladder_batches_the_rest_after_a_rejection(self):
        # rung 1 is tested alone; only when it fails too come rungs 2-3, then 4-7, 8-15, 16-29
        # (the first call is the initial value)
        center = np.array([0.03, -0.02])

        def fun(x):
            return float(np.sum((x - center) ** 2))

        for scale, expected in ((2.0, [1, 1, 1]), (8.0, [1, 1, 1, 2])):
            # a gradient `scale` times too long: the unit step overshoots, and the
            # step of 2 / scale lands on the minimum (rung 1 for 2x, rung 3 for 8x)
            sizes = []

            def batch(xs):
                sizes.append(xs.shape[0])
                return np.array([fun(row) for row in xs])

            res = minimize_bfgs(
                fun, lambda x: scale * (x - center), np.zeros(2), tol=1e-20, max_iters=5, batch_fun=batch
            )
            assert res.fun == 0.0
            assert sizes == expected

    def test_lazy_ladder_reaches_the_last_block(self):
        # f(x) = -x + x^2 / delta from x = 0 along p = 1: the Armijo test passes
        # only for steps below about delta, so the first accepted rung is 16,
        # in the last block of rungs 16-29
        delta = 1.5 * 2.0**-16
        sizes = []

        def fun(x):
            return float(-x[0] + x[0] ** 2 / delta)

        def batch(xs):
            sizes.append(xs.shape[0])
            return np.array([fun(row) for row in xs])

        res = minimize_bfgs(
            fun, lambda x: np.array([-1.0 + 2.0 * x[0] / delta]), np.zeros(1), tol=-1.0, max_iters=1, batch_fun=batch
        )
        assert res.x[0] == 2.0**-16
        assert sizes == [1, 1, 1, 2, 4, 8, 14]  # the initial value, then the ladder

    def test_sequential_ladder_calls_fun_once_per_rung(self):
        # the last-block case above without batch_fun: one call per row, in order
        delta = 1.5 * 2.0**-16
        calls = []

        def fun(x):
            calls.append(float(x[0]))
            return float(-x[0] + x[0] ** 2 / delta)

        res = minimize_bfgs(fun, lambda x: np.array([-1.0 + 2.0 * x[0] / delta]), np.zeros(1), tol=-1.0, max_iters=1)
        assert res.x[0] == 2.0**-16
        assert calls == [0.0] + [2.0**-j for j in range(17)]

    def test_lazy_ladder_asks_for_every_block_when_all_rungs_fail(self):
        # a gradient of the wrong sign: every rung climbs, and the run stops
        sizes = []

        def fun(x):
            return float(np.sum(x**2))

        def batch(xs):
            sizes.append(xs.shape[0])
            return np.array([fun(row) for row in xs])

        res = minimize_bfgs(fun, lambda x: -2.0 * x, np.ones(2), tol=0.0, max_iters=5, batch_fun=batch)
        assert (res.stop_reason, res.iterations) == ("line_search", 0)
        assert sizes == [1, 1, 1, 2, 4, 8, 14]  # the initial value, then the ladder

    def test_deterministic(self):
        runs = [
            minimize_bfgs(
                rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]), tol=1e-14, max_iters=150
            )
            for _ in range(2)
        ]
        assert runs[0].trace == runs[1].trace
        assert np.array_equal(runs[0].x, runs[1].x)


def drive_at_fixed_point(x0, f0, g0, batched):
    """Run ``bfgs_steps`` with a constant objective f0 and gradient g0, whatever
    the point; log every evaluated row as ("point", bytes) and every gradient
    request as ("grad", bytes), whatever kind of request carried them."""
    steps = bfgs_steps(x0, tol=-1.0, max_iters=100, batched=batched)
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

    @pytest.mark.parametrize("batched", [False, True])
    def test_armijo_product_rounds_away_so_rung_zero_passes_until_stall(self, batched):
        # f + c alpha g.p rounds to f = 1, so the row equal to x passes at rung 0;
        # s = y = 0 takes no curvature update, and the flat trace stalls
        res, log = drive_at_fixed_point(self.X0, 1.0, self.G0, batched)
        point, grad = ("point", self.X0.tobytes()), ("grad", self.X0.tobytes())
        assert log == [point, grad] + [point, grad] * 25
        assert (res.stop_reason, res.iterations, res.curvature_updates) == ("stall", 25, 0)
        assert res.trace == [1.0] * 26 and res.x.tobytes() == self.X0.tobytes()

    @pytest.mark.parametrize("batched", [False, True])
    def test_armijo_product_kept_so_every_rung_fails(self, batched):
        # at f = 0 the bound c alpha g.p < 0 survives, and no row equal to x passes
        res, log = drive_at_fixed_point(self.X0, 0.0, self.G0, batched)
        point, grad = ("point", self.X0.tobytes()), ("grad", self.X0.tobytes())
        assert log == [point, grad] + [point] * MAX_BACKTRACKS
        assert (res.stop_reason, res.iterations, res.trace) == ("line_search", 0, [0.0])


def product_form_update(h_inv, s, y):
    """The textbook (1 - rho s y^T) H (1 - rho y s^T) + rho s s^T: the reference of the rank-two form."""
    rho = 1.0 / float(s @ y)
    v = np.eye(s.size) - rho * np.outer(s, y)
    return v @ h_inv @ v.T + rho * np.outer(s, s)


def update_work(n):
    """The two scratch blocks a BFGS run keeps: min(n, UPDATE_BLOCK) rows of n."""
    return np.empty((min(n, UPDATE_BLOCK), n)), np.empty((min(n, UPDATE_BLOCK), n))


class TestInverseUpdate:
    @pytest.mark.parametrize("n", [3, 15, 512])
    def test_equals_product_form_and_stays_symmetric(self, rng, n):
        for _ in range(3):
            a = rng.standard_normal((n, n))
            h_inv = a @ a.T / n + np.eye(n)
            h_inv = 0.5 * (h_inv + h_inv.T)  # exactly symmetric positive definite
            s, y = rng.standard_normal(n), rng.standard_normal(n)
            if s @ y <= 0:
                y = -y
            h_new = h_inv.copy()
            bfgs_inverse_update(h_new, s, y, update_work(n))
            ref = product_form_update(h_inv, s, y)
            assert np.linalg.norm(h_new - ref) <= 1e-13 * np.linalg.norm(ref)
            assert np.array_equal(h_new, h_new.T)

    def test_allocates_no_n_by_n_array(self, rng):
        # numpy reports its buffers to tracemalloc: the update's peak stays
        # below one (n, n) float array
        n = 512
        h_inv, work = np.eye(n), update_work(n)
        s, y = rng.standard_normal(n), rng.standard_normal(n)
        if s @ y <= 0:
            y = -y
        tracemalloc.start()
        try:
            bfgs_inverse_update(h_inv, s, y, work)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
        # nor a temporary of a block's size: the blocks are formed in the scratch
        assert peak < UPDATE_BLOCK * n * 8
        assert not np.array_equal(h_inv, np.eye(n))

    @pytest.mark.parametrize("n", [3, 15, 63, 64, 65, 512, 600])
    def test_blocks_equal_whole_outer_products_bitwise(self, rng, n):
        # below, at and across the block edges: each entry of H gains the sum
        # s_i w_j + w_i s_j of the unblocked update, bit for bit
        a = rng.standard_normal((n, n))
        h_inv = a @ a.T / n + np.eye(n)
        h_inv = 0.5 * (h_inv + h_inv.T)
        s, y = rng.standard_normal(n), rng.standard_normal(n)
        if s @ y <= 0:
            y = -y
        rho = 1.0 / float(s @ y)
        hy = h_inv @ y
        w = (0.5 * (rho * rho * float(y @ hy) + rho)) * s
        w -= rho * hy
        ref = h_inv + (np.outer(s, w) + np.outer(w, s))
        bfgs_inverse_update(h_inv, s, y, update_work(n))
        assert same_bits(h_inv, ref)
        assert np.array_equal(h_inv, h_inv.T)
