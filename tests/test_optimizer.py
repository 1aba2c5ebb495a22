import numpy as np
import pytest

from magicarp.optimizer import ProbeFailure, bfgs_inverse_update, minimize_bfgs


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
        # objective undefined (raises) on a half-space: line search backs off
        center = np.array([0.5, 0.5])

        def fun(x):
            if np.any(x > 1.0):
                raise ProbeFailure("out of domain")
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
        assert sizes == [1]

    def test_lazy_ladder_batches_the_rest_after_a_rejection(self):
        # rung 1 is tested alone; only when it fails too come rungs 2-3, then 4-7, 8-15, 16-29
        center = np.array([0.03, -0.02])

        def fun(x):
            return float(np.sum((x - center) ** 2))

        for scale, expected in ((2.0, [1, 1]), (8.0, [1, 1, 2])):
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
        assert sizes == [1, 1, 2, 4, 8, 14]

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
        assert sizes == [1, 1, 2, 4, 8, 14]

    def test_deterministic(self):
        runs = [
            minimize_bfgs(
                rosenbrock, rosenbrock_grad, np.array([-1.2, 1.0]), tol=1e-14, max_iters=150
            )
            for _ in range(2)
        ]
        assert runs[0].trace == runs[1].trace
        assert np.array_equal(runs[0].x, runs[1].x)


def product_form_update(h_inv, s, y):
    """The textbook (1 - rho s y^T) H (1 - rho y s^T) + rho s s^T: the reference of the rank-two form."""
    rho = 1.0 / float(s @ y)
    v = np.eye(s.size) - rho * np.outer(s, y)
    return v @ h_inv @ v.T + rho * np.outer(s, s)


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
            h_new = bfgs_inverse_update(h_inv, s, y)
            ref = product_form_update(h_inv, s, y)
            assert np.linalg.norm(h_new - ref) <= 1e-13 * np.linalg.norm(ref)
            assert np.array_equal(h_new, h_new.T)
