import numpy as np
import pytest

from magicarp import grape, optimizer
from magicarp.bench import tau_qsl
from magicarp.grape import (
    GrapeConfig,
    energy_integral,
    grape_gradient,
    grape_objective,
    grape_optimize,
    initial_schedule,
)
from magicarp.propagation import (
    PulseSchedule,
    control_generator,
    exp_divided_differences,
    step_eigensystems,
)
from magicarp.qudit import nearest_neighbor_control_set, target_gate

from conftest import random_unitary


def zero_schedule(n, k):
    return PulseSchedule.from_amplitudes(np.zeros((n, k)))


class TestGrapeObjective:
    def test_zero_schedule_identity_target(self):
        ctrl = nearest_neighbor_control_set(2)
        for weight in (0.0, 1.0, 17.5):
            value = grape_objective(zero_schedule(8, 2), np.eye(2, dtype=complex), ctrl, weight)
            assert value == pytest.approx(0.0, abs=1e-15)

    def test_zero_schedule_hadamard(self):
        # the Hadamard is traceless, so U = 1 sits at maximal infidelity
        ctrl = nearest_neighbor_control_set(2)
        value = grape_objective(zero_schedule(8, 2), target_gate("hadamard", 2), ctrl, 0.0)
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_positive_weight_increases_objective(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        s = PulseSchedule.from_amplitudes(rng.standard_normal((8, 2)))
        target = target_gate("qft", 2)
        base = grape_objective(s, target, ctrl, 0.0)
        assert grape_objective(s, target, ctrl, 0.3) > base

    def test_penalty_term_value(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        s = PulseSchedule.from_amplitudes(rng.standard_normal((8, 2)))
        target = target_gate("qft", 2)
        w = 0.7
        expected = w * energy_integral(s) / tau_qsl(2)
        got = grape_objective(s, target, ctrl, w) - grape_objective(s, target, ctrl, 0.0)
        assert got == pytest.approx(expected, rel=1e-12)


def loop_grape_gradient(schedule, target, controls, penalty_weight):
    """``grape_gradient`` as a Python loop over steps: the reference of its batched form."""
    n, k, d, dt = schedule.n_steps, schedule.n_controls, controls.dim, schedule.dt
    w, q, steps = step_eigensystems(control_generator(controls, schedule.amplitudes), dt)
    fwd = np.empty((n + 1, d, d), dtype=complex)
    fwd[0] = np.eye(d)
    for i in range(n):
        fwd[i + 1] = steps[i] @ fwd[i]
    overlap = np.sum(target.conj() * fwd[n])
    w_mat = target.conj().T @ fwd[n]
    phi = exp_divided_differences(w, dt)
    grad_tau = np.empty((n, k), dtype=complex)
    for i in range(n):
        m = fwd[i] @ w_mat @ fwd[i + 1].conj().T
        m_tilde = q[i].conj().T @ m @ q[i]
        h_tilde = np.einsum("ap,kab,bq->kpq", q[i].conj(), controls.hamiltonians, q[i])
        grad_tau[i] = np.einsum("qp,pq,kpq->k", m_tilde, phi[i], h_tilde)
    grad = -2.0 * (np.conj(overlap) * grad_tau).real / d**2
    if penalty_weight != 0.0:
        grad = grad + (2.0 * penalty_weight * dt / tau_qsl(d, controls.omega_max)) * schedule.amplitudes
    return grad


def filled_schedule(n, k, value):
    """A schedule whose amplitudes all equal ``value``, past the finiteness check."""
    s = zero_schedule(n, k)
    object.__setattr__(s, "amplitudes", np.full((n, k), value))
    return s


class TestEighFailure:
    # the eigh gufunc runs without numpy's wrapper: its failure must still
    # raise LinAlgError, and no warning may come with it
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [grape_objective, grape_gradient])
    def test_nan_schedule_raises_linalg_error(self, call):
        ctrl = nearest_neighbor_control_set(4)
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            call(filled_schedule(8, ctrl.n_controls, np.nan), target_gate("qft", 4), ctrl)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("call", [grape_objective, grape_gradient])
    def test_inf_schedule_raises_linalg_error(self, call):
        # forming H = sum_k u_k H_k from inf amplitudes warns before eigh runs
        ctrl = nearest_neighbor_control_set(4)
        with pytest.warns(RuntimeWarning, match="invalid value encountered in dot"):
            with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
                call(filled_schedule(8, ctrl.n_controls, np.inf), target_gate("qft", 4), ctrl)


class TestGrapeGradient:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("weight", [0.0, 0.4])
    def test_equals_per_step_loop_to_1e_13(self, rng, d, weight):
        # the flat contraction sums in another order than the loop, so the
        # two agree to rounding, not bitwise
        ctrl = nearest_neighbor_control_set(d)
        target = random_unitary(rng, d)
        for n in (1, 9, 64):
            s = PulseSchedule.from_amplitudes(3.0 * rng.standard_normal((n, ctrl.n_controls)))
            loop = loop_grape_gradient(s, target, ctrl, weight)
            gap = np.max(np.abs(grape_gradient(s, target, ctrl, weight) - loop))
            assert gap <= 1e-13 * max(1.0, np.max(np.abs(loop)))

    def test_zero_schedule_identity_target_zero_gradient(self):
        ctrl = nearest_neighbor_control_set(2)
        g = grape_gradient(zero_schedule(8, 2), np.eye(2, dtype=complex), ctrl, 0.0)
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_matches_central_differences(self, rng):
        # acceptance-grade oracle: 20 random instances, d in {2, 3}, N <= 16
        worst = 0.0
        for d in (2, 3):
            ctrl = nearest_neighbor_control_set(d)
            target = target_gate("qft", d)
            for _ in range(10):
                n = int(rng.integers(2, 17))
                amps = rng.standard_normal((n, ctrl.n_controls))
                weight = float(rng.choice([0.0, 0.05]))
                s = PulseSchedule.from_amplitudes(amps)
                analytic = grape_gradient(s, target, ctrl, weight)
                h = 1e-5
                numeric = np.zeros_like(amps)
                for i in range(n):
                    for k in range(ctrl.n_controls):
                        up, dn = amps.copy(), amps.copy()
                        up[i, k] += h
                        dn[i, k] -= h
                        numeric[i, k] = (
                            grape_objective(PulseSchedule.from_amplitudes(up), target, ctrl, weight)
                            - grape_objective(PulseSchedule.from_amplitudes(dn), target, ctrl, weight)
                        ) / (2 * h)
                rel = np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
                worst = max(worst, rel)
        assert worst <= 1e-6

    def test_penalty_gradient_is_linear(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        target = target_gate("qft", 2)
        amps = rng.standard_normal((6, 2))
        w = 0.4

        def penalty_part(a):
            s = PulseSchedule.from_amplitudes(a)
            return grape_gradient(s, target, ctrl, w) - grape_gradient(s, target, ctrl, 0.0)

        p1 = penalty_part(amps)
        p2 = penalty_part(2.0 * amps)
        assert np.allclose(p2, 2.0 * p1, rtol=1e-12)
        expected = 2.0 * w * (1.0 / 6) * amps / tau_qsl(2)
        assert np.allclose(p1, expected, rtol=1e-12)


class TestGrapeOptimize:
    def test_random_target_converges(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        target = random_unitary(rng, 2)
        cfg = GrapeConfig(n_steps=64, max_iters=500, convergence_tol=1e-7, seed=7)
        report = grape_optimize(target, ctrl, cfg)
        assert report.infidelity <= 1e-6

    def test_parameter_count_is_n_times_k(self):
        for d, n in ((2, 8), (3, 4)):
            ctrl = nearest_neighbor_control_set(d)
            cfg = GrapeConfig(n_steps=n, seed=1)
            s = initial_schedule(cfg, ctrl.n_controls)
            assert s.amplitudes.size == n * ctrl.n_controls

    def test_refinement_preserves_objective(self, rng):
        # splitting every step in two leaves the propagator and the
        # penalty-free objective unchanged
        ctrl = nearest_neighbor_control_set(2)
        target = random_unitary(rng, 2)
        cfg = GrapeConfig(n_steps=16, max_iters=300, seed=3)
        report = grape_optimize(target, ctrl, cfg)
        coarse = report.final_schedule
        fine = PulseSchedule.from_amplitudes(np.repeat(coarse.amplitudes, 2, axis=0))
        a = grape_objective(coarse, target, ctrl, 0.0)
        b = grape_objective(fine, target, ctrl, 0.0)
        assert abs(a - b) <= 1e-12

    def test_trace_monotone(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        cfg = GrapeConfig(n_steps=8, max_iters=100, seed=5)
        report = grape_optimize(random_unitary(rng, 2), ctrl, cfg)
        assert np.all(np.diff(report.cost_trace) <= 0)

    def test_deterministic(self):
        ctrl = nearest_neighbor_control_set(2)
        cfg = GrapeConfig(n_steps=8, max_iters=60, seed=12)
        target = target_gate("qft", 2)
        r1 = grape_optimize(target, ctrl, cfg)
        r2 = grape_optimize(target, ctrl, cfg)
        assert r1.cost_trace == r2.cost_trace
        assert np.array_equal(r1.final_schedule.amplitudes, r2.final_schedule.amplitudes)

    def test_zeros_init(self):
        ctrl = nearest_neighbor_control_set(2)
        cfg = GrapeConfig(n_steps=4, init="zeros", max_iters=10)
        report = grape_optimize(np.eye(2, dtype=complex), ctrl, cfg)
        assert report.converged
        assert report.infidelity == 0.0

    def test_explicit_init_shape_checked(self):
        ctrl = nearest_neighbor_control_set(2)
        cfg = GrapeConfig(n_steps=4, init="explicit", init_schedule=((1.0, 0.0),))
        with pytest.raises(ValueError):
            grape_optimize(np.eye(2, dtype=complex), ctrl, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GrapeConfig(n_steps=0)
        with pytest.raises(ValueError):
            GrapeConfig(penalty_weight=-1.0)
        with pytest.raises(ValueError):
            GrapeConfig(init="fourier")

    @pytest.mark.parametrize(
        "field,value",
        [("max_iters", 0), ("convergence_tol", 0.0), ("stall_tol", -1e-12), ("init_sigma", 0.0), ("seed", 2**64)],
    )
    def test_message_starts_with_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: "):
            GrapeConfig(**{field: value})

    @pytest.mark.parametrize("field", ["convergence_tol", "stall_tol", "init_sigma"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: expected a positive finite number"):
            GrapeConfig(**{field: value})


class TestHeldPass:
    @staticmethod
    def count(monkeypatch, name):
        calls = []
        real = getattr(grape, name)

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(grape, name, spy)
        return calls

    @pytest.mark.parametrize(
        "d,n_steps,max_iters,stop", [(3, 16, 500, "tol"), (3, 16, 5, "max_iters"), (3, 2, 300, "stall")]
    )
    def test_one_forward_pass_per_evaluated_point(self, monkeypatch, d, n_steps, max_iters, stop):
        passes = self.count(monkeypatch, "step_eigensystems")
        points = self.count(monkeypatch, "grape_objective")
        gradients = self.count(monkeypatch, "grape_gradient")
        cfg = GrapeConfig(n_steps=n_steps, max_iters=max_iters, seed=0)
        report = grape_optimize(target_gate("qft", d), nearest_neighbor_control_set(d), cfg)
        assert report.stop_reason == stop
        # the gradients and the report read the pass of the point fun evaluated last
        assert len(gradients) == report.iterations + 1
        assert len(passes) == len(points)

    def test_line_search_stop_rebuilds_the_report_pass(self, monkeypatch):
        # one rung per line search: a rejected rung 0 ends the run after the
        # last accepted point, so the report builds that point's pass again
        passes = self.count(monkeypatch, "step_eigensystems")
        points = self.count(monkeypatch, "grape_objective")
        monkeypatch.setattr(optimizer, "MAX_BACKTRACKS", 1)
        cfg = GrapeConfig(n_steps=16, max_iters=500, seed=0)
        report = grape_optimize(target_gate("qft", 3), nearest_neighbor_control_set(3), cfg)
        assert report.stop_reason == "line_search"
        assert len(passes) == len(points) + 1
        final = grape_objective(report.final_schedule, target_gate("qft", 3), nearest_neighbor_control_set(3))
        assert report.infidelity == final == report.cost_trace[-1]

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("weight", [0.0, 0.05])
    def test_equals_runs_without_the_hold_bitwise(self, monkeypatch, d, weight):
        target, ctrl = target_gate("qft", d), nearest_neighbor_control_set(d)
        cfg = GrapeConfig(n_steps=16, max_iters=150, penalty_weight=weight, seed=d)
        held = grape_optimize(target, ctrl, cfg)
        monkeypatch.setattr(grape, "_hold_last", lambda fn: fn)
        fresh = grape_optimize(target, ctrl, cfg)
        assert np.array_equal(held.cost_trace, fresh.cost_trace)
        assert np.array_equal(held.final_schedule.amplitudes, fresh.final_schedule.amplitudes)
        assert (held.infidelity, held.stop_reason) == (fresh.infidelity, fresh.stop_reason)
