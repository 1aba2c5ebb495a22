import re

import numpy as np
import pytest

from magicarp import grape, optimizer
from magicarp.bench import tau_qsl
from magicarp.cli import EXIT_RUNTIME, main
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
    eigh_guard,
    exp_divided_differences,
    normalized_infidelity,
    propagate,
    pulse_eigensystems,
    step_eigensystems,
)
from magicarp.qudit import nearest_neighbor_control_set, target_gate
from magicarp.shooting import MagicarpConfig, ShootingContext

from conftest import KERNEL_SETS, kernel_case, random_unitary, same_bits


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

    @pytest.mark.parametrize("call", [grape_objective, grape_gradient])
    def test_target_dimension_mismatch(self, call):
        # a 1 x 1 target would broadcast against U_N without the check
        ctrl = nearest_neighbor_control_set(2)
        for target in (np.eye(1, dtype=complex), np.eye(3, dtype=complex)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                call(zero_schedule(4, 2), target, ctrl)


def loop_grape_gradient(schedule, target, controls, penalty_weight):
    """``grape_gradient`` as a Python loop over steps: the reference of its batched form."""
    n, k, d, dt = schedule.n_steps, schedule.n_controls, controls.dim, schedule.dt
    theta, q, steps = step_eigensystems(-dt * control_generator(controls, schedule.amplitudes))
    fwd = np.empty((n + 1, d, d), dtype=complex)
    fwd[0] = np.eye(d)
    for i in range(n):
        fwd[i + 1] = steps[i] @ fwd[i]
    overlap = np.sum(target.conj() * fwd[n])
    w_mat = target.conj().T @ fwd[n]
    phi = exp_divided_differences(theta)  # derivative along Theta = -dt H
    grad_tau = np.empty((n, k), dtype=complex)
    for i in range(n):
        m = fwd[i] @ w_mat @ fwd[i + 1].conj().T
        m_tilde = q[i].conj().T @ m @ q[i]
        h_tilde = np.einsum("ap,kab,bq->kpq", q[i].conj(), -dt * controls.hamiltonians, q[i])
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
        # forming the step generators from inf amplitudes warns before eigh runs
        ctrl = nearest_neighbor_control_set(4)
        with pytest.warns(RuntimeWarning, match="invalid value encountered in matmul"):
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


def central_difference_gradient(schedule, target, controls, weight, h=1e-5):
    amps = schedule.amplitudes
    numeric = np.zeros_like(amps)
    for index in np.ndindex(amps.shape):
        up, dn = amps.copy(), amps.copy()
        up[index] += h
        dn[index] -= h
        numeric[index] = (
            grape_objective(PulseSchedule.from_amplitudes(up), target, controls, weight)
            - grape_objective(PulseSchedule.from_amplitudes(dn), target, controls, weight)
        ) / (2 * h)
    return numeric


class TestGaugeKernel:
    """Tridiagonal control sets take the real-gauge kernel; the complex kernel is the oracle."""

    @pytest.mark.parametrize("name", ("adjacent",) + KERNEL_SETS)
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("weight", [0.0, 0.4])
    def test_gradient_equals_the_complex_kernel_loop_to_1e_13(self, rng, name, d, weight):
        # at d = 2 the dense set is tridiagonal too, and takes the gauge
        target = random_unitary(rng, d)
        for n in (1, 9, 64):
            controls, amplitudes = kernel_case(name, d, rng, n)
            s = PulseSchedule.from_amplitudes(amplitudes)
            loop = loop_grape_gradient(s, target, controls, weight)
            gap = np.max(np.abs(grape_gradient(s, target, controls, weight) - loop))
            assert gap <= 1e-13 * max(1.0, np.max(np.abs(loop)))

    @pytest.mark.parametrize("name", ["adjacent", "zero_pair", "detuned"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_zero_pulse_gradient_equals_the_complex_kernel_loop_to_1e_13(self, rng, name, d):
        # a zero pulse: every Theta_n = 0, so all
        # eigenvalues coincide and the gauge D is all ones
        controls, _ = kernel_case(name, d, rng, 1)
        s = zero_schedule(16, controls.n_controls)
        theta, (_, gauge), _ = pulse_eigensystems(controls, s)
        assert np.all(theta == 0) and np.all(gauge == 1)
        target = random_unitary(rng, d)
        for weight in (0.0, 0.4):
            loop = loop_grape_gradient(s, target, controls, weight)
            gap = np.max(np.abs(grape_gradient(s, target, controls, weight) - loop))
            assert np.max(np.abs(loop)) > 0.0
            assert gap <= 1e-13 * max(1.0, np.max(np.abs(loop)))

    @pytest.mark.parametrize("name", KERNEL_SETS)
    def test_gradient_matches_central_differences(self, rng, name):
        target = target_gate("qft", 3)
        for weight in (0.0, 0.05):
            controls, amplitudes = kernel_case(name, 3, rng, 6)
            s = PulseSchedule.from_amplitudes(amplitudes / 3.0)
            analytic = grape_gradient(s, target, controls, weight)
            numeric = central_difference_gradient(s, target, controls, weight)
            assert np.max(np.abs(analytic - numeric)) <= 1e-6 * max(np.max(np.abs(numeric)), 1e-12)

    def test_dense_run_equals_the_complex_kernel_run_bitwise(self, monkeypatch, rng):
        # a dense set's forward pass is the complex kernel on the formed
        # generators, then the plain loop of step products
        controls, _ = kernel_case("dense", 3, rng, 1)
        target, cfg = target_gate("qft", 3), GrapeConfig(n_steps=12, max_iters=150, penalty_weight=0.05, seed=4)
        run = grape_optimize(target, controls, cfg)

        def complex_forward_pass(controls, schedule):
            with eigh_guard():
                theta, q, steps = step_eigensystems(control_generator(controls, -schedule.dt * schedule.amplitudes))
            fwd = np.empty((schedule.n_steps + 1, 3, 3), dtype=complex)
            fwd[0] = np.eye(3)
            for i, step in enumerate(steps):
                fwd[i + 1] = step @ fwd[i]
            return theta, q, fwd

        monkeypatch.setattr(grape, "_forward_pass", complex_forward_pass)
        ref = grape_optimize(target, controls, cfg)
        assert run.iterations > 10
        assert np.array_equal(run.cost_trace, ref.cost_trace)
        assert np.array_equal(run.final_schedule.amplitudes, ref.final_schedule.amplitudes)
        assert (run.infidelity, run.stop_reason) == (ref.infidelity, ref.stop_reason)


class TestTransposeTwin:
    """Adjacent-level controls satisfy H_k^T = s_k H_k with s_k = +-1, so the
    twin u'_n = s o u_{N-1-n} of a pulse propagates to U_N^T. For a target
    with V^T = V, such as QFT, the objective is then invariant under the twin
    map and the gradient maps by it. These identities hold whatever kernel
    computes the steps, so they check the real gauge and ``pulse_pullback``
    without resting on them."""

    @staticmethod
    def pulse_and_twin(rng, d):
        controls = nearest_neighbor_control_set(d)
        h = controls.hamiltonians
        signs = np.array([1.0 if np.array_equal(hk.T, hk) else -1.0 for hk in h])
        assert np.array_equal(h.swapaxes(-1, -2), signs[:, None, None] * h)
        assert 1.0 in signs and -1.0 in signs
        amplitudes = rng.standard_normal((64, controls.n_controls))
        twin = PulseSchedule.from_amplitudes(signs * amplitudes[::-1])
        return controls, signs, PulseSchedule.from_amplitudes(amplitudes), twin

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_twin_propagates_to_the_transpose(self, rng, d):
        controls, _, s, twin = self.pulse_and_twin(rng, d)
        u_final = propagate(controls, s).final
        assert np.max(np.abs(propagate(controls, twin).final - u_final.T)) <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("weight", [0.0, 1e-3])
    def test_objective_is_invariant_and_gradient_maps_by_the_twin(self, rng, d, weight):
        controls, signs, s, twin = self.pulse_and_twin(rng, d)
        target = target_gate("qft", d)
        assert np.array_equal(target.T, target)
        value = grape_objective(s, target, controls, weight)
        assert abs(grape_objective(twin, target, controls, weight) - value) <= 1e-14
        grad = grape_gradient(s, target, controls, weight)
        mapped = signs * grad[::-1]
        assert np.linalg.norm(grape_gradient(twin, target, controls, weight) - mapped) <= 1e-12 * np.linalg.norm(grad)


class TestGrapeOptimize:
    def test_random_target_converges(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        target = random_unitary(rng, 2)
        cfg = GrapeConfig(n_steps=64, max_iters=500, convergence_tol=1e-7, seed=7)
        report = grape_optimize(target, ctrl, cfg)
        assert report.infidelity <= 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_cold_start_reaches_the_gate_on_qft5(self, seed):
        # 512 amplitudes from init_sigma 1: the learnt first step leaves the
        # concave start region in a few iterations (510-841 at a fixed first step)
        cfg = GrapeConfig(n_steps=64, max_iters=150, seed=seed)
        report = grape_optimize(target_gate("qft", 5), nearest_neighbor_control_set(5), cfg)
        assert report.stop_reason == "tol"
        assert report.infidelity <= 1e-7

    def test_run_past_several_folds(self):
        # 17 steps of 4 controls are 68 amplitudes, whose store holds 17 pairs:
        # 51 curvature updates fold it into H three times
        target, ctrl = target_gate("qft", 3), nearest_neighbor_control_set(3)
        cfg = GrapeConfig(n_steps=17, max_iters=400, penalty_weight=1e-3, seed=0)
        report = grape_optimize(target, ctrl, cfg)
        assert report.curvature_updates >= 51
        assert np.all(np.diff(report.cost_trace) <= 0)
        again = normalized_infidelity(target, propagate(ctrl, report.final_schedule).unitaries[-1])
        assert abs(report.infidelity - again) <= 1e-12

    @pytest.mark.parametrize("driver", ["shooting", "grape"])
    def test_both_drivers_check_the_target_alike(self, driver):
        def run(target):
            ctrl = nearest_neighbor_control_set(2)
            if driver == "grape":
                return grape_optimize(target, ctrl, GrapeConfig(n_steps=4, max_iters=1))
            return ShootingContext(controls=ctrl, target=target, config=MagicarpConfig(n_steps=4))

        with pytest.raises(ValueError, match=re.escape("target dimension 3 != control dimension 2")):
            run(target_gate("qft", 3))
        with pytest.raises(ValueError, match="matrix is not unitary"):
            run(np.array([[1.0, 0.0], [1.0, 0.0]]))

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

    def test_explicit_init_starts_from_the_given_pulse(self):
        rows = ((0.5, 0.1), (0.2, 0.9))
        ctrl, target = nearest_neighbor_control_set(2), target_gate("hadamard", 2)
        cfg = GrapeConfig(n_steps=2, init_schedule=rows)
        report = grape_optimize(target, ctrl, cfg)
        assert report.cost_trace[0] == grape_objective(PulseSchedule.from_amplitudes(np.array(rows)), target, ctrl)
        assert report.converged

    def test_explicit_init_shape_checked(self):
        ctrl = nearest_neighbor_control_set(2)
        cfg = GrapeConfig(n_steps=4, init_schedule=((1.0, 0.0),))
        with pytest.raises(ValueError, match=re.escape("init_schedule: expected shape (4, 2), got shape (1, 2)")):
            grape_optimize(np.eye(2, dtype=complex), ctrl, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GrapeConfig(n_steps=0)
        with pytest.raises(ValueError):
            GrapeConfig(penalty_weight=-1.0)
        # the start switch is not a field: whether init_schedule is given
        # decides the start, and a switch still given must agree
        for init in ("fourier", "zeros", "explicit"):
            with pytest.raises(ValueError, match=re.escape(f"init: expected random_normal, which init_schedule implies, got '{init}'")):
                GrapeConfig(init=init)
        with pytest.raises(ValueError, match="^init: expected explicit"):
            GrapeConfig(n_steps=1, init="random_normal", init_schedule=((0.5, 0.5),))
        assert GrapeConfig(n_steps=1, init="explicit", init_schedule=((0.5, 0.5),)) == GrapeConfig(
            n_steps=1, init_schedule=((0.5, 0.5),)
        )

    @pytest.mark.parametrize(
        "field,value",
        [("max_iters", 0), ("convergence_tol", 0.0), ("init_sigma", 0.0), ("init_schedule", ((1.0,), ())), ("seed", 2**64)],
    )
    def test_message_starts_with_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: "):
            GrapeConfig(**{field: value})

    @pytest.mark.parametrize("field", ["convergence_tol", "init_sigma"])
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
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(grape, name, spy)
        return calls

    @pytest.mark.parametrize(
        "d,n_steps,max_iters,stop", [(3, 16, 500, "tol"), (3, 16, 5, "max_iters"), (3, 2, 300, "resolution")]
    )
    def test_one_forward_pass_per_evaluated_point(self, monkeypatch, d, n_steps, max_iters, stop):
        # the first seed whose run ends on ``stop``; a plateau run ends on
        # ``resolution`` once no rung moves x
        target, ctrl = target_gate("qft", d), nearest_neighbor_control_set(d)
        configs = (GrapeConfig(n_steps=n_steps, max_iters=max_iters, seed=seed) for seed in range(16))
        cfg = next(cfg for cfg in configs if grape_optimize(target, ctrl, cfg).stop_reason == stop)
        passes = self.count(monkeypatch, "pulse_eigensystems")
        points = self.count(monkeypatch, "grape_objective")
        gradients = self.count(monkeypatch, "grape_gradient")
        updates = []
        real_update = optimizer.InverseHessian.update
        monkeypatch.setattr(optimizer.InverseHessian, "update", lambda *args: updates.append(real_update(*args)))
        report = grape_optimize(target, ctrl, cfg)
        assert report.stop_reason == stop
        # the gradients and the report read the pass of the point last valued
        assert len(gradients) == report.iterations + 1
        assert len(passes) == len(points)
        # the report counts the same work
        assert (report.forward_points, report.backward_passes) == (len(passes), len(gradients))
        assert report.curvature_updates == len(updates)

    def test_line_search_stop_rebuilds_the_report_pass(self, monkeypatch):
        # one rung per line search: a rejected rung 0 ends the run after the
        # last accepted point, so the report builds that point's pass again,
        # through the same forward pass that values every point
        passes = self.count(monkeypatch, "pulse_eigensystems")
        points = self.count(monkeypatch, "grape_objective")
        monkeypatch.setattr(optimizer, "MAX_BACKTRACKS", 1)
        cfg = GrapeConfig(n_steps=16, max_iters=500, seed=0)
        report = grape_optimize(target_gate("qft", 3), nearest_neighbor_control_set(3), cfg)
        assert report.stop_reason == "line_search"
        assert len(passes) == len(points)
        assert points[-1].amplitudes.tobytes() == report.final_schedule.amplitudes.tobytes()
        assert report.forward_points == len(passes)
        final = grape_objective(report.final_schedule, target_gate("qft", 3), nearest_neighbor_control_set(3))
        assert report.infidelity == final == report.cost_trace[-1]

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("weight", [0.0, 0.05])
    def test_equals_runs_without_the_hold_bitwise(self, monkeypatch, d, weight):
        target, ctrl = target_gate("qft", d), nearest_neighbor_control_set(d)
        cfg = GrapeConfig(n_steps=16, max_iters=150, penalty_weight=weight, seed=d)
        held = grape_optimize(target, ctrl, cfg)
        real_reply = optimizer.LockstepRun.reply

        def forget_then_reply(run, value):
            # the runner never holds a pass from one request to the next: each
            # value, gradient and the report build their own
            run.key = run.held = None
            real_reply(run, value)

        monkeypatch.setattr(optimizer.LockstepRun, "reply", forget_then_reply)
        fresh = grape_optimize(target, ctrl, cfg)
        assert fresh.forward_points > held.forward_points
        assert np.array_equal(held.cost_trace, fresh.cost_trace)
        assert np.array_equal(held.final_schedule.amplitudes, fresh.final_schedule.amplitudes)
        assert (held.infidelity, held.stop_reason) == (fresh.infidelity, fresh.stop_reason)

    @pytest.mark.parametrize("weight", [0.0, 0.05])
    def test_the_gradient_reads_the_held_overlap(self, rng, weight):
        target, ctrl = target_gate("qft", 3), nearest_neighbor_control_set(3)
        s = PulseSchedule.from_amplitudes(rng.standard_normal((16, ctrl.n_controls)))
        held = grape._held_pass(ctrl, s, target)
        gradient = grape_gradient(s, target, ctrl, weight, forward=held)
        assert same_bits(gradient, grape_gradient(s, target, ctrl, weight))
        assert grape_objective(s, target, ctrl, weight, forward=held) == grape_objective(s, target, ctrl, weight)
        # the infidelity from the held overlap is normalized_infidelity's, bit for bit
        u_final = propagate(ctrl, s).unitaries[-1]
        assert grape_objective(s, target, ctrl, 0.0, forward=held) == normalized_infidelity(target, u_final)
        # twice the held overlap doubles the fidelity term bit for bit: the
        # gradient reads the overlap, it does not form it again
        doubled = (*held[:3], 2.0 * held[3])
        fidelity_term = grape_gradient(s, target, ctrl, 0.0, forward=held)
        assert same_bits(grape_gradient(s, target, ctrl, 0.0, forward=doubled), 2.0 * fidelity_term)

    def test_failing_pass_raises_its_error(self, monkeypatch, tmp_path, capsys):
        # the runner keeps a numerical failure to its run; grape_optimize raises it
        def singular(controls, schedule):
            raise np.linalg.LinAlgError("synthetic eigh failure")

        monkeypatch.setattr(grape, "_forward_pass", singular)
        with pytest.raises(np.linalg.LinAlgError, match="synthetic eigh failure"):
            grape_optimize(target_gate("qft", 2), nearest_neighbor_control_set(2), GrapeConfig(n_steps=4))
        assert main(["grape", "--out", str(tmp_path)]) == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("runtime error: synthetic eigh failure")
