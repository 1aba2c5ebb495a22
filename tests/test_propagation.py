import dataclasses
import io

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from magicarp.bench import BenchmarkRecord, records_from_csv, records_to_csv
from magicarp.propagation import (
    PulseSchedule,
    accumulate,
    bloch_to_csv,
    bloch_trajectory,
    control_generator,
    eigh_guard,
    exp_divided_differences,
    gate_fidelity,
    gate_overlap,
    infidelity_from_overlap,
    normalized_infidelity,
    propagate,
    pulse_eigensystems,
    pulse_pullback,
    schedule_from_csv,
    schedule_to_csv,
    step_eigensystems,
    step_out,
    step_work,
    verify_adjoint_constancy,
)
from magicarp.qudit import AdjointMatrix, nearest_neighbor_control_set, unitarity_defect

from conftest import KERNEL_SETS, kernel_case, random_traceless_hermitian, random_unitary, same_bits

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def zero_schedule(n_steps: int, n_controls: int) -> PulseSchedule:
    return PulseSchedule.from_amplitudes(np.zeros((n_steps, n_controls)))


class TestPulseSchedule:
    def test_dt_consistency(self):
        s = PulseSchedule.from_amplitudes(np.ones((8, 2)))
        assert abs(s.dt * s.n_steps - 1.0) <= 1e-12

    def test_counts_and_dt_derive_from_the_amplitudes(self):
        # the amplitudes are the schedule's one field; N, K and dt = 1/N are read from them
        s = PulseSchedule.from_amplitudes(np.ones((7, 3)))
        assert (s.n_steps, s.n_controls, s.dt) == (7, 3, 1.0 / 7)
        assert [f.name for f in dataclasses.fields(s)] == ["amplitudes"]
        with pytest.raises(AttributeError):
            s.dt = 0.3

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e300, -2e154])
    def test_rejects_non_finite_or_overflowing(self, value):
        # beyond about 1.34e154 the square overflows, and with it the envelope
        amps = np.ones((4, 2))
        amps[1, 0] = value
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            PulseSchedule.from_amplitudes(amps)

    def test_rejects_zero_steps(self):
        # checked before dt = 1/N is formed, which would divide by zero
        with pytest.raises(ValueError, match=r"amplitudes: expected at least one step \(row\), got shape \(0, 2\)"):
            PulseSchedule.from_amplitudes(np.zeros((0, 2)))

    def test_accepts_amplitudes_whose_sum_of_squares_is_finite(self):
        # 2 * 9e153^2 = 1.62e308, below the largest float
        schedule = PulseSchedule.from_amplitudes(np.array([[9e153, 0.0], [0.0, -9e153]]))
        assert np.all(np.isfinite(schedule.envelope)) and np.isfinite(schedule.duration(1.0))


def step_exponential(controls, amplitudes, dt):
    """exp(-i dt sum_k u_k H_k) from the step kernel."""
    with eigh_guard():
        return step_eigensystems(-dt * control_generator(controls, amplitudes))[2]


class TestStepExponential:
    def test_zero_amplitudes_is_identity(self):
        ctrl = nearest_neighbor_control_set(3)
        u = step_exponential(ctrl, np.zeros(ctrl.n_controls), 0.01)
        assert np.allclose(u, np.eye(3), atol=1e-15)

    def test_pauli_rotation_identity(self):
        ctrl = nearest_neighbor_control_set(2)
        theta = 0.7
        dt = 0.1
        u = step_exponential(ctrl, np.array([theta / dt, 0.0]), dt)
        expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * SX
        assert np.allclose(u, expected, atol=1e-13)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_expm_and_stays_unitary(self, seed, d):
        # independent oracle: Pade-based scipy expm on the same generator
        rng = np.random.default_rng(seed)
        ctrl = nearest_neighbor_control_set(d)
        amps = rng.uniform(-10, 10, ctrl.n_controls)
        dt = rng.uniform(1e-4, 0.1)
        u = step_exponential(ctrl, amps, dt)
        ref = scipy.linalg.expm(-1j * dt * control_generator(ctrl, amps))
        assert np.linalg.norm(u - ref) <= 1e-11
        assert unitarity_defect(u) <= 1e-12


def sinc_divided_differences(w: np.ndarray, dt: float) -> np.ndarray:
    """Divided differences of z -> exp(-i dt z) on eigenvalue pairs of H, via np.sinc:
    the former form of ``exp_divided_differences``, kept as its reference."""
    mean = 0.5 * (w[..., :, None] + w[..., None, :])
    diff = w[..., :, None] - w[..., None, :]
    return -1j * dt * np.exp(-1j * dt * mean) * np.sinc(dt * diff / (2.0 * np.pi))


class TestStepEigensystems:
    def test_theta_equals_numpy_eigh_of_minus_dt_h_bitwise(self, rng):
        h = np.stack([random_traceless_hermitian(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        theta, q, _ = step_eigensystems(-0.1 * h)
        theta_ref, q_ref = np.linalg.eigh(-0.1 * h)
        assert same_bits(np.ascontiguousarray(theta), theta_ref) and same_bits(q, q_ref)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_exponentials_match_scipy_expm(self, rng, d):
        dt = 0.37
        h = np.stack([3.0 * random_traceless_hermitian(rng, d) for _ in range(5)])
        _, _, steps = step_eigensystems(-dt * h)
        for step, hn in zip(steps, h):
            assert np.linalg.norm(step - scipy.linalg.expm(-1j * dt * hn)) <= 1e-13

    def test_writes_into_out(self, rng):
        h = np.stack([random_traceless_hermitian(rng, 3) for _ in range(4)])
        fresh = step_eigensystems(-0.25 * h)
        tape = (np.zeros((4, 2, 3), dtype=complex), np.empty((4, 2, 3, 3), dtype=complex), np.empty((4, 2, 3, 3), dtype=complex))
        out = tuple(a[:, 1] for a in tape)
        theta, q, step = step_eigensystems(-0.25 * h, out=out)
        assert np.shares_memory(theta, out[0]) and same_bits(out[0].real, np.zeros((4, 3)))
        assert q is out[1] and step is out[2]
        for g, f in zip((theta, q, step), fresh):
            assert same_bits(np.ascontiguousarray(g), f)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_failure_raises_under_the_guard(self, value):
        # the eigenvalues go to the strided imaginary part of the phase buffer
        theta = np.full((2, 4, 4), value, dtype=complex)
        with eigh_guard(), pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            step_eigensystems(theta, out=step_out(theta.shape), work=step_work(theta.shape))


class TestPulseEigensystems:
    @staticmethod
    def complex_kernel(controls, schedule):
        """The complex kernel on the formed Theta_n = -dt H_n: the oracle of the gauge path."""
        with eigh_guard():
            return step_eigensystems(control_generator(controls, -schedule.dt * schedule.amplitudes))

    @pytest.mark.parametrize("name", KERNEL_SETS)
    @pytest.mark.parametrize("d", [3, 5])
    def test_equals_the_complex_kernel_to_1e_13(self, rng, name, d):
        controls, amplitudes = kernel_case(name, d, rng, 24)
        schedule = PulseSchedule.from_amplitudes(amplitudes)
        theta, q, steps = pulse_eigensystems(controls, schedule)
        if controls.tridiagonal:
            q_real, gauge = q
            q = gauge[:, :, :1] * q_real  # q = D Q_T: column 0 of the gauge is D's diagonal
        theta_ref, _, steps_ref = self.complex_kernel(controls, schedule)
        generators = control_generator(controls, -schedule.dt * amplitudes)
        assert np.max(np.abs(theta - theta_ref)) <= 1e-13
        assert np.max(np.abs(steps - steps_ref)) <= 1e-13
        # q diagonalizes Theta_n, whichever phase each eigenvector takes
        q_dag = q.conj().swapaxes(-1, -2)
        assert np.max(np.abs((q * theta[:, None, :]) @ q_dag - generators)) <= 1e-13
        assert np.max(np.abs(q_dag @ q - np.eye(d))) <= 1e-13

    def test_dense_sets_take_the_complex_kernel_bitwise(self, rng):
        controls, amplitudes = kernel_case("dense", 4, rng, 16)
        schedule = PulseSchedule.from_amplitudes(amplitudes)
        got, ref = pulse_eigensystems(controls, schedule), self.complex_kernel(controls, schedule)
        for a, b in zip(got, ref):
            assert same_bits(np.ascontiguousarray(a), np.ascontiguousarray(b))

    def test_zero_superdiagonal_splits_the_gauge(self, rng):
        # with the last pair undriven, T splits into blocks: the top-left
        # block evolves alone and the last level stays put
        controls, amplitudes = kernel_case("zero_pair", 4, rng, 8)
        _, _, steps = pulse_eigensystems(controls, PulseSchedule.from_amplitudes(amplitudes))
        assert np.all(steps[:, 3, :3] == 0) and np.all(steps[:, :3, 3] == 0)
        assert np.max(np.abs(steps[:, 3, 3] - 1)) <= 1e-15

    def test_control_count_mismatch(self):
        with pytest.raises(ValueError, match="controls"):
            pulse_eigensystems(nearest_neighbor_control_set(3), zero_schedule(4, 3))


class TestPulsePullback:
    @staticmethod
    def loop_pullback(controls, schedule, m):
        """sum_ab X_ba H_k,ab per step and control, X = Q (phi o Q^dag M Q) Q^dag
        from ``np.linalg.eigh`` of each formed -dt H_n: the oracle of both branches."""
        rows = []
        for u, m_n in zip(schedule.amplitudes, m):
            theta, q = np.linalg.eigh(control_generator(controls, -schedule.dt * u))
            q_dag = q.conj().T
            x = q @ (exp_divided_differences(theta) * (q_dag @ m_n @ q)) @ q_dag
            rows.append([np.sum(x.T * h) for h in controls.hamiltonians])
        return np.array(rows)

    @pytest.mark.parametrize("name", ("adjacent",) + KERNEL_SETS)
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_equals_the_per_step_eigh_loop_to_1e_13(self, rng, name, d):
        # a random complex M, not GRAPE's: the contract holds for any stack
        for n in (1, 9, 64):
            controls, amplitudes = kernel_case(name, d, rng, n)
            schedule = PulseSchedule.from_amplitudes(amplitudes)
            m = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
            theta, q, _ = pulse_eigensystems(controls, schedule)
            got = pulse_pullback(controls, theta, q, m.copy())
            ref = self.loop_pullback(controls, schedule, m)
            assert got.shape == (n, controls.n_controls)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_leaves_m_as_it_was(self, rng):
        for name in ("adjacent", "dense"):
            controls, amplitudes = kernel_case(name, 4, rng, 8)
            theta, q, _ = pulse_eigensystems(controls, PulseSchedule.from_amplitudes(amplitudes))
            m = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
            kept = m.copy()
            pulse_pullback(controls, theta, q, m)
            assert same_bits(m, kept)


class TestExpDividedDifferences:
    @pytest.mark.parametrize("gap", [0.0, 1e-300, 1e-12])
    def test_equals_the_sinc_form_to_1e_15(self, rng, gap):
        # eigenvalues theta = (0, gap, a, a + gap, b) with a, b of order one (a + gap
        # rounds to a for the tiny gaps); dt is a power of two, so theta = -dt w and
        # the factors -dt between the two forms are exact
        dt = 0.125
        a, b = rng.uniform(-3.0, 3.0, (2, 8, 1))
        theta = np.concatenate([0.0 * a, 0.0 * a + gap, a, a + gap, b], axis=-1)
        ref = sinc_divided_differences(theta / -dt, dt) / -dt
        got = exp_divided_differences(theta)
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))
        assert np.all(np.isfinite(got))

    def test_is_the_derivative_of_exp_i_theta(self, rng):
        # Q (phi o (Q^dag E Q)) Q^dag is the directional derivative of exp(i Theta) along E
        theta_mat = random_traceless_hermitian(rng, 4)
        e = random_traceless_hermitian(rng, 4)
        theta, q, _ = step_eigensystems(theta_mat)
        q_dag = q.conj().T
        deriv = q @ (exp_divided_differences(theta) * (q_dag @ e @ q)) @ q_dag
        h = 1e-6
        central = (scipy.linalg.expm(1j * (theta_mat + h * e)) - scipy.linalg.expm(1j * (theta_mat - h * e))) / (2 * h)
        assert np.linalg.norm(deriv - central) <= 1e-8

    @pytest.mark.filterwarnings("error")
    def test_propagate_raises_on_nan_schedule(self):
        ctrl = nearest_neighbor_control_set(4)
        s = zero_schedule(8, ctrl.n_controls)
        object.__setattr__(s, "amplitudes", np.full((8, ctrl.n_controls), np.nan))
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            propagate(ctrl, s)


class TestPropagate:
    def test_zero_schedule(self):
        ctrl = nearest_neighbor_control_set(2)
        res = propagate(ctrl, zero_schedule(16, 2))
        assert np.allclose(res.unitaries, np.eye(2), atol=1e-15)
        assert res.duration == 0.0

    def test_pi_half_x_rotation_hits_x_gate(self):
        ctrl = nearest_neighbor_control_set(2)
        n = 64
        amps = np.zeros((n, 2))
        amps[:, 0] = np.pi / 2
        res = propagate(ctrl, PulseSchedule.from_amplitudes(amps))
        assert np.allclose(res.final, -1j * SX, atol=1e-12)
        assert gate_fidelity(SX, res.final) == pytest.approx(4.0, abs=1e-12)

    def test_control_count_mismatch(self):
        ctrl = nearest_neighbor_control_set(2)
        with pytest.raises(ValueError):
            propagate(ctrl, zero_schedule(4, 3))

    def test_duration_is_envelope_riemann_sum(self, rng):
        ctrl = nearest_neighbor_control_set(3)
        amps = rng.standard_normal((32, ctrl.n_controls))
        s = PulseSchedule.from_amplitudes(amps)
        res = propagate(ctrl, s)
        expected = s.dt * np.linalg.norm(amps, axis=1).sum()
        assert abs(res.duration - expected) <= 1e-12

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_duration_scales_linearly(self, s):
        ctrl = nearest_neighbor_control_set(2)
        rng = np.random.default_rng(5)
        amps = rng.standard_normal((16, 2))
        base = propagate(ctrl, PulseSchedule.from_amplitudes(amps)).duration
        scaled = propagate(ctrl, PulseSchedule.from_amplitudes(s * amps)).duration
        assert scaled == pytest.approx(s * base, rel=1e-12)

    def test_refinement_convergence_is_first_order(self):
        # the N=100 and N=10000 discretizations of the same smooth profile
        # agree to O(dt); one decade of refinement gains about one digit
        ctrl = nearest_neighbor_control_set(2)

        def discretize(n):
            t = np.arange(n) / n
            amps = np.stack([np.sin(2 * np.pi * t) + 0.5, np.cos(np.pi * t)], axis=1)
            return propagate(ctrl, PulseSchedule.from_amplitudes(amps)).final

        ref = discretize(10000)
        d100 = np.linalg.norm(discretize(100) - ref)
        d1000 = np.linalg.norm(discretize(1000) - ref)
        assert d100 <= 0.03
        assert 5.0 <= d100 / d1000 <= 15.0

    def test_unitarity_over_ten_thousand_steps(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        amps = rng.uniform(-3, 3, (10_000, 2))
        res = propagate(ctrl, PulseSchedule.from_amplitudes(amps))
        assert unitarity_defect(res.final) <= 1e-9

    def test_time_reversal_round_trip(self, rng):
        ctrl = nearest_neighbor_control_set(3)
        amps = rng.standard_normal((128, ctrl.n_controls))
        fwd = propagate(ctrl, PulseSchedule.from_amplitudes(amps))
        back = propagate(ctrl, PulseSchedule.from_amplitudes(-amps[::-1]))
        assert np.linalg.norm(back.final @ fwd.final - np.eye(3)) <= 1e-9


class TestAccumulate:
    def test_products_from_start(self, rng):
        steps = np.stack([random_unitary(rng, 3) for _ in range(4)])
        start = rng.standard_normal((3, 3)) + 0j
        for begin, x0 in ((None, np.eye(3)), (start, start)):
            products = accumulate(steps, begin)
            assert products.shape == (5, 3, 3)
            assert np.array_equal(products[0], x0)
            assert np.array_equal(products[4], steps[3] @ (steps[2] @ (steps[1] @ (steps[0] @ x0))))


    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", [1, 64])
    def test_equals_the_step_loop_bitwise(self, rng, d, n):
        # the chain calls each step's bound dot; the loop is the @ it replaces
        steps = np.stack([random_unitary(rng, d) for _ in range(n)])
        start = random_unitary(rng, d)
        for begin, x0 in ((None, np.eye(d, dtype=complex)), (start, start)):
            ref = np.empty((n + 1, d, d), dtype=complex)
            ref[0] = x0
            for i in range(n):
                ref[i + 1] = steps[i] @ ref[i]
            assert same_bits(accumulate(steps, begin), ref)


class TestGateFidelity:
    def test_self_fidelity_is_d_squared(self, rng):
        for d in (2, 3, 5):
            v = random_unitary(rng, d)
            assert gate_fidelity(v, v) == pytest.approx(d * d, rel=1e-12)

    def test_phase_invariance(self, rng):
        v = random_unitary(rng, 3)
        assert gate_fidelity(v, np.exp(0.73j) * v) == pytest.approx(9.0, rel=1e-12)

    def test_traceless_orthogonality(self):
        assert gate_fidelity(np.eye(2, dtype=complex), SX) == pytest.approx(0.0, abs=1e-15)
        assert normalized_infidelity(np.eye(2, dtype=complex), SX) == pytest.approx(1.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            gate_fidelity(np.eye(2), np.eye(3))

    def test_symmetry_left_invariance_and_bounds(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 5))
            u, v, w = (random_unitary(rng, d) for _ in range(3))
            f = gate_fidelity(u, v)
            assert 0.0 <= f <= d * d + 1e-12
            assert f == pytest.approx(gate_fidelity(v, u), rel=1e-10, abs=1e-12)
            assert f == pytest.approx(gate_fidelity(w @ u, w @ v), rel=1e-9, abs=1e-9)
            assert 0.0 <= normalized_infidelity(u, v) <= 1.0

    def test_fidelity_rounds_as_the_infidelity_does(self, rng):
        # one overlap and one rounding: 1 - fidelity / d^2 is normalized_infidelity bit for bit
        differ = 0
        for d in range(2, 7):
            for _ in range(2000):
                v, u = random_unitary(rng, d), random_unitary(rng, d)
                differ += 1.0 - gate_fidelity(v, u) / d**2 != normalized_infidelity(v, u)
        assert differ == 0

    def test_identical_gates_zero_infidelity(self, rng):
        v = random_unitary(rng, 4)
        assert normalized_infidelity(v, v) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_overlap_of_a_stack_is_each_gate_alone(self, rng, d):
        v = random_unitary(rng, d)
        stack = np.stack([random_unitary(rng, d) for _ in range(20)])
        overlaps = gate_overlap(v, stack)
        assert overlaps.shape == (20,)
        assert same_bits(overlaps, np.array([gate_overlap(v, u) for u in stack]))
        assert np.ndim(gate_overlap(v, stack[0])) == 0
        with pytest.raises(ValueError, match="dimension mismatch"):
            gate_overlap(v, stack[:, :-1])

    def test_infidelity_of_one_overlap_is_the_array_loop(self, rng):
        # Python's abs of a complex scalar rounds otherwise than numpy's array
        # loop on about a third of values; the helper takes the loop for both
        overlaps = 4.0 * (rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
        values = infidelity_from_overlap(overlaps, 4)
        alone = [infidelity_from_overlap(z, 4) for z in overlaps]
        assert all(type(value) is float for value in alone)
        assert same_bits(values, np.array(alone))
        assert same_bits(values[:1], infidelity_from_overlap(overlaps[:1], 4))


class TestAdjointConstancy:
    def test_zero_schedule_zero_residual(self):
        ctrl = nearest_neighbor_control_set(2)
        g = AdjointMatrix(2, np.array([0.3, -0.2, 0.9]))
        assert verify_adjoint_constancy(ctrl, zero_schedule(10, 2), g) == 0.0

    def test_random_instances_tiny_residual(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        g = AdjointMatrix(2, rng.standard_normal(3))
        amps = rng.standard_normal((1000, 2))
        res = verify_adjoint_constancy(ctrl, PulseSchedule.from_amplitudes(amps), g)
        assert res <= 1e-8

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_equals_step_loop_bitwise(self, rng, d):
        # the reference: the propagator's exponentials and one loop per side, as before accumulate
        ctrl = nearest_neighbor_control_set(d)
        g = AdjointMatrix(d, rng.standard_normal(d * d - 1))
        schedule = PulseSchedule.from_amplitudes(rng.standard_normal((50, ctrl.n_controls)))
        _, _, steps = pulse_eigensystems(ctrl, schedule)
        u = np.eye(d, dtype=complex)
        lam = lam0 = 1j * g.to_matrix()
        residual = 0.0
        for step in steps:
            u, lam = step @ u, step @ lam
            residual = max(residual, float(np.linalg.norm(lam - u @ lam0)))
        assert verify_adjoint_constancy(ctrl, schedule, g) == residual
        assert residual > 0.0

    def test_control_count_mismatch(self):
        g = AdjointMatrix(2, np.array([0.3, -0.2, 0.9]))
        with pytest.raises(ValueError, match="controls"):
            verify_adjoint_constancy(nearest_neighbor_control_set(2), zero_schedule(4, 3), g)

    def test_euler_mismatch_degrades(self, rng):
        # deliberate degradation: integrating the costate with explicit Euler
        # instead of the step exponentials leaves an O(dt) residual
        ctrl = nearest_neighbor_control_set(2)
        g = AdjointMatrix(2, np.array([0.8, -0.4, 0.2]))

        def euler_residual(n):
            amps = np.full((n, 2), [1.3, -0.7])
            schedule = PulseSchedule.from_amplitudes(amps)
            result = propagate(ctrl, schedule)
            lam = 1j * g.to_matrix()
            lam0 = lam.copy()
            worst = 0.0
            for i in range(n):
                h = control_generator(ctrl, amps[i])
                lam = lam - 1j * schedule.dt * (h @ lam)
                worst = max(worst, np.linalg.norm(lam - result.unitaries[i + 1] @ lam0))
            return worst

        r200, r400 = euler_residual(200), euler_residual(400)
        assert r200 > 1e-4
        assert r200 / r400 == pytest.approx(2.0, rel=0.2)


class TestScheduleCsv:
    def test_round_trip_exact(self, rng):
        s = PulseSchedule.from_amplitudes(rng.standard_normal((17, 3)))
        back = schedule_from_csv(schedule_to_csv(s))
        assert back.n_steps == s.n_steps
        assert back.n_controls == s.n_controls
        assert np.array_equal(back.amplitudes, s.amplitudes)

    def test_header_layout(self):
        s = zero_schedule(2, 2)
        lines = schedule_to_csv(s).splitlines()
        assert lines[0] == "step,t,u_0,u_1,envelope"
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "nonsense\n1,2,3\n",
            "step,t,u_0,envelope\n0,0,1\n",  # missing field in row
            "step,t,u_0,envelope\n1,0,1,1\n",  # wrong step index
            "step,t,u_0,envelope\n0,0,abc,1\n",  # non-numeric
        ],
    )
    def test_malformed_inputs_raise(self, text):
        with pytest.raises(ValueError):
            schedule_from_csv(text)

    @pytest.mark.parametrize(
        "text,match",
        [
            ("step,t,u_0,u_1,envelope\n0,abc,1.0,2.0,2.23606797749979\n", "non-numeric"),
            ("step,t,u_0,u_1,envelope\n0,0,1.0,2.0,xyz\n", "non-numeric"),
            ("step,t,u_0,u_1,envelope\n0,0,0.5,0.5,0.70710678118654757\n1,7,0.5,0.5,0.70710678118654757\n", "row 1 has t 7.0"),
            ("step,t,u_0,u_1,envelope\n0,0,0.5,0.5,99\n1,0.5,0.5,0.5,0.70710678118654757\n", "row 0 has envelope 99.0"),
            ("step,t,u_0,u_1,envelope\n0,0,0,0,1e-300\n", "row 0 has envelope"),  # a zero row's envelope is 0
            ("step,t,u_0,envelope\n0,nan,1,1\n", "row 0 has t nan"),
            ("step,t,u_0,envelope\n0,0,1,inf\n", "row 0 has envelope inf"),
        ],
    )
    def test_t_and_envelope_columns_are_parsed_and_checked(self, text, match):
        with pytest.raises(ValueError, match=match):
            schedule_from_csv(text)

    def test_t_and_envelope_agree_to_1e_9_relative(self):
        # another writer's rounding passes; a deviation beyond 1e-9 does not
        ok = "step,t,u_0,u_1,envelope\n0,0,0.5,0.5,0.7071067812\n1,0.50000000001,0.5,0.5,0.707106781\n"
        assert np.array_equal(schedule_from_csv(ok).amplitudes, np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="row 1 has envelope"):
            schedule_from_csv(ok.replace("0.707106781\n", "0.70710677\n"))
        with pytest.raises(ValueError, match="row 1 has t"):
            schedule_from_csv(ok.replace("0.50000000001", "0.5000000006"))

    def test_written_t_and_envelope_round_trip_exactly(self, rng):
        s = PulseSchedule.from_amplitudes(rng.standard_normal((13, 4)))
        rows = np.array([ln.split(",") for ln in schedule_to_csv(s).splitlines()[1:]], dtype=float)
        assert np.array_equal(rows[:, 1], np.arange(13) * s.dt)
        assert np.array_equal(rows[:, -1], s.envelope)
        back = schedule_from_csv(schedule_to_csv(s))
        assert back.amplitudes.flags.owndata and back.amplitudes.flags.c_contiguous

    @pytest.mark.parametrize("text", ["step,t,u_0,u_1,envelope\n", "step,t,u_0,u_1,envelope\n\n  \n"])
    def test_header_without_rows_raises(self, text):
        # not a 1-step schedule with 0 controls
        with pytest.raises(ValueError, match="schedule has no rows"):
            schedule_from_csv(text)


class TestCsvTables:
    """The one reader under both formats the library reads back."""

    TABLES = {
        "schedule": (schedule_from_csv, schedule_to_csv, PulseSchedule.from_amplitudes(np.arange(8.0).reshape(4, 2))),
        "records": (
            records_from_csv,
            records_to_csv,
            [BenchmarkRecord(2, i, 7 + i, 1e-9, 1.5, 1.25, 10, True) for i in range(4)],
        ),
    }

    @pytest.mark.parametrize("name", TABLES)
    @pytest.mark.parametrize("edit", ["short", "long"])
    def test_blank_lines_skipped_and_field_counts_checked(self, name, edit):
        read, write, table = self.TABLES[name]
        header, *rows = write(table).splitlines()
        # blank and whitespace-only lines anywhere read as no line at all
        spaced = "\n" + header + "\n\n" + "\n \t\n".join(rows) + "\n  \n"
        assert write(read(spaced)) == write(table)
        m = len(header.split(","))
        fields = rows[2].split(",")
        rows[2] = ",".join(fields[:-1] if edit == "short" else fields + ["0"])
        n = m - 1 if edit == "short" else m + 1
        with pytest.raises(ValueError, match=f"^{name} row 2 has {n} fields, expected {m}$"):
            read("\n \n".join([header, *rows]) + "\n")
        with pytest.raises(ValueError, match=f"^empty {name} file$"):
            read(" \n\n")


class TestBloch:
    def test_zero_schedule_stays_north(self):
        ctrl = nearest_neighbor_control_set(2)
        res = propagate(ctrl, zero_schedule(8, 2))
        traj = bloch_trajectory(res, 1 / 8)
        assert np.allclose(traj[:, 1:], np.tile([0.0, 0.0, 1.0], (9, 1)), atol=1e-14)

    def test_pi_half_x_rotation_endpoint(self):
        ctrl = nearest_neighbor_control_set(2)
        amps = np.zeros((32, 2))
        amps[:, 0] = np.pi / 4  # total angle pi/4 -> Rx(pi/2) on the sphere
        res = propagate(ctrl, PulseSchedule.from_amplitudes(amps))
        traj = bloch_trajectory(res, 1 / 32)
        assert np.allclose(traj[-1, 1:], [0.0, -1.0, 0.0], atol=1e-12)

    def test_rows_are_pure_states(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        res = propagate(ctrl, PulseSchedule.from_amplitudes(rng.standard_normal((50, 2))))
        traj = bloch_trajectory(res, 1 / 50)
        norms = np.sum(traj[:, 1:] ** 2, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10

    def test_csv_round_trip(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        res = propagate(ctrl, PulseSchedule.from_amplitudes(rng.standard_normal((5, 2))))
        traj = bloch_trajectory(res, 1 / 5)
        text = bloch_to_csv(traj)
        assert text.startswith("t,x,y,z\n")
        assert np.array_equal(np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1), traj)

    def test_rejects_higher_dims(self):
        ctrl = nearest_neighbor_control_set(3)
        res = propagate(ctrl, zero_schedule(4, ctrl.n_controls))
        with pytest.raises(ValueError):
            bloch_trajectory(res, 0.25)
