import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from magicarp.propagation import (
    PulseSchedule,
    accumulate,
    bloch_from_csv,
    bloch_to_csv,
    bloch_trajectory,
    control_generator,
    eigh_guard,
    expm_ihermitian,
    gate_fidelity,
    normalized_infidelity,
    propagate,
    schedule_from_csv,
    schedule_to_csv,
    step_eigensystems,
    step_unitary,
    verify_adjoint_constancy,
)
from magicarp.qudit import AdjointMatrix, nearest_neighbor_control_set, unitarity_defect

from conftest import random_traceless_hermitian, random_unitary, same_bits

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def zero_schedule(n_steps: int, n_controls: int) -> PulseSchedule:
    return PulseSchedule.from_amplitudes(np.zeros((n_steps, n_controls)))


class TestPulseSchedule:
    def test_dt_consistency(self):
        s = PulseSchedule.from_amplitudes(np.ones((8, 2)))
        assert abs(s.dt * s.n_steps - 1.0) <= 1e-12

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            PulseSchedule(n_steps=4, n_controls=1, dt=0.3, amplitudes=np.ones((4, 1)))

    def test_rejects_non_finite(self):
        amps = np.ones((4, 2))
        amps[1, 0] = np.inf
        with pytest.raises(ValueError):
            PulseSchedule.from_amplitudes(amps)


class TestStepUnitary:
    def test_zero_amplitudes_is_identity(self):
        ctrl = nearest_neighbor_control_set(3)
        u = step_unitary(ctrl, np.zeros(ctrl.n_controls), 0.01)
        assert np.allclose(u, np.eye(3), atol=1e-15)

    def test_pauli_rotation_identity(self):
        ctrl = nearest_neighbor_control_set(2)
        theta = 0.7
        dt = 0.1
        u = step_unitary(ctrl, np.array([theta / dt, 0.0]), dt)
        expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * SX
        assert np.allclose(u, expected, atol=1e-13)

    def test_rejects_non_finite(self):
        ctrl = nearest_neighbor_control_set(2)
        with pytest.raises(ValueError):
            step_unitary(ctrl, np.array([np.nan, 0.0]), 0.1)
        with pytest.raises(ValueError):
            step_unitary(ctrl, np.array([1.0, 0.0]), -0.1)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_expm_and_stays_unitary(self, seed, d):
        # independent oracle: Pade-based scipy expm on the same generator
        rng = np.random.default_rng(seed)
        ctrl = nearest_neighbor_control_set(d)
        amps = rng.uniform(-10, 10, ctrl.n_controls)
        dt = rng.uniform(1e-4, 0.1)
        u = step_unitary(ctrl, amps, dt)
        ref = scipy.linalg.expm(-1j * dt * control_generator(ctrl, amps))
        assert np.linalg.norm(u - ref) <= 1e-11
        assert unitarity_defect(u) <= 1e-12


class TestStepEigensystems:
    def test_gufunc_equals_numpy_eigh_bitwise(self, rng):
        h = np.stack([random_traceless_hermitian(rng, 4) for _ in range(6)]).reshape(2, 3, 4, 4)
        w, q, _ = step_eigensystems(h, 0.1)
        w_ref, q_ref = np.linalg.eigh(h)
        assert same_bits(w, w_ref) and same_bits(q, q_ref)

    def test_writes_into_out(self, rng):
        h = np.stack([random_traceless_hermitian(rng, 3) for _ in range(4)])
        fresh = step_eigensystems(h, 0.25)
        tape = (np.empty((4, 2, 3)), np.empty((4, 2, 3, 3), dtype=complex), np.empty((4, 2, 3, 3), dtype=complex))
        out = tuple(a[:, 1] for a in tape)
        got = step_eigensystems(h, 0.25, out=out)
        for g, o, f in zip(got, out, fresh):
            assert g is o and same_bits(np.ascontiguousarray(g), f)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_failure_raises_under_the_guard(self, value):
        h = np.full((2, 4, 4), value, dtype=complex)
        with eigh_guard(), pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            step_eigensystems(h, 0.1)

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

    def test_identical_gates_zero_infidelity(self, rng):
        v = random_unitary(rng, 4)
        assert normalized_infidelity(v, v) == pytest.approx(0.0, abs=1e-12)


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
        # the reference: its own exponentials and one loop per side, as before accumulate
        ctrl = nearest_neighbor_control_set(d)
        g = AdjointMatrix(d, rng.standard_normal(d * d - 1))
        schedule = PulseSchedule.from_amplitudes(rng.standard_normal((50, ctrl.n_controls)))
        steps = expm_ihermitian(control_generator(ctrl, schedule.amplitudes), schedule.dt)
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
        assert np.array_equal(bloch_from_csv(bloch_to_csv(traj)), traj)

    def test_rejects_higher_dims(self):
        ctrl = nearest_neighbor_control_set(3)
        res = propagate(ctrl, zero_schedule(4, ctrl.n_controls))
        with pytest.raises(ValueError):
            bloch_trajectory(res, 0.25)
