from dataclasses import replace

import numpy as np
import pytest

import magicarp.optimizer as optimizer
import magicarp.shooting as shooting
from magicarp.propagation import PulseSchedule
from magicarp.qudit import AdjointMatrix, ControlSet, nearest_neighbor_control_set, target_gate
from magicarp.shooting import (
    MODES,
    DegenerateEnvelopeError,
    GradientProbeError,
    MagicarpConfig,
    ShootingContext,
    adjoint_from_dict,
    adjoint_to_dict,
    batch_objective,
    gradient,
    initial_coeffs,
    objective,
    optimality_certificate,
    optimize,
    pulses_from_adjoint,
    report_to_dict,
    restarted_optimize,
    reverse_gradient,
    run_restarts,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def context(d=2, target="hadamard", mode="energy_optimal", n_steps=32, **kw):
    return ShootingContext(
        controls=nearest_neighbor_control_set(d),
        target=target_gate(target, d),
        config=MagicarpConfig(mode=mode, n_steps=n_steps, **kw),
    )


def coeffs_from_matrix(m, d=2):
    return AdjointMatrix.from_matrix(m).coeffs


class TestPulsesFromAdjoint:
    def test_zero_adjoint_gives_identity(self):
        ctrl = nearest_neighbor_control_set(2)
        g = AdjointMatrix(2, np.zeros(3))
        schedule, res = pulses_from_adjoint(g, ctrl, 16, "energy_optimal")
        assert np.all(schedule.amplitudes == 0.0)
        assert np.allclose(res.final, np.eye(2), atol=1e-15)
        assert res.duration == 0.0

    def test_initial_amplitudes_from_trace_pairing(self):
        # g = sigma_x picks out u_x(0) = 1, u_y(0) = 0
        ctrl = nearest_neighbor_control_set(2)
        g = AdjointMatrix.from_matrix(SX)
        schedule, _ = pulses_from_adjoint(g, ctrl, 8, "energy_optimal")
        assert schedule.amplitudes[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert schedule.amplitudes[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_uncontrolled_adjoint_gives_zero_pulse(self):
        # g along sigma_z is trace-orthogonal to both controls and stays so
        ctrl = nearest_neighbor_control_set(2)
        g = AdjointMatrix.from_matrix(1.7 * SZ)
        schedule, res = pulses_from_adjoint(g, ctrl, 64, "energy_optimal")
        assert np.max(np.abs(schedule.amplitudes)) <= 1e-14
        assert np.allclose(res.final, np.eye(2), atol=1e-13)

    def test_renormalized_mode_rejects_degenerate_envelope(self):
        ctrl = nearest_neighbor_control_set(2)
        g = AdjointMatrix.from_matrix(1.7 * SZ)
        with pytest.raises(DegenerateEnvelopeError):
            pulses_from_adjoint(g, ctrl, 16, "time_optimal_renormalized")

    def test_renormalized_mode_has_constant_envelope(self, rng):
        ctrl = nearest_neighbor_control_set(3)
        g = AdjointMatrix(3, rng.standard_normal(8))
        schedule, res = pulses_from_adjoint(g, ctrl, 64, "time_optimal_renormalized")
        env = schedule.envelope
        assert np.max(np.abs(env - env[0])) <= 1e-12 * env[0]
        # initial step keeps the raw structural amplitudes
        v0 = 0.5 * np.einsum("ij,kji->k", g.to_matrix(), ctrl.hamiltonians).real
        assert np.allclose(schedule.amplitudes[0], v0, atol=1e-15)
        assert res.duration == pytest.approx(env[0], rel=1e-12)

    def test_modes_share_initial_step(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        g = AdjointMatrix(2, rng.standard_normal(3))
        s_energy, _ = pulses_from_adjoint(g, ctrl, 8, "energy_optimal")
        s_renorm, _ = pulses_from_adjoint(g, ctrl, 8, "time_optimal_renormalized")
        assert np.array_equal(s_energy.amplitudes[0], s_renorm.amplitudes[0])

    def test_initial_amplitude_scaling_covariance(self, rng):
        # energy mode: u(0) is exactly linear in g
        ctrl = nearest_neighbor_control_set(2)
        c = rng.standard_normal(3)
        s = 3.7
        a1, _ = pulses_from_adjoint(AdjointMatrix(2, c), ctrl, 8, "energy_optimal")
        a2, _ = pulses_from_adjoint(AdjointMatrix(2, s * c), ctrl, 8, "energy_optimal")
        assert np.allclose(a2.amplitudes[0], s * a1.amplitudes[0], rtol=1e-13)

    def test_dimension_mismatch(self):
        ctrl = nearest_neighbor_control_set(3)
        with pytest.raises(ValueError):
            pulses_from_adjoint(AdjointMatrix(2, np.zeros(3)), ctrl, 8)


class TestObjective:
    def test_identity_target_zero_adjoint(self):
        assert objective(np.zeros(3), context(target="identity")) == 0.0

    def test_hadamard_zero_adjoint(self):
        # U stays identity and the Hadamard is traceless: 1 - |Tr H|^2/4 = 1
        assert objective(np.zeros(3), context(target="hadamard")) == pytest.approx(1.0, abs=1e-15)

    def test_deterministic(self, rng):
        ctx = context(d=3, target="qft")
        x = rng.standard_normal(8)
        assert objective(x, ctx) == objective(x, ctx)

    def test_batch_matches_scalar(self, rng):
        ctx = context(d=2, target="qft", mode="time_optimal_renormalized")
        xs = rng.standard_normal((5, 3))
        batch = batch_objective(xs, ctx)
        for i in range(5):
            assert batch[i] == objective(xs[i], ctx)

    def test_degenerate_envelope_raises(self):
        ctx = context(mode="time_optimal_renormalized")
        with pytest.raises(DegenerateEnvelopeError):
            objective(coeffs_from_matrix(SZ), ctx)


class TestGradient:
    def test_zero_at_global_minimum(self):
        g = gradient(np.zeros(3), context(target="identity"))
        assert np.allclose(g, 0.0, atol=1e-10)

    def test_output_dimension_is_d_squared_minus_one(self):
        for d in (2, 3):
            ctx = context(d=d, target="qft", n_steps=8)
            g = gradient(np.full(d * d - 1, 0.3), ctx)
            assert g.shape == (d * d - 1,)
        assert gradient(np.full(3, 0.3), context(n_steps=8)).shape == (3,)

    def test_matches_forward_differences(self, rng):
        ctx = context(d=2, target="qft", n_steps=16)
        x = rng.standard_normal(3)
        h = 1e-5
        central = gradient(x, ctx, step=h)
        forward = np.array(
            [
                (objective(x + h * e, ctx) - objective(x, ctx)) / h
                for e in np.eye(3)
            ]
        )
        assert np.linalg.norm(central - forward) <= 10 * h * max(np.linalg.norm(central), 1.0)

    @pytest.mark.parametrize("d,h", [(2, 1e-2), (2, 1e-3), (3, 1e-2), (3, 1e-3)])
    def test_five_point_stencil_consistency(self, d, h, rng):
        ctx = context(d=d, target="qft", n_steps=16)
        m = d * d - 1
        x = rng.standard_normal(m)
        eye = np.eye(m)
        probes = np.vstack([x + h * eye, x - h * eye, x + 2 * h * eye, x - 2 * h * eye])
        v = batch_objective(probes, ctx)
        f1, f_1, f2, f_2 = v[:m], v[m : 2 * m], v[2 * m : 3 * m], v[3 * m :]
        central = (f1 - f_1) / (2 * h)
        five_point = (-f2 + 8 * f1 - 8 * f_1 + f_2) / (12 * h)
        rel = np.linalg.norm(central - five_point) / np.linalg.norm(five_point)
        assert rel <= 10 * h * h

    def test_exactly_2m_objective_evaluations(self, monkeypatch):
        calls = []
        real = shooting.batch_objective

        def spy(xs, ctx):
            calls.append(np.atleast_2d(xs).shape[0])
            return real(xs, ctx)

        monkeypatch.setattr(shooting, "batch_objective", spy)
        ctx = context(d=3, target="qft", n_steps=8)
        gradient(np.full(8, 0.2), ctx)
        assert calls == [2 * 8]

    def test_non_finite_probe_raises_with_coeffs(self, monkeypatch):
        ctx = context(d=2, n_steps=8)

        def bad(xs, _ctx):
            values = np.zeros(np.atleast_2d(xs).shape[0])
            values[3] = np.inf
            return values

        monkeypatch.setattr(shooting, "batch_objective", bad)
        with pytest.raises(GradientProbeError) as err:
            gradient(np.zeros(3), ctx)
        assert err.value.coeffs.shape == (3,)


class TestReverseGradient:
    @pytest.mark.parametrize("mode", ["energy_optimal", "time_optimal_renormalized"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_central_differences(self, d, mode):
        ctx = context(d=d, target="qft", mode=mode, n_steps=16)
        rng = np.random.default_rng(1000 + d)
        for _ in range(3):
            x = rng.standard_normal(d * d - 1)
            reference = gradient(x, ctx)
            rel = np.linalg.norm(reverse_gradient(x, ctx) - reference) / np.linalg.norm(reference)
            assert rel <= 1e-6

    def test_zero_at_global_minimum(self):
        assert np.allclose(reverse_gradient(np.zeros(3), context(target="identity")), 0.0, atol=1e-14)

    def test_degenerate_envelope_raises(self):
        with pytest.raises(DegenerateEnvelopeError):
            reverse_gradient(coeffs_from_matrix(SZ), context(mode="time_optimal_renormalized"))


class TestOptimize:
    def test_identity_target_converges(self):
        report = optimize(context(target="identity", n_steps=16, seed=11))
        assert report.converged
        assert report.infidelity <= 1e-7

    def test_parameter_count_contract(self):
        for d in (2, 3, 4, 5, 6):
            cfg = MagicarpConfig(seed=1)
            assert initial_coeffs(cfg, d * d - 1).shape == (d * d - 1,)
        report = optimize(context(target="identity", n_steps=8, seed=2))
        assert report.final_g.coeffs.shape == (3,)

    def test_same_seed_bitwise_identical_trace(self):
        ctx = context(d=2, target="qft", n_steps=32, seed=97, max_iters=60)
        r1, r2 = optimize(ctx), optimize(ctx)
        assert r1.cost_trace == r2.cost_trace
        assert np.array_equal(r1.final_g.coeffs, r2.final_g.coeffs)
        assert r1.infidelity == r2.infidelity

    def test_trace_monotone_and_infidelity_is_last(self):
        report = optimize(context(d=2, target="qft", n_steps=32, seed=5, max_iters=80))
        assert np.all(np.diff(report.cost_trace) <= 0)
        assert report.infidelity == report.cost_trace[-1]

    def test_stop_reason_carried(self):
        converged = optimize(context(target="identity", n_steps=16, seed=11))
        assert converged.stop_reason == "tol"
        budget = optimize(context(d=3, target="qft", n_steps=8, seed=4, max_iters=1))
        assert budget.iterations == 1
        assert budget.stop_reason == "max_iters"
        assert "stop_reason" not in report_to_dict(budget)

    def test_never_uses_finite_differences(self, monkeypatch):
        def no_fd(*args, **kwargs):
            raise AssertionError("optimize called the finite-difference gradient")

        rows = []
        real = shooting.batch_objective

        def spy(xs, ctx):
            rows.append(np.atleast_2d(xs).shape[0])
            return real(xs, ctx)

        monkeypatch.setattr(shooting, "gradient", no_fd)
        monkeypatch.setattr(shooting, "batch_objective", spy)
        d = 3
        report = optimize(context(d=d, target="qft", n_steps=16, seed=7, max_iters=40))
        assert report.iterations > 0
        assert 2 * (d * d - 1) not in rows

    def test_gradient_reuses_accepted_rung_zero(self, monkeypatch):
        # one B = 1 construction per single-rung test (rung 0, and rung 1 after a
        # rejection): the gradient at an accepted single rung reuses its forward
        # pass; a wider ladder costs one more, at its accepted rung
        sizes, single_rungs = [], []
        real = shooting._construct_batch
        real_armijo = optimizer._first_armijo

        def spy(coeff_batch, *args):
            sizes.append(np.atleast_2d(coeff_batch).shape[0])
            return real(coeff_batch, *args)

        def armijo(alphas, *args):
            if len(alphas) == 1:
                single_rungs.append(alphas[0])
            return real_armijo(alphas, *args)

        monkeypatch.setattr(shooting, "_construct_batch", spy)
        monkeypatch.setattr(optimizer, "_first_armijo", armijo)
        report = optimize(context(d=3, target="qft", n_steps=16, seed=7))
        assert report.stop_reason == "tol"
        wide = sum(1 for b in sizes if b > 1)
        assert len(single_rungs) > report.iterations  # some rung 0 was rejected
        # x0, one per single rung, one per wider ladder; the report reuses the last
        assert sizes.count(1) == 1 + len(single_rungs) + wide
        assert report.forward_points == sum(sizes)
        assert report.backward_passes == report.iterations + 1

    # (mode, n_steps, seed) -> stop reason, on QFT(2) with max_iters = 300; the
    # line-search stops reject an evaluated rung 0, so the report rebuilds at x
    STOPS = [
        ("energy_optimal", 4, 0, "tol"),
        ("energy_optimal", 2, 2, "max_iters"),
        ("energy_optimal", 1, 0, "stall"),
        ("energy_optimal", 3, 3, "line_search"),
        ("time_optimal_renormalized", 2, 0, "tol"),
        ("time_optimal_renormalized", 3, 14, "max_iters"),
        ("time_optimal_renormalized", 1, 0, "stall"),
        ("time_optimal_renormalized", 1, 1, "line_search"),
    ]

    @pytest.mark.parametrize("mode,n_steps,seed,stop", STOPS)
    def test_report_pulse_equals_a_fresh_construction(self, mode, n_steps, seed, stop):
        # the report reuses the last forward pass; it must be the pulse of final_g
        ctx = context(target="qft", mode=mode, n_steps=n_steps, seed=seed, max_iters=300)
        report = optimize(ctx)
        assert report.stop_reason == stop
        schedule, prop = pulses_from_adjoint(report.final_g, ctx.controls, n_steps, mode)
        assert np.array_equal(report.final_schedule.amplitudes, schedule.amplitudes)
        assert report.duration == prop.duration

    def test_explicit_init(self):
        ctx = context(
            target="identity",
            n_steps=8,
            init="explicit",
            init_coeffs=(0.1, -0.2, 0.05),
            max_iters=50,
        )
        report = optimize(ctx)
        assert report.converged

    def test_explicit_init_wrong_length(self):
        with pytest.raises(ValueError):
            optimize(context(target="identity", init="explicit", init_coeffs=(0.1, 0.2)))


class TestLockstep:
    # QFT(3) (mode, n_steps, max_iters) whose seeds 0..11 end on all four stop reasons
    MIXED = [("energy_optimal", 3, 80), ("time_optimal_renormalized", 2, 80)]

    @staticmethod
    def assert_lone(ctx, seeds, reports):
        for seed, report in zip(seeds, reports):
            lone = optimize(replace(ctx, config=replace(ctx.config, seed=seed)))
            assert np.array_equal(report.cost_trace, lone.cost_trace)
            assert np.array_equal(report.final_g.coeffs, lone.final_g.coeffs)
            assert np.array_equal(report.final_schedule.amplitudes, lone.final_schedule.amplitudes)
            assert (report.stop_reason, report.seed, report.duration) == (lone.stop_reason, seed, lone.duration)
            assert (report.forward_points, report.backward_passes) == (lone.forward_points, lone.backward_passes)

    @pytest.mark.parametrize("mode,n_steps,max_iters", MIXED)
    def test_group_mixing_every_stop_reason_equals_lone_runs(self, mode, n_steps, max_iters):
        ctx = context(d=3, target="qft", mode=mode, n_steps=n_steps, max_iters=max_iters)
        reports = restarted_optimize(ctx, range(12))
        assert {r.stop_reason for r in reports} == {"tol", "stall", "max_iters", "line_search"}
        self.assert_lone(ctx, range(12), reports)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_group_equals_lone_runs(self, d, mode):
        ctx = context(d=d, target="qft", mode=mode, n_steps=16, max_iters=60)
        seeds = [3, 1, 4, 15, 9]
        self.assert_lone(ctx, seeds, run_restarts(ctx, seeds))

    def test_group_equals_lone_runs_with_dense_controls(self):
        # every product sums in an order that does not depend on the batch,
        # also where the controls are not sparse Pauli pairs
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        hams = a + a.conj().swapaxes(-1, -2)
        hams -= np.trace(hams, axis1=1, axis2=2)[:, None, None] / 3 * np.eye(3)
        ctx = ShootingContext(
            controls=ControlSet(3, hams),
            target=target_gate("qft", 3),
            config=MagicarpConfig(n_steps=16, max_iters=40),
        )
        self.assert_lone(ctx, range(4), run_restarts(ctx, range(4)))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_batched_backward_rows_equal_lone_passes(self, d, mode):
        ctx = context(d=d, target="qft", mode=mode, n_steps=12)
        points = np.random.default_rng(d).standard_normal((5, d * d - 1))
        values, tape = shooting._forward(points, ctx)
        grads = shooting._backward(tape, ctx)
        assert grads.shape == (5, d * d - 1)
        for i, x in enumerate(points):
            value, lone = shooting._forward(x[None], ctx)
            assert values[i] == value[0]
            assert np.array_equal(grads[i], shooting._backward(lone, ctx)[0])
        # rows gathered out of order give the same rows
        gathered = shooting._Tape.rows([(tape, 3), (lone, 0), (tape, 1)])
        assert np.array_equal(shooting._backward(gathered, ctx), grads[[3, 4, 1]])

    def test_failed_restart_is_returned_and_raised(self):
        # a zero-envelope start: the objective is not finite at the initial point
        ctx = context(mode="time_optimal_renormalized", init="explicit", init_coeffs=tuple(coeffs_from_matrix(SZ)))
        outcomes = run_restarts(ctx, [0, 1])
        assert all(isinstance(o, ValueError) for o in outcomes)
        with pytest.raises(ValueError, match="not finite at the initial point"):
            optimize(ctx)
        with pytest.raises(ValueError, match="not finite at the initial point"):
            restarted_optimize(ctx, [0, 1])

    def test_restarts_beyond_one_group(self, monkeypatch):
        monkeypatch.setattr(shooting, "LOCKSTEP_WIDTH", 2)
        ctx = context(target="qft", n_steps=8, max_iters=30)
        reports = restarted_optimize(ctx, range(5))
        assert [r.seed for r in reports] == list(range(5))
        self.assert_lone(ctx, range(5), reports)


class TestCertificate:
    def test_renormalized_self_consistency(self):
        # adjoint inside the control span keeps the renormalization factors
        # at one, so the fit must be essentially exact and proportional to g
        ctrl = nearest_neighbor_control_set(2)
        g = AdjointMatrix.from_matrix(1.3 * SX - 0.6 * SY)
        schedule, _ = pulses_from_adjoint(g, ctrl, 64, "time_optimal_renormalized")
        cert = optimality_certificate(schedule, ctrl)
        assert cert.residual <= 1e-6
        ratio = cert.g_fit.coeffs[:2] / g.coeffs[:2]
        assert ratio[0] == pytest.approx(ratio[1], rel=1e-8)

    def test_single_step_schedule_fits_exactly(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        schedule = PulseSchedule.from_amplitudes(rng.standard_normal((1, 2)))
        cert = optimality_certificate(schedule, ctrl)
        assert cert.residual <= 1e-12

    def test_constant_pulse_certifies(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        amps = np.tile(rng.standard_normal(2), (32, 1))
        cert = optimality_certificate(PulseSchedule.from_amplitudes(amps), ctrl)
        assert cert.residual <= 1e-10

    def test_random_schedule_does_not_certify(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        schedule = PulseSchedule.from_amplitudes(rng.standard_normal((32, 2)) * 2.0)
        cert = optimality_certificate(schedule, ctrl)
        assert cert.residual > 1e-3

    def test_all_zero_schedule_rejected(self):
        ctrl = nearest_neighbor_control_set(2)
        with pytest.raises(ValueError):
            optimality_certificate(PulseSchedule.from_amplitudes(np.zeros((8, 2))), ctrl)

    def test_zero_envelope_steps_excluded_and_counted(self, rng):
        ctrl = nearest_neighbor_control_set(2)
        amps = np.tile(rng.standard_normal(2), (8, 1))
        amps[3] = 0.0
        cert = optimality_certificate(PulseSchedule.from_amplitudes(amps), ctrl)
        assert cert.n_excluded == 1


class TestSerialization:
    def test_adjoint_json_round_trip(self, rng):
        g = AdjointMatrix(3, rng.standard_normal(8))
        back = adjoint_from_dict(adjoint_to_dict(g))
        assert back.dim == 3
        assert np.array_equal(back.coeffs, g.coeffs)

    def test_adjoint_rejects_unknown_basis(self):
        with pytest.raises(ValueError):
            adjoint_from_dict({"dim": 2, "basis": "pauli", "coeffs": [1, 2, 3]})

    def test_report_dict_shape(self):
        report = optimize(context(target="identity", n_steps=8, seed=3, max_iters=30))
        data = report_to_dict(report)
        assert set(data) == {
            "final_g",
            "final_schedule",
            "infidelity",
            "duration",
            "cost_trace",
            "iterations",
            "converged",
            "seed",
            "wall_time",
        }
        assert data["wall_time"] is None
        assert data["final_g"]["basis"] == "gell-mann"
        assert len(data["final_schedule"]["amplitudes"]) == 8


class TestConfigValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            MagicarpConfig(mode="bolza")

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            MagicarpConfig(n_steps=0)

    def test_explicit_requires_coeffs(self):
        with pytest.raises(ValueError):
            MagicarpConfig(init="explicit")

    @pytest.mark.parametrize(
        "field,value",
        [("max_iters", 0), ("convergence_tol", 0.0), ("init_sigma", 0.0), ("seed", -1), ("init_coeffs", ())],
    )
    def test_message_starts_with_field(self, field, value):
        explicit = {"init": "explicit"} if field == "init_coeffs" else {}
        with pytest.raises(ValueError, match=f"^{field}: "):
            MagicarpConfig(**explicit, **{field: value})
