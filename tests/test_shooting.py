from collections import namedtuple
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import magicarp.optimizer as optimizer
import magicarp.shooting as shooting
from magicarp.propagation import PulseSchedule, exp_divided_differences
from magicarp.qudit import AdjointMatrix, ControlSet, nearest_neighbor_control_set, target_gate
from magicarp.shooting import (
    ENVELOPE_FLOOR,
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

from conftest import same_bits

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


STOP_REASONS = ("tol", "stall", "max_iters", "line_search")


def first_seed_by_stop(ctx, seeds):
    """{stop reason: the first of the seeds whose run ends on it}.

    At a plateau rounding decides between ``stall`` and ``line_search``, so
    tests search a fixed seed range for a run ending on each reason rather
    than pin one seed per reason.
    """
    found = {}
    for report in restarted_optimize(ctx, seeds):
        found.setdefault(report.stop_reason, report.seed)
    return found


@lru_cache(maxsize=None)
def qft2_stops(mode, n_steps):
    return first_seed_by_stop(context(target="qft", mode=mode, n_steps=n_steps, max_iters=300), range(32))


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


# -- reference loops: the pulse construction with its step kernel on
# numpy's eigh wrapper, forming H_n = sum_k v_k H_k from the structural
# amplitudes at every step and copying each step into its batch-major tape,
# and the backward sweep carrying U_bar itself with one g_bar einsum per row.
# The library's forward pass must match the loop to rounding, and its
# backward pass the loop's on the same tape to 1e-13.

LoopTape = namedtuple("LoopTape", "g amplitudes unitaries v c0 w q steps")


def _transposed_flat(hamiltonians):
    k, d, _ = hamiltonians.shape
    return hamiltonians.swapaxes(-1, -2).reshape(k, d * d).T


def loop_step_eigensystems(h, dt):
    w, q = np.linalg.eigh(h)
    phases = np.exp(-1j * dt * w)
    return w, q, (q * phases[..., None, :]) @ q.conj().swapaxes(-1, -2)


def loop_structural_amplitudes(g_t, hams_t):
    b, d, _ = g_t.shape
    return 0.5 * (g_t.reshape(b, 1, d * d) @ hams_t)[:, 0].real


def loop_construct_batch(coeff_batch, controls, n_steps, mode, basis, keep_tape=False):
    coeff_batch = np.atleast_2d(np.asarray(coeff_batch, dtype=float))
    b = coeff_batch.shape[0]
    d = controls.dim
    k = controls.n_controls
    dt = 1.0 / n_steps
    hams = controls.hamiltonians
    renorm = mode == "time_optimal_renormalized"

    g = np.einsum("bm,mij->bij", coeff_batch, basis.generators)
    u_now = np.broadcast_to(np.eye(d, dtype=complex), (b, d, d)).copy()
    amps = np.empty((b, n_steps, k))
    valid = np.ones(b, dtype=bool)
    if keep_tape:
        units = np.empty((b, n_steps + 1, d, d), dtype=complex)
        v_n = np.empty((b, n_steps, k))
        w_n = np.empty((b, n_steps, d))
        q_n = np.empty((b, n_steps, d, d), dtype=complex)
        p_n = np.empty((b, n_steps, d, d), dtype=complex)

    hams_t = _transposed_flat(hams)
    v = loop_structural_amplitudes(g, hams_t)
    c0 = np.linalg.norm(v, axis=1)
    if renorm:
        valid &= c0 >= ENVELOPE_FLOOR
    for n in range(n_steps):
        if n > 0:
            g_t = u_now @ g @ u_now.conj().swapaxes(-1, -2)
            v = loop_structural_amplitudes(g_t, hams_t)
        if renorm and n > 0:
            norms = np.linalg.norm(v, axis=1)
            valid &= norms >= ENVELOPE_FLOOR
            u = v * (c0 / np.where(norms < ENVELOPE_FLOOR, 1.0, norms))[:, None]
        else:
            u = v
        amps[:, n] = u
        w, q, step = loop_step_eigensystems(np.einsum("bk,kij->bij", u, hams), dt)
        if keep_tape:
            units[:, n], v_n[:, n], w_n[:, n], q_n[:, n], p_n[:, n] = u_now, v, w, q, step
        u_now = step @ u_now
    tape = None
    if keep_tape:
        units[:, n_steps] = u_now
        tape = LoopTape(g, amps, units, v_n, c0, w_n, q_n, p_n)
    return amps, u_now, valid, tape


def loop_backward(tape, context):
    d = context.controls.dim
    hams = context.controls.hamiltonians
    b, n_steps, k = tape.v.shape
    renorm = context.config.mode == "time_optimal_renormalized"
    dt = 1.0 / n_steps
    units = tape.unitaries[:, :-1]
    q, q_dag = tape.q, tape.q.conj().swapaxes(-1, -2)

    phi = exp_divided_differences(tape.w, dt)
    qu = q_dag @ units
    h_eig = q_dag[:, :, None] @ hams @ q[:, :, None]
    h_eig_t = h_eig.swapaxes(-1, -2).reshape(b, n_steps, k, d * d)
    ug = units @ tape.g[:, None]
    p_dag = tape.steps.conj().swapaxes(-1, -2)
    hams_flat = hams.reshape(k, d * d)

    overlap = np.sum((context.target.conj() * tape.unitaries[:, -1]).reshape(b, d * d), axis=1)
    u_bar = (-2.0 * overlap / d**2)[:, None, None] * context.target
    v_bar = np.empty((b, n_steps, k))
    c0_bar = np.zeros(b)
    for n in range(n_steps - 1, -1, -1):
        m = (qu[:, n] @ (u_bar.conj().swapaxes(-1, -2) @ q[:, n])) * phi[:, n]
        a_bar = (h_eig_t[:, n] @ m.reshape(b, d * d, 1))[..., 0].real
        if renorm:
            vn = tape.v[:, n]
            if n > 0:
                norm = np.sqrt(shooting._dots(vn, vn))
                proj = shooting._dots(vn, a_bar) / norm
                c0_bar += proj
                a_bar = (tape.c0 / norm)[:, None] * (a_bar - (proj / norm)[:, None] * vn)
            else:
                a_bar = a_bar + (c0_bar / tape.c0)[:, None] * vn
        v_bar[:, n] = a_bar
        if n > 0:
            s = (a_bar[:, None] @ hams_flat).reshape(b, d, d)
            u_bar = p_dag[:, n] @ u_bar + s @ ug[:, n]

    s_all = (v_bar @ hams_flat).reshape(b, n_steps, d, d)
    grads = np.empty((b, context.n_params))
    for i in range(b):
        g_bar = 0.5 * np.einsum("nji,njk,nkl->il", units[i].conj(), s_all[i], units[i])
        grads[i] = np.einsum("mij,ji->m", context.basis.generators, g_bar).real
    return grads


def dense_controls(d, seed):
    """2(d-1) random dense traceless Hermitian controls."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2 * (d - 1), d, d)) + 1j * rng.standard_normal((2 * (d - 1), d, d))
    hams = a + a.conj().swapaxes(-1, -2)
    hams -= np.trace(hams, axis1=1, axis2=2)[:, None, None] / d * np.eye(d)
    return ControlSet(d, hams)


def rel_err(got, ref):
    """||got - ref|| / ||ref|| (0 when both are zero)."""
    scale = np.linalg.norm(ref)
    return np.linalg.norm(got - ref) / scale if scale else np.linalg.norm(got)


def phase_aligned(q, ref):
    """Eigenvectors q with each column's phase turned onto the matching column of ref.

    An eigenvector is defined up to a phase, and ``eigh`` may pick another
    one for a matrix that differs by rounding; P_n and the gradient do not
    depend on it.
    """
    overlap = np.sum(ref.conj() * q, axis=-2, keepdims=True)
    return q * (overlap.conj() / np.abs(overlap))


def as_loop_tape(tape):
    """The library's step-major tape in the reference loop's batch-major layout."""
    batch_major = {name: getattr(tape, name) for name in ("g", "c0")}
    step_major = {
        name: np.swapaxes(getattr(tape, name), 0, 1)
        for name in ("amplitudes", "unitaries", "w", "q", "steps")
    }
    # an energy-optimal tape keeps no v: its pulses are their structural amplitudes
    v = step_major["amplitudes"] if tape.v is None else np.swapaxes(tape.v, 0, 1)
    return LoopTape(v=v, **batch_major, **step_major)


class TestStepLoopOracle:
    # the construction forms H_n in one product of the evolved adjoint, which
    # sums in another order than the loop; the self-iterative feedback
    # amplifies that rounding, most with dense controls
    RTOL = {"nearest_neighbor": 1e-12, "dense": 1e-9}

    @pytest.mark.parametrize("kind", ["nearest_neighbor", "dense"])
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_forward_to_rounding_and_backward_to_1e_13(self, d, mode, kind):
        controls = nearest_neighbor_control_set(d) if kind == "nearest_neighbor" else dense_controls(d, d)
        ctx = ShootingContext(controls=controls, target=target_gate("qft", d), config=MagicarpConfig(mode=mode, n_steps=12))
        rtol = self.RTOL[kind]
        points = np.random.default_rng(10 * d).standard_normal((3, d * d - 1))
        for batch in (points, points[1:2]):
            _, ref_final, ref_valid, ref_tape = loop_construct_batch(batch, controls, 12, mode, ctx.basis, True)
            for keep_tape in (False, True):  # the checks below read the tape of the second pass
                final, valid, tape = shooting._construct_batch(batch, controls, 12, mode, ctx.basis, keep_tape)
                assert rel_err(final, ref_final) <= rtol
                assert same_bits(valid, ref_valid)
            loop_tape = as_loop_tape(tape)
            assert same_bits(loop_tape.g, ref_tape.g)
            for name in ("amplitudes", "unitaries", "c0", "w", "steps"):
                assert rel_err(getattr(loop_tape, name), getattr(ref_tape, name)) <= rtol, name
            assert rel_err(phase_aligned(loop_tape.q, ref_tape.q), ref_tape.q) <= rtol
            # energy-optimal pulses are their structural amplitudes; the tape keeps them once
            assert tape.v is None if mode == "energy_optimal" else rel_err(loop_tape.v, ref_tape.v) <= rtol
            ref = loop_backward(loop_tape, ctx)
            assert np.linalg.norm(shooting._backward(tape, ctx) - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("mode", MODES)
    def test_objective_equals_the_tape_keeping_pass(self, mode):
        # a value accepted from a ladder (no tape) equals the held pass's value
        ctx = context(d=3, target="qft", mode=mode, n_steps=16)
        points = np.random.default_rng(8).standard_normal((4, 8))
        assert same_bits(batch_objective(points, ctx), shooting._forward(points, ctx)[0])

    def test_degenerate_rows_flagged_alike(self):
        ctx = context(d=3, target="qft", mode="time_optimal_renormalized", n_steps=6)
        points = np.random.default_rng(4).standard_normal((3, 8))
        points[1] = 0.0
        ref = loop_construct_batch(points, ctx.controls, 6, ctx.config.mode, ctx.basis)
        _, valid, tape = shooting._construct_batch(points, ctx.controls, 6, ctx.config.mode, ctx.basis, True)
        assert list(valid) == list(ref[2]) == [True, False, True]
        assert rel_err(tape.amplitudes.swapaxes(0, 1), ref[0]) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("mode", MODES)
    def test_eigh_failure_raises_linalg_error(self, mode, value):
        # numpy's eigh wrapper is bypassed; its failure must still raise, with no warning
        ctx = context(d=4, target="qft", mode=mode, n_steps=8)
        point = np.full((1, 15), value)
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            batch_objective(point, ctx)
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            shooting._forward(point, ctx)


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

    @pytest.mark.parametrize("stop", STOP_REASONS)
    @pytest.mark.parametrize("mode", MODES)
    def test_report_pulse_equals_a_fresh_construction(self, mode, stop):
        # the report reuses the last forward pass; it must be the pulse of final_g.
        # A run on QFT(2), max_iters = 300, 1-4 steps and seeds 0..31, for each
        # stop reason; the line-search stops reject an evaluated rung 0, so the
        # report rebuilds at x
        n_steps = next((n for n in (1, 2, 3, 4) if stop in qft2_stops(mode, n)), None)
        assert n_steps is not None, f"no {mode} run ends on {stop}"
        seed = qft2_stops(mode, n_steps)[stop]
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
    # QFT(3) (mode, n_steps, max_iters) whose seeds 0..23 end on all four stop reasons
    MIXED = [("energy_optimal", 3, 80), ("time_optimal_renormalized", 2, 100)]

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
        seeds = list(first_seed_by_stop(ctx, range(24)).values())  # one seed per reason found
        reports = restarted_optimize(ctx, seeds)
        assert {r.stop_reason for r in reports} == set(STOP_REASONS)
        self.assert_lone(ctx, seeds, reports)

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

    @pytest.mark.parametrize("field", ["convergence_tol", "stall_tol", "init_sigma"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: expected a positive finite number"):
            MagicarpConfig(**{field: value})

    @pytest.mark.parametrize("coeffs", [(np.nan, 0.0, 0.0), (0.0, -np.inf, 0.0)])
    def test_non_finite_init_coeffs_rejected(self, coeffs):
        with pytest.raises(ValueError, match="^init_coeffs: expected finite coefficients"):
            MagicarpConfig(init="explicit", init_coeffs=coeffs)
