"""Shooting optimizer: pulses built self-iteratively from an adjoint matrix.

The only optimization variable is the traceless Hermitian matrix g
(d^2 - 1 real coefficients). A pulse is constructed from g by interleaving
amplitude evaluation and propagation: the structural prediction at step n is

    v_k(n dt) = 1/2 Re Tr(U(n dt) g U(n dt)^dag H_k),

with U built from the amplitudes already fixed at steps 0..n-1. Two modes:

* ``energy_optimal``: amplitudes equal v directly (the stationarity
  condition for the quadratic running cost sum_k u_k^2);
* ``time_optimal_renormalized``: only the direction of v is kept and the
  envelope is pinned to its initial value c0 = ||v(0)||, so the pulse is
  constant-envelope: u(n) = c0 * v(n)/||v(n)||. Run at the hardware bound
  this is a maximally-driven pulse of duration c0/omega_max; its duration
  therefore varies with g through c0 alone. This renormalization is a
  heuristic: the exact structural equation holds only approximately, and
  ``optimality_certificate`` reports by how much.

Gradients over g are exact and reverse-mode (``reverse_gradient``). One
forward pass builds the pulse and keeps, per step, U_n, the step
eigensystems and v_n (and c0). One backward pass then walks the steps in
reverse. It pulls the cotangent of U_{n+1} through the exact derivative of
each step exponential (eigenbasis divided differences, as in GRAPE) onto the
amplitudes, then through the renormalization onto v_n, and then through the
feedback v_n(U_n g U_n^dag) onto both U_n and g. Both passes take a batch of
B points, and each row is bitwise the row of its point computed alone. The
central-difference ``gradient`` (2(d^2-1) objective evaluations) is kept
as the test reference.

``run_restarts`` is the one restart runner: it runs the BFGS generators
(``optimizer.bfgs_steps``) of several restarts in lockstep and answers
their requests with one batched forward pass, ladder and backward pass per
round. A restart keeps its last single-point forward pass, so the gradient
at an accepted rung 0 or 1 costs only the backward pass and a typical
iteration costs one forward and one backward pass. ``optimize`` is the
runner with one seed, ``restarted_optimize`` the runner over its seeds, and
campaign groups (``bench.py``) call it directly.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .optimizer import MinimizeResult, OptimizationReport, ProbeFailure, bfgs_steps
from .propagation import (
    PropagationResult,
    PulseSchedule,
    exp_divided_differences,
    propagate,
    step_eigensystems,
)
from .qudit import AdjointMatrix, ControlSet, GeneratorBasis, assert_unitary

ENVELOPE_FLOOR = 1e-14
FD_STEP = 1e-6  # step of the central-difference reference ``gradient``
LOCKSTEP_WIDTH = 32  # most restarts one lockstep group runs; bounds its tapes' memory

MODES = ("energy_optimal", "time_optimal_renormalized")


class DegenerateEnvelopeError(ProbeFailure):
    """Structural prediction vanished at some step in renormalized mode."""


class GradientProbeError(RuntimeError):
    """A finite-difference probe produced a non-finite objective."""

    def __init__(self, message: str, coeffs: np.ndarray):
        super().__init__(message)
        self.coeffs = coeffs


@dataclass(frozen=True)
class MagicarpConfig:
    mode: str = "energy_optimal"
    n_steps: int = 128
    max_iters: int = 500
    convergence_tol: float = 1e-7
    stall_tol: float = 1e-12
    init: str = "random_normal"  # "random_normal" | "explicit"
    init_sigma: float = 1.0
    init_coeffs: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        for name, ok, expected in (
            ("mode", self.mode in MODES, "|".join(MODES)),
            ("n_steps", self.n_steps >= 1, "an integer >= 1"),
            ("max_iters", self.max_iters >= 1, "an integer >= 1"),
            ("convergence_tol", self.convergence_tol > 0, "a positive number"),
            ("stall_tol", self.stall_tol > 0, "a positive number"),
            ("init", self.init in ("random_normal", "explicit"), "random_normal|explicit"),
            ("init_sigma", self.init_sigma > 0, "a positive number"),
            (
                "init_coeffs",
                self.init != "explicit" or self.init_coeffs is not None and len(self.init_coeffs) > 0,
                "coefficients for explicit init",
            ),
            ("seed", 0 <= self.seed < 2**64, "a 64-bit unsigned integer"),
        ):
            if not ok:
                raise ValueError(f"{name}: expected {expected}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class ShootingContext:
    """Problem instance: controls, target gate, and the run configuration."""

    controls: ControlSet
    target: np.ndarray
    config: MagicarpConfig
    basis: GeneratorBasis = field(init=False, repr=False)

    def __post_init__(self):
        target = assert_unitary(self.target)
        if target.shape[0] != self.controls.dim:
            raise ValueError(
                f"target dimension {target.shape[0]} != control dimension {self.controls.dim}"
            )
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "basis", GeneratorBasis.create(self.controls.dim))

    @property
    def n_params(self) -> int:
        return self.controls.dim ** 2 - 1


def _structural_amplitudes(g_t: np.ndarray, hams_t: np.ndarray) -> np.ndarray:
    """v_k = 1/2 Re Tr(g_t H_k) for a batch of evolved adjoints (B, d, d).

    ``hams_t`` is (d^2, K), column k the flattened transpose of H_k
    (``_transposed_flat``). One (1, d^2) @ (d^2, K) product per point, so a
    row does not depend on the batch around it (a single einsum sums in
    another order for B = 1).
    """
    b, d, _ = g_t.shape
    return 0.5 * (g_t.reshape(b, 1, d * d) @ hams_t)[:, 0].real


def _transposed_flat(hamiltonians: np.ndarray) -> np.ndarray:
    k, d, _ = hamiltonians.shape
    return hamiltonians.swapaxes(-1, -2).reshape(k, d * d).T


@dataclass(frozen=True)
class _Tape:
    """What the backward pass needs from the forward pass of B points."""

    g: np.ndarray  # (B, d, d)
    amplitudes: np.ndarray  # (B, N, K) the pulses u_n
    unitaries: np.ndarray  # (B, N+1, d, d): U_0 = 1 .. U_N
    v: np.ndarray  # (B, N, K) structural amplitudes v_n
    c0: np.ndarray  # (B,) ||v_0||, the envelope in renormalized mode
    w: np.ndarray  # (B, N, d) step eigenvalues
    q: np.ndarray  # (B, N, d, d) step eigenvectors
    steps: np.ndarray  # (B, N, d, d) step exponentials P_n

    @staticmethod
    def rows(held: list[tuple["_Tape", int]]) -> "_Tape":
        """One tape of the given (tape, row) pairs, in order."""
        tape = held[0][0]
        if all(t is tape for t, _ in held) and [i for _, i in held] == list(range(len(tape.c0))):
            return tape
        return _Tape(*(np.concatenate([getattr(t, f.name)[i : i + 1] for t, i in held]) for f in fields(_Tape)))


def _construct_batch(
    coeff_batch: np.ndarray,
    controls: ControlSet,
    n_steps: int,
    mode: str,
    basis: GeneratorBasis,
    keep_tape: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, _Tape | None]:
    """Build pulses for B coefficient vectors at once.

    Returns (amplitudes (B, N, K), final unitaries (B, d, d), valid (B,),
    tape). Entries with a degenerate envelope are flagged invalid rather than
    raising, so vectorized line-search ladders can mask them. With
    ``keep_tape`` the tape keeps the per-step states of every point for the
    backward pass; otherwise it is None. Each row is bitwise the same
    whatever the batch around it.
    """
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
    v = _structural_amplitudes(g, hams_t)
    c0 = np.linalg.norm(v, axis=1)
    if renorm:
        valid &= c0 >= ENVELOPE_FLOOR
    for n in range(n_steps):
        if n > 0:
            g_t = u_now @ g @ u_now.conj().swapaxes(-1, -2)
            v = _structural_amplitudes(g_t, hams_t)
        if renorm and n > 0:
            norms = np.linalg.norm(v, axis=1)
            valid &= norms >= ENVELOPE_FLOOR
            u = v * (c0 / np.where(norms < ENVELOPE_FLOOR, 1.0, norms))[:, None]
        else:
            u = v
        amps[:, n] = u
        w, q, step = step_eigensystems(np.einsum("bk,kij->bij", u, hams), dt)
        if keep_tape:
            units[:, n], v_n[:, n], w_n[:, n], q_n[:, n], p_n[:, n] = u_now, v, w, q, step
        u_now = step @ u_now
    tape = None
    if keep_tape:
        units[:, n_steps] = u_now
        tape = _Tape(g, amps, units, v_n, c0, w_n, q_n, p_n)
    return amps, u_now, valid, tape


def pulses_from_adjoint(
    g: AdjointMatrix,
    controls: ControlSet,
    n_steps: int,
    mode: str = "energy_optimal",
) -> tuple[PulseSchedule, PropagationResult]:
    """Construct the pulse induced by g and propagate it."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if g.dim != controls.dim:
        raise ValueError("adjoint dimension does not match control set")
    basis = GeneratorBasis.create(controls.dim)
    amps, _, valid, _ = _construct_batch(g.coeffs[None, :], controls, n_steps, mode, basis)
    if not valid[0]:
        raise DegenerateEnvelopeError(
            "structural prediction has norm below "
            f"{ENVELOPE_FLOOR:g} at some step; pulse direction is undefined"
        )
    schedule = PulseSchedule.from_amplitudes(amps[0])
    return schedule, propagate(controls, schedule)


def _infidelities(u_final: np.ndarray, valid: np.ndarray, context: ShootingContext) -> np.ndarray:
    d = context.controls.dim
    overlap = np.einsum("ij,bij->b", context.target.conj(), u_final)
    values = 1.0 - np.abs(overlap) ** 2 / d**2
    values[~valid] = np.inf
    return values


def batch_objective(coeff_batch: np.ndarray, context: ShootingContext) -> np.ndarray:
    """Normalized infidelity for a (B, d^2-1) stack of coefficient vectors.

    Degenerate-envelope entries come back as +inf.
    """
    cfg = context.config
    _, u_final, valid, _ = _construct_batch(
        coeff_batch, context.controls, cfg.n_steps, cfg.mode, context.basis
    )
    return _infidelities(u_final, valid, context)


def objective(g_coeffs: np.ndarray, context: ShootingContext) -> float:
    """Normalized infidelity of the pulse induced by the given coefficients."""
    g_coeffs = np.asarray(g_coeffs, dtype=float)
    value = batch_objective(g_coeffs[None, :], context)[0]
    if not np.isfinite(value):
        raise DegenerateEnvelopeError(
            "structural prediction vanished; objective undefined at this point"
        )
    return float(value)


def gradient(
    g_coeffs: np.ndarray, context: ShootingContext, step: float = FD_STEP
) -> np.ndarray:
    """Central-difference gradient, exactly 2(d^2-1) objective evaluations.

    The reference for ``reverse_gradient``; ``optimize`` does not use it.
    """
    g_coeffs = np.asarray(g_coeffs, dtype=float)
    m = g_coeffs.size
    probes = np.vstack([g_coeffs + step * np.eye(m), g_coeffs - step * np.eye(m)])
    values = batch_objective(probes, context)
    bad = ~np.isfinite(values)
    if bad.any():
        idx = int(np.flatnonzero(bad)[0])
        raise GradientProbeError(
            f"objective not finite at finite-difference probe {idx}", probes[idx]
        )
    return (values[:m] - values[m:]) / (2.0 * step)


def _forward(points: np.ndarray, context: ShootingContext) -> tuple[np.ndarray, _Tape]:
    """Objective values (+inf for a degenerate envelope) and the tape of a (B, d^2-1) stack."""
    cfg = context.config
    _, u_final, valid, tape = _construct_batch(
        points, context.controls, cfg.n_steps, cfg.mode, context.basis, True
    )
    return _infidelities(u_final, valid, context), tape


def _backward(tape: _Tape, context: ShootingContext) -> np.ndarray:
    """(B, d^2-1) gradients dJ/dc from the tape of B forward passes, by reverse mode.

    Cotangents X_bar are taken so that dJ = Re Tr(X_bar^dag dX). Walking
    the steps backward from U_bar_N = -2 Tr(V^dag U_N) V / d^2:

    * P_bar_n = U_bar_{n+1} U_n^dag, pulled through the exact derivative of
      P_n = exp(-i dt H_n) in its eigenbasis Q_n (divided differences phi_n),
      gives u_bar_{n,k} = Re Tr(((Q^dag P_bar^dag Q) o phi) Q^dag H_k Q);
    * in renormalized mode u_n = c0 v_n / ||v_n|| for n > 0, which projects
      u_bar onto the normal of v_n and feeds c0_bar, and c0 = ||v_0|| passes
      c0_bar on to v_0 (u_0 = v_0 in both modes);
    * v_{n,k} = 1/2 Re Tr(U_n g U_n^dag H_k) with S_n = sum_k v_bar_{n,k} H_k
      gives the feedback term U_bar_n = P_n^dag U_bar_{n+1} + S_n U_n g and
      g_bar = 1/2 sum_n U_n^dag S_n U_n.

    Every product is a stack of the per-point products (vectors as (1, K)
    or (K, 1) matrices), so each row is bitwise the gradient of its point
    computed alone.
    """
    d = context.controls.dim
    hams = context.controls.hamiltonians
    b, n_steps, k = tape.v.shape
    renorm = context.config.mode == "time_optimal_renormalized"
    dt = 1.0 / n_steps
    units = tape.unitaries[:, :-1]
    q, q_dag = tape.q, tape.q.conj().swapaxes(-1, -2)

    # per-step constants, batched over n ahead of the sequential sweep
    phi = exp_divided_differences(tape.w, dt)
    qu = q_dag @ units  # Q_n^dag U_n
    h_eig = q_dag[:, :, None] @ hams @ q[:, :, None]  # Q_n^dag H_k Q_n, (B, N, K, d, d)
    h_eig_t = h_eig.swapaxes(-1, -2).reshape(b, n_steps, k, d * d)
    ug = units @ tape.g[:, None]
    p_dag = tape.steps.conj().swapaxes(-1, -2)
    hams_flat = hams.reshape(k, d * d)

    overlap = np.sum((context.target.conj() * tape.unitaries[:, -1]).reshape(b, d * d), axis=1)
    u_bar = (-2.0 * overlap / d**2)[:, None, None] * context.target
    v_bar = np.empty((b, n_steps, k))
    c0_bar = np.zeros(b)
    for n in range(n_steps - 1, -1, -1):
        # (Q^dag P_bar^dag Q) o phi, with Q^dag P_bar^dag Q = (Q^dag U_n)(U_bar^dag Q)
        m = (qu[:, n] @ (u_bar.conj().swapaxes(-1, -2) @ q[:, n])) * phi[:, n]
        a_bar = (h_eig_t[:, n] @ m.reshape(b, d * d, 1))[..., 0].real
        if renorm:
            vn = tape.v[:, n]
            if n > 0:
                norm = np.sqrt(_dots(vn, vn))
                proj = _dots(vn, a_bar) / norm
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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a_i . b_i of two (B, K) stacks, each the 1-D ``a_i @ b_i``."""
    return (a[:, None] @ b[:, :, None])[:, 0, 0]


def reverse_gradient(g_coeffs: np.ndarray, context: ShootingContext) -> np.ndarray:
    """Exact gradient of ``objective``: one forward and one backward pass."""
    values, tape = _forward(np.asarray(g_coeffs, dtype=float)[None, :], context)
    if not np.isfinite(values[0]):
        raise DegenerateEnvelopeError(
            "structural prediction vanished; gradient undefined at this point"
        )
    return _backward(tape, context)[0]


def initial_coeffs(config: MagicarpConfig, n_params: int) -> np.ndarray:
    if config.init == "explicit":
        coeffs = np.asarray(config.init_coeffs, dtype=float)
        if coeffs.shape != (n_params,):
            raise ValueError(f"init_coeffs: expected {n_params} coefficients, got shape {coeffs.shape}")
        return coeffs
    rng = np.random.default_rng(config.seed)
    return config.init_sigma * rng.standard_normal(n_params)


class _Restart:
    """One BFGS run of the lockstep runner: its generator, its pending request
    and its last single-point forward pass (value, tape and row, keyed by the
    point's bytes)."""

    def __init__(self, context: ShootingContext, seed: int):
        cfg = replace(context.config, seed=int(seed))
        self.seed = cfg.seed
        self.steps = bfgs_steps(
            initial_coeffs(cfg, context.n_params),
            tol=cfg.convergence_tol,
            max_iters=cfg.max_iters,
            stall_tol=cfg.stall_tol,
            batched=True,
        )
        self.request: tuple[str, np.ndarray] | None = None
        self.key: bytes | None = None
        self.held: tuple[float, _Tape, int] | None = None
        self.result: MinimizeResult | None = None
        self.error: Exception | None = None
        self.forward_points = 0
        self.backward_passes = 0
        self.reply(None)

    @property
    def point(self) -> np.ndarray | None:
        """The point of a single-point request (None for a wide ladder or no request)."""
        if self.request is None:
            return None
        kind, x = self.request
        return x if kind != "values" else x[0] if len(x) == 1 else None

    def holds(self, x: np.ndarray) -> bool:
        return self.key == x.tobytes()

    def hold(self, x: np.ndarray, value: float, tape: _Tape, row: int) -> None:
        self.key, self.held = x.tobytes(), (value, tape, row)
        self.forward_points += 1

    def reply(self, value) -> None:
        """Answer the pending request; a finished run asks for its report pulse."""
        try:
            self.request = self.steps.send(value)
        except StopIteration as done:
            self.result = done.value
            self.request = ("pulse", self.result.x)
        except (ValueError, RuntimeError) as exc:
            self.fail(exc)

    def fail(self, exc: Exception) -> None:
        self.error, self.request, self.held = exc, None, None


def _serve(runs: list[_Restart], evaluate, deliver) -> None:
    """``deliver(run, out)`` for each run and its share of ``evaluate(runs)``.

    If the batch raises a numerical or runtime error, each run is evaluated
    alone, so that only a run that fails on its own gets the error.
    """
    if not runs:
        return
    try:
        outs = evaluate(runs)
    except (ValueError, RuntimeError) as exc:
        if len(runs) == 1:
            runs[0].fail(exc)
            return
        for run in runs:
            _serve([run], evaluate, deliver)
        return
    for run, out in zip(runs, outs):
        deliver(run, out)


def run_restarts(context: ShootingContext, seeds: Sequence[int]) -> list[OptimizationReport | Exception]:
    """Independent BFGS restarts from the given seeds, run in lockstep.

    Each round batches the restarts' expensive evaluations in three phases:
    (A) one tape-keeping forward pass over every single-point request (the
    initial value, rungs 0 and 1, and any gradient point whose pass is not
    held), after which the value requests are answered; (B) one
    ``batch_objective`` call over every wider ladder; (C) one backward pass
    over every gradient whose forward pass is held. Since each row of these
    batches is bitwise the same as the row computed alone, every restart
    follows the iterates of its lone run, and the gradient at an accepted
    single rung costs only its backward pass.

    Returns one report per seed, in order, or the ``ValueError`` or
    ``RuntimeError`` that ended that restart; other errors propagate. Every
    report's ``wall_time`` is that of the whole group.
    """
    cfg = context.config
    t0 = time.perf_counter()
    runs = [_Restart(context, seed) for seed in seeds]

    def hold_passes(group):
        values, tape = _forward(np.stack([run.point for run in group]), context)
        return [(value, tape, row) for row, value in enumerate(values)]

    def ladders(group):
        values = batch_objective(np.concatenate([run.request[1] for run in group]), context)
        return np.split(values, np.cumsum([len(run.request[1]) for run in group])[:-1])

    def backward(group):
        return _backward(_Tape.rows([run.held[1:] for run in group]), context)

    def answer_ladder(run, values):
        run.forward_points += len(values)
        run.reply(values)

    def answer_gradient(run, grad):
        run.backward_passes += 1
        run.reply(grad)

    while live := [run for run in runs if run.request is not None]:
        # (A) single-point forward passes; then answer the value requests
        _serve(
            [run for run in live if run.point is not None and not run.holds(run.point)],
            hold_passes,
            lambda run, held: run.hold(run.point, *held),
        )
        for run in live:
            if run.point is not None and run.holds(run.point):
                kind = run.request[0]
                if kind == "pulse":
                    run.request = None
                elif kind != "grad":
                    value = run.held[0]
                    run.reply(value if kind == "fun" else np.array([value]))
        # (B) wider ladders
        _serve([run for run in live if run.request and run.point is None], ladders, answer_ladder)
        # (C) gradients at held points
        _serve(
            [run for run in live if run.request and run.request[0] == "grad" and run.holds(run.point)],
            backward,
            answer_gradient,
        )
    wall = time.perf_counter() - t0

    outcomes = []
    for run in runs:
        if run.error is not None:
            outcomes.append(run.error)
            continue
        result, (_, tape, row) = run.result, run.held
        schedule = PulseSchedule.from_amplitudes(tape.amplitudes[row])
        infidelity = result.trace[-1]
        outcomes.append(
            OptimizationReport(
                final_g=AdjointMatrix(context.controls.dim, result.x),
                final_schedule=schedule,
                infidelity=infidelity,
                duration=schedule.duration(context.controls.omega_max),
                cost_trace=result.trace,
                iterations=result.iterations,
                converged=infidelity <= cfg.convergence_tol,
                seed=run.seed,
                wall_time=wall,
                stop_reason=result.stop_reason,
                forward_points=run.forward_points,
                backward_passes=run.backward_passes,
            )
        )
    return outcomes


def optimize(context: ShootingContext) -> OptimizationReport:
    """Quasi-Newton descent on infidelity over the d^2-1 adjoint coefficients."""
    return _raise_failure(run_restarts(context, [context.config.seed]))[0]


def restarted_optimize(context: ShootingContext, seeds: Sequence[int]) -> list[OptimizationReport]:
    """Independent restarts of ``optimize`` over the given seeds, LOCKSTEP_WIDTH at a time."""
    seeds = list(seeds)
    reports = []
    for i in range(0, len(seeds), LOCKSTEP_WIDTH):
        reports += _raise_failure(run_restarts(context, seeds[i : i + LOCKSTEP_WIDTH]))
    return reports


def _raise_failure(outcomes: list) -> list[OptimizationReport]:
    """The reports, or the error of the first restart that failed."""
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


# -- optimality certificate ------------------------------------------------


@dataclass(frozen=True)
class CertificateResult:
    g_fit: AdjointMatrix
    residual: float
    n_excluded: int


def optimality_certificate(schedule: PulseSchedule, controls: ControlSet) -> CertificateResult:
    """Least-squares fit of a constant adjoint to the normalized pulses.

    Solves min_g sum_{n,k} (u_k(n dt)/c(n dt) - 1/2 Re Tr(U g U^dag H_k))^2
    over the d^2-1 coefficients of g and returns the fit plus the RMS
    residual; a residual near zero certifies the constant-adjoint structure
    of a time-optimal pulse. Steps with vanishing envelope are excluded and
    counted.
    """
    basis = GeneratorBasis.create(controls.dim)
    result = propagate(controls, schedule)
    env = schedule.envelope
    keep = env >= ENVELOPE_FLOOR
    if not keep.any():
        raise ValueError("schedule envelope is zero everywhere; nothing to certify")
    unitaries = result.unitaries[:-1][keep]
    targets = (schedule.amplitudes[keep] / env[keep][:, None]).ravel()
    evolved = np.einsum(
        "nab,mbc,ndc->nmad", unitaries, basis.generators, unitaries.conj()
    )
    design = 0.5 * np.einsum("nmab,kba->nkm", evolved, controls.hamiltonians).real
    design = design.reshape(-1, basis.size)
    coeffs, *_ = np.linalg.lstsq(design, targets, rcond=None)
    residual = float(
        np.linalg.norm(design @ coeffs - targets) / np.sqrt(targets.size)
    )
    return CertificateResult(
        g_fit=AdjointMatrix(controls.dim, coeffs),
        residual=residual,
        n_excluded=int((~keep).sum()),
    )


# -- serialization ----------------------------------------------------------


def adjoint_to_dict(g: AdjointMatrix) -> dict:
    return {"dim": g.dim, "basis": "gell-mann", "coeffs": [float(c) for c in g.coeffs]}


def adjoint_from_dict(data: dict) -> AdjointMatrix:
    if data.get("basis") != "gell-mann":
        raise ValueError(f"unsupported adjoint basis {data.get('basis')!r}")
    return AdjointMatrix(int(data["dim"]), np.asarray(data["coeffs"], dtype=float))


def report_to_dict(report: OptimizationReport) -> dict:
    """JSON-ready view of a report.

    ``wall_time`` is serialized as null so that identical runs produce
    byte-identical files; the in-memory report keeps the measured value.
    """
    schedule = report.final_schedule
    return {
        "final_g": adjoint_to_dict(report.final_g) if report.final_g is not None else None,
        "final_schedule": {
            "n_steps": schedule.n_steps,
            "n_controls": schedule.n_controls,
            "dt": schedule.dt,
            "amplitudes": [[float(v) for v in row] for row in schedule.amplitudes],
        },
        "infidelity": float(report.infidelity),
        "duration": float(report.duration),
        "cost_trace": [float(v) for v in report.cost_trace],
        "iterations": report.iterations,
        "converged": bool(report.converged),
        "seed": int(report.seed),
        "wall_time": None,
    }


def write_report_json(path, report: OptimizationReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


def write_adjoint_json(path, g: AdjointMatrix) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(adjoint_to_dict(g), fh, indent=2)
        fh.write("\n")
