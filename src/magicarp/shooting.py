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

Since v_n is real linear in the evolved adjoint G_n = U_n g U_n^dag, the
construction forms H_n = sum_k u_k H_k in energy-optimal mode as one product
of G_n with a fixed matrix, and carries [U_n, U_n g] as one stack advanced by
one product per step (``_construct_batch``).

Gradients over g are exact and reverse-mode (``reverse_gradient``). One
forward pass builds the pulse and writes, per step and in place, U_n and the
step eigensystems into its step-major tape, (N, B, ...); the amplitudes are
one product over the kept G_n after the loop (in renormalized mode they, v_n
and c0 are written per step). One backward pass then walks the steps in reverse,
carrying the adjoint of the cotangent of U_n. It pulls that cotangent
through the exact derivative of each step exponential (eigenbasis divided
differences, as in GRAPE) onto the amplitudes, then through the
renormalization onto v_n, and then through the feedback v_n(U_n g U_n^dag)
onto U_n; the cotangent of g is one stacked contraction over all steps after
the sweep. Both passes take a batch of B points, and each row is bitwise the
row of its point computed alone. The central-difference ``gradient``
(2(d^2-1) objective evaluations) is kept as the test reference.

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
    eigh_guard,
    exp_divided_differences,
    propagate,
    step_eigensystems,
    step_work,
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
            ("convergence_tol", 0 < self.convergence_tol < np.inf, "a positive finite number"),
            ("stall_tol", 0 < self.stall_tol < np.inf, "a positive finite number"),
            ("init", self.init in ("random_normal", "explicit"), "random_normal|explicit"),
            ("init_sigma", 0 < self.init_sigma < np.inf, "a positive finite number"),
            (
                "init_coeffs",
                self.init != "explicit" or self.init_coeffs is not None and len(self.init_coeffs) > 0,
                "coefficients for explicit init",
            ),
            ("init_coeffs", self.init_coeffs is None or bool(np.all(np.isfinite(self.init_coeffs))), "finite coefficients"),
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


def _pairing(mats: np.ndarray) -> np.ndarray:
    """The (2d^2, M) real matrix A with x @ A = (1/2 Re Tr(X M_m))_m for M = (M_m),
    where x is the float view of a flattened complex (d, d) matrix X.

    Re Tr(X M_m) = sum_ij (Re X_ij Re M_mji - Im X_ij Im M_mji) is real
    arithmetic on that view, so a stack of X pairs in one real product.
    """
    m, d, _ = mats.shape
    flat_t = mats.swapaxes(-1, -2).reshape(m, d * d)
    return 0.5 * np.stack([flat_t.real, -flat_t.imag], axis=-1).reshape(m, 2 * d * d).T


@dataclass(frozen=True)
class _Tape:
    """What the backward pass needs from the forward pass of B points.

    Per-step fields are step-major, (N, B, ...), so that each step's slice
    is contiguous; ``g`` and ``c0`` are batch-major.
    """

    g: np.ndarray  # (B, d, d)
    amplitudes: np.ndarray  # (N, B, K) the pulses u_n
    unitaries: np.ndarray  # (N+1, B, d, d): U_0 = 1 .. U_N
    c0: np.ndarray  # (B,) ||v_0||, the envelope in renormalized mode
    w: np.ndarray  # (N, B, d) step eigenvalues
    q: np.ndarray  # (N, B, d, d) step eigenvectors
    steps: np.ndarray  # (N, B, d, d) step exponentials P_n
    v: np.ndarray | None  # (N, B, K) structural amplitudes v_n, renormalized mode only

    @staticmethod
    def rows(held: list[tuple["_Tape", int]]) -> "_Tape":
        """One tape of the given (tape, row) pairs, in order."""
        tape = held[0][0]
        if all(t is tape for t, _ in held) and [i for _, i in held] == list(range(len(tape.c0))):
            return tape

        def gather(name):
            if getattr(tape, name) is None:
                return None
            if name in ("g", "c0"):
                return np.concatenate([getattr(t, name)[i : i + 1] for t, i in held])
            return np.concatenate([getattr(t, name)[:, i : i + 1] for t, i in held], axis=1)

        return _Tape(*(gather(f.name) for f in fields(_Tape)))


def _construct_batch(
    coeff_batch: np.ndarray,
    controls: ControlSet,
    n_steps: int,
    mode: str,
    basis: GeneratorBasis,
    keep_tape: bool = False,
) -> tuple[np.ndarray, np.ndarray, _Tape | None]:
    """Build pulses for B coefficient vectors at once.

    Returns (final unitaries (B, d, d), valid (B,), tape). Entries with a
    degenerate envelope are flagged invalid rather than raising, so
    vectorized line-search ladders can mask them. With ``keep_tape`` the
    tape keeps the per-step states and the pulses of every point for the
    backward pass and the report; otherwise it is None. Each row is the same
    whatever the batch around it: every product is a stack of per-row
    products.

    The step loop carries the evolved adjoint G_n = U_n g U_n^dag and the
    stack X_n = [U_n, U_n g]. Since v_{n,k} = 1/2 Re Tr(G_n H_k) is real
    linear in G_n, energy-optimal mode forms H_n = sum_k v_{n,k} H_k as one
    product of G_n's float view with a fixed (2d^2, 2d^2) matrix and takes the
    amplitudes from the kept G_n after the loop; renormalized mode forms v_n,
    its norm and u_n per step. Each step then writes its eigensystem and
    exponential P_n, advances X_{n+1} = P_n X_n in one product and forms
    G_{n+1} = (U g)(U^dag), all in place: into the tape's step-major slots
    for step n, or without a tape into two slots that the steps take in turn.
    """
    coeff_batch = np.atleast_2d(np.asarray(coeff_batch, dtype=float))
    b = coeff_batch.shape[0]
    d = controls.dim
    k = controls.n_controls
    dt = 1.0 / n_steps
    renorm = mode == "time_optimal_renormalized"
    slots = n_steps if keep_tape else 2  # one per step on a tape, else two that the steps take in turn

    to_v = _pairing(controls.hamiltonians)  # (2d^2, K): v = G_ri @ to_v
    hams_ri = controls.hamiltonians.view(float).reshape(k, 2 * d * d)  # H_ri = u @ hams_ri
    adj = np.empty((slots, b, d, d), dtype=complex)  # G_n
    adj_ri = adj.view(float).reshape(slots, b, 1, 2 * d * d)
    stack = np.empty((slots + 1, 2, b, d, d), dtype=complex)  # X_n = [U_n, U_n g]
    units, units_g = stack[:, 0], stack[:, 1]
    w_n = np.empty((slots, b, d))
    q_n = np.empty((slots, b, d, d), dtype=complex)
    p_n = np.empty((slots, b, d, d), dtype=complex)
    h = np.empty((b, d, d), dtype=complex)
    h_ri = h.view(float).reshape(b, 1, 2 * d * d)
    u_conj = np.empty((b, d, d), dtype=complex)
    u_dag = u_conj.swapaxes(-1, -2)
    work = step_work(h.shape)

    g = np.einsum("bm,mij->bij", coeff_batch, basis.generators, out=adj[0])
    units[0] = np.eye(d)
    units_g[0] = g
    if renorm:
        v_n = np.empty((n_steps, b, 1, k))
        amps = np.empty((n_steps, b, 1, k))
        norms = np.empty((n_steps, b, 1, 1))
        v_t = v_n.swapaxes(-1, -2)
        scale = np.empty((b, 1, 1))
    else:
        to_h = to_v @ hams_ri  # (2d^2, 2d^2): H_ri = G_ri @ to_h
    with eigh_guard():
        for n in range(n_steps):
            i, j = (n, n + 1) if keep_tape else (n % 2, (n + 1) % 2)
            if n > 0:
                np.conjugate(units[i], out=u_conj)
                np.matmul(units_g[i], u_dag, out=adj[i])
            if renorm:
                v = np.matmul(adj_ri[i], to_v, out=v_n[n])
                np.sqrt(np.matmul(v, v_t[n], out=norms[n]), out=norms[n])
                if n > 0:
                    np.divide(norms[0], np.maximum(norms[n], ENVELOPE_FLOOR, out=scale), out=scale)
                    v = np.multiply(v, scale, out=amps[n])
                else:
                    amps[0] = v
                np.matmul(v, hams_ri, out=h_ri)
            else:
                np.matmul(adj_ri[i], to_h, out=h_ri)
            step_eigensystems(h, dt, out=(w_n[i], q_n[i], p_n[i]), work=work)
            np.matmul(p_n[i], stack[i], out=stack[j])
    valid = np.all(norms >= ENVELOPE_FLOOR, axis=0)[:, 0, 0] if renorm else np.ones(b, dtype=bool)
    if not keep_tape:
        return units[j], valid, None
    if renorm:
        amplitudes, v, c0 = amps[..., 0, :], v_n[..., 0, :], norms[0, :, 0, 0]
    else:
        # one (1, 2d^2) @ (2d^2, K) product per step and point, after the loop
        amplitudes = (adj_ri.reshape(n_steps * b, 1, 2 * d * d) @ to_v).reshape(n_steps, b, k)
        v, c0 = None, np.linalg.norm(amplitudes[0], axis=1)
    return units[j], valid, _Tape(g, amplitudes, units, c0, w_n, q_n, p_n, v)


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
    _, valid, tape = _construct_batch(g.coeffs[None, :], controls, n_steps, mode, basis, True)
    if not valid[0]:
        raise DegenerateEnvelopeError(
            "structural prediction has norm below "
            f"{ENVELOPE_FLOOR:g} at some step; pulse direction is undefined"
        )
    schedule = PulseSchedule.from_amplitudes(tape.amplitudes[:, 0])
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
    u_final, valid, _ = _construct_batch(coeff_batch, context.controls, cfg.n_steps, cfg.mode, context.basis)
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
    u_final, valid, tape = _construct_batch(points, context.controls, cfg.n_steps, cfg.mode, context.basis, True)
    return _infidelities(u_final, valid, context), tape


def _backward(tape: _Tape, context: ShootingContext) -> np.ndarray:
    """(B, d^2-1) gradients dJ/dc from the tape of B forward passes, by reverse mode.

    Cotangents X_bar are taken so that dJ = Re Tr(X_bar^dag dX). The sweep
    carries Y_n = U_bar_n^dag backward from Y_N = -2 Tr(U_N^dag V) V^dag / d^2:

    * P_bar_n^dag = U_n Y_{n+1}, pulled through the exact derivative of
      P_n = exp(-i dt H_n) in its eigenbasis Q_n (divided differences phi_n),
      gives u_bar_{n,k} = Re Tr(((Q^dag P_bar^dag Q) o phi) Q^dag H_k Q);
    * in renormalized mode u_n = c0 v_n / ||v_n|| for n > 0, which projects
      u_bar onto the normal of v_n and feeds c0_bar, and c0 = ||v_0|| passes
      c0_bar on to v_0 (u_0 = v_0 in both modes);
    * v_{n,k} = 1/2 Re Tr(U_n g U_n^dag H_k) with S_n = sum_k v_bar_{n,k} H_k
      gives the feedback term Y_n = Y_{n+1} P_n + (g U_n^dag) S_n and
      g_bar = 1/2 sum_n U_n^dag S_n U_n, one stacked product over every step.

    Every product is a stack of the per-point products (vectors as (1, K)
    or (K, 1) matrices), so each row is bitwise the gradient of its point
    computed alone.
    """
    d = context.controls.dim
    hams = context.controls.hamiltonians
    n_steps, b, k = tape.amplitudes.shape
    renorm = context.config.mode == "time_optimal_renormalized"
    dt = 1.0 / n_steps
    units = tape.unitaries[:-1]
    units_dag = units.conj().swapaxes(-1, -2)
    q, q_dag = tape.q, tape.q.conj().swapaxes(-1, -2)

    # per-step constants, batched over n ahead of the sequential sweep
    phi = exp_divided_differences(tape.w, dt)
    qu = q_dag @ units  # Q_n^dag U_n
    h_eig = q_dag[:, :, None] @ hams @ q[:, :, None]  # Q_n^dag H_k Q_n, (N, B, K, d, d)
    h_eig_t = h_eig.swapaxes(-1, -2).reshape(n_steps, b, k, d * d)
    gu = tape.g @ units_dag
    hams_flat = hams.reshape(k, d * d)

    overlap = np.sum((context.target.conj() * tape.unitaries[-1]).reshape(b, d * d), axis=1)
    y = (-2.0 * overlap.conj() / d**2)[:, None, None] * context.target.conj().T
    v_bar = np.empty((n_steps, b, k))
    c0_bar = np.zeros(b)
    for n in range(n_steps - 1, -1, -1):
        # (Q^dag P_bar^dag Q) o phi, with Q^dag P_bar^dag Q = (Q^dag U_n)(Y Q)
        m = (qu[n] @ (y @ q[n])) * phi[n]
        a_bar = (h_eig_t[n] @ m.reshape(b, d * d, 1))[..., 0].real
        if renorm:
            vn = tape.v[n]
            if n > 0:
                norm = np.sqrt(_dots(vn, vn))
                proj = _dots(vn, a_bar) / norm
                c0_bar += proj
                a_bar = (tape.c0 / norm)[:, None] * (a_bar - (proj / norm)[:, None] * vn)
            else:
                a_bar = a_bar + (c0_bar / tape.c0)[:, None] * vn
        v_bar[n] = a_bar
        if n > 0:
            s = (a_bar[:, None] @ hams_flat).reshape(b, d, d)
            y = y @ tape.steps[n] + gu[n] @ s

    # one (1, K) @ (K, d^2) product per step and point: a (B, K) operand would
    # make B a dimension of one product, and rows depend on the batch
    s_all = (v_bar.reshape(n_steps * b, 1, k) @ hams_flat).reshape(n_steps, b, d, d)
    # dJ/dc_m = Re Tr(G_m g_bar) = 1/2 Re Tr(G_m sum_n U_n^dag S_n U_n)
    g_bar = (units_dag @ s_all @ units).sum(axis=0)
    return (g_bar.view(float).reshape(b, 1, 2 * d * d) @ _pairing(context.basis.generators))[:, 0]


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
        schedule = PulseSchedule.from_amplitudes(tape.amplitudes[:, row])
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
