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
  therefore varies with g through c0 alone. The envelope is constant to
  rounding. For a bound on ||u||, u = c0 v/||v|| is the maximum condition
  of Pontryagin's principle itself; what is heuristic is the linear model
  ``optimality_certificate`` fits: u/c0 = v/||v|| is linear in g only
  where ||v|| is constant, so a renormalized pulse scores a residual from
  the varying ||v|| alone.

Since v_n is real linear in the evolved adjoint G_n = U_n g U_n^dag, the
construction forms the step generator Theta_n = -dt sum_k u_k H_k in
energy-optimal mode as one product of G_n with a fixed matrix, and carries
[U_n, U_n g] as one stack advanced by one product per step
(``_construct_batch``); the step is P_n = exp(i Theta_n). The fixed matrices
of both passes are built once per context (``ShootingContext.pairings``).
``_pairing`` makes the map X -> (1/2 Re Tr(X M_m))_m one real matrix: over the
controls it takes G_n to v_n, over the generators (``_Pairings.to_coeffs``)
g_bar to dJ/dc and U_n^dag H_k U_n to the certificate's design.

Gradients over g are exact and reverse-mode (``reverse_gradient``). One
forward pass builds the pulse and writes, per step and in place, U_n and the
step eigensystems (the eigenvalues theta of Theta_n) into its step-major
tape, (N, B, ...); the amplitudes are one product over the kept G_n after
the loop (in renormalized mode they, v_n and c0 are written per step). The
tape keeps each point's overlap Tr(V^dag U_N), which the objective values by
``propagation.infidelity_from_overlap`` and the backward pass seeds from, as
GRAPE's held pass keeps its own. One
backward pass then walks the steps in reverse, carrying the adjoint of the
cotangent of U_n, in five products per step. It pulls that cotangent
through the exact derivative of each step exponential (eigenbasis divided
differences, as in GRAPE) onto the amplitudes with one real product against
a pairing table built ahead of the sweep, which in renormalized mode also
carries the renormalization onto v_n. The table's Q_n^dag Theta_k Q_n
(Q_n the step eigenbasis) comes from the controls' non-zero pattern: one
outer product of rows of Q_n per entry where some Theta_k is non-zero, mixed
by the (K, nnz) matrix of those entries (``_Pairings.eigenbasis``). The
cotangent then passes through the feedback v_n(U_n g U_n^dag) onto U_n, in
one block product that also advances the cotangent. The envelope's
cotangent c0_bar and the cotangent of g are each one contraction over all
steps after the sweep. Both passes take a batch of B points, and each row
is bitwise the row of its point computed alone.

``run_restarts`` runs several restarts in lockstep. It supplies the BFGS
runner (``optimizer.run_lockstep``) with its batched passes: ``_forward``
over the points the restarts ask for, one each, and ``_backward`` over the
gathered rows of their tapes. The runner answers every restart's requests
with one forward and one backward pass per round. The line search values
one rung at a time, and a restart's gradient at the accepted rung costs
only the backward pass, so a typical iteration costs one forward and one
backward pass.
``restarted_optimize`` calls it over its seeds, ``LOCKSTEP_WIDTH`` at a
time, ``optimize`` is ``restarted_optimize`` with one seed, and campaign
groups (``bench.py``) call ``run_restarts`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .optimizer import OptimizationReport, RunConfig, run_lockstep
from .propagation import (
    PropagationResult,
    PulseSchedule,
    eigh_guard,
    exp_divided_differences,
    gate_overlap,
    infidelity_from_overlap,
    propagate,
    step_eigensystems,
    step_out,
    step_work,
)
from .qudit import AdjointMatrix, ControlSet, GeneratorBasis

ENVELOPE_FLOOR = 1e-14
LOCKSTEP_WIDTH = 32  # most restarts one lockstep group runs; bounds its tapes' memory

MODES = ("energy_optimal", "time_optimal_renormalized")


class DegenerateEnvelopeError(RuntimeError):
    """Structural prediction vanished at some step in renormalized mode."""


@dataclass(frozen=True)
class MagicarpConfig(RunConfig):
    """``RunConfig`` with the pulse mode and a start of the d^2-1 coefficients of g."""

    START = "init_coeffs"
    n_steps: int = 128
    max_iters: int = 500
    mode: str = "energy_optimal"
    init_coeffs: tuple[float, ...] | None = None

    def _checks(self) -> tuple:
        return (("mode", self.mode in MODES, "|".join(MODES)),)


@dataclass(frozen=True)
class ShootingContext:
    """Problem instance: controls, target gate, and the run configuration."""

    controls: ControlSet
    target: np.ndarray
    config: MagicarpConfig
    pairings: "_Pairings" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "target", self.controls.check_target(self.target))
        object.__setattr__(self, "pairings", _Pairings.create(self.controls, self.config.n_steps))

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
class _Pairings:
    """The fixed matrices of the shooting passes for one control set and step
    count, built once per ``ShootingContext``. Float views ``*_ri`` are of
    complex (d, d) matrices flattened to 2d^2 reals."""

    n_steps: int
    generators: np.ndarray  # (d^2-1, d, d): g = sum_m c_m generators_m
    theta_hams: np.ndarray  # (K, d, d): Theta_n = -dt H_n = sum_k u_{n,k} theta_hams_k
    to_v: np.ndarray  # (2d^2, K): v_n = G_ri @ to_v
    to_theta: np.ndarray  # (2d^2, 2d^2): Theta_ri = G_ri @ to_theta, energy-optimal mode
    to_coeffs: np.ndarray  # (2d^2, d^2-1): dJ/dc = g_bar_ri @ to_coeffs
    rows: np.ndarray  # (nnz,) i_p and
    cols: np.ndarray  # (nnz,) j_p: the entries where some theta_hams_k is non-zero
    pattern: np.ndarray  # (K, nnz): theta_hams_k[i_p, j_p]

    @classmethod
    def create(cls, controls: ControlSet, n_steps: int) -> "_Pairings":
        k, d = controls.n_controls, controls.dim
        generators = GeneratorBasis.create(d).generators
        theta_hams = (-1.0 / n_steps) * controls.hamiltonians
        to_v = _pairing(controls.hamiltonians)
        to_theta = to_v @ theta_hams.view(float).reshape(k, 2 * d * d)
        rows, cols = controls.nonzero
        return cls(
            n_steps, generators, theta_hams, to_v, to_theta, _pairing(generators),
            rows, cols, theta_hams[:, rows, cols],
        )

    def eigenbasis(self, q: np.ndarray) -> np.ndarray:
        """(..., K, d, d): Q^dag theta_hams_k Q for a stack (..., d, d) of eigenbases Q.

        With outer_p = conj(Q[i_p, :])^T Q[j_p, :], Q^dag Theta_k Q is
        sum_p pattern[k, p] outer_p: one broadcast multiply over the nnz
        non-zero entries (2(d-1) for adjacent-level controls, at most d^2)
        and one (K, nnz) @ (nnz, d^2) product per matrix of the stack.
        """
        k, d, _ = self.theta_hams.shape
        lead = q.shape[:-2]
        outer = np.conjugate(q[..., self.rows, :, None]) * q[..., self.cols, None, :]
        return (self.pattern @ outer.reshape(*lead, len(self.rows), d * d)).reshape(*lead, k, d, d)

    @property
    def theta_hams_ri(self) -> np.ndarray:
        """(K, 2d^2): Theta_ri = u @ theta_hams_ri."""
        k, d, _ = self.theta_hams.shape
        return self.theta_hams.view(float).reshape(k, 2 * d * d)


@dataclass(frozen=True)
class _Tape:
    """What the backward pass needs from the forward pass of B points.

    Per-step fields are step-major, (N, B, ...), so that each step's slice
    is contiguous; ``g``, ``c0`` and ``overlap`` are batch-major.
    """

    g: np.ndarray  # (B, d, d)
    amplitudes: np.ndarray  # (N, B, K) the pulses u_n
    unitaries: np.ndarray  # (N+1, B, d, d): U_0 = 1 .. U_N
    c0: np.ndarray  # (B,) ||v_0||, the envelope in renormalized mode
    theta: np.ndarray  # (N, B, d) eigenvalues of Theta_n = -dt H_n
    q: np.ndarray  # (N, B, d, d) step eigenvectors
    steps: np.ndarray  # (N, B, d, d) step exponentials P_n
    v: np.ndarray | None  # (N, B, K) structural amplitudes v_n, renormalized mode only
    overlap: np.ndarray | None = None  # (B,) Tr(V^dag U_N) of the target V, written by ``_forward``

    @staticmethod
    def rows(held: list[tuple["_Tape", int]]) -> "_Tape":
        """One tape of the given (tape, row) pairs, in order."""
        tape = held[0][0]
        if all(t is tape for t, _ in held) and [i for _, i in held] == list(range(len(tape.c0))):
            return tape

        def gather(name):
            if getattr(tape, name) is None:
                return None
            if name in ("g", "c0", "overlap"):
                return np.concatenate([getattr(t, name)[i : i + 1] for t, i in held])
            return np.concatenate([getattr(t, name)[:, i : i + 1] for t, i in held], axis=1)

        return _Tape(*(gather(f.name) for f in fields(_Tape)))


def _construct_batch(
    coeff_batch: np.ndarray,
    pairings: _Pairings,
    mode: str,
) -> tuple[np.ndarray, np.ndarray, _Tape]:
    """Build pulses for B coefficient vectors at once.

    Returns (final unitaries (B, d, d), valid (B,), tape). Entries with a
    degenerate envelope are flagged invalid rather than raising, so a batch
    can hold them beside valid ones. The tape keeps the per-step states and
    the pulses of every point for the backward pass and the report. Each row
    is the same whatever the batch around it: every product is a stack of
    per-row products.

    The step loop carries the evolved adjoint G_n = U_n g U_n^dag and the
    stack X_n = [U_n, U_n g]. Since v_{n,k} = 1/2 Re Tr(G_n H_k) is real
    linear in G_n, energy-optimal mode forms Theta_n = -dt sum_k v_{n,k} H_k
    as one product of G_n's float view with a fixed (2d^2, 2d^2) matrix and
    takes the amplitudes from the kept G_n after the loop; renormalized mode
    forms v_n, its norm and u_n per step. Each step then writes its
    eigensystem and exponential P_n = exp(i Theta_n), advances
    X_{n+1} = P_n X_n in one product and forms G_{n+1} = (U g)(U^dag), all in
    place, into the tape's step-major slots for step n.
    """
    coeff_batch = np.atleast_2d(np.asarray(coeff_batch, dtype=float))
    b = coeff_batch.shape[0]
    k, d, _ = pairings.theta_hams.shape
    n_steps = pairings.n_steps
    renorm = mode == "time_optimal_renormalized"

    adj = np.empty((n_steps, b, d, d), dtype=complex)  # G_n
    adj_ri = adj.view(float).reshape(n_steps, b, 1, 2 * d * d)
    stack = np.empty((n_steps + 1, 2, b, d, d), dtype=complex)  # X_n = [U_n, U_n g]
    units, units_g = stack[:, 0], stack[:, 1]
    i_theta, q_n, p_n = step_out((n_steps, b, d, d))  # eigh writes theta_n into i_theta's imaginary part
    # per-step views, taken once: indexing a view costs about as much as a small
    # product's dispatch. Step n advances X into slot n + 1.
    step_views = list(zip(units, units_g, adj, adj_ri, i_theta, q_n, p_n, stack, stack[1:]))
    theta = np.empty((b, d, d), dtype=complex)
    theta_ri = theta.view(float).reshape(b, 1, 2 * d * d)
    u_conj = np.empty((b, d, d), dtype=complex)
    u_dag = u_conj.swapaxes(-1, -2)
    work = step_work(theta.shape)

    g = np.einsum("bm,mij->bij", coeff_batch, pairings.generators, out=adj[0])
    units[0] = np.eye(d)
    units_g[0] = g
    if renorm:
        v_n = np.empty((n_steps, b, 1, k))
        amps = np.empty((n_steps, b, 1, k))
        norms = np.empty((n_steps, b, 1, 1))
        v_t = v_n.swapaxes(-1, -2)
        scale = np.empty((b, 1, 1))
        to_v, v_to_theta = pairings.to_v, pairings.theta_hams_ri
    else:
        to_theta = pairings.to_theta
    with eigh_guard():
        for n, (unit, unit_g, adj_n, adj_ri_n, i_theta_n, q, p, x, x_next) in enumerate(step_views):
            if n > 0:
                np.conjugate(unit, out=u_conj)
                np.matmul(unit_g, u_dag, out=adj_n)
            if renorm:
                v = np.matmul(adj_ri_n, to_v, out=v_n[n])
                np.sqrt(np.matmul(v, v_t[n], out=norms[n]), out=norms[n])
                if n > 0:
                    np.divide(norms[0], np.maximum(norms[n], ENVELOPE_FLOOR, out=scale), out=scale)
                    v = np.multiply(v, scale, out=amps[n])
                else:
                    amps[0] = v
                np.matmul(v, v_to_theta, out=theta_ri)
            else:
                np.matmul(adj_ri_n, to_theta, out=theta_ri)
            step_eigensystems(theta, out=(i_theta_n, q, p), work=work)
            np.matmul(p, x, out=x_next)
    valid = np.all(norms >= ENVELOPE_FLOOR, axis=0)[:, 0, 0] if renorm else np.ones(b, dtype=bool)
    if renorm:
        amplitudes, v, c0 = amps[..., 0, :], v_n[..., 0, :], norms[0, :, 0, 0]
    else:
        # one (1, 2d^2) @ (2d^2, K) product per step and point, after the loop
        amplitudes = (adj_ri.reshape(n_steps * b, 1, 2 * d * d) @ pairings.to_v).reshape(n_steps, b, k)
        v, c0 = None, np.linalg.norm(amplitudes[0], axis=1)
    return units[n_steps], valid, _Tape(g, amplitudes, units, c0, i_theta.imag, q_n, p_n, v)


def pulses_from_adjoint(
    g: AdjointMatrix,
    controls: ControlSet,
    n_steps: int,
    mode: str = "energy_optimal",
) -> tuple[PulseSchedule, PropagationResult]:
    """Construct the pulse induced by g, with the unitaries its construction propagated."""
    config = MagicarpConfig(n_steps=n_steps, mode=mode)
    controls.check_adjoint(g)
    pairings = _Pairings.create(controls, config.n_steps)
    _, valid, tape = _construct_batch(g.coeffs[None, :], pairings, config.mode)
    if not valid[0]:
        raise DegenerateEnvelopeError(
            "structural prediction has norm below "
            f"{ENVELOPE_FLOOR:g} at some step; pulse direction is undefined"
        )
    schedule = PulseSchedule.from_amplitudes(tape.amplitudes[:, 0])
    # a copy: the tape's unitaries are a view of its [U_n, U_n g] stack
    return schedule, PropagationResult(tape.unitaries[:, 0].copy(), schedule.duration(controls.omega_max))


def batch_objective(coeff_batch: np.ndarray, context: ShootingContext) -> np.ndarray:
    """Normalized infidelity for a (B, d^2-1) stack of coefficient vectors.

    Degenerate-envelope entries come back as +inf.
    """
    return _forward(coeff_batch, context)[0]


def _forward(points, context: ShootingContext) -> tuple[np.ndarray, _Tape]:
    """Objective values (+inf for a degenerate envelope) and the tape of B points,
    a (B, d^2-1) stack or a list of B coefficient vectors; the tape keeps the overlaps they value."""
    u_final, valid, tape = _construct_batch(points, context.pairings, context.config.mode)
    overlap = gate_overlap(context.target, u_final)
    values = np.where(valid, infidelity_from_overlap(overlap, context.controls.dim), np.inf)
    return values, replace(tape, overlap=overlap)


def _backward(tape: _Tape, context: ShootingContext) -> np.ndarray:
    """(B, d^2-1) gradients dJ/dc from the tape of B forward passes (``_forward``), by reverse mode.

    Cotangents X_bar are taken so that dJ = Re Tr(X_bar^dag dX). The sweep
    carries Y_n = U_bar_n^dag backward from Y_N = -2 conj(Tr(V^dag U_N)) V^dag / d^2, the tape's overlap:

    * P_bar_n^dag = U_n Y_{n+1}, pulled through the exact derivative of
      P_n = exp(i Theta_n), Theta_n = -dt H_n, in its eigenbasis Q_n (divided
      differences phi_n), gives u_bar_{n,k} = Re Tr((Q^dag Theta_k Q)(M_n o phi_n))
      with Theta_k = -dt H_k and M_n = (Q^dag U_n)(Y_{n+1} Q). Since
      Q^dag Theta_k Q is Hermitian and phi_n symmetric, that is the float view
      of the pairing A_{n,k} = (Q^dag Theta_k Q) o conj(phi_n) dotted with the
      float view of M_n: one real product per step. Every Q^dag Theta_k Q
      is built ahead of the sweep as sum_p Theta_k[i_p, j_p] conj(Q[i_p, :])^T Q[j_p, :]
      over the non-zero entries (i_p, j_p) of the Theta_k, one
      (K, nnz) @ (nnz, d^2) product per step and row (``_Pairings.eigenbasis``);
    * in renormalized mode u_n = c0 v_n / ||v_n|| for n > 0, so
      v_bar_n = (c0/||v_n||)(1 - v^ v^T) u_bar_n, folded into that step's
      pairing ahead of the sweep, and c0 = ||v_0|| gathers
      c0_bar = sum_{n>0} v^_n . u_bar_n, which passes on to v_0 (u_0 = v_0 in
      both modes) after the sweep;
    * v_{n,k} = 1/2 Re Tr(U_n g U_n^dag H_k) with S_n = sum_k v_bar_{n,k} H_k
      gives the feedback term Y_n = Y_{n+1} P_n + (g U_n^dag) S_n, one block
      product [Y_{n+1} | g U_n^dag] @ [P_n ; S_n], and
      g_bar = 1/2 sum_n U_n^dag S_n U_n, one stacked product over every step.

    So a step costs five products: Y Q, M, v_bar, S and the block product,
    each written into a step-major buffer. Every product is a stack of the
    per-point products (vectors as (1, K) or (K, 1) matrices), so each row is
    bitwise the gradient of its point computed alone.
    """
    d = context.controls.dim
    pairings = context.pairings
    n_steps, b, k = tape.amplitudes.shape
    renorm = context.config.mode == "time_optimal_renormalized"
    hams_ri = context.controls.hamiltonians.view(float).reshape(k, 2 * d * d)
    units = tape.unitaries[:-1]
    units_dag = units.conj().swapaxes(-1, -2)
    q, q_dag = tape.q, tape.q.conj().swapaxes(-1, -2)

    # per-step constants, batched over n ahead of the sequential sweep
    qu = q_dag @ units  # Q_n^dag U_n
    pair = pairings.eigenbasis(q)  # Q_n^dag Theta_k Q_n, (N, B, K, d, d)
    pair *= np.conjugate(exp_divided_differences(tape.theta))[:, :, None]
    pair_ri = pair.view(float).reshape(n_steps, b, k, 2 * d * d)
    if renorm:
        # the rows of J_n = (c0/||v_n||)(1 - v^ v^T) (J_0 = 1) and v^_n^T mix the
        # pairing of step n, so that it gives v_bar_n = J_n u_bar_n and u_bar_n . v^_n
        v = tape.v[:, :, None]  # (N, B, 1, K)
        norms = np.sqrt(v @ v.swapaxes(-1, -2))
        v_hat, scale = v / norms, tape.c0[:, None, None] / norms
        mix = np.empty((n_steps, b, k + 1, k))
        jac = np.multiply(v_hat.swapaxes(-1, -2), -scale * v_hat, out=mix[:, :, :k])
        np.einsum("...ii->...i", jac)[...] += scale[..., 0]
        jac[0] = np.eye(k)
        mix[:, :, k:] = v_hat
        pair_ri = mix @ pair_ri
    pull_v, pull_c0 = pair_ri[:, :, :k], pair_ri[:, :, k:]  # pull_c0_n . M_n = u_bar_n . v^_n

    left = np.empty((n_steps, b, d, 2 * d), dtype=complex)  # [Y_{n+1} | g U_n^dag]
    right = np.empty((n_steps, b, 2 * d, d), dtype=complex)  # [P_n ; S_n]
    np.matmul(tape.g, units_dag, out=left[..., d:])
    right[:, :, :d] = tape.steps
    y, s = left[..., :d], right[:, :, d:]
    s_ri = s.view(float).reshape(n_steps, b, 1, 2 * d * d)
    m = np.empty((n_steps, b, d, d), dtype=complex)
    m_ri = m.view(float).reshape(n_steps, b, 2 * d * d, 1)
    yq = np.empty((b, d, d), dtype=complex)
    v_bar = np.empty((n_steps, b, k, 1))
    v_bar_t = v_bar.swapaxes(-1, -2)

    np.multiply((-2.0 * tape.overlap.conj() / d**2)[:, None, None], context.target.conj().T, out=y[-1])
    # per-step views, taken once: indexing a view costs about as much as a product's dispatch
    sweep = list(zip(y, q, qu, m, m_ri, pull_v, v_bar, v_bar_t, s_ri, left, right, [None, *y]))
    for y_n, q_n, qu_n, m_n, m_ri_n, pull_v_n, v_bar_n, v_bar_t_n, s_ri_n, left_n, right_n, y_prev in reversed(sweep):
        np.matmul(qu_n, np.matmul(y_n, q_n, out=yq), out=m_n)
        np.matmul(pull_v_n, m_ri_n, out=v_bar_n)
        if y_prev is not None:  # step 0 ends the sweep
            np.matmul(v_bar_t_n, hams_ri, out=s_ri_n)
            np.matmul(left_n, right_n, out=y_prev)
    if renorm:
        # c0_bar = sum_{n>0} pull_c0_n . M_n, one dot per row over its steps
        def by_row(a):
            return np.ascontiguousarray(a[1:].swapaxes(0, 1)).reshape(b, 1, -1)

        c0_bar = by_row(pull_c0) @ by_row(m_ri).swapaxes(-1, -2)
        v_bar[0] += (c0_bar / tape.c0[:, None, None]) * tape.v[0, :, :, None]
    np.matmul(v_bar_t[0], hams_ri, out=s_ri[0])

    # dJ/dc_m = Re Tr(G_m g_bar) = 1/2 Re Tr(G_m sum_n U_n^dag S_n U_n)
    g_bar = (units_dag @ s @ units).sum(axis=0)
    return (g_bar.view(float).reshape(b, 1, 2 * d * d) @ pairings.to_coeffs)[:, 0]


def reverse_gradient(g_coeffs: np.ndarray, context: ShootingContext) -> np.ndarray:
    """Exact gradient of ``batch_objective`` at one point: one forward and one backward pass."""
    values, tape = _forward(np.asarray(g_coeffs, dtype=float)[None, :], context)
    if not np.isfinite(values[0]):
        raise DegenerateEnvelopeError("structural prediction vanished; gradient undefined at this point")
    return _backward(tape, context)[0]


def initial_coeffs(config: MagicarpConfig, n_params: int) -> np.ndarray:
    return config.start((n_params,))


def run_restarts(context: ShootingContext, seeds: Sequence[int]) -> list[OptimizationReport | Exception]:
    """Independent BFGS restarts from the given seeds, run in lockstep.

    ``optimizer.run_lockstep`` drives them, with ``_forward`` for the
    requested points and ``_backward`` over the gathered rows of their
    tapes. Since each row of these batches is bitwise the same as the row
    computed alone, every restart follows the iterates of its lone run.

    Returns one report per seed, in order, or the ``optimizer.RUN_FAILURES``
    error (``LinAlgError``, ``RuntimeError``, ``NonFiniteStartError``) that ended
    that restart; other errors propagate. Every report's ``wall_time`` is the group's.
    """
    cfg = context.config
    seeds = [int(seed) for seed in seeds]
    runs = run_lockstep(
        [initial_coeffs(replace(cfg, seed=seed), context.n_params) for seed in seeds],
        lambda points: _forward(points, context),
        lambda held: _backward(_Tape.rows(held), context),
        tol=cfg.convergence_tol,
        max_iters=cfg.max_iters,
    )

    def report(run, seed):
        _, tape, row = run.held
        # a copy: the row is a strided view of the whole group's pulses
        schedule = PulseSchedule.from_amplitudes(tape.amplitudes[:, row].copy())
        final_g = AdjointMatrix(context.controls.dim, run.result.x)
        return run.report(schedule, run.result.trace[-1], context.controls.omega_max, final_g=final_g, seed=seed)

    return [run if isinstance(run, Exception) else report(run, seed) for run, seed in zip(runs, seeds)]


def optimize(context: ShootingContext) -> OptimizationReport:
    """Quasi-Newton descent on infidelity over the d^2-1 adjoint coefficients,
    from the config's seed: ``restarted_optimize`` with that one seed."""
    return restarted_optimize(context, [context.config.seed])[0]


def restarted_optimize(context: ShootingContext, seeds: Sequence[int]) -> list[OptimizationReport]:
    """Independent restarts of ``optimize`` over the given seeds, LOCKSTEP_WIDTH at a
    time; the error of the first restart that failed is raised before the next group starts."""
    seeds = list(seeds)
    reports = []
    for i in range(0, len(seeds), LOCKSTEP_WIDTH):
        for outcome in run_restarts(context, seeds[i : i + LOCKSTEP_WIDTH]):
            if isinstance(outcome, Exception):
                raise outcome
            reports.append(outcome)
    return reports


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
    d = controls.dim
    result = propagate(controls, schedule)
    env = schedule.envelope
    keep = env >= ENVELOPE_FLOOR
    if not keep.any():
        raise ValueError("schedule envelope is zero everywhere; nothing to certify")
    unitaries = result.unitaries[:-1][keep, None]
    targets = (schedule.amplitudes[keep] / env[keep][:, None]).ravel()
    # D_n[k, m] = 1/2 Re Tr(U_n G_m U_n^dag H_k) = 1/2 Re Tr((U_n^dag H_k U_n) G_m):
    # the K conjugated controls of each kept step, paired with the generators
    conjugated = unitaries.conj().swapaxes(-1, -2) @ controls.hamiltonians @ unitaries
    design = conjugated.view(float).reshape(-1, 2 * d * d) @ _pairing(GeneratorBasis.create(d).generators)
    coeffs, *_ = np.linalg.lstsq(design, targets, rcond=None)
    residual = float(
        np.linalg.norm(design @ coeffs - targets) / np.sqrt(targets.size)
    )
    return CertificateResult(
        g_fit=AdjointMatrix(d, coeffs),
        residual=residual,
        n_excluded=int((~keep).sum()),
    )


# -- serialization ----------------------------------------------------------


def adjoint_to_dict(g: AdjointMatrix) -> dict:
    return {"dim": g.dim, "basis": "gell-mann", "coeffs": [float(c) for c in g.coeffs]}


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

