"""GRAPE baseline: gradient descent over all N*K per-step amplitudes.

The cost is the normalized infidelity plus an optional energy penalty

    weight * (dt * sum_{n,k} u_k(n dt)^2) / tau_qsl,

the discretized energy integral in speed-limit units. With a small weight
this slides an exact-gate solution along its manifold toward minimal
energy, i.e. minimal duration for near-constant envelopes.

Gradients of the fidelity term are exact: the derivative of each step
exponential is evaluated in the eigenbasis of its Hermitian generator
(first-order -i dt H_k approximations visibly fail the finite-difference
check at modest N). One forward pass, the step eigensystems and products
L_n from ``propagation`` (``pulse_eigensystems``, ``accumulate``), serves
both the objective and the gradient. The gradient forms the (N, d, d)
stack M_n = L_n W L_{n+1}^dag, W = V^dag U_N, and ``propagation.pulse_pullback``
contracts all steps at once through the step eigensystems of the pass.
``grape_optimize`` hands the BFGS runner (``optimizer.run_lockstep``) a
per-point forward pass that also values the point and a gradient that reads
a held pass. The line search values one rung at a time and the runner holds
the pass of each point it values, so the gradient at an accepted rung and
the final report build no second pass. The held pass (``_held_pass``) also
keeps the overlap Tr(V^dag U_N) the objective forms, which the gradient and
the report read instead of forming it again. The report counts the passes
built, the gradients contracted and the curvature updates BFGS took, and
the runner's phase seconds (in memory only).

A random start lies in a region where the infidelity is concave, where
s.y < 0 leaves BFGS without curvature and its first steps at most |g|
long. So GRAPE runs BFGS with ``learn_step``: each such step doubles the
next line search's first step, and cold QFT(5) over 64 steps reaches the
gate in about 42 iterations instead of 510-841: fewer than the 128 updates
its inverse Hessian (``optimizer.InverseHessian``) stores before it first
makes a dense array of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optimizer import OptimizationReport, RunConfig, run_lockstep
from .propagation import (
    PulseSchedule,
    accumulate,
    gate_overlap,
    infidelity_from_overlap,
    pulse_eigensystems,
    pulse_pullback,
)
from .qudit import ControlSet, tau_qsl


@dataclass(frozen=True)
class GrapeConfig(RunConfig):
    """``RunConfig`` with the penalty weight and a start of n_steps rows of amplitudes."""

    START = "init_schedule"
    n_steps: int = 64
    max_iters: int = 2000
    penalty_weight: float = 0.0
    init_schedule: tuple[tuple[float, ...], ...] | None = None

    def _checks(self) -> tuple:
        weight = self.penalty_weight
        return (("penalty_weight", np.isfinite(weight) and weight >= 0, "a finite number >= 0"),)


def energy_integral(schedule: PulseSchedule) -> float:
    """dt * sum_{n,k} u_k(n dt)^2, the discretized energy of the pulse."""
    return schedule.dt * float(np.sum(schedule.amplitudes**2))


def _forward_pass(controls: ControlSet, schedule: PulseSchedule) -> tuple:
    """The step eigensystems (theta, q) of Theta_n = -dt H_n, as ``pulse_eigensystems``
    gives them, and the forward products L_0..L_N of a pulse."""
    theta, q, steps = pulse_eigensystems(controls, schedule)
    return theta, q, accumulate(steps)


def _held_pass(controls: ControlSet, schedule: PulseSchedule, target: np.ndarray) -> tuple:
    """The pass the objective and the gradient read: ``_forward_pass`` and the
    overlap Tr(V^dag U_N) of the target V."""
    theta, q, products = _forward_pass(controls, schedule)
    return theta, q, products, gate_overlap(target, products[-1])


def grape_objective(
    schedule: PulseSchedule,
    target: np.ndarray,
    controls: ControlSet,
    penalty_weight: float = 0.0,
    *,
    forward: tuple | None = None,
) -> float:
    """Normalized infidelity plus the weighted energy integral in tau_qsl units.

    ``forward`` is the schedule's held pass (``_held_pass``) if the caller already holds it.
    """
    overlap = (_held_pass(controls, schedule, target) if forward is None else forward)[3]
    value = infidelity_from_overlap(overlap, controls.dim)
    if penalty_weight != 0.0:
        value += penalty_weight * energy_integral(schedule) / tau_qsl(
            controls.dim, controls.omega_max
        )
    return value


def grape_gradient(
    schedule: PulseSchedule,
    target: np.ndarray,
    controls: ControlSet,
    penalty_weight: float = 0.0,
    *,
    forward: tuple | None = None,
) -> np.ndarray:
    """Exact gradient of ``grape_objective`` w.r.t. every amplitude, shape (N, K).

    ``forward`` is the schedule's held pass (``_held_pass``) if the caller already holds it.
    """
    n, d, dt = schedule.n_steps, controls.dim, schedule.dt
    # L_n = P_{n-1} ... P_0
    theta, q, fwd, overlap = _held_pass(controls, schedule, target) if forward is None else forward

    # d tau / d u_k(n) = Tr(W L_{n+1}^dag D_{n,k} L_n) = Tr(M_n D_{n,k}), W = V^dag U_N,
    # D_{n,k} the derivative of the step along u_k; ``pulse_pullback`` gives it over -dt,
    # the -dt taken into the final factor. W enters by one flat (N d, d) @ (d, d) product.
    w_mat = target.conj().T @ fwd[-1]
    m = (fwd[:-1].reshape(n * d, d) @ w_mat).reshape(n, d, d) @ fwd[1:].conj().swapaxes(-1, -2)
    grad_tau = pulse_pullback(controls, theta, q, m)

    grad = (2.0 * dt / d**2) * (np.conj(overlap) * grad_tau).real
    if penalty_weight != 0.0:
        grad = grad + (
            2.0 * penalty_weight * dt / tau_qsl(d, controls.omega_max)
        ) * schedule.amplitudes
    return grad


def initial_schedule(config: GrapeConfig, n_controls: int) -> PulseSchedule:
    return PulseSchedule.from_amplitudes(config.start((config.n_steps, n_controls)))


def grape_optimize(
    target: np.ndarray, controls: ControlSet, config: GrapeConfig
) -> OptimizationReport:
    """Same optimizer contract as the shooting driver, over N*K parameters."""
    target = controls.check_target(target)
    n, k, weight = config.n_steps, controls.n_controls, config.penalty_weight

    def forward(points: list[np.ndarray]) -> tuple[list[float], list[tuple[PulseSchedule, tuple]]]:
        """The objective at each point, and the tape of their held passes: (schedule, pass) per point."""
        tape = []
        for x in points:
            schedule = PulseSchedule.from_amplitudes(x.reshape(n, k))
            tape.append((schedule, _held_pass(controls, schedule, target)))
        return [grape_objective(s, target, controls, weight, forward=passed) for s, passed in tape], tape

    def backward(held: list[tuple[list, int]]) -> list[np.ndarray]:
        grads = []
        for tape, row in held:
            schedule, passed = tape[row]
            grads.append(grape_gradient(schedule, target, controls, weight, forward=passed).ravel())
        return grads

    x0 = initial_schedule(config, k).amplitudes.ravel()
    run = run_lockstep(
        [x0], forward, backward, tol=config.convergence_tol, max_iters=config.max_iters, learn_step=True
    )[0]
    if isinstance(run, Exception):
        raise run
    _, tape, row = run.held
    schedule, (*_, overlap) = tape[row]
    infidelity = infidelity_from_overlap(overlap, controls.dim)
    return run.report(schedule, infidelity, controls.omega_max, final_g=None, seed=config.seed)
