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
L_n from ``propagation`` (``step_eigensystems``, ``accumulate``), serves
both the objective and the gradient. The gradient contracts all steps at
once: batched d x d products, then one flat (N, d^2) @ (d^2, K) product.
``grape_optimize`` holds the pass of the point it evaluated last, so the
gradient at an accepted point and the final report build no second pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .optimizer import OptimizationReport, minimize_bfgs
from .propagation import (
    PulseSchedule,
    accumulate,
    control_generator,
    eigh_guard,
    exp_divided_differences,
    normalized_infidelity,
    step_eigensystems,
)
from .qudit import ControlSet, assert_unitary, tau_qsl


@dataclass(frozen=True)
class GrapeConfig:
    n_steps: int = 64
    max_iters: int = 2000
    convergence_tol: float = 1e-7
    penalty_weight: float = 0.0
    stall_tol: float = 1e-12
    init: str = "random_normal"  # "zeros" | "random_normal" | "explicit"
    init_sigma: float = 1.0
    init_schedule: tuple[tuple[float, ...], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        for name, ok, expected in (
            ("n_steps", self.n_steps >= 1, "an integer >= 1"),
            ("max_iters", self.max_iters >= 1, "an integer >= 1"),
            ("convergence_tol", 0 < self.convergence_tol < np.inf, "a positive finite number"),
            ("penalty_weight", np.isfinite(self.penalty_weight) and self.penalty_weight >= 0, "a finite number >= 0"),
            ("stall_tol", 0 < self.stall_tol < np.inf, "a positive finite number"),
            ("init", self.init in ("zeros", "random_normal", "explicit"), "zeros|random_normal|explicit"),
            ("init_sigma", 0 < self.init_sigma < np.inf, "a positive finite number"),
            ("init_schedule", self.init != "explicit" or self.init_schedule is not None, "rows for explicit init"),
            ("seed", 0 <= self.seed < 2**64, "a 64-bit unsigned integer"),
        ):
            if not ok:
                raise ValueError(f"{name}: expected {expected}, got {getattr(self, name)!r}")


def energy_integral(schedule: PulseSchedule) -> float:
    """dt * sum_{n,k} u_k(n dt)^2, the discretized energy of the pulse."""
    return schedule.dt * float(np.sum(schedule.amplitudes**2))


def _forward_pass(controls: ControlSet, schedule: PulseSchedule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step eigensystems (w, q) and forward products L_0..L_N of a pulse."""
    h = control_generator(controls, schedule.amplitudes)
    with eigh_guard():
        w, q, steps = step_eigensystems(h, schedule.dt)
    return w, q, accumulate(steps)


def grape_objective(
    schedule: PulseSchedule,
    target: np.ndarray,
    controls: ControlSet,
    penalty_weight: float = 0.0,
    *,
    forward: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> float:
    """Normalized infidelity plus the weighted energy integral in tau_qsl units.

    ``forward`` is the schedule's forward pass if the caller already holds it.
    """
    _, _, products = _forward_pass(controls, schedule) if forward is None else forward
    value = normalized_infidelity(target, products[-1])
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
    forward: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Exact gradient of ``grape_objective`` w.r.t. every amplitude, shape (N, K).

    ``forward`` is the schedule's forward pass if the caller already holds it.
    """
    d = controls.dim
    dt = schedule.dt
    w, q, fwd = _forward_pass(controls, schedule) if forward is None else forward  # L_n = P_{n-1} ... P_0
    u_final = fwd[-1]
    overlap = np.sum(target.conj() * u_final)

    # d tau / d u_k(n) = Tr(W L_{n+1}^dag D_{n,k} L_n) = Tr(M_n D_{n,k}) with
    # W = V^dag U_N and M_n = L_n W L_{n+1}^dag. In the step eigenbasis
    # D = Q (phi o (Q^dag H_k Q)) Q^dag, and phi is symmetric, so
    # Tr(M D) = sum_ab X_ba H_k,ab with X = Q (phi o (Q^dag M Q)) Q^dag:
    # one flat (N, d^2) @ (d^2, K) product against the transposed H_k.
    w_mat = target.conj().T @ u_final
    phi = exp_divided_differences(w, dt)
    m = fwd[:-1] @ w_mat @ fwd[1:].conj().swapaxes(-1, -2)
    q_dag = q.conj().swapaxes(-1, -2)
    x = q @ (phi * (q_dag @ m @ q)) @ q_dag
    h_flat = controls.hamiltonians.swapaxes(-1, -2).reshape(controls.n_controls, d * d)
    grad_tau = x.reshape(schedule.n_steps, d * d) @ h_flat.T

    grad = -2.0 * (np.conj(overlap) * grad_tau).real / d**2
    if penalty_weight != 0.0:
        grad = grad + (
            2.0 * penalty_weight * dt / tau_qsl(d, controls.omega_max)
        ) * schedule.amplitudes
    return grad


def _hold_last(fn):
    """``fn(x)`` that keeps its last result, keyed by the bytes of x."""
    key, value = None, None

    def held(x: np.ndarray):
        nonlocal key, value
        if key != x.tobytes():
            key, value = x.tobytes(), fn(x)
        return value

    return held


def initial_schedule(config: GrapeConfig, n_controls: int) -> PulseSchedule:
    if config.init == "explicit":
        rows = config.init_schedule
        if len(rows) != config.n_steps or any(len(row) != n_controls for row in rows):
            raise ValueError(f"init_schedule: expected {config.n_steps} rows of {n_controls} amplitudes")
        return PulseSchedule.from_amplitudes(np.asarray(rows, dtype=float))
    if config.init == "zeros":
        return PulseSchedule.from_amplitudes(np.zeros((config.n_steps, n_controls)))
    rng = np.random.default_rng(config.seed)
    return PulseSchedule.from_amplitudes(
        config.init_sigma * rng.standard_normal((config.n_steps, n_controls))
    )


def grape_optimize(
    target: np.ndarray, controls: ControlSet, config: GrapeConfig
) -> OptimizationReport:
    """Same optimizer contract as the shooting driver, over N*K parameters."""
    target = assert_unitary(target)
    if target.shape[0] != controls.dim:
        raise ValueError("target dimension does not match control set")
    n, k = config.n_steps, controls.n_controls

    def as_schedule(x: np.ndarray) -> PulseSchedule:
        return PulseSchedule.from_amplitudes(x.reshape(n, k))

    # the line search evaluates fun at the point it accepts, then asks for
    # the gradient there: both read one held forward pass, as does the report
    @_hold_last
    def held_pass(x: np.ndarray) -> tuple[PulseSchedule, tuple]:
        schedule = as_schedule(x)
        return schedule, _forward_pass(controls, schedule)

    def fun(x: np.ndarray) -> float:
        schedule, passed = held_pass(x)
        return grape_objective(schedule, target, controls, config.penalty_weight, forward=passed)

    def grad(x: np.ndarray) -> np.ndarray:
        schedule, passed = held_pass(x)
        return grape_gradient(schedule, target, controls, config.penalty_weight, forward=passed).ravel()

    x0 = initial_schedule(config, k).amplitudes.ravel()
    t0 = time.perf_counter()
    result = minimize_bfgs(
        fun,
        grad,
        x0,
        tol=config.convergence_tol,
        max_iters=config.max_iters,
        stall_tol=config.stall_tol,
    )
    wall = time.perf_counter() - t0
    schedule, (_, _, products) = held_pass(result.x)
    infidelity = normalized_infidelity(target, products[-1])
    return OptimizationReport(
        final_g=None,
        final_schedule=schedule,
        infidelity=infidelity,
        duration=schedule.duration(controls.omega_max),
        cost_trace=result.trace,
        iterations=result.iterations,
        converged=infidelity <= config.convergence_tol,
        seed=config.seed,
        wall_time=wall,
        stop_reason=result.stop_reason,
    )
