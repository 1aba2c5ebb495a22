"""Piecewise-constant unitary propagation on the nominal horizon [0, 1].

The pulse lives on N uniform steps of the nominal interval; amplitudes are
unbounded there. The physical duration is the envelope integral rescaled by
the drive bound: running the same pulse at instantaneous amplitude
``omega_max`` takes time ``dt * sum_n c(n dt) / omega_max``, which is what
``PulseSchedule.duration`` computes (with the default ``omega_max = 1``
it is the plain envelope integral, i.e. T in units of 1/omega_max).

``step_eigensystems`` is the one step kernel and ``accumulate`` the one loop
of step products; only the shooting construction, whose every step depends
on the state before it, interleaves its own. The kernel calls numpy's
``eigh`` gufunc directly; its callers enter ``eigh_guard()`` once per pass
so that a failed ``eigh`` raises ``np.linalg.LinAlgError``.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .qudit import AdjointMatrix, ControlSet

FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class PulseSchedule:
    """Piecewise-constant control amplitudes u_k(n dt) on N uniform steps."""

    n_steps: int
    n_controls: int
    dt: float
    amplitudes: np.ndarray = field(repr=False)  # (N, K)

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if abs(self.dt * self.n_steps - 1.0) > 1e-12:
            raise ValueError(f"dt * N = {self.dt * self.n_steps} is not 1")
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.shape != (self.n_steps, self.n_controls):
            raise ValueError(
                f"amplitudes shape {amps.shape} != ({self.n_steps}, {self.n_controls})"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amplitudes: np.ndarray) -> "PulseSchedule":
        amplitudes = np.atleast_2d(np.asarray(amplitudes, dtype=float))
        n, k = amplitudes.shape
        return cls(n_steps=n, n_controls=k, dt=1.0 / n, amplitudes=amplitudes)

    @property
    def envelope(self) -> np.ndarray:
        return np.linalg.norm(self.amplitudes, axis=1)

    def duration(self, omega_max: float) -> float:
        """The time the pulse takes at drive bound omega_max: dt * sum_n c(n dt) / omega_max."""
        return self.dt * float(self.envelope.sum()) / omega_max


@dataclass(frozen=True)
class PropagationResult:
    """Unitaries U(n dt) for n = 0..N and the duration."""

    unitaries: np.ndarray = field(repr=False)  # (N+1, d, d)
    duration: float

    @property
    def final(self) -> np.ndarray:
        return self.unitaries[-1]


def _raise_nonconvergence(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def eigh_guard() -> np.errstate:
    """The error state under which ``step_eigensystems`` reports a failed
    ``eigh`` as ``np.linalg.LinAlgError``, as ``np.linalg.eigh`` does.

    The ``eigh`` gufunc flags a failure as an invalid operation (a division
    by zero may come with it) and fills its outputs with NaN. Enter the guard
    once around a loop of steps, not once per step; inside it any other
    invalid operation raises the same error, and overflow, underflow and
    division warnings are silenced.
    """
    return np.errstate(call=_raise_nonconvergence, invalid="call", divide="ignore", over="ignore", under="ignore")


def step_eigensystems(
    h: np.ndarray,
    dt: float,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shared step kernel: eigenvalues w, eigenvectors q and exp(-i dt H)
    for a stack (..., d, d) of Hermitian H, from one call of the ``eigh``
    gufunc (its lower triangle, as ``np.linalg.eigh`` reads it).

    Call it under ``eigh_guard()``, which makes a failed ``eigh`` raise
    ``np.linalg.LinAlgError``. ``out`` is an optional (w, q, exp) triple of
    arrays to write the results into; ``work`` is an optional triple of
    contiguous complex scratch arrays, shaped (..., 1, d), (..., d, d) and
    (..., d, d), that the kernel overwrites (``step_work``), so that a loop of
    steps allocates nothing. The exponential is exactly unitary up to rounding.
    Together with ``exp_divided_differences(w, dt)`` the eigensystems give the
    exact derivative of each exponential, which GRAPE's gradient and the
    shooting backward pass both use.
    """
    w, q, step = (None, None, None) if out is None else out
    phases, q_e, q_conj = step_work(h.shape) if work is None else work
    w, q = _umath_linalg.eigh_lo(h, out=(w, q))
    np.exp(np.multiply(w[..., None, :], -1j * dt, out=phases), out=phases)
    np.multiply(q, phases, out=q_e)
    step = np.matmul(q_e, np.conjugate(q, out=q_conj).swapaxes(-1, -2), out=step)
    return w, q, step


def step_work(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scratch for ``step_eigensystems`` on a stack of the given (..., d, d) shape."""
    return np.empty(shape[:-2] + (1, shape[-1]), dtype=complex), np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)


def exp_divided_differences(w: np.ndarray, dt: float) -> np.ndarray:
    """Divided differences of z -> exp(-i dt z) on eigenvalue pairs.

    Entry (p, q) equals (e^{-i dt w_p} - e^{-i dt w_q}) / (w_p - w_q),
    continued to -i dt e^{-i dt w_p} on the diagonal. Written via sinc, which
    is exact for coincident eigenvalues as well. In the eigenbasis Q of H the
    derivative of exp(-i dt H) along dH is Q (phi o (Q^dag dH Q)) Q^dag.
    """
    mean = 0.5 * (w[..., :, None] + w[..., None, :])
    diff = w[..., :, None] - w[..., None, :]
    return -1j * dt * np.exp(-1j * dt * mean) * np.sinc(dt * diff / (2.0 * np.pi))


def expm_ihermitian(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) for Hermitian H via eigendecomposition; exactly unitary
    up to rounding. Accepts a stack (..., d, d) and exponentiates each."""
    with eigh_guard():
        return step_eigensystems(h, dt)[2]


def control_generator(controls: ControlSet, amplitudes: np.ndarray) -> np.ndarray:
    """H(u) = sum_k u_k H_k. Batched over leading amplitude axes."""
    amplitudes = np.asarray(amplitudes, dtype=float)
    if amplitudes.shape[-1] != controls.n_controls:
        raise ValueError(f"amplitudes have {amplitudes.shape[-1]} controls, control set has {controls.n_controls}")
    return np.tensordot(amplitudes, controls.hamiltonians, axes=([-1], [0]))


def step_unitary(controls: ControlSet, amplitudes_at_step: np.ndarray, dt: float) -> np.ndarray:
    """Single-step propagator exp(-i dt sum_k u_k H_k)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    amplitudes_at_step = np.asarray(amplitudes_at_step, dtype=float)
    if not np.all(np.isfinite(amplitudes_at_step)):
        raise ValueError("amplitudes must be finite")
    return expm_ihermitian(control_generator(controls, amplitudes_at_step), dt)


def accumulate(steps: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """Products X_0 = start (default 1), X_{n+1} = steps[n] @ X_n, shape (N+1, d, d)."""
    n, d, _ = steps.shape
    products = np.empty((n + 1, d, d), dtype=complex)
    products[0] = np.eye(d) if start is None else start
    for i in range(n):
        products[i + 1] = steps[i] @ products[i]
    return products


def propagate(controls: ControlSet, schedule: PulseSchedule) -> PropagationResult:
    """Accumulate U(n dt) = exp(-i dt H(u(n-1))) U((n-1) dt) from U(0) = 1."""
    steps = expm_ihermitian(control_generator(controls, schedule.amplitudes), schedule.dt)
    return PropagationResult(unitaries=accumulate(steps), duration=schedule.duration(controls.omega_max))


def gate_fidelity(u_target: np.ndarray, u_final: np.ndarray) -> float:
    """|Tr(U_target^dag U)|^2, in [0, d^2], invariant under global phases."""
    u_target = np.asarray(u_target)
    u_final = np.asarray(u_final)
    if u_target.shape != u_final.shape:
        raise ValueError(f"dimension mismatch: {u_target.shape} vs {u_final.shape}")
    return float(abs(np.sum(u_target.conj() * u_final)) ** 2)


def normalized_infidelity(u_target: np.ndarray, u_final: np.ndarray) -> float:
    """1 - |Tr(U_target^dag U)|^2 / d^2, in [0, 1]."""
    d = np.asarray(u_target).shape[0]
    return 1.0 - gate_fidelity(u_target, u_final) / d**2


def verify_adjoint_constancy(
    controls: ControlSet, schedule: PulseSchedule, g: AdjointMatrix
) -> float:
    """Max deviation of the integrated costate from U(t) @ (i g).

    Integrates lambda' = -i H(t) lambda from lambda(0) = i g with the same
    step exponentials as the propagator and returns
    max_n || lambda(n dt) - U(n dt) i g ||_F; the two sides associate the
    same step products differently.
    """
    if g.dim != controls.dim:
        raise ValueError("adjoint dimension does not match control set")
    steps = expm_ihermitian(control_generator(controls, schedule.amplitudes), schedule.dt)
    lam0 = 1j * g.to_matrix()
    drift = accumulate(steps, start=lam0)[1:] - accumulate(steps)[1:] @ lam0
    return max([0.0] + [float(np.linalg.norm(r)) for r in drift])


def bloch_trajectory(result: PropagationResult, dt: float) -> np.ndarray:
    """Bloch coordinates of U(n dt)|0> for d=2, rows (t, x, y, z)."""
    if result.unitaries.shape[-1] != 2:
        raise ValueError("Bloch trajectory is defined for d=2 only")
    a = result.unitaries[:, 0, 0]
    b = result.unitaries[:, 1, 0]
    t = np.arange(result.unitaries.shape[0]) * dt
    x = 2.0 * (a.conj() * b).real
    y = 2.0 * (a.conj() * b).imag
    z = np.abs(a) ** 2 - np.abs(b) ** 2
    return np.column_stack([t, x, y, z])


# -- schedule CSV format: step,t,u_0,...,u_{K-1},envelope -----------------


def schedule_to_csv(schedule: PulseSchedule) -> str:
    cols = ["step", "t"] + [f"u_{k}" for k in range(schedule.n_controls)] + ["envelope"]
    buf = io.StringIO()
    buf.write(",".join(cols) + "\n")
    env = schedule.envelope
    for n in range(schedule.n_steps):
        row = [str(n), FLOAT_FMT % (n * schedule.dt)]
        row += [FLOAT_FMT % v for v in schedule.amplitudes[n]]
        row.append(FLOAT_FMT % env[n])
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def schedule_from_csv(text: str) -> PulseSchedule:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty schedule file")
    header = lines[0].split(",")
    if len(header) < 4 or header[0] != "step" or header[1] != "t" or header[-1] != "envelope":
        raise ValueError(f"bad schedule header: {lines[0]!r}")
    n_controls = len(header) - 3
    for k in range(n_controls):
        if header[2 + k] != f"u_{k}":
            raise ValueError(f"bad schedule header column {2 + k}: {header[2 + k]!r}")
    rows = []
    for i, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"schedule row {i} has {len(parts)} fields, expected {len(header)}")
        try:
            step = int(parts[0])
            values = [float(v) for v in parts[2:-1]]
        except ValueError:
            raise ValueError(f"schedule row {i} has a non-numeric field") from None
        if step != i:
            raise ValueError(f"schedule row {i} has step index {step}")
        rows.append(values)
    return PulseSchedule.from_amplitudes(np.array(rows))


def write_schedule_csv(path, schedule: PulseSchedule) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(schedule_to_csv(schedule))


def read_schedule_csv(path) -> PulseSchedule:
    with open(path, "r", encoding="utf-8") as fh:
        return schedule_from_csv(fh.read())


def bloch_to_csv(trajectory: np.ndarray) -> str:
    buf = io.StringIO()
    buf.write("t,x,y,z\n")
    for row in trajectory:
        buf.write(",".join(FLOAT_FMT % v for v in row) + "\n")
    return buf.getvalue()


def bloch_from_csv(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "t,x,y,z":
        raise ValueError("bad Bloch trajectory header")
    rows = []
    for i, ln in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"Bloch row {i} has {len(parts)} fields, expected 4")
        rows.append([float(v) for v in parts])
    return np.array(rows)
