"""Piecewise-constant unitary propagation on the nominal horizon [0, 1].

The pulse lives on N uniform steps of the nominal interval; amplitudes are
unbounded there. The physical duration is the envelope integral rescaled by
the drive bound: running the same pulse at instantaneous amplitude
``omega_max`` takes time ``dt * sum_n c(n dt) / omega_max``, which is what
``PulseSchedule.duration`` computes (with the default ``omega_max = 1``
it is the plain envelope integral, i.e. T in units of 1/omega_max).

``step_eigensystems`` is the one step kernel and ``accumulate`` the one loop
of step products; only the shooting construction, whose every step depends
on the state before it, interleaves its own. The loop calls each step's
bound ``ndarray.dot``, which on 2-D complex arrays gives the bits of ``@``
at less cost per call. The kernel takes the scaled
generator Theta = -dt H, so that the step is exp(i Theta): numpy's ``eigh``
gufunc, called directly, writes the eigenvalues theta of Theta into the
imaginary part of a phase buffer, and one ``exp`` of that buffer gives the
phases e^{i theta}. Its callers enter ``eigh_guard()`` once per pass so that
a failed ``eigh`` raises ``np.linalg.LinAlgError``. ``exp_divided_differences``
on the same theta gives the exact derivative of each step exponential.

``pulse_eigensystems`` runs the kernel over a whole pulse, for GRAPE's
forward pass, ``propagate`` and ``verify_adjoint_constancy``. When every
control is tridiagonal it calls ``eigh`` on real symmetric matrices in a
diagonal phase gauge, about 1.5x cheaper than complex ``eigh`` on a batch
of 64 steps at d = 5, and returns the eigenvectors as their real factors
q = D Q_T: the real Q_T and the gauge's phases. Each step
D (Q_T e^{i theta} Q_T^T) D^dag is then one real product on the float view
of the complex e^{i theta} Q_T^T, scaled by the gauge, instead of a complex
q e^{i theta} q^dag. ``pulse_pullback``, GRAPE's gradient through those steps,
reads q in either form, so this module holds both halves of the gauge. The
shooting construction keeps the complex kernel: it exponentiates one step at
a time for at most 32 restarts, where forming the gauge costs more numpy
calls than the real ``eigh`` saves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .qudit import AdjointMatrix, ControlSet

FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class PulseSchedule:
    """Piecewise-constant control amplitudes u_k(n dt), an (N, K) array, whence N, K and dt = 1/N."""

    amplitudes: np.ndarray = field(repr=False)  # (N, K)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.ndim != 2 or amps.shape[0] < 1:
            raise ValueError(f"amplitudes: expected at least one step (row), got shape {amps.shape}")
        # one sum of squares catches NaN and inf, and amplitudes so large that
        # the envelope (a row's norm) or the energy overflows
        if not np.isfinite(np.vdot(amps, amps)):
            raise ValueError("amplitudes must be finite, with a finite sum of squares")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amplitudes: np.ndarray) -> "PulseSchedule":
        return cls(np.atleast_2d(np.asarray(amplitudes, dtype=float)))

    @property
    def n_steps(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_controls(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

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
    theta: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    work: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shared step kernel: for a stack (..., d, d) of Hermitian
    Theta = -dt H, the eigenvalues theta, the eigenvectors q and the step
    exp(i Theta) = exp(-i dt H), from one call of the ``eigh`` gufunc (its
    lower triangle, as ``np.linalg.eigh`` reads it).

    The gufunc writes theta into the imaginary part of a complex phase
    buffer, shaped (..., d), whose real part is zero; one ``exp`` of that
    buffer gives the phases e^{i theta}, and the returned theta is its
    imaginary part. Call the kernel under ``eigh_guard()``, which makes a
    failed ``eigh`` raise ``np.linalg.LinAlgError``. ``out`` is an optional
    (phase buffer, q, exp) triple to write into, the buffer's real part zero
    (``step_out``); ``work`` is optional scratch from ``step_work``, which the
    kernel overwrites, so that a loop of steps allocates nothing. The
    exponential is exactly unitary up to rounding.
    """
    i_theta, q, step = step_out(theta.shape) if out is None else out
    phases, phases_row, q_e, q_conj, q_dag = step_work(theta.shape) if work is None else work
    _umath_linalg.eigh_lo(theta, out=(i_theta.imag, q))
    np.exp(i_theta, out=phases)
    np.multiply(q, phases_row, out=q_e)
    np.conjugate(q, out=q_conj)
    return i_theta.imag, q, np.matmul(q_e, q_dag, out=step)  # (q e^{i theta}) q^dag


def step_out(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outputs of ``step_eigensystems`` on a stack of the given (..., d, d) shape:
    the zeroed phase buffer, q and the exponential."""
    return np.zeros(shape[:-1], dtype=complex), np.empty(shape, dtype=complex), np.empty(shape, dtype=complex)


def step_work(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Scratch for ``step_eigensystems`` on a stack of the given (..., d, d)
    shape, with the views the kernel reads it through."""
    phases, q_conj = np.empty(shape[:-1], dtype=complex), np.empty(shape, dtype=complex)
    return phases, phases[..., None, :], np.empty(shape, dtype=complex), q_conj, q_conj.swapaxes(-1, -2)


def exp_divided_differences(theta: np.ndarray) -> np.ndarray:
    """Divided differences of z -> e^{iz} on pairs of the eigenvalues theta of Theta.

    Entry (p, q) is (e^{i theta_p} - e^{i theta_q}) / (theta_p - theta_q),
    continued to i e^{i theta_p} where theta_p = theta_q. Written as
    i e^{i m} sin(x)/x with m = (theta_p + theta_q)/2 and x = (theta_p - theta_q)/2:
    e^{i m} is the product of the half phases e^{i theta_p/2} e^{i theta_q/2},
    and where x = 0 (the diagonal, and coincident eigenvalues) sin(x)/x is
    taken at x = 1e-300 instead, which gives exactly 1. In the eigenbasis
    Q of Theta the derivative of exp(i Theta) along dTheta is
    Q (phi o (Q^dag dTheta Q)) Q^dag; for Theta = -dt H that is -dt times the
    derivative along dH.
    """
    half = 0.5 * theta
    x = half[..., :, None] - half[..., None, :]
    np.copyto(x, 1e-300, where=x == 0)
    ratio = np.sin(x)
    ratio /= x
    half_phases = np.zeros(theta.shape, dtype=complex)
    half_phases.imag = half
    np.exp(half_phases, out=half_phases)
    phi = half_phases[..., :, None] * half_phases[..., None, :]
    phi *= ratio
    return np.multiply(phi, 1j, out=phi)


def pulse_eigensystems(
    controls: ControlSet, schedule: PulseSchedule
) -> tuple[np.ndarray, np.ndarray | tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The step kernel over a whole pulse: theta, the eigenvectors q and
    exp(i Theta_n) of every Theta_n = -dt H(u(n dt)).

    For a tridiagonal control set (``ControlSet.tridiagonal``) Theta_n is
    never formed. Its superdiagonal t and real diagonal come from the
    amplitudes, and the diagonal phase gauge D = diag(g), g = (1, r_0,
    r_0 r_1, ...), r_j = conj(t_j)/|t_j| (1 where t_j = 0), turns it into
    the real symmetric T_n = D^dag Theta_n D, with off-diagonal |t_j|. One
    real ``eigh`` of the (N, d, d) stack gives theta and Q_T, and q = D Q_T
    comes back as its real factors, the pair (Q_T, gauge): the (N, d, d)
    eigenvectors and the (N, d, d) phases g_a conj(g_b), with which
    D A D^dag = gauge o A (column 0 is g, since g_0 = 1). The step
    D (Q_T e^{i theta} Q_T^T) D^dag is one real product of Q_T with the
    float view of the complex e^{i theta} Q_T^T, times the gauge. Other sets
    take the complex kernel, ``step_eigensystems``, on the formed Theta_n,
    and q is its complex (N, d, d) stack. Non-finite amplitudes raise
    ``np.linalg.LinAlgError``, as a failed ``eigh`` does.
    """
    controls.check_schedule(schedule.n_controls)
    amplitudes = -schedule.dt * schedule.amplitudes
    if not controls.tridiagonal:
        theta = control_generator(controls, amplitudes)
        with eigh_guard():
            return step_eigensystems(theta)
    n, d = schedule.n_steps, controls.dim
    gauged = np.zeros((n, d * d))  # T_n, flat
    np.matmul(amplitudes, controls.diagonal, out=gauged[:, :: d + 1])
    off = amplitudes @ controls.superdiagonal
    magnitude = np.abs(off, out=gauged[:, d :: d + 1])  # the subdiagonal, which eigh reads
    g = np.ones((n, d), dtype=complex)
    i_theta = np.zeros((n, d), dtype=complex)
    q_real = np.empty((n, d, d))
    with eigh_guard():
        np.divide(off.conj(), magnitude, out=g[:, 1:], where=magnitude != 0)
        np.multiply.accumulate(g[:, 1:], axis=1, out=g[:, 1:])
        _umath_linalg.eigh_lo(gauged.reshape(n, d, d), out=(i_theta.imag, q_real))
        e_qt = np.multiply(np.exp(i_theta)[:, :, None], q_real.swapaxes(-1, -2), out=np.empty((n, d, d), dtype=complex))
        steps = np.matmul(q_real, e_qt.view(float)).view(complex)  # Q_T e^{i theta} Q_T^T
        gauge = np.multiply(g[:, :, None], g.conj()[:, None, :])  # g_a conj(g_b)
        steps *= gauge
    return i_theta.imag, (q_real, gauge), steps


def _transposed(a: np.ndarray) -> np.ndarray:
    """A C-contiguous copy of the transposes of a stack of matrices."""
    return np.ascontiguousarray(a.swapaxes(-1, -2))


def pulse_pullback(
    controls: ControlSet, theta: np.ndarray, q: np.ndarray | tuple[np.ndarray, np.ndarray], m: np.ndarray
) -> np.ndarray:
    """sum_ab X_ba H_k,ab for every step n and control k, shape (N, K), with
    X_n = q_n (phi_n o (q_n^dag M_n q_n)) q_n^dag for a stack m of (N, d, d)
    M_n, (theta, q) from ``pulse_eigensystems`` and phi their
    ``exp_divided_differences``. As phi is symmetric, this is
    Tr(M_n D_{n,k}) / -dt, D_{n,k} the derivative of exp(i Theta_n) along -dt H_k.

    For a tridiagonal set q = D Q_T comes as (Q_T, gauge), so that
    q^dag M q = Z = Q_T^T (conj(gauge) o M) Q_T and X = gauge o X' with
    X' = Q_T (phi o Z) Q_T^T. Each product with Q_T or Q_T^T acts from the
    left on the float view of a complex stack, one from the right as one
    from the left on a transposed copy; so Z^T comes out, and
    phi o Z^T = (phi o Z)^T turns X' out the right way round. X is read only
    at (b, a) for the controls' non-zero entries (a, b), contracted by one
    (N, nnz) @ (nnz, K) product. Other sets take batched complex products
    and one flat (N, d^2) @ (d^2, K) product against the transposed H_k.
    """
    n, d, _ = m.shape
    phi = exp_divided_differences(theta)
    if not controls.tridiagonal:
        q_dag = q.conj().swapaxes(-1, -2)
        x = q @ (phi * (q_dag @ m @ q)) @ q_dag
        h_flat = controls.hamiltonians.swapaxes(-1, -2).reshape(controls.n_controls, d * d)
        return x.reshape(n, d * d) @ h_flat.T
    q_real, gauge = q
    q_t = _transposed(q_real)
    m = m * gauge.conj()  # D^dag M D
    y = np.matmul(q_t, m.view(float)).view(complex)  # Q_T^T D^dag M D
    z_t = np.matmul(q_t, _transposed(y).view(float)).view(complex)  # Z^T
    z_t *= phi
    v = np.matmul(q_real, z_t.view(float)).view(complex)  # Q_T (phi o Z)^T
    x = np.matmul(q_real, _transposed(v).view(float)).view(complex)  # X'
    x *= gauge  # X
    rows, cols = controls.nonzero
    x_ba = x.reshape(n, d * d)[:, cols * d + rows]
    return x_ba @ controls.hamiltonians[:, rows, cols].T


def control_generator(controls: ControlSet, amplitudes: np.ndarray) -> np.ndarray:
    """H(u) = sum_k u_k H_k. Batched over leading amplitude axes."""
    amplitudes = np.asarray(amplitudes, dtype=float)
    controls.check_schedule(amplitudes.shape[-1])
    return np.tensordot(amplitudes, controls.hamiltonians, axes=([-1], [0]))


def accumulate(steps: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """Products X_0 = start (default 1), X_{n+1} = steps[n] @ X_n, shape (N+1, d, d)."""
    n, d, _ = steps.shape
    products = np.empty((n + 1, d, d), dtype=complex)
    products[0] = np.eye(d) if start is None else start
    rows = list(products)
    for step, before, after in zip(steps, rows, rows[1:]):
        step.dot(before, after)
    return products


def propagate(controls: ControlSet, schedule: PulseSchedule) -> PropagationResult:
    """Accumulate U(n dt) = exp(-i dt H(u(n-1))) U((n-1) dt) from U(0) = 1."""
    _, _, steps = pulse_eigensystems(controls, schedule)
    return PropagationResult(unitaries=accumulate(steps), duration=schedule.duration(controls.omega_max))


def gate_overlap(u_target: np.ndarray, u_final: np.ndarray) -> complex | np.ndarray:
    """Tr(U_target^dag U) = sum(conj(U_target) o U) of one gate U or of each of a stack (..., d, d),
    whose d^2 products are summed as one gate's are: a stack's overlaps are its gates' alone."""
    u_target, u_final = np.asarray(u_target), np.asarray(u_final)
    if u_target.shape != u_final.shape[-2:]:
        raise ValueError(f"dimension mismatch: {u_target.shape} vs {u_final.shape}")
    product = u_target.conj() * u_final
    return product.reshape(*product.shape[:-2], -1).sum(axis=-1)


def infidelity_from_overlap(overlap: complex | np.ndarray, d: int) -> float | np.ndarray:
    """1 - |overlap|^2 / d^2: the normalized infidelity of each d x d gate pair
    whose ``gate_overlap`` is ``overlap``, one overlap or an array of them."""
    # ufunc loops also for one overlap: Python's abs of a complex scalar rounds otherwise on ~1/3 of values
    values = 1.0 - np.square(np.abs(overlap)) / d**2
    return float(values) if np.ndim(values) == 0 else values


def gate_fidelity(u_target: np.ndarray, u_final: np.ndarray) -> float:
    """|Tr(U_target^dag U)|^2, in [0, d^2], invariant under global phases; rounded as
    ``infidelity_from_overlap`` rounds it, so 1 - fidelity / d^2 is ``normalized_infidelity``."""
    return float(np.square(np.abs(gate_overlap(u_target, u_final))))


def normalized_infidelity(u_target: np.ndarray, u_final: np.ndarray) -> float:
    """1 - |Tr(U_target^dag U)|^2 / d^2, in [0, 1]."""
    return infidelity_from_overlap(gate_overlap(u_target, u_final), np.asarray(u_target).shape[0])


def verify_adjoint_constancy(
    controls: ControlSet, schedule: PulseSchedule, g: AdjointMatrix
) -> float:
    """Max deviation of the integrated costate from U(t) @ (i g).

    Integrates lambda' = -i H(t) lambda from lambda(0) = i g with the
    propagator's step exponentials (``pulse_eigensystems``) and returns
    max_n || lambda(n dt) - U(n dt) i g ||_F; the two sides associate the
    same step products differently.
    """
    controls.check_adjoint(g)
    _, _, steps = pulse_eigensystems(controls, schedule)
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


# -- CSV tables; a schedule's columns are step,t,u_0,...,u_{K-1},envelope ---


def table_to_csv(header: list[str], rows: list[list[str]]) -> str:
    """The CSV text of a header and rows of formatted fields: one line each,
    fields comma-separated, every line newline-terminated."""
    return "".join(",".join(fields) + "\n" for fields in [header, *rows])


def table_from_csv(text: str, name: str) -> tuple[list[str], list[list[str]]]:
    """The header and rows of the ``name`` table in ``text``, as lists of fields;
    blank lines are skipped, and every row must have the header's field count."""
    lines = [line.split(",") for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"empty {name} file")
    header, *rows = lines
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{name} row {i} has {len(row)} fields, expected {len(header)}")
    return header, rows


def schedule_to_csv(schedule: PulseSchedule) -> str:
    header = ["step", "t"] + [f"u_{k}" for k in range(schedule.n_controls)] + ["envelope"]
    steps = enumerate(zip(schedule.amplitudes, schedule.envelope))
    return table_to_csv(header, [[str(n)] + [FLOAT_FMT % v for v in (n * schedule.dt, *u, c)] for n, (u, c) in steps])


def schedule_from_csv(text: str) -> PulseSchedule:
    header, rows = table_from_csv(text, "schedule")
    if len(header) < 4 or header[0] != "step" or header[1] != "t" or header[-1] != "envelope":
        raise ValueError(f"bad schedule header: {','.join(header)!r}")
    for k in range(len(header) - 3):
        if header[2 + k] != f"u_{k}":
            raise ValueError(f"bad schedule header column {2 + k}: {header[2 + k]!r}")
    if not rows:
        raise ValueError("schedule has no rows")
    table = np.empty((len(rows), len(header) - 1))  # t, u_0 .. u_{K-1}, envelope
    for i, parts in enumerate(rows):
        try:
            step = int(parts[0])
            table[i] = [float(v) for v in parts[1:]]
        except ValueError:
            raise ValueError(f"schedule row {i} has a non-numeric field") from None
        if step != i:
            raise ValueError(f"schedule row {i} has step index {step}")
    schedule = PulseSchedule.from_amplitudes(table[:, 1:-1].copy())
    # t = step dt and the envelope = ||u||, to 1e-9 relative for files from other
    # writers; this module's own files round-trip both exactly
    for name, column, expected in (
        ("t", table[:, 0], np.arange(schedule.n_steps) * schedule.dt),
        ("envelope", table[:, -1], schedule.envelope),
    ):
        bad = ~(np.abs(column - expected) <= 1e-9 * np.abs(expected))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"schedule row {i} has {name} {float(column[i])!r}, expected {float(expected[i])!r}")
    return schedule


def bloch_to_csv(trajectory: np.ndarray) -> str:
    return table_to_csv(["t", "x", "y", "z"], [[FLOAT_FMT % v for v in row] for row in trajectory])
