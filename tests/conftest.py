import numpy as np
import pytest

from magicarp import optimizer
from magicarp.qudit import ControlSet, gellmann_basis, nearest_neighbor_control_set

# numpy >= 1.25 keeps it in numpy.exceptions, numpy 1.24 at the top level
COMPLEX_WARNING = getattr(np, "exceptions", np).ComplexWarning


def pytest_configure(config):
    # a complex value cast to float drops its imaginary part with only a
    # warning; in-place buffers and .real views are where such a drop hides
    config.addinivalue_line(
        "filterwarnings", f"error::{COMPLEX_WARNING.__module__}.{COMPLEX_WARNING.__qualname__}"
    )


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Gaussian matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def gellmann_coeffs(m: np.ndarray) -> np.ndarray:
    """Coordinates c_i = Tr(G_i M) / 2 of a traceless Hermitian M in the Gell-Mann basis."""
    return 0.5 * np.einsum("gij,ji->g", gellmann_basis(len(m)), m).real


def random_traceless_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (z + z.conj().T)
    return h - np.trace(h) / d * np.eye(d)


# the three kinds of control set the whole-pulse step kernel tells apart
KERNEL_SETS = ("zero_pair", "detuned", "dense")


def kernel_case(name: str, d: int, rng: np.random.Generator, n_steps: int) -> tuple[ControlSet, np.ndarray]:
    """A control set and (n_steps, K) amplitudes: adjacent-level controls
    ("adjacent"), the same whose last pair is driven with amplitudes exactly 0
    (a zero superdiagonal entry), adjacent-level controls plus a real diagonal
    (detuning) control, all tridiagonal, or three dense random controls."""
    adjacent = nearest_neighbor_control_set(d)
    if name == "adjacent":
        return adjacent, 3.0 * rng.standard_normal((n_steps, adjacent.n_controls))
    if name == "zero_pair":
        amplitudes = 3.0 * rng.standard_normal((n_steps, adjacent.n_controls))
        amplitudes[:, -2:] = 0.0
        return adjacent, amplitudes
    if name == "detuned":
        detuning = np.diag(np.arange(d) - (d - 1) / 2.0).astype(complex)
        controls = ControlSet(dim=d, hamiltonians=np.concatenate([adjacent.hamiltonians, detuning[None]]))
    else:
        controls = ControlSet(dim=d, hamiltonians=np.stack([random_traceless_hermitian(rng, d) for _ in range(3)]))
    return controls, 3.0 * rng.standard_normal((n_steps, controls.n_controls))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: bitwise equal, signed zeros and NaN payloads included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def spy_on_requests(monkeypatch):
    """Wrap every ``bfgs_steps`` that ``run_lockstep`` starts. The returned list
    gets one list per run, of the (kind, point) requests it yields."""
    runs = []
    real = optimizer.bfgs_steps

    def spy(x0, **options):
        steps, reply, requests = real(x0, **options), None, []
        runs.append(requests)
        while True:
            try:
                kind, point = steps.send(reply)
            except StopIteration as done:
                return done.value
            requests.append((kind, point.copy()))
            reply = yield kind, point

    monkeypatch.setattr(optimizer, "bfgs_steps", spy)
    return runs


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
