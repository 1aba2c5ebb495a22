import numpy as np
import pytest

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


def random_traceless_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (z + z.conj().T)
    return h - np.trace(h) / d * np.eye(d)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: bitwise equal, signed zeros and NaN payloads included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
