"""Dimension-generic qudit linear algebra: generator bases, control sets, target gates.

Conventions used throughout the package:

* matrices are dense ``complex128`` numpy arrays, row-major;
* the matrix inner product is ``A . B = Re Tr(A^dag B)``;
* su(d) generators are the generalized Gell-Mann matrices normalized to
  ``Tr(G_i G_j) = 2 delta_ij``, so a traceless Hermitian ``g`` has
  coordinates ``c_i = Tr(G_i g) / 2`` and ``g = sum_i c_i G_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

UNITARY_TOL = 1e-10
HERMITIAN_TOL = 1e-12

# the target gates ``target_gate`` builds by name; the last takes an explicit matrix
TARGET_NAMES = ("hadamard", "qft", "identity", "custom")


def _check_dim(d: int) -> None:
    if d < 2:
        raise ValueError(f"dim: expected an integer >= 2, got {d!r}")


def hermitize(m: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (M + M^dag)/2."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + m.conj().T)


def unitarity_defect(u: np.ndarray) -> float:
    """Frobenius norm of U^dag U - 1."""
    u = np.asarray(u)
    d = u.shape[0]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(d)))


def assert_unitary(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    defect = unitarity_defect(u)
    if defect > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary: defect {defect:.3e} > {UNITARY_TOL:.1e}")
    if abs(abs(np.linalg.det(u)) - 1.0) > UNITARY_TOL:
        raise ValueError("matrix determinant does not have unit modulus")
    return u


def generalized_pauli_pair(d: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pauli X/Y embedded on adjacent levels (k, k+1) of a d-level system.

    Returns (sigma_x_{k,k+1}, sigma_y_{k,k+1}); both are traceless with
    Frobenius norm sqrt(2). For d=2, k=0 these are the standard Paulis.
    """
    _check_dim(d)
    if not 0 <= k <= d - 2:
        raise IndexError(f"level index k={k} out of range for d={d} (need 0 <= k <= d-2)")
    sx = np.zeros((d, d), dtype=complex)
    sy = np.zeros((d, d), dtype=complex)
    sx[k, k + 1] = 1.0
    sx[k + 1, k] = 1.0
    sy[k, k + 1] = -1.0j
    sy[k + 1, k] = 1.0j
    return sx, sy


def gellmann_basis(d: int) -> np.ndarray:
    """The d^2 - 1 generalized Gell-Mann matrices, shape (d^2-1, d, d).

    Ordered as: for each pair j < k the symmetric then antisymmetric
    off-diagonal generator, followed by the d-1 diagonal generators.
    All are traceless and satisfy Tr(G_i G_j) = 2 delta_ij.
    """
    _check_dim(d)
    gens = []
    for j in range(d):
        for k in range(j + 1, d):
            sym = np.zeros((d, d), dtype=complex)
            sym[j, k] = 1.0
            sym[k, j] = 1.0
            asym = np.zeros((d, d), dtype=complex)
            asym[j, k] = -1.0j
            asym[k, j] = 1.0j
            gens.append(sym)
            gens.append(asym)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        gens.append(np.diag(diag).astype(complex) * np.sqrt(2.0 / (l * (l + 1))))
    return np.stack(gens)


@dataclass(frozen=True)
class GeneratorBasis:
    """Orthonormal traceless Hermitian basis of su(d), Tr(G_i G_j) = 2 delta_ij."""

    dim: int
    generators: np.ndarray = field(repr=False)

    @classmethod
    def create(cls, d: int) -> "GeneratorBasis":
        return cls(dim=d, generators=gellmann_basis(d))


@dataclass(frozen=True)
class AdjointMatrix:
    """Traceless Hermitian shooting variable g, stored as d^2-1 real coordinates."""

    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.shape != (self.dim * self.dim - 1,):
            raise ValueError(
                f"expected {self.dim * self.dim - 1} coefficients for d={self.dim}, "
                f"got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("adjoint coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def to_matrix(self) -> np.ndarray:
        return np.einsum("g,gij->ij", self.coeffs, GeneratorBasis.create(self.dim).generators)


def check_omega_max(omega_max: float) -> None:
    """The drive bound's rule, positive and finite; the message gives it as a float, as the CLI reads it."""
    if not 0 < omega_max < math.inf:
        raise ValueError(f"omega_max: expected a positive finite number, got {float(omega_max)!r}")


@dataclass(frozen=True)
class ControlSet:
    """Ordered traceless Hermitian control Hamiltonians plus the drive bound.

    ``tridiagonal`` records once whether every control is zero off the
    tridiagonal band (true of adjacent-level sets); ``superdiagonal`` and
    ``diagonal`` then hold every control's non-zero entries, and ``nonzero``
    holds where some control is non-zero, for any set.
    """

    dim: int
    hamiltonians: np.ndarray = field(repr=False)  # (K, d, d)
    omega_max: float = 1.0
    tridiagonal: bool = field(init=False, repr=False, compare=False)
    superdiagonal: np.ndarray = field(init=False, repr=False, compare=False)  # (K, d-1): H_k[j, j+1]
    diagonal: np.ndarray = field(init=False, repr=False, compare=False)  # (K, d): H_k[j, j], real
    nonzero: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)  # where some H_k != 0

    def __post_init__(self):
        _check_dim(self.dim)
        h = np.asarray(self.hamiltonians, dtype=complex)
        if h.ndim != 3 or h.shape[0] < 1 or h.shape[1] != self.dim or h.shape[2] != self.dim:
            raise ValueError(f"expected control stack of shape (K, {self.dim}, {self.dim})")
        for i, m in enumerate(h):
            # a rounding-level defect is symmetrized below; a larger one is not a Hermitian control
            if np.linalg.norm(m - m.conj().T) > HERMITIAN_TOL * max(1.0, np.linalg.norm(m)):
                raise ValueError(f"control Hamiltonian {i} is not Hermitian")
            if abs(np.trace(m).real) > HERMITIAN_TOL:  # the trace of its Hermitian part
                raise ValueError(f"control Hamiltonian {i} is not traceless")
        h = np.stack([hermitize(m) for m in h])
        check_omega_max(self.omega_max)
        object.__setattr__(self, "hamiltonians", h)
        levels = np.arange(self.dim)
        off_band = np.abs(levels[:, None] - levels[None, :]) > 1
        object.__setattr__(self, "tridiagonal", not np.any(h[:, off_band]))
        object.__setattr__(self, "superdiagonal", np.ascontiguousarray(np.diagonal(h, 1, 1, 2)))
        object.__setattr__(self, "diagonal", np.ascontiguousarray(np.diagonal(h, 0, 1, 2).real))
        object.__setattr__(self, "nonzero", np.nonzero(np.any(h != 0, axis=0)))

    @property
    def n_controls(self) -> int:
        return self.hamiltonians.shape[0]

    def check_target(self, target: np.ndarray) -> np.ndarray:
        """The target gate of both drivers as a complex unitary of this set's dimension, or ``ValueError``."""
        target = assert_unitary(target)
        if target.shape[0] != self.dim:
            raise ValueError(f"target dimension {target.shape[0]} != control dimension {self.dim}")
        return target

    def check_adjoint(self, g: AdjointMatrix) -> None:
        """``ValueError`` unless the adjoint g has this set's dimension."""
        if g.dim != self.dim:
            raise ValueError(f"adjoint has dimension {g.dim}, control set has dimension {self.dim}")

    def check_schedule(self, n_controls: int) -> None:
        """``ValueError`` unless a pulse of ``n_controls`` amplitudes per step drives this set."""
        if n_controls != self.n_controls:
            raise ValueError(f"schedule has {n_controls} controls, control set has {self.n_controls}")


def nearest_neighbor_control_set(d: int, omega_max: float = 1.0) -> ControlSet:
    """The 2(d-1) generalized Pauli controls coupling adjacent levels.

    Order: (sx_{0,1}, sy_{0,1}, sx_{1,2}, sy_{1,2}, ...).
    """
    _check_dim(d)
    mats = []
    for k in range(d - 1):
        sx, sy = generalized_pauli_pair(d, k)
        mats.extend([sx, sy])
    return ControlSet(dim=d, hamiltonians=np.stack(mats), omega_max=omega_max)


def qft_gate(d: int) -> np.ndarray:
    """QFT(d) with entries exp(2 pi i jk / d) / sqrt(d); QFT(2) is the Hadamard."""
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


def tau_qsl(d: int, omega_max: float = 1.0) -> float:
    """Speed-limit time pi/omega_max * (1 - 1/d) for the QFT(d) target
    under an unconstrained control set."""
    _check_dim(d)
    check_omega_max(omega_max)
    return math.pi / omega_max * (1.0 - 1.0 / d)


def target_gate(name: str, d: int, custom_entries: np.ndarray | None = None) -> np.ndarray:
    """Construct a named target gate.

    ``hadamard`` means QFT(d) for d > 2 (they coincide at d=2); ``custom``
    requires a unitary ``custom_entries`` matrix.
    """
    _check_dim(d)
    if name == "identity":
        return np.eye(d, dtype=complex)
    if name in ("qft", "hadamard"):
        return qft_gate(d)
    if name == "custom":
        if custom_entries is None:
            raise ValueError("custom target requires an explicit matrix")
        u = np.asarray(custom_entries, dtype=complex)
        if u.shape != (d, d):
            raise ValueError(f"custom target has shape {u.shape}, expected ({d}, {d})")
        return assert_unitary(u)
    raise ValueError(f"expected one of {'|'.join(TARGET_NAMES)}, got {name!r}")
