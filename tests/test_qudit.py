import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magicarp.qudit import (
    AdjointMatrix,
    GeneratorBasis,
    assert_unitary,
    generalized_pauli_pair,
    hermitize,
    nearest_neighbor_control_set,
    qft_gate,
    target_gate,
    tau_qsl,
)

from conftest import KERNEL_SETS, gellmann_coeffs, kernel_case, random_traceless_hermitian, random_unitary

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


class TestGeneralizedPauliPair:
    def test_d2_is_standard_paulis(self):
        sx, sy = generalized_pauli_pair(2, 0)
        assert np.array_equal(sx, SX)
        assert np.array_equal(sy, SY)

    def test_d3_k1_support(self):
        sx, sy = generalized_pauli_pair(3, 1)
        for m in (sx, sy):
            assert np.all(m[0, :] == 0)
            assert np.all(m[:, 0] == 0)
            assert np.any(m[1:, 1:] != 0)

    def test_out_of_range_k(self):
        with pytest.raises(IndexError):
            generalized_pauli_pair(4, 3)
        with pytest.raises(IndexError):
            generalized_pauli_pair(2, -1)

    @pytest.mark.parametrize("d,k", [(2, 0), (3, 1), (5, 3), (6, 0)])
    def test_traceless_and_normalized(self, d, k):
        for m in generalized_pauli_pair(d, k):
            assert abs(np.trace(m)) == 0
            assert np.linalg.norm(m) == pytest.approx(np.sqrt(2), abs=1e-15)


class TestNearestNeighborControlSet:
    def test_d2_is_sigma_x_y(self):
        cs = nearest_neighbor_control_set(2)
        assert cs.n_controls == 2
        assert np.array_equal(cs.hamiltonians[0], SX)
        assert np.array_equal(cs.hamiltonians[1], SY)

    def test_control_count(self):
        assert nearest_neighbor_control_set(6).n_controls == 10

    def test_control_to_generator_ratio(self):
        d = 3
        cs = nearest_neighbor_control_set(d)
        assert cs.n_controls / (d * d - 1) == pytest.approx(2 / (d + 1))
        assert cs.n_controls / (d * d - 1) == pytest.approx(0.5)

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            nearest_neighbor_control_set(1)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_pairwise_trace_orthogonal(self, d):
        h = nearest_neighbor_control_set(d).hamiltonians
        k = h.shape[0]
        for i in range(k):
            for j in range(k):
                expected = 2.0 if i == j else 0.0
                assert np.vdot(h[i], h[j]).real == pytest.approx(expected, abs=1e-12)


class TestTargetGate:
    def test_qft2_is_hadamard(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(target_gate("qft", 2), expected, atol=1e-15)
        assert np.allclose(target_gate("hadamard", 2), expected, atol=1e-15)

    def test_identity(self):
        assert np.array_equal(target_gate("identity", 5), np.eye(5))

    def test_qft3_second_row(self):
        u = target_gate("qft", 3)
        omega = np.exp(2j * np.pi / 3)
        assert np.allclose(u[1], np.array([1, omega, omega**2]) / np.sqrt(3), atol=1e-15)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_qft_unitarity(self, d):
        u = qft_gate(d)
        assert np.linalg.norm(u @ u.conj().T - np.eye(d)) <= 1e-12

    def test_custom_requires_unitary(self):
        with pytest.raises(ValueError):
            target_gate("custom", 2, np.array([[1, 1], [0, 1]]))
        with pytest.raises(ValueError):
            target_gate("custom", 2, None)

    def test_custom_accepts_unitary(self, rng):
        u = random_unitary(rng, 3)
        assert np.array_equal(target_gate("custom", 3, u), u)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            target_gate("toffoli", 2)


class TestGeneratorBasis:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_count_and_orthogonality(self, d):
        basis = GeneratorBasis.create(d)
        n = d * d - 1
        assert basis.generators.shape == (n, d, d)
        gram = np.einsum("aij,bji->ab", basis.generators, basis.generators).real
        assert np.max(np.abs(gram - 2.0 * np.eye(n))) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_traceless_hermitian(self, d):
        for g in GeneratorBasis.create(d).generators:
            assert abs(np.trace(g)) <= 1e-12
            assert np.linalg.norm(g - g.conj().T) <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_completeness(self, seed, d):
        rng = np.random.default_rng(seed)
        m = random_traceless_hermitian(rng, d)
        assert np.linalg.norm(AdjointMatrix(d, gellmann_coeffs(m)).to_matrix() - m) <= 1e-10


class TestAdjointMatrix:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_coeff_round_trip(self, seed, d):
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(d * d - 1)
        g = AdjointMatrix(d, coeffs)
        mat = g.to_matrix()
        assert abs(np.trace(mat)) <= 1e-12
        assert np.linalg.norm(mat - mat.conj().T) <= 1e-12
        assert np.max(np.abs(gellmann_coeffs(mat) - coeffs)) <= 1e-10

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            AdjointMatrix(3, np.zeros(5))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            AdjointMatrix(2, np.array([1.0, np.nan, 0.0]))


class TestControlSet:
    def test_rejects_traced_members(self):
        from magicarp.qudit import ControlSet

        bad = np.stack([SX, np.eye(2, dtype=complex)])
        with pytest.raises(ValueError, match="traceless"):
            ControlSet(dim=2, hamiltonians=bad)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e6])
    def test_rejects_non_hermitian_members(self, scale):
        # the raising operator is not a control: its Hermitian part would be sx / 2
        from magicarp.qudit import ControlSet

        raising = scale * np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError, match="control Hamiltonian 1 is not Hermitian"):
            ControlSet(dim=2, hamiltonians=np.stack([SX, raising]))

    @pytest.mark.parametrize("omega_max", [0.0, float("inf"), float("nan")])
    def test_rejects_bad_omega(self, omega_max):
        from magicarp.qudit import ControlSet

        with pytest.raises(ValueError, match="^omega_max: expected a positive finite number"):
            ControlSet(dim=2, hamiltonians=np.stack([SX]), omega_max=omega_max)
        with pytest.raises(ValueError, match="^omega_max: expected a positive finite number"):
            nearest_neighbor_control_set(2, omega_max)

    @pytest.mark.parametrize("omega_max", [0.0, -1.0, float("inf"), float("nan")])
    def test_tau_qsl_rejects_bad_omega(self, omega_max):
        # an infinite drive bound would give tau_qsl = 0, and every duration_qsl a division by zero
        with pytest.raises(ValueError, match="^omega_max: expected a positive finite number"):
            tau_qsl(2, omega_max)

    def test_rejects_dimension_below_two(self):
        # the dimension rule of every other d < 2 path, checked before the operands
        from magicarp.qudit import ControlSet

        with pytest.raises(ValueError, match="^dim: expected an integer >= 2, got 1$"):
            ControlSet(dim=1, hamiltonians=np.zeros((1, 1, 1)))

    def test_symmetrizes_members(self, rng):
        from magicarp.qudit import ControlSet

        drift = SX + 1e-14 * np.array([[0, 1j], [0, 0]])
        cs = ControlSet(dim=2, hamiltonians=np.stack([drift]))
        h = cs.hamiltonians[0]
        assert np.linalg.norm(h - h.conj().T) == 0.0


    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_tridiagonal_maps(self, rng, d):
        from magicarp.qudit import ControlSet

        for name in KERNEL_SETS:
            cs, _ = kernel_case(name, d, rng, 1)
            assert cs.tridiagonal == (name != "dense" or d == 2)  # every 2 x 2 matrix is tridiagonal
            for h, sup, diag in zip(cs.hamiltonians, cs.superdiagonal, cs.diagonal):
                assert np.array_equal(sup, [h[j, j + 1] for j in range(d - 1)])
                assert np.array_equal(diag, np.diagonal(h).real) and diag.dtype == float
        corner = np.zeros((d, d), dtype=complex)
        corner[0, -1] = corner[-1, 0] = 1.0
        assert ControlSet(dim=d, hamiltonians=corner[None]).tridiagonal == (d == 2)


class TestMatrixHelpers:
    def test_hermitize(self, rng):
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = hermitize(z)
        assert np.linalg.norm(h - h.conj().T) <= 1e-14

    def test_assert_unitary_accepts(self, rng):
        assert_unitary(random_unitary(rng, 5))

    def test_assert_unitary_rejects(self):
        with pytest.raises(ValueError):
            assert_unitary(np.array([[1.0, 0.1], [0.0, 1.0]]))
