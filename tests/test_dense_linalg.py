import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from kronspin.dense_linalg import Spectrum, eigh, inverse, spectrum_multiset_equal
from kronspin.errors import ContractError, ShapeError, SingularityError, SizingError
from kronspin.kron_core import kron

from conftest import complex_matrices, diagonally_dominant, hermitian_matrices

SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)


class TestInverse:
    def test_identity(self):
        assert np.allclose(inverse(np.eye(4, dtype=np.complex128)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        assert np.allclose(
            inverse(np.diag([2.0, 4.0]).astype(complex)), np.diag([0.5, 0.25]), atol=1e-15
        )

    def test_multiply_back(self, rng):
        a = diagonally_dominant(rng.uniform(-1, 1, (5, 5)) + 1j * rng.uniform(-1, 1, (5, 5)))
        assert np.max(np.abs(inverse(a) @ a - np.eye(5))) < 1e-10

    @given(complex_matrices(rows=4, cols=4))
    @settings(max_examples=40)
    def test_inverse_involution(self, a):
        a = diagonally_dominant(a)
        assert np.max(np.abs(inverse(inverse(a)) - a)) < 1e-8

    def test_singular_rejected(self):
        with pytest.raises(SingularityError):
            inverse(np.ones((3, 3)))

    def test_tiny_scale_is_not_singular(self):
        # condition number 1: singularity is judged by conditioning, not scale
        got = inverse(1e-13 * np.eye(4, dtype=np.complex128))
        assert np.allclose(got, 1e13 * np.eye(4), rtol=1e-14, atol=0)

    def test_ill_conditioned_rejected(self):
        with pytest.raises(SingularityError, match="condition"):
            inverse(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            inverse(np.ones((2, 3)))


class TestEigh:
    def test_identity_spectrum(self):
        s = eigh(np.eye(4, dtype=np.complex128))
        assert np.array_equal(s.eigenvalues, np.ones(4))
        assert s.dimension == 4

    def test_pauli_z(self):
        s = eigh(SZ)
        assert np.allclose(s.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_heisenberg_coupling_block(self):
        h = kron(SX, SX) + kron(SY, SY) + kron(SZ, SZ)
        s = eigh(h)
        assert np.allclose(s.eigenvalues, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)

    @given(hermitian_matrices(max_dim=8))
    @settings(max_examples=40)
    def test_matches_numpy_oracle(self, h):
        got = eigh(h, want_vectors=False).eigenvalues
        want = np.linalg.eigvalsh(h)
        assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.linalg.norm(h))

    @given(hermitian_matrices(max_dim=6))
    @settings(max_examples=25)
    def test_vectors_orthonormal_and_reconstruct(self, h):
        s = eigh(h)
        v = s.eigenvectors
        n = h.shape[0]
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-10
        recon = v @ np.diag(s.eigenvalues) @ v.conj().T
        assert np.max(np.abs(recon - h)) < 1e-10 * max(1.0, np.linalg.norm(h))

    def test_eigenvalues_sorted_and_real(self, rng):
        a = rng.uniform(-1, 1, (12, 12)) + 1j * rng.uniform(-1, 1, (12, 12))
        h = 0.5 * (a + a.conj().T)
        values = eigh(h, want_vectors=False).eigenvalues
        assert values.dtype == np.float64
        assert np.all(np.diff(values) >= 0)

    def test_eigenpair_residuals(self, rng):
        a = rng.uniform(-1, 1, (9, 9)) + 1j * rng.uniform(-1, 1, (9, 9))
        h = 0.5 * (a + a.conj().T)
        s = eigh(h)
        for k in range(9):
            v = s.eigenvectors[:, k]
            assert np.linalg.norm(h @ v - s.eigenvalues[k] * v) < 1e-10

    def test_phase_convention(self, rng):
        a = rng.uniform(-1, 1, (7, 7)) + 1j * rng.uniform(-1, 1, (7, 7))
        h = 0.5 * (a + a.conj().T)
        v = eigh(h).eigenvectors
        for k in range(7):
            col = v[:, k]
            lead = col[np.argmax(np.abs(col))]
            assert lead.imag == pytest.approx(0.0, abs=1e-12)
            assert lead.real >= 0

    def test_real_input_stays_on_real_path(self, rng):
        a = rng.uniform(-1, 1, (16, 16))
        h = 0.5 * (a + a.T)
        got = eigh(h.astype(complex), want_vectors=False).eigenvalues
        assert np.max(np.abs(got - np.linalg.eigvalsh(h))) < 1e-11

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("a, what", [
        # a + a^H doubles 1e308 past the double range
        (np.array([[0.0, 1e308], [1e308, 0.0]]), "plus its adjoint"),
        # a + a^H is finite, but the largest eigenvalue is 3 * 0.8e308
        (np.full((3, 3), 0.8e308), "eigenvalue"),
    ])
    @pytest.mark.parametrize("want_vectors", [True, False])
    def test_values_past_the_double_range_are_sizing_error(self, a, what, want_vectors):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SizingError, match=f"{what}.*past the double range"):
                eigh(a, want_vectors=want_vectors)

    def test_want_vectors_false_omits_vectors(self):
        s = eigh(SZ, want_vectors=False)
        assert s.eigenvectors is None

    def test_entries_hundreds_of_orders_apart(self):
        # LAPACK's Householder reduction of kron(hb, ha) put two eigenvalues
        # 4e-8 off while the entries near 1e-213 were kept
        t = 1.3635535596307492e-211
        g = 0.04044975552914509j
        ha = np.array([[t, t, t + g], [t, t, t], [t - g, t, t]])
        hb = np.array([
            [2.9842151136540762e-02, 3.2576654162113527e-02, 5.9172096041275639e-41],
            [3.2576654162113527e-02, 0.0, 0.0],
            [5.9172096041275639e-41, 0.0, 0.0],
        ])
        exact = np.sort(np.outer(eigh(ha).eigenvalues, eigh(hb).eigenvalues).ravel())
        for m in (kron(ha, hb), kron(hb, ha)):
            assert np.max(np.abs(eigh(m, want_vectors=False).eigenvalues - exact)) < 1e-15
            s = eigh(m)
            v = s.eigenvectors
            assert np.max(np.abs(m @ v - v * s.eigenvalues)) < 1e-15

    def test_degenerate_spectrum(self):
        s = eigh(np.diag([2.0, 2.0, 1.0]).astype(complex))
        assert np.allclose(s.eigenvalues, [1.0, 2.0, 2.0], atol=1e-14)
        v = s.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(3))) < 1e-12


class TestSpectrumMultisetEqual:
    def test_reflexive(self):
        s = eigh(SZ)
        assert spectrum_multiset_equal(s, s)

    @given(hermitian_matrices(max_dim=4), hermitian_matrices(max_dim=4))
    @settings(max_examples=25)
    def test_swapped_kron_factors_share_spectra(self, ha, hb):
        s1 = eigh(kron(ha, hb), want_vectors=False)
        s2 = eigh(kron(hb, ha), want_vectors=False)
        assert spectrum_multiset_equal(s1, s2, tol=1e-8)

    def test_dimension_mismatch_is_unequal(self):
        s1 = eigh(SZ, want_vectors=False)
        s2 = eigh(kron(SX, SX), want_vectors=False)
        assert not spectrum_multiset_equal(s1, s2)

    def test_close_but_not_within_tol(self):
        s1 = Spectrum(eigenvalues=np.array([0.0, 1.0]), dimension=2)
        s2 = Spectrum(eigenvalues=np.array([0.0, 1.0 + 1e-6]), dimension=2)
        assert not spectrum_multiset_equal(s1, s2, tol=1e-8)
        assert spectrum_multiset_equal(s1, s2, tol=1e-5)
