import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kronspin import dense_linalg, kron_core
from kronspin._common import as_matrix, frobenius
from kronspin.errors import ShapeError, SingularityError, SizingError
from kronspin.kron_core import (
    MAX_KRON_ELEMENTS,
    PROPERTY_NAMES,
    check_property,
    commutation_matrix,
    commutation_permutation,
    kron,
    noncommutativity_witness,
    shuffle_conjugate,
    similarity_transform,
)

from conftest import complex_matrices, diagonally_dominant, square_pairs

SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)
EYE2 = np.eye(2, dtype=np.complex128)


class TestKron:
    def test_identity_times_identity(self):
        assert np.array_equal(kron(EYE2, EYE2), np.eye(4))

    def test_zero_factor(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(kron(a, np.zeros((2, 2))), np.zeros((4, 4)))
        assert np.array_equal(kron(np.zeros((2, 2)), a), np.zeros((4, 4)))

    def test_sx_sz_block_layout(self):
        expected = np.array(
            [[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]],
            dtype=np.complex128,
        )
        assert np.array_equal(kron(SX, SZ), expected)

    @given(complex_matrices(), complex_matrices())
    def test_matches_numpy_oracle(self, a, b):
        assert np.allclose(kron(a, b), np.kron(a, b), atol=1e-15)

    @given(complex_matrices(), complex_matrices())
    def test_dimension_law(self, a, b):
        out = kron(a, b)
        assert out.shape == (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])

    def test_block_rule_entrywise(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (2, 3)) + 1j * rng.uniform(-1, 1, (2, 3))
        b = rng.uniform(-1, 1, (3, 2)) + 1j * rng.uniform(-1, 1, (3, 2))
        out = kron(a, b)
        for i in range(2):
            for j in range(3):
                for k in range(3):
                    for l in range(2):
                        assert out[i * 3 + k, j * 2 + l] == a[i, j] * b[k, l]

    def test_sizing_cap(self):
        tall = np.zeros((2**13 + 1, 1))
        wide = np.zeros((1, 2**13))
        assert (2**13 + 1) * 2**13 > MAX_KRON_ELEMENTS
        with pytest.raises(SizingError):
            kron(tall, wide)

    @pytest.mark.parametrize("a, b", [
        ([[1e308]], [[1e308]]),
        ([[1.0, 1e200j]], [[1e200]]),
        ([[1e200 + 1e200j]], [[1e200 - 1e200j]]),
    ])
    def test_overflowing_product_is_sizing_error(self, a, b):
        with pytest.raises(SizingError, match="double range"):
            kron(a, b)

    def test_rejects_non_finite(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            kron(bad, EYE2)


class TestCommutationMatrix:
    def test_scalar_factor_gives_identity(self):
        for k in range(1, 6):
            assert np.array_equal(commutation_matrix(1, k), np.eye(k))
            assert np.array_equal(commutation_matrix(k, 1), np.eye(k))

    def test_two_by_two_explicit(self):
        expected = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
            dtype=np.complex128,
        )
        assert np.array_equal(commutation_matrix(2, 2), expected)

    def test_basis_mapping_convention(self):
        # P maps e_{i*n + j} to e_{j*m + i} over the basis of kron products.
        m, n = 3, 4
        p = commutation_matrix(m, n)
        for i in range(m):
            for j in range(n):
                col = np.zeros(m * n)
                col[i * n + j] = 1.0
                image = p @ col
                assert image[j * m + i] == 1.0
                assert np.count_nonzero(image) == 1

    def test_permutation_structure(self):
        p = commutation_matrix(3, 5)
        assert np.array_equal(p @ p.conj().T, np.eye(15))
        assert np.all((p == 0) | (p == 1))
        assert np.all(p.sum(axis=0) == 1) and np.all(p.sum(axis=1) == 1)

    def test_pauli_swap_example(self):
        p = commutation_matrix(2, 2)
        assert np.max(np.abs(p @ kron(SX, SZ) @ p.T - kron(SZ, SX))) == 0.0

    @given(square_pairs())
    def test_square_shuffle_similarity(self, pair):
        a, b = pair
        p = commutation_matrix(a.shape[0], b.shape[0])
        assert np.allclose(p @ kron(a, b) @ p.T, kron(b, a), atol=1e-15)

    def test_inverse_permutation(self):
        q = commutation_permutation(3, 4)
        q_inv = commutation_permutation(4, 3)
        assert np.array_equal(q[q_inv], np.arange(12))

    def test_bad_dimensions(self):
        with pytest.raises(ShapeError):
            commutation_permutation(0, 3)


class TestShuffleConjugate:
    @given(complex_matrices(), complex_matrices())
    def test_rectangular_swap_is_exact(self, a, b):
        got = shuffle_conjugate(kron(a, b), a.shape, b.shape)
        assert np.array_equal(got, kron(b, a))

    def test_is_pure_permutation_of_entries(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, (2, 4)) + 1j * rng.uniform(-1, 1, (2, 4))
        b = rng.uniform(-1, 1, (3, 2)) + 1j * rng.uniform(-1, 1, (3, 2))
        product = kron(a, b)
        shuffled = shuffle_conjugate(product, a.shape, b.shape)
        assert sorted(product.ravel().tolist(), key=lambda z: (z.real, z.imag)) == sorted(
            shuffled.ravel().tolist(), key=lambda z: (z.real, z.imag)
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            shuffle_conjugate(np.eye(4), (2, 2), (3, 3))


class TestSimilarityTransform:
    def test_identity_basis_change(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.complex128)
        assert np.allclose(similarity_transform(np.eye(2), a), a, atol=1e-14)

    def test_shuffle_basis_change_swaps_factors(self):
        p = commutation_matrix(2, 2)
        # P^T = P^-1 for permutations, so C = P^T conjugates kron(a,b) into kron(b,a)
        got = similarity_transform(p.T, kron(SX, SZ))
        assert np.allclose(got, kron(SZ, SX), atol=1e-12)

    def test_spectrum_preserved(self, rng):
        a = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        a = 0.5 * (a + a.conj().T)
        c = diagonally_dominant(rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4)))
        d = similarity_transform(c, a)
        got = np.sort(np.linalg.eigvals(d).real)
        want = np.linalg.eigvalsh(a)
        assert np.max(np.abs(got - want)) < 1e-8

    def test_singular_basis_rejected(self):
        with pytest.raises(SingularityError):
            similarity_transform(np.zeros((2, 2)), np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            similarity_transform(np.eye(2), np.eye(3))


class TestNoncommutativityWitness:
    def test_identity_pair_has_no_witness(self):
        assert noncommutativity_witness(EYE2, EYE2) is None

    def test_equal_operands_have_no_witness(self, rng):
        a = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        assert noncommutativity_witness(a, a) is None

    def test_pauli_pair_witness_is_first_differing_entry(self):
        witness = noncommutativity_witness(SX, SZ)
        diff = np.abs(kron(SX, SZ) - kron(SZ, SX))
        hits = np.argwhere(diff > 1e-10)
        assert witness == (int(hits[0][0]), int(hits[0][1]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            noncommutativity_witness(np.eye(2), np.eye(3))
        with pytest.raises(ShapeError):
            noncommutativity_witness(np.ones((2, 3)), np.ones((2, 3)))


class TestCheckProperty:
    def test_all_names_present(self):
        assert set(PROPERTY_NAMES) == set(range(1, 9))

    @given(square_pairs())
    def test_linear_properties_hold(self, pair):
        a, b = pair
        assert check_property(1, [a, b]).passed
        assert check_property(2, [a, b]).passed
        assert check_property(3, [a, b, b]).passed
        assert check_property(4, [a, b, a]).passed
        assert check_property(5, [a, b], scalars=(2.0, -0.5)).passed
        assert check_property(7, [a, b, a, b]).passed

    def test_property_2_unequal_dims(self):
        rep = check_property(2, [np.eye(2), np.eye(3)])
        assert rep.passed and rep.residual == 0.0

    def test_property_3_rectangular(self, rng):
        a1 = rng.uniform(-1, 1, (2, 3))
        a2 = rng.uniform(-1, 1, (2, 3))
        b = rng.uniform(-1, 1, (4, 2))
        assert check_property(3, [a1, a2, b]).passed

    def test_property_5_scalars_recorded(self):
        rep = check_property(5, [SX, SZ], scalars=(3.0, -2.0))
        assert rep.passed and "s=3.0" in rep.note

    def test_property_5_needs_scalars(self):
        with pytest.raises(ShapeError):
            check_property(5, [SX, SZ])

    def test_property_6_corrected_form_and_literal_diagnostic(self, rng):
        a = diagonally_dominant(rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3)))
        b = diagonally_dominant(rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3)))
        rep = check_property(6, [a, b])
        assert rep.passed and rep.property_name == "P6 inverse (corrected)"
        (literal,) = rep.extras
        assert literal.property_name == "P6 inverse (as printed)"
        assert literal.diagnostic

    def test_property_6_documented_counterexample(self):
        a = np.array([[1, 1], [0, 1]], dtype=np.complex128)
        b = np.array([[1, 0], [1, 1]], dtype=np.complex128)
        rep = check_property(6, [a, b])
        assert rep.passed and rep.residual < 1e-12
        (literal,) = rep.extras
        assert not literal.passed and literal.residual > 0.1
        # the literal form is off by exactly the shuffle conjugation
        kron_inv = dense_linalg.inverse(kron(a, b))
        literal_target = kron(dense_linalg.inverse(b), dense_linalg.inverse(a))
        assert np.array_equal(
            shuffle_conjugate(kron_inv, (2, 2), (2, 2)), literal_target
        )

    def test_property_6_well_conditioned_d24(self):
        rng = np.random.default_rng(2424)
        a, b = (
            diagonally_dominant(rng.uniform(-1, 1, (24, 24)) + 1j * rng.uniform(-1, 1, (24, 24)))
            for _ in range(2)
        )
        assert check_property(6, [a, b]).passed

    def test_property_6_singular_operand(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularityError):
            check_property(6, [singular, SZ])

    def test_property_7_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            check_property(7, [np.ones((2, 3)), np.ones((2, 3)), EYE2, EYE2])

    def test_property_7_rectangular_chain(self, rng):
        a1 = rng.uniform(-1, 1, (2, 3))
        b1 = rng.uniform(-1, 1, (3, 4))
        a2 = rng.uniform(-1, 1, (3, 2))
        b2 = rng.uniform(-1, 1, (2, 5))
        assert check_property(7, [a1, b1, a2, b2]).passed

    def test_property_8_distinct_operands(self):
        rep = check_property(8, [SX, SZ])
        assert rep.passed and rep.residual > 1.0

    def test_property_8_identity_case(self):
        rep = check_property(8, [np.eye(2), np.eye(3)])
        assert rep.passed and rep.note == "commute (identity case)"
        rep = check_property(8, [2.0 * np.eye(2), -1.5 * np.eye(4)])
        assert rep.passed and rep.note == "commute (identity case)"

    def test_property_8_equal_operands(self):
        rep = check_property(8, [SX, SX])
        assert rep.passed and rep.note == "commute (equal operands)"

    def test_property_8_equal_rectangular_operands(self):
        # not square, so no scalar identity: judged as equal operands
        a = np.arange(6.0).reshape(2, 3)
        rep = check_property(8, [a, a.copy()])
        assert rep.passed and rep.note == "commute (equal operands)"

    @pytest.mark.parametrize("index, operands", [
        (3, [np.eye(2), np.ones((2, 3)), SX]),
        (4, [SX, np.eye(2), np.ones((3, 3))]),
    ])
    def test_summands_must_share_shape(self, index, operands):
        with pytest.raises(ShapeError, match="summands must share shape"):
            check_property(index, operands)

    def test_property_8_unexpected_coincidence_fails(self):
        # a scalar multiple of b commutes with it under kron, but is neither
        # equal to it nor a scalar identity: flagged as a failed claim
        rep = check_property(8, [2.0 * SX, SX])
        assert not rep.passed and rep.note == "commute (unexpected coincidence)"

    def test_operand_count_checked(self):
        with pytest.raises(ShapeError):
            check_property(3, [SX, SZ])

    def test_bad_index(self):
        with pytest.raises(ShapeError):
            check_property(9, [SX, SZ])

    @given(square_pairs())
    @settings(max_examples=25)
    def test_report_invariant_passed_iff_within_tolerance(self, pair):
        a, b = pair
        for rep in (
            check_property(1, [a, b]),
            check_property(3, [a, b, b]),
            check_property(7, [a, b, a, b]),
        ):
            assert rep.passed == (rep.residual <= rep.tolerance)

    def test_identities_judged_relative_to_operand_scale(self):
        # entries near 20: the laws hold to rounding, but the absolute
        # Frobenius residual of P7 is ~1e-9, above the default tol
        rng = np.random.default_rng(5)
        a, b = (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
                + 20.0 * np.eye(16) for _ in range(2))
        for index, operands in ((3, [a, b, b]), (4, [a, b, a]), (7, [a, b, a, b])):
            rep = check_property(index, operands)
            assert rep.passed, f"{rep.property_name}: residual {rep.residual:.3e}"
            assert rep.tolerance > 1e-10
        assert check_property(1, [a, b]).tolerance == 1e-10
        assert check_property(8, [a, b]).tolerance == 1e-10

    @pytest.mark.parametrize("index, operands, scalars", [
        (3, [[[1e308]], [[1e308]], [[1.0]]], None),
        (4, [[[1.0]], [[1e308]], [[1e308]]], None),
        (5, [[[1e308]], [[1.0]]], (2.0, -0.5)),
        (7, [[[1e200]], [[1e200]], [[1.0]], [[1.0]]], None),
    ])
    def test_overflowing_derived_operand_is_sizing_error(self, index, operands, scalars):
        # each sum or product of finite operands overflows before any kron;
        # numpy's overflow warning is not repeated (warnings are errors here)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SizingError, match="past the double range"):
                check_property(index, [np.array(op) for op in operands], scalars=scalars)

    def test_large_finite_operands_keep_a_finite_bound(self):
        # ||rhs||_F = 1e200 overflows when squared; the bound must not become
        # inf, which would pass any residual
        big = np.array([[1e50]])
        rep = check_property(7, [big, big, big, big])
        assert rep.residual == 0.0 and rep.passed
        assert rep.tolerance == pytest.approx(1e-10 * 1e200, rel=1e-12)

    def test_overflowing_residual_is_sizing_error(self):
        # every product is finite, but kron(a, b) - kron(b, a) has the entry
        # 1.44e308 + 1.44e308
        a = np.diag([1.2e154, -1.2e154])
        b = np.diag([1.2e154, 1.2e154])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SizingError, match="past the double range"):
                check_property(8, [a, b])


class TestAsMatrix:
    @pytest.mark.parametrize("values", [[1.0, 2.0], [], np.zeros((0, 2))],
                             ids=["1-D", "empty", "no rows"])
    def test_refuses_what_is_not_a_matrix(self, values):
        with pytest.raises(ShapeError, match="2-D matrix with positive dimensions"):
            as_matrix(values)


class TestFrobenius:
    def test_finite_norm_is_the_plain_norm_bitwise(self, rng):
        for shape in ((1, 1), (3, 5), (16, 16)):
            a = 1e150 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            assert frobenius(a) == float(np.linalg.norm(a))

    def test_norm_past_the_squared_range_is_rescaled(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert frobenius(np.array([[3e200, 4e200j]])) == pytest.approx(5e200, rel=1e-15)
            assert frobenius(np.array([[1.5e308, 1.5e308]])) == float("inf")
