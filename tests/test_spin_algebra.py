import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronspin.dense_linalg import eigh
from kronspin.errors import CapacityError, ContractError, ShapeError, SiteRangeError
from kronspin.kron_core import kron
from kronspin.matfree_engine import total_component, total_spin_squared
from kronspin.spin_algebra import (
    AXES,
    DENSE_SITE_CAP,
    commutator,
    conserved_residual,
    lift,
    pauli,
)


def sector_multiplicity(n: int, s: float) -> int:
    """Count of the s(s+1) eigenvalue of S^2 on n spins: (2s+1) paths."""
    k = int(n / 2 - s)
    paths = math.comb(n, k) - (math.comb(n, k - 1) if k >= 1 else 0)
    return int((2 * s + 1) * paths)


def lifted_total_component(axis: str, n: int) -> np.ndarray:
    """Oracle for total_component: half the sum of the lifted Pauli matrices."""
    total = np.zeros((2 ** n, 2 ** n), dtype=np.complex128)
    for site in range(1, n + 1):
        total += lift(pauli(axis), site, n)
    return 0.5 * total


def multiplied_total_spin_squared(n: int) -> np.ndarray:
    """Oracle for total_spin_squared: S_x^2 + S_y^2 + S_z^2 by matrix products."""
    total = np.zeros((2 ** n, 2 ** n), dtype=np.complex128)
    for axis in AXES:
        s = lifted_total_component(axis, n)
        total += s @ s
    return total


class TestPauli:
    def test_matrices(self):
        assert np.array_equal(pauli("x"), [[0, 1], [1, 0]])
        assert np.array_equal(pauli("y"), [[0, -1j], [1j, 0]])
        assert np.array_equal(pauli("z"), [[1, 0], [0, -1]])

    @pytest.mark.parametrize("axis", AXES)
    def test_hermitian_involutory_traceless(self, axis):
        s = pauli(axis)
        assert np.array_equal(s, s.conj().T)
        assert np.array_equal(s @ s, np.eye(2))
        assert s.trace() == 0

    def test_product_cycle(self):
        assert np.array_equal(pauli("x") @ pauli("y"), 1j * pauli("z"))
        assert np.array_equal(pauli("y") @ pauli("z"), 1j * pauli("x"))
        assert np.array_equal(pauli("z") @ pauli("x"), 1j * pauli("y"))

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            pauli("w")

    def test_returns_copy(self):
        a = pauli("x")
        a[0, 0] = 9
        assert pauli("x")[0, 0] == 0


class TestLift:
    def test_single_site(self):
        assert np.array_equal(lift(pauli("z"), 1, 1), pauli("z"))

    def test_two_site_placement(self):
        assert np.array_equal(lift(pauli("z"), 1, 2), np.diag([1, 1, -1, -1]))
        assert np.array_equal(lift(pauli("z"), 2, 2), np.diag([1, -1, 1, -1]))

    def test_site_one_is_leftmost_factor(self):
        got = lift(pauli("x"), 1, 3)
        want = kron(kron(pauli("x"), np.eye(2)), np.eye(2))
        assert np.array_equal(got, want)

    def test_distinct_site_lifts_commute_exactly(self):
        a = lift(pauli("x"), 1, 3)
        b = lift(pauli("y"), 3, 3)
        assert np.array_equal(a @ b, b @ a)

    def test_same_site_lifts_need_not_commute(self):
        a = lift(pauli("x"), 2, 3)
        b = lift(pauli("y"), 2, 3)
        assert not np.array_equal(a @ b, b @ a)

    def test_site_out_of_range(self):
        with pytest.raises(SiteRangeError):
            lift(pauli("x"), 0, 2)
        with pytest.raises(SiteRangeError):
            lift(pauli("x"), 3, 2)
        with pytest.raises(SiteRangeError):
            lift(pauli("x"), 1, 0)

    @pytest.mark.parametrize("site, n", [(1.5, 3), (2.0, 3), (True, 3), (1, 3.0), (1, True)])
    def test_non_integer_site_or_count_is_refused(self, site, n):
        # no slot equals 1.5, so sigma_x was dropped and the identity returned
        with pytest.raises(ContractError, match="must be integers"):
            lift(pauli("x"), site, n)

    def test_numpy_integer_site(self):
        assert np.array_equal(lift(pauli("x"), np.int64(2), np.int64(3)), lift(pauli("x"), 2, 3))

    def test_wrong_local_shape(self):
        with pytest.raises(ShapeError):
            lift(np.eye(3), 1, 2)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError, match="matrix-free") as err:
            lift(pauli("x"), 1, DENSE_SITE_CAP + 1)
        assert ("n=13 sites (dimension 2^13) exceeds the dense cap of 12 sites "
                "(dimension 2^12 = 4096)") in str(err.value)


class TestTotalComponent:
    def test_two_site_sz(self):
        assert np.array_equal(total_component("z", 2), np.diag([1.0, 0.0, 0.0, -1.0]))

    def test_matches_lift_sum(self):
        n = 3
        want = 0.5 * sum(lift(pauli("x"), k, n) for k in range(1, n + 1))
        assert np.array_equal(total_component("x", n), want)

    def test_sz_eigenvalue_multiplicities_are_binomial(self):
        n = 4
        values = np.real(np.diag(total_component("z", n)))
        for m in range(n + 1):
            assert np.sum(np.isclose(values, n / 2 - m)) == math.comb(n, m)

    def test_capacity_cap(self):
        with pytest.raises(CapacityError, match=r"n=13 sites \(dimension 2\^13\)"):
            total_component("z", DENSE_SITE_CAP + 1)

    def test_bad_site_count(self):
        with pytest.raises(SiteRangeError):
            total_component("z", 0)

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("axis", AXES)
    def test_fill_equals_lifted_sum_bitwise(self, axis, n):
        assert np.array_equal(total_component(axis, n), lifted_total_component(axis, n))


class TestTotalSpinSquared:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_fill_equals_component_squares_bitwise(self, n):
        assert np.array_equal(total_spin_squared(n), multiplied_total_spin_squared(n))

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            total_spin_squared(DENSE_SITE_CAP + 1)

    def test_single_site_is_three_quarters_identity(self):
        assert np.allclose(total_spin_squared(1), 0.75 * np.eye(2), atol=1e-15)

    def test_two_site_eigenvalues(self):
        values = eigh(total_spin_squared(2), want_vectors=False).eigenvalues
        assert np.allclose(values, [0.0, 2.0, 2.0, 2.0], atol=1e-12)

    def test_three_site_eigenvalues(self):
        values = eigh(total_spin_squared(3), want_vectors=False).eigenvalues
        assert np.allclose(values, [0.75] * 4 + [3.75] * 4, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sector_multiplicities(self, n):
        values = eigh(total_spin_squared(n), want_vectors=False).eigenvalues
        s = n / 2
        while s >= 0:
            target = s * (s + 1)
            count = int(np.sum(np.abs(values - target) < 1e-9))
            assert count == sector_multiplicity(n, s)
            s -= 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_commutes_with_every_component(self, n):
        s2 = total_spin_squared(n)
        for axis in AXES:
            assert conserved_residual(s2, total_component(axis, n)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_su2_closure(self, n):
        sx = total_component("x", n)
        sy = total_component("y", n)
        sz = total_component("z", n)
        assert np.max(np.abs(commutator(sx, sy) - 1j * sz)) < 1e-13
        assert np.max(np.abs(commutator(sy, sz) - 1j * sx)) < 1e-13
        assert np.max(np.abs(commutator(sz, sx) - 1j * sy)) < 1e-13


class TestCommutator:
    def test_pauli_xy(self):
        assert np.array_equal(commutator(pauli("x"), pauli("y")), 2j * pauli("z"))

    def test_self_commutator_is_zero(self, rng):
        a = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        assert np.array_equal(commutator(a, a), np.zeros((4, 4)))

    def test_antisymmetry(self, rng):
        a = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        b = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        assert np.allclose(commutator(a, b), -commutator(b, a), atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            commutator(np.eye(2), np.eye(3))
        with pytest.raises(ShapeError):
            commutator(np.ones((2, 3)), np.ones((2, 3)))

    def test_conserved_residual_values(self):
        assert conserved_residual(pauli("x"), pauli("x")) == 0.0
        assert conserved_residual(pauli("x"), pauli("z")) == pytest.approx(
            2 * math.sqrt(2), abs=1e-14
        )

    @given(st.sampled_from(AXES), st.sampled_from(AXES))
    @settings(max_examples=9)
    def test_kron_factor_order_matters_for_distinct_paulis(self, ax1, ax2):
        left = kron(pauli(ax1), pauli(ax2))
        right = kron(pauli(ax2), pauli(ax1))
        if ax1 == ax2:
            assert np.array_equal(left, right)
        else:
            assert not np.array_equal(left, right)
