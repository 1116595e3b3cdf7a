import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronspin.dense_linalg import eigh
from kronspin.errors import (
    CapacityError,
    ContractError,
    ConvergenceError,
    ShapeError,
)
from kronspin.hamiltonian_builder import (
    CouplingEdge,
    HamiltonianSpec,
    build_general,
    build_h2,
)
from kronspin.kron_core import kron
from kronspin.matfree_engine import (
    KronSum,
    KronTerm,
    _two_site_term,
    commutator_norm,
    lanczos_extremal,
    matvec,
    spec_to_kronsum,
    to_dense,
    total_component,
    total_component_kronsum,
    total_spin_squared,
    total_spin_squared_kronsum,
)
from kronspin.spin_algebra import conserved_residual, pauli


def chain_spec(n: int, mu_b0: float = 1.0, j: float = 1.0) -> HamiltonianSpec:
    edges = tuple(CouplingEdge(k, k + 1, j) for k in range(1, n))
    return HamiltonianSpec(n, mu_b0, edges)


def random_spec(rng, n: int) -> HamiltonianSpec:
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    rng.shuffle(pairs)
    take = rng.integers(0, len(pairs) + 1)
    edges = tuple(CouplingEdge(i, j, rng.uniform(-2, 2)) for i, j in pairs[:take])
    return HamiltonianSpec(n, rng.uniform(-2, 2), edges)


class TestTermAndSumValidation:
    def test_active_slots(self):
        t = KronTerm(1.0, (None, pauli("x"), None, pauli("z")))
        assert t.active_slots == (1, 3)

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ContractError):
            KronTerm(complex("inf"), (None,))

    def test_wrong_factor_shape_rejected(self):
        with pytest.raises(ShapeError):
            KronTerm(1.0, (np.eye(3),))

    def test_factor_count_must_match_sites(self):
        with pytest.raises(ShapeError):
            KronSum(3, (KronTerm(1.0, (None, None)),))

    def test_bad_site_count(self):
        with pytest.raises(ContractError):
            KronSum(0, ())

    def test_two_site_helper_rejects_equal_sites(self):
        with pytest.raises(ContractError):
            _two_site_term(1.0, pauli("x"), 2, pauli("x"), 2, 4)

    def test_dimension(self):
        assert KronSum(5, ()).dimension == 32


class TestToDense:
    def test_empty_sum_is_zero(self):
        assert np.array_equal(to_dense(KronSum(2, ())), np.zeros((4, 4)))

    def test_single_term(self):
        op = KronSum(2, (KronTerm(1.0, (pauli("x"), pauli("z"))),))
        assert np.array_equal(to_dense(op), kron(pauli("x"), pauli("z")))

    def test_identity_slots_fill_with_eye(self):
        op = KronSum(3, (KronTerm(2.0, (None, pauli("y"), None)),))
        want = 2.0 * kron(kron(np.eye(2), pauli("y")), np.eye(2))
        assert np.array_equal(to_dense(op), want)

    def test_matches_dense_builder_bitwise(self, rng):
        for n in (2, 3, 4):
            for _ in range(5):
                spec = random_spec(rng, n)
                assert np.array_equal(to_dense(spec_to_kronsum(spec)), build_general(spec))

    def test_capacity_cap(self):
        op = KronSum(13, (KronTerm(1.0, tuple([None] * 13)),))
        with pytest.raises(CapacityError):
            to_dense(op)


class TestTermCounts:
    def test_two_site_single_edge(self):
        spec = HamiltonianSpec(2, 1.0, (CouplingEdge(1, 2, 1.0),))
        assert len(spec_to_kronsum(spec).terms) == 5

    def test_three_site_triangle(self):
        spec = HamiltonianSpec(
            3, 1.0,
            (CouplingEdge(1, 2, 1.0), CouplingEdge(2, 3, 1.0), CouplingEdge(1, 3, 1.0)),
        )
        assert len(spec_to_kronsum(spec).terms) == 12

    def test_chain_count_formula(self):
        n = 6
        assert len(spec_to_kronsum(chain_spec(n)).terms) == n + 3 * (n - 1)


class TestMatvec:
    def test_identity_term_scales(self, rng):
        op = KronSum(3, (KronTerm(2.5, (None, None, None)),))
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.array_equal(matvec(op, x), 2.5 * x)

    def test_basis_column_matches_dense(self):
        spec = chain_spec(3, 0.7, -0.4)
        op = spec_to_kronsum(spec)
        dense = build_general(spec)
        e0 = np.zeros(8)
        e0[0] = 1.0
        assert np.array_equal(matvec(op, e0), dense[:, 0])

    def test_sz_eigenstate(self):
        n = 10
        op = total_component_kronsum("z", n)
        e0 = np.zeros(1 << n)
        e0[0] = 1.0
        got = matvec(op, e0)
        assert np.array_equal(got, (n / 2) * e0)

    def test_matches_dense_on_random_states(self, rng):
        for n in (2, 4, 6):
            spec = random_spec(rng, n)
            op = spec_to_kronsum(spec)
            dense = build_general(spec)
            for _ in range(3):
                x = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
                assert np.max(np.abs(matvec(op, x) - dense @ x)) < 1e-12

    def test_all_columns_match_dense_exactly(self, rng):
        spec = random_spec(rng, 4)
        op = spec_to_kronsum(spec)
        dense = build_general(spec)
        eye = np.eye(16, dtype=np.complex128)
        cols = np.stack([matvec(op, eye[:, k]) for k in range(16)], axis=1)
        assert np.array_equal(cols, dense)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, 4)
        op = spec_to_kronsum(spec)
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        a, b = complex(rng.uniform(-2, 2)), complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        lhs = matvec(op, a * x + b * y)
        rhs = a * matvec(op, x) + b * matvec(op, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_wrong_length_rejected(self):
        op = KronSum(3, ())
        with pytest.raises(ShapeError):
            matvec(op, np.zeros(4))

    def test_hermitian_inner_product_symmetry(self, rng):
        op = spec_to_kronsum(chain_spec(6))
        x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        y = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        lhs = np.vdot(x, matvec(op, y))
        rhs = np.conj(np.vdot(y, matvec(op, x)))
        assert abs(lhs - rhs) < 1e-11


def mixed_kronsum(rng, n: int) -> KronSum:
    """Complex coefficients, an identity term, non-Pauli non-Hermitian
    factors, 1-, 2- and 3-site terms, a diagonal factor, repeated and
    non-adjacent site sets, and sites used by both 1- and 2-site terms."""

    def factor():
        return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))

    def coefficient():
        return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

    def term(slots):
        factors = [None] * n
        for slot in slots:
            factors[slot] = factor()
        return KronTerm(coefficient(), tuple(factors))

    terms = [term(())]
    for slot in range(n):
        terms.append(term((slot,)))
    for i in range(n):
        for j in range(i + 1, n):
            terms.append(term((i, j)))
            terms.append(term((i, j)))
    if n >= 3:
        terms.append(term((0, 1, 2)))
        terms.append(term((0, n // 2, n - 1)))
    terms.append(term((0,)))
    diagonal = [None] * n
    diagonal[n - 1] = np.diag([1.5 + 0.5j, -0.25j])
    terms.append(KronTerm(0.5, tuple(diagonal)))
    return KronSum(n, tuple(terms))


class TestCompiledPlan:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_general_terms_match_dense(self, rng, n):
        op = mixed_kronsum(rng, n)
        dense = to_dense(op)
        for _ in range(3):
            x = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            assert np.max(np.abs(matvec(op, x) - dense @ x)) < 1e-12

    @pytest.mark.parametrize("n", range(1, 8))
    def test_totals_match_dense_columns_bitwise(self, n):
        eye = np.eye(1 << n, dtype=np.complex128)
        pairs = [(total_component_kronsum(axis, n), total_component(axis, n)) for axis in "xyz"]
        pairs.append((total_spin_squared_kronsum(n), total_spin_squared(n)))
        for op, dense in pairs:
            cols = np.stack([matvec(op, eye[:, k]) for k in range(1 << n)], axis=1)
            assert np.array_equal(cols, dense)

    def test_exchange_edge_compiles_to_two_flip_flop_moves(self):
        spec = HamiltonianSpec(3, 0.4, (CouplingEdge(1, 3, -0.75),))
        plan = spec_to_kronsum(spec).plan
        assert plan.diagonal.dtype == np.float64
        assert not plan.diagonal.flags.writeable
        assert plan.fallback == ()
        assert plan.real
        # sigma_x sigma_x + sigma_y sigma_y: 2J at (01 <- 10) and (10 <- 01);
        # the (00 <- 11) and (11 <- 00) entries cancel and are dropped
        assert [m[3] for m in plan.moves] == [-1.5, -1.5]
        # each flip-flop flips the bits of sites 1 and 3
        assert [m[4] for m in plan.moves] == [0b101, 0b101]
        assert plan.amplitudes_touched == 8 + 2 * 2

    def test_plan_is_built_once_per_operator(self, rng):
        op = mixed_kronsum(rng, 4)
        assert op.plan is op.plan
        assert len(op.plan.fallback) == 2
        assert op.plan.diagonal.dtype == np.complex128
        assert not op.plan.real

    def test_caller_array_mutation_does_not_reach_the_operator(self, rng):
        f = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        op = KronSum(2, (KronTerm(1.0, (f, pauli("z"))),))
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        before = matvec(op, x)
        f[0, 1] += 5.0
        assert np.array_equal(matvec(op, x), before)
        assert not op.terms[0].factors[0].flags.writeable


def hermitian_kronsum(rng, n: int) -> KronSum:
    """mixed_kronsum plus the adjoint of every term: Hermitian, with complex
    coefficients and entries and terms on three sites."""
    op = mixed_kronsum(rng, n)
    adjoints = [
        KronTerm(np.conj(t.coefficient),
                 tuple(None if f is None else f.conj().T for f in t.factors))
        for t in op.terms
    ]
    return KronSum(n, op.terms + tuple(adjoints))


class TestRealPlan:
    """A real plan keeps float64 states float64, with the same arithmetic as
    the complex path on the real part."""

    @staticmethod
    def real_operators(rng, n):
        for z_scale in (1.0, 2.0, -0.7, 0.0):
            yield spec_to_kronsum(random_spec(rng, n), z_scale)
        yield total_spin_squared_kronsum(n)
        yield total_component_kronsum("z", n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_real_state_matches_real_part_of_complex_bitwise(self, rng, n):
        for op in self.real_operators(rng, n):
            assert op.plan.real
            x = rng.standard_normal(1 << n)
            got = matvec(op, x)
            full = matvec(op, x.astype(np.complex128))
            assert got.dtype == np.float64
            assert full.dtype == np.complex128
            assert np.array_equal(got, full.real)
            assert not full.imag.any()

    def test_complex_plans_and_complex_states_stay_complex(self, rng):
        s_y = total_component_kronsum("y", 3)
        assert not s_y.plan.real
        assert matvec(s_y, rng.standard_normal(8)).dtype == np.complex128
        h = spec_to_kronsum(chain_spec(3))
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert matvec(h, x).dtype == np.complex128


def two_site_kronsum(rng, n: int) -> KronSum:
    """mixed_kronsum without its terms on three sites."""
    op = mixed_kronsum(rng, n)
    return KronSum(n, tuple(t for t in op.terms if len(t.active_slots) <= 2))


class TestCommutatorNorm:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dense_commutator(self, rng, n):
        ops = [
            two_site_kronsum(rng, n),
            two_site_kronsum(rng, n),
            spec_to_kronsum(random_spec(rng, n), 2.0),
            total_spin_squared_kronsum(n),
            total_component_kronsum("y", n),
        ]
        dense = [to_dense(op) for op in ops]
        for (a, da), (b, db) in itertools.permutations(zip(ops, dense), 2):
            want = conserved_residual(da, db)
            scale = np.linalg.norm(da) * np.linalg.norm(db)
            assert abs(commutator_norm(a, b) - want) <= 1e-12 * scale

    @pytest.mark.parametrize("n", range(1, 7))
    def test_flip_form_reproduces_matvec(self, rng, n):
        states = np.arange(1 << n)
        for op in (two_site_kronsum(rng, n), spec_to_kronsum(random_spec(rng, n))):
            form = op.flip_form
            assert form is op.flip_form
            assert form.masks[0] == 0
            assert len(set(form.masks.tolist())) == form.masks.size
            assert form.coefficients.dtype == (np.float64 if op.plan.real else np.complex128)
            x = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            y = sum(row * x[states ^ mask] for mask, row in zip(form.masks, form.coefficients))
            assert np.max(np.abs(y - matvec(op, x))) < 1e-12 * max(1.0, np.max(np.abs(y)))

    def test_exchange_edge_is_one_flip_mask(self):
        # both flip-flop moves of edge (1, 3) flip bits 2 and 0
        op = spec_to_kronsum(HamiltonianSpec(3, 0.4, (CouplingEdge(1, 3, -0.75),)))
        assert op.flip_form.masks.tolist() == [0, 0b101]
        assert op.flip_form.coefficients[1].tolist() == [0, -1.5, 0, -1.5, -1.5, 0, -1.5, 0]

    def test_three_site_term_is_contract_error(self, rng):
        op = mixed_kronsum(rng, 3)
        s_sq = total_spin_squared_kronsum(3)
        with pytest.raises(ContractError, match="three or more"):
            commutator_norm(op, s_sq)
        with pytest.raises(ContractError, match="three or more"):
            commutator_norm(s_sq, op)

    def test_site_count_mismatch_is_contract_error(self):
        with pytest.raises(ContractError):
            commutator_norm(total_spin_squared_kronsum(3), total_spin_squared_kronsum(4))


class TestConservedKronsums:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_total_component_matches_dense(self, n):
        got = to_dense(total_component_kronsum("z", n))
        assert np.max(np.abs(got - total_component("z", n))) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_total_spin_squared_matches_dense(self, n):
        got = to_dense(total_spin_squared_kronsum(n))
        assert np.max(np.abs(got - total_spin_squared(n))) < 1e-12

    def test_term_count_spin_squared(self):
        n = 5
        assert len(total_spin_squared_kronsum(n).terms) == 1 + 3 * (n * (n - 1) // 2)

    def test_bad_site_count(self):
        with pytest.raises(ContractError):
            total_component_kronsum("z", 0)
        with pytest.raises(ContractError):
            total_spin_squared_kronsum(0)


class TestLanczos:
    def test_h2_ground_state(self):
        op = spec_to_kronsum(HamiltonianSpec(2, 1.0, (CouplingEdge(1, 2, 1.0),)))
        s = lanczos_extremal(op, which="lowest", k=1)
        assert s.eigenvalues[0] == pytest.approx(-3.0, abs=1e-8)

    def test_h2_full_spectrum(self):
        op = spec_to_kronsum(HamiltonianSpec(2, 1.0, (CouplingEdge(1, 2, 1.0),)))
        s = lanczos_extremal(op, which="lowest", k=4)
        assert np.allclose(s.eigenvalues, [-3.0, -1.0, 1.0, 3.0], atol=1e-8)

    def test_highest_end(self):
        op = spec_to_kronsum(HamiltonianSpec(2, 1.0, (CouplingEdge(1, 2, 1.0),)))
        s = lanczos_extremal(op, which="highest", k=1)
        assert s.eigenvalues[0] == pytest.approx(3.0, abs=1e-8)

    def test_spin_squared_lowest_is_zero_sector(self):
        op = total_spin_squared_kronsum(6)
        s = lanczos_extremal(op, which="lowest", k=1, seed=3)
        assert s.eigenvalues[0] == pytest.approx(0.0, abs=1e-7)

    def test_four_site_chain_ground_state(self):
        op = spec_to_kronsum(chain_spec(4, 0.0, 1.0))
        s = lanczos_extremal(op, which="lowest", k=1)
        assert s.eigenvalues[0] == pytest.approx(-6.464101615137756, abs=1e-8)

    def test_matches_dense_solver(self):
        # pinned seeds so the drawn specs (degenerate or not) are stable
        for seed in (11, 12, 13):
            spec = random_spec(np.random.default_rng(seed), 6)
            op = spec_to_kronsum(spec)
            want = eigh(build_general(spec), want_vectors=False).eigenvalues
            s = lanczos_extremal(op, which="lowest", k=3, seed=11)
            assert np.max(np.abs(s.eigenvalues - want[:3])) < 1e-7

    def test_degenerate_extremal_values_keep_multiplicity(self):
        # field-only register: eigenvalues -mu_b0 * (n - 2 downs), so the
        # second-lowest level is n-fold degenerate and k = 3 must report it
        # twice, not climb to the next distinct level
        spec = HamiltonianSpec(n_sites=6, mu_b0=0.7)
        op = spec_to_kronsum(spec)
        s = lanczos_extremal(op, which="lowest", k=3, seed=11)
        assert np.allclose(s.eigenvalues, [-4.2, -2.8, -2.8], atol=1e-8)
        h = lanczos_extremal(op, which="highest", k=3, seed=11)
        assert np.allclose(h.eigenvalues, [2.8, 2.8, 4.2], atol=1e-8)

    def test_eigenvector_residual(self):
        op = spec_to_kronsum(chain_spec(5))
        s = lanczos_extremal(op, which="lowest", k=1)
        v = s.eigenvectors[:, 0]
        assert np.linalg.norm(matvec(op, v) - s.eigenvalues[0] * v) < 1e-7

    def test_deterministic_for_fixed_seed(self):
        op = spec_to_kronsum(chain_spec(5))
        assert op.plan.real
        s1 = lanczos_extremal(op, which="lowest", k=2, seed=42)
        s2 = lanczos_extremal(op, which="lowest", k=2, seed=42)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)
        assert s1.eigenvectors.dtype == np.complex128
        assert s1.eigenvectors.flags.c_contiguous

    def test_ring_singlet_and_triplet(self):
        # zero-field 8-site Heisenberg ring: a singlet ground state below a
        # threefold triplet; the real-arithmetic chain must find all four
        spec = HamiltonianSpec(8, 0.0, tuple(CouplingEdge(k, k % 8 + 1, 1.0) for k in range(1, 9)))
        op = spec_to_kronsum(spec)
        assert op.plan.real
        s = lanczos_extremal(op, which="lowest", k=4, seed=5)
        want = eigh(build_general(spec), want_vectors=False).eigenvalues[:4]
        assert np.max(np.abs(s.eigenvalues - want)) < 1e-8
        assert want[1] - want[0] > 1.0
        assert np.ptp(s.eigenvalues[1:]) < 1e-8
        s_sq = total_spin_squared_kronsum(8)
        spins = [np.vdot(v, matvec(s_sq, v)).real for v in s.eigenvectors.T]
        assert np.allclose(spins, [0.0, 2.0, 2.0, 2.0], atol=1e-7)

    def test_complex_plan_total_sy(self):
        op = total_component_kronsum("y", 6)
        assert not op.plan.real
        s = lanczos_extremal(op, which="lowest", k=1)
        assert s.eigenvalues[0] == pytest.approx(-3.0, abs=1e-8)

    def test_complex_plan_with_three_site_terms_matches_dense(self):
        op = hermitian_kronsum(np.random.default_rng(31), 5)
        assert not op.plan.real
        assert op.plan.fallback
        want = eigh(to_dense(op), want_vectors=False).eigenvalues[:3]
        s = lanczos_extremal(op, which="lowest", k=3, seed=7)
        assert np.max(np.abs(s.eigenvalues - want)) < 1e-8
        assert s.eigenvectors.dtype == np.complex128

    def test_degenerate_operator_identity_like(self):
        op = KronSum(4, (KronTerm(2.0, tuple([None] * 4)),))
        s = lanczos_extremal(op, which="lowest", k=3, seed=1)
        assert np.allclose(s.eigenvalues, [2.0, 2.0, 2.0], atol=1e-8)

    def test_k_out_of_range(self):
        op = spec_to_kronsum(chain_spec(2))
        with pytest.raises(ContractError):
            lanczos_extremal(op, k=0)
        with pytest.raises(ContractError):
            lanczos_extremal(op, k=5)

    def test_bad_which(self):
        with pytest.raises(ValueError):
            lanczos_extremal(spec_to_kronsum(chain_spec(2)), which="middle")

    def test_non_hermitian_rejected(self):
        raising = np.array([[0.0, 1.0], [0.0, 0.0]])
        op = KronSum(3, (KronTerm(1.0, (raising, None, None)),))
        with pytest.raises(ContractError, match="Hermitian"):
            lanczos_extremal(op)

    def test_non_convergence_carries_estimates(self):
        op = spec_to_kronsum(chain_spec(6))
        with pytest.raises(ConvergenceError) as err:
            lanczos_extremal(op, which="lowest", k=1, tol=1e-30, max_iter=8)
        estimates = err.value.estimates
        assert len(estimates) >= 1
        value, residual = estimates[0]
        assert np.isfinite(value) and residual > 0


class TestComplexityScaling:
    def test_matvec_cost_scales_near_linear_in_dimension(self):
        # best-of-5 timings on an n-site chain; amplitudes touched per matvec
        # is dim (diagonal) + 2 * dim / 4 per edge (flip-flop moves), so
        # log2(time) vs n should fit a line of slope about 1 once overheads
        # wash out.
        sizes = (15, 16, 17, 18)
        best = []
        for n in sizes:
            op = spec_to_kronsum(chain_spec(n))
            x = (np.arange(1 << n) % 7 - 3).astype(np.complex128)
            matvec(op, x)  # warm up allocations
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                matvec(op, x)
                times.append(time.perf_counter() - t0)
            best.append(min(times))
        slope = np.polyfit(sizes, np.log2(best), 1)[0]
        assert 0.5 < slope < 1.8, f"slope {slope:.2f} from timings {best}"
