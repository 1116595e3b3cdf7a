import itertools
import time
import tracemalloc
import warnings

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
    SizingError,
)
from kronspin.hamiltonian_builder import (
    CouplingEdge,
    HamiltonianSpec,
    build_general,
    build_h2,
)
from kronspin import matfree_engine
from kronspin.kron_core import kron
from kronspin.matfree_engine import (
    ExchangeSum,
    KronSum,
    KronTerm,
    _compile,
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

    def test_bool_site_count_rejected(self):
        with pytest.raises(ContractError, match="n_sites"):
            KronSum(True, ())
        with pytest.raises(ContractError, match="n_sites"):
            total_component_kronsum("z", True)
        with pytest.raises(ContractError, match="n_sites"):
            total_spin_squared_kronsum(True)

    def test_exchange_sum_rejects_bad_edge_sites(self):
        # equal sites, a site outside 1..4, and a pair not stored as i < j
        for i, j in ((2, 2), (0, 2), (3, 5), (3, 1)):
            with pytest.raises(ContractError, match="exchange edge"):
                ExchangeSum(4, None, [(i, j, 1.0, 1.0)])

    @pytest.mark.parametrize("zeeman, coupling, constant", [
        (1.0, float("inf"), 0.0),
        (1.0, float("nan"), 0.0),
        (float("nan"), 1.0, 0.0),
        (None, 1.0, float("inf")),
    ])
    def test_exchange_sum_rejects_non_finite_values(self, zeeman, coupling, constant):
        with pytest.raises(ContractError, match="finite"):
            ExchangeSum(4, zeeman, [(1, 2, 1.0, 1.0), (2, 3, coupling, coupling)], constant)

    def test_infinite_anisotropy_is_refused_at_construction(self):
        spec = HamiltonianSpec(3, 1.0, (CouplingEdge(1, 2, 1.0),))
        with pytest.raises(ContractError, match="finite"):
            spec_to_kronsum(spec, float("inf"))

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


def reference_matvec(op: KronSum, x) -> np.ndarray:
    """The plain per-move loop: y = diagonal * x, then
    ``out += weight * x_view[src]`` for each move in plan order, then the
    fallback terms site by site, in the dtype ``matvec`` picks."""
    plan = op.plan
    x = np.asarray(x)
    real = plan.real and x.dtype == np.float64
    x = np.ascontiguousarray(x, dtype=np.float64 if real else np.complex128)
    y = plan.diagonal * x
    for shape, dst, src, weight, _ in plan.moves:
        out = y.reshape(shape)[dst]
        out += weight * x.reshape(shape)[src]
    for term in plan.fallback:
        src = x
        for slot in term.active_slots:
            dst = np.empty(op.dimension, dtype=np.complex128)
            matfree_engine._apply_site(src, term.factors[slot], slot, op.n_sites, dst)
            src = dst
        y += src * term.coefficient
    return y


def oracle_state(rng, n: int, complex_state: bool = False) -> np.ndarray:
    """Amplitudes over 60 binary orders of magnitude, with signed zeros."""
    def part():
        x = rng.standard_normal(1 << n) * np.exp2(rng.integers(-30, 30, 1 << n))
        x[rng.random(1 << n) < 0.1] = 0.0
        x[rng.random(1 << n) < 0.1] = -0.0
        return x

    return part() + 1j * part() if complex_state else part()


def assert_matvec_matches_reference(op, x):
    got, want = matvec(op, x), reference_matvec(op, x)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestMatvecOracle:
    """``matvec`` scales a shared weight once and runs short-run slabs along
    their longest axis; each amplitude still gets the per-move loop's
    multiply and adds, in plan order, so the results are equal byte for
    byte."""

    @staticmethod
    def random_exchange_sums(rng, n):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for kind in ("uniform", "jittered", "signed", "some zero"):
            take = rng.permutation(len(pairs))[: rng.integers(0, len(pairs) + 1)]
            edges = []
            for p in sorted(take):
                j = {"uniform": 1.25, "jittered": 1.25 * (1 + 0.2 * rng.uniform(-1, 1)),
                     "signed": rng.uniform(-2, 2),
                     "some zero": 0.0 if rng.random() < 0.3 else -0.75}[kind]
                edges.append(CouplingEdge(*pairs[p], float(j)))
            mu_b0 = 0.0 if kind == "some zero" else rng.uniform(-2, 2)
            z_scale = float(rng.choice([1.0, 2.0, -0.7, 0.0]))
            yield spec_to_kronsum(HamiltonianSpec(n, mu_b0, tuple(edges)), z_scale)
        # no field at all, not a zero one
        yield ExchangeSum(n, None, [(i, j, -0.5, 0.25) for i, j in pairs[: 2 * n]])

    @pytest.mark.parametrize("n", range(1, 15))
    def test_exchange_sums(self, n):
        rng = np.random.default_rng(1400 + n)
        for op in self.random_exchange_sums(rng, n):
            assert_matvec_matches_reference(op, oracle_state(rng, n))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_spin_operators(self, n):
        rng = np.random.default_rng(1500 + n)
        for op in (total_spin_squared_kronsum(n), total_component_kronsum("x", n),
                   total_component_kronsum("y", n)):
            assert_matvec_matches_reference(op, oracle_state(rng, n))
            assert_matvec_matches_reference(op, oracle_state(rng, n, complex_state=True))

    @pytest.mark.parametrize("n", [2, 5, 9, 12])
    def test_complex_state_on_a_real_plan(self, n):
        rng = np.random.default_rng(1600 + n)
        for op in self.random_exchange_sums(rng, n):
            assert op.plan.real
            assert_matvec_matches_reference(op, oracle_state(rng, n, complex_state=True))

    def test_three_site_fallback_term(self, rng):
        op = mixed_kronsum(rng, 3)
        assert op.plan.fallback
        for complex_state in (False, True):
            assert_matvec_matches_reference(op, oracle_state(rng, 3, complex_state))

    @pytest.mark.parametrize("jitter", [0.0, 0.2])
    def test_chain_ending_in_short_runs(self, jitter):
        # the last three edges of a 12-site chain have contiguous runs of
        # 4, 2 and 1 amplitudes; the rest run 8 or more
        rng = np.random.default_rng(1700)
        n = 12
        edges = tuple(CouplingEdge(k, k + 1, 1.0 + jitter * rng.uniform(-1, 1))
                      for k in range(1, n))
        op = spec_to_kronsum(HamiltonianSpec(n, 0.5, edges))
        reordered = [axes is not None for *_, axes in op.plan.sweeps]
        assert reordered == [False] * 16 + [True] * 6
        assert (op.plan.shared_weight is None) == bool(jitter)
        for complex_state in (False, True):
            assert_matvec_matches_reference(op, oracle_state(rng, n, complex_state))

    def test_shared_weight(self):
        assert spec_to_kronsum(chain_spec(5, j=0.75)).plan.shared_weight == 1.5
        assert total_spin_squared_kronsum(6).plan.shared_weight == 1.0
        assert total_component_kronsum("x", 4).plan.shared_weight == 0.5
        assert total_component_kronsum("y", 4).plan.shared_weight is None
        assert total_component_kronsum("z", 4).plan.shared_weight is None  # no moves
        # signed zeros are told apart: these multiply x differently
        plan = KronSum(2, (KronTerm(complex(0.0, 1.0), (pauli("x"), None)),
                           KronTerm(complex(-0.0, 1.0), (None, pauli("x"))))).plan
        assert [repr(complex(move[3])) for move in plan.moves] == ["1j", "1j", "(-0+1j)", "(-0+1j)"]
        assert plan.shared_weight is None


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


def assert_plans_bitwise_equal(got, want):
    assert got.diagonal.dtype == want.diagonal.dtype
    assert got.diagonal.tobytes() == want.diagonal.tobytes()
    assert not got.diagonal.flags.writeable
    assert got.real == want.real
    assert got.fallback == want.fallback == ()
    assert len(got.moves) == len(want.moves)
    for move, wanted in zip(got.moves, want.moves):
        shape, dst, src, weight, mask = move
        assert (shape, dst, src, mask) == (wanted[0], wanted[1], wanted[2], wanted[4])
        # same type and the same double, sign included
        assert type(weight) is type(wanted[3]) and repr(weight) == repr(wanted[3])


class TestExchangePlan:
    """The plan written from the edge list equals ``_compile`` of the same
    operator's terms bitwise."""

    @pytest.mark.parametrize("z_scale", [1.0, 2.0, -0.7, 0.0])
    def test_spec_plan_equals_compiled_terms_bitwise(self, z_scale):
        rng = np.random.default_rng(6161)
        for n in range(1, 10):
            for rep in range(4):
                drawn = random_spec(rng, n)
                # a quarter of the couplings are J = 0, and every fourth spec
                # has no field
                edges = tuple(CouplingEdge(e.i, e.j, 0.0 if rng.random() < 0.25 else e.strength)
                              for e in drawn.couplings)
                spec = HamiltonianSpec(n, 0.0 if rep == 0 else drawn.mu_b0, edges)
                op = spec_to_kronsum(spec, z_scale)
                assert isinstance(op, ExchangeSum)
                assert_plans_bitwise_equal(op.plan, _compile(op))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_spin_squared_plan_equals_compiled_terms_bitwise(self, n):
        op = total_spin_squared_kronsum(n)
        assert_plans_bitwise_equal(op.plan, _compile(op))

    def test_plan_is_built_on_first_use(self):
        # 2^56 amplitudes could not be allocated: building the operator and
        # reading its terms must not touch the plan
        op = spec_to_kronsum(HamiltonianSpec(56, 1.0, (CouplingEdge(1, 2, 1.0),)))
        assert len(op.terms) == 56 + 3
        assert "plan" not in vars(op)
        small = spec_to_kronsum(chain_spec(4))
        assert small.plan is small.plan


def eager_terms(n: int, zeeman, edges, constant: float = 0.0) -> tuple:
    """Reference term tuple of an edge-list operator, built loop by loop: the
    constant (when nonzero), sigma_z per site (unless zeeman is None), then
    xx, yy and zz per edge."""
    terms = [KronTerm(constant, (None,) * n)] if constant else []
    if zeeman is not None:
        terms += [KronTerm(zeeman, (None,) * k + (pauli("z"),) + (None,) * (n - k - 1))
                  for k in range(n)]
    for i, j, j_xy, j_z in edges:
        for axis, strength in zip("xyz", (j_xy, j_xy, j_z)):
            factors = [None] * n
            factors[i - 1] = factors[j - 1] = pauli(axis)
            terms.append(KronTerm(strength, tuple(factors)))
    return tuple(terms)


def assert_terms_identical(got, want):
    assert len(got) == len(want)
    for term, wanted in zip(got, want):
        assert repr(term.coefficient) == repr(wanted.coefficient)
        assert len(term.factors) == len(wanted.factors)
        for f, g in zip(term.factors, wanted.factors):
            assert (f is None) == (g is None)
            assert f is None or (f.tobytes() == g.tobytes() and not f.flags.writeable)


class TestExchangeSum:
    """H, S_z and S^2 keep only their edge list; terms and plan are built on
    first read."""

    def test_construction_builds_neither_plan_nor_terms(self):
        op = spec_to_kronsum(HamiltonianSpec(56, 1.0, (CouplingEdge(1, 2, 1.0),)))
        for built in (op, total_spin_squared_kronsum(56), total_component_kronsum("z", 56)):
            assert "plan" not in vars(built) and "terms" not in vars(built)
        assert len(op.terms) == 56 + 3
        assert op.terms is op.terms
        assert "plan" not in vars(op)

    @pytest.mark.parametrize("z_scale", [1.0, 2.0, -0.7, 0.0])
    def test_spec_terms_equal_the_eager_tuple(self, z_scale):
        rng = np.random.default_rng(1313)
        for n in range(1, 8):
            spec = random_spec(rng, n)
            edges = [(e.i, e.j, e.strength, e.strength * z_scale) for e in spec.couplings]
            assert_terms_identical(spec_to_kronsum(spec, z_scale).terms,
                                   eager_terms(n, -spec.mu_b0, edges))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_spin_operators_terms_equal_the_eager_tuple(self, n):
        pairs = itertools.combinations(range(1, n + 1), 2)
        assert_terms_identical(total_spin_squared_kronsum(n).terms,
                               eager_terms(n, None, [(i, j, 0.5, 0.5) for i, j in pairs], 0.75 * n))
        assert_terms_identical(total_component_kronsum("z", n).terms, eager_terms(n, 0.5, ()))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_spin_z_plan_equals_compiled_terms_bitwise(self, n):
        op = total_component_kronsum("z", n)
        assert isinstance(op, ExchangeSum)
        assert_plans_bitwise_equal(op.plan, _compile(op))

    def test_overflowing_sums_are_refused_by_the_plan(self):
        # finite couplings whose zz diagonal and flip-flop weight 2J overflow
        huge = chain_spec(3, j=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SizingError, match="past the double range"):
                spec_to_kronsum(huge).plan
            with pytest.raises(SizingError, match="past the double range"):
                build_general(huge)
            # the weight alone: two sites, one edge, diagonal +-1e308
            with pytest.raises(SizingError, match="past the double range"):
                spec_to_kronsum(HamiltonianSpec(2, 0.0, (CouplingEdge(1, 2, 1e308),))).plan


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

    def test_complex_symmetric_non_hermitian_rejected(self):
        # i sigma_x equals its transpose but not its adjoint: real probes
        # compared without conjugation would pass it
        op = KronSum(2, (KronTerm(1j, (pauli("x"), None)),))
        assert not op.plan.real
        with pytest.raises(ContractError, match="Hermitian"):
            lanczos_extremal(op)

    def test_sample_check_on_a_real_plan_stays_float64(self):
        # float64 probes and matvecs hold about 4 rows at once; complex
        # probes on the same plan peak near 15 rows
        n = 14
        op = spec_to_kronsum(ring_spec(n, 0.7))
        op.plan  # compiled outside the measurement
        peak = traced_peak(lambda: matfree_engine._hermitian_sample_check(
            op, np.random.default_rng(3)))
        assert peak <= 6 * (1 << n) * 8

    def test_non_convergence_carries_estimates(self):
        op = spec_to_kronsum(chain_spec(6))
        with pytest.raises(ConvergenceError) as err:
            lanczos_extremal(op, which="lowest", k=1, tol=1e-30, max_iter=8)
        estimates = err.value.estimates
        assert len(estimates) >= 1
        value, residual = estimates[0]
        assert np.isfinite(value) and residual > 0

    def test_non_convergence_names_the_first_pass(self):
        op = spec_to_kronsum(chain_spec(6))
        with pytest.raises(ConvergenceError, match="the first pass spent all 8 of its steps"):
            lanczos_extremal(op, which="lowest", k=1, tol=1e-30, max_iter=8)

    def test_non_convergence_names_the_verification_pass(self):
        # with 44 steps the first pass certifies k = 2 values (its check at
        # step 40), but the first verification pass needs more
        op = spec_to_kronsum(chain_spec(8))
        with pytest.raises(ConvergenceError,
                           match="verification pass 1 of 2 spent all 44 of its steps"):
            lanczos_extremal(op, which="lowest", k=2, max_iter=44, seed=1)

    @pytest.mark.parametrize("j", [1e160, 1e154])
    def test_norms_past_the_double_range_are_refused(self, j):
        # the plan is finite, but squaring entries of op x near 1e160
        # overflows; refused before any matvec
        op = spec_to_kronsum(chain_spec(4, j=j))
        assert np.isfinite(op.plan.diagonal).all()
        with pytest.raises(SizingError, match="norm bound"):
            lanczos_extremal(op)

    @pytest.mark.parametrize("j", [1e150, -1e150, 1e-150])
    def test_large_and_small_finite_couplings_answer(self, j):
        spec = chain_spec(4, j=j)
        dense = eigh(build_general(spec), want_vectors=False).eigenvalues
        s = lanczos_extremal(spec_to_kronsum(spec), which="lowest", k=2, seed=1)
        scale = np.max(np.abs(dense))
        assert np.allclose(s.eigenvalues, dense[:2], rtol=0, atol=1e-8 * scale)

    def test_norm_bound(self, rng):
        # a Gershgorin bound: at least the spectral radius, exact for a
        # diagonal plan
        assert spec_to_kronsum(HamiltonianSpec(3, 2.0, ())).plan.norm_bound == 6.0
        plan = spec_to_kronsum(chain_spec(4, j=0.5)).plan
        assert plan.norm_bound == np.max(np.abs(plan.diagonal)) + 6 * 1.0
        for op in (hermitian_kronsum(rng, 3), spec_to_kronsum(random_spec(rng, 5))):
            values = np.linalg.eigvalsh(to_dense(op))
            assert np.max(np.abs(values)) <= op.plan.norm_bound * (1 + 1e-12)


def traced_peak(call) -> int:
    """tracemalloc peak in bytes of call(), taken after a small solve has
    done numpy's lazy first-use imports."""
    lanczos_extremal(spec_to_kronsum(chain_spec(3)))
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SMALL_CAP = 12


@pytest.fixture
def small_basis(monkeypatch):
    """Cap the Lanczos basis at SMALL_CAP rows, so chains longer than that
    must thick-restart (a basis row past the cap would be an IndexError)."""
    monkeypatch.setattr(matfree_engine, "_BASIS_CAP", SMALL_CAP)


@pytest.fixture
def matvec_calls(monkeypatch):
    calls = []

    def counted(op, x):
        calls.append(1)
        return matvec(op, x)

    monkeypatch.setattr(matfree_engine, "matvec", counted)
    return calls


def ring_spec(n: int, mu_b0: float = 0.0) -> HamiltonianSpec:
    return HamiltonianSpec(n, mu_b0, tuple(CouplingEdge(k, k % n + 1, 1.0) for k in range(1, n + 1)))


@pytest.mark.usefixtures("small_basis")
class TestLanczosRestart:
    def test_ring_singlet_and_triplet(self, matvec_calls):
        spec = ring_spec(8)
        op = spec_to_kronsum(spec)
        s = lanczos_extremal(op, which="lowest", k=4, seed=5)
        assert len(matvec_calls) > 3 * SMALL_CAP
        want = eigh(build_general(spec), want_vectors=False).eigenvalues[:4]
        assert np.max(np.abs(s.eigenvalues - want)) < 1e-8
        assert np.ptp(s.eigenvalues[1:]) < 1e-8
        s_sq = total_spin_squared_kronsum(8)
        spins = [np.vdot(v, matvec(s_sq, v)).real for v in s.eigenvectors.T]
        assert np.allclose(spins, [0.0, 2.0, 2.0, 2.0], atol=1e-7)

    def test_degenerate_extremal_values_keep_multiplicity(self):
        op = spec_to_kronsum(HamiltonianSpec(n_sites=6, mu_b0=0.7))
        s = lanczos_extremal(op, which="lowest", k=3, seed=11)
        assert np.allclose(s.eigenvalues, [-4.2, -2.8, -2.8], atol=1e-8)
        h = lanczos_extremal(op, which="highest", k=3, seed=11)
        assert np.allclose(h.eigenvalues, [2.8, 2.8, 4.2], atol=1e-8)

    @pytest.mark.parametrize("which", ["lowest", "highest"])
    def test_single_value_matches_dense(self, which, matvec_calls):
        spec = chain_spec(9)
        op = spec_to_kronsum(spec)
        s = lanczos_extremal(op, which=which, k=1, seed=2)
        assert len(matvec_calls) > 3 * SMALL_CAP
        values = eigh(build_general(spec), want_vectors=False).eigenvalues
        want = values[0] if which == "lowest" else values[-1]
        assert abs(s.eigenvalues[0] - want) < 1e-10
        v = s.eigenvectors[:, 0]
        assert np.linalg.norm(matvec(op, v) - s.eigenvalues[0] * v) < 1e-7

    def test_complex_plan_matches_dense(self, matvec_calls):
        op = hermitian_kronsum(np.random.default_rng(31), 7)
        assert not op.plan.real
        want = eigh(to_dense(op), want_vectors=False).eigenvalues[:2]
        s = lanczos_extremal(op, which="lowest", k=2, seed=7)
        assert len(matvec_calls) > 3 * SMALL_CAP
        assert np.max(np.abs(s.eigenvalues - want)) < 1e-8

    def test_deterministic_for_fixed_seed(self):
        op = spec_to_kronsum(chain_spec(8))
        s1 = lanczos_extremal(op, which="lowest", k=2, seed=42)
        s2 = lanczos_extremal(op, which="lowest", k=2, seed=42)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_non_convergence_carries_estimates(self, matvec_calls):
        op = spec_to_kronsum(chain_spec(8))
        with pytest.raises(ConvergenceError) as err:
            lanczos_extremal(op, which="lowest", k=2, tol=1e-30, max_iter=40)
        # the budget spans several restarts of the 12-row basis
        assert len(matvec_calls) >= 40
        estimates = err.value.estimates
        assert len(estimates) == 2
        for value, residual in estimates:
            assert np.isfinite(value) and residual > 0

    def test_peak_memory_follows_the_cap(self):
        # basis rows (the cap), k returned vectors and two working vectors;
        # slack: a restart holds its kept Ritz vectors, at most cap // 2
        # rows, beside the full basis, and one row covers the projected
        # matrix and the small arrays.  A growing basis reaches 128 rows.
        n = 14
        row = (1 << n) * 8
        op = spec_to_kronsum(ring_spec(n, 0.7))
        op.plan  # compiled outside the measurement
        lanczos_extremal(spec_to_kronsum(chain_spec(3)))  # first-use imports
        for k in (1, 4):
            tracemalloc.start()
            try:
                lanczos_extremal(op, which="lowest", k=k, seed=3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < (SMALL_CAP + k + 2 + SMALL_CAP // 2 + 1) * row


class TestLanczosDefaultCap:
    @pytest.mark.parametrize("k", [1, 4])
    def test_peak_memory_follows_the_default_cap(self, k):
        # the basis (the cap), a restart's kept Ritz vectors (at most half
        # the cap), k accepted vectors and two working vectors; one more row
        # covers the projected matrix and the small arrays
        n = 14
        cap = matfree_engine._BASIS_CAP
        assert 3 * k <= cap < 1 << n
        op = spec_to_kronsum(ring_spec(n, 0.7))
        op.plan  # compiled outside the measurement
        peak = traced_peak(lambda: lanczos_extremal(op, which="lowest", k=k, seed=3))
        assert peak < (cap + cap // 2 + k + 3) * (1 << n) * 8


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
