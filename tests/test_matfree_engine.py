import itertools
import math
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
    SiteRangeError,
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
    _scatter_dense,
    commutator_norm,
    lanczos_extremal,
    matvec,
    spec_to_kronsum,
    to_dense,
    total_component,
    total_component_kronsum,
    total_spin_squared,
    total_spin_squared_kronsum,
    total_spin_squared_ladder,
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

    @pytest.mark.parametrize("i, j", [(1.5, 2), (1, 2.0), (True, 2)])
    def test_exchange_sum_rejects_non_integer_edge_sites(self, i, j):
        # a float site made the plan raise TypeError, and True counted as 1
        with pytest.raises(ContractError, match="exchange edge sites must be integers"):
            ExchangeSum(3, 1.0, [(i, j, 1.0, 1.0)])

    @pytest.mark.parametrize("edge", [(1, 2), (1, 2, 1.0), (1, 2, 1.0, 1.0, 0.0)])
    def test_exchange_sum_rejects_an_edge_without_four_entries(self, edge):
        with pytest.raises(ContractError, match=r"is not \(i, j, j_xy, j_z\)"):
            ExchangeSum(3, 1.0, [edge])

    def test_numpy_integer_site_counts_match_python_ints(self):
        # stored as Python ints, so 1 << n_sites is one too
        for op, want in (
            (KronSum(np.int64(3), ()), KronSum(3, ())),
            (ExchangeSum(np.int32(3), 1.0, [(1, 3, 1.0, 0.5)]), ExchangeSum(3, 1.0, [(1, 3, 1.0, 0.5)])),
            (total_spin_squared_kronsum(np.int64(3)), total_spin_squared_kronsum(3)),
            (total_component_kronsum("x", np.int64(3)), total_component_kronsum("x", 3)),
            (total_component_kronsum("z", np.int64(3)), total_component_kronsum("z", 3)),
        ):
            assert type(op.n_sites) is int and type(op.dimension) is int
            assert np.array_equal(to_dense(op), to_dense(want))
        assert np.array_equal(total_component("x", np.int64(3)), total_component("x", 3))
        assert np.array_equal(total_spin_squared(np.int64(3)), total_spin_squared(3))

    def test_exchange_sum_takes_numpy_integer_sites(self):
        edges = [(np.int64(1), np.int32(2), 1.0, 0.5)]
        got = ExchangeSum(3, 1.0, edges).plan
        want = ExchangeSum(3, 1.0, [(1, 2, 1.0, 0.5)]).plan
        assert np.array_equal(got.diagonal, want.diagonal)

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

    def test_terms_must_be_kron_terms(self):
        with pytest.raises(ContractError, match="KronTerm instances"):
            KronSum(2, ((1.0, (None, None)),))


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
        # each flip-flop flips the bits of sites 1 and 3: 2J from s to s ^ 0b101
        # where the two bits differ
        states = np.arange(8)
        flips = build_general(spec)[states ^ 0b101, states]
        assert flips.tolist() == [0, -1.5, 0, -1.5, -1.5, 0, -1.5, 0]
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

    @pytest.mark.parametrize("n", [1, 3])
    def test_overflowing_site_set_sum_is_refused(self, n):
        # finite terms whose summed weight 2e308 and diagonal +-2e308 are
        # past the double range; the refusal is the only signal
        rest = (None,) * (n - 1)
        terms = [KronTerm(1e308, (pauli(axis),) + rest) for axis in "xxzz"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SizingError, match="past the double range"):
                KronSum(n, tuple(terms)).plan


def adjoint(term: KronTerm) -> KronTerm:
    return KronTerm(np.conj(term.coefficient),
                    tuple(None if f is None else f.conj().T for f in term.factors))


def hermitian_kronsum(rng, n: int) -> KronSum:
    """mixed_kronsum plus the adjoint of every term: Hermitian, with complex
    coefficients and entries and terms on three sites."""
    op = mixed_kronsum(rng, n)
    return KronSum(n, op.terms + tuple(map(adjoint, op.terms)))


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
        reordered = [axes is not None for *_, axes in op.plan.moves]
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

    @pytest.mark.parametrize("make", [
        lambda: spec_to_kronsum(chain_spec(12)),
        lambda: total_spin_squared_kronsum(7),
        lambda: total_component_kronsum("y", 9),
        lambda: two_site_kronsum(np.random.default_rng(1800), 6),
    ], ids=["chain12", "spin-squared", "s-y", "two-site"])
    def test_move_axes_put_the_longest_axis_last(self, make):
        # a slab view keeps every other axis of its shape; one whose last
        # run holds fewer than 8 amplitudes is swept along its longest axis
        # (the later of equal ones), the other axes in order
        for shape, *_, axes in make().plan.moves:
            lengths = shape[::2]
            longest = max(range(len(lengths)), key=lambda a: (lengths[a], a))
            order = tuple(a for a in range(len(lengths)) if a != longest) + (longest,)
            if lengths[-1] >= 8 or order == tuple(range(len(lengths))):
                assert axes is None
            else:
                assert axes == order

    def test_cancelling_imaginary_diagonal_stays_real(self):
        # i sigma_z on site 1 and -i sigma_z x I on sites 1-2 cancel on the
        # diagonal, so the plan is real
        op = KronSum(2, (KronTerm(1j, (pauli("z"), None)),
                         KronTerm(-1j, (pauli("z"), np.eye(2))),
                         KronTerm(0.5, (pauli("x"), pauli("x")))))
        plan = op.plan
        assert plan.diagonal.dtype == np.float64
        assert not plan.diagonal.flags.writeable
        assert plan.real
        assert np.array_equal(plan.diagonal, np.zeros(4))
        x = oracle_state(np.random.default_rng(1900), 2)
        y = matvec(op, x)
        assert y.dtype == np.float64
        assert np.array_equal(y, to_dense(op).real @ x)


class TestMatvecBufferSize:
    """``matvec`` runs its moves with numpy's ufunc buffer at a fixed size
    and leaves the caller's buffer size and error settings as it found
    them, on return and on an error."""

    @pytest.fixture(autouse=True)
    def default_buffer_size(self):
        # numpy's default, set here: a size left at 256 by an earlier matvec
        # would otherwise read as restored
        with np.errstate():
            np.setbufsize(8192)
            yield

    @staticmethod
    def ring():
        # 14 sites: 28 moves, some with runs shorter than the default buffer
        edges = [CouplingEdge(k, k + 1, 1.0) for k in range(1, 14)] + [CouplingEdge(1, 14, 1.0)]
        op = spec_to_kronsum(HamiltonianSpec(14, 1.0, tuple(edges)))
        op.plan  # compiled before any ufunc is stubbed
        return op, np.random.default_rng(2000).standard_normal(op.dimension)

    def test_restored_on_return(self, monkeypatch):
        op, x = self.ring()
        before = np.getbufsize()
        seen = []
        real_add = np.add

        def add(*args, **kwargs):
            seen.append(np.getbufsize())
            return real_add(*args, **kwargs)

        monkeypatch.setattr(np, "add", add)
        matvec(op, x)
        assert seen == [matfree_engine._SLAB_BUFSIZE] * len(op.plan.moves)
        assert np.getbufsize() == before

    def test_restored_when_a_move_raises(self, monkeypatch):
        op, x = self.ring()
        before = np.getbufsize()

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "add", exhausted)
        with pytest.raises(MemoryError):
            matvec(op, x)
        assert np.getbufsize() == before

    def test_restored_inside_a_callers_errstate(self):
        op, x = self.ring()
        want = matvec(op, x)
        with np.errstate(over="ignore"):
            settings, before = np.geterr(), np.getbufsize()
            got = matvec(op, x)
            assert np.geterr() == settings
            assert settings["over"] == "ignore"
            assert np.getbufsize() == before
        assert got.tobytes() == want.tobytes()


SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]])
PROJECTOR_UP = np.array([[1.0, 0.0], [0.0, 0.0]])
TRIANGULAR = np.array([[0.6 - 0.3j, 1.2 + 0.4j], [0.0, -0.8 + 0.5j]])
GENERAL = np.array([[0.3 + 0.7j, -1.1 + 0.2j], [0.9 - 0.4j, 0.5 + 1.3j]])


class TestFallbackSiteRule:
    """A term on three or more sites is applied one factor at a time: output
    half b sums f[b, c] times input half c over the nonzero entries of row
    b.  Pauli, sigma+ and projector entries are 0, +-1 or +-i, so every
    product is exact and the matvec equals the dense product exactly."""

    @staticmethod
    def three_site_term(n, factors):
        slots = [None] * n
        for slot, f in zip((0, n // 2, n - 1), factors):
            slots[slot] = f
        op = KronSum(n, (KronTerm(1.0, tuple(slots)),))
        assert len(op.plan.fallback) == 1
        return op

    @pytest.mark.parametrize("n", [3, 6, 10])
    @pytest.mark.parametrize("factors", [
        (pauli("x"), pauli("y"), pauli("z")),
        (pauli("z"), pauli("x"), pauli("y")),
        (SIGMA_PLUS, SIGMA_PLUS, SIGMA_PLUS),
        (PROJECTOR_UP, SIGMA_PLUS, pauli("x")),
    ], ids=["xyz", "zxy", "sigma-plus", "projector"])
    def test_exact_factors_match_dense_exactly(self, rng, n, factors):
        op = self.three_site_term(n, factors)
        x = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        assert np.array_equal(matvec(op, x), to_dense(op) @ x)

    @pytest.mark.parametrize("n", [3, 6, 10])
    @pytest.mark.parametrize("factors", [
        (TRIANGULAR, TRIANGULAR, TRIANGULAR),
        (GENERAL, GENERAL, GENERAL),
        (pauli("x"), GENERAL, TRIANGULAR.T),
    ], ids=["triangular", "general", "mixed"])
    def test_other_factors_match_dense(self, rng, n, factors):
        op = self.three_site_term(n, factors)
        x = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        want = to_dense(op) @ x
        assert np.linalg.norm(matvec(op, x) - want) <= 1e-12 * np.linalg.norm(want)


def two_site_kronsum(rng, n: int) -> KronSum:
    """mixed_kronsum without its terms on three sites."""
    op = mixed_kronsum(rng, n)
    return KronSum(n, tuple(t for t in op.terms if len(t.active_slots) <= 2))


def flip_form(op: KronSum) -> tuple[np.ndarray, np.ndarray]:
    """The operator's plan as masked bit flips (Sandvik, arXiv:1101.3281
    sec. 4), read from its diagonal and moves alone: ``(op x)[s] = sum_k
    coefficients[k, s] x[s ^ masks[k]]``, with distinct ``masks`` in order
    of first appearance, ``masks[0] == 0`` carrying the diagonal, and each
    move adding its weight on its destination slab to the row of the state
    bits in which its out and in slab indices differ.  Coefficients are
    float64 for a real plan, else complex128; terms on three or more sites
    are not covered."""
    plan = op.plan
    assert not plan.fallback
    row_of = {0: 0}
    rows = []
    for shape, dst, src, _, _ in plan.moves:
        # slot axes are the odd ones of the slab shape, and an axis's bit is
        # log2 of the amplitudes after it
        mask = sum(math.prod(shape[a + 1:]) for a in range(1, len(shape), 2) if dst[a] != src[a])
        rows.append(row_of.setdefault(mask, len(row_of)))
    coefficients = np.zeros((len(row_of), op.dimension),
                            dtype=np.float64 if plan.real else np.complex128)
    coefficients[0] = plan.diagonal
    for (shape, dst, _, weight, _), row in zip(plan.moves, rows):
        part = coefficients[row].reshape(shape)[dst]
        part += weight
    return np.array(list(row_of), dtype=np.int64), coefficients


def flip_form_norm(a: KronSum, b: KronSum) -> float:
    """Oracle for n <= 12: the Frobenius norm of ab - ba from the flip forms
    of the plans, without the Pauli strings.
    With a = sum_alpha c_alpha[s] x[s ^ alpha] and b = sum_beta d_beta[s]
    x[s ^ beta], the commutator has flip mask alpha ^ beta with coefficient
    c_alpha[s] d_beta[s ^ alpha] - d_beta[s] c_alpha[s ^ beta], summed over
    the pairs sharing that mask; one length-2^n row per distinct mask."""
    (masks_a, c), (masks_b, d) = flip_form(a), flip_form(b)
    states = np.arange(a.dimension)
    products = np.bitwise_xor.outer(masks_a, masks_b)
    distinct, row_of = np.unique(products, return_inverse=True)
    row_of = row_of.reshape(products.shape)
    acc = np.zeros((distinct.size, a.dimension), dtype=np.result_type(c, d))
    shifted = states ^ masks_a[:, None]
    for k, beta in enumerate(masks_b):
        term = c * d[k][shifted]
        term -= d[k] * c[:, states ^ beta]
        # alpha ^ beta is distinct for one beta, so no row is named twice
        acc[row_of[:, k]] += term
    return float(np.linalg.norm(acc))


class TestCommutatorNorm:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dense_commutator(self, rng, n):
        # mixed_kronsum has terms on three sites, each factor expanding into
        # up to four strings
        ops = [
            mixed_kronsum(rng, n),
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

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_the_flip_form_oracle(self, n):
        # nonzero norms to 1e-13 relative; the rows that vanish in exact
        # arithmetic (every [., S_z] and [., S^2] of an isotropic or
        # component operator) to 1e-15 h_scale.  The oracle itself rounds:
        # on [H, S_y] at n = 12 it is 9e-14 off a rational-arithmetic
        # reference that the string route meets exactly
        rng = np.random.default_rng(1200 + n)
        spec = random_spec(rng, n)
        h_scale = max([1.0, abs(spec.mu_b0)] + [2.0 * abs(e.strength) for e in spec.couplings])
        s_z, s_sq = total_component_kronsum("z", n), total_spin_squared_kronsum(n)
        s_x, s_y = total_component_kronsum("x", n), total_component_kronsum("y", n)
        for z_scale in (1.0, 0.0, 0.5, 2.0, -0.3):
            h = spec_to_kronsum(spec, z_scale)
            zeros = [(h, s_z), (s_z, s_sq), (s_x, s_sq), (s_y, s_sq)]
            if z_scale == 1.0:
                zeros.append((h, s_sq))
            for a, b in zeros:
                assert commutator_norm(a, b) <= 1e-15 * h_scale
            for a, b in [(h, s_sq), (h, s_x), (h, s_y), (s_z, s_x), (s_x, s_y)]:
                want = flip_form_norm(a, b)
                if want > 1e-12 * h_scale:
                    assert commutator_norm(a, b) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n, edge", [(40, (1, 2)), (40, (3, 39)), (58, (57, 58))])
    def test_strings_past_a_single_int64_key(self, n, edge):
        # one anisotropic edge without a field: [H, S^2] is a sum over the
        # n - 2 other sites c of orthogonal strings on (i, j, c), so its
        # squared norm grows as (n - 2) 2^n
        def norm_at(sites, op_norm):
            spec = HamiltonianSpec(sites, 0.0, (CouplingEdge(*edge if sites == n else (1, 2), 0.9),))
            return op_norm(spec_to_kronsum(spec, 2.0), total_spin_squared_kronsum(sites))

        unit = norm_at(8, flip_form_norm) / math.sqrt(6 * 2.0 ** 6)
        got = norm_at(n, commutator_norm)
        assert got == pytest.approx(unit * math.sqrt((n - 2) * 2.0 ** (n - 2)), rel=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_flip_form_reproduces_matvec(self, rng, n):
        # the oracle's own check
        states = np.arange(1 << n)
        for op in (two_site_kronsum(rng, n), spec_to_kronsum(random_spec(rng, n))):
            masks, coefficients = flip_form(op)
            assert masks[0] == 0
            assert len(set(masks.tolist())) == masks.size
            assert coefficients.dtype == (np.float64 if op.plan.real else np.complex128)
            x = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
            y = sum(row * x[states ^ mask] for mask, row in zip(masks, coefficients))
            assert np.max(np.abs(y - matvec(op, x))) < 1e-12 * max(1.0, np.max(np.abs(y)))

    def test_exchange_edge_is_one_flip_mask(self):
        # both flip-flop moves of edge (1, 3) flip bits 2 and 0, so the
        # dense matrix is nonzero only on the diagonal and at (s ^ 0b101, s)
        op = spec_to_kronsum(HamiltonianSpec(3, 0.4, (CouplingEdge(1, 3, -0.75),)))
        dense = _scatter_dense(op)
        states = np.arange(8)
        assert dense[states ^ 0b101, states].tolist() == [0, -1.5, 0, -1.5, -1.5, 0, -1.5, 0]
        dense[states, states] = dense[states ^ 0b101, states] = 0
        assert not dense.any()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exchange_strings_match_the_expanded_terms(self, rng, n):
        # the strings an ExchangeSum writes from its edges are those its
        # KronTerms expand into, in the same order
        for op in (spec_to_kronsum(random_spec(rng, n), 0.5), total_spin_squared_kronsum(n),
                   total_component_kronsum("z", n)):
            written = op.pauli_strings
            expanded = KronSum.pauli_strings.func(op)
            for got, want in zip(written, expanded):
                assert got.tolist() == want.tolist()
            assert not any(a.flags.writeable for a in written)
            assert len(written[2]) == len(op.terms)

    def test_site_count_mismatch_is_contract_error(self):
        with pytest.raises(ContractError):
            commutator_norm(total_spin_squared_kronsum(3), total_spin_squared_kronsum(4))

    def test_strings_past_int64_masks_are_sizing_error(self):
        # site 1 of 64 is bit 63, the sign bit of an int64 mask; at 63 sites
        # [S_x, S_z] is -i/2 Y on each site, n orthogonal strings
        s_x, s_z = total_component_kronsum("x", 63), total_component_kronsum("z", 63)
        assert commutator_norm(s_x, s_z) == pytest.approx(2.0 ** 31.5 * math.sqrt(63) / 2)
        op = total_component_kronsum("x", 64)
        with pytest.raises(SizingError, match="int64"):
            commutator_norm(op, op)

    def test_complete_graph_pairs_peak_below_28_mib(self):
        # conserved's three pairs on the 32-site complete graph: 1520 strings
        # of H against 1489 of S^2, one int64 AND of the pairs at a time
        # (18 MB) beside two uint8 popcounts (2.3 MB each); a second int64
        # pair array held beside the first peaks at 34.7 MiB
        n = 32
        h = spec_to_kronsum(complete_graph_spec(n, 1.0, 1.0), 0.5)
        s_z, s_sq = total_component_kronsum("z", n), total_spin_squared_kronsum(n)

        def pairs():
            for a, b in [(h, s_z), (h, s_sq), (s_z, s_sq)]:
                commutator_norm(a, b)

        assert traced_peak(pairs) <= 28 << 20

    def test_norm_past_the_double_range_is_sizing_error(self):
        # each string product is finite on the 13-site chain with J = 6e307
        # on edge (1, 2) at Z_SCALE 2, but the norm of [H, S^2] is not
        edges = tuple(CouplingEdge(i, i + 1, 6e307 if i == 1 else 1.0) for i in range(1, 13))
        h = spec_to_kronsum(HamiltonianSpec(13, 1.0, edges), 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SizingError, match="past the double range"):
                commutator_norm(h, total_spin_squared_kronsum(13))

    def test_norm_past_the_squared_range_is_rescaled(self):
        # coefficients near 1e200 square past the double range; the norm of
        # the commutator, 1e200 times that of the unit chain, does not
        s_sq = total_spin_squared_kronsum(4)
        unit = commutator_norm(spec_to_kronsum(chain_spec(4, 0.0), 2.0), s_sq)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = commutator_norm(spec_to_kronsum(chain_spec(4, 0.0, 1e200), 2.0), s_sq)
        assert got == pytest.approx(1e200 * unit, rel=1e-12)


class TestUnaddressableRegister:
    """Past MAX_STATE_SITES a complex128 state has more bytes than numpy can
    address; the plan writer refuses such a register before it allocates."""

    @pytest.mark.parametrize("n", [59, 62])
    @pytest.mark.parametrize("make", [lambda n: ExchangeSum(n, 1.0, [(1, 2, 1.0, 1.0)]),
                                      lambda n: total_component_kronsum("x", n)],
                             ids=["exchange", "compiled"])
    @pytest.mark.parametrize("call", [lambda op: op.plan, lambda op: matvec(op, np.zeros(4)),
                                      lanczos_extremal], ids=["plan", "matvec", "lanczos"])
    def test_refused_as_sizing_error(self, n, make, call):
        op = make(n)

        def refused():
            with pytest.raises(SizingError, match=f"a {n}-site state"):
                call(op)

        assert traced_peak(refused) < 1 << 20

    def test_ladder_is_refused(self):
        with pytest.raises(SizingError, match="a 59-site state"):
            total_spin_squared_ladder(59)

    def test_commutator_norm_still_answers_at_63_sites(self):
        # it builds no plan: [S_z, S_x] is i S_y, n orthogonal strings
        s_x, s_z = total_component_kronsum("x", 63), total_component_kronsum("z", 63)
        assert commutator_norm(s_z, s_x) == pytest.approx(2.0 ** 31.5 * math.sqrt(63) / 2)
        assert "plan" not in vars(s_z)

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("make", [lambda n: ExchangeSum(n, 1.0, [(1, 2, 1.0, 1.0)]),
                                      lambda n: total_component_kronsum("y", n)],
                             ids=["exchange", "general"])
    @pytest.mark.parametrize("call", [lambda op: op.pauli_strings, lanczos_extremal,
                                      lambda op: commutator_norm(op, op)],
                             ids=["strings", "lanczos", "commutator"])
    def test_strings_past_int64_masks_are_refused(self, n, make, call):
        # site 1 of 64 is bit 63, the int64 sign bit, and site 1 of 65 is
        # past the mask: both wrapped silently, and the wrapped sigma_y
        # strings of 65 sites read as not Hermitian
        with pytest.raises(SizingError, match=f"Pauli strings on {n} sites"):
            call(make(n))


def random_term_pair(rng, k: int) -> KronSum:
    """A term of random complex factors on all k sites plus its adjoint:
    2 * 4^k Pauli strings."""
    factors = tuple(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    for _ in range(k))
    term = KronTerm(complex(*rng.standard_normal(2)), factors)
    return KronSum(k, (term, adjoint(term)))


class TestPauliStringCap:
    """A general term on k sites expands into up to 4^k strings; an operator
    of more than MAX_PAULI_STRINGS is refused, counted from its factors'
    weights before any string is written."""

    def test_ten_site_pair_is_expanded(self):
        op = random_term_pair(np.random.default_rng(3110), 10)
        assert op.pauli_strings[0].size == 2 * 4 ** 10 <= matfree_engine.MAX_PAULI_STRINGS

    @pytest.mark.parametrize("call", [lambda op: op.pauli_strings, lanczos_extremal,
                                      lambda op: commutator_norm(op, op), _scatter_dense],
                             ids=["strings", "lanczos", "commutator", "dense"])
    def test_eleven_site_pair_is_refused(self, call):
        op = random_term_pair(np.random.default_rng(3111), 11)

        def refused():
            with pytest.raises(SizingError, match=f"expands into {2 * 4 ** 11} Pauli strings"):
                call(op)

        assert traced_peak(refused) < 1 << 20
        assert "plan" not in vars(op)


class TestScatterDense:
    """The dense scatter reads an operator's Pauli strings alone, so strings
    that share an x mask sum into one row and terms on any number of sites
    are scattered."""

    def test_shared_flip_mask_sums(self):
        # sigma_x x I and sigma_x x sigma_z both flip bit 1: their sum is 2
        # where sigma_z is +1 and 0 where it is -1
        op = KronSum(2, (KronTerm(1.0, (pauli("x"), None)),
                         KronTerm(1.0, (pauli("x"), pauli("z")))))
        assert np.array_equal(_scatter_dense(op), to_dense(op))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_to_dense(self, rng, n):
        # one- and two-site terms on every site set, each mask of a single
        # site shared by the site's own strings and those of its pairs
        for op in (two_site_kronsum(rng, n), total_component_kronsum("y", n)):
            want = to_dense(op)
            got = _scatter_dense(op)
            assert got.dtype == np.complex128
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", range(3, 7))
    def test_terms_on_three_or_more_sites_match_to_dense(self, rng, n):
        xxx = KronSum(n, (KronTerm(1.0, (pauli("x"),) * 3 + (None,) * (n - 3)),))
        for op in (xxx, mixed_kronsum(rng, n)):
            want = to_dense(op)
            got = _scatter_dense(op)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            assert "plan" not in op.__dict__

    def test_dense_builders_compile_no_plan(self, monkeypatch):
        rng = np.random.default_rng(3100)
        specs = [(random_spec(rng, n), z_scale) for n in (1, 4, 7) for z_scale in (1.0, -0.3)]
        builds = [lambda s=s, z=z: build_general(s, z) for s, z in specs]
        for n in (1, 3, 6):
            builds += [lambda a=a, n=n: total_component(a, n) for a in "xyz"]
            builds.append(lambda n=n: total_spin_squared(n))
        want = [build().tobytes() for build in builds]

        def refuse(*args):
            raise AssertionError("a matvec plan was written")

        monkeypatch.setattr(matfree_engine, "_write_plan", refuse)
        with pytest.raises(AssertionError, match="plan was written"):
            spec_to_kronsum(chain_spec(3)).plan
        assert [build().tobytes() for build in builds] == want

    @pytest.mark.parametrize("j, z_scale", [(1e308, 1.0), (6e307, 2.0)])
    def test_entry_past_the_double_range_is_refused(self, j, z_scale):
        # finite strings whose sums overflow: the flip-flop entry 2J at
        # J = 1e308, the zz diagonal 2 J z_scale at J = 6e307
        spec = HamiltonianSpec(3, 1.0, (CouplingEdge(1, 2, j), CouplingEdge(2, 3, j)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SizingError, match="past the double range"):
                _scatter_dense(spec_to_kronsum(spec, z_scale))


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

    def test_dense_spin_squared_needs_a_site(self):
        with pytest.raises(SiteRangeError, match="site count must be >= 1"):
            total_spin_squared(0)

    BUILDERS = {
        "total_component_kronsum x": lambda n: total_component_kronsum("x", n),
        "total_component_kronsum z": lambda n: total_component_kronsum("z", n),
        "total_spin_squared_kronsum": total_spin_squared_kronsum,
        "total_component x": lambda n: total_component("x", n),
        "total_spin_squared": total_spin_squared,
        "total_spin_squared_ladder": total_spin_squared_ladder,
    }

    @pytest.mark.parametrize("n", [2.5, "3", True])
    @pytest.mark.parametrize("builder", BUILDERS)
    def test_non_integer_site_count_is_a_contract_error(self, builder, n):
        # 2.5 and "3" reached range() and raised a raw TypeError
        with pytest.raises(ContractError, match="n_sites must be a positive integer"):
            self.BUILDERS[builder](n)


class TestSpinSquaredLadder:
    """S^2 x as S_- (S_+ x) + S_z (S_z + 1) x, against the complete-graph
    plan and the dense S^2."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_complete_graph_plan(self, n):
        rng = np.random.default_rng(1800 + n)
        spin_squared = total_spin_squared_ladder(n)
        op = total_spin_squared_kronsum(n)
        for complex_state in (False, True):
            x = oracle_state(rng, n, complex_state)
            got, want = spin_squared(x), matvec(op, x)
            assert got.dtype == want.dtype
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= 1e-14 * scale

    @pytest.mark.parametrize("n", range(1, 9))
    def test_columns_equal_dense_bitwise(self, n):
        spin_squared = total_spin_squared_ladder(n)
        columns = np.stack([spin_squared(e) for e in np.eye(1 << n)], axis=1)
        dense = total_spin_squared(n)
        assert columns.dtype == np.float64
        assert not dense.imag.any()
        assert columns.tobytes() == dense.real.tobytes()

    def test_real_state_stays_real(self):
        x = np.random.default_rng(1900).standard_normal(1 << 6)
        assert total_spin_squared_ladder(6)(x).dtype == np.float64
        assert total_spin_squared_ladder(6)(x.astype(np.complex128)).dtype == np.complex128

    def test_wrong_length_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="does not match dimension 16"):
            total_spin_squared_ladder(4)(np.ones(8))


def assert_plans_bitwise_equal(got, want):
    assert got.diagonal.dtype == want.diagonal.dtype
    assert got.diagonal.tobytes() == want.diagonal.tobytes()
    assert not got.diagonal.flags.writeable
    assert got.real == want.real
    assert got.fallback == want.fallback == ()
    assert type(got.shared_weight) is type(want.shared_weight)
    assert repr(got.shared_weight) == repr(want.shared_weight)
    assert len(got.moves) == len(want.moves)
    for move, wanted in zip(got.moves, want.moves):
        shape, dst, src, weight, axes = move
        assert (shape, dst, src, axes) == wanted[:3] + wanted[4:]
        # same type and the same double, sign included
        assert type(weight) is type(wanted[3]) and repr(weight) == repr(wanted[3])


class TestExchangePlan:
    """``ExchangeSum.plan`` equals ``_compile`` of the same operator's terms
    bitwise.  Both hand their site sets to ``_write_plan``, so this checks
    that the edge list and the summed local matrices give it the same slabs
    and entries in the same order."""

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

    @pytest.mark.parametrize("z_scale", [1.0, 0.0, 2.0])
    def test_diagonal_equals_broadcast_adds_bitwise(self, z_scale):
        # the reference adds each site set's signs over the whole state in
        # one broadcast, in plan order, zeros included; the writer's skipped
        # zero slabs (every edge at z_scale 0) leave the same bits
        rng = np.random.default_rng(7171)
        for n in range(1, 17):
            op = spec_to_kronsum(random_spec(rng, n), z_scale)
            want = np.zeros(1 << n)
            for k in range(n):
                want.reshape(1 << k, 2, -1)[...] += op.zeeman * np.array([1.0, -1.0])[:, None]
            for i, j, _, j_z in op.edges:
                signs = j_z * np.array([1.0, -1.0, -1.0, 1.0]).reshape(2, 1, 2, 1)
                want.reshape(1 << (i - 1), 2, 1 << (j - i - 1), 2, -1)[...] += signs
            assert op.plan.diagonal.tobytes() == want.tobytes()

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

    def test_equality_hash_and_repr_build_no_terms(self, monkeypatch):
        # operators and their plans compare and hash by identity; the repr of
        # an ExchangeSum is its edge list, and its commutator norms read the
        # strings it writes from that list
        y = total_component_kronsum("y", 2)
        y_terms = y.terms

        def refuse(self):
            raise AssertionError("a KronTerm was built")

        monkeypatch.setattr(KronTerm, "__post_init__", refuse)
        s_sq, again = total_spin_squared_kronsum(4), total_spin_squared_kronsum(4)
        h = spec_to_kronsum(chain_spec(3, mu_b0=0.5))
        for first, second in [(s_sq, again), (s_sq.plan, again.plan), (y, KronSum(2, y_terms)),
                              (y_terms[0], y.terms[1])]:
            assert first == first and first != second
            assert hash(first) == hash(first)
            assert len({first, second}) == 2
        assert repr(h) == ("ExchangeSum(n_sites=3, zeeman=-0.5, "
                           "edges=((1, 2, 1.0, 1.0), (2, 3, 1.0, 1.0)), constant=0.0)")
        assert repr(s_sq).startswith("ExchangeSum(n_sites=4, zeeman=None, "
                                     "edges=((1, 2, 0.5, 0.5), ")
        assert repr(s_sq).endswith(", (3, 4, 0.5, 0.5)), constant=3.0)")
        assert commutator_norm(s_sq, again) == 0.0
        assert "terms" not in vars(h) and "terms" not in vars(s_sq) and "terms" not in vars(again)

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

    def test_max_iter_below_k(self):
        with pytest.raises(ContractError, match="max_iter 2 cannot deliver k = 3"):
            lanczos_extremal(spec_to_kronsum(chain_spec(3)), k=3, max_iter=2)

    @staticmethod
    def refuse_hermitian_check(monkeypatch):
        def refuse(*args):
            raise AssertionError("the Hermitian check ran")

        monkeypatch.setattr(matfree_engine, "_check_hermitian", refuse)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
    def test_tol_must_be_finite_positive(self, monkeypatch, tol):
        # tols that judge nothing: inf accepts an early Ritz value (-15.97 on
        # this chain, whose ground energy is -21.44), and no residual meets
        # nan, 0 or -1, so the run would spend all 300 steps
        self.refuse_hermitian_check(monkeypatch)
        op = spec_to_kronsum(chain_spec(12))
        with pytest.raises(ContractError, match="tol must be a finite positive number"):
            lanczos_extremal(op, tol=tol)

    @pytest.mark.parametrize("k", [2.0, True])
    def test_k_must_be_an_int(self, monkeypatch, k):
        self.refuse_hermitian_check(monkeypatch)
        op = spec_to_kronsum(chain_spec(12))
        with pytest.raises(ContractError, match="k must be an integer"):
            lanczos_extremal(op, k=k)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_non_negative_integer(self, monkeypatch, seed):
        # numpy takes True as seed 1 and refuses -1 and 1.5 with its own
        # ValueError and TypeError
        self.refuse_hermitian_check(monkeypatch)
        op = spec_to_kronsum(chain_spec(6))
        with pytest.raises(ContractError, match="seed must be a non-negative integer"):
            lanczos_extremal(op, seed=seed)

    def test_numpy_integer_seed_is_the_same_stream(self):
        op = spec_to_kronsum(chain_spec(6))
        want = lanczos_extremal(op, seed=3).eigenvalues
        assert np.array_equal(lanczos_extremal(op, seed=np.int64(3)).eigenvalues, want)

    def test_numpy_integer_k_and_max_iter_match_python_ints(self):
        op = spec_to_kronsum(chain_spec(6))
        want = lanczos_extremal(op, k=2, max_iter=60)
        got = lanczos_extremal(op, k=np.int64(2), max_iter=np.int32(60))
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.eigenvectors, want.eigenvectors)

    @pytest.mark.parametrize("max_iter", [8.5, 8.0, True])
    def test_max_iter_must_be_an_int(self, monkeypatch, max_iter):
        # every budget test is spent == max_iter: 8.5 is never met, and a
        # tol no residual reaches would run without end
        self.refuse_hermitian_check(monkeypatch)
        op = spec_to_kronsum(chain_spec(6))
        with pytest.raises(ContractError, match="max_iter must be an integer"):
            lanczos_extremal(op, tol=1e-30, max_iter=max_iter)

    def test_bad_which(self):
        with pytest.raises(ValueError):
            lanczos_extremal(spec_to_kronsum(chain_spec(2)), which="middle")

    def test_non_hermitian_rejected(self):
        raising = np.array([[0.0, 1.0], [0.0, 0.0]])
        op = KronSum(3, (KronTerm(1.0, (raising, None, None)),))
        with pytest.raises(ContractError, match="Hermitian"):
            lanczos_extremal(op)

    def test_complex_symmetric_non_hermitian_rejected(self):
        # i sigma_x equals its transpose but not its adjoint
        op = KronSum(2, (KronTerm(1j, (pauli("x"), None)),))
        assert not op.plan.real
        with pytest.raises(ContractError, match="Hermitian"):
            lanczos_extremal(op)

    def test_non_hermitian_three_site_term_rejected(self):
        # a Hermitian operator plus sigma_x sigma_y sigma_z times i, whose
        # adjoint is minus itself: a fallback term, read from its strings
        op = hermitian_kronsum(np.random.default_rng(3), 4)
        bad = KronTerm(1j, (pauli("x"), pauli("y"), pauli("z"), None))
        with pytest.raises(ContractError, match="Hermitian"):
            lanczos_extremal(KronSum(4, op.terms + (bad,)))

    @pytest.mark.parametrize("size, refused", [(1e-6, True), (1e-10, False)])
    def test_hermitian_check_is_exact_to_its_tolerance(self, size, refused):
        # an anti-Hermitian part of relative Frobenius norm `size`, measured
        # on the dense matrix, against the check's 1e-8
        rng = np.random.default_rng(4)
        op = hermitian_kronsum(rng, 4)
        # scale (B - B^H) / 2 to that share of op's norm
        skew = mixed_kronsum(rng, 4).terms
        b = to_dense(KronSum(4, skew))
        scale = 0.5 * size * np.linalg.norm(to_dense(op)) / (np.linalg.norm(b - b.conj().T) / 2)
        skewed = KronSum(4, op.terms
                         + tuple(KronTerm(scale * t.coefficient, t.factors) for t in skew)
                         + tuple(KronTerm(-scale * t.coefficient, t.factors)
                                 for t in map(adjoint, skew)))
        dense = to_dense(skewed)
        anti = np.linalg.norm(dense - dense.conj().T) / 2
        assert anti == pytest.approx(size * np.linalg.norm(dense), rel=1e-3)
        if refused:
            with pytest.raises(ContractError, match="Hermitian"):
                matfree_engine._check_hermitian(skewed)
        else:
            matfree_engine._check_hermitian(skewed)

    @pytest.mark.parametrize("make", [lambda n: spec_to_kronsum(ring_spec(n, 0.7)),
                                      total_spin_squared_kronsum], ids=["ring", "spin-squared"])
    def test_hermitian_check_holds_no_state(self, make):
        # the strings of a 14-site operator, 56 for the ring and 274 for S^2,
        # not a vector of 2^14 amplitudes; no plan is compiled for the check
        n = 14
        op = make(n)
        peak = traced_peak(lambda: matfree_engine._check_hermitian(op))
        assert peak < (1 << n) * 8
        assert "plan" not in vars(op)

    @pytest.mark.parametrize("real", [True, False])
    def test_seed_fixes_the_start_vector_first(self, monkeypatch, real):
        # the first draw is the start vector, in the solve's dtype: one
        # float64 vector on a real plan, a real and an imaginary part on a
        # complex one; the first matvec is on it, normalized
        if real:
            op = spec_to_kronsum(chain_spec(6))
        else:
            op = hermitian_kronsum(np.random.default_rng(5), 6)
        assert op.plan.real == real
        dim = op.dimension
        make = np.random.default_rng
        sizes, calls = [], []

        class Recorder:
            def __init__(self, seed):
                self.rng = make(seed)

            def standard_normal(self, size):
                sizes.append(size)
                return self.rng.standard_normal(size)

        def counted(o, x):
            calls.append(x.copy())
            return matvec(o, x)

        monkeypatch.setattr(np.random, "default_rng", Recorder)
        monkeypatch.setattr(matfree_engine, "matvec", counted)
        lanczos_extremal(op, k=1, seed=3)
        parts = 1 if real else 2
        assert sizes == [dim] * parts
        replay = make(3)
        q = replay.standard_normal(dim)
        if not real:
            q = q + 1j * replay.standard_normal(dim)
        assert calls[0].dtype == (np.float64 if real else np.complex128)
        assert np.array_equal(calls[0], q / np.linalg.norm(q))

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
        # the Hermitian check returns the l1 norm of the merged strings,
        # signed permutations: at least the spectral radius, and exact for a
        # field of one sign on every site
        norm_bound = matfree_engine._check_hermitian
        assert norm_bound(spec_to_kronsum(HamiltonianSpec(3, 2.0, ()))) == 6.0
        for op in (hermitian_kronsum(rng, 3), spec_to_kronsum(random_spec(rng, 5))):
            values = np.linalg.eigvalsh(to_dense(op))
            assert np.max(np.abs(values)) <= norm_bound(op) * (1 + 1e-12)

    @pytest.mark.parametrize("make, error", [
        (lambda: KronSum(3, (KronTerm(1.0, (np.array([[0.0, 1.0], [0.0, 0.0]]), None, None)),)),
         ContractError),
        (lambda: spec_to_kronsum(chain_spec(4, j=1e160)), SizingError),
    ], ids=["non-hermitian", "norm-bound"])
    def test_refused_operators_compile_no_plan(self, make, error):
        # both up-front checks read the strings; the first matvec compiles
        op = make()
        with pytest.raises(error):
            lanczos_extremal(op)
        assert "plan" not in op.__dict__


def xx_chain_spec(rng, n: int) -> HamiltonianSpec:
    """Open chain with random couplings J_i and field; its XX Hamiltonian is
    ``spec_to_kronsum(spec, 0.0)``."""
    edges = tuple(CouplingEdge(k, k + 1, rng.uniform(0.5, 1.5)) for k in range(1, n))
    return HamiltonianSpec(n, rng.uniform(-1, 1), edges)


def xx_chain_levels(spec: HamiltonianSpec) -> np.ndarray:
    """All 2^n levels of the open XX chain, sorted, by Jordan-Wigner (Lieb,
    Schultz & Mattis 1961): sigma_z = 2 c^dag c - 1 and each bond
    J (sigma_x sigma_x + sigma_y sigma_y) = 2 J (c^dag_i c_j + h.c.), so a
    level is mu_b0 n + sum over occupied modes of (eps_k - 2 mu_b0), with
    eps_k the eigenvalues of the n x n tridiagonal matrix of off-diagonals
    2 J_i."""
    n, mu = spec.n_sites, spec.mu_b0
    hop = np.zeros((n, n))
    for e in spec.couplings:
        hop[e.i - 1, e.j - 1] = hop[e.j - 1, e.i - 1] = 2 * e.strength
    modes = np.linalg.eigvalsh(hop) - 2 * mu
    occupied = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    return np.sort(mu * n + occupied @ modes)


def complete_graph_spec(n: int, mu_b0: float, j: float) -> HamiltonianSpec:
    pairs = itertools.combinations(range(1, n + 1), 2)
    return HamiltonianSpec(n, mu_b0, tuple(CouplingEdge(a, b, j) for a, b in pairs))


def complete_graph_levels(n: int, mu_b0: float, j: float) -> np.ndarray:
    """All 2^n levels of the uniform complete graph, sorted: with
    sum_{i<j} sigma_i . sigma_j = 2 S^2 - 3n/2 and sum sigma_z = 2 M a level is
    E(s, M) = -2 mu_b0 M + J (2 s (s + 1) - 3n/2), and each (s, M) with
    |M| <= s occurs C(n, n/2 - s) - C(n, n/2 - s - 1) times."""
    levels = []
    for down in range(n // 2 + 1):  # down = n/2 - s
        s = n / 2 - down
        copies = math.comb(n, down) - (math.comb(n, down - 1) if down else 0)
        for m in np.arange(-s, s + 1):
            levels += [-2 * mu_b0 * m + j * (2 * s * (s + 1) - 1.5 * n)] * copies
    assert len(levels) == 1 << n
    return np.sort(levels)


class TestClosedFormOracles:
    """Exact spectra of two spec families at any n, which check the dense
    path and, past the dense cap, Lanczos."""

    @staticmethod
    def assert_levels(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [8, 10])
    def test_xx_chain_dense_spectrum(self, n):
        spec = xx_chain_spec(np.random.default_rng(n), n)
        got = eigh(build_general(spec, 0.0), want_vectors=False).eigenvalues
        self.assert_levels(got, xx_chain_levels(spec))

    @pytest.mark.parametrize("n", [8, 10])
    def test_complete_graph_dense_spectrum(self, n):
        spec = complete_graph_spec(n, 0.3, 0.9)
        got = eigh(build_general(spec), want_vectors=False).eigenvalues
        self.assert_levels(got, complete_graph_levels(n, 0.3, 0.9))

    def test_xx_chain_lanczos_past_the_dense_cap(self):
        spec = xx_chain_spec(np.random.default_rng(16), 16)
        s = lanczos_extremal(spec_to_kronsum(spec, 0.0), k=4, seed=1)
        self.assert_levels(s.eigenvalues, xx_chain_levels(spec)[:4])

    @pytest.mark.parametrize("which", ["lowest", "highest"])
    def test_single_value_lanczos_past_the_dense_cap(self, which):
        # k = 1 skips most full Gram-Schmidt passes: both ends of the XX
        # chain and of the complete graph
        end = 0 if which == "lowest" else -1
        spec = xx_chain_spec(np.random.default_rng(16), 16)
        s = lanczos_extremal(spec_to_kronsum(spec, 0.0), which=which, seed=1)
        self.assert_levels(s.eigenvalues, xx_chain_levels(spec)[[end]])
        s = lanczos_extremal(spec_to_kronsum(complete_graph_spec(14, 0.3, 0.9)), which=which, seed=1)
        self.assert_levels(s.eigenvalues, complete_graph_levels(14, 0.3, 0.9)[[end]])

    def test_complete_graph_lanczos_keeps_a_degenerate_ground_level(self):
        # the s = 0 ground level is C(14, 7) - C(14, 6) = 429-fold degenerate,
        # so all three lowest values are -21 J
        levels = complete_graph_levels(14, 0.3, 0.9)
        assert np.ptp(levels[:429]) == 0 and levels[429] > levels[0]
        s = lanczos_extremal(spec_to_kronsum(complete_graph_spec(14, 0.3, 0.9)), k=3, seed=1)
        self.assert_levels(s.eigenvalues, levels[:3])


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
        # the true residual is bounded by tol times the largest Ritz
        # magnitude, about 16 here, so tol = 1e-9 keeps it below 1e-7 on
        # every seed rather than on a lucky one
        spec = chain_spec(9)
        op = spec_to_kronsum(spec)
        values = eigh(build_general(spec), want_vectors=False).eigenvalues
        want = values[0] if which == "lowest" else values[-1]
        for seed in range(5):
            matvec_calls.clear()
            s = lanczos_extremal(op, which=which, k=1, tol=1e-9, seed=seed)
            assert len(matvec_calls) > 3 * SMALL_CAP
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


class TestLanczosLocalStep:
    """Each step projects op q off the last two basis rows before the full
    Gram-Schmidt pass; the eigenvectors stay orthonormal, every true
    residual meets the convergence bound and degenerate levels keep their
    multiplicity."""

    TOL = 1e-8

    def check_pairs(self, op, s, radius):
        # the solver's bound is tol times its norm estimate, the largest Ritz
        # magnitude seen, which is at most the spectral radius
        v = s.eigenvectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) <= 1e-12
        for value, vec in zip(s.eigenvalues, v.T):
            assert np.linalg.norm(matvec(op, vec) - value * vec) <= self.TOL * radius

    @pytest.mark.parametrize("k, spins", [(1, [0]), (4, [0, 2, 2, 2]),
                                          (8, [0, 2, 2, 2, 0, 2, 2, 2])])
    def test_ring_singlets_and_triplets(self, k, spins):
        # zero-field 12-site ring: singlet, triplet, singlet, triplet at the
        # bottom; its top level is the ferromagnet, J n = 12, so the radius
        # is |E0|
        n = 12
        op = spec_to_kronsum(ring_spec(n))
        s = lanczos_extremal(op, which="lowest", k=k, tol=self.TOL, seed=0)
        radius = max(abs(s.eigenvalues[0]), 12.0)
        self.check_pairs(op, s, radius)
        s_sq = total_spin_squared_kronsum(n)
        got = [np.vdot(v, matvec(s_sq, v)).real for v in s.eigenvectors.T]
        assert np.allclose(got, spins, atol=1e-6)
        # each triplet is three copies of one level
        for start in range(1, k, 4):
            assert np.ptp(s.eigenvalues[start:start + 3]) <= self.TOL * radius
        if k == 8:
            assert s.eigenvalues[4] - s.eigenvalues[3] > 0.5

    def test_complex_plan_with_total_sy(self):
        # the 8-site ring plus 0.3 S_y: S_y commutes with the isotropic ring,
        # so the triplet splits into three levels 0.3 apart
        n = 8
        h = spec_to_kronsum(ring_spec(n))
        s_y = total_component_kronsum("y", n)
        op = KronSum(n, h.terms + tuple(KronTerm(0.3 * t.coefficient, t.factors)
                                        for t in s_y.terms))
        assert not op.plan.real
        want = np.linalg.eigvalsh(to_dense(op))
        s = lanczos_extremal(op, which="lowest", k=4, tol=self.TOL, seed=2)
        radius = np.max(np.abs(want))
        assert np.max(np.abs(s.eigenvalues - want[:4])) <= 1e-10 * radius
        self.check_pairs(op, s, radius)


@pytest.fixture
def gram_schmidt_passes(monkeypatch):
    """The row count of each full Gram-Schmidt pass a solve makes."""
    passes = []
    orthogonalize = matfree_engine._orthogonalize

    def counted(rows, vec, coeffs=None):
        passes.append(rows.shape[0])
        return orthogonalize(rows, vec, coeffs)

    monkeypatch.setattr(matfree_engine, "_orthogonalize", counted)
    return passes


class TestLanczosSelectivePass:
    """k = 1 makes the full Gram-Schmidt pass on the first step from a fresh
    vector or a restart, and on every step to the next restart once a
    Ritz-check step measures an overlap past min(1e-12, 1e-4 tol); k > 1
    makes it on every step."""

    @staticmethod
    def full_pass_solve(monkeypatch, op, **kwargs):
        with monkeypatch.context() as full:
            full.setattr(matfree_engine, "_loss_bound", lambda k, tol: None)
            return lanczos_extremal(op, **kwargs)

    @pytest.mark.parametrize("n", range(8, 15))
    def test_matches_the_full_pass_path(self, monkeypatch, gram_schmidt_passes, n):
        spec = random_spec(np.random.default_rng(100 + n), n)
        full_passes = passes = 0
        for z_scale in (1.0, 0.0, 2.0):
            op = spec_to_kronsum(spec, z_scale)
            for which in ("lowest", "highest"):
                gram_schmidt_passes.clear()
                want = self.full_pass_solve(monkeypatch, op, which=which, seed=n).eigenvalues
                full_passes += len(gram_schmidt_passes)
                gram_schmidt_passes.clear()
                got = lanczos_extremal(op, which=which, seed=n).eigenvalues
                passes += len(gram_schmidt_passes)
                assert abs(got[0] - want[0]) <= 1e-12 * max(1.0, abs(want[0]))
        assert passes < full_passes / 2

    def test_k_above_one_makes_every_pass(self, monkeypatch, gram_schmidt_passes):
        op = spec_to_kronsum(ring_spec(10))
        s = lanczos_extremal(op, k=4, seed=2)
        counted = list(gram_schmidt_passes)
        gram_schmidt_passes.clear()
        want = self.full_pass_solve(monkeypatch, op, k=4, seed=2)
        assert gram_schmidt_passes == counted
        assert np.array_equal(s.eigenvalues, want.eigenvalues)
        assert np.array_equal(s.eigenvectors, want.eigenvectors)

    @pytest.mark.parametrize("tol", [1e-12, 1e-13])
    @pytest.mark.parametrize("which", ["lowest", "highest"])
    @pytest.mark.parametrize("spec, z_scale", [(chain_spec(12), 1.0), (ring_spec(14, 0.7), 1.0),
                                               (ring_spec(14), 1.0), (ring_spec(12, 1.0), 0.0)],
                             ids=["chain-12", "ring-14-field", "ring-14", "xx-ring-12"])
    def test_tight_tolerances_converge(self, spec, z_scale, which, tol):
        # at a bound of 1e-12 whatever the tol, most of these solves spent
        # their 300 steps: rounding in the skipped passes sits above
        # 1e-13 of the norm.  The l1 bound is at least ||H||_2, which is at
        # least the solve's norm estimate
        op = spec_to_kronsum(spec, z_scale)
        norm_bound = matfree_engine._check_hermitian(op)
        for seed in range(4):
            s = lanczos_extremal(op, which=which, tol=tol, seed=seed)
            v = s.eigenvectors[:, 0]
            assert np.linalg.norm(matvec(op, v) - s.eigenvalues[0] * v) <= tol * norm_bound


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
