"""Acceptance gate: ten end-to-end checks at pinned tolerances.

Each test prints one ``acceptance NN <label>: pass|FAIL`` line; run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they land.
All random inputs are seeded so every run checks the same instances.
"""

import functools
import math
import time
import tracemalloc

import numpy as np

from kronspin.dense_linalg import eigh, inverse, spectrum_multiset_equal
from kronspin.hamiltonian_builder import (
    CouplingEdge,
    HamiltonianSpec,
    WeightTriple,
    build_general,
    build_h2,
    component_square_residual,
    verify_h2_decomposition,
)
from kronspin.kron_core import (
    check_property,
    commutation_matrix,
    kron,
    noncommutativity_witness,
    shuffle_conjugate,
)
from kronspin.matfree_engine import (
    lanczos_extremal,
    matvec,
    spec_to_kronsum,
    total_component,
    total_spin_squared,
)
from kronspin.spin_algebra import conserved_residual

from conftest import diagonally_dominant

PAIR_SEED = 20240817


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {number:02d} {label}: FAIL")
                raise
            print(f"acceptance {number:02d} {label}: pass")
        return wrapper
    return deco


def seeded_square_pairs(count, seed=PAIR_SEED, min_dim=1):
    """Seeded random square pairs, both operands one shared dim in 1..6,
    entries drawn from the complex unit square."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        d = int(rng.integers(min_dim, 7))
        a = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        b = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        pairs.append((a, b))
    return pairs


@criterion(1, "kron laws P1-P5, P7 residual <= 1e-10 over 200 pairs in < 5 s")
def test_criterion_01_kron_law_suite():
    tol = 1e-10
    pairs = seeded_square_pairs(200)
    start = time.perf_counter()
    worst = 0.0
    for a, b in pairs:
        plans = [
            (1, [a, b], None),
            (2, [a, b], None),
            (3, [a, b, b], None),
            (4, [a, b, a], None),
            (5, [a, b], (2.0, -0.5)),
            (7, [a, b, a, b], None),
        ]
        for index, operands, scalars in plans:
            rep = check_property(index, operands, scalars=scalars, tol=tol)
            assert rep.passed, f"{rep.property_name}: residual {rep.residual:.3e}"
            worst = max(worst, rep.residual)
    elapsed = time.perf_counter() - start
    assert worst <= tol
    assert elapsed < 5.0, f"law suite took {elapsed:.2f} s"


@criterion(2, "non-commutation witness for 100 distinct non-scalar pairs; none for identity")
def test_criterion_02_noncommutativity():
    tol = 1e-10
    pairs = seeded_square_pairs(100, seed=PAIR_SEED + 1, min_dim=2)
    for a, b in pairs:
        # the claim's preconditions: operands distinct and not scalar identities
        assert not np.array_equal(a, b)
        for m in (a, b):
            off = m - np.diag(np.diag(m))
            assert np.max(np.abs(off)) > tol
        witness = noncommutativity_witness(a, b, tol)
        assert witness is not None
        i, j = witness
        assert abs(kron(a, b)[i, j] - kron(b, a)[i, j]) > tol
    for d in range(1, 7):
        eye = np.eye(d, dtype=np.complex128)
        assert noncommutativity_witness(eye, eye, tol) is None
        rep = check_property(8, [eye, eye], tol=tol)
        assert rep.passed
        assert "identity case" in rep.note


@criterion(3, "factor-swap conjugation residual exactly 0; hermitian spectra agree at 1e-8")
def test_criterion_03_shuffle_similarity():
    pairs = seeded_square_pairs(200)
    for a, b in pairs:
        d = a.shape[0]
        ab = kron(a, b)
        ba = kron(b, a)
        p = commutation_matrix(d, d)
        residual = float(np.max(np.abs(ba - p @ ab @ p.T)))
        assert residual == 0.0
        assert np.array_equal(shuffle_conjugate(ab, a.shape, b.shape), ba)
        ha = 0.5 * (a + a.conj().T)
        hb = 0.5 * (b + b.conj().T)
        s1 = eigh(kron(ha, hb), want_vectors=False)
        s2 = eigh(kron(hb, ha), want_vectors=False)
        assert spectrum_multiset_equal(s1, s2, tol=1e-8)


@criterion(4, "corrected inverse law at 1e-8; as-printed form fails yet matches after swap")
def test_criterion_04_inverse_discrimination():
    tol = 1e-8
    rng = np.random.default_rng(PAIR_SEED + 2)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        a = diagonally_dominant(rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d)))
        b = diagonally_dominant(rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d)))
        rep = check_property(6, [a, b], tol=tol)
        assert rep.passed and rep.residual <= tol

    a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
    b = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.complex128)
    whole = inverse(kron(a, b))
    corrected = kron(inverse(a), inverse(b))
    printed = kron(inverse(b), inverse(a))
    assert float(np.max(np.abs(whole - corrected))) <= tol
    assert float(np.max(np.abs(whole - printed))) > tol
    # the two factorwise inverses are the same matrix up to the factor swap
    assert np.array_equal(shuffle_conjugate(corrected, (2, 2), (2, 2)), printed)
    rep = check_property(6, [a, b], tol=tol)
    assert rep.passed
    literal = rep.extras[0]
    assert literal.diagnostic
    assert not literal.passed and literal.residual > tol


@criterion(5, "two-site spectrum equals {-3J, J-2muB0, J, J+2muB0} at 1e-8, 20 draws")
def test_criterion_05_h2_spectrum():
    rng = np.random.default_rng(PAIR_SEED + 3)
    for _ in range(20):
        mu_b0 = float(rng.uniform(-2, 2))
        j = float(rng.uniform(-2, 2))
        values = eigh(build_h2(mu_b0, j), want_vectors=False).eigenvalues
        want = np.sort([-3 * j, j - 2 * mu_b0, j, j + 2 * mu_b0])
        assert np.max(np.abs(values - want)) < 1e-8


@criterion(6, "[Sz,S2], [H,Sz], [H,S2] residuals < 1e-9 for n=1..8, 10 graphs each, < 60 s")
def test_criterion_06_conservation():
    tol = 1e-9
    rng = np.random.default_rng(PAIR_SEED + 4)
    start = time.perf_counter()
    for n in range(1, 9):
        s_z = total_component("z", n)
        s_sq = total_spin_squared(n)
        assert conserved_residual(s_z, s_sq) < tol
        for _ in range(10):
            edges = []
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if rng.uniform() < 0.5:
                        edges.append(CouplingEdge(i, j, float(rng.uniform(-2, 2))))
            spec = HamiltonianSpec(n, float(rng.uniform(-2, 2)), tuple(edges))
            h = build_general(spec)
            assert conserved_residual(h, s_z) < tol
            assert conserved_residual(h, s_sq) < tol
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"conservation sweep took {elapsed:.2f} s"


@criterion(7, "two-site decomposition residual < 1e-10 with intermediates at 1e-12, 10 triples")
def test_criterion_07_decomposition():
    rng = np.random.default_rng(PAIR_SEED + 5)
    for _ in range(10):
        a = float(rng.uniform(-1.5, 1.5))
        report = verify_h2_decomposition(WeightTriple(a, a, a), mu_b0=-a, tol=1e-10)
        assert report.passed, report.note
        assert report.residual < 1e-10
        for axis in "xyz":
            assert component_square_residual(axis, a) <= 1e-12


def brute_force_spin_squared(n: int) -> np.ndarray:
    """S^2 assembled state by state from S^2 = (sum_i m_i)^2 + n/2
    plus the pair ladder terms (s_i^+ s_j^- + s_i^- s_j^+)/2, enumerating
    every basis bitstring (bit value 1 means spin down)."""
    dim = 1 << n
    out = np.zeros((dim, dim))
    for s in range(dim):
        downs = bin(s).count("1")
        m = 0.5 * (n - 2 * downs)
        out[s, s] += m * m + 0.5 * n
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                bi, bj = 1 << i, 1 << j
                if (s & bi) and not (s & bj):
                    t = (s & ~bi) | bj  # raise site-bit i, lower site-bit j
                    # both orderings hit this transition: s_i^+ s_j^- from the
                    # pair (i, j) and s_j^- s_i^+ from (j, i), 1/2 each
                    out[t, s] += 1.0
    return out


@criterion(8, "Sz multiplicities binomial and S2 s(s+1) multiplicities for n=2..4")
def test_criterion_08_multiplicities():
    for n in (2, 3, 4):
        # S_z is diagonal; eigenvalue n/2 - k must appear C(n, k) times,
        # and the diagonal must equal the per-bitstring count exactly
        diag = np.real(np.diag(total_component("z", n)))
        oracle = np.array([0.5 * (n - 2 * bin(s).count("1")) for s in range(1 << n)])
        assert np.array_equal(diag, oracle)
        for k in range(n + 1):
            assert int(np.sum(diag == n / 2 - k)) == math.comb(n, k)

        s_sq = total_spin_squared(n)
        oracle_mat = brute_force_spin_squared(n)
        assert np.max(np.abs(s_sq - oracle_mat)) < 1e-12
        values = eigh(s_sq, want_vectors=False).eigenvalues
        assert np.max(np.abs(values - np.linalg.eigvalsh(oracle_mat))) < 1e-9
        s = n / 2
        total = 0
        while s >= 0:
            k = int(n / 2 - s)
            paths = math.comb(n, k) - (math.comb(n, k - 1) if k >= 1 else 0)
            count = int(np.sum(np.abs(values - s * (s + 1)) < 1e-9))
            assert count == int((2 * s + 1) * paths)
            total += count
            s -= 1
        assert total == 1 << n


@criterion(9, "matvec vs dense columns < 1e-10 for n <= 10; lanczos vs dense eigh at 1e-7")
def test_criterion_09_matrix_free_fidelity():
    tol = 1e-10
    rng = np.random.default_rng(PAIR_SEED + 6)
    for n in range(1, 11):
        edges = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.uniform() < 0.4:
                    edges.append(CouplingEdge(i, j, float(rng.uniform(-2, 2))))
        spec = HamiltonianSpec(n, float(rng.uniform(-2, 2)), tuple(edges))
        dense = build_general(spec)
        op = spec_to_kronsum(spec)
        dim = 1 << n
        columns = range(dim) if dim <= 64 else rng.integers(0, dim, size=20)
        for k in columns:
            e = np.zeros(dim, dtype=np.complex128)
            e[int(k)] = 1.0
            assert np.max(np.abs(matvec(op, e) - dense[:, int(k)])) < tol

    chain = HamiltonianSpec(10, 0.0, tuple(CouplingEdge(i, i + 1, 1.0) for i in range(1, 10)))
    dense_ground = eigh(build_general(chain), want_vectors=False).eigenvalues[0]
    lanczos_ground = lanczos_extremal(
        spec_to_kronsum(chain), which="lowest", k=1, tol=1e-8
    ).eigenvalues[0]
    assert abs(lanczos_ground - dense_ground) < 1e-7


@criterion(10, "20-site chain matvec in < 5 s with scratch below 10 * 2^20 complex doubles")
def test_criterion_10_performance():
    n = 20
    spec = HamiltonianSpec(n, 1.0, tuple(CouplingEdge(i, i + 1, 1.0) for i in range(1, n)))
    op = spec_to_kronsum(spec)
    assert len(op.terms) == 3 * 19 + 20
    dim = 1 << n
    rng = np.random.default_rng(PAIR_SEED + 7)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    budget_bytes = 10 * dim * 16  # ten state vectors of complex doubles
    tracemalloc.start()
    t0 = time.perf_counter()
    y = matvec(op, x)
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert elapsed < 5.0, f"matvec took {elapsed:.2f} s"
    assert peak < budget_bytes, f"peak traced bytes {peak} over budget {budget_bytes}"
    # the operator is Hermitian, so the quadratic form must come out real
    q = np.vdot(x, y)
    assert abs(q.imag) < 1e-6 * abs(q)
