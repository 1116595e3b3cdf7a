"""Matrix-free Kronecker-structured operators on n-site spin registers.

An operator is a sum of scalar-weighted terms, each term a chain of per-site
2 x 2 factors (None meaning identity).  Site 1 is the leftmost Kronecker
factor and therefore the most significant bit of the state index: site k of
n addresses bit n - k.  The 2^n x 2^n matrix is never materialized.

On first use a KronSum is compiled into a ``MatvecPlan`` kept on the
operator: the diagonal of every term with at most two active sites summed
into one length-2^n vector, the off-diagonal entries of those terms' local
2 x 2 and 4 x 4 matrices summed per site set into weighted moves, and the
terms with three or more active sites kept as they are.  A matvec is then
one diagonal multiply, one strided update over 2^n / 2 (one site) or
2^n / 4 (two sites) amplitudes per move, and one pass per active site for
each remaining term.  For the Zeeman-plus-exchange Hamiltonian that is
O((1 + |E| / 2) 2^n) amplitude updates, two moves of weight 2J per coupling
edge, independent of the number of sites per term; scratch is one
length-2^n vector beside the result (three when a term spans three sites).

``lanczos_extremal`` finds extremal eigenvalues using only matvec, with full
reorthogonalization against the stored basis (no ghost eigenvalues at desk
scale) and a seeded start vector for reproducibility.  Hitting an invariant
subspace is handled by restarting with a fresh orthogonalized random vector;
for a Hermitian operator the complement of an invariant subspace is again
invariant, so the projected matrix stays block tridiagonal and Ritz residual
bounds remain valid.  Because one Krylov chain holds at most one copy of
each distinct eigenvalue, requests for k > 1 values finish with verification
sweeps deflated against the accepted eigenvectors, so degenerate extremal
eigenvalues are reported with their multiplicity.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._common import as_matrix
from .errors import CapacityError, ContractError, ConvergenceError, ShapeError
from .hamiltonian_builder import HamiltonianSpec
from .dense_linalg import Spectrum, _canonical_order
from .kron_core import kron
from .spin_algebra import AXES, DENSE_SITE_CAP, pauli


@dataclass(frozen=True)
class KronTerm:
    """One scalar-weighted factor chain; factors[k] = None means identity at
    site k + 1, anything else must be a 2 x 2 complex matrix (stored as a
    read-only copy)."""

    coefficient: complex
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficient", complex(self.coefficient))
        if not (cmath.isfinite(self.coefficient)):
            raise ContractError(f"coefficient must be finite, got {self.coefficient}")
        checked = []
        for slot, f in enumerate(tuple(self.factors)):
            if f is None:
                checked.append(None)
                continue
            f = as_matrix(f)
            if f.shape != (2, 2):
                raise ShapeError(f"factor at slot {slot} must be 2x2, got {f.shape}")
            # a private copy, so the compiled plan cannot go stale when the
            # caller later writes to its own array
            f = f.copy()
            f.setflags(write=False)
            checked.append(f)
        object.__setattr__(self, "factors", tuple(checked))

    @property
    def active_slots(self) -> tuple[int, ...]:
        return tuple(k for k, f in enumerate(self.factors) if f is not None)


@dataclass(frozen=True)
class KronSum:
    """Sum of KronTerms over a fixed register of n_sites spin-1/2 sites."""

    n_sites: int
    terms: tuple[KronTerm, ...]

    def __post_init__(self):
        if not isinstance(self.n_sites, int) or self.n_sites < 1:
            raise ContractError(f"n_sites must be a positive integer, got {self.n_sites!r}")
        object.__setattr__(self, "terms", tuple(self.terms))
        for t, term in enumerate(self.terms):
            if not isinstance(term, KronTerm):
                raise ContractError(f"terms must be KronTerm instances, got {term!r}")
            if len(term.factors) != self.n_sites:
                raise ShapeError(
                    f"term {t} has {len(term.factors)} factors for {self.n_sites} sites"
                )

    @property
    def dimension(self) -> int:
        return 1 << self.n_sites

    @cached_property
    def plan(self) -> MatvecPlan:
        """The compiled form ``matvec`` applies, built on first use and kept
        with the operator (its terms and factors are immutable)."""
        return _compile(self)


@dataclass(frozen=True)
class MatvecPlan:
    """A KronSum compiled for ``matvec``.

    ``diagonal`` is the summed diagonal of every term with at most two
    active sites (float64 when its imaginary part is exactly zero).  Each
    move ``(shape, dst, src, weight)`` adds ``weight * x_view[src]`` to
    ``y_view[dst]``, where ``*_view`` is the state reshaped to ``shape``
    with one length-2 axis per site of the move.  ``fallback`` holds the
    terms with three or more active sites, applied site by site.
    """

    diagonal: np.ndarray
    moves: tuple
    fallback: tuple[KronTerm, ...]

    @property
    def amplitudes_touched(self) -> int:
        """Amplitudes written by one matvec: the diagonal multiply, each
        move's slab, and per fallback term one pass per active site plus the
        coefficient pass."""
        dim = self.diagonal.size
        slabs = sum(dim >> (len(shape) // 2) for shape, _, _, _ in self.moves)
        passes = sum(len(t.active_slots) + 1 for t in self.fallback)
        return dim + slabs + dim * passes


def _slab_shape(slots, n: int) -> tuple[int, ...]:
    """Shape viewing a length-2^n state with one length-2 axis per slot:
    (2^i, 2, 2^(j-i-1), 2, 2^(n-j-1)) for slots (i, j)."""
    shape = []
    prev = -1
    for slot in slots:
        shape += [1 << (slot - prev - 1), 2]
        prev = slot
    shape.append(1 << (n - prev - 1))
    return tuple(shape)


def _slab_index(bits) -> tuple:
    """Index selecting the given bit of each slot axis of a slab view."""
    index = []
    for b in bits:
        index += [slice(None), b]
    index.append(slice(None))
    return tuple(index)


def _local_matrix(term: KronTerm) -> np.ndarray:
    """coefficient times the Kronecker product of the active factors, with
    axes (out bit per slot..., in bit per slot...); 0, 1 or 2 slots.  Each
    entry is coefficient * (f_i * f_j), the product the site passes form."""
    slots = term.active_slots
    c = term.coefficient
    if not slots:
        return np.asarray(c)
    if len(slots) == 1:
        return c * term.factors[slots[0]]
    fi, fj = term.factors[slots[0]], term.factors[slots[1]]
    return c * (fi[:, None, :, None] * fj[None, :, None, :])


def _compile(op: KronSum) -> MatvecPlan:
    """Diagonals are summed term by term and local matrices per site set,
    both in term order, so each entry is the sum the site passes formed."""
    n = op.n_sites
    dim = op.dimension
    # real and imaginary parts add apart, exactly as complex addition does;
    # the imaginary part is allocated only once some term has one
    real = np.zeros(dim)
    imag = None
    locals_by_slots: dict[tuple, np.ndarray] = {}
    fallback = []
    for term in op.terms:
        slots = term.active_slots
        if len(slots) > 2:
            fallback.append(term)
            continue
        local = _local_matrix(term)
        shape = _slab_shape(slots, n)
        for bits in itertools.product((0, 1), repeat=len(slots)):
            value = local[bits + bits]
            index = _slab_index(bits)
            if value.real != 0:
                part = real.reshape(shape)[index]
                part += value.real
            if value.imag != 0:
                if imag is None:
                    imag = np.zeros(dim)
                part = imag.reshape(shape)[index]
                part += value.imag
        if slots:
            held = locals_by_slots.get(slots)
            locals_by_slots[slots] = local if held is None else held + local

    if imag is None or not imag.any():
        diagonal = real
    else:
        diagonal = real + 1j * imag
    diagonal.setflags(write=False)

    moves = []
    for slots, local in locals_by_slots.items():
        shape = _slab_shape(slots, n)
        states = list(itertools.product((0, 1), repeat=len(slots)))
        for out_bits in states:
            for in_bits in states:
                weight = complex(local[out_bits + in_bits])
                if out_bits == in_bits or weight == 0:
                    continue
                moves.append((shape, _slab_index(out_bits), _slab_index(in_bits), weight))
    return MatvecPlan(diagonal, tuple(moves), tuple(fallback))


def _apply_site(src, f, slot: int, n: int, out) -> None:
    """out = (I x ... x f x ... x I) src with f at 0-based slot; site k + 1
    is bit n - k - 1, i.e. axis `slot` of the (2, ..., 2) amplitude cube."""
    pre = 1 << slot
    post = 1 << (n - slot - 1)
    s3 = src.reshape(pre, 2, post)
    o3 = out.reshape(pre, 2, post)
    v0, v1 = s3[:, 0, :], s3[:, 1, :]
    o0, o1 = o3[:, 0, :], o3[:, 1, :]
    f00, f01, f10, f11 = f[0, 0], f[0, 1], f[1, 0], f[1, 1]
    if f01 == 0 and f10 == 0:
        np.multiply(v0, f00, out=o0)
        np.multiply(v1, f11, out=o1)
    elif f00 == 0 and f11 == 0:
        np.multiply(v1, f01, out=o0)
        np.multiply(v0, f10, out=o1)
    else:
        np.multiply(v0, f00, out=o0)
        o0 += f01 * v1
        np.multiply(v0, f10, out=o1)
        o1 += f11 * v1


def matvec(op: KronSum, x) -> np.ndarray:
    """y = op @ x without materializing op.

    Applies the operator's compiled ``plan`` (built on the first call):
    y = diagonal * x, then y_view[dst] += weight * x_view[src] for each
    move, each a strided update over 2^n / 2 or 2^n / 4 amplitudes, then the
    terms with three or more active sites through two ping-pong scratch
    buffers.  A coupling edge costs two quarter-length updates.
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    dim = op.dimension
    if x.shape != (dim,):
        raise ShapeError(f"state length {x.shape} does not match dimension {dim}")
    plan = op.plan
    y = plan.diagonal * x
    for shape, dst, src, weight in plan.moves:
        out = y.reshape(shape)[dst]
        out += weight * x.reshape(shape)[src]
    if plan.fallback:
        n = op.n_sites
        ping = np.empty(dim, dtype=np.complex128)
        pong = np.empty(dim, dtype=np.complex128)
        for term in plan.fallback:
            src = x
            dst = ping
            for slot in term.active_slots:
                _apply_site(src, term.factors[slot], slot, n, dst)
                src = dst
                dst = pong if dst is ping else ping
            np.multiply(src, term.coefficient, out=dst)
            y += dst
    return y


def to_dense(op: KronSum) -> np.ndarray:
    """Materialize the operator; entrywise equal to the dense builder on the
    same term order (terms accumulated left to right)."""
    if op.n_sites > DENSE_SITE_CAP:
        raise CapacityError(
            f"to_dense for n={op.n_sites} sites exceeds the dense cap of {DENSE_SITE_CAP}"
        )
    eye2 = np.eye(2, dtype=np.complex128)
    out = None
    for term in op.terms:
        chain = None
        for f in term.factors:
            factor = eye2 if f is None else f
            chain = factor.copy() if chain is None else kron(chain, factor)
        mat = term.coefficient * chain
        out = mat if out is None else out + mat
    if out is None:
        dim = op.dimension
        out = np.zeros((dim, dim), dtype=np.complex128)
    return out


def _single_site_term(coefficient, f, site: int, n: int) -> KronTerm:
    factors = [None] * n
    factors[site - 1] = f
    return KronTerm(coefficient, tuple(factors))


def _two_site_term(coefficient, fi, i: int, fj, j: int, n: int) -> KronTerm:
    if i == j:
        raise ContractError(f"two-site term needs distinct sites, got ({i}, {j})")
    factors = [None] * n
    factors[i - 1] = fi
    factors[j - 1] = fj
    return KronTerm(coefficient, tuple(factors))


def spec_to_kronsum(spec: HamiltonianSpec, z_scale: float = 1.0) -> KronSum:
    """Matrix-free form of the Hamiltonian builder's general form: n Zeeman
    terms then 3 terms per coupling edge, in the dense builder's exact
    accumulation order so dense round-trips compare bitwise.  As in
    ``build_general(spec, z_scale)``, every sigma_z sigma_z coupling is
    scaled by ``z_scale`` (the XXZ anisotropy Delta; 1 is isotropic)."""
    n = spec.n_sites
    terms = []
    sigma_z = pauli("z")
    for site in range(1, n + 1):
        terms.append(_single_site_term(-spec.mu_b0, sigma_z, site, n))
    for edge in spec.couplings:
        for axis in AXES:
            sigma = pauli(axis)
            strength = edge.strength * z_scale if axis == "z" else edge.strength
            terms.append(_two_site_term(strength, sigma, edge.i, sigma, edge.j, n))
    return KronSum(n, tuple(terms))


def total_component_kronsum(axis: str, n: int) -> KronSum:
    """Matrix-free total spin component: (1/2) sigma_axis at each site."""
    if n < 1:
        raise ContractError(f"site count must be >= 1, got {n}")
    sigma = pauli(axis)
    return KronSum(n, tuple(_single_site_term(0.5, sigma, k, n) for k in range(1, n + 1)))


def total_spin_squared_kronsum(n: int) -> KronSum:
    """Matrix-free S^2 = (3n/4) I + (1/2) sum_{i<j} sum_axis sigma_axis(i) sigma_axis(j),
    from expanding the squared component sums with sigma^2 = I."""
    if n < 1:
        raise ContractError(f"site count must be >= 1, got {n}")
    terms = [KronTerm(0.75 * n, tuple([None] * n))]
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            for axis in AXES:
                sigma = pauli(axis)
                terms.append(_two_site_term(0.5, sigma, i, sigma, j, n))
    return KronSum(n, tuple(terms))


def _hermitian_sample_check(op: KronSum, rng, pairs: int = 2, rtol: float = 1e-8) -> None:
    dim = op.dimension
    for _ in range(pairs):
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        lhs = np.vdot(x, matvec(op, y))
        rhs = np.conj(np.vdot(y, matvec(op, x)))
        if abs(lhs - rhs) > rtol * max(1.0, abs(lhs), abs(rhs)):
            raise ContractError(
                f"operator fails the Hermitian sample check: <x, Ay> = {lhs:.6e} "
                f"but conj(<y, Ax>) = {rhs:.6e}"
            )


def _lanczos_core(op: KronSum, which: str, k: int, tol: float, max_iter: int,
                  rng, locked=None):
    """One Lanczos run restricted to the orthogonal complement of ``locked``.

    ``locked`` is an optional (count, dim) array of orthonormal rows (already
    certified eigenvectors); every chain vector is kept orthogonal to them,
    so the run searches the deflated complement.  Returns (values, vectors,
    true_residuals, norm_est) with values ordered ascending, or None when the
    complement is exhausted before producing a value.  Raises
    ConvergenceError when the iteration budget runs out first.
    """
    dim = op.dimension
    n_locked = 0 if locked is None else locked.shape[0]
    space = dim - n_locked
    if space < k:
        raise ContractError(f"k = {k} exceeds the {space}-dimensional search space")
    budget = min(max_iter, space)

    def draw():
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    def orthonormalize(vec, m):
        # conj(rows @ conj(vec)) is conj(rows) @ vec without copying the rows
        for _ in range(2):
            if n_locked:
                vec = vec - locked.T @ np.conj(locked @ vec.conj())
            if m:
                vec = vec - basis[:m].T @ np.conj(basis[:m] @ vec.conj())
        return vec, float(np.linalg.norm(vec))

    basis = np.empty((min(32, budget), dim), dtype=np.complex128)
    q, qnorm = orthonormalize(draw(), 0)
    if qnorm <= 1e-13:
        return None
    basis[0] = q / qnorm
    alphas: list[float] = []
    betas: list[float] = []  # betas[j] couples basis j and j+1; 0.0 marks a restart
    norm_est = 0.0
    check_every = 5
    last = None  # (m, theta, ritz_coeffs) from the most recent Ritz solve

    def ritz(m, tail_beta):
        """Solve the projected (block-)tridiagonal problem; update ``last``;
        return True when k values from the requested end satisfy the
        residual bound |tail_beta * (last component)| <= tol * ||op||_est."""
        nonlocal norm_est, last
        tmat = np.diag(alphas)
        if m > 1:
            off = np.asarray(betas[: m - 1])
            tmat += np.diag(off, 1) + np.diag(off, -1)
        theta, svec = np.linalg.eigh(tmat)
        norm_est = max(norm_est, float(np.max(np.abs(theta), initial=0.0)))
        take = min(k, m)
        idx = np.arange(take) if which == "lowest" else np.arange(m - take, m)
        last = (m, theta[idx], svec[:, idx])
        bounds = np.abs(tail_beta * svec[m - 1, idx])
        return take == k and bool(np.all(bounds <= tol * max(norm_est, 1e-300)))

    def finalize():
        m, theta, svec = last
        vecs = (svec.T @ basis[:m]).T  # columns are Ritz vectors
        true_res = np.empty(len(theta))
        for i in range(len(theta)):
            v = vecs[:, i]
            v = v / np.linalg.norm(v)
            vecs[:, i] = v
            true_res[i] = float(np.linalg.norm(matvec(op, v) - theta[i] * v))
        return np.array(theta, dtype=np.float64), vecs, true_res

    m = 0
    exhausted = False
    while m < budget and not exhausted:
        w = matvec(op, basis[m])
        alphas.append(float(np.real(np.vdot(basis[m], w))))
        m += 1
        w, beta = orthonormalize(w, m)
        breakdown = beta <= 1e-13 * max(norm_est, 1.0)
        if breakdown or m % check_every == 0 or m == budget:
            if ritz(m, 0.0 if breakdown else beta):
                theta, vecs, true_res = finalize()
                if np.all(true_res <= tol * max(norm_est, 1e-300)):
                    return theta, vecs, true_res, norm_est
                # the bound was optimistic; keep iterating
        if m == budget:
            break
        if m == basis.shape[0]:
            grown = np.empty((min(budget, 2 * basis.shape[0]), dim), np.complex128)
            grown[: basis.shape[0]] = basis
            basis = grown
        if breakdown:
            # invariant subspace: its orthogonal complement is invariant too,
            # so restarting keeps the projected matrix block tridiagonal
            w, beta = orthonormalize(draw(), m)
            if beta <= 1e-13:
                exhausted = True
                continue
            betas.append(0.0)
        else:
            betas.append(beta)
        basis[m] = w / beta

    ritz(m, 0.0 if exhausted else (betas[m - 1] if len(betas) >= m else 0.0))
    theta, vecs, true_res = finalize()
    if len(theta) >= k and np.all(true_res <= tol * max(norm_est, 1e-300)):
        return theta, vecs, true_res, norm_est
    raise ConvergenceError(
        f"Lanczos did not converge in {m} iterations (tol {tol}, norm estimate {norm_est:.3e})",
        estimates=[(float(t), float(r)) for t, r in zip(theta, true_res)],
    )


def lanczos_extremal(op: KronSum, which: str = "lowest", k: int = 1,
                     tol: float = 1e-8, max_iter: int | None = None,
                     seed: int = 0) -> Spectrum:
    """k extremal eigenvalues of a Hermitian KronSum via Lanczos iteration.

    Full reorthogonalization (two classical Gram-Schmidt passes) against the
    stored basis; convergence requires the Ritz residual bound and then the
    true residual ||op v - theta v|| to fall below tol * ||op||_est, where
    ||op||_est is the largest Ritz magnitude seen.  A single Krylov chain
    carries at most one copy of each distinct eigenvalue, so for k > 1 the
    converged set is verified by extra runs deflated against the accepted
    eigenvectors: a found value that beats the least extremal accepted one
    displaces it (a missing copy of a degenerate eigenvalue, or a missed
    cluster member), and sweeps continue until one finds nothing better.
    Deterministic for a fixed seed.  Raises ConvergenceError (carrying best
    estimates) if an iteration budget runs out, ContractError if the operator
    fails a random-vector Hermitian check.
    """
    if which not in ("lowest", "highest"):
        raise ValueError(f"which must be 'lowest' or 'highest', got {which!r}")
    dim = op.dimension
    if not 1 <= k <= dim:
        raise ContractError(f"k must be in 1..{dim}, got {k}")
    if max_iter is None:
        max_iter = max(300, 3 * k)
    if max_iter < k:
        raise ContractError(f"max_iter {max_iter} cannot deliver k = {k} values")
    rng = np.random.default_rng(seed)
    _hermitian_sample_check(op, rng)

    # verification sweeps re-certify against the unmodified operator, but the
    # deflated chains see leakage bounded by the locked residuals; the margin
    # keeps every accepted pair within the caller's tolerance
    inner_tol = tol if k == 1 else 0.4 * tol
    values, vectors, _, norm_est = _lanczos_core(op, which, k, inner_tol, max_iter, rng)
    if 1 < k < dim:
        sign = 1.0 if which == "lowest" else -1.0
        for _ in range(k):
            outcome = _lanczos_core(op, which, 1, inner_tol, max_iter, rng,
                                    locked=vectors.T)
            if outcome is None:
                break  # complement exhausted: the multiset is complete
            extra_values, extra_vectors, _, extra_norm = outcome
            norm_est = max(norm_est, extra_norm)
            scale = inner_tol * max(norm_est, 1e-300)
            worst = int(np.argmax(sign * values))
            if sign * extra_values[0] >= sign * values[worst] - scale:
                break  # nothing more extremal exists outside the accepted set
            values[worst] = extra_values[0]
            vectors[:, worst] = extra_vectors[:, 0]
    values, vectors = _canonical_order(values, vectors)
    return Spectrum(eigenvalues=values, dimension=dim, eigenvectors=vectors)
