"""Matrix-free Kronecker-structured operators on n-site spin registers.

An operator is a sum of scalar-weighted terms, each term a chain of per-site
2 x 2 factors (None meaning identity).  Site 1 is the leftmost Kronecker
factor and therefore the most significant bit of the state index: site k of
n addresses bit n - k.  A matvec never materializes the 2^n x 2^n matrix.

On first use a KronSum is compiled into a ``MatvecPlan`` kept on the
operator: the local 2 x 2 and 4 x 4 matrices of the terms with at most two
active sites are summed per site set, each set's diagonal is added to one
length-2^n vector and its off-diagonal entries become weighted moves, and
the terms with three or more active sites are kept as they are.  A matvec
is then one diagonal multiply, one strided update over 2^n / 2 (one site) or
2^n / 4 (two sites) amplitudes per move, and one pass per active site for
each remaining term.  For the Zeeman-plus-exchange Hamiltonian that is
O((1 + |E| / 2) 2^n) amplitude updates, two moves of weight 2J per coupling
edge, independent of the number of sites per term; scratch is one
length-2^n vector beside the result (three when a term spans three sites).
When every move has one weight (uniform chains and rings, S^2, S_x) that
scratch holds x times the weight, computed once, and each move is a single
add; otherwise it holds each move's weighted slab in turn.  A slab whose
contiguous run is shorter than 8 amplitudes (the last sites of a chain, most
S^2 edges) is iterated along its longest axis instead, so numpy's inner loop
is long; the plan keeps these per-move facts after the first matvec.  Each
amplitude gets the same multiply and the same adds in plan order either way,
so the result is the plain per-move loop's bit for bit.

A plan is real when its diagonal is float64, every move weight is a real
float and no fallback terms remain: every spec Hamiltonian (any XXZ
anisotropy), S_z, S_x and S^2 has a real plan.  ``matvec`` of a real plan
on a float64 state stays float64 end to end, at half the memory traffic of
complex128; every other combination computes in complex128.

A plan without fallback terms is a sum of masked bit flips, its flip form
(``KronSum.flip_form``): ``(op x)[s] = sum_m c_m[s] x[s ^ m]``, where mask
0 carries the diagonal and each move adds its weight to c_m on its
destination slab, m being the state bits in which its out and in bits
differ (Sandvik, arXiv:1101.3281 sec. 4).  A product of two such operators
is again one, with the masks XORed, so ``commutator_norm`` gives the exact
Frobenius norm of ab - ba in O(#masks_a #masks_b 2^n) work and one
length-2^n row per distinct product mask, never a 2^n x 2^n matrix.

The spec Hamiltonian, S_z and S^2 share one shape, a constant and a field
on every site plus exchange couplings on a graph (S_z is the field 1/2
without edges, S^2 the complete graph at J = 1/2 plus 3n/4).  Each is an
``ExchangeSum``, which keeps only that edge list and checks its values once:
its plan is written straight from the edges by ``_exchange_plan``, and its
KronTerms are built only when read, so a matvec, a dense matrix or a
commutator norm of these operators constructs no term.  A dense H, S_axis or
S^2 is its plan scattered into a 2^n x 2^n matrix (diagonal, then each
move's weight at (s, s ^ mask)), equal to the lifted forms bitwise.

``lanczos_extremal`` finds extremal eigenvalues using only matvec, from a
seeded start vector for reproducibility.  For a real plan the start vector,
the Krylov basis and the projections are float64 (a real symmetric operator
has a real orthonormal eigenbasis); otherwise they are complex128.  Each new
vector is orthogonalized against the whole stored basis B (no ghost
eigenvalues at desk scale): one classical Gram-Schmidt pass, and a second
one only when the first leaves less than 1/sqrt(2) of its norm (Daniel,
Gragg, Kaufman & Stewart, Math. Comp. 30:772, 1976: "twice is enough").
The summed coefficients are a column of the Ritz matrix B^H op B, which
therefore stays exact whatever B holds, so one step extends the search
space in every case: compress B to chosen Ritz vectors, then continue from
the residual when the fixed-size basis is full (thick restart, Wu & Simon,
SIAM J. Matrix Anal. Appl. 22:602, 2000), or from a fresh random vector
after an invariant subspace and, for k > 1, in verification passes that
keep the converged k and target k + 1 until the first k stop moving, so
degenerate extremal eigenvalues are reported with their multiplicity.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._common import as_matrix
from .errors import ContractError, ConvergenceError, ShapeError, SiteRangeError, SizingError
from .dense_linalg import Spectrum, _canonical_order
from .kron_core import kron
from .spin_algebra import AXES, _check_capacity, pauli


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


def _check_site_count(n_sites) -> None:
    if not isinstance(n_sites, int) or isinstance(n_sites, bool) or n_sites < 1:
        raise ContractError(f"n_sites must be a positive integer, got {n_sites!r}")


@dataclass(frozen=True)
class KronSum:
    """Sum of KronTerms over a fixed register of n_sites spin-1/2 sites."""

    n_sites: int
    terms: tuple[KronTerm, ...]

    def __post_init__(self):
        _check_site_count(self.n_sites)
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

    @cached_property
    def flip_form(self) -> FlipForm:
        """The plan as masked bit flips, which ``commutator_norm`` reads;
        built on first use and kept with the operator like ``plan``.  Raises
        ContractError when a term has three or more active sites."""
        return _flip_form(self)


@dataclass(frozen=True)
class MatvecPlan:
    """A KronSum compiled for ``matvec``.

    ``diagonal`` is the summed diagonal of every term with at most two
    active sites (float64 when its imaginary part is exactly zero).  Each
    move ``(shape, dst, src, weight, mask)`` adds ``weight * x_view[src]``
    to ``y_view[dst]``, where ``*_view`` is the state reshaped to ``shape``
    with one length-2 axis per site of the move; ``weight`` is a float when
    its imaginary part is exactly zero, else a complex, and ``mask`` holds
    the state bits in which ``dst`` and ``src`` differ.  ``fallback`` holds
    the terms with three or more active sites, applied site by site.
    ``real`` is true when the diagonal is float64, every weight a float and
    ``fallback`` empty, i.e. the operator maps real states to real states.
    """

    diagonal: np.ndarray
    moves: tuple
    fallback: tuple[KronTerm, ...]
    real: bool

    @property
    def amplitudes_touched(self) -> int:
        """Amplitudes written into the result by one matvec: the diagonal
        multiply, each move's slab, and per fallback term one pass per active
        site plus the coefficient pass.  Writes into scratch (the scaled copy
        or the weighted slab) are not counted."""
        dim = self.diagonal.size
        slabs = sum(dim >> (len(shape) // 2) for shape, *_ in self.moves)
        passes = sum(len(t.active_slots) + 1 for t in self.fallback)
        return dim + slabs + dim * passes

    @property
    def norm_bound(self) -> float:
        """Gershgorin bound on every row's absolute sum, hence on the 2-norm
        of a Hermitian operator: max |diagonal|, plus each move's |weight|
        (a move puts at most one entry in a row), plus per fallback term
        |coefficient| times the largest absolute row sum of each active
        factor.  inf when that sum is past the double range."""
        with np.errstate(over="ignore"):
            bound = float(np.max(np.abs(self.diagonal)))
            bound += float(np.sum(np.abs([move[3] for move in self.moves])))
            for term in self.fallback:
                part = abs(term.coefficient)
                for slot in term.active_slots:
                    part *= float(np.max(np.sum(np.abs(term.factors[slot]), axis=1)))
                bound += part
        return bound

    @cached_property
    def shared_weight(self) -> float | complex | None:
        """The weight every move carries, or None when two weights differ
        (or there are no moves); read on the first matvec and kept.  Equal
        means the same double in each part, signed zeros told apart."""
        weights = {repr(complex(move[3])) for move in self.moves}
        return self.moves[0][3] if len(weights) == 1 else None

    @cached_property
    def sweeps(self) -> tuple:
        """Each move as ``(shape, dst, src, weight, axes)``, derived on the
        first matvec and kept.  ``axes`` is None when the move's slab view
        ends in a contiguous run of at least 8 amplitudes (one 64-byte cache
        line of float64); otherwise it moves the slab's longest axis last,
        so the matvec's inner loop runs along it rather than over runs of
        1-4 amplitudes, the other axes keeping their order."""
        sweeps = []
        for shape, dst, src, weight, _ in self.moves:
            # the slab view keeps every other axis of the reshaped state;
            # of equal lengths the later (smaller stride) axis is longest
            lengths = shape[::2]
            order = range(len(lengths))
            longest = max(order, key=lambda a: (lengths[a], a))
            axes = None
            if lengths[-1] < 8 and longest != order[-1]:
                axes = tuple(a for a in order if a != longest) + (longest,)
            sweeps.append((shape, dst, src, weight, axes))
        return tuple(sweeps)


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
    """Local matrices are summed per site set in term order; each set, in
    order of first appearance, then adds its diagonal to the plan diagonal in
    one broadcast pass and emits its off-diagonal entries as moves with their
    flip masks.  Where no two site sets interleave in term order (spec
    Hamiltonians, S_axis, S^2), each entry is the sum the site passes form."""
    n = op.n_sites
    locals_by_slots: dict[tuple, np.ndarray] = {}
    fallback = []
    for term in op.terms:
        slots = term.active_slots
        if len(slots) > 2:
            fallback.append(term)
            continue
        local = _local_matrix(term)
        held = locals_by_slots.get(slots)
        locals_by_slots[slots] = local if held is None else held + local

    # real and imaginary parts add apart, exactly as complex addition does;
    # the imaginary part is allocated only once some site set has one
    real = np.zeros(op.dimension)
    imag = None
    moves = []
    for slots, local in locals_by_slots.items():
        k = len(slots)
        shape = _slab_shape(slots, n)
        # the local diagonal, broadcast over the slab axes between the slots
        on_slab = np.diagonal(local.reshape(1 << k, 1 << k)).reshape([1, 2] * k + [1])
        part = real.reshape(shape)
        part += on_slab.real
        if on_slab.imag.any():
            if imag is None:
                imag = np.zeros(op.dimension)
            part = imag.reshape(shape)
            part += on_slab.imag
        states = list(itertools.product((0, 1), repeat=k))
        for out_bits, in_bits in itertools.product(states, repeat=2):
            weight = complex(local[out_bits + in_bits])
            if out_bits == in_bits or weight == 0:
                continue
            if weight.imag == 0:
                weight = weight.real
            mask = sum(1 << (n - 1 - slot)
                       for slot, out_bit, in_bit in zip(slots, out_bits, in_bits)
                       if out_bit != in_bit)
            moves.append((shape, _slab_index(out_bits), _slab_index(in_bits), weight, mask))

    if imag is None or not imag.any():
        diagonal = real
    else:
        diagonal = real + 1j * imag
    diagonal.setflags(write=False)
    real = (diagonal.dtype == np.float64 and not fallback
            and all(isinstance(move[3], float) for move in moves))
    return MatvecPlan(diagonal, tuple(moves), tuple(fallback), real)


# sigma_z on one site and sigma_z sigma_z on two, as slab diagonals
_Z_SIGNS = np.array([1.0, -1.0]).reshape(1, 2, 1)
_ZZ_SIGNS = np.array([1.0, -1.0, -1.0, 1.0]).reshape(1, 2, 1, 2, 1)
# sigma_x sigma_x + sigma_y sigma_y is 2 at 01 <- 10 and at 10 <- 01: the
# (dst, src) slab indices of an exchange edge's two moves
_FLIP_FLOPS = ((_slab_index((0, 1)), _slab_index((1, 0))),
               (_slab_index((1, 0)), _slab_index((0, 1))))


# finite values can sum past the double range; the plan refuses that itself
@np.errstate(over="ignore")
def _exchange_plan(n: int, zeeman, edges, constant: float = 0.0) -> MatvecPlan:
    """Plan of constant I + zeeman sum_k sigma_z(k) + sum over the edges
    (i, j, j_xy, j_z), distinct site pairs with i < j, of
    j_xy (sigma_x sigma_x + sigma_y sigma_y)(i, j) + j_z sigma_z sigma_z(i, j),
    written straight from the edge list; ``zeeman`` None means no field.

    The diagonal takes the constant, each site's Zeeman slab, then each
    edge's zz slab; each edge with j_xy != 0 adds two flip-flop moves of
    weight 2 j_xy.  That is ``_compile``'s order on ``ExchangeSum.terms``,
    so the plan equals the compiled one bitwise.  Raises SizingError when a
    diagonal entry or a move weight is past the double range."""
    # zeros plus the constant, not np.full: numpy takes zeroed memory from
    # calloc, which maps a large array afresh; np.full's malloc'd array
    # raised the peak RSS of a 16-site chain Lanczos solve by 3.5 MB
    diagonal = np.zeros(1 << n)
    diagonal += constant
    if zeeman:
        for slot in range(n):
            part = diagonal.reshape(1 << slot, 2, -1)
            part += zeeman * _Z_SIGNS
    moves = []
    for i, j, j_xy, j_z in edges:
        # _slab_shape((i - 1, j - 1), n), inlined
        shape = (1 << (i - 1), 2, 1 << (j - i - 1), 2, 1 << (n - j))
        part = diagonal.reshape(shape)
        part += j_z * _ZZ_SIGNS
        if j_xy:
            mask = (1 << (n - i)) | (1 << (n - j))
            moves += [(shape, dst, src, 2.0 * j_xy, mask) for dst, src in _FLIP_FLOPS]
    if not (np.isfinite(diagonal).all() and all(math.isfinite(move[3]) for move in moves)):
        raise SizingError(f"the {n}-site operator sums to an entry past the double range")
    diagonal.setflags(write=False)
    return MatvecPlan(diagonal, tuple(moves), (), True)


@dataclass(frozen=True)
class FlipForm:
    """A plan without fallback terms as a sum of masked bit flips:
    ``(op @ x)[s] = sum_k coefficients[k, s] * x[s ^ masks[k]]``.

    ``masks`` holds distinct int64 flip masks, ``masks[0] == 0`` carrying
    the diagonal; row k of ``coefficients`` sums the weights of every move
    whose out and in bits differ exactly in ``masks[k]``, each on its
    destination slab.  The rows are float64 for a real plan, else
    complex128.  Each (mask, s) pair is one matrix entry, so the squared
    Frobenius norm of the operator is the sum of the squared rows.
    """

    masks: np.ndarray
    coefficients: np.ndarray


def _flip_form(op: KronSum) -> FlipForm:
    plan = op.plan
    if plan.fallback:
        raise ContractError(
            f"the flip form needs terms on at most two sites; {len(plan.fallback)} "
            "term(s) act on three or more"
        )
    row_of = {0: 0}  # flip mask -> row, in order of first appearance
    for move in plan.moves:
        row_of.setdefault(move[4], len(row_of))
    coefficients = np.zeros((len(row_of), op.dimension),
                            dtype=np.float64 if plan.real else np.complex128)
    coefficients[0] = plan.diagonal
    for shape, dst, _, weight, mask in plan.moves:
        part = coefficients[row_of[mask]].reshape(shape)[dst]
        part += weight
    masks = np.array(list(row_of), dtype=np.int64)
    masks.setflags(write=False)
    coefficients.setflags(write=False)
    return FlipForm(masks, coefficients)


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

    When every move has the same weight (``MatvecPlan.shared_weight``) x
    is scaled by it once and each move adds a slab of that copy; otherwise
    each move first writes its weighted slab into one reused scratch row.  A
    slab with runs shorter than 8 amplitudes is iterated along its longest
    axis (``MatvecPlan.sweeps``).  Neither choice changes a bit of y.

    When the plan is real and ``x`` is float64 the result is float64, equal
    to the real part of the complex128 result on the same state; in every
    other case ``x`` is converted to and the result returned in complex128.
    """
    plan = op.plan
    x = np.asarray(x)
    real = plan.real and x.dtype == np.float64
    x = np.ascontiguousarray(x, dtype=np.float64 if real else np.complex128)
    dim = op.dimension
    if x.shape != (dim,):
        raise ShapeError(f"state length {x.shape} does not match dimension {dim}")
    y = plan.diagonal * x
    shared = plan.shared_weight
    if shared is None:
        source = x
        scratch = np.empty_like(x)
    else:
        source = shared * x
    for shape, dst, src, weight, axes in plan.sweeps:
        out = y.reshape(shape)[dst]
        part = source.reshape(shape)[src]
        if axes:
            out = out.transpose(axes)
            part = part.transpose(axes)
        if shared is None:
            weighted = scratch[: part.size].reshape(part.shape)
            part = np.multiply(weight, part, out=weighted, order="C")
        # order="C" keeps the axis order given, where numpy would otherwise
        # iterate the smallest stride innermost
        np.add(out, part, out=out, order="C")
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
    _check_capacity(op.n_sites, "to_dense")
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


def commutator_norm(a: KronSum, b: KronSum) -> float:
    """Exact Frobenius norm of ab - ba, read from the flip forms without
    any 2^n x 2^n matrix.

    With a = sum_alpha c_alpha[s] x[s ^ alpha] and b = sum_beta
    d_beta[s] x[s ^ beta], the commutator has flip mask alpha ^ beta with
    coefficient c_alpha[s] d_beta[s ^ alpha] - d_beta[s] c_alpha[s ^ beta],
    summed over the pairs sharing that mask; its squared norm is the sum
    over masks of the squared coefficient rows.  Work is
    O(#masks_a #masks_b 2^n), memory one length-2^n row per distinct product
    mask.  A real and a complex operand compute in complex128.  Raises
    ContractError when the site counts differ or a term of either operand
    acts on three or more sites.
    """
    if a.n_sites != b.n_sites:
        raise ContractError(f"commutator of operators on {a.n_sites} and {b.n_sites} sites")
    outer, inner = a.flip_form, b.flip_form
    # ||[a, b]|| = ||[b, a]||: loop over the operand with fewer masks and
    # vectorize over the other
    if inner.masks.size > outer.masks.size:
        outer, inner = inner, outer
    states = np.arange(a.dimension)
    products = np.bitwise_xor.outer(outer.masks, inner.masks)
    distinct, row_of = np.unique(products, return_inverse=True)
    row_of = row_of.reshape(products.shape)
    acc = np.zeros((distinct.size, a.dimension),
                   dtype=np.result_type(outer.coefficients, inner.coefficients))
    shifted = states ^ outer.masks[:, None]  # row k: s ^ outer.masks[k]
    c = outer.coefficients
    for j, beta in enumerate(inner.masks):
        d = inner.coefficients[j]
        term = c * d[shifted]
        term -= d * c[:, states ^ beta]
        # the masks alpha ^ beta are distinct for one beta, so no row of acc
        # is named twice
        acc[row_of[:, j]] += term
    return float(np.linalg.norm(acc))


def _sites_term(coefficient, sigma, sites, n: int) -> KronTerm:
    """coefficient times ``sigma`` on each of the given 1-based sites."""
    factors = [None] * n
    for site in sites:
        factors[site - 1] = sigma
    return KronTerm(coefficient, tuple(factors))


@dataclass(frozen=True, init=False)
class ExchangeSum(KronSum):
    """constant I + zeeman sum_k sigma_z(k) + sum over the edges (i, j, j_xy,
    j_z) of j_xy (sigma_x sigma_x + sigma_y sigma_y)(i, j) + j_z sigma_z
    sigma_z(i, j), kept as that edge list alone: the arguments of
    ``_exchange_plan``, which writes its plan; ``zeeman`` None means no field.

    The constructor refuses, with ContractError, a non-finite field, constant
    or coupling and an edge that is not two sites 1 <= i < j <= n_sites.
    Neither the plan nor the terms are built until first read."""

    zeeman: float | None
    edges: tuple
    constant: float

    def __init__(self, n_sites: int, zeeman, edges, constant: float = 0.0):
        _check_site_count(n_sites)
        edges = tuple(edges)
        for i, j, *_ in edges:
            if not 1 <= i < j <= n_sites:
                raise ContractError(f"exchange edge ({i}, {j}) is not 1 <= i < j <= {n_sites}")
        # zeeman None, no field, is checked as 0
        for value in (constant, zeeman or 0.0, *(v for edge in edges for v in edge[2:])):
            if not math.isfinite(value):
                raise ContractError(f"field, constant and couplings must be finite, got {value}")
        # frozen: the fields are set past the refusing __setattr__
        self.__dict__.update(n_sites=n_sites, zeeman=zeeman, edges=edges, constant=constant)

    @cached_property
    def terms(self) -> tuple[KronTerm, ...]:
        """The operator as KronTerms in its plan's order, built on first read:
        the constant (when nonzero), sigma_z on every site (unless ``zeeman``
        is None), then sigma_x sigma_x, sigma_y sigma_y and sigma_z sigma_z
        per edge."""
        n = self.n_sites
        terms = [KronTerm(self.constant, (None,) * n)] if self.constant else []
        if self.zeeman is not None:
            terms += [_sites_term(self.zeeman, pauli("z"), (k,), n) for k in range(1, n + 1)]
        for i, j, j_xy, j_z in self.edges:
            terms += [_sites_term(c, pauli(a), (i, j), n) for a, c in zip(AXES, (j_xy, j_xy, j_z))]
        return tuple(terms)

    @cached_property
    def plan(self) -> MatvecPlan:
        return _exchange_plan(self.n_sites, self.zeeman, self.edges, self.constant)


def spec_to_kronsum(spec, z_scale: float = 1.0) -> ExchangeSum:
    """Matrix-free form of the Hamiltonian builder's general form: the field
    -mu_b0 and one exchange edge (i, j, J, J * z_scale) per coupling, so
    ``build_general(spec, z_scale)`` is its plan scattered.  Every sigma_z
    sigma_z coupling is scaled by ``z_scale`` (the XXZ anisotropy Delta; 1 is
    isotropic)."""
    edges = [(e.i, e.j, e.strength, e.strength * z_scale) for e in spec.couplings]
    return ExchangeSum(spec.n_sites, -spec.mu_b0, edges)


def total_component_kronsum(axis: str, n: int) -> KronSum:
    """Matrix-free total spin component: (1/2) sigma_axis at each site.  S_z
    is the ExchangeSum of field 1/2 without edges."""
    sigma = pauli(axis)
    if axis == "z":
        return ExchangeSum(n, 0.5, ())
    return KronSum(n, tuple(_sites_term(0.5, sigma, (k,), n) for k in range(1, n + 1)))


def total_spin_squared_kronsum(n: int) -> ExchangeSum:
    """Matrix-free S^2 = (3n/4) I + (1/2) sum_{i<j} sum_axis sigma_axis(i) sigma_axis(j),
    from expanding the squared component sums with sigma^2 = I."""
    pairs = itertools.combinations(range(1, n + 1), 2)
    return ExchangeSum(n, None, [(i, j, 0.5, 0.5) for i, j in pairs], 0.75 * n)


def _scatter_dense(plan: MatvecPlan) -> np.ndarray:
    """A plan without fallback terms as a complex128 2^n x 2^n matrix: the
    diagonal, then each move's weight at (s, s ^ mask) for every s of its
    destination slab.  Moves are written, not summed, so no two may share an
    entry; that holds when all moves with one flip mask come from one site
    set, as in every spec Hamiltonian, S_axis and S^2 plan."""
    dim = plan.diagonal.size
    flat = np.zeros(dim * dim, dtype=np.complex128)
    flat[:: dim + 1] = plan.diagonal
    # entry (s, s ^ mask) is at flat index s (dim + 1) ^ mask, since s dim
    # has no bit below dim
    on_diagonal = np.arange(0, dim * dim, dim + 1)
    for shape, dst, _, weight, mask in plan.moves:
        flat[on_diagonal.reshape(shape)[dst] ^ mask] = weight
    return flat.reshape(dim, dim)


def total_component(axis: str, n: int) -> np.ndarray:
    """Dense total spin component S_axis = (1/2) * sum over sites of the
    lifted Pauli matrix; the 1/2 is the spin-1/2 prefactor with hbar = 1.
    Scattered from the plan of ``total_component_kronsum``."""
    pauli(axis)  # an unknown axis is a ValueError before any site check
    if n < 1:
        raise SiteRangeError(f"site count must be >= 1, got {n}")
    _check_capacity(n, "dense total component")
    return _scatter_dense(total_component_kronsum(axis, n).plan)


def total_spin_squared(n: int) -> np.ndarray:
    """Dense S^2 = S_x^2 + S_y^2 + S_z^2 = n(4 - n)/4 I + sum_{i<j} SWAP_ij;
    eigenvalues s(s+1) with s in {n/2, n/2 - 1, ..., (n mod 2)/2}.
    Scattered from the plan of ``total_spin_squared_kronsum``."""
    if n < 1:
        raise SiteRangeError(f"site count must be >= 1, got {n}")
    _check_capacity(n, "dense total spin squared")
    return _scatter_dense(total_spin_squared_kronsum(n).plan)


def _hermitian_sample_check(op: KronSum, rng, pairs: int = 2, rtol: float = 1e-8) -> None:
    """<x, op y> == conj(<y, op x>) on random probe pairs.  A real plan gets
    float64 probes, so its matvecs stay float64: for a real matrix, x^T A y
    == y^T A x on random real x, y is the whole symmetry condition.  Any
    other plan gets complex probes."""
    dim = op.dimension

    def probe():
        x = rng.standard_normal(dim)
        if op.plan.real:
            # the imaginary part is drawn and dropped, so the seeded stream,
            # and every start vector drawn after the check, is the same for
            # real and complex probes
            rng.standard_normal(dim)
            return x
        return x + 1j * rng.standard_normal(dim)

    for _ in range(pairs):
        x = probe()
        y = probe()
        lhs = np.vdot(x, matvec(op, y))
        rhs = np.conj(np.vdot(y, matvec(op, x)))
        if abs(lhs - rhs) > rtol * max(1.0, abs(lhs), abs(rhs)):
            raise ContractError(
                f"operator fails the Hermitian sample check: <x, Ay> = {lhs:.6e} "
                f"but conj(<y, Ax>) = {rhs:.6e}"
            )


# DGKS reorthogonalization threshold: a second Gram-Schmidt pass runs when
# the first leaves less than this fraction of the vector's norm
_DGKS_ETA = 1 / math.sqrt(2)
# Krylov basis rows held at once (32 float64 rows at n = 20 take 256 MB); a
# full basis restarts keeping the wanted Ritz vectors plus _RESTART_MARGIN.
# In a sweep of 16 to 96 rows over n = 12-20 and k <= 8, 32 is the smallest
# cap within 5 % of the matvecs of 96 rows; every row held costs 8 * 2^n
# bytes and Gram-Schmidt work on each step
_BASIS_CAP = 32
_RESTART_MARGIN = 8


def lanczos_extremal(op: KronSum, which: str = "lowest", k: int = 1,
                     tol: float = 1e-8, max_iter: int | None = None,
                     seed: int = 0) -> Spectrum:
    """k extremal eigenvalues of a Hermitian KronSum via thick-restart Lanczos.

    Full reorthogonalization under the DGKS rule; the Ritz matrix is built
    from the Gram-Schmidt coefficients.  The basis holds at most
    max(32, 3k) vectors, float64 when the operator's plan is real (every
    spec Hamiltonian, S_z and S^2) and complex128 otherwise; a full basis
    keeps the wanted Ritz vectors plus a margin and continues from the
    residual.  The returned eigenvectors are complex128 and C-contiguous
    either way.  A pair converges when its Ritz residual bound and then its
    true residual ||op v - theta v|| fall below tol * ||op||_est, the largest
    Ritz magnitude seen.  One Krylov sequence holds one copy of each distinct
    eigenvalue, so for 1 < k < dim verification passes keep the converged k,
    continue from a fresh random vector and target k + 1 values until the
    first k no longer move (at most k passes).

    ``max_iter`` bounds the Lanczos steps (one matvec each) of the first
    pass and, separately, of each verification pass; the default is
    max(300, 3k).  Deterministic for a fixed seed.  Raises ConvergenceError
    (carrying the best estimates, its message naming the first pass or
    verification pass p of k) when a budget runs out, ContractError if the
    operator fails a random-vector Hermitian check, and SizingError up front
    when twice the plan's ``norm_bound``, squared, is past the double range.
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
    # the norms below square the entries of op x, each at most the bound in
    # size, and of residuals op v - theta v, at most twice it
    bound = op.plan.norm_bound
    if not math.isfinite(4.0 * bound * bound):
        raise SizingError(
            f"the operator's norm bound {bound:.3e} is too large for Lanczos: the squared "
            "norms of its vectors would be past the double range"
        )
    rng = np.random.default_rng(seed)
    _hermitian_sample_check(op, rng)

    real = op.plan.real
    dtype = np.float64 if real else np.complex128
    # past k = cap / 3 the basis grows to 3k rows, so a restart still keeps a
    # verification pass's k + 1 targets plus a margin of about k / 2; 2k + 2
    # rows leave no margin, and k = 20 on a 12-site chain then exhausts its
    # budget
    rows = min(dim, max(_BASIS_CAP, 3 * k))
    basis = np.empty((rows, dim), dtype)
    # upper triangle of tmat[:m, :m] is basis[:m]^H op basis[:m]
    tmat = np.zeros((rows, rows), dtype)

    def project(vec, m):
        # conj(rows @ conj(vec)) is conj(rows) @ vec without copying the
        # rows; on float64 arrays both conj calls are the identity
        coeffs = np.conj(basis[:m] @ vec.conj())
        vec -= basis[:m].T @ coeffs
        return coeffs

    def orthogonalize(vec, m):
        """Project ``vec`` (updated in place) off basis[:m]; return the summed
        coefficients and the remaining norm."""
        before = float(np.linalg.norm(vec))
        coeffs = project(vec, m)
        after = float(np.linalg.norm(vec))
        if after < _DGKS_ETA * before:
            # the pass cancelled most of the norm, so its rounding error is
            # large relative to what is left: one more pass restores
            # orthogonality to working precision
            coeffs += project(vec, m)
            after = float(np.linalg.norm(vec))
        return coeffs, after

    def ritz_pairs(idx):
        vectors = svec[:, idx].T @ basis[:m]
        for v in vectors:
            v /= np.linalg.norm(v)
        return theta[idx], vectors

    def compress(values, vectors):
        basis[: len(values)] = vectors
        tmat[: len(values), : len(values)] = np.diag(values)
        return len(values)

    def fresh():
        """A seeded random vector, orthonormalized against basis[:m]."""
        q = rng.standard_normal(dim)
        if not real:
            q = q + 1j * rng.standard_normal(dim)
        q /= orthogonalize(q, m)[1]
        return q

    norm_est = 0.0
    accepted = None  # (values, vectors) last certified, from the extremal end
    passes = 0  # verification passes started
    want = k
    m = spent = 0
    q = fresh()
    while True:
        basis[m] = q
        w = matvec(op, basis[m])
        m += 1
        spent += 1
        tmat[:m, m - 1], beta = orthogonalize(w, m)
        invariant = m == dim or beta <= 1e-13 * max(norm_est, 1.0)
        if invariant or spent % 5 == 0 or m == rows or spent == max_iter:
            theta, svec = np.linalg.eigh(tmat[:m, :m], UPLO="U")
            norm_est = max(norm_est, float(np.max(np.abs(theta))))
            scale = tol * max(norm_est, 1e-300)
            order = np.arange(m) if which == "lowest" else np.arange(m)[::-1]
            take = order[:want]
            bound = 0.0 if invariant else beta
            converged = take.size == want and bool(np.all(np.abs(bound * svec[m - 1, take]) <= scale))
            if converged and want > k and np.all(np.abs(theta[take[:k]] - accepted[0]) <= scale):
                break  # nothing more extremal exists outside the accepted set
            if converged or spent == max_iter:
                values, vectors = ritz_pairs(take[:k])
                residuals = [np.linalg.norm(matvec(op, v) - t * v) for t, v in zip(values, vectors)]
                if converged and max(residuals) <= scale:
                    accepted = values, vectors
                    if k == 1 or k == dim or passes == k:
                        break
                    # verification: keep the k, target k + 1 from a fresh vector
                    m = compress(values, vectors)
                    passes += 1
                    want = k + 1
                    spent = 0
                    q = fresh()
                    continue
                # a bound can be optimistic: keep iterating within the budget
            if spent == max_iter:
                budget = "the first pass" if passes == 0 else f"verification pass {passes} of {k}"
                raise ConvergenceError(
                    f"Lanczos did not converge: {budget} spent all {spent} of its steps "
                    f"(tol {tol}, norm estimate {norm_est:.3e})",
                    estimates=[(float(t), float(r)) for t, r in zip(values, residuals)],
                )
        if m == rows:
            m = compress(*ritz_pairs(order[: min(want + _RESTART_MARGIN, rows // 2)]))
        if invariant:
            # the complement of an invariant subspace is invariant too
            q = fresh()
        else:
            w /= beta
            q = w

    del basis  # before the complex128 copy of the eigenvectors
    values, vectors = _canonical_order(accepted[0], accepted[1].T)
    vectors = np.ascontiguousarray(vectors, dtype=np.complex128)
    return Spectrum(eigenvalues=values, dimension=dim, eigenvectors=vectors)
