"""Matrix-free Kronecker-structured operators on n-site spin registers.

An operator is a sum of scalar-weighted terms, each term a chain of per-site
2 x 2 factors (None meaning identity).  Site 1 is the leftmost Kronecker
factor and therefore the most significant bit of the state index: site k of
n addresses bit n - k.  A matvec never materializes the 2^n x 2^n matrix.

On first use a KronSum is compiled into a ``MatvecPlan`` kept on the
operator: the local 2 x 2 and 4 x 4 matrices of the terms with at most two
active sites are summed per site set and handed, as each set's local
diagonal and its off-diagonal entries between bit tuples, to
``_write_plan``.  That one plan writer, the only code that knows the slab
layout, turns them into one length-2^n diagonal and weighted moves, refusing
a sum past the double range and a register past ``MAX_STATE_SITES``; terms
with three or more active sites are kept as they are.  A matvec is then one
diagonal multiply, one strided update over 2^n / 2 (one site) or 2^n / 4
(two sites) amplitudes per move, and one pass per active site for each
remaining term.  For the Zeeman-plus-exchange Hamiltonian that is
O((1 + |E| / 2) 2^n) amplitude updates, two moves of weight 2J per coupling
edge, independent of the number of sites per term; scratch is one
length-2^n vector beside the result (three when a term spans three sites).
When every move has one weight (uniform chains and rings, S^2, S_x) that
scratch holds x times the weight, computed once, and each move is a single
add; otherwise it holds each move's weighted slab in turn.  A slab whose
contiguous run is shorter than 8 amplitudes (the last sites of a chain, most
S^2 edges) is iterated along its longest axis instead, so numpy's inner
loop is long; the writer records the shared weight and each move's axis
order in the plan.  The moves run with numpy's ufunc buffer at 256
elements, restored on return: at the default 8192, a slab whose contiguous
runs hold 128-2048 amplitudes took two to three times as long.  Each
amplitude gets the same multiply and the same adds in plan order either
way, so the result is the plain per-move loop's bit for bit.

A plan is real when its diagonal is float64, every move weight is a real
float and no fallback terms remain: every spec Hamiltonian (any XXZ
anisotropy), S_z, S_x and S^2 has a real plan.  ``matvec`` of a real plan
on a float64 state stays float64 end to end, at half the memory traffic of
complex128; every other combination computes in complex128.

Every operator is also a sum of Pauli strings c X^x Z^z
(``KronSum.pauli_strings``), x and z being bit masks and Y = i XZ (the
encoding of Aaronson & Gottesman, PRA 70, 052328, 2004).  By the mixed
product law two strings either commute or anticommute, so [P, Q] is 0 or
2 PQ, and strings are orthogonal, tr(P^H Q) = 2^n delta_PQ, so
``commutator_norm`` gives the exact Frobenius norm of ab - ba as 2^(n/2)
sqrt(sum_R |c_R|^2) over its product strings R: one product per pair of
strings, with nothing of length 2^n.  A dense matrix is scattered from the
strings too: X^x Z^z puts (-1)^parity(z & s) at (s ^ x, s).

The spec Hamiltonian, S_z and S^2 share one shape, a constant and a field on
every site plus exchange couplings on a graph (S_z is the field 1/2 without
edges, S^2 the complete graph at J = 1/2 plus 3n/4).  Each is an
``ExchangeSum``, which keeps only that edge list and checks its values once:
it hands ``_write_plan`` one site set per site and per edge, their local
diagonals and flip-flop entries read straight from the edges, it writes its
Pauli strings from the edges too, and its KronTerms are built only when
read, so a matvec, a dense matrix or a commutator norm of these operators
constructs no term.  A dense H, S_axis or S^2 compiles no plan and equals
the lifted forms bitwise.

That complete graph costs S^2 n(n - 1) quarter-length moves per matvec.
``total_spin_squared_ladder`` applies S^2 = S_- S_+ + S_z (S_z + 1) instead:
S_+ and S_- are plans of one half-length move of weight 1 per site, written
by ``_write_plan`` with no term built, and S_z (S_z + 1) is one diagonal, so
S^2 x is 2n slab updates and a diagonal pass.  Its columns are the dense
S^2's bitwise.

``lanczos_extremal`` finds extremal eigenvalues using only matvec.  It
first checks that the operator is Hermitian, exactly, from its Pauli
strings: (X^x Z^z)^H = (-1)^parity(x & z) X^x Z^z, so with equal strings
merged the coefficient of each even string must be real and that of each
odd one imaginary.  The same merge gives the l1 norm sum_R |c_R|, a bound
on ||op||_2 and on the entries of op x over max |x| (each string is a
signed permutation), and an operator whose vector norms could square past
the double range by it is refused.  Neither check compiles the plan; the
first matvec does.  The checks draw nothing, so the seed fixes every random
vector of a solve in order: the start vector, then any fresh vectors, each
drawn by ``_draw`` in the solve's dtype.  For a real plan the start
vector, the Krylov basis and the projections are float64 (a real symmetric
operator has a real orthonormal eigenbasis); otherwise they are
complex128.  Each new vector op q is first projected off the last two rows
of the stored basis B (the three-term Lanczos step).  Where
orthogonality to the rest of B is at risk, one classical Gram-Schmidt pass
over the whole of B follows (no ghost eigenvalues at desk scale): on the
first step from a fresh vector or a thick restart, whose couplings to the
kept rows are real coefficients, and on every step when k > 1, whose
verification passes keep vectors coupled at residual size.  A k = 1 solve
skips the pass on its other steps, as in selective reorthogonalization
(Simon, Math. Comp. 42:115, 1984), but measures the overlaps with B instead
of estimating them: on each Ritz-check step, and once one passes
min(1e-12, 1e-4 tol) times the vector's norm the pass is finished from
them and made on every step up to the next restart.  The DGKS rule guards
each pass: a second one runs only when it leaves less than 1/sqrt(2) of the
norm (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30:772, 1976: "twice is
enough").  The coefficients of the projections, summed, are a column of
the Ritz matrix B^H op B, so one step extends the search space in every
case: compress B to chosen Ritz vectors, then continue from the residual
when the fixed-size basis is full (thick restart, Wu & Simon, SIAM J.
Matrix Anal. Appl. 22:602, 2000), or from a fresh random vector after an
invariant subspace and, for k > 1, in verification passes that keep the
converged k and target k + 1 until the first k stop moving, so degenerate
extremal eigenvalues are reported with their multiplicity.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from ._common import as_matrix, frobenius, is_finite_number, is_integer, to_number
from .errors import ContractError, ConvergenceError, ShapeError, SiteRangeError, SizingError
from .dense_linalg import Spectrum, _canonical_order
from .kron_core import kron
from .spin_algebra import AXES, _check_capacity, pauli

# numpy raises ValueError, not MemoryError, for an array over intp-max bytes;
# past this size a complex128 state is refused before anything is allocated
MAX_STATE_SITES = (np.iinfo(np.intp).max // 16).bit_length() - 1

# Pauli strings a KronSum expands into at most: a general term on k sites
# gives up to 4^k, and the expansion peaks near 123 B per string (2^21
# strings, a random 10-site term and its adjoint, took 2.3 s and 246 MiB)
MAX_PAULI_STRINGS = 1 << 22


@dataclass(frozen=True, eq=False)
class KronTerm:
    """One scalar-weighted factor chain; factors[k] = None means identity at
    site k + 1, anything else must be a 2 x 2 complex matrix (stored as a
    read-only copy)."""

    coefficient: complex
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficient", to_number(complex, self.coefficient, "coefficient"))
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


def _check_site_count(n_sites) -> int:
    """``n_sites`` as a Python int, so that ``1 << n_sites`` is one too;
    ContractError unless it is a positive integer (Python or numpy)."""
    if not is_integer(n_sites) or n_sites < 1:
        raise ContractError(f"n_sites must be a positive integer, got {n_sites!r}")
    return int(n_sites)


@dataclass(frozen=True, eq=False)
class KronSum:
    """Sum of KronTerms over a fixed register of n_sites spin-1/2 sites."""

    n_sites: int
    terms: tuple[KronTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "n_sites", _check_site_count(self.n_sites))
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
    def pauli_strings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The operator as sum_r c[r] X^x[r] Z^z[r]: int64 bit masks x and z
        (site k at bit n - k) and complex coefficients c, Y being i XZ.  Each
        factor f expands as sum_P tr(P^T f) / 2 P over P in I, X, Z and XZ,
        which are real and orthogonal, so a term on k sites gives up to 4^k
        strings; each factor's zero weights are dropped.  Built on first use
        and kept with the operator like ``plan``; SizingError past 63 sites
        (``_check_string_sites``) and, counted from the weights before any
        string is written, past ``MAX_PAULI_STRINGS`` strings."""
        n = _check_string_sites(self.n_sites)
        expansions = [[np.einsum("kab,ab->k", _STRING_FACTORS, term.factors[slot]) / 2
                       for slot in term.active_slots] for term in self.terms]
        count = sum(math.prod(map(np.count_nonzero, factors)) for factors in expansions)
        if count > MAX_PAULI_STRINGS:
            raise SizingError(f"the {n}-site operator expands into {count} Pauli strings, "
                              f"past the cap of {MAX_PAULI_STRINGS}")
        strings = [(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, complex))]
        for term, factors in zip(self.terms, expansions):
            x = z = np.zeros(1, np.int64)
            c = np.array([term.coefficient])
            for slot, weights in zip(term.active_slots, factors):
                k = np.flatnonzero(weights)
                x = (x[:, None] | (k & 1) << (n - 1 - slot)).ravel()
                z = (z[:, None] | (k >> 1) << (n - 1 - slot)).ravel()
                c = (c[:, None] * weights[k]).ravel()
            strings.append((x, z, c))
        return _frozen(*map(np.concatenate, zip(*strings)))


def _check_string_sites(n: int) -> int:
    """``n`` unless it passes 63 sites, whose Pauli strings do not fit int64
    bit masks: SizingError."""
    if n > 63:
        raise SizingError(f"Pauli strings on {n} sites do not fit int64 bit masks")
    return n


def _frozen(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


# X^x Z^z at index x + 2 z: I, X, Z and XZ (Y = i XZ)
_STRING_FACTORS = np.array([np.eye(2), pauli("x"), pauli("z"), pauli("x") @ pauli("z")])


@dataclass(frozen=True, eq=False)
class MatvecPlan:
    """A KronSum compiled for ``matvec``.

    ``diagonal`` is the summed diagonal of every term with at most two
    active sites (float64 when its imaginary part is exactly zero).  Each
    move ``(shape, dst, src, weight, axes)`` adds ``weight * x_view[src]``
    to ``y_view[dst]``, where ``*_view`` is the state reshaped to ``shape``
    with one length-2 axis per site of the move; ``weight`` is a float when
    its imaginary part is exactly zero, else a complex, and ``axes`` is the
    axis order in which ``matvec`` iterates the slab view, or None for the
    view's own (``_long_axis_last``).  ``shared_weight`` is the weight
    every move carries, or None when two weights differ or there are no
    moves; equal means the same double in each part, signed zeros told
    apart.
    ``fallback`` holds the terms with three or more active sites, applied
    site by site.  ``real`` is true when the diagonal is float64, every
    weight a float and ``fallback`` empty, i.e. the operator maps real
    states to real states.  A plan carries no norm: Lanczos bounds the
    operator by the l1 norm of its merged Pauli strings, before any plan is
    compiled.
    """

    diagonal: np.ndarray
    moves: tuple
    fallback: tuple[KronTerm, ...]
    real: bool
    shared_weight: float | complex | None

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


def _long_axis_last(lengths) -> tuple | None:
    """The axis order that iterates a C-ordered view of these axis lengths
    along its longest axis, or None when its last axis runs over 8 or more
    amplitudes (one 64-byte cache line of float64) or is longest already.
    Of equal lengths the later (smaller stride) axis counts as longest; the
    other axes keep their order."""
    if lengths[-1] >= 8:
        return None
    order = range(len(lengths))
    # max keeps the first of equal keys, so the later axis of equal lengths
    longest = max(reversed(order), key=lengths.__getitem__)
    if longest == order[-1]:
        return None
    return tuple(a for a in order if a != longest) + (longest,)


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


@cache
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


# finite values can sum past the double range; the writer refuses that
@np.errstate(over="ignore", invalid="ignore")
def _compile(op: KronSum) -> MatvecPlan:
    """Local matrices are summed per site set in term order; each set, in
    order of first appearance, then goes to ``_write_plan`` as its local
    diagonal and its nonzero off-diagonal entries.  Where no two site sets
    interleave in term order (spec Hamiltonians, S_axis, S^2), each entry is
    the sum the site passes form."""
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

    site_sets = []
    for slots, local in locals_by_slots.items():
        k = len(slots)
        entries = []
        states = list(itertools.product((0, 1), repeat=k))
        for out_bits, in_bits in itertools.product(states, repeat=2):
            weight = complex(local[out_bits + in_bits])
            if out_bits == in_bits or weight == 0:
                continue
            if weight.imag == 0:
                weight = weight.real
            entries.append((out_bits, in_bits, weight))
        site_sets.append((slots, np.diagonal(local.reshape(1 << k, 1 << k)), entries))
    return _write_plan(op.n_sites, site_sets, fallback)


@np.errstate(over="ignore", invalid="ignore")
def _write_plan(n: int, site_sets, fallback) -> MatvecPlan:
    """The one writer of a ``MatvecPlan``, and the one place that knows the
    slab layout.  Each site set ``(slots, local_diagonal, entries)`` is in
    local terms: ``local_diagonal`` holds the 2^k diagonal values of the k
    slots (the first slot's bit most significant), or is 0, and each entry
    ``(out_bits, in_bits, weight)`` is an off-diagonal value with one bit per
    slot.  The writer adds the local diagonal to the plan's diagonal over
    the site set's slab and emits each entry as a move, with its slab
    indices and the slab's sweep axes.  Raises SizingError, before
    allocating anything, when ``n`` passes ``MAX_STATE_SITES``, and when a
    diagonal entry or a move weight is past the double range."""
    if n > MAX_STATE_SITES:
        raise SizingError(f"a {n}-site state has 2^{n} amplitudes, past numpy's index range "
                          f"(at most {MAX_STATE_SITES} sites)")
    # zeros plus each slab, not np.full: numpy takes zeroed memory from
    # calloc, which maps a large array afresh; np.full's malloc'd array
    # raised the peak RSS of a 16-site chain Lanczos solve by 3.5 MB.  The
    # diagonal turns complex128 only once a site set brings an imaginary
    # part; an all-zero local diagonal (a ladder plan's, an XX edge's) is
    # skipped, which changes no bit: no entry is ever -0.0
    diagonal = np.zeros(1 << n)
    moves = []
    for slots, local_diagonal, entries in site_sets:
        shape = _slab_shape(slots, n)
        local_diagonal = np.asarray(local_diagonal)
        if np.iscomplexobj(local_diagonal) and np.count_nonzero(local_diagonal.imag):
            diagonal = diagonal.astype(np.complex128, copy=False)
        else:
            local_diagonal = local_diagonal.real
        if np.count_nonzero(local_diagonal):
            part = diagonal.reshape(shape)
            part += local_diagonal.reshape([1, 2] * len(slots) + [1])
        # the slab view keeps every other axis of the reshaped state
        axes = _long_axis_last(shape[::2])
        for out_bits, in_bits, weight in entries:
            moves.append((shape, _slab_index(out_bits), _slab_index(in_bits), weight, axes))

    if diagonal.dtype == np.complex128 and not diagonal.imag.any():
        diagonal = diagonal.real.copy()
    if not (np.isfinite(diagonal).all() and all(cmath.isfinite(move[3]) for move in moves)):
        raise SizingError(f"the {n}-site operator sums to an entry past the double range")
    diagonal.setflags(write=False)
    real = (diagonal.dtype == np.float64 and not fallback
            and all(isinstance(move[3], float) for move in moves))
    # signed zeros are told apart: they multiply x differently
    weights = {repr(complex(move[3])) for move in moves}
    shared = moves[0][3] if len(weights) == 1 else None
    return MatvecPlan(diagonal, tuple(moves), tuple(fallback), real, shared)


# sigma_z on one site and sigma_z sigma_z on two, as local diagonals
_Z_SIGNS = np.array([1.0, -1.0])
_ZZ_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
# sigma_x sigma_x + sigma_y sigma_y is 2 at 01 <- 10 and at 10 <- 01: the
# (out, in) bits of an exchange edge's two moves
_FLIP_FLOPS = (((0, 1), (1, 0)), ((1, 0), (0, 1)))
# sigma^+ = |0><1| (bit 0 is spin up, sigma_z = +1): the (out, in) bits of a
# raising move; a lowering move swaps them
_RAISE = ((0,), (1,))


def _apply_site(src, f, slot: int, n: int, out) -> None:
    """out = (I x ... x f x ... x I) src with f at 0-based slot, site k + 1
    being bit n - k - 1.  Output half b sums, over the nonzero f[b, c] with
    c = 0 then 1, f[b, c] times input half c, the first product written and
    the second added; a row with no nonzero entry is f[b, b] times half b."""
    v = src.reshape(1 << slot, 2, 1 << (n - slot - 1))
    o = out.reshape(v.shape)
    for b, row in enumerate(f.tolist()):
        first, *rest = [c for c in (0, 1) if row[c]] or [b]
        half = np.multiply(v[:, first], row[first], out=o[:, b])
        for c in rest:
            half += row[c] * v[:, c]


# numpy's ufunc buffer, in elements, while ``matvec`` runs its moves.  At the
# default 8192, a quarter-slab add of a 16-site chain whose contiguous runs
# hold 128-2048 amplitudes took 27-33 us, against 9-16 us at 256; runs of
# 4096 or more took 8-10 us at either size (best of 200, 2 vCPUs, numpy 2.4)
_SLAB_BUFSIZE = 256


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
    axis (each move's ``axes``), and the moves run with numpy's ufunc
    buffer at 256 elements, restored on return.  None of these changes a bit
    of y.

    When the plan is real and ``x`` is float64 the result is float64, equal
    to the real part of the complex128 result on the same state; in every
    other case ``x`` is converted to and the result returned in complex128.
    """
    return _apply_plan(op.plan, x)


def _apply_plan(plan: MatvecPlan, x) -> np.ndarray:
    """``matvec`` of a compiled plan, which needs no KronSum: the ladder
    plans of ``total_spin_squared_ladder`` have none."""
    x = np.asarray(x)
    real = plan.real and x.dtype == np.float64
    x = np.ascontiguousarray(x, dtype=np.float64 if real else np.complex128)
    dim = plan.diagonal.size
    if x.shape != (dim,):
        raise ShapeError(f"state length {x.shape} does not match dimension {dim}")
    y = plan.diagonal * x
    shared = plan.shared_weight
    if shared is None:
        source = x
        scratch = np.empty_like(x)
    else:
        source = shared * x
    # np.errstate restores the caller's buffer size on exit
    with np.errstate():
        np.setbufsize(_SLAB_BUFSIZE)
        for shape, dst, src, weight, axes in plan.moves:
            out = y.reshape(shape)[dst]
            part = source.reshape(shape)[src]
            if axes:
                out = out.transpose(axes)
                part = part.transpose(axes)
            if shared is None:
                weighted = scratch[: part.size].reshape(part.shape)
                part = np.multiply(weight, part, out=weighted, order="C")
            # order="C" keeps the axis order given, where numpy would
            # otherwise iterate the smallest stride innermost
            np.add(out, part, out=out, order="C")
    if plan.fallback:
        n = dim.bit_length() - 1
        ping = np.empty(dim, dtype=np.complex128)
        pong = np.empty(dim, dtype=np.complex128)
        for term in plan.fallback:
            v = x
            for slot in term.active_slots:
                out = pong if v is ping else ping
                _apply_site(v, term.factors[slot], slot, n, out)
                v = out
            # a fallback term has three or more sites, so v is never x
            v *= term.coefficient
            y += v
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


def _sum_strings(x: np.ndarray, z: np.ndarray, c: np.ndarray) -> tuple:
    """Merge equal strings of ``sum_r c[r] X^x[r] Z^z[r]``: the distinct
    (x, z), in ascending order, and the real and imaginary parts of each one's
    summed coefficient.  ``np.bincount`` adds each string's coefficients in
    order of |c|, and those of equal |c| in rounds that take one of each
    distinct value, so c and -c meet in adjacent pairs: a structural zero
    sums to exactly 0.0, and equal terms of opposite sign cancel before
    their partial sum can pass the double range (reduceat's pairwise sums
    leave rounding there, and all of one sign first can overflow)."""
    magnitude = np.abs(c)
    order = np.lexsort((c.imag, c.real, magnitude, z, x))
    x, z, c, magnitude = x[order], z[order], c[order], magnitude[order]
    # x and z are non-negative, so the first entry always starts a string
    starts = (np.diff(x, prepend=-1) != 0) | (np.diff(z, prepend=-1) != 0)
    # each coefficient's rank among the equal ones of its string, and the
    # run of equal |c| it sits in: a stable sort by run, then rank
    index = np.arange(c.size)
    same, new_run = ~starts, starts.copy()
    same[1:] &= c[1:] == c[:-1]
    new_run[1:] |= magnitude[1:] != magnitude[:-1]
    rank = index - np.maximum.accumulate(np.where(same, 0, index))
    order = np.argsort(np.cumsum(new_run) * c.size + rank, kind="stable")
    string = np.cumsum(starts) - 1
    sums = [np.bincount(string, weights=part[order]) for part in (c.real, c.imag)]
    return x[starts], z[starts], *sums


def commutator_norm(a: KronSum, b: KronSum) -> float:
    """Exact Frobenius norm of ab - ba, read from the Pauli strings without
    any length-2^n array.

    Z^z X^x = (-1)^parity(z & x) X^x Z^z, so P = X^xa Z^za and Q = X^xb Z^zb
    anticommute when their symplectic form (za & xb) ^ (xa & zb) has odd
    parity, and then [P, Q] = 2 PQ = +-2 X^(xa ^ xb) Z^(za ^ zb), of sign
    (-1)^parity(za & xb); otherwise they commute.  The products are summed
    per string (``_sum_strings``) and, the strings being orthogonal with
    squared norm 2^n, the norm is 2^(n/2) times that of the sums.  Work is
    one product per pair of strings; memory is one int64 AND and two uint8
    popcounts per pair, then the anticommuting pairs.  Raises ContractError
    when the site counts differ and SizingError past 63 sites or
    ``MAX_PAULI_STRINGS`` strings, whose strings refuse to be written, or
    when a product, a sum or the norm is past the double range.
    """
    if a.n_sites != b.n_sites:
        raise ContractError(f"commutator of operators on {a.n_sites} and {b.n_sites} sites")
    xa, za, ca = a.pauli_strings
    xb, zb, cb = b.pauli_strings
    # the symplectic form (za & xb) ^ (xa & zb) has the parity of the sum
    # of the two popcounts, at most 126: one uint8 per pair marks the
    # anticommuting pairs
    odd = np.bitwise_count(za[:, None] & xb)
    odd += np.bitwise_count(xa[:, None] & zb)
    odd &= 1
    i, j = np.nonzero(odd)
    del odd
    # an overflow leaves an inf or NaN in the sums, and so in the norm
    with np.errstate(over="ignore", invalid="ignore"):
        # ca cb (+-2), not +-2 ca cb, which overflows on 1e308 * 0.5
        c = ca[i] * cb[j] * np.where(np.bitwise_count(za[i] & xb[j]) & 1, -2.0, 2.0)
        sums = _sum_strings(xa[i] ^ xb[j], za[i] ^ zb[j], c)[2:]
        norm = frobenius(sums) * 2.0 ** (a.n_sites / 2)
    if not math.isfinite(norm):
        raise SizingError(f"the commutator of two {a.n_sites}-site operators has a coefficient "
                          "or norm past the double range")
    return norm


def _sites_term(coefficient, sigma, sites, n: int) -> KronTerm:
    """coefficient times ``sigma`` on each of the given 1-based sites."""
    factors = [None] * n
    for site in sites:
        factors[site - 1] = sigma
    return KronTerm(coefficient, tuple(factors))


@dataclass(frozen=True, init=False, eq=False, repr=False)
class ExchangeSum(KronSum):
    """constant I + zeeman sum_k sigma_z(k) + sum over the edges (i, j, j_xy,
    j_z) of j_xy (sigma_x sigma_x + sigma_y sigma_y)(i, j) + j_z sigma_z
    sigma_z(i, j), kept as that edge list alone, from which its plan is
    written; ``zeeman`` None means no field.

    The constructor refuses, with ContractError, a non-finite field, constant
    or coupling and an edge that is not four entries whose sites are
    integers (Python or numpy, not bool) with 1 <= i < j <= n_sites.
    Neither the plan nor the terms are built until first read."""

    zeeman: float | None
    edges: tuple
    constant: float

    def __init__(self, n_sites: int, zeeman, edges, constant: float = 0.0):
        n_sites = _check_site_count(n_sites)
        edges = tuple(edges)
        for edge in edges:
            if len(edge) != 4:
                raise ContractError(f"exchange edge {edge!r} is not (i, j, j_xy, j_z)")
            i, j = edge[:2]
            if not (is_integer(i) and is_integer(j)):
                raise ContractError(f"exchange edge sites must be integers, got ({i!r}, {j!r})")
            if not 1 <= i < j <= n_sites:
                raise ContractError(f"exchange edge ({i}, {j}) is not 1 <= i < j <= {n_sites}")
        # zeeman None, no field, is checked as 0
        for value in (constant, zeeman or 0.0, *(v for edge in edges for v in edge[2:])):
            if not is_finite_number(value):
                raise ContractError(f"field, constant and couplings must be finite, got {value}")
        # frozen: the fields are set past the refusing __setattr__
        self.__dict__.update(n_sites=n_sites, zeeman=zeeman, edges=edges, constant=constant)

    def __repr__(self) -> str:
        return (f"ExchangeSum(n_sites={self.n_sites!r}, zeeman={self.zeeman!r}, "
                f"edges={self.edges!r}, constant={self.constant!r})")

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
        """Written straight from the edge list in ``terms`` order, equal to
        ``_compile`` of the terms bitwise without building a local matrix."""
        n = self.n_sites
        site_sets = [((), self.constant, ())] if self.constant else []
        if self.zeeman:
            site_sets += [((slot,), self.zeeman * _Z_SIGNS, ()) for slot in range(n)]
        for i, j, j_xy, j_z in self.edges:
            flips = [(*bits, 2.0 * j_xy) for bits in _FLIP_FLOPS] if j_xy else ()
            site_sets.append(((i - 1, j - 1), j_z * _ZZ_SIGNS, flips))
        return _write_plan(n, site_sets, ())

    @cached_property
    def pauli_strings(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Written straight from the edge list in ``terms`` order, float64
        coefficients: the constant as the identity string (when nonzero), Z
        on every site (unless ``zeeman`` is None), then per edge XX (j_xy),
        (XZ)(XZ) (-j_xy, as YY = -(XZ)(XZ)) and ZZ (j_z).  SizingError past
        63 sites, as for any KronSum."""
        n = _check_string_sites(self.n_sites)
        strings = [(0, 0, self.constant)] if self.constant else []
        if self.zeeman is not None:
            strings += [(0, 1 << (n - k), self.zeeman) for k in range(1, n + 1)]
        for i, j, j_xy, j_z in self.edges:
            m = (1 << (n - i)) | (1 << (n - j))
            strings += [(m, 0, j_xy), (m, m, -j_xy), (0, m, j_z)]
        x, z, c = zip(*strings) if strings else ((), (), ())
        return _frozen(np.array(x, np.int64), np.array(z, np.int64), np.array(c, np.float64))


def spec_to_kronsum(spec, z_scale: float = 1.0) -> ExchangeSum:
    """Matrix-free form of the Hamiltonian builder's general form: the field
    -mu_b0 and one exchange edge (i, j, J, J * z_scale) per coupling, so
    ``build_general(spec, z_scale)`` is its strings scattered.  Every sigma_z
    sigma_z coupling is scaled by ``z_scale`` (the XXZ anisotropy Delta; 1 is
    isotropic)."""
    edges = [(e.i, e.j, e.strength, e.strength * z_scale) for e in spec.couplings]
    return ExchangeSum(spec.n_sites, -spec.mu_b0, edges)


def total_component_kronsum(axis: str, n: int) -> KronSum:
    """Matrix-free total spin component: (1/2) sigma_axis at each site.  S_z
    is the ExchangeSum of field 1/2 without edges.  ValueError for an
    unknown axis, then ContractError unless ``n`` is a positive integer."""
    sigma = pauli(axis)
    n = _check_site_count(n)
    if axis == "z":
        return ExchangeSum(n, 0.5, ())
    return KronSum(n, tuple(_sites_term(0.5, sigma, (k,), n) for k in range(1, n + 1)))


def total_spin_squared_kronsum(n: int) -> ExchangeSum:
    """Matrix-free S^2 = (3n/4) I + (1/2) sum_{i<j} sum_axis sigma_axis(i) sigma_axis(j),
    from expanding the squared component sums with sigma^2 = I.
    ContractError unless ``n`` is a positive integer."""
    n = _check_site_count(n)
    pairs = itertools.combinations(range(1, n + 1), 2)
    return ExchangeSum(n, None, [(i, j, 0.5, 0.5) for i, j in pairs], 0.75 * n)


def total_spin_squared_ladder(n: int):
    """S^2 x as S_- (S_+ x) + S_z (S_z + 1) x: returns the function taking a
    length-2^n state x to S^2 x, float64 for a float64 state and complex128
    otherwise, as ``matvec`` returns.  S_+ = sum_k sigma^+(k) and S_- = sum_k
    sigma^-(k) are plans of one single-site move of weight 1 per site and a
    zero diagonal, and d = z (z + 1) is formed once from S_z's plan diagonal
    z.  That is 2n half-length slab updates and one diagonal pass, against
    the n(n - 1) quarter-length moves of ``total_spin_squared_kronsum``'s
    complete graph.  Columns are the dense S^2's bit for bit (every sum is of
    small integers and quarter-integers); on other states the two agree to
    rounding.  ContractError unless ``n`` is a positive integer."""
    n = _check_site_count(n)
    raising, lowering = (
        _write_plan(n, [((slot,), 0.0, [(*bits, 1.0)]) for slot in range(n)], ())
        for bits in (_RAISE, _RAISE[::-1])
    )
    z = total_component_kronsum("z", n).plan.diagonal
    shift = z * (z + 1.0)

    def spin_squared(x) -> np.ndarray:
        x = np.asarray(x)
        y = _apply_plan(lowering, _apply_plan(raising, x))
        y += shift * x
        return y

    return spin_squared


# finite strings can sum past the double range; that is refused
@np.errstate(over="ignore", invalid="ignore")
def _scatter_dense(op: KronSum) -> np.ndarray:
    """The operator as a complex128 2^n x 2^n matrix, read from its Pauli
    strings alone: c X^x Z^z puts c (-1)^parity(z & s) at (s ^ x, s), the
    strings that share an x mask summed in string order into one row.
    SizingError when an entry is past the double range."""
    x, z, c = op.pauli_strings
    states = np.arange(op.dimension)
    masks, row = np.unique(x, return_inverse=True)
    signed = np.where(np.bitwise_count(z[:, None] & states) & 1, -c[:, None], c[:, None])
    rows = np.zeros((masks.size, states.size), dtype=signed.dtype)
    for k, r in enumerate(row.tolist()):
        rows[r] += signed[k]
    del signed
    if not np.isfinite(rows).all():
        raise SizingError(f"the {op.n_sites}-site operator sums to an entry past the double range")
    dense = np.zeros((states.size, states.size), dtype=np.complex128)
    dense[states ^ masks[:, None], states] = rows
    return dense


def _check_dense_site_count(n) -> int:
    """``n`` as a Python int: SiteRangeError for an integer below 1, as the
    dense builders have always raised, ContractError for a non-integer."""
    if is_integer(n) and n < 1:
        raise SiteRangeError(f"site count must be >= 1, got {n}")
    return _check_site_count(n)


def total_component(axis: str, n: int) -> np.ndarray:
    """Dense total spin component S_axis = (1/2) * sum over sites of the
    lifted Pauli matrix; the 1/2 is the spin-1/2 prefactor with hbar = 1.
    Scattered from the Pauli strings of ``total_component_kronsum``."""
    pauli(axis)  # an unknown axis is a ValueError before any site check
    n = _check_dense_site_count(n)
    _check_capacity(n, "dense total component")
    return _scatter_dense(total_component_kronsum(axis, n))


def total_spin_squared(n: int) -> np.ndarray:
    """Dense S^2 = S_x^2 + S_y^2 + S_z^2 = n(4 - n)/4 I + sum_{i<j} SWAP_ij;
    eigenvalues s(s+1) with s in {n/2, n/2 - 1, ..., (n mod 2)/2}.
    Scattered from the Pauli strings of ``total_spin_squared_kronsum``."""
    n = _check_dense_site_count(n)
    _check_capacity(n, "dense total spin squared")
    return _scatter_dense(total_spin_squared_kronsum(n))


# relative tolerance of the Hermitian check
_HERMITIAN_RTOL = 1e-8


def _draw(rng, dim: int, real: bool) -> np.ndarray:
    """Every seeded random vector of a solve: standard normal float64, plus
    an independent standard normal imaginary part unless ``real``."""
    x = rng.standard_normal(dim)
    return x if real else x + 1j * rng.standard_normal(dim)


# an overflow leaves an inf or NaN in the returned bound, which is refused
@np.errstate(over="ignore", invalid="ignore")
def _check_hermitian(op: KronSum) -> float:
    """ContractError unless op is Hermitian, read exactly from its Pauli
    strings; otherwise the l1 norm sum_R |c_R| of the merged strings.
    (X^x Z^z)^H = Z^z X^x = (-1)^parity(x & z) X^x Z^z, so with the equal
    strings merged, the anti-Hermitian part (op - op^H) / 2 has coefficient
    i Im c on each string of even parity and Re c on each odd one.  Refused
    when its norm passes _HERMITIAN_RTOL times that of op (the string norms
    are the Frobenius norms over 2^(n/2)).  Each string is a signed
    permutation, all its entries of modulus 1, so the l1 norm bounds
    ||op||_2 and every entry of op x over max |x|; inf or NaN when past the
    double range.  No vector of length 2^n is formed and no draw is made."""
    x, z, re, im = _sum_strings(*op.pauli_strings)
    anti = frobenius(np.where(np.bitwise_count(x & z) & 1, re, im))
    whole = frobenius([re, im])
    if anti > _HERMITIAN_RTOL * whole:
        raise ContractError(
            f"operator is not Hermitian: its anti-Hermitian part has Frobenius norm "
            f"{anti:.6e} times 2^(n/2), against {whole:.6e} for the whole"
        )
    return float(np.sum(np.hypot(re, im)))


def _overlaps(rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """conj(rows) @ vec, computed as conj(rows @ conj(vec)) without copying
    the rows; on float64 arrays both conj calls are the identity."""
    return np.conj(rows @ vec.conj())


def _project(rows: np.ndarray, vec: np.ndarray, coeffs=None) -> np.ndarray:
    """Project ``vec`` (updated in place) off ``rows``; return the
    coefficients, measured here unless given."""
    if coeffs is None:
        coeffs = _overlaps(rows, vec)
    vec -= rows.T @ coeffs
    return coeffs


# DGKS reorthogonalization threshold: a second Gram-Schmidt pass runs when
# the first leaves less than this fraction of the vector's norm
_DGKS_ETA = 1 / math.sqrt(2)


def _orthogonalize(rows: np.ndarray, vec: np.ndarray, coeffs=None) -> tuple:
    """One classical Gram-Schmidt pass of ``vec`` (updated in place) off
    ``rows``, from the given overlaps if measured already, repeated under the
    DGKS rule; return the summed coefficients and the remaining norm."""
    before = float(np.linalg.norm(vec))
    coeffs = _project(rows, vec, coeffs)
    after = float(np.linalg.norm(vec))
    if after < _DGKS_ETA * before:
        # the pass cancelled most of the norm, so its rounding error is
        # large relative to what is left: one more pass restores
        # orthogonality to working precision
        coeffs += _project(rows, vec)
        after = float(np.linalg.norm(vec))
    return coeffs, after


def _loss_bound(k: int, tol: float) -> float | None:
    """The largest overlap with the basis, relative to ||w||, that a Lanczos
    step may leave in w, or None when every step makes the full pass.

    k > 1 makes every pass: its verification passes lock vectors whose
    couplings are of residual size, and Simon's omega-recurrence (Math.
    Comp. 42:115, 1984) underestimated the loss after its thick restarts
    (at most 1e-10 estimated against 0.26 reached with k = 8 on a 12-site
    ring).  For k = 1 the bound scales with tol: at a fixed 1e-12, most
    solves at tol 1e-12 and 1e-13 spent their budget."""
    return min(1e-12, 1e-4 * tol) if k == 1 else None


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

    Each step projects op q off the last two basis rows, then makes one full
    Gram-Schmidt pass, repeated under the DGKS rule, where orthogonality is
    at risk: on the first step from a fresh vector or a restart and on every
    step when k > 1.  A k = 1 solve measures its overlaps with the basis on
    each Ritz-check step (every fifth) instead, and once one passes
    min(1e-12, 1e-4 tol) times the vector's norm it finishes the pass from
    them and makes the pass on every step to the next restart.  The Ritz
    matrix is built from the summed coefficients.  The basis holds at most
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
    max(300, 3k).  Deterministic for a fixed seed, which fixes the start
    vector, then any fresh vectors, each drawn in the solve's dtype
    (float64 for a real plan); seeded streams changed when the start vector
    became the first draw.  Raises ConvergenceError (carrying the best
    estimates, its message naming the first pass or verification pass p of
    k) when a budget runs out, and up front, before any draw or matvec,
    ContractError when ``which`` is neither 'lowest' nor 'highest', ``k`` or
    ``max_iter`` is not an integer, ``seed`` not a non-negative one (Python
    or numpy integers; a bool is refused) or ``tol`` not finite and
    positive, ContractError when the operator is not Hermitian: the
    Frobenius norm of its anti-Hermitian part, read exactly from its merged
    Pauli strings, passes 1e-8 times that of the operator, and SizingError
    when it expands into more than ``MAX_PAULI_STRINGS`` strings or twice
    the l1 norm of those strings, sum_R |c_R|, squared, is past the double
    range.  An operator either check refuses compiles no plan.
    """
    if which not in ("lowest", "highest"):
        raise ContractError(f"which must be 'lowest' or 'highest', got {which!r}")
    if not is_integer(k):
        raise ContractError(f"k must be an integer, got {k!r}")
    k = int(k)
    if not (is_finite_number(tol) and tol > 0):
        raise ContractError(f"tol must be a finite positive number, got {tol}")
    if not is_integer(seed) or seed < 0:
        raise ContractError(f"seed must be a non-negative integer, got {seed!r}")
    dim = op.dimension
    if not 1 <= k <= dim:
        raise ContractError(f"k must be in 1..{dim}, got {k}")
    if max_iter is None:
        max_iter = max(300, 3 * k)
    # every budget test is spent == max_iter, which a float such as 8.5
    # never meets
    if not is_integer(max_iter):
        raise ContractError(f"max_iter must be an integer, got {max_iter!r}")
    max_iter = int(max_iter)
    if max_iter < k:
        raise ContractError(f"max_iter {max_iter} cannot deliver k = {k} values")
    # the norms below square the entries of op x, each at most the bound
    # times max |x| in size, and of residuals op v - theta v, at most twice
    # it; the plan is compiled only once both checks pass
    bound = _check_hermitian(op)
    if not math.isfinite(4.0 * bound * bound):
        raise SizingError(
            f"the operator's norm bound {bound:.3e} is too large for Lanczos: the squared "
            "norms of its vectors would be past the double range"
        )
    rng = np.random.default_rng(seed)

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
        """Write a seeded random vector, orthonormalized against basis[:m],
        into basis[m]."""
        q = _draw(rng, dim, real)
        np.divide(q, _orthogonalize(basis[:m], q)[1], out=basis[m])

    loss_bound = _loss_bound(k, tol)
    norm_est = 0.0
    accepted = None  # (values, vectors) last certified, from the extremal end
    passes = 0  # verification passes started
    want = k
    m = spent = 0
    # whether the next step makes the full Gram-Schmidt pass, and whether
    # every step does until the next restart
    full, always_full = True, loss_bound is None
    fresh()
    while True:
        w = matvec(op, basis[m])
        m += 1
        spent += 1
        # the three-term step: w loses its large alpha q and beta q_prev
        # parts to the last two rows first, so the full pass only mops up
        # rounding (and, after a fresh vector or a restart, the couplings to
        # the kept rows) and DGKS rarely asks for a second pass.  A slice,
        # not a view, so that no name keeps the basis alive past its del
        last = slice(max(m - 2, 0), m)
        near = _project(basis[last], w)
        if full:
            coeffs, beta = _orthogonalize(basis[:m], w)
        else:
            # the other overlaps are rounding until the Ritz value nears
            # convergence; measured on the Ritz-check cadence, and once
            # one passes the bound the pass is finished from them
            coeffs = np.zeros(m, dtype)
            beta = float(np.linalg.norm(w))
            if spent % 5 == 0:
                overlaps = _overlaps(basis[:m], w)
                if np.max(np.abs(overlaps)) > loss_bound * beta:
                    coeffs, beta = _orthogonalize(basis[:m], w, overlaps)
                    always_full = True
        full = always_full
        coeffs[last] += near
        tmat[:m, m - 1] = coeffs
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
                    fresh()
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
            full, always_full = True, loss_bound is None
        if invariant:
            # the complement of an invariant subspace is invariant too
            fresh()
            full = True
        else:
            # normalized straight into the next basis row
            np.divide(w, beta, out=basis[m])

    del basis  # before the complex128 copy of the eigenvectors
    values, vectors = _canonical_order(accepted[0], accepted[1].T)
    vectors = np.ascontiguousarray(vectors, dtype=np.complex128)
    return Spectrum(eigenvalues=values, dimension=dim, eigenvectors=vectors)
