"""Batch command-line front end.

Subcommands: ``kron`` multiplies two matrix text files, ``verify-properties``
runs the eight Kronecker-law checks on a pair of square matrices,
``spectrum`` diagonalizes a Hamiltonian spec (dense or matrix-free Lanczos),
``conserved`` measures the [H, S_z], [H, S^2], [S_z, S^2] commutator
residuals, and ``bench`` times matrix-free matvecs across register sizes.
At every register size ``conserved`` reports the exact Frobenius norm of
each full-matrix commutator (method ``dense``), read from the operators'
Pauli strings by ``commutator_norm`` without any length-2^n array.

Exit codes are stable: 0 ok, 1 checks ran but at least one failed, 2 usage or
parse error, 3 capacity/allocation, 4 engine mismatch (dense request above
the dense cap), 5 iterative non-convergence.  A command returns 0 or 1 and
raises every refusal, its own flag checks included; ``run`` maps each error
to its code, in one table, and is the only code that prints an error.  ``--json`` emits a run report
validating against docs/run_report.schema.json; every result row names its
check and the tolerance it was judged against (null for pure measurements).
The CLI is batch-only; dense spectra come from LAPACK through ``eigh`` and
matrix-free spectra from serial ``matvec`` passes inside Lanczos.

Each ``cmd_*`` handler takes the parsed ``argparse.Namespace``; every flag's
default is set once, in ``build_parser``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json as jsonlib
import math
import sys
import time

import numpy as np

from ._common import DEFAULT_TOL
from .errors import (
    CapacityError,
    ContractError,
    ConvergenceError,
    ParseError,
    ShapeError,
    SingularityError,
    SiteRangeError,
    SizingError,
)
from . import kron_core
from .dense_linalg import eigh
from .hamiltonian_builder import CouplingEdge, HamiltonianSpec, build_general, load_spec
from .kron_core import PROPERTY_NAMES, ResidualReport
from .matfree_engine import (
    MAX_STATE_SITES,
    KronSum,
    commutator_norm,
    lanczos_extremal,
    matvec,
    spec_to_kronsum,
    to_dense,  # noqa: F401  kept importable: benchmark/tracing.py wraps cli.to_dense
    total_component_kronsum,
    total_spin_squared,  # noqa: F401  kept importable: benchmark/tracing.py wraps it
    total_spin_squared_kronsum,
)
from .matrix_io import format_matrix, load_matrix, save_matrix
from .spin_algebra import (
    conserved_residual,  # noqa: F401  kept importable: benchmark/tracing.py wraps it
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_ENGINE = 4
EXIT_NO_CONVERGENCE = 5

# Conservation threshold: the structural zeros of an isotropic spec's
# commutators sum their cancelling Pauli-string products pairwise and read
# 0.0, far below it.
CONSERVED_TOL = 1e-8


def _fail(message: str, code: int) -> int:
    print(f"kronspin: error: {message}", file=sys.stderr)
    return code


def _refuse(tol: float | None, seed: int) -> None:
    """Refuse, with ContractError, a residual bound ``--tol`` that is not
    finite and positive (an infinite or NaN bound judges nothing; None when
    the command has none) or a negative ``--seed`` (numpy's generators take
    only non-negative integers)."""
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise ContractError(f"--tol must be a finite positive number, got {tol!r}")
    if seed < 0:
        raise ContractError(f"--seed must be a non-negative integer, got {seed}")


def _state_alloc_message(n: int) -> str:
    return f"state allocation failed at n={n} (2^{n} amplitudes)"


def _report_json(command: str, inputs, results, started: float) -> str:
    report = {
        "command": command,
        "inputs": list(inputs),
        "results": list(results),
        "elapsed": time.perf_counter() - started,
    }
    return jsonlib.dumps(report, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _residual_row(rep: ResidualReport) -> dict:
    return {
        "name": rep.property_name,
        "residual": rep.residual,
        "tolerance": rep.tolerance,
        "passed": rep.passed,
        "note": rep.note,
        "diagnostic": rep.diagnostic,
    }


def _print_check_table(rows) -> None:
    name_w = max(len(r["name"]) for r in rows)
    header = f"{'check':<{name_w}}  {'residual':>11}  {'tolerance':>9}  {'status':<6}  note"
    print(header)
    print("-" * len(header))
    for r in rows:
        if r.get("skipped"):
            status = "skip"
        elif r.get("diagnostic"):
            status = "pass*" if r["passed"] else "fail*"
        else:
            status = "pass" if r["passed"] else "FAIL"
        res = "-".rjust(11) if r.get("residual") is None else f"{r['residual']:>11.3e}"
        tol = "-".rjust(9) if r.get("tolerance") is None else f"{r['tolerance']:>9.1e}"
        print(f"{r['name']:<{name_w}}  {res}  {tol}  {status:<6}  {r.get('note', '')}")
    if any(r.get("diagnostic") for r in rows):
        print("* diagnostic row (expected to deviate); excluded from the aggregate")
    if any(r.get("skipped") for r in rows):
        print("skip rows could not be evaluated; excluded from the aggregate")


def _aggregate(rows) -> bool:
    live = [r for r in rows if not r.get("diagnostic") and not r.get("skipped")]
    return all(r["passed"] for r in live)


# --------------------------------------------------------------------------
# kron


def cmd_kron(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.json and args.out is None:
        raise ContractError("--json needs --out for kron (matrices are not embedded in reports)")
    a = load_matrix(args.file_a)
    b = load_matrix(args.file_b)
    product = kron_core.kron(a, b)
    summary = (
        f"({a.shape[0]} x {a.shape[1]}) kron ({b.shape[0]} x {b.shape[1]}) = "
        f"({product.shape[0]} x {product.shape[1]}); dimensions multiply factorwise"
    )
    if args.out is not None:
        save_matrix(product, args.out)
    if args.json:
        row = {
            "name": "kron dimension law",
            "tolerance": None,
            "passed": True,
            "rows": product.shape[0],
            "cols": product.shape[1],
            "note": summary,
        }
        sys.stdout.write(_report_json("kron", [args.file_a, args.file_b], [row], started))
    else:
        print(summary)
        if args.out is None:
            sys.stdout.write(format_matrix(product))
    return EXIT_OK


# --------------------------------------------------------------------------
# verify-properties


def cmd_verify_properties(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    tol = args.tol
    # an infinite or NaN bound judges nothing; the checks would refuse the
    # first as an overflow
    if not (math.isfinite(tol) and tol >= 0):
        raise ContractError(f"--tol must be a finite non-negative number, got {tol!r}")
    a = load_matrix(args.file_a)
    b = load_matrix(args.file_b)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1] or a.shape != b.shape:
        raise ContractError(
            f"property suite needs square matrices of equal dimension, got "
            f"{a.shape[0]}x{a.shape[1]} and {b.shape[0]}x{b.shape[1]}"
        )

    # Derived operands: the suite is a function of the pair (a, b) alone.
    plans = [
        (1, [a, b], None),
        (2, [a, b], None),
        (3, [a, b, b], None),
        (4, [a, b, a], None),
        (5, [a, b], (2.0, -0.5)),
        (6, [a, b], None),
        (7, [a, b, a, b], None),
        (8, [a, b], None),
    ]
    rows = []
    for index, operands, scalars in plans:
        try:
            rep = kron_core.check_property(index, operands, scalars=scalars, tol=tol)
        except SizingError as err:
            raise SizingError(f"{PROPERTY_NAMES[index]}: {err}") from None
        except SingularityError as err:
            rows.append(
                {
                    "name": PROPERTY_NAMES[index],
                    "tolerance": tol,
                    "residual": None,
                    "passed": None,
                    "skipped": True,
                    "note": f"not evaluated, operand is singular: {err}",
                }
            )
            continue
        row = _residual_row(rep)
        if index == 8 and rep.residual > tol:
            witness = kron_core.noncommutativity_witness(a, b, tol)
            row["witness"] = list(witness)
            row["note"] = f"{row['note']}; first differing entry at {witness}"
        rows.append(row)
        rows.extend(_residual_row(extra) for extra in rep.extras)

    ok = _aggregate(rows)
    if args.json:
        sys.stdout.write(_report_json("verify-properties", [args.file_a, args.file_b], rows, started))
    else:
        _print_check_table(rows)
        print(f"aggregate: {'all checks pass' if ok else 'CHECKS FAILED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# spectrum


def _spec_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cmd_spectrum(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    spec_path, engine, k, which, tol, seed = (
        args.spec, args.engine, args.k, args.which, args.tol, args.seed
    )
    spec = load_spec(spec_path)
    if k is not None and k < 1:
        raise ContractError(f"--k must be >= 1, got {k}")
    sha = _spec_sha256(spec_path)

    if engine == "dense":
        spectrum = eigh(build_general(spec), want_vectors=False)
        values = spectrum.eigenvalues
        if k is not None:
            take = min(k, values.shape[0])
            values = values[:take] if which == "lowest" else values[-take:]
        note = f"all {spectrum.dimension} eigenvalues" if k is None else f"{values.shape[0]} {which} of {spectrum.dimension}"
    else:
        _refuse(tol, seed)
        if spec.n_sites > MAX_STATE_SITES:
            raise SizingError(_state_alloc_message(spec.n_sites))
        op = spec_to_kronsum(spec)
        want = 1 if k is None else k
        try:
            spectrum = lanczos_extremal(op, which=which, k=want, tol=tol, seed=seed)
        except MemoryError:
            raise SizingError(_state_alloc_message(spec.n_sites)) from None
        values = spectrum.eigenvalues
        note = f"{values.shape[0]} {which} of {spectrum.dimension} (Lanczos, tol {tol}, seed {seed})"

    values = np.asarray(values, dtype=np.float64)
    if args.json:
        row = {
            "name": f"spectrum ({engine})",
            "tolerance": tol if engine == "lanczos" else None,
            "engine": engine,
            "spec_sha256": sha,
            "dimension": spectrum.dimension,
            "n_sites": spec.n_sites,
            "eigenvalues": [float(v) for v in values],
            "note": note,
        }
        _emit(_report_json("spectrum", [spec_path], [row], started), args.out)
    else:
        lines = [f"# spec_sha256={sha}", f"# engine={engine}", "index,eigenvalue"]
        lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(values))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# conserved


def cmd_conserved(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    tol, seed, z_scale = args.tol, args.seed, args.debug_anisotropy
    spec = load_spec(args.spec)
    _refuse(tol, seed)
    # max(1, |mu_b0|, |J|, |J * Z_SCALE|): a commutator with H rounds
    # relative to H's largest field or coupling
    h_scale = max([1.0, abs(spec.mu_b0)] + [abs(e.strength) * max(1.0, abs(z_scale)) for e in spec.couplings])
    # refuse a z coupling J * Z_SCALE that is not a finite number (h_scale is
    # then inf) before anything is built: the flag's value is at fault, a
    # usage error, though the operator would refuse it too
    if not (math.isfinite(z_scale) and math.isfinite(h_scale)):
        raise ContractError(f"--debug-anisotropy must be finite and keep every J * Z_SCALE "
                            f"finite, got {z_scale!r}")
    # an infinite bound judges nothing, and is no JSON number
    if not math.isfinite(tol * h_scale):
        raise ContractError(f"--tol {tol!r} times the spec's largest value {h_scale!r} is past "
                            "the double range")
    n = spec.n_sites
    # no state is formed, but the register cap is every command's
    if n > MAX_STATE_SITES:
        raise SizingError(_state_alloc_message(n))
    scale_note = "" if z_scale == 1.0 else f"; z couplings scaled by {z_scale:g} (anisotropy injection)"

    h = spec_to_kronsum(spec, z_scale)
    s_z = total_component_kronsum("z", n)
    s_sq = total_spin_squared_kronsum(n)
    pairs = (
        ("[H, S_z]", h, s_z, tol * h_scale),
        ("[H, S^2]", h, s_sq, tol * h_scale),
        ("[S_z, S^2]", s_z, s_sq, tol),
    )
    try:
        measured = [commutator_norm(first, second) for _, first, second, _ in pairs]
    except MemoryError:
        raise SizingError(_state_alloc_message(n)) from None

    rows = [
        {
            "name": f"{name} commutator residual",
            "tolerance": bound,
            "residual": float(value),
            "passed": bool(value < bound),
            "method": "dense",
            "note": f"exact full-matrix Frobenius norm at n={n}{scale_note}",
        }
        for (name, _, _, bound), value in zip(pairs, measured)
    ]
    ok = _aggregate(rows)
    if args.json:
        sys.stdout.write(_report_json("conserved", [args.spec], rows, started))
    else:
        _print_check_table(rows)
        print(f"aggregate: {'all conserved' if ok else 'CONSERVATION VIOLATED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# bench


def _parse_n_list(text: str):
    """The sizes of ``--n-list``; a range ``lo..hi`` stays a range object, so
    its ends are checked without building it."""
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return range(lo, hi + 1)
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _bench_spec(n: int, topology: str) -> HamiltonianSpec:
    if topology == "all":  # complete graph
        edges = [CouplingEdge(i, j, 1.0) for i in range(1, n) for j in range(i + 1, n + 1)]
    else:
        edges = [CouplingEdge(i, i + 1, 1.0) for i in range(1, n)]
        if topology == "ring" and n > 2:
            edges.append(CouplingEdge(1, n, 1.0))
    return HamiltonianSpec(n, 1.0, tuple(edges))


def cmd_bench(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    topology, repeats = args.topology, args.repeats
    try:
        sizes = _parse_n_list(args.n_list)
    except ValueError as err:
        raise ContractError(f"bad --n-list: {err}") from None
    if not sizes:
        raise ContractError("--n-list is empty")
    # min() and max() would walk every size of a range
    least, largest = (sizes[0], sizes[-1]) if isinstance(sizes, range) else (min(sizes), max(sizes))
    if least < 2:
        raise ContractError(f"site counts must be >= 2, got {least}")
    if repeats < 1:
        raise ContractError(f"--repeats must be >= 1, got {repeats}")
    _refuse(None, args.seed)
    if largest > MAX_STATE_SITES:
        raise SizingError(_state_alloc_message(largest))

    rng = np.random.default_rng(args.seed)
    rows = []
    for n in sizes:
        op = spec_to_kronsum(_bench_spec(n, topology))
        dim = op.dimension
        try:
            # a bench spec compiles to a real plan, so Lanczos applies it to
            # float64 states
            x = rng.standard_normal(dim)
            matvec(op, x)  # warm-up: page in buffers before timing
            best = min(_timed_matvec(op, x) for _ in range(repeats))
        except MemoryError:
            raise SizingError(_state_alloc_message(n)) from None
        rows.append(
            {
                "name": f"matvec n={n}",
                "tolerance": None,
                "n_sites": n,
                "dimension": dim,
                # the string count, len(op.terms) for an ExchangeSum
                # without building a KronTerm
                "terms": len(op.pauli_strings[2]),
                "repeats": repeats,
                "wall_seconds": best,
                "amplitudes_touched": op.plan.amplitudes_touched,
                "note": (
                    f"best of {repeats}, topology {topology}, {x.dtype} state; amplitudes "
                    "touched = dim for the diagonal + the slab of each flip-flop move"
                ),
            }
        )

    fit_row = None
    # a size listed twice is still one point, through which no line fits
    if least < largest:
        ns = np.array([r["n_sites"] for r in rows], dtype=np.float64)
        log_t = np.log2(np.array([r["wall_seconds"] for r in rows]))
        slope, intercept = np.polyfit(ns, log_t, 1)
        deviation = float(np.max(np.abs(log_t - (slope * ns + intercept))))
        fit_row = {
            "name": "scaling fit",
            "tolerance": None,
            "scaling_exponent": float(slope),
            "fit_max_deviation": deviation,
            "note": "slope of log2(best seconds) vs n; 1.0 means time grows like 2^n",
        }
        rows.append(fit_row)

    if args.json:
        sys.stdout.write(_report_json("bench", [], rows, started))
    else:
        print(f"{'n':>4}  {'dim':>10}  {'terms':>6}  {'best seconds':>13}  {'amplitudes touched':>19}")
        for r in rows:
            if "wall_seconds" not in r:
                continue
            print(
                f"{r['n_sites']:>4}  {r['dimension']:>10}  {r['terms']:>6}  "
                f"{r['wall_seconds']:>13.6f}  {r['amplitudes_touched']:>19}"
            )
        if fit_row is not None:
            print(
                f"scaling exponent {fit_row['scaling_exponent']:.3f} "
                f"(max fit deviation {fit_row['fit_max_deviation']:.3f} in log2 seconds)"
            )
        else:
            print("single size, no exponent fit")
    return EXIT_OK


def _timed_matvec(op: KronSum, x: np.ndarray) -> float:
    t0 = time.perf_counter()
    matvec(op, x)
    return time.perf_counter() - t0


# --------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronspin",
        description="Kronecker-product algebra and spin-1/2 Hamiltonian toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kron", help="Kronecker product of two matrix text files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--out", help="write the product here (matrix text); default stdout")
    p.add_argument("--json", action="store_true", help="emit a run report (needs --out)")
    p.set_defaults(handler=cmd_kron)

    p = sub.add_parser(
        "verify-properties", help="run the eight Kronecker-law checks on a square pair"
    )
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="residual tolerance, relative to max(1, ||rhs||_F) for P2-P7; "
                        "absolute for P1 and P8")
    p.add_argument("--json", action="store_true", help="emit a run report instead of a table")
    p.set_defaults(handler=cmd_verify_properties)

    p = sub.add_parser("spectrum", help="eigenvalues of a Hamiltonian spec (JSON file)")
    p.add_argument("spec")
    p.add_argument("--engine", choices=("dense", "lanczos"), default="dense")
    p.add_argument("--k", type=int, default=None, help="how many extremal eigenvalues")
    p.add_argument("--which", choices=("lowest", "highest"), default="lowest")
    p.add_argument("--json", action="store_true", help="emit a run report instead of CSV")
    p.add_argument("--out", help="write here instead of stdout")
    p.add_argument("--tol", type=float, default=1e-8, help="Lanczos residual tolerance")
    p.add_argument("--seed", type=int, default=0, help="Lanczos start-vector seed")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("conserved", help="commutator residuals of S_z and S^2 with H")
    p.add_argument("spec")
    p.add_argument("--tol", type=float, default=CONSERVED_TOL,
                   help="pass threshold, times max(1, |mu_b0|, |J|, |J * Z_SCALE|) for [H, .] rows")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and checked for older scripts; conserved draws nothing")
    p.add_argument(
        "--debug-anisotropy",
        type=float,
        default=1.0,
        metavar="Z_SCALE",
        help="XXZ anisotropy Delta: scale z-z coupling terms; any value but 1 breaks isotropy",
    )
    p.add_argument("--json", action="store_true", help="emit a run report instead of a table")
    p.set_defaults(handler=cmd_conserved)

    p = sub.add_parser("bench", help="time matrix-free matvecs across register sizes")
    p.add_argument("--n-list", required=True, help="sizes: comma list '10,12,14' or range '10..14'")
    p.add_argument("--terms", choices=("chain", "ring", "all"), default="chain", dest="topology",
                   help="coupling topology of the benchmark Hamiltonian")
    p.add_argument("--repeats", type=int, default=3, help="timed runs per size (best is reported)")
    p.add_argument("--seed", type=int, default=0, help="state-vector seed")
    p.add_argument("--json", action="store_true", help="emit a run report instead of a table")
    p.set_defaults(handler=cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs ~25x a parse; one parse leaves no state on it
    return build_parser()


def run(argv=None) -> int:
    """Run one command; the except clauses below are the one table from the
    library's errors to exit codes, each printed as ``kronspin: error: ...``."""
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConvergenceError as err:
        code = _fail(str(err), EXIT_NO_CONVERGENCE)
        for value, residual in err.estimates:
            print(f"kronspin: best estimate {value!r} (residual {residual:.3e})", file=sys.stderr)
        return code
    except CapacityError as err:
        # only the dense spectrum builds a matrix that the site cap refuses
        return _fail(f"{err}; rerun with --engine lanczos for matrix-free extremal eigenvalues",
                     EXIT_ENGINE)
    except SizingError as err:
        return _fail(str(err), EXIT_CAPACITY)
    except (ParseError, ContractError, SiteRangeError, ShapeError, OSError) as err:
        return _fail(str(err), EXIT_USAGE)


if __name__ == "__main__":
    raise SystemExit(run())
