"""Batch command-line front end.

Subcommands: ``kron`` multiplies two matrix text files, ``verify-properties``
runs the eight Kronecker-law checks on a pair of square matrices,
``spectrum`` diagonalizes a Hamiltonian spec (dense or matrix-free Lanczos),
``conserved`` measures the [H, S_z], [H, S^2], [S_z, S^2] commutator
residuals, and ``bench`` times matrix-free matvecs across register sizes.
Up to the 12-site dense cap, ``conserved`` reports the exact Frobenius norm
of each full-matrix commutator, computed from the operators' flip forms
without forming a 2^n x 2^n matrix (method ``dense``); above it, the largest
residual over seeded real unit probe vectors (method ``probe``).

Exit codes are stable: 0 ok, 1 checks ran but at least one failed, 2 usage or
parse error, 3 capacity/allocation, 4 engine mismatch (dense request above
the dense cap), 5 iterative non-convergence.  ``--json`` emits a run report
validating against docs/run_report.schema.json; every result row names its
check and the tolerance it was judged against (null for pure measurements).
The CLI is batch-only; dense spectra come from LAPACK through ``eigh`` and
matrix-free spectra from serial ``matvec`` passes inside Lanczos.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json as jsonlib
import sys
import time

import numpy as np

from ._common import DEFAULT_TOL, frobenius
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
    DENSE_SITE_CAP,
    conserved_residual,  # noqa: F401  kept importable: benchmark/tracing.py wraps it
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_ENGINE = 4
EXIT_NO_CONVERGENCE = 5

# Conservation threshold: structural zeros measured exactly or through probe
# vectors land many orders below this for isotropic specs.
CONSERVED_TOL = 1e-8
PROBE_COUNT = 3

# numpy raises ValueError, not MemoryError, for an array over intp-max bytes;
# past this size a complex128 state is refused before anything is allocated
MAX_STATE_SITES = (np.iinfo(np.intp).max // 16).bit_length() - 1


def _fail(message: str, code: int) -> int:
    print(f"kronspin: error: {message}", file=sys.stderr)
    return code


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


def cmd_kron(file_a: str, file_b: str, out: str | None = None, as_json: bool = False) -> int:
    started = time.perf_counter()
    if as_json and out is None:
        return _fail("--json needs --out for kron (matrices are not embedded in reports)", EXIT_USAGE)
    try:
        a = load_matrix(file_a)
        b = load_matrix(file_b)
    except (ParseError, OSError) as err:
        return _fail(str(err), EXIT_USAGE)
    try:
        product = kron_core.kron(a, b)
    except SizingError as err:
        return _fail(str(err), EXIT_CAPACITY)
    summary = (
        f"({a.shape[0]} x {a.shape[1]}) kron ({b.shape[0]} x {b.shape[1]}) = "
        f"({product.shape[0]} x {product.shape[1]}); dimensions multiply factorwise"
    )
    if out is not None:
        save_matrix(product, out)
    if as_json:
        row = {
            "name": "kron dimension law",
            "tolerance": None,
            "passed": True,
            "rows": product.shape[0],
            "cols": product.shape[1],
            "note": summary,
        }
        sys.stdout.write(_report_json("kron", [file_a, file_b], [row], started))
    else:
        print(summary)
        if out is None:
            sys.stdout.write(format_matrix(product))
    return EXIT_OK


# --------------------------------------------------------------------------
# verify-properties


def cmd_verify_properties(
    file_a: str, file_b: str, tol: float = DEFAULT_TOL, as_json: bool = False
) -> int:
    started = time.perf_counter()
    try:
        a = load_matrix(file_a)
        b = load_matrix(file_b)
    except (ParseError, OSError) as err:
        return _fail(str(err), EXIT_USAGE)
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1] or a.shape != b.shape:
        return _fail(
            f"property suite needs square matrices of equal dimension, got "
            f"{a.shape[0]}x{a.shape[1]} and {b.shape[0]}x{b.shape[1]}",
            EXIT_USAGE,
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
    if as_json:
        sys.stdout.write(_report_json("verify-properties", [file_a, file_b], rows, started))
    else:
        _print_check_table(rows)
        print(f"aggregate: {'all checks pass' if ok else 'CHECKS FAILED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# spectrum


def _spec_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load_spec_or_none(path: str):
    try:
        return load_spec(path), None
    except (ContractError, SiteRangeError, ShapeError) as err:
        return None, str(err)
    except jsonlib.JSONDecodeError as err:
        return None, f"{path}: invalid JSON: {err}"
    except OSError as err:
        return None, str(err)


def cmd_spectrum(
    spec_path: str,
    engine: str = "dense",
    k: int | None = None,
    which: str = "lowest",
    out: str | None = None,
    fmt: str = "csv",
    tol: float = 1e-8,
    seed: int = 0,
) -> int:
    started = time.perf_counter()
    spec, err = _load_spec_or_none(spec_path)
    if spec is None:
        return _fail(err, EXIT_USAGE)
    if k is not None and k < 1:
        return _fail(f"--k must be >= 1, got {k}", EXIT_USAGE)
    sha = _spec_sha256(spec_path)

    if engine == "dense":
        try:
            h = build_general(spec)
        except CapacityError as err:
            return _fail(
                f"{err}; rerun with --engine lanczos for matrix-free extremal eigenvalues",
                EXIT_ENGINE,
            )
        spectrum = eigh(h, want_vectors=False)
        values = spectrum.eigenvalues
        if k is not None:
            take = min(k, values.shape[0])
            values = values[:take] if which == "lowest" else values[-take:]
        note = f"all {spectrum.dimension} eigenvalues" if k is None else f"{values.shape[0]} {which} of {spectrum.dimension}"
    else:
        if spec.n_sites > MAX_STATE_SITES:
            return _fail(_state_alloc_message(spec.n_sites), EXIT_CAPACITY)
        op = spec_to_kronsum(spec)
        want = 1 if k is None else k
        try:
            spectrum = lanczos_extremal(op, which=which, k=want, tol=tol, seed=seed)
        except ContractError as err:
            return _fail(str(err), EXIT_USAGE)
        except ConvergenceError as err:
            print(f"kronspin: error: {err}", file=sys.stderr)
            for value, residual in err.estimates:
                print(f"kronspin: best estimate {value!r} (residual {residual:.3e})", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
        except MemoryError:
            return _fail(_state_alloc_message(spec.n_sites), EXIT_CAPACITY)
        values = spectrum.eigenvalues
        note = f"{values.shape[0]} {which} of {spectrum.dimension} (Lanczos, tol {tol}, seed {seed})"

    values = np.asarray(values, dtype=np.float64)
    if fmt == "json":
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
        _emit(_report_json("spectrum", [spec_path], [row], started), out)
    else:
        lines = [f"# spec_sha256={sha}", f"# engine={engine}", "index,eigenvalue"]
        lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(values))
        _emit("\n".join(lines) + "\n", out)
    return EXIT_OK


# --------------------------------------------------------------------------
# conserved


def cmd_conserved(
    spec_path: str,
    tol: float = CONSERVED_TOL,
    seed: int = 0,
    z_scale: float = 1.0,
    as_json: bool = False,
) -> int:
    started = time.perf_counter()
    spec, err = _load_spec_or_none(spec_path)
    if spec is None:
        return _fail(err, EXIT_USAGE)
    n = spec.n_sites
    if n > MAX_STATE_SITES:
        return _fail(_state_alloc_message(n), EXIT_CAPACITY)
    scale_note = "" if z_scale == 1.0 else f"; z couplings scaled by {z_scale:g} (anisotropy injection)"

    h = spec_to_kronsum(spec, z_scale)
    s_z = total_component_kronsum("z", n)
    s_sq = total_spin_squared_kronsum(n)
    pairs = (
        ("[H, S_z]", h, s_z),
        ("[H, S^2]", h, s_sq),
        ("[S_z, S^2]", s_z, s_sq),
    )
    if n <= DENSE_SITE_CAP:
        measured = [(name, commutator_norm(first, second)) for name, first, second in pairs]
        method = "dense"
        note = f"exact full-matrix Frobenius norm at n={n}{scale_note}"
    else:
        rng = np.random.default_rng(seed)
        dim = h.dimension
        measured = []
        try:
            for name, first, second in pairs:
                worst = 0.0
                for _ in range(PROBE_COUNT):
                    # H, S_z and S^2 compile to real plans, so a real probe
                    # keeps every matvec in float64
                    x = rng.standard_normal(dim)
                    x /= np.linalg.norm(x)
                    r = matvec(first, matvec(second, x)) - matvec(second, matvec(first, x))
                    worst = max(worst, float(np.linalg.norm(r)))
                measured.append((name, worst))
        except MemoryError:
            return _fail(_state_alloc_message(n), EXIT_CAPACITY)
        method = "probe"
        note = f"matrix-free probe at n={n}, {PROBE_COUNT} unit vectors, seed {seed}{scale_note}"

    rows = [
        {
            "name": f"{name} commutator residual",
            "tolerance": tol,
            "residual": float(value),
            "passed": bool(value < tol),
            "method": method,
            "note": note,
        }
        for name, value in measured
    ]
    ok = _aggregate(rows)
    if as_json:
        sys.stdout.write(_report_json("conserved", [spec_path], rows, started))
    else:
        _print_check_table(rows)
        print(f"aggregate: {'all conserved' if ok else 'CONSERVATION VIOLATED'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# --------------------------------------------------------------------------
# bench


def _parse_n_list(text: str):
    text = text.strip()
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _bench_spec(n: int, topology: str) -> HamiltonianSpec:
    if topology == "chain":
        edges = [CouplingEdge(i, i + 1, 1.0) for i in range(1, n)]
    elif topology == "ring":
        edges = [CouplingEdge(i, i + 1, 1.0) for i in range(1, n)]
        if n > 2:
            edges.append(CouplingEdge(1, n, 1.0))
    else:  # complete graph
        edges = [CouplingEdge(i, j, 1.0) for i in range(1, n) for j in range(i + 1, n + 1)]
    return HamiltonianSpec(n, 1.0, tuple(edges))


def cmd_bench(
    n_list: str,
    topology: str = "chain",
    repeats: int = 3,
    seed: int = 0,
    as_json: bool = False,
) -> int:
    started = time.perf_counter()
    try:
        sizes = _parse_n_list(n_list)
    except ValueError as err:
        return _fail(f"bad --n-list: {err}", EXIT_USAGE)
    if not sizes:
        return _fail("--n-list is empty", EXIT_USAGE)
    if any(n < 2 for n in sizes):
        return _fail(f"site counts must be >= 2, got {sizes}", EXIT_USAGE)
    if repeats < 1:
        return _fail(f"--repeats must be >= 1, got {repeats}", EXIT_USAGE)
    if max(sizes) > MAX_STATE_SITES:
        return _fail(_state_alloc_message(max(sizes)), EXIT_CAPACITY)

    rng = np.random.default_rng(seed)
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
            return _fail(_state_alloc_message(n), EXIT_CAPACITY)
        rows.append(
            {
                "name": f"matvec n={n}",
                "tolerance": None,
                "n_sites": n,
                "dimension": dim,
                "terms": len(op.terms),
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
    if len(sizes) >= 2:
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

    if as_json:
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
    p.set_defaults(handler=lambda a: cmd_kron(a.file_a, a.file_b, a.out, a.json))

    p = sub.add_parser(
        "verify-properties", help="run the eight Kronecker-law checks on a square pair"
    )
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="residual tolerance, relative to max(1, ||rhs||_F) for P2-P7; "
                        "absolute for P1 and P8")
    p.add_argument("--json", action="store_true", help="emit a run report instead of a table")
    p.set_defaults(handler=lambda a: cmd_verify_properties(a.file_a, a.file_b, a.tol, a.json))

    p = sub.add_parser("spectrum", help="eigenvalues of a Hamiltonian spec (JSON file)")
    p.add_argument("spec")
    p.add_argument("--engine", choices=("dense", "lanczos"), default="dense")
    p.add_argument("--k", type=int, default=None, help="how many extremal eigenvalues")
    p.add_argument("--which", choices=("lowest", "highest"), default="lowest")
    p.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")
    p.add_argument("--json", action="store_true", help="alias for --format json")
    p.add_argument("--out", help="write here instead of stdout")
    p.add_argument("--tol", type=float, default=1e-8, help="Lanczos residual tolerance")
    p.add_argument("--seed", type=int, default=0, help="Lanczos start-vector seed")
    p.set_defaults(
        handler=lambda a: cmd_spectrum(
            a.spec, a.engine, a.k, a.which, a.out, "json" if a.json else a.fmt, a.tol, a.seed
        )
    )

    p = sub.add_parser("conserved", help="commutator residuals of S_z and S^2 with H")
    p.add_argument("spec")
    p.add_argument("--tol", type=float, default=CONSERVED_TOL, help="pass threshold")
    p.add_argument("--seed", type=int, default=0, help="probe-vector seed (matrix-free path)")
    p.add_argument(
        "--debug-anisotropy",
        type=float,
        default=1.0,
        metavar="Z_SCALE",
        help="XXZ anisotropy Delta: scale z-z coupling terms; any value but 1 breaks isotropy",
    )
    p.add_argument("--json", action="store_true", help="emit a run report instead of a table")
    p.set_defaults(
        handler=lambda a: cmd_conserved(a.spec, a.tol, a.seed, a.debug_anisotropy, a.json)
    )

    p = sub.add_parser("bench", help="time matrix-free matvecs across register sizes")
    p.add_argument("--n-list", required=True, help="sizes: comma list '10,12,14' or range '10..14'")
    p.add_argument("--terms", choices=("chain", "ring", "all"), default="chain", dest="topology",
                   help="coupling topology of the benchmark Hamiltonian")
    p.add_argument("--repeats", type=int, default=3, help="timed runs per size (best is reported)")
    p.add_argument("--seed", type=int, default=0, help="state-vector seed")
    p.add_argument("--json", action="store_true", help="emit a run report instead of a table")
    p.set_defaults(handler=lambda a: cmd_bench(a.n_list, a.topology, a.repeats, a.seed, a.json))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs ~25x a parse; one parse leaves no state on it
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(run())
