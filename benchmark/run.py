"""kronspin benchmark: CLI time-to-answer on three workloads.

    python3 benchmark/run.py --workload dense-ed --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; kronspin is imported from ./src.
The seeded inputs go to a scratch directory under ./.bench_work, and one
worker process sends the workload's requests in a closed loop with one client
(worker.py).  Every answer is then checked against references computed by
reference.py, outside all timing.

--trace 0 prints the end-to-end metrics of the whole timed loop; set-up time
is the median of several cold starts, each a fresh process that imports
kronspin and answers the workload's first request.  --trace 1 prints the
per-layer metrics of a separate traced run and its tracing overhead, and
leaves the spans in ./.bench_work/spans-<workload>.json.  The last stdout
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
benchmark/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"

SETUP_REPEATS = 7
# The whole run, cold starts and checks included, must end within this.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "requests_per_s": "1/s", "request_p50_s": "s", "peak_rss_mb": "MB"}


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine_facts(env) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "KRONSPIN_THREADS": env.get("KRONSPIN_THREADS", "unset"),
    }


def worker(args, workdir, env, timeout):
    return subprocess.run([sys.executable, str(WORKER), *args], cwd=workdir, env=env,
                          timeout=timeout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=True)


def measure_setup(workdir, env, deadline):
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        worker(["--setup"], workdir, env, deadline - time.monotonic())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def check_rounds(requests, rounds, workdir):
    """Check every answer; returns (attempted, failed, wrong, report) where
    report maps a request id to its count of bad answers and the first one."""
    import reference

    checker = reference.Checker(str(workdir))
    attempted = failed = wrong = 0
    report: dict[str, list] = {}
    for rnd in rounds:
        for req, record in zip(requests, rnd["requests"]):
            attempted += 1
            try:
                was_failed, problem = checker.check(req, record, rnd["requests"])
            except Exception as err:  # malformed program output is a wrong answer, reported
                was_failed, problem = False, f"unreadable answer: {type(err).__name__}: {err}"
            if was_failed:
                failed += 1
                problem = f"failed: exit {record['exit']} {record['stderr'][-300:]!r}"
            elif problem is not None:
                wrong += 1
                problem = f"wrong: {problem}"
            if problem is not None:
                report.setdefault(req["id"], [0, problem])[0] += 1
    return attempted, failed, wrong, report


def main() -> int:
    parser = argparse.ArgumentParser(description="kronspin CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "kronspin" / "__init__.py").is_file():
        print(f"benchmark: no kronspin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.pop("KRONSPIN_THREADS", None)  # the engine's default pool, as users get it
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    phases = {}
    try:
        t0 = time.monotonic()
        requests = workloads.build(args.workload, args.seed, str(workdir))
        with open(workdir / "requests.json", "w", encoding="utf-8") as fh:
            json.dump(requests, fh)

        t1 = time.monotonic()
        setup_s = None if args.trace else measure_setup(workdir, env, deadline)
        t2 = time.monotonic()
        worker(["--seconds", repr(args.seconds), "--trace", str(args.trace), "--result", "result.json"],
               workdir, env, deadline - time.monotonic())
        with open(workdir / "result.json", encoding="utf-8") as fh:
            result = json.load(fh)
        rounds = result["rounds"]
        t3 = time.monotonic()
        attempted, failed, wrong, report = check_rounds(requests, rounds, workdir)
        phases = {"inputs": t1 - t0, "setup": t2 - t1, "worker": t3 - t2, "checks": time.monotonic() - t3}
        if args.trace:
            with open(WORK / f"spans-{args.workload}.json", "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "request", "count"],
                           "spans": result["spans"]}, fh)
    except subprocess.CalledProcessError as err:
        print(f"benchmark: worker failed ({err.returncode}):\n{err.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("benchmark: worker ran past the run deadline", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    facts = machine_facts(env)
    print("machine: " + json.dumps(facts))
    print("phases (s): " + ", ".join(f"{name} {secs:.1f}" for name, secs in phases.items()))
    plain = [r for r in rounds if r["kind"] == "plain"]
    samples = [rec["seconds"] for r in plain for rec in r["requests"]]
    print(f"{args.workload}: seed {args.seed}, rounds of {len(requests)} requests: "
          + ", ".join(f"{sum(r['kind'] == kind for r in rounds)} {kind}" for kind in ("plain", "traced", "memory")))
    print("  round wall times (s): " + ", ".join(f"{r['kind'][0]}{r['wall_s']:.3f}" for r in rounds))
    for i, req in enumerate(requests):
        times = [r["requests"][i]["seconds"] for r in plain]
        print(f"  {req['id']:<30} fastest {min(times):.4f} s, median {statistics.median(times):.4f} s "
              f"over {len(times)}")
    for rid, (count, first) in report.items():
        print(f"  {rid}: {count} of {len(rounds)} {first}")

    if args.trace:
        traced_s = statistics.fmean(r["wall_s"] for r in rounds if r["kind"] == "traced")
        plain_s = statistics.fmean(r["wall_s"] for r in plain)
        layers = dict(result["layers"])
        layers["trace.overhead_s"] = traced_s - plain_s
        print(f"tracing overhead: {traced_s - plain_s:.4f} s per round "
              f"(traced {traced_s:.4f} s, plain {plain_s:.4f} s)")
        metrics = {name: {"value": value, "unit": _layer_unit(name)} for name, value in layers.items()}
    else:
        # Medians and rates over the whole timed loop.  The host's slow
        # spells last 30 s to minutes and slow every request alike, so no
        # estimator inside one run removes them (benchmark/README.md).
        rate = len(samples) / sum(r["wall_s"] for r in plain)
        p50 = statistics.median(samples)
        print(f"whole loop: {len(samples)} requests in {len(plain)} rounds, {rate:.4f} 1/s, "
              f"median request {p50:.4f} s")
        values = {
            "setup_s": setup_s,
            "requests_per_s": rate,
            "request_p50_s": p50,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        print(f"setup_s median of {SETUP_REPEATS} cold starts")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_per_value"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
