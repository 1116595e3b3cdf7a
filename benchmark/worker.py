"""Benchmark worker: sends one workload's requests to kronspin in-process.

Runs in a process of its own, started by run.py with the workload's input
directory as working directory.  Each request is one ``kronspin.cli.run(argv)``
call with stdout and stderr captured; a closed loop with one client sends the
next request when the previous one returns.

    worker.py --setup            answer the round's first request, then exit
    worker.py --seconds S --trace T --result FILE
                                 send whole rounds for about S seconds

With ``--trace 1`` plain and traced rounds alternate (at least one of
each); the traced rounds give the per-layer figures and the difference of the
mean round times gives the tracing overhead.  One last memory round records
the tracemalloc peak of each Lanczos call, kept out of the timed rounds
because tracemalloc slows them.  Outputs are recorded, not
judged: run.py checks them against the independent references.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from kronspin import cli  # noqa: E402  (path set up above)


def _request(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as stop:  # argparse usage errors
            code = stop.code if isinstance(stop.code, int) else 2
        except Exception as exc:  # a traceback is a failed request, not a dead benchmark
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue(), err.getvalue()


def _peak_rss_mb() -> float:
    """High-water resident set of this process's own address space (VmHWM).
    ru_maxrss would not do: on Linux it carries the parent's resident size
    over the fork before exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _keep_output(record, path, kept):
    """Hash a --out file; keep one copy per distinct content for checking."""
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    record["out_sha256"] = digest
    keep = f"{path}.{digest[:16]}"
    if keep in kept:
        os.remove(path)
    else:
        os.replace(path, keep)
        kept.add(keep)
    record["out_file"] = keep


def run_round(requests, tracer, kept):
    records = []
    started = time.perf_counter()
    for req in requests:
        t0 = time.perf_counter()
        if tracer is None:
            code, out, err = _request(req["argv"])
        else:
            code, out, err = tracer.root(req["id"], _request, req["argv"])
        seconds = time.perf_counter() - t0
        records.append({"id": req["id"], "exit": code, "seconds": seconds, "stdout": out,
                        "stderr": err[-2000:]})
    wall = time.perf_counter() - started
    # untimed bookkeeping: later rounds overwrite the --out files
    for req, record in zip(requests, records):
        if "--out" in req["argv"]:
            path = req["argv"][req["argv"].index("--out") + 1]
            if os.path.exists(path):
                _keep_output(record, path, kept)
    return wall, records


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args()

    with open("requests.json", encoding="utf-8") as fh:
        requests = json.load(fh)
    # the cold start's first answer, or the untimed warm-up of a timed run:
    # first-call costs belong to setup_s (answers are checked in the rounds)
    _request(requests[0]["argv"])
    if args.setup:
        return 0
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    rounds = []
    kept: set[str] = set()

    def send(kind):
        if kind != "plain":
            tracer.install(memory=kind == "memory")
        try:
            wall, records = run_round(requests, tracer if kind == "traced" else None, kept)
        finally:
            if kind != "plain":
                tracer.uninstall()
        rounds.append({"kind": kind, "wall_s": wall, "requests": records})

    begun = time.perf_counter()
    while True:
        send("traced" if args.trace and len(rounds) % 2 == 1 else "plain")
        # stop where the total lands nearest the budget; a traced run needs
        # at least one plain and one traced round
        elapsed = time.perf_counter() - begun
        if elapsed + elapsed / len(rounds) / 2 >= args.seconds and (not args.trace or len(rounds) >= 2):
            break
    if args.trace:
        send("memory")

    result = {"rounds": rounds, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        traced_rounds = sum(r["kind"] == "traced" for r in rounds)
        result["layers"] = tracing.summarize(tracer.spans, traced_rounds, tracer.alloc_peaks)
        result["spans"] = tracer.spans
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
