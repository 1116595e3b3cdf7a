"""Span tracing for the benchmark's traced run.

``Tracer.install()`` replaces public kronspin functions with wrappers at the
module attributes their callers look up (``kronspin.cli.eigh`` as
``spectrum`` calls it, ``kronspin.matfree_engine.matvec`` as Lanczos calls
it, ...), and ``uninstall()`` puts the originals back.  Each wrapped call
records one span: name, start, end, parent span and request id, plus a few
counts computed at the boundary (bytes of a matrix file, entries of a
Kronecker product, amplitude passes of a matvec, values returned by a
Lanczos call).  ``install(memory=True)`` instead records the tracemalloc peak
of each Lanczos call.  Spans stay in memory; ``summarize`` turns them into
busy time, self time and counts per layer.

Wrapped calls are made from the main thread only: the engine's worker
threads run below ``matvec`` and are not traced.
"""

from __future__ import annotations

import os
import time
import tracemalloc

from kronspin import cli, dense_linalg, hamiltonian_builder, kron_core, matfree_engine, spin_algebra

# (span name, modules whose attribute of that function name is wrapped)
TARGETS = (
    ("matrix_io.load_matrix", (cli,)),
    ("matrix_io.save_matrix", (cli,)),
    ("kron_core.kron", (kron_core, spin_algebra, hamiltonian_builder, matfree_engine)),
    ("kron_core.check_property", (kron_core,)),
    ("dense_linalg.eigh", (cli,)),
    ("dense_linalg.inverse", (dense_linalg,)),
    ("spin_algebra.lift", (spin_algebra, hamiltonian_builder)),
    ("spin_algebra.total_spin_squared", (cli,)),
    ("spin_algebra.conserved_residual", (cli,)),
    ("hamiltonian_builder.build_general", (cli,)),
    ("hamiltonian_builder.load_spec", (cli,)),
    ("matfree_engine.to_dense", (cli,)),
    ("matfree_engine.spec_to_kronsum", (cli,)),
    ("matfree_engine.matvec", (cli, matfree_engine)),
    ("matfree_engine.lanczos_extremal", (cli,)),
)

ROOT = "cli.run"
LANCZOS = "matfree_engine.lanczos_extremal"

# Span record fields.
NAME, START, END, PARENT, REQUEST, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._passes: dict[int, tuple] = {}
        self.alloc_peaks: list[int] = []
        self.request = None

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request, 0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span[START] = time.perf_counter()
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    def root(self, request_id, fn, *args):
        """Run fn(*args) as the root span of one request."""
        self.request = request_id
        self._passes.clear()
        span = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(span)
            self._passes.clear()

    def _amp_passes(self, op):
        # one pass per non-identity site plus the coefficient pass, per term;
        # cached per operator object for the request (the op is held so its
        # id cannot be reused meanwhile)
        hit = self._passes.get(id(op))
        if hit is None:
            count = sum(len(t.active_slots) + 1 for t in op.terms) * op.dimension
            hit = self._passes[id(op)] = (op, count)
        return hit[1]

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            if name == "matfree_engine.matvec":
                count = self._amp_passes(args[0])
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "matfree_engine.matvec":
                span[COUNT] = count
            elif name == "kron_core.kron":
                span[COUNT] = int(result.size)
            elif name == "matrix_io.load_matrix":
                span[COUNT] = os.path.getsize(args[0])
            elif name == "matrix_io.save_matrix":
                span[COUNT] = os.path.getsize(args[1])
            elif name == "matfree_engine.lanczos_extremal":
                span[COUNT] = len(result.eigenvalues)
            return result

        return traced

    def _memory_wrapper(self, fn):
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.alloc_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    # -- patching ----------------------------------------------------------

    def install(self, memory: bool = False):
        """Wrap every target for spans; with memory=True wrap only
        lanczos_extremal, to record its tracemalloc peak.  tracemalloc slows
        the threaded matvec by a third, so it never runs in a timed round."""
        for name, modules in TARGETS:
            if memory and name != LANCZOS:
                continue
            attr = name.rsplit(".", 1)[1]
            for module in modules:
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                wrapper = self._memory_wrapper(original) if memory else self._wrapper(name, original)
                setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def summarize(spans, rounds: int, alloc_peaks) -> dict:
    """Per-layer figures per traced round, from a list of span records.

    busy = summed duration of a layer's outermost spans; self = busy minus
    the time its direct child spans cover; counts are summed over calls.
    The Lanczos allocation peak is the largest of ``alloc_peaks``.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]] += span[END] - span[START]
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    lanczos_matvecs = 0
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        ancestors = []
        parent = span[PARENT]
        while parent is not None:
            ancestors.append(spans[parent][NAME])
            parent = spans[parent][PARENT]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + duration - children[index]
        if name not in ancestors:
            busy[name] = busy.get(name, 0.0) + duration
        counts[name] = counts.get(name, 0) + span[COUNT]
        if name == "matfree_engine.matvec" and LANCZOS in ancestors:
            lanczos_matvecs += 1

    def per_round(table, name):
        return table.get(name, 0) / rounds

    lanczos_values = counts.get(LANCZOS, 0)
    matvec_busy = per_round(busy, "matfree_engine.matvec")
    amp_passes = per_round(counts, "matfree_engine.matvec")
    return {
        "cli.self_s": per_round(self_time, ROOT),
        "matrix_io.load_matrix.busy_s": per_round(busy, "matrix_io.load_matrix"),
        "matrix_io.save_matrix.busy_s": per_round(busy, "matrix_io.save_matrix"),
        "matrix_io.bytes": per_round(counts, "matrix_io.load_matrix")
        + per_round(counts, "matrix_io.save_matrix"),
        "kron_core.kron.busy_s": per_round(busy, "kron_core.kron"),
        "kron_core.kron.calls": per_round(calls, "kron_core.kron"),
        "kron_core.kron.out_entries": per_round(counts, "kron_core.kron"),
        "kron_core.check_property.self_s": per_round(self_time, "kron_core.check_property"),
        "dense_linalg.eigh.busy_s": per_round(busy, "dense_linalg.eigh"),
        "dense_linalg.eigh.calls": per_round(calls, "dense_linalg.eigh"),
        "dense_linalg.inverse.busy_s": per_round(busy, "dense_linalg.inverse"),
        "spin_algebra.lift.busy_s": per_round(busy, "spin_algebra.lift"),
        "spin_algebra.lift.calls": per_round(calls, "spin_algebra.lift"),
        "hamiltonian_builder.build_general.self_s": per_round(self_time, "hamiltonian_builder.build_general"),
        "hamiltonian_builder.load_spec.busy_s": per_round(busy, "hamiltonian_builder.load_spec"),
        "spin_algebra.total_spin_squared.busy_s": per_round(busy, "spin_algebra.total_spin_squared"),
        "spin_algebra.conserved_residual.busy_s": per_round(busy, "spin_algebra.conserved_residual"),
        "matfree_engine.to_dense.self_s": per_round(self_time, "matfree_engine.to_dense"),
        "matfree_engine.spec_to_kronsum.busy_s": per_round(busy, "matfree_engine.spec_to_kronsum"),
        "matfree_engine.matvec.busy_s": matvec_busy,
        "matfree_engine.matvec.calls": per_round(calls, "matfree_engine.matvec"),
        "matfree_engine.matvec.amp_passes": amp_passes,
        "matfree_engine.matvec.amp_passes_per_s": amp_passes / matvec_busy if matvec_busy else 0.0,
        "matfree_engine.lanczos_extremal.busy_s": per_round(busy, LANCZOS),
        "matfree_engine.lanczos_extremal.self_s": per_round(self_time, LANCZOS),
        "matfree_engine.lanczos_extremal.matvecs_per_value":
            lanczos_matvecs / lanczos_values if lanczos_values else 0.0,
        "matfree_engine.lanczos_extremal.peak_alloc_mb": max(alloc_peaks, default=0) / 2**20,
    }
