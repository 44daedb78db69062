"""Spans recorded from outside simplex_asm, around calls into its public
functions.

A span is a name, the scope it ran in (a strategy such as ``optv2``, or
``pipeline``), start and end times from ``time.perf_counter`` and the index
of its parent span.  Spans stay in memory until the run ends.  Counts
(triplets in, add calls, ...) are recorded at the same boundaries.

Three kinds of boundary are traced:

* calls the benchmark itself makes (kernel constructors, drivers, mesh
  set-up, the consumer's MatrixMarket read) through ``Tracer.span``;
* module attributes that the drivers and the CLI call through, swapped for
  timed wrappers by ``installed``;
* ``batched`` on the kernel, through the ``TimedKernel`` proxy.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, scope, start, end, parent]
        self.counts: dict[tuple[str, str], float] = {}
        self.scope = ""
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, self.scope, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        key = (self.scope, name)
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                for cname, value in counter(args, out):
                    self.count(cname, value)
            return out
        return traced


# module, attribute, span name, counter(args, result) -> [(count, value)]
PATCHES = (
    ("simplex_asm.assembly", "sparse_from_triplets", "sparse.construct",
     lambda a, out: [("sparse.construct_calls", 1),
                     ("sparse.triplets_in", len(a[0].vals))]),
    ("simplex_asm.assembly", "add", "sparse.add",
     lambda a, out: [("sparse.add_calls", 1),
                     ("sparse.add_entries_in", a[0].nnz + a[1].nnz)]),
    ("simplex_asm.assembly", "transpose", "sparse.transpose", None),
    ("simplex_asm.cli", "read_mesh", "mesh.read", None),
    ("simplex_asm.cli", "build_pk_mesh", "mesh.build_pk",
     lambda a, out: [("mesh.pk_nodes", out.nq)]),
    ("simplex_asm.cli", "pk_mass_coeffs", "kernels.pk_coeffs", None),
    ("simplex_asm.cli", "assemble_mass_pk", "assembly.mass_pk", None),
    ("simplex_asm.cli", "write_matrixmarket", "sparse.mm_write", None),
)


@contextmanager
def installed(tracer: Tracer, missing: list):
    """Swap the PATCHES attributes for timed wrappers, restoring them on
    exit.  An attribute the package no longer has is skipped and named in
    ``missing``: the calls it stood for then show as lost child coverage."""
    saved = []
    for modname, attr, name, counter in PATCHES:
        module = importlib.import_module(modname)
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{modname}.{attr}")
            continue
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, counter))
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


class TimedKernel:
    """Kernel proxy that records a span around every ``batched`` call and
    forwards everything else to the wrapped kernel."""

    def __init__(self, kernel, tracer: Tracer):
        self._kernel = kernel
        self._tracer = tracer

    def batched(self, *index):
        with self._tracer.span("kernels.eval"):
            out = self._kernel.batched(*index)
        self._tracer.count("kernels.eval_calls", 1)
        self._tracer.count("kernels.values_out", out.size)
        return out

    def __getattr__(self, name):
        return getattr(self._kernel, name)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans, offset: int = 0) -> dict:
    """Per (scope, span name): total duration, self time (duration minus
    the part its child spans cover) and child coverage.  ``spans`` may be
    the tail of a longer list that starts at index ``offset``."""
    children: dict[int, list] = {}
    for rec in spans:
        if rec[4] >= 0:
            children.setdefault(rec[4] - offset, []).append((rec[2], rec[3]))
    out: dict[tuple[str, str], dict] = {}
    for idx, (name, scope, start, end, _) in enumerate(spans):
        dur = end - start
        cov = _covered(children.get(idx, ()))
        agg = out.setdefault((scope, name),
                             {"total_s": 0.0, "self_s": 0.0, "covered_s": 0.0,
                              "calls": 0})
        agg["total_s"] += dur
        agg["self_s"] += dur - cov
        agg["covered_s"] += cov
        agg["calls"] += 1
    return out
