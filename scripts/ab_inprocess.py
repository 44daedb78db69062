"""In-process A/B of two checkouts on the benchmark's workloads.

Usage, from the root of a checkout:

    python3 scripts/ab_inprocess.py PARENT_PATH [CHANGE_PATH] \
        [--workload NAME ...] [--call NAME ...] [--pairs 21] [--seed 1]

Each checkout's ``src/simplex_asm`` is imported under its own package name
(``simplex_asm_a`` for the first, ``simplex_asm_b`` for the second, which
is this checkout by default), and ``perfbench/workloads.py`` of this
checkout is imported once per package, unedited, with ``simplex_asm``
bound to that package while it loads.  Both sides build their inputs
from the same seed, so they assemble the same meshes and coefficients.

For every workload (all three by default) and each of its calls
(``optv2``, ``optv``, ``optvs`` and, on ``pk3-file-roundtrip``,
``pipeline``; with ``--call``, only the calls named), one untimed call
per side warms up, and then ``--pairs`` pairs of calls run, the side
that goes first alternating from pair to pair, with a garbage collection
before each call.  Every call is the
workload's own ``run``, timed with ``time.perf_counter``; the times are
raw, not scaled for host speed.  After the warm-up, one more untimed call
per side runs under ``tracemalloc``, started just before it, as
perfbench's ``peak_pass`` measures ``peak_mb.*``, and one more with that
side's ``assembly.sparse_from_triplets``, ``assembly.add``,
``assembly._add_blocks`` (where the side has it) and ``assembly.transpose``
wrapped and perfbench's ``Tracer`` passed to the workload, to count the
constructions and the triplets they take in (the batches' values, as
perfbench's ``sparse.construct_calls`` and ``sparse.triplets_in``), the
``add`` calls and the entries they merge (both operands' stored entries,
as perfbench's ``sparse.add_entries_in``), the ``_add_blocks`` calls of
vector ``optv`` and ``optvs`` and the node entries they take in (those
of the running node sums and of the vertex pair's; perfbench's tracer
does not wrap ``_add_blocks``, so its time counts in
``assembly.self_s``), the ``transpose`` calls, and the kernel's
``batched`` calls (perfbench's ``kernels.eval_calls``, counted by the
workload's own ``TimedKernel`` proxy; ``pipeline`` passes no kernel
through it and reads 0).  For each call the script prints the median and
quartiles of both sides in ms, the change of the medians, the number of
pairs the second side won (ties count for neither), whether the two
sides' outputs were bitwise equal (shape, row pointer, column indices
and value bits) in every pair, both sides' tracemalloc peaks in MiB, and
both sides' constructions, triplets in, ``add`` calls, entries merged,
``_add_blocks`` calls, node entries they take in, ``transpose`` calls and
``batched`` calls.

The two calls of a pair run back to back in one process, under the same
host load, so pairs resolve smaller differences than separate benchmark
runs, each in its own process at its own time.  Standard library and
numpy only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_package(name: str, checkout: Path):
    """The package ``checkout/src/simplex_asm``, imported as ``name``."""
    pkg = checkout / "src" / "simplex_asm"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def bound_as_simplex_asm(package):
    """``import simplex_asm`` (and its ``cli``) gives ``package`` inside."""
    names = ("simplex_asm", "simplex_asm.cli")
    saved = {n: sys.modules.get(n) for n in names}
    sys.modules["simplex_asm"] = package
    sys.modules["simplex_asm.cli"] = importlib.import_module(
        package.__name__ + ".cli")
    try:
        yield
    finally:
        for n, module in saved.items():
            if module is None:
                sys.modules.pop(n, None)
            else:
                sys.modules[n] = module


def load_workloads(name: str, package):
    """This checkout's ``perfbench/workloads.py`` imported as ``name``,
    with ``simplex_asm`` bound to ``package``."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look the module up
    with bound_as_simplex_asm(package):
        spec.loader.exec_module(module)
    return module


def same_bits(a, b) -> bool:
    return a.shape == b.shape and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.row_ptr, b.row_ptr), (a.col_idx, b.col_idx),
                     (a.vals, b.vals)))


def timed(workload, sample, call):
    gc.collect()
    start = time.perf_counter()
    out = workload.run(sample, call, None)
    return time.perf_counter() - start, out


def traced_peak(workload, sample, call) -> float:
    """tracemalloc peak (MiB) of one untimed call."""
    gc.collect()
    tracemalloc.start()
    try:
        workload.run(sample, call, None)
        return tracemalloc.get_traced_memory()[1] / (1 << 20)
    finally:
        tracemalloc.stop()


def call_counts(assembly, workload, sample, call) -> list[int]:
    """Constructions, triplets in, ``add`` calls, entries merged,
    ``_add_blocks`` calls, node entries they take in, ``transpose`` calls
    and kernel ``batched`` calls in one untimed call, counted by wrapping
    the package's ``assembly.sparse_from_triplets``, ``assembly.add``,
    ``assembly._add_blocks`` (0 calls where it has none) and
    ``assembly.transpose`` during the call and by the workload's kernel
    proxy, which reports to perfbench's ``Tracer``."""
    from tracing import Tracer  # perfbench's, on the path since load_workloads

    construct, merge = assembly.sparse_from_triplets, assembly.add
    blocks, flip = getattr(assembly, "_add_blocks", None), assembly.transpose
    counts = [0, 0, 0, 0, 0, 0, 0]

    def constructed(batch, **kwargs):
        counts[0] += 1
        counts[1] += len(batch.vals)
        return construct(batch, **kwargs)

    def merged(a, b):
        counts[2] += 1
        counts[3] += a.nnz + b.nnz
        return merge(a, b)

    def merged_blocks(keys, sums, uniq, new, rows):
        counts[4] += 1
        counts[5] += len(keys) + len(uniq)
        return blocks(keys, sums, uniq, new, rows)

    def transposed(a):
        counts[6] += 1
        return flip(a)

    tracer = Tracer()
    assembly.sparse_from_triplets, assembly.add = constructed, merged
    assembly.transpose = transposed
    if blocks is not None:
        assembly._add_blocks = merged_blocks
    try:
        workload.run(sample, call, tracer)
    finally:
        assembly.sparse_from_triplets, assembly.add = construct, merge
        assembly.transpose = flip
        if blocks is not None:
            assembly._add_blocks = blocks
    return counts + [tracer.counts.get(("", "kernels.eval_calls"), 0)]


def quartiles(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return median, q1, q3


def compare(name: str, sides, calls, pairs: int, seed: int,
            workdir: Path) -> None:
    """Run workload ``name`` on both sides and print one line per call
    among ``calls`` (all of the workload's when None)."""
    runs = []
    for label, workloads in sides:
        cls = workloads.WORKLOADS[name]
        side_dir = workdir / label
        side_dir.mkdir()
        workload = cls(tiny=False, workdir=str(side_dir))
        rng = np.random.default_rng(seed)
        sample = workload.sample(workload.build(rng, None), rng)
        runs.append((workload, sample))
    for call in runs[0][0].calls:
        if calls is not None and call not in calls:
            continue
        times = [[], []]
        equal = True
        for side in (0, 1):
            timed(*runs[side], call)  # warm-up
        peaks = [traced_peak(*runs[side], call) for side in (0, 1)]
        counts = [call_counts(sides[side][1].sa.assembly, *runs[side], call)
                  for side in (0, 1)]
        for i in range(pairs):
            outs = [None, None]
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                t, outs[side] = timed(*runs[side], call)
                times[side].append(t)
            equal = equal and same_bits(*outs)
            del outs
        (ma, qa1, qa3), (mb, qb1, qb3) = (quartiles(t) for t in times)
        won = sum(b < a for a, b in zip(*times))
        print(f"{name:20s} {call:9s} {1e3 * ma:9.2f} [{1e3 * qa1:.2f}, "
              f"{1e3 * qa3:.2f}] {1e3 * mb:9.2f} [{1e3 * qb1:.2f}, "
              f"{1e3 * qb3:.2f}] {100 * (mb / ma - 1):+7.2f}% "
              f"{won:3d}/{pairs:<3d} {'yes' if equal else 'NO':>7s} "
              f"{peaks[0]:8.2f} {peaks[1]:8.2f} "
              + " ".join(f"{a:{w}d} {b:{w}d}" for a, b, w in
                         zip(*counts, (6, 11, 6, 11, 5, 11, 5, 7))), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first checkout (the parent)")
    parser.add_argument("b", type=Path, nargs="?", default=ROOT,
                        help="second checkout (the change); default: this one")
    parser.add_argument("--workload", action="append",
                        help="a workload name; default: all three")
    parser.add_argument("--call", action="append",
                        help="a call of the workloads, such as optv2; "
                             "default: all of them")
    parser.add_argument("--pairs", type=int, default=21)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    sides = []
    for label, checkout in (("a", args.a), ("b", args.b)):
        if not (checkout / "src" / "simplex_asm" / "__init__.py").is_file():
            parser.error(f"{checkout} has no src/simplex_asm")
        package = load_package(f"simplex_asm_{label}", checkout.resolve())
        sides.append((label, load_workloads(f"workloads_{label}", package)))
    names = args.workload or list(sides[0][1].WORKLOADS)
    unknown = set(names) - set(sides[0][1].WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    known = {c for n in names for c in sides[0][1].WORKLOADS[n].calls}
    unknown = set(args.call or ()) - known
    if unknown:
        parser.error(f"unknown calls: {', '.join(sorted(unknown))}")
    print(f"a = {args.a.resolve()}\nb = {args.b.resolve()}\n"
          f"{args.pairs} pairs, seed {args.seed}, raw ms: median [q1, q3]; "
          "tracemalloc peaks in MiB; constructions, triplets in, add calls, "
          "entries merged, _add_blocks calls, node entries they take in, "
          "transpose calls and kernel batched calls")
    print(f"{'workload':20s} {'call':9s} {'a':>26s} {'b':>26s} {'b/a-1':>8s} "
          f"{'b won':>7s} bitwise {'peak a':>8s} {'peak b':>8s} "
          f"{'cons a':>6s} {'cons b':>6s} {'trip a':>11s} {'trip b':>11s} "
          f"{'adds a':>6s} {'adds b':>6s} {'merged a':>11s} {'merged b':>11s} "
          f"{'blk a':>5s} {'blk b':>5s} {'nodes a':>11s} {'nodes b':>11s} "
          f"{'tr a':>5s} {'tr b':>5s} {'eval a':>7s} {'eval b':>7s}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            workdir = Path(tmp) / name
            workdir.mkdir()
            compare(name, sides, args.call, args.pairs, args.seed, workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
