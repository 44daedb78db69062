"""Benchmark and verification harness for the assembly strategies.

Timings follow a fixed methodology: for each refinement and variant the
same matrix is assembled ``reps`` times after one untimed warm-up, the
repetitions of all refinements and variants interleaved, and the median
wall time is the headline number (the mean and the min/max jitter
are kept alongside, never silently averaged away).  Auxiliary memory is
accounted analytically from the triplets each strategy holds at once
(``aux_memory_bytes``), so the numbers are deterministic across runs.

The timed region covers kernel setup plus the assembly drive.  For the
higher-order mass matrix the element-independent coefficient table is
built once and reused, since it does not depend on the mesh.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

from .assembly import SCALAR_DRIVERS, VECTOR_DRIVERS, assemble_mass_pk
from .kernels import ElasticKernel, MassKernel, StiffnessKernel, pk_mass_coeffs
from .mesh import build_pk_mesh, generate_hypercube_mesh
from .sparse import max_abs, max_abs_diff

MATRICES = ("mass", "stiffness", "elastic", "mass-pk")
# the kernel class of every matrix but mass-pk, built from the mesh alone
KERNELS = {"mass": MassKernel, "stiffness": StiffnessKernel,
           "elastic": ElasticKernel}
MODES = ("time", "verify", "memory")

VARIANTS_FOR = {
    "mass": tuple(SCALAR_DRIVERS),
    "stiffness": tuple(SCALAR_DRIVERS),
    "elastic": tuple(VECTOR_DRIVERS),
    "mass-pk": ("optv2",),
}

VERIFY_RTOL = 1e-12


@dataclass(frozen=True)
class BenchConfig:
    matrix: str
    d: int
    variants: tuple
    refinements: tuple
    k: int = 1
    reps: int = 5
    mode: str = "time"

    def validate(self) -> None:
        if self.matrix not in MATRICES:
            raise ValueError(f"unknown matrix type {self.matrix!r}")
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.matrix == "elastic" and self.d not in (2, 3):
            raise ValueError("the elastic matrix requires dimension 2 or 3")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.reps < 3:
            raise ValueError(f"need at least 3 repetitions, got {self.reps}")
        if not self.refinements or any(n < 1 for n in self.refinements):
            raise ValueError("refinements must be a nonempty list of n >= 1")
        allowed = VARIANTS_FOR[self.matrix]
        for v in self.variants:
            if v not in allowed:
                raise ValueError(
                    f"variant {v!r} is not available for matrix "
                    f"{self.matrix!r} (allowed: {', '.join(allowed)})"
                )
        if not self.variants:
            raise ValueError("no variants requested")


@dataclass
class BenchRecord:
    variant: str
    matrix: str
    d: int
    ndof: int
    nme: int
    time_mean_s: float
    time_median_s: float
    aux_bytes: int
    speedup: float
    time_min_s: float = 0.0
    time_max_s: float = 0.0
    slope: float | None = None


@dataclass
class BenchResult:
    records: list
    ok: bool = True
    messages: list = field(default_factory=list)


def aux_memory_bytes(variant: str, local_dofs: int, nme: int) -> int:
    """Analytic bytes of triplet storage beyond the result matrix.

    A convention of 24 bytes (row, column, value) per triplet held at
    once: local_dofs^2 * nme triplets for the full-length strategies, nme
    per step for the incremental ones; the classical one holds the values
    of a single local matrix.  It is not what ``optv2`` allocates: it
    holds the values and node indices of the vertex pairs a < b only (of
    both orientations, unless the kernel is flagged symmetric) and sums
    the diagonal blocks densely.  Its measured tracemalloc peak, warm and
    with the kernel built, is 2.09 (stiffness) and 1.40 (elastic) float64
    arrays of local_dofs^2 * nme on a 2D mesh of 8,192 triangles, and 2.74
    and 1.57 with the kernels flagged not symmetric, which
    ``tests/test_assembly.py`` bounds by 2.6, 1.6, 3.0 and 1.7.
    """
    if variant in ("optv1", "optv2"):
        return 3 * local_dofs * local_dofs * nme * 8
    if variant in ("optv", "optvs"):
        return 3 * nme * 8
    if variant == "base":
        return local_dofs * local_dofs * 8
    raise ValueError(f"unknown variant {variant!r}")


class _Problem:
    """Mesh-to-matrix plumbing for one benchmark configuration."""

    def __init__(self, matrix: str, d: int, k: int = 1):
        self.matrix = matrix
        self.d = d
        self.k = k
        self.m = d if matrix == "elastic" else 1   # unknowns per node
        self.coeffs = pk_mass_coeffs(d, k) if matrix == "mass-pk" else None

    def setup(self, n: int):
        mesh = generate_hypercube_mesh(self.d, n)
        if self.matrix == "mass-pk":
            return build_pk_mesh(mesh, self.k)
        return mesh

    def ndof(self, ctx) -> int:
        return self.m * ctx.nq

    def local_dofs(self, ctx) -> int:
        return self.m * ctx.me.shape[0]

    def assemble(self, ctx, variant: str):
        if self.matrix == "mass-pk":
            return assemble_mass_pk(ctx, self.coeffs)
        # one driver per strategy serves scalar and vector kernels alike
        return SCALAR_DRIVERS[variant](ctx, KERNELS[self.matrix](ctx))


def _reference_variant(variants, medians) -> str:
    if "optvs" in variants:
        return "optvs"
    return max(variants, key=lambda v: medians[v])


def run_bench(config: BenchConfig) -> BenchResult:
    """Run the configured sweep and return records plus a report.

    In ``time`` mode each variant is timed over ``reps`` assemblies per
    refinement; in ``verify`` mode every pair of variants is compared with
    max_abs_diff against a relative threshold of 1e-12; in ``memory`` mode
    only the analytic byte counts are reported and nothing is assembled.
    """
    config.validate()
    problem = _Problem(config.matrix, config.d, config.k)
    result = BenchResult(records=[])
    if config.mode == "time":
        _time_sweep(result, config, problem)
        return result

    for n in config.refinements:
        ctx = problem.setup(n)
        ndof = problem.ndof(ctx)
        ldof = problem.local_dofs(ctx)

        if config.mode == "memory":
            for v in config.variants:
                result.records.append(BenchRecord(
                    v, config.matrix, config.d, ndof, ctx.nme,
                    0.0, 0.0, aux_memory_bytes(v, ldof, ctx.nme), 1.0,
                ))
            _memory_messages(result, config, ldof, ctx.nme, n)
        else:
            _verify_refinement(result, config, problem, ctx, ndof, ldof, n)

    return result


def _time_sweep(result, config, problem) -> None:
    """Time every (refinement, variant) cell ``reps`` times.

    Each repetition times every cell once, starting one cell later than
    the repetition before, so a drift in host speed during the sweep
    spreads over all cells instead of landing on one refinement and
    bending the slopes between them.
    """
    ctxs = {n: problem.setup(n) for n in config.refinements}
    cells = [(n, v) for n in config.refinements for v in config.variants]
    for n, v in cells:
        problem.assemble(ctxs[n], v)  # warm-up, excluded
    times: dict = {cell: [] for cell in cells}
    for rep in range(config.reps):
        for i in range(len(cells)):
            n, v = cells[(rep + i) % len(cells)]
            t0 = time.perf_counter()
            problem.assemble(ctxs[n], v)
            times[n, v].append(time.perf_counter() - t0)

    prev: dict = {}
    for n in config.refinements:
        ctx = ctxs[n]
        ndof = problem.ndof(ctx)
        ldof = problem.local_dofs(ctx)
        medians: dict = {}
        stats: dict = {}
        for v in config.variants:
            cell_times = times[n, v]
            med = statistics.median(cell_times)
            medians[v] = med
            stats[v] = (statistics.fmean(cell_times), med,
                        min(cell_times), max(cell_times))
            if med < 1e-3:
                result.messages.append(
                    f"warning: median time {med * 1e6:.0f} us for {v} at n={n} "
                    "is below 1 ms; timer resolution may dominate"
                )

        ref = _reference_variant(config.variants, medians)
        for v in config.variants:
            mean, med, tmin, tmax = stats[v]
            rec = BenchRecord(
                v, config.matrix, config.d, ndof, ctx.nme,
                mean, med, aux_memory_bytes(v, ldof, ctx.nme),
                med / medians[ref],
                time_min_s=tmin, time_max_s=tmax,
            )
            if v in prev:
                p_ndof, p_med = prev[v]
                rec.slope = math.log(med / p_med) / math.log(ndof / p_ndof)
                result.messages.append(
                    f"slope {v} ndof {p_ndof}->{ndof}: {rec.slope:.3f}"
                )
            prev[v] = (ndof, med)
            result.messages.append(
                f"{v} n={n} ndof={ndof}: median {med:.6g} s, mean {mean:.6g} s, "
                f"spread [{tmin:.6g}, {tmax:.6g}] s"
            )
            result.records.append(rec)


def _verify_refinement(result, config, problem, ctx, ndof, ldof, n) -> None:
    def build(v):
        t0 = time.perf_counter()
        mat = problem.assemble(ctx, v)
        return mat, time.perf_counter() - t0

    built = {v: build(v) for v in config.variants}

    scale = max(max_abs(mat) for mat, _ in built.values())
    worst = 0.0
    for i, a in enumerate(config.variants):
        for b in config.variants[i + 1:]:
            diff = max_abs_diff(built[a][0], built[b][0])
            worst = max(worst, diff)
            if diff > VERIFY_RTOL * scale:
                result.ok = False
                result.messages.append(
                    f"FAIL n={n}: {a} vs {b} differ by {diff:.3e} "
                    f"(threshold {VERIFY_RTOL * scale:.3e})"
                )
    result.messages.append(
        f"verify n={n} ndof={ndof}: max pairwise diff {worst:.3e}, "
        f"scale {scale:.3e}"
    )
    for v, (_, t) in built.items():
        result.records.append(BenchRecord(
            v, config.matrix, config.d, ndof, ctx.nme,
            t, t, aux_memory_bytes(v, ldof, ctx.nme), 1.0,
        ))


def _memory_messages(result, config, ldof, nme, n) -> None:
    by_variant = {v: aux_memory_bytes(v, ldof, nme) for v in config.variants}
    for v, nbytes in by_variant.items():
        result.messages.append(f"memory n={n}: {v} auxiliary {nbytes} bytes")
    if "optv2" in by_variant and "optv" in by_variant:
        ratio = by_variant["optv2"] / by_variant["optv"]
        result.messages.append(
            f"memory n={n}: optv2/optv auxiliary ratio {ratio:g} "
            f"(= local_dofs^2 = {ldof}^2)"
        )


# ---------------------------------------------------------------------------
# Table emission

CSV_COLUMNS = ("variant", "matrix", "d", "ndof", "nme",
               "time_mean_s", "time_median_s", "aux_bytes", "speedup")


def emit_table(records, fmt: str = "csv") -> str:
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for r in records:
            lines.append(
                f"{r.variant},{r.matrix},{r.d},{r.ndof},{r.nme},"
                f"{r.time_mean_s:.6g},{r.time_median_s:.6g},"
                f"{r.aux_bytes},{r.speedup:.2f}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "md":
        return _emit_markdown(records)
    raise ValueError(f"unknown table format {fmt!r}")


def _emit_markdown(records) -> str:
    """Two-line cells: wall time on top, slowdown factor below."""
    variants: list = []
    ndofs: list = []
    cells: dict = {}
    for r in records:
        if r.variant not in variants:
            variants.append(r.variant)
        if r.ndof not in ndofs:
            ndofs.append(r.ndof)
        cells[(r.ndof, r.variant)] = f"{r.time_median_s:.4g} (s)<br>x {r.speedup:.2f}"
    lines = ["| ndof | " + " | ".join(variants) + " |",
             "| ---: | " + " | ".join(["---"] * len(variants)) + " |"]
    for ndof in ndofs:
        row = [cells.get((ndof, v), "-") for v in variants]
        lines.append(f"| {ndof} | " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"
