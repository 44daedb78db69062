"""Command line front end.

Two subcommands:

* ``bench``    - run the timing / verification / memory-accounting sweeps
  and emit a CSV or markdown table;
* ``assemble`` - assemble one matrix from a mesh file and write it in
  MatrixMarket coordinate format.

Exit codes: 0 on success, 1 when verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

from .assembly import SCALAR_DRIVERS, VECTOR_DRIVERS, assemble_mass_pk
from .bench import MATRICES, MODES, VARIANTS_FOR, BenchConfig, emit_table, run_bench
from .errors import SimplexAsmError
from .kernels import ElasticKernel, MassKernel, StiffnessKernel, pk_mass_coeffs
from .mesh import build_pk_mesh, read_mesh
from .sparse import write_matrixmarket


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplex-asm",
        description="Finite element matrix assembly strategies and benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="time, verify or account the strategies")
    bench.add_argument("--matrix", required=True, choices=MATRICES)
    bench.add_argument("--dim", required=True, type=int, choices=(1, 2, 3))
    bench.add_argument("--order", type=int, default=1,
                       help="lattice order k (mass-pk only)")
    bench.add_argument("--variants", default=None,
                       help="comma-separated list of strategies (default: the "
                       "batched strategies available for the matrix)")
    bench.add_argument("--refine", default="8,16,32",
                       help="comma-separated subdivisions per axis")
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--mode", choices=MODES, default="time")
    bench.add_argument("--out", default=None, help="table output path (default stdout)")
    bench.add_argument("--format", dest="fmt", choices=("csv", "md"), default="csv")

    asm = sub.add_parser("assemble", help="assemble one matrix from a mesh file")
    asm.add_argument("--mesh", required=True)
    asm.add_argument("--matrix", required=True, choices=MATRICES)
    asm.add_argument("--variant", default=None,
                     help="strategy (default: optvs; optv2 for mass-pk)")
    asm.add_argument("--order", type=int, default=1,
                     help="lattice order k (mass-pk only)")
    asm.add_argument("--out", required=True, help="MatrixMarket output path")
    return parser


def _parse_ints(text: str, what: str, parser) -> tuple:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        parser.error(f"cannot parse {what} list {text!r}")


def _batched_variants(matrix: str) -> list:
    """The strategies available for ``matrix`` except the per-element loops."""
    return [v for v in VARIANTS_FOR[matrix] if v not in ("base", "optv1")]


def _run_bench(args, parser) -> int:
    names = (_batched_variants(args.matrix) if args.variants is None
             else args.variants.split(","))
    config = BenchConfig(
        matrix=args.matrix,
        d=args.dim,
        variants=tuple(v.strip() for v in names if v.strip()),
        refinements=_parse_ints(args.refine, "refinement", parser),
        k=args.order,
        reps=args.reps,
        mode=args.mode,
    )
    try:
        config.validate()
    except ValueError as exc:
        parser.error(str(exc))
    result = run_bench(config)
    for line in result.messages:
        print(line)
    table = emit_table(result.records, args.fmt)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table)
    else:
        sys.stdout.write(table)
    return 0 if result.ok else 1


def _run_assemble(args, parser) -> int:
    allowed = VARIANTS_FOR[args.matrix]
    variant = args.variant or _batched_variants(args.matrix)[-1]
    if variant not in allowed:
        parser.error(f"variant {variant!r} is not available for matrix "
                     f"{args.matrix!r} (allowed: {', '.join(allowed)})")

    mesh = read_mesh(args.mesh)
    if args.matrix == "mass-pk":
        lattice = build_pk_mesh(mesh, args.order)
        matrix = assemble_mass_pk(lattice, pk_mass_coeffs(mesh.d, args.order))
    elif args.matrix == "elastic":
        matrix = VECTOR_DRIVERS[variant](mesh, ElasticKernel(mesh))
    else:
        kernel = (MassKernel(mesh) if args.matrix == "mass"
                  else StiffnessKernel(mesh))
        matrix = SCALAR_DRIVERS[variant](mesh, kernel)
    write_matrixmarket(matrix, args.out)
    print(f"wrote {matrix.nrows}x{matrix.ncols} matrix "
          f"({matrix.nnz} entries) to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.order != 1 and args.matrix != "mass-pk":
        parser.error(f"--order {args.order} applies to --matrix mass-pk only")
    try:
        if args.command == "bench":
            return _run_bench(args, parser)
        return _run_assemble(args, parser)
    except (SimplexAsmError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
