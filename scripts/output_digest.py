"""Print a SHA-256 of every matrix and MatrixMarket file the package makes
on a fixed set of small inputs, and one over all of them.

Usage, from the root of a checkout:

    python3 scripts/output_digest.py

Two checkouts produce the same bits exactly where their lines agree.  The
cases are every strategy on unit-weight and variable-weight mass and
stiffness (d = 1, 2, 3) and on variable-Lame elastic (d = 2, 3), on
jittered Kuhn meshes with their vertices and elements permuted; the
order-k lattice (``build_pk_mesh``) and its mass (``assemble_mass_pk``)
for k = 1, 2, 3 (d = 2, 3); the bytes of each matrix's MatrixMarket
file and the matrix ``read_matrixmarket`` reads back from it; for d = 1
to 4, the ``q``, ``me`` and ``vols`` of
``generate_hypercube_mesh`` and ``compute_gradients`` on it and on the
permuted jittered mesh, and for d = 1 to 3 the bytes of both meshes'
``write_mesh`` files; the stiffness of the unjittered 2D Kuhn mesh with
64 cells per axis, whose values nearly all repeat, as above; and
``sparse_from_triplets`` on one set of
tie-heavy triplets of the 3D mesh, m = 1 and 3, given as a 1-D batch, as
an ``(nloc, nloc, nme)`` batch of broadcast views and as an ``(nme, L)``
batch; and one rectangular m = 1 matrix of tie-heavy triplets with exact
cancellations, its transpose and both matrices' MatrixMarket files and
read-backs.  Standard library and numpy only; the package is imported from
this checkout's ``src``.

``tests/data/output_digest.txt`` holds this script's output, and
``tests/test_output_digest.py`` compares every case line but the d = 4
ones, whose geometry goes through LAPACK, with it.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import simplex_asm as sa  # noqa: E402

# cells per axis: 64, 128, 162 and 384 simplices
SIZES = {1: 64, 2: 8, 3: 3, 4: 2}


def mesh(d: int) -> sa.Mesh:
    """Kuhn mesh of [0, 1]^d with seeded interior jitter, vertex
    permutation and element permutation."""
    rng = np.random.default_rng(d)
    n = SIZES[d]
    grid = sa.generate_hypercube_mesh(d, n)
    q = grid.q.copy()
    interior = np.all((q > 0.0) & (q < 1.0), axis=0)
    q[:, interior] += (0.2 / n) * rng.uniform(-1.0, 1.0,
                                              (d, int(interior.sum())))
    vperm = rng.permutation(grid.nq)
    permuted = np.empty_like(q)
    permuted[:, vperm] = q
    return sa.Mesh.from_arrays(permuted,
                               vperm[grid.me][:, rng.permutation(grid.nme)])


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def matrix_digest(a: sa.SparseMatrix) -> str:
    return digest(np.array(a.shape), a.row_ptr, a.col_idx, a.vals)


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def matrix(name: str, a: sa.SparseMatrix, path: Path):
    """The digests of ``a``, of its MatrixMarket file at ``path`` and of the
    matrix read back from that file."""
    yield name, matrix_digest(a)
    sa.write_matrixmarket(a, path)
    yield f"{name} mtx", file_digest(path)
    yield f"{name} mtx read", matrix_digest(sa.read_matrixmarket(path))


def cases(path: Path):
    """(case name, SHA-256) for every case; ``path`` is a scratch file,
    which the mesh files overwrite as the MatrixMarket files do."""
    for d in (1, 2, 3):
        m = mesh(d)
        sa.write_mesh(m, path)
        yield f"mesh d={d} file", file_digest(path)
        kernels = {"mass-unit": sa.MassKernel(m),
                   "mass-variable": sa.MassKernel(m, lambda q: 1 + q[0] * q[-1]),
                   "stiffness": sa.StiffnessKernel(m)}
        if d > 1:
            kernels["elastic"] = sa.ElasticKernel(m, lambda q: 1 + q[0],
                                                  lambda q: 2 + q[-1])
        for kind, kernel in kernels.items():
            drivers = sa.VECTOR_DRIVERS if kind == "elastic" else sa.SCALAR_DRIVERS
            for strategy, driver in drivers.items():
                yield from matrix(f"{kind} d={d} {strategy}", driver(m, kernel),
                                  path)
        for k in (1, 2, 3) if d > 1 else ():
            pk = sa.build_pk_mesh(m, k)
            yield f"pk-mesh d={d} k={k}", digest(pk.q, pk.me, pk.vols)
            yield from matrix(f"mass-pk d={d} k={k}",
                              sa.assemble_mass_pk(pk, sa.pk_mass_coeffs(d, k)),
                              path)
    for d in (1, 2, 3, 4):
        grid = sa.generate_hypercube_mesh(d, SIZES[d])
        yield f"kuhn-mesh d={d}", digest(grid.q, grid.me, grid.vols)
        if d < 4:
            sa.write_mesh(grid, path)
            yield f"kuhn-mesh d={d} file", file_digest(path)
        yield f"gradients kuhn d={d}", digest(sa.compute_gradients(grid))
        m = mesh(d)
        yield f"gradients d={d}", digest(m.vols, sa.compute_gradients(m))
    grid = sa.generate_hypercube_mesh(2, 64)
    yield from matrix("stiffness kuhn d=2 n=64 optv2",
                      sa.SCALAR_DRIVERS["optv2"](grid, sa.StiffnessKernel(grid)),
                      path)
    yield from batches(mesh(3))
    yield from rectangular(mesh(3), path)


def rectangular(tets: sa.Mesh, path: Path):
    """(case name, SHA-256) of a tall m = 1 matrix from tie-heavy 1-D
    triplets with values 1e16, -1e16, 1.0 and 0.0, many of whose sums
    cancel exactly, and of its (wide) transpose, each with its
    MatrixMarket file and read-back: rows are the tets' nodes, columns
    their nodes divided by 3."""
    nloc, nme = tets.me.shape
    shape = (nme, nloc, nloc)
    rows = np.broadcast_to(tets.me.T[:, :, None], shape).ravel()
    cols = np.broadcast_to(tets.me.T[:, None, :] // 3, shape).ravel()
    vals = np.random.default_rng(5).choice([1e16, -1e16, 1.0, 0.0], rows.size)
    a = sa.sparse_from_triplets(
        sa.TripletBatch(tets.nq, tets.nq // 3 + 1, rows, cols, vals))
    yield from matrix("rectangular m=1", a, path)
    yield from matrix("rectangular m=1 transpose", sa.transpose(a), path)


def batches(tets: sa.Mesh):
    """(case name, SHA-256) of the matrices of one set of triplets with
    values 1e16, -1e16, 1.0 and 0.0, whose sums depend on their order,
    given in three layouts: the last axis of the index arrays is the
    stream axis."""
    nloc, nme = tets.me.shape
    shape = (nloc, nloc, nme)
    rows = np.broadcast_to(tets.me[None, :, :], shape)
    cols = np.broadcast_to(tets.me[:, None, :], shape)
    for m in (1, 3):
        rng = np.random.default_rng(m)
        vals = rng.choice([1e16, -1e16, 1.0, 0.0], (m * m,) + shape)
        layouts = {
            "1-D": (rows.transpose(2, 0, 1).ravel(), cols.transpose(2, 0, 1).ravel(),
                    vals.transpose(0, 3, 1, 2)),
            "(nloc, nloc, nme)": (rows, cols, vals),
            "(nme, L)": (rows.reshape(-1, nme).T, cols.reshape(-1, nme).T,
                         vals.reshape(m * m, -1, nme).transpose(0, 2, 1)),
        }
        for layout, (r, c, v) in layouts.items():
            a = sa.sparse_from_triplets(
                sa.TripletBatch(m * tets.nq, m * tets.nq, r, c, v, m))
            yield f"sparse_from_triplets m={m} {layout}", matrix_digest(a)


def main() -> None:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for case, sha in cases(Path(tmp) / "a.mtx"):
            line = f"{sha}  {case}"
            total.update(line.encode() + b"\n")
            print(line)
    print(f"{total.hexdigest()}  total")


if __name__ == "__main__":
    main()
