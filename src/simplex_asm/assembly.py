"""Global matrix assembly: one engine, five strategies.

Every driver runs the same engine.  A kernel with a system size ``m`` is a
vector kernel, coupling ``m`` unknowns per node, and takes each local dof
as ``(l, alpha)``; a kernel without ``m`` is scalar (m = 1) and takes it as
``(alpha,)``.  On an element with ``nloc`` local nodes the engine numbers
the ``L = m*nloc`` local dofs component-major, ``ii = l*nloc + alpha`` for
component l of local node alpha, and maps them to the interleaved global
numbering: component l of node i is row ``m*i + l``.

The five strategies build the same matrix with different loop and storage
structure:

* ``base``   - per element, per entry, into a dictionary of keys;
* ``optv1``  - per-element fill of full-length triplet arrays, one
  constructor call at the end;
* ``optv2``  - one batched kernel call per local pair fills full-length
  triplet arrays, one constructor call at the end;
* ``optv``   - one element-length triplet batch per local pair, added into
  the result as it goes;
* ``optvs``  - like ``optv`` over the strict upper triangle ``ii < jj``
  only, then one transpose-add, then the diagonal pairs.

``base``, ``optv1``, ``optv2`` and ``optv`` visit the local pairs column by
column (``jj`` outer, ``ii`` inner); ``optvs`` sweeps its triangle row by
row.  The one-shot strategies hand the constructor an element-major
triplet stream, so their duplicates are summed in element order and
``optv1`` and ``optv2`` are bitwise identical.  For a scalar kernel every
strategy reproduces the scalar loops of the paper triplet for triplet.
"""

from __future__ import annotations

import numpy as np

from .errors import NonSymmetricKernelError
from .kernels import PkCoeffTable, PkMassKernel
from .mesh import Mesh, PkMesh
from .sparse import (
    SparseMatrix,
    TripletBatch,
    add,
    empty_matrix,
    sparse_from_triplets,
    transpose,
)

STRATEGIES = ("base", "optv1", "optv2", "optv", "optvs")


def _assemble(mesh, kernel, strategy: str) -> SparseMatrix:
    """Assemble ``kernel`` over ``mesh`` (a Mesh or a PkMesh) with one of
    the five strategies."""
    vector = hasattr(kernel, "m")
    m = kernel.m if vector else 1
    nloc, nme = mesh.me.shape
    ndof = m * mesh.nq
    size = m * nloc
    # ii -> the kernel's index of local dof ii: (l, alpha), or (alpha,)
    local = [divmod(ii, nloc) if vector else (ii,) for ii in range(size)]
    columns = [(ii, jj) for jj in range(size) for ii in range(size)]

    def dofs(ii):
        """Global dof of local dof ii on every element."""
        l, alpha = divmod(ii, nloc)
        return mesh.me[alpha] if m == 1 else m * mesh.me[alpha] + l

    def batch(ii, jj) -> TripletBatch:
        return TripletBatch(ndof, ndof, dofs(ii), dofs(jj),
                            kernel.batched(*local[ii], *local[jj]))

    if strategy in ("base", "optv1", "optv2"):
        # (size, nme) table of every local dof's global dof
        table = mesh.me if m == 1 else np.stack([dofs(ii) for ii in range(size)])

    if strategy == "optv2":
        pairs = np.empty((size * size, nme))
        for p, (ii, jj) in enumerate(columns):
            pairs[p] = kernel.batched(*local[ii], *local[jj])
        # element-major stream, each element's block column by column; a
        # copy even where the transpose is contiguous (nme = 1)
        vals = pairs.T.flatten()
        del pairs  # so that the constructor's keys are the only other buffer
        shape = (nme, size, size)
        rows = np.broadcast_to(table.T[:, None, :], shape)
        cols = np.broadcast_to(table.T[:, :, None], shape)
        # the values are ours, so the constructor overwrites them in place
        return sparse_from_triplets(TripletBatch(ndof, ndof, rows, cols, vals),
                                    _owned=True)

    if strategy in ("base", "optv1"):
        single = kernel.single
        pairs = [(ii, jj, local[ii] + local[jj]) for ii, jj in columns]
        conn = table.T.tolist()
        if strategy == "base":
            dok: dict = {}
            get = dok.get
            for k in range(nme):
                glob = conn[k]
                for ii, jj, lanb in pairs:
                    key = (glob[ii], glob[jj])
                    dok[key] = get(key, 0.0) + single(*lanb, k)
            rows = np.fromiter((key[0] for key in dok), np.int64, len(dok))
            cols = np.fromiter((key[1] for key in dok), np.int64, len(dok))
            vals = np.fromiter(dok.values(), np.float64, len(dok))
        else:
            rows, cols, vals = [], [], []
            for k in range(nme):
                glob = conn[k]
                for ii, jj, lanb in pairs:
                    rows.append(glob[ii])
                    cols.append(glob[jj])
                    vals.append(single(*lanb, k))
        return sparse_from_triplets(TripletBatch(ndof, ndof, rows, cols, vals))

    if strategy in ("optv", "optvs"):
        symmetric = strategy == "optvs"
        if symmetric and not kernel.symmetric:
            raise NonSymmetricKernelError(
                "the symmetrized driver requires a kernel flagged symmetric"
            )
        pairs = ([(ii, jj) for ii in range(size) for jj in range(ii + 1, size)]
                 if symmetric else columns)
        out = empty_matrix(ndof, ndof)
        for ii, jj in pairs:
            out = add(out, sparse_from_triplets(batch(ii, jj)))
        if symmetric:
            out = add(out, transpose(out))
            for ii in range(size):
                out = add(out, sparse_from_triplets(batch(ii, ii)))
        return out

    raise ValueError(f"unknown strategy {strategy!r}")


def _driver(strategy: str):
    def drive(mesh: Mesh, kernel) -> SparseMatrix:
        return _assemble(mesh, kernel, strategy)

    drive.__name__ = drive.__qualname__ = f"assemble_{strategy}"
    drive.__doc__ = f"Assemble a kernel with the {strategy!r} strategy."
    return drive


# the paper defines no vector OptV1; every other strategy serves both kinds
SCALAR_DRIVERS = {s: _driver(s) for s in STRATEGIES}
VECTOR_DRIVERS = {s: SCALAR_DRIVERS[s] for s in STRATEGIES if s != "optv1"}

assemble_base = SCALAR_DRIVERS["base"]
assemble_optv1 = SCALAR_DRIVERS["optv1"]
assemble_optv2 = SCALAR_DRIVERS["optv2"]
assemble_optv = SCALAR_DRIVERS["optv"]
assemble_optvs = SCALAR_DRIVERS["optvs"]
assemble_vector_base = VECTOR_DRIVERS["base"]
assemble_vector_optv2 = VECTOR_DRIVERS["optv2"]
assemble_vector_optv = VECTOR_DRIVERS["optv"]
assemble_vector_optvs = VECTOR_DRIVERS["optvs"]


def assemble_mass_pk(pkmesh: PkMesh, coeffs: PkCoeffTable) -> SparseMatrix:
    """Mass matrix on an order-k node lattice, ``optv2`` strategy.

    Every local entry is the element-independent coefficient d!*C[a, b]
    scaled by the element volume.
    """
    if (pkmesh.d, pkmesh.k) != (coeffs.d, coeffs.k):
        raise ValueError(
            f"coefficient table (d={coeffs.d}, k={coeffs.k}) does not match "
            f"lattice mesh (d={pkmesh.d}, k={pkmesh.k})"
        )
    return assemble_optv2(pkmesh, PkMassKernel(pkmesh, coeffs))
