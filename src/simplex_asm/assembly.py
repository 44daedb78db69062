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
* ``optv2``  - one batched kernel call per local pair (with a kernel
  flagged symmetric, per upper one) fills whole-mesh value arrays, the
  node-diagonal blocks are summed densely, and one constructor call at
  the end takes both;
* ``optv``   - one element-length triplet batch per local pair between
  distinct vertices, added into the sum of its component pair as it
  goes (for a vector kernel at node level, laid out once at the end),
  then the node-diagonal blocks, summed densely;
* ``optvs``  - like ``optv`` over the strict upper triangle ``ii < jj``
  only, then one transpose-add, then the node-diagonal blocks.

``base`` and ``optv1`` visit the local pairs column by column (``jj``
outer, ``ii`` inner).  The one-shot strategies sum every entry's terms in
element order, so ``base``, ``optv1`` and ``optv2`` are bitwise
identical.  For a scalar kernel every strategy reproduces the scalar
loops of the paper triplet for triplet.

``optv`` and ``optvs`` are the paper's ``M = M + sparse(I, J, K)``, one
merge per local pair, but local pair ``(l*nloc + a, n*nloc + b)`` writes
only the dof entries ``(m*i + l, m*j + n)``, so two component pairs
``(l, n)`` never write the same entry, and since every element lists
distinct vertices (``mesh`` rejects any other), the vertex pairs ``(a,
a)`` write exactly the node-diagonal entries, ``i == j``, and no other
vertex pair writes one.  Each component pair therefore sums its own local
pairs between distinct vertices, ``optv`` column by column (``b`` outer,
``a`` inner) and ``optvs`` over ``l <= n`` row by row (``a`` outer, ``b``
inner, keeping ``ii < jj``), and ``optvs`` then adds the transpose.  The
pairs ``(a, a)`` need no sort and no merge: each component pair's values
go into a dense ``(m, m, nq)`` array of node-diagonal blocks by one
``bincount`` over ``me[a]`` per vertex, in the order of ``a``,
``optvs``'s upper component pairs are copied to their transposes, and
one construction and one last ``add`` bring the blocks in.  The result
is bitwise that of the paper's single accumulator: every entry still
gets the same per-pair sums in the same order, each summed
in element order from +0.0 (``bincount`` sums as the constructor does),
summing matrices with disjoint patterns only interleaves their entries,
and whether an entry is kept or dropped as an exact zero depends on its
own sums only; a sum that no pair writes stays 0.0, which adds as an
absent one, since x + 0.0 is x, and is never stored.

A scalar kernel has one component pair, the paper's one sum: each local
pair between distinct vertices is constructed and added into the growing
matrix.  The local pairs of a vector kernel's vertex pair ``(a, b)``, ``a
!= b``, all index the node stream ``(me[a], me[b])``, so ``optv`` and
``optvs`` evaluate every component pair that the vertex pair needs (all
``m*m`` for ``optv``; for ``optvs`` ``l <= n`` when ``a < b`` and ``l <
n`` otherwise) and hand them to ``sparse_from_triplets`` in one call,
through its private ``_pairs`` keyword, which sorts the node keys once
and returns each listed component pair's node sums.  The engine keeps one
running ``(keys, sums)`` of node sums, one row per component pair: the
first vertex pair's sums start it (it lists every component pair), and
``sparse._add_blocks`` adds each later vertex pair's in by one binary
search, a component pair that the vertex pair does not list adding 0.0.
``sparse._block_csr`` lays the running sums out once, placing only the
nonzero ones.  ``optv`` visits the vertex pairs ``b`` outer, ``a`` inner,
and ``optvs`` ``a`` outer, ``b`` inner, so each component pair gets its
sums in the order above, and each node sum is bitwise what adding the
vertex pairs' matrices one by one gives.  On 3D elasticity ``optv`` and
``optvs`` each make 12 node-stream constructions and 11 node-level
merges (260k node entries in), plus the one construction of the
node-diagonal blocks, where one call per local pair would sort 144 and
78 dof streams; ``add`` then merges 0.26M entries in 1 call for ``optv``
and 0.50M in 2 for ``optvs``, against 21.3M and 8.34M for one growing
accumulator.

``optv2`` streams the vertex pairs ``a < b``, in one stream for every
kernel and every ``m`` (a scalar kernel is the case m = 1).  All ``m*m``
component pairs of each are evaluated as whole-mesh vectors into one
block batch streamed element-major: its 1-D node arrays are ``me[a]`` and
``me[b]`` element by element, vertex pair by vertex pair within an
element, and each component pair's values, laid out ``(nme, npairs)``,
come from one transposing copy of the kernel's ``(npairs, nme)`` rows.
Unless the kernel is flagged ``symmetric``, the swapped orientation
``batched(l, b, n, a)`` goes into a second buffer of the same layout,
handed over through ``sparse_from_triplets``' private ``_diagonal``
keyword.  The constructor keys each block by its upper
node entry, sorts those node keys once and, with a bitwise blend on the
elements where ``me[a] > me[b]``, sums the upper runs (the orientation
that writes the upper entry) and the lower runs in element order; it
then lays out each node row's lower blocks, diagonal block and upper
blocks.  A kernel flagged ``symmetric`` promises that ``batched(l, a, n,
b)`` is ``batched(n, b, l, a)`` bit for bit (for a scalar kernel,
``batched(a, b)`` is ``batched(b, a)``; see ``kernels``), so its swapped
orientation is its own transposed component pair and its lower blocks
are its upper blocks transposed: 6 of the 9 kernel calls per triangle for
a scalar kernel, 78 instead of 144 for 3D elasticity.  The vertex pairs
``(a, a)`` write exactly the node-diagonal blocks, and the engine sums
each of their component pairs (``l <= n`` for a symmetric kernel, whose
pair ``(n, l)`` copies it) by one ``bincount`` over the element-major
node table into a dense ``(m, m, nq)`` array, which goes to the
constructor with the batch.  The result is bitwise that of the full
stream of every local pair and of ``base``: an element adds at most one
term to an entry, and every entry, upper, lower or diagonal, sums the
terms of its elements in element order from +0.0.
"""

from __future__ import annotations

import numpy as np

from .errors import NonSymmetricKernelError
from .kernels import PkCoeffTable, PkMassKernel
from .mesh import Mesh, PkMesh
from .sparse import (
    SparseMatrix,
    TripletBatch,
    _add_blocks,
    _block_csr,
    add,
    sparse_from_triplets,
    transpose,
)

STRATEGIES = ("base", "optv1", "optv2", "optv", "optvs")


def _assemble(mesh, kernel, strategy: str) -> SparseMatrix:
    """Assemble ``kernel`` over ``mesh`` (a Mesh or a PkMesh) with one of
    the five strategies; ``strategy`` is a name from ``STRATEGIES``."""
    vector = hasattr(kernel, "m")
    m = kernel.m if vector else 1
    nloc, nme = mesh.me.shape
    ndof = m * mesh.nq
    size = m * nloc
    # ii -> the kernel's index of local dof ii: (l, alpha), or (alpha,)
    local = [divmod(ii, nloc) if vector else (ii,) for ii in range(size)]

    if strategy == "optv2":
        # every component pair of the vertex pairs a < b streams
        # element-major as one 1-D block batch (of one value each for a
        # scalar kernel, m = 1), and for a kernel not flagged symmetric so
        # does the swapped orientation (b, a); the constructor keys both by
        # the upper node entry and mirrors them.  The vertex pairs (a, a)
        # write the node-diagonal blocks only, and each component pair's
        # are summed here in element order by one bincount; a symmetric
        # kernel's pair (n, l) copies (l, n).  The buffers are passed on
        # unnamed, so that the constructor can free them
        rows, cols = np.triu_indices(nloc, 1)
        pairs = list(zip(rows.tolist(), cols.tolist()))

        def stream(vertex_pairs):
            # element-major, as the node indices: run l*m + n of component
            # pair (l, n) holds [element, vertex pair], one transposing copy
            # of the kernel's rows
            out = np.empty((m * m, nme, len(vertex_pairs)))
            run = np.empty((len(vertex_pairs), nme))
            for p in range(m * m):
                l, n = divmod(p, m)
                out[p] = _evaluate(kernel, [local[l * nloc + a] + local[n * nloc + b]
                                            for a, b in vertex_pairs], run).T
            return out

        nodes, blocks = mesh.me.T.ravel(), np.zeros((m, m, mesh.nq))
        terms = np.empty((nme, nloc))  # element-major, as the nodes
        for l in range(m):
            for n in range(l, m) if kernel.symmetric else range(m):
                _evaluate(kernel, [local[l * nloc + a] + local[n * nloc + a]
                                   for a in range(nloc)], terms.T)
                blocks[l, n] = np.bincount(nodes, weights=terms.ravel(),
                                           minlength=mesh.nq)
                if kernel.symmetric:
                    blocks[n, l] = blocks[l, n]
        del nodes, terms
        # the node indices go element-major, as the values, by one strided
        # copy per vertex pair: in 2D that takes about half the time of a
        # transposing copy of me[rows]
        return sparse_from_triplets(
            TripletBatch(ndof, ndof, *(np.stack([mesh.me[v] for v in vs], axis=1).ravel()
                                       for vs in (rows, cols)), stream(pairs), m),
            _diagonal=(blocks, None if kernel.symmetric
                       else stream([(b, a) for a, b in pairs])))

    if strategy in ("base", "optv1"):
        # (size, nme) table of every local dof's global dof: component l of
        # local node alpha is dof m*me[alpha] + l
        table = np.concatenate([m * mesh.me + l for l in range(m)])
        single = kernel.single
        pairs = [(ii, jj, local[ii] + local[jj])
                 for jj in range(size) for ii in range(size)]
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

    # optv or optvs
    symmetric = strategy == "optvs"
    if symmetric and not kernel.symmetric:
        raise NonSymmetricKernelError(
            "the symmetrized driver requires a kernel flagged symmetric"
        )
    # the component pairs (l, n) in the order their first local pairs come:
    # optv column by column, optvs over the upper triangle row by row
    order = ([(l, n) for l in range(m) for n in range(l, m)] if symmetric
             else [(l, n) for n in range(m) for l in range(m)])

    # component pair (l, n) writes only the dof entries (m*i + l, m*j + n),
    # so each sums its own local pairs, in their order (optv visits b
    # outer, a inner; optvs a outer, b inner, keeping l*nloc + a <
    # n*nloc + b).  The vertices of an element are distinct, so only the
    # vertex pairs (a, a) write the node-diagonal blocks (i, i), and they
    # are summed apart, below.  A scalar kernel's vertex pair is its one
    # local pair, added into the growing matrix; a vector kernel's vertex
    # pair gives the node sums of its listed component pairs from one sort
    # of the node keys, added into the running node sums of every
    # component pair, which are laid out once at the end
    out = keys = None
    for a, b in ([(a, b) for a in range(nloc) for b in range(nloc)] if symmetric
                 else [(a, b) for b in range(nloc) for a in range(nloc)]):
        listed = [(l, n) for l, n in order if not symmetric or l < n or a < b]
        if a == b or not listed:
            continue
        if m == 1:
            mat = sparse_from_triplets(TripletBatch(
                ndof, ndof, mesh.me[a], mesh.me[b], kernel.batched(a, b)))
            out = mat if out is None else add(out, mat)
            del mat
            continue
        shape = (len(listed), nme)
        uniq, sums = sparse_from_triplets(
            TripletBatch(ndof, ndof, np.broadcast_to(mesh.me[a], shape),
                         np.broadcast_to(mesh.me[b], shape),
                         _evaluate(kernel, [(l, a, n, b) for l, n in listed],
                                   np.empty(shape))),
            _pairs=(m, listed))
        if keys is None:  # the first vertex pair lists every component pair
            keys, total = uniq, sums
        else:
            keys, total = _add_blocks(keys, total, uniq, sums,
                                      [order.index(ln) for ln in listed])
        del uniq, sums  # not held through the layout and the last merges
    if m > 1:
        out = _block_csr(ndof, ndof, m, order, keys, total)
        del keys, total
    if symmetric:
        out = add(out, transpose(out))
    # node i's diagonal block sums, per component pair, the values of the
    # elements with me[a] == i over a in the order of the sweep; bincount
    # sums each node in element order from +0.0, as the constructor does,
    # and a node's entry that stays 0.0 is dropped, as the paper's loop
    # drops it, since x + 0.0 is x
    blocks = np.zeros((m, m, mesh.nq))
    for a in range(nloc):
        for l, n in order:
            blocks[l, n] += np.bincount(
                mesh.me[a], minlength=mesh.nq,
                weights=kernel.batched(*local[l * nloc + a], *local[n * nloc + a]))
    if symmetric:  # the transpose of the upper component pairs
        for l, n in order:
            blocks[n, l] = blocks[l, n]
    nodes = np.arange(mesh.nq)
    diag = sparse_from_triplets(TripletBatch(ndof, ndof, nodes, nodes, blocks, m))
    del nodes, blocks  # not held through the last merge
    return add(out, diag)


def _evaluate(kernel, pairs, out: np.ndarray) -> np.ndarray:
    """``out``, its row p set to ``kernel.batched(*pairs[p])``."""
    for p, pair in enumerate(pairs):
        out[p] = kernel.batched(*pair)
    return out


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
