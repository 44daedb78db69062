"""Simplicial meshes in arbitrary dimension, plus higher-order node lattices.

A mesh stores vertex coordinates ``q`` (d-by-nq), zero-based connectivity
``me`` ((d+1)-by-nme) and simplex volumes ``vols`` (nme,).  Meshes are
immutable after construction and safe to share read-only across threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    DegenerateSimplexError,
    IndexRangeError,
    MeshFormatError,
    MeshValidationError,
)
from .sparse import _loadtxt, _write_lines

_MAX_INDEX = np.iinfo(np.int64).max

MESH_FORMAT_VERSION = 1


def _check_connectivity_shape(d: int, me: np.ndarray) -> None:
    if me.ndim != 2 or me.shape[0] != d + 1:
        raise MeshValidationError(
            f"connectivity shape {me.shape} does not match ({d + 1}, nme)"
        )


def reference_gradients(d: int) -> np.ndarray:
    """Gradients of the barycentric coordinates on the reference simplex,
    one per column: [-1 | I_d], shape (d, d+1)."""
    return np.hstack([-np.ones((d, 1)), np.eye(d)])


def _cofactors(edges):
    """cof[j][i] = component i of det(B) * (row j of B^-1), for d <= 3:
    1 in 1D, the rotated other edge in 2D, the cross product of the other
    two edges in 3D.  Row j is orthogonal to every edge but edge j."""
    d = len(edges)
    if d == 1:
        return [[1.0]]
    if d == 2:
        (x0, x1), (y0, y1) = edges
        return [[y1, -x1], [-y0, x0]]
    e = edges.transpose(1, 0, 2)          # e[j, i] = coord i of edge j
    return [[e[(j + 1) % 3, (i + 1) % 3] * e[(j + 2) % 3, (i + 2) % 3]
             - e[(j + 1) % 3, (i + 2) % 3] * e[(j + 2) % 3, (i + 1) % 3]
             for i in range(3)] for j in range(3)]


def simplex_geometry(q: np.ndarray, me: np.ndarray, gradients: bool = False):
    """Signed determinants of the edge matrices B_k, shape (nme,), and, if
    ``gradients``, the barycentric gradients, shape (d+1, d, nme).

    Column j of B_k is the edge vector from local vertex 0 to local vertex
    j + 1 of simplex k; grads[a, i, k] is component i of the gradient of
    the a-th barycentric coordinate on simplex k, stored component-major,
    the layout the kernels read.  For d <= 3 one closed-form pass computes
    both: the determinant by cofactor expansion along the first edge,
    gradient a = cofactor row a / det for a >= 1, and gradient 0 = minus
    the sum of the others.  For d > 3 the determinants come from
    ``np.linalg.det`` and the gradients from solving B_k^t G_k = [-1 | I_d].

    Raises MeshValidationError when the connectivity does not have d + 1
    rows, and DegenerateSimplexError naming the first simplex whose
    determinant is exactly zero.
    """
    d = q.shape[0]
    _check_connectivity_shape(d, me)
    # edges[i, j, k] = coord i of (vertex j+1 minus vertex 0) on simplex k,
    # gathered one coordinate at a time so every pass runs along the elements
    edges = np.empty((d, d, me.shape[1]))
    for i in range(d):
        coord = q[i].take(me)
        np.subtract(coord[1:], coord[0], out=edges[i])
        del coord  # not held through the determinants
    if d <= 3:
        cof = _cofactors(edges)
        dets = edges[0, 0] * cof[0][0]
        for i in range(1, d):
            dets += edges[i, 0] * cof[0][i]
    else:
        bmats = np.moveaxis(edges, 2, 0)
        dets = np.linalg.det(bmats)
    degenerate = np.flatnonzero(dets == 0.0)
    if degenerate.size:
        raise DegenerateSimplexError(int(degenerate[0]))
    if not gradients:
        return dets, None

    grads = np.empty((d + 1, d, me.shape[1]))
    if d <= 3:
        for j in range(d):
            for i in range(d):
                np.divide(cof[j][i], dets, out=grads[j + 1, i])
        np.sum(grads[1:], axis=0, out=grads[0])
        np.negative(grads[0], out=grads[0])
    else:
        rhs = np.broadcast_to(reference_gradients(d), (len(dets), d, d + 1))
        grads[...] = np.linalg.solve(bmats.transpose(0, 2, 1), rhs).transpose(2, 1, 0)
    return dets, grads


def compute_volumes(q: np.ndarray, me: np.ndarray) -> np.ndarray:
    """Volumes |det B_k| / d! of every simplex (see ``simplex_geometry``)."""
    dets, _ = simplex_geometry(q, me)
    return np.abs(dets) / math.factorial(q.shape[0])


def _check_mesh_arrays(q: np.ndarray, me: np.ndarray) -> None:
    """Reject malformed connectivity and non-finite coordinates.

    Raises MeshValidationError when the coordinates are not a (d, nq)
    array or the connectivity is not (d+1)-by-nme, MeshValidationError
    naming the first element with a non-integral vertex index (integral
    floats such as 2.0 pass), IndexRangeError naming the first element
    with a vertex index outside [0, nq), DegenerateSimplexError naming the
    first element that lists a vertex twice, and MeshValidationError
    naming the first non-finite node.  A repeated vertex makes two edges
    equal, yet rounding can leave the determinant short of exactly 0, so
    the rows are compared pair by pair instead.
    """
    if q.ndim != 2:
        raise MeshValidationError(f"coordinate array shape {q.shape} is not (d, nq)")
    _check_connectivity_shape(q.shape[0], me)
    if me.dtype.kind == "f":
        fractional = ~np.isfinite(me) | (me != np.trunc(me))
        if fractional.any():
            elem = int(np.flatnonzero(fractional.any(axis=0))[0])
            vert = me[fractional[:, elem].argmax(), elem]
            raise MeshValidationError(
                f"element {elem} references vertex {vert}, which is not an integer"
            )
    nq = q.shape[1]
    bad = (me < 0) | (me >= nq)
    if bad.any():
        elem = int(np.flatnonzero(bad.any(axis=0))[0])
        vert = int(me[bad[:, elem].argmax(), elem])
        raise IndexRangeError(
            f"element {elem} references vertex {vert}, valid range is [0, {nq})"
        )
    repeated = np.zeros(me.shape[1], dtype=bool)
    for a, b in itertools.combinations(range(len(me)), 2):
        repeated |= me[a] == me[b]
    if repeated.any():
        raise DegenerateSimplexError(int(repeated.argmax()))
    finite = np.isfinite(q).all(axis=0)
    if not finite.all():
        node = int(np.flatnonzero(~finite)[0])
        raise MeshValidationError(f"node {node} has non-finite coordinates")


@dataclass(frozen=True, eq=False)
class Mesh:
    """A conforming mesh of d-simplices."""

    q: np.ndarray     # (d, nq) vertex coordinates
    me: np.ndarray    # (d+1, nme) zero-based connectivity
    vols: np.ndarray  # (nme,) strictly positive simplex volumes

    @classmethod
    def from_arrays(cls, q, me) -> "Mesh":
        q = np.ascontiguousarray(q, dtype=np.float64)
        me = np.asarray(me)
        _check_mesh_arrays(q, me)
        me = np.ascontiguousarray(me, dtype=np.int64)
        return cls(q, me, compute_volumes(q, me))

    @property
    def d(self) -> int:
        return self.q.shape[0]

    @property
    def nq(self) -> int:
        return self.q.shape[1]

    @property
    def nme(self) -> int:
        return self.me.shape[1]

    def validate(self) -> None:
        """Check the structural invariants.

        Validation is a separate pass so that assembly and benchmark paths
        never pay for it implicitly.  Besides the checks of ``from_arrays``
        and the volumes, it rejects an element whose vertex set repeats an
        earlier element's, naming both: that simplex would be assembled
        twice.  Each element's vertices are sorted, and one stable
        lexicographic sort of the sorted sets puts equal sets next to each
        other in element order.
        """
        _check_mesh_arrays(self.q, self.me)
        verts = np.sort(self.me, axis=0)
        order = np.lexsort(verts[::-1])
        repeat = (verts[:, order[1:]] == verts[:, order[:-1]]).all(axis=0)
        if repeat.any():
            t = np.flatnonzero(repeat)[order[1:][repeat].argmin()]
            raise MeshValidationError(
                f"element {order[t + 1]} repeats the vertices of element {order[t]}"
            )
        if self.vols.shape != (self.nme,):
            raise MeshValidationError(
                f"volume array shape {self.vols.shape} does not match (nme,)"
            )
        if np.any(self.vols <= 0.0):
            k = int(np.flatnonzero(self.vols <= 0.0)[0])
            raise MeshValidationError(f"volume of simplex {k} is not positive")
        recomputed = compute_volumes(self.q, self.me)
        err = np.abs(self.vols - recomputed)
        if np.any(err > 1e-12 * recomputed):
            k = int(np.flatnonzero(err > 1e-12 * recomputed)[0])
            raise MeshValidationError(
                f"stored volume of simplex {k} disagrees with its coordinates"
            )


def generate_hypercube_mesh(d: int, n: int) -> Mesh:
    """Kuhn triangulation of the unit hypercube [0,1]^d, n cells per axis.

    Every grid cell is split into d! simplices, one per axis permutation,
    so nme = d! * n**d and nq = (n+1)**d.  Vertex and element ordering are
    deterministic: grid points in row-major order, elements cell-major with
    the permutations of one cell kept adjacent.  The total volume is 1.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if n < 1:
        raise ValueError(f"subdivision count must be >= 1, got {n}")
    nq = (n + 1) ** d
    nme = math.factorial(d) * n**d
    if nq > _MAX_INDEX or (d + 1) * nme > _MAX_INDEX:
        raise CapacityError(
            f"hypercube mesh d={d}, n={n} exceeds the platform index range"
        )

    grid = np.indices((n + 1,) * d).reshape(d, -1)
    q = grid / float(n)

    strides = (n + 1) ** np.arange(d - 1, -1, -1, dtype=np.int64)
    # the grid point at the low corner of each of the n**d cells
    corner = strides @ np.indices((n,) * d).reshape(d, -1)

    # vertex j of a cell's simplex for one axis permutation is the cell
    # corner plus the strides of the first j axes the permutation visits;
    # element cell*d! + p belongs to permutation p, so those of one cell
    # are consecutive
    me = np.empty((d + 1, nme), dtype=np.int64)
    slots = me.reshape(d + 1, n**d, math.factorial(d))
    for p, perm in enumerate(itertools.permutations(range(d))):
        slots[0, :, p] = corner
        offset = 0
        for j, axis in enumerate(perm, 1):
            offset += int(strides[axis])
            np.add(corner, offset, out=slots[j, :, p])
    return Mesh(q, me, compute_volumes(q, me))


# ---------------------------------------------------------------------------
# Higher-order node lattices


def multi_index_lattice(d: int, k: int) -> list[tuple[int, ...]]:
    """All exponent tuples of length d+1 summing to k, in descending
    lexicographic order.

    The tuple (k, 0, ..., 0) comes first, so for k = 1 the lattice
    enumerates the element vertices in their connectivity order.  This is
    the local numbering used for both node lattices and mass coefficient
    tables.
    """
    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for tail in compositions(total - head, slots - 1):
                yield (head,) + tail

    return list(compositions(k, d + 1))


@dataclass(frozen=True, eq=False)
class PkMesh:
    """Node lattice of order k over a simplicial mesh.

    Each simplex carries ndfe = (d+k)!/(d!k!) nodes placed at barycentric
    lattice points; nodes shared between simplices are stored once.  The
    original mesh vertices keep their indices, added nodes follow.
    """

    d: int
    k: int
    q: np.ndarray     # (d, nq) node coordinates
    me: np.ndarray    # (ndfe, nme) zero-based node connectivity
    vols: np.ndarray  # (nme,) simplex volumes, copied from the source mesh

    @property
    def ndfe(self) -> int:
        return self.me.shape[0]

    @property
    def nq(self) -> int:
        return self.q.shape[1]

    @property
    def nme(self) -> int:
        return self.me.shape[1]


def build_pk_mesh(mesh: Mesh, k: int) -> PkMesh:
    """Build the order-k node lattice of a mesh.

    Shared nodes are merged by exact lattice identity, never by
    floating-point coordinate comparison.  A lattice point with integer
    barycentric weights ``alpha`` on an element is keyed by the sorted
    codes ``vertex id*(k+1) + alpha_i`` of its nonzero weights (padded
    with -1), and one stable lexicographic sort of the keys of every
    (element, lattice point) numbers the nodes.  Corner points keep their
    vertex ids; the other nodes follow in order of first appearance,
    element by element, each placed from the element it first appears on.
    For k = 1 the result is structurally identical to the source mesh.
    """
    if k < 1:
        raise ValueError(f"polynomial order must be >= 1, got {k}")
    d = mesh.d
    lattice = np.array(multi_index_lattice(d, k)).T      # (d+1, ndfe)
    ndfe = lattice.shape[1]
    if max(ndfe * mesh.nme, (k + 1) * mesh.nq) > _MAX_INDEX:
        raise CapacityError(f"order-{k} lattice exceeds the platform index range")

    me = np.empty((ndfe, mesh.nme), dtype=np.int64)
    corner = lattice.max(axis=0) == k
    me[corner] = mesh.me[lattice[:, corner].argmax(axis=0)]

    inner = lattice[:, ~corner]                          # (d+1, ninner)
    ninner = inner.shape[1]
    codes = np.where(inner[:, None, :] > 0,
                     mesh.me[:, :, None] * (k + 1) + inner[:, None, :], -1)
    keys = np.sort(codes.transpose(1, 2, 0), axis=-1).reshape(-1, d + 1)
    # group equal keys with a stable lexicographic sort; the groups' own
    # order never reaches the output, which ranks them by first appearance
    perm = np.lexsort(keys.T[::-1])
    keys = keys[perm]
    starts = np.ones(len(keys), dtype=bool)
    np.any(keys[1:] != keys[:-1], axis=1, out=starts[1:])
    first = perm[starts]
    inverse = np.empty_like(perm)
    inverse[perm] = np.cumsum(starts) - 1
    order = np.argsort(first)            # unique keys by first appearance
    rank = np.argsort(order)
    me[~corner] = mesh.nq + rank[inverse].reshape(mesh.nme, ninner).T

    elem, local = np.divmod(first[order], ninner)
    corners = mesh.q[:, mesh.me[:, elem]].transpose(2, 0, 1)  # (nnew, d, d+1)
    weights = inner[:, local].T[:, :, None] / k               # (nnew, d+1, 1)
    q = np.hstack([mesh.q, (corners @ weights)[:, :, 0].T])
    return PkMesh(d, k, q, me, mesh.vols)


# ---------------------------------------------------------------------------
# Mesh file I/O
#
# Line-oriented text format:
#   simplexmesh <version> <d> <nq> <nme>
#   nq lines of d coordinates, then nme lines of d+1 zero-based indices.
# Volumes are recomputed on load, never stored.  The reader parses each
# table with one np.loadtxt; the writer formats the lines in chunks.


def write_mesh(mesh: Mesh, path) -> None:
    """Write ``mesh`` in the format above: each node's coordinates as
    ``%.17g``, so that reading them back is exact, and each element's
    vertex indices as ``%d``.  The lines come from ``sparse._write_lines``,
    which formats each distinct coordinate of a chunk once where
    coordinates repeat, as on an unjittered grid; the bytes are those of
    one ``%`` per line, and 0.0 and -0.0 stay apart."""
    with open(path, "w") as f:
        f.write(f"simplexmesh {MESH_FORMAT_VERSION} {mesh.d} {mesh.nq} {mesh.nme}\n")
        _write_lines(f, *mesh.q)
        _write_lines(f, *mesh.me)


def _read_table(lines, dtype, width, path, what) -> np.ndarray:
    """One table of the mesh file as a (width, rows) array."""
    table = _loadtxt(lines, MeshFormatError, f"{path}: {what}", dtype=dtype,
                     comments=None, ndmin=2)
    if table.size and table.shape[1] != width:
        raise MeshFormatError(
            f"{path}: {what} has {table.shape[1]} columns, expected {width}"
        )
    return table.reshape(-1, width).T


def read_mesh(path) -> Mesh:
    with open(path) as f:
        lines = [ln for ln in map(str.strip, f) if ln]
    if not lines:
        raise MeshFormatError(f"{path}: empty mesh file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "simplexmesh":
        raise MeshFormatError(f"{path}: malformed header {lines[0]!r}")
    try:
        version, d, nq, nme = (int(t) for t in header[1:])
    except ValueError as exc:
        raise MeshFormatError(f"{path}: non-integer header field") from exc
    if version != MESH_FORMAT_VERSION:
        raise MeshFormatError(f"{path}: unsupported format version {version}")
    if d < 1 or nq < 0 or nme < 0:
        raise MeshFormatError(f"{path}: invalid header sizes d={d} nq={nq} nme={nme}")
    if len(lines) != 1 + nq + nme:
        raise MeshFormatError(
            f"{path}: expected {1 + nq + nme} lines, found {len(lines)}"
        )
    q = _read_table(lines[1:1 + nq], np.float64, d, path, "vertex table")
    me = _read_table(lines[1 + nq:], np.int64, d + 1, path, "element table")
    return Mesh.from_arrays(q, me)
