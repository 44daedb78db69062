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

_MAX_INDEX = np.iinfo(np.int64).max

MESH_FORMAT_VERSION = 1


def _check_connectivity_shape(d: int, me: np.ndarray) -> None:
    if me.ndim != 2 or me.shape[0] != d + 1:
        raise MeshValidationError(
            f"connectivity shape {me.shape} does not match ({d + 1}, nme)"
        )


def edge_matrices(q: np.ndarray, me: np.ndarray):
    """Edge matrices B_k, shape (nme, d, d), and their determinants.

    Column i of B_k is the edge vector from local vertex 0 to local vertex
    i + 1 of simplex k.  Raises MeshValidationError when the connectivity
    does not have d + 1 rows, and DegenerateSimplexError naming the first
    simplex whose edge matrix is singular.
    """
    _check_connectivity_shape(q.shape[0], me)
    # edges[i, j, k] = coord i of (vertex j+1 minus vertex 0) on simplex k
    edges = q[:, me[1:]] - q[:, me[0]][:, None, :]
    bmats = np.moveaxis(edges, 2, 0)
    dets = np.linalg.det(bmats)
    degenerate = np.flatnonzero(dets == 0.0)
    if degenerate.size:
        raise DegenerateSimplexError(int(degenerate[0]))
    return bmats, dets


def compute_volumes(q: np.ndarray, me: np.ndarray) -> np.ndarray:
    """Volumes |det B_k| / d! of every simplex (see ``edge_matrices``)."""
    _, dets = edge_matrices(q, me)
    return np.abs(dets) / math.factorial(q.shape[0])


def _check_mesh_arrays(q: np.ndarray, me: np.ndarray) -> None:
    """Reject malformed connectivity and non-finite coordinates.

    Raises MeshValidationError when the coordinates are not a (d, nq)
    array or the connectivity is not (d+1)-by-nme, MeshValidationError
    naming the first element with a non-integral vertex index (integral
    floats such as 2.0 pass), IndexRangeError naming the first element
    with a vertex index outside [0, nq), and MeshValidationError naming
    the first non-finite node.
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
        never pay for it implicitly.
        """
        _check_mesh_arrays(self.q, self.me)
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
    cells = np.indices((n,) * d).reshape(d, -1)   # (d, n**d) cell corners

    per_perm = []
    for perm in itertools.permutations(range(d)):
        offset = np.zeros(d, dtype=np.int64)
        verts = [strides @ cells]
        for axis in perm:
            offset[axis] += 1
            verts.append(strides @ (cells + offset[:, None]))
        per_perm.append(np.stack(verts))          # (d+1, n**d)
    # interleave so elements of one cell are consecutive
    me = np.stack(per_perm)                       # (d!, d+1, n**d)
    me = me.transpose(2, 0, 1).reshape(nme, d + 1).T
    return Mesh(q, np.ascontiguousarray(me), compute_volumes(q, me))


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

    Shared nodes are merged by exact lattice identity: a node is keyed by
    the set of (vertex id, integer barycentric weight) pairs with nonzero
    weight, never by floating-point coordinate comparison.  For k = 1 the
    result is structurally identical to the source mesh.
    """
    if k < 1:
        raise ValueError(f"polynomial order must be >= 1, got {k}")
    d = mesh.d
    lattice = multi_index_lattice(d, k)
    ndfe = len(lattice)
    if ndfe * mesh.nme > _MAX_INDEX:
        raise CapacityError(f"order-{k} lattice exceeds the platform index range")

    # which lattice points are plain vertices, and of which local vertex
    vertex_slot = {}
    for local, alpha in enumerate(lattice):
        if max(alpha) == k:
            vertex_slot[local] = alpha.index(k)

    me = np.empty((ndfe, mesh.nme), dtype=np.int64)
    node_ids: dict[tuple, int] = {}
    new_coords: list[np.ndarray] = []
    alphas = np.array(lattice, dtype=np.float64).T / k   # (d+1, ndfe)

    for elem in range(mesh.nme):
        verts = mesh.me[:, elem]
        for local, alpha in enumerate(lattice):
            slot = vertex_slot.get(local)
            if slot is not None:
                me[local, elem] = verts[slot]
                continue
            key = tuple(sorted(
                (int(verts[i]), alpha[i]) for i in range(d + 1) if alpha[i]
            ))
            node = node_ids.get(key)
            if node is None:
                node = mesh.nq + len(new_coords)
                node_ids[key] = node
                new_coords.append(mesh.q[:, verts] @ alphas[:, local])
            me[local, elem] = node

    if new_coords:
        q = np.hstack([mesh.q, np.column_stack(new_coords)])
    else:
        q = mesh.q
    return PkMesh(d, k, q, me, mesh.vols)


# ---------------------------------------------------------------------------
# Mesh file I/O
#
# Line-oriented text format:
#   simplexmesh <version> <d> <nq> <nme>
#   nq lines of d coordinates, then nme lines of d+1 zero-based indices.
# Volumes are recomputed on load, never stored.


def write_mesh(mesh: Mesh, path) -> None:
    with open(path, "w") as f:
        f.write(f"simplexmesh {MESH_FORMAT_VERSION} {mesh.d} {mesh.nq} {mesh.nme}\n")
        for j in range(mesh.nq):
            f.write(" ".join(f"{x:.17g}" for x in mesh.q[:, j]) + "\n")
        for kk in range(mesh.nme):
            f.write(" ".join(str(i) for i in mesh.me[:, kk]) + "\n")


def read_mesh(path) -> Mesh:
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
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

    q = np.empty((d, nq))
    for j in range(nq):
        parts = lines[1 + j].split()
        if len(parts) != d:
            raise MeshFormatError(
                f"{path}: vertex line {j} has {len(parts)} coordinates, expected {d}"
            )
        try:
            q[:, j] = [float(p) for p in parts]
        except ValueError as exc:
            raise MeshFormatError(f"{path}: bad coordinate on vertex line {j}") from exc

    me = np.empty((d + 1, nme), dtype=np.int64)
    for kk in range(nme):
        parts = lines[1 + nq + kk].split()
        if len(parts) != d + 1:
            raise MeshFormatError(
                f"{path}: element line {kk} has {len(parts)} indices, expected {d + 1}"
            )
        try:
            me[:, kk] = [int(p) for p in parts]
        except ValueError as exc:
            raise MeshFormatError(f"{path}: bad index on element line {kk}") from exc
    return Mesh.from_arrays(q, me)
