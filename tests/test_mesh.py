import itertools
import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplex_asm import (
    CapacityError,
    DegenerateSimplexError,
    IndexRangeError,
    Mesh,
    MeshFormatError,
    MeshValidationError,
    build_pk_mesh,
    compute_volumes,
    generate_hypercube_mesh,
    multi_index_lattice,
    read_mesh,
    reference_gradients,
    write_mesh,
)
from simplex_asm.mesh import _cofactors, simplex_geometry

from test_assembly import shuffled_mesh


@pytest.mark.parametrize("d,n,nq,nme", [
    (1, 4, 5, 4),
    (2, 1, 4, 2),
    (3, 2, 27, 48),   # d! * n^d = 6 * 8
])
def test_hypercube_counts_and_volume(d, n, nq, nme):
    mesh = generate_hypercube_mesh(d, n)
    assert mesh.d == d
    assert (mesh.nq, mesh.nme) == (nq, nme)
    assert abs(mesh.vols.sum() - 1.0) < 1e-14
    mesh.validate()


@pytest.mark.parametrize("d,n", [(1, 7), (2, 5), (3, 3)])
def test_hypercube_volume_invariants(d, n):
    mesh = generate_hypercube_mesh(d, n)
    assert abs(mesh.vols.sum() - 1.0) < 1e-12
    recomputed = compute_volumes(mesh.q, mesh.me)
    assert np.all(np.abs(mesh.vols - recomputed) <= 1e-14 * recomputed)
    assert np.all(mesh.vols > 0)


def test_hypercube_is_deterministic():
    a = generate_hypercube_mesh(3, 2)
    b = generate_hypercube_mesh(3, 2)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.me, b.me)


def kuhn_oracle(d, n):
    """Connectivity of the Kuhn mesh walked vertex by vertex: in every cell,
    in row-major order, each axis permutation steps from the cell corner
    along its axes in turn, one element per permutation."""
    strides = [(n + 1) ** (d - 1 - i) for i in range(d)]
    columns = []
    for cell in itertools.product(range(n), repeat=d):
        for perm in itertools.permutations(range(d)):
            point = list(cell)
            verts = [sum(c * s for c, s in zip(point, strides))]
            for axis in perm:
                point[axis] += 1
                verts.append(sum(c * s for c, s in zip(point, strides)))
            columns.append(verts)
    return np.array(columns, dtype=np.int64).T


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hypercube_numbering_matches_walked_permutations(d, n):
    mesh = generate_hypercube_mesh(d, n)
    want = kuhn_oracle(d, n)
    assert mesh.me.dtype == np.int64
    assert mesh.me.flags.c_contiguous
    assert np.array_equal(mesh.me, want)
    grid = np.indices((n + 1,) * d).reshape(d, -1)
    assert mesh.q.tobytes() == (grid / float(n)).tobytes()
    # the volumes of the same connectivity, transposed (Fortran-ordered for
    # nme > 1) or C-ordered
    assert mesh.vols.tobytes() == compute_volumes(mesh.q, want).tobytes()
    assert mesh.vols.tobytes() == compute_volumes(
        mesh.q, np.ascontiguousarray(want)).tobytes()


def test_hypercube_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_hypercube_mesh(0, 3)
    with pytest.raises(ValueError):
        generate_hypercube_mesh(2, 0)
    with pytest.raises(CapacityError):
        generate_hypercube_mesh(21, 10)


def test_volumes_of_reference_simplices():
    tri = Mesh.from_arrays(np.array([[0., 1., 0.], [0., 0., 1.]]),
                           np.array([[0], [1], [2]]))
    assert tri.vols[0] == pytest.approx(0.5, abs=0)
    tet = Mesh.from_arrays(
        np.array([[0., 1., 0., 0.], [0., 0., 1., 0.], [0., 0., 0., 1.]]),
        np.array([[0], [1], [2], [3]]))
    assert tet.vols[0] == pytest.approx(1 / 6)
    scaled = Mesh.from_arrays(np.array([[0., 2., 0.], [0., 0., 2.]]),
                              np.array([[0], [1], [2]]))
    assert scaled.vols[0] == pytest.approx(2.0, abs=0)


# in each dimension the second simplex is flat: a point, collinear or
# coplanar vertices, whose closed-form determinant is exactly zero
DEGENERATE = {
    1: (np.array([[0., 1., 1.]]), np.array([[0, 1], [1, 2]])),
    2: (np.array([[0., 1., 0., 2.], [0., 0., 1., 0.]]),
        np.array([[0, 0], [1, 1], [2, 3]])),
    3: (np.array([[0., 1., 0., 0., 1.], [0., 0., 1., 0., 1.],
                  [0., 0., 0., 1., 0.]]),
        np.array([[0, 0], [1, 1], [2, 2], [3, 4]])),
}


def test_degenerate_simplex_is_named():
    for q, me in DEGENERATE.values():
        with pytest.raises(DegenerateSimplexError) as err:
            compute_volumes(q, me)
        assert err.value.element == 1
        assert compute_volumes(q, me[:, :1])[0] > 0.0


def fancy_index_geometry(q, me, gradients=True):
    """Determinants and, if ``gradients``, gradients from edges gathered by
    one fancy index, ``q[:, me[1:]] - q[:, me[0]][:, None, :]``, then the
    closed form for d <= 3 and the LU determinant and solve beyond."""
    d = q.shape[0]
    edges = q[:, me[1:]] - q[:, me[0]][:, None, :]
    if d <= 3:
        cof = _cofactors(edges)
        dets = edges[0, 0] * cof[0][0]
        for i in range(1, d):
            dets += edges[i, 0] * cof[0][i]
    else:
        bmats = np.moveaxis(edges, 2, 0)
        dets = np.linalg.det(bmats)
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
        grads[...] = np.linalg.solve(bmats.transpose(0, 2, 1),
                                     rhs).transpose(2, 1, 0)
    return dets, grads


def permuted_geometry_input(d, n, seed):
    """Coordinates and connectivity of a jittered Kuhn mesh with its
    vertices, each element's local vertices and the elements permuted."""
    rng = np.random.default_rng(seed)
    mesh = shuffled_mesh(d, n, seed)
    vperm = rng.permutation(mesh.nq)
    q = np.empty_like(mesh.q)
    q[:, vperm] = mesh.q
    return q, vperm[mesh.me][:, rng.permutation(mesh.nme)]


def layouts(me):
    """``me`` C-ordered, Fortran-ordered and as a strided slice."""
    return {"C": np.ascontiguousarray(me), "F": np.asfortranarray(me),
            "strided": np.repeat(me, 2, axis=1)[:, ::2]}


@pytest.mark.parametrize("d,n", [(1, 9), (2, 4), (3, 3), (4, 2)])
def test_simplex_geometry_matches_fancy_index_gather(d, n):
    q, me = permuted_geometry_input(d, n, seed=10 + d)
    want_dets, want_grads = fancy_index_geometry(q, me)
    for layout, arr in layouts(me).items():
        assert np.array_equal(arr, me), layout
        dets, grads = simplex_geometry(q, arr, gradients=True)
        assert np.array_equal(dets.view(np.int64), want_dets.view(np.int64))
        assert np.array_equal(grads.view(np.int64), want_grads.view(np.int64))
        only_dets, none = simplex_geometry(q, arr)
        assert none is None
        assert np.array_equal(only_dets.view(np.int64), want_dets.view(np.int64))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_degenerate_simplex_named_in_every_layout(d):
    q, me = permuted_geometry_input(d, 8 if d == 1 else 2, seed=20 + d)
    flat = me.copy()
    # a repeated vertex makes an edge zero, so the determinant is exactly 0
    for elem in (me.shape[1] - 2, me.shape[1] // 3):
        flat[d, elem] = flat[0, elem]
    dets, _ = fancy_index_geometry(q, flat, gradients=False)
    assert np.flatnonzero(dets == 0.0).tolist() == [me.shape[1] // 3,
                                                    me.shape[1] - 2]
    for layout, arr in layouts(flat).items():
        with pytest.raises(DegenerateSimplexError) as err:
            simplex_geometry(q, arr, gradients=True)
        assert err.value.element == me.shape[1] // 3, layout


def test_validate_catches_tampering():
    mesh = generate_hypercube_mesh(2, 2)
    bad = Mesh(mesh.q, mesh.me, mesh.vols * np.where(
        np.arange(mesh.nme) == 3, -1.0, 1.0))
    with pytest.raises(MeshValidationError):
        bad.validate()
    wrong = Mesh(mesh.q, mesh.me, mesh.vols * 1.5)
    with pytest.raises(MeshValidationError):
        wrong.validate()
    out_of_range = Mesh(mesh.q, np.where(mesh.me == 0, mesh.nq, mesh.me),
                        mesh.vols)
    with pytest.raises(IndexRangeError):
        out_of_range.validate()
    short = Mesh(mesh.q, mesh.me, mesh.vols[:-1])
    with pytest.raises(MeshValidationError,
                       match=r"volume array shape \(7,\) does not match"):
        short.validate()


TRI_Q = np.array([[0., 1., 0.], [0., 0., 1.]])


def test_from_arrays_rejects_negative_index():
    # a negative index would wrap to the last vertex and give a valid-looking
    # triangle of volume 0.5
    me = np.array([[0, 0], [1, 1], [2, -1]])
    with pytest.raises(IndexRangeError, match="element 1 references vertex -1"):
        Mesh.from_arrays(TRI_Q, me)


def test_from_arrays_rejects_index_past_end():
    me = np.array([[0, 0], [1, 3], [2, 2]])
    with pytest.raises(IndexRangeError, match="element 1 references vertex 3"):
        Mesh.from_arrays(TRI_Q, me)


def test_from_arrays_rejects_non_integral_index():
    # the int64 cast used to truncate [0.5, 1.2, 2.9] to a valid triangle
    with pytest.raises(MeshValidationError,
                       match="element 0 references vertex 0.5, which is not an integer"):
        Mesh.from_arrays(TRI_Q, [[0.5], [1.2], [2.9]])
    me = np.array([[0, 0], [1, 1], [2, 2]], dtype=np.float64)
    me[2, 1] = np.nan
    with pytest.raises(MeshValidationError, match="element 1"):
        Mesh.from_arrays(TRI_Q, me)
    mesh = Mesh.from_arrays(TRI_Q, [[0.0], [1.0], [2.0]])
    assert mesh.me.dtype == np.int64 and mesh.vols[0] == 0.5


@pytest.mark.parametrize("rows", [2, 4])
def test_from_arrays_rejects_wrong_row_count(rows):
    me = np.array([[0], [1], [2], [0]])[:rows]
    with pytest.raises(MeshValidationError,
                       match=rf"connectivity shape \({rows}, 1\) does not match \(3, nme\)"):
        Mesh.from_arrays(TRI_Q, me)


def test_from_arrays_rejects_flat_coordinates():
    with pytest.raises(MeshValidationError,
                       match=r"coordinate array shape \(3,\) is not \(d, nq\)"):
        Mesh.from_arrays([0., 1., 2.], [[0, 1], [1, 2]])


def test_from_arrays_rejects_non_finite_coordinates():
    q = TRI_Q.copy()
    q[1, 2] = np.nan
    with pytest.raises(MeshValidationError, match="node 2"):
        Mesh.from_arrays(q, np.array([[0], [1], [2]]))
    q[1, 2] = 1.0
    q[0, 1] = np.inf
    with pytest.raises(MeshValidationError, match="node 1"):
        Mesh.from_arrays(q, np.array([[0], [1], [2]]))


def test_validate_catches_non_finite_coordinates():
    mesh = generate_hypercube_mesh(2, 2)
    q = mesh.q.copy()
    q[0, 5] = np.nan
    with pytest.raises(MeshValidationError, match="node 5"):
        Mesh(q, mesh.me, mesh.vols).validate()


# ---------------------------------------------------------------------------
# Order-k node lattices


def test_lattice_enumeration_order():
    assert multi_index_lattice(1, 2) == [(2, 0), (1, 1), (0, 2)]
    assert multi_index_lattice(2, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert all(sum(a) == 3 for a in multi_index_lattice(2, 3))


def test_pk_mesh_order_one_is_identity():
    mesh = generate_hypercube_mesh(2, 3)
    pk = build_pk_mesh(mesh, 1)
    assert pk.ndfe == 3
    assert np.array_equal(pk.me, mesh.me)
    assert np.array_equal(pk.q, mesh.q)
    assert np.array_equal(pk.vols, mesh.vols)
    with pytest.raises(ValueError, match="polynomial order must be >= 1"):
        build_pk_mesh(mesh, 0)
    # 3 * 2**62 node slots: the check comes before any allocation
    huge = types.SimpleNamespace(d=2, nme=2**62, nq=3)
    with pytest.raises(CapacityError, match="order-1 lattice exceeds"):
        build_pk_mesh(huge, 1)


def test_pk_mesh_order_two_on_square():
    # shared diagonal midpoint must be counted once: 4 vertices + 5 midpoints
    mesh = generate_hypercube_mesh(2, 1)
    pk = build_pk_mesh(mesh, 2)
    assert pk.ndfe == 6
    assert pk.nq == 9
    # every lattice node referenced, vertices keep their indices
    assert set(pk.me.ravel()) == set(range(9))
    assert np.array_equal(pk.q[:, :4], mesh.q)


def test_pk_mesh_single_tet_order_three():
    tet = Mesh.from_arrays(
        np.array([[0., 1., 0., 0.], [0., 0., 1., 0.], [0., 0., 0., 1.]]),
        np.array([[0], [1], [2], [3]]))
    pk = build_pk_mesh(tet, 3)
    assert pk.ndfe == 20
    assert pk.nq == 20


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_pk_node_count_single_simplex(d, k):
    verts = np.hstack([np.zeros((d, 1)), np.eye(d)])
    single = Mesh.from_arrays(verts, np.arange(d + 1).reshape(d + 1, 1))
    pk = build_pk_mesh(single, k)
    expected = math.comb(d + k, k)
    assert pk.ndfe == expected
    assert pk.nq == expected


def test_pk_mesh_nodes_consistent_between_elements():
    for (d, n), k, shuffled in itertools.product(
            [(1, 5), (2, 3), (3, 2)], [1, 2, 3, 4], [False, True]):
        # jittered, with the local vertex order shuffled per element
        mesh = (shuffled_mesh(d, n, seed=k) if shuffled
                else generate_hypercube_mesh(d, n))
        pk = build_pk_mesh(mesh, k)
        # the order-k lattice of a Kuhn mesh is the grid of spacing 1/(k*n);
        # jitter and local vertex order do not change the count
        assert pk.nq == (k * n + 1) ** d
        assert np.array_equal(pk.q[:, :mesh.nq], mesh.q)
        assert np.array_equal(np.unique(pk.me), np.arange(pk.nq))
        # added nodes are numbered in order of first appearance, element-major
        added = pk.me.T[pk.me.T >= mesh.nq]
        _, first = np.unique(added, return_index=True)
        assert np.array_equal(added[np.sort(first)], np.arange(mesh.nq, pk.nq))
        # recompute every node coordinate from each element it lies on
        lattice = np.array(multi_index_lattice(d, k), dtype=float).T / k
        coords = np.einsum("ijn,jl->iln", mesh.q[:, mesh.me], lattice)
        assert np.abs(coords - pk.q[:, pk.me]).max() <= 1e-15, (d, k, shuffled)


# ---------------------------------------------------------------------------
# File round trips


def test_mesh_roundtrip(tmp_path):
    mesh = generate_hypercube_mesh(2, 1)
    path = tmp_path / "square.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.d == mesh.d
    assert np.array_equal(back.me, mesh.me)
    assert np.array_equal(back.q, mesh.q)
    assert np.allclose(back.vols, mesh.vols, rtol=1e-15)


def test_mesh_roundtrip_preserves_awkward_floats(tmp_path):
    mesh = generate_hypercube_mesh(2, 3)   # coordinates like 1/3
    path = tmp_path / "thirds.mesh"
    write_mesh(mesh, path)
    assert np.array_equal(read_mesh(path).q, mesh.q)


def test_read_mesh_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.mesh"
    for text, message in (("trianglemesh 1 2 3 1\n", "malformed header"),
                          ("simplexmesh 9 2 0 0\n", "unsupported format version 9"),
                          ("\n \n", "empty mesh file"),
                          ("simplexmesh 1 two 0 0\n", "non-integer header field"),
                          ("simplexmesh 1 0 0 0\n", "invalid header sizes d=0")):
        path.write_text(text)
        with pytest.raises(MeshFormatError, match=message):
            read_mesh(path)


def test_read_mesh_rejects_index_out_of_range(tmp_path):
    path = tmp_path / "oob.mesh"
    path.write_text(
        "simplexmesh 1 2 3 1\n0 0\n1 0\n0 1\n0 1 3\n")
    with pytest.raises(IndexRangeError):
        read_mesh(path)


def test_read_mesh_rejects_dimension_mismatch(tmp_path):
    path = tmp_path / "dim.mesh"
    path.write_text(
        "simplexmesh 1 2 3 1\n0 0 0\n1 0\n0 1\n0 1 2\n")
    with pytest.raises(MeshFormatError):
        read_mesh(path)


TRI_FILE = "simplexmesh 1 2 3 1\n0 0\n1 0\n0 1\n0 1 2\n"


@pytest.mark.parametrize("text,message", [
    (TRI_FILE.replace("1 0\n", "1 x\n"),
     "vertex table: could not convert string 'x' to float64 at row 1, column 2"),
    (TRI_FILE.replace("0 1 2", "0 1.5 2"),
     "element table: could not convert string '1.5' to int64 at row 0, column 2"),
    (TRI_FILE + "0 1 2\n", "expected 5 lines, found 6"),
    ("simplexmesh 1 2 3 1\n0 0 0\n1 0 0\n0 1 0\n0 1 2\n",
     "vertex table has 3 columns, expected 2"),
    ("simplexmesh 1 2 3 1\n0 0\n1 0\n0 1\n0 1\n",
     "element table has 2 columns, expected 3"),
], ids=["non-numeric-coordinate", "fractional-index", "trailing-line",
        "vertex-width", "element-width"])
def test_read_mesh_rejects_malformed_tables(tmp_path, text, message):
    path = tmp_path / "bad.mesh"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=f"{re.escape(str(path))}: {message}"):
        read_mesh(path)


def test_read_mesh_accepts_empty_tables(tmp_path):
    path = tmp_path / "empty.mesh"
    path.write_text("simplexmesh 1 2 0 0\n")
    mesh = read_mesh(path)
    assert mesh.q.shape == (2, 0) and mesh.me.shape == (3, 0)
    path.write_text("simplexmesh 1 3 2 0\n0 0 0\n1 2 3\n")
    assert np.array_equal(read_mesh(path).q, [[0, 1], [0, 2], [0, 3]])


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 1e3), shift=st.floats(-1e6, 1e6))
def test_mesh_roundtrip_is_bitwise(tmp_path_factory, d, n, seed, scale, shift):
    rng = np.random.default_rng(seed)
    base = shuffled_mesh(d, n, seed)
    mesh = Mesh.from_arrays(base.q * scale + shift,
                            base.me[:, rng.permutation(base.nme)])
    path = tmp_path_factory.mktemp("mesh") / "m.mesh"
    write_mesh(mesh, path)
    back = read_mesh(path)
    for field in ("q", "me", "vols"):
        got, want = getattr(back, field), getattr(mesh, field)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_read_mesh_rejects_degenerate_element(tmp_path):
    # the format never stores volumes; a simplex that would get a
    # nonpositive volume is rejected when volumes are recomputed on load
    path = tmp_path / "flat.mesh"
    path.write_text(
        "simplexmesh 1 2 3 1\n0 0\n1 0\n2 0\n0 1 2\n")
    with pytest.raises(DegenerateSimplexError):
        read_mesh(path)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_element_listing_a_vertex_twice_is_rejected(d, tmp_path):
    # a repeated vertex makes two edges equal, but rounding can leave the
    # determinant short of exactly 0: the tetrahedron [1, 2, 0, 2] on
    # random coordinates got a volume of about 1e-18, and the symmetric
    # optv2 stream a non-canonical matrix.  Element 1 repeats a vertex at
    # two nonzero local positions, in every such pair of positions
    rng = np.random.default_rng(d)
    q = rng.random((d, d + 2))
    for a, b in itertools.combinations(range(1, d + 1), 2):
        me = np.stack([np.arange(d + 1), np.arange(1, d + 2)], axis=1)
        me[b, 1] = me[a, 1]
        with pytest.raises(DegenerateSimplexError) as err:
            Mesh.from_arrays(q, me)
        assert err.value.element == 1
        with pytest.raises(DegenerateSimplexError) as err:
            Mesh(q, me, np.ones(2)).validate()
        assert err.value.element == 1
        path = tmp_path / "repeated.mesh"
        path.write_text("\n".join(
            [f"simplexmesh 1 {d} {d + 2} 2"]
            + [" ".join(map(repr, row)) for row in q.T.tolist()]
            + [" ".join(map(str, row)) for row in me.T.tolist()]) + "\n")
        with pytest.raises(DegenerateSimplexError) as err:
            read_mesh(path)
        assert err.value.element == 1
