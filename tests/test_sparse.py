import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simplex_asm import (
    SCALAR_DRIVERS,
    VECTOR_DRIVERS,
    CapacityError,
    ElasticKernel,
    IndexRangeError,
    MassKernel,
    MatrixFormatError,
    NonCanonicalMatrixError,
    ShapeMismatchError,
    SparseMatrix,
    StiffnessKernel,
    TripletBatch,
    add,
    assemble_mass_pk,
    build_pk_mesh,
    empty_matrix,
    max_abs_diff,
    pk_mass_coeffs,
    read_matrixmarket,
    sparse_from_triplets,
    transpose,
    write_matrixmarket,
    write_mesh,
)
from simplex_asm import sparse
from simplex_asm.mesh import MESH_FORMAT_VERSION, Mesh
from simplex_asm.sparse import _CHUNK, _sort, _stable_order
from test_assembly import shuffled_mesh


def batch(entries, shape=(4, 4)):
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    vals = np.array([e[2] for e in entries], dtype=np.float64)
    return TripletBatch(shape[0], shape[1], rows, cols, vals)


def entries_of(m: SparseMatrix) -> dict:
    return {(int(i), int(j)): v
            for i, j, v in zip(m.row_indices(), m.col_idx, m.vals)}


def test_duplicates_summed_and_zeros_skipped():
    m = sparse_from_triplets(batch([(0, 0, 1.0), (0, 0, 2.0), (1, 1, 0.0)],
                                   shape=(2, 2)))
    assert entries_of(m) == {(0, 0): 3.0}


def test_exact_cancellation_dropped(tmp_path):
    m = sparse_from_triplets(batch([(0, 1, 1.0), (0, 1, -1.0)], shape=(2, 2)))
    assert m.nnz == 0
    assert m.shape == (2, 2)
    # duplicates sum in order of appearance, across other keys: 1e16 + 1.0
    # rounds back to 1e16, so 1.0 survives only when it is added last
    absorbed = [(0, 0, 1e16), (1, 1, 1.0), (0, 0, 1.0), (0, 0, -1e16)]
    survives = [(0, 0, 1e16), (1, 1, 1.0), (0, 0, -1e16), (0, 0, 1.0)]
    for entries, want in ((absorbed, {(1, 1): 1.0}),
                          (survives, {(0, 0): 1.0, (1, 1): 1.0})):
        assert entries_of(sparse_from_triplets(batch(entries, (2, 2)))) == want
        path = tmp_path / "dup.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 4\n"
                        + "".join(f"{i + 1} {j + 1} {v!r}\n" for i, j, v in entries))
        assert entries_of(read_matrixmarket(path)) == want


def test_empty_batch():
    m = sparse_from_triplets(batch([], shape=(3, 3)))
    assert m.nnz == 0
    assert m.shape == (3, 3)
    assert np.array_equal(m.row_ptr, np.zeros(4, dtype=np.int64))


def test_out_of_range_triplet_reports_position():
    with pytest.raises(IndexRangeError, match="triplet 1"):
        sparse_from_triplets(batch([(0, 0, 1.0), (4, 0, 1.0)], shape=(4, 4)))
    with pytest.raises(IndexRangeError, match="col"):
        sparse_from_triplets(batch([(0, -1, 1.0)], shape=(4, 4)))
    # broadcast views, as the optv2 driver passes them, are kept as views;
    # the position is the flat one, in C order
    table = np.array([[0, 1, 2], [3, 1, 4]])
    rows = np.broadcast_to(table[:, None, :], (2, 3, 3))
    cols = np.broadcast_to(table[:, :, None], (2, 3, 3))
    views = TripletBatch(5, 4, rows, cols, np.ones(18))
    assert np.shares_memory(views.rows, table)
    assert np.shares_memory(views.cols, table)
    with pytest.raises(IndexRangeError, match="col index 4 at triplet 15 outside"):
        sparse_from_triplets(views)
    vals = np.arange(1.0, 19.0)
    dense = np.zeros((5, 5))
    np.add.at(dense, (rows.ravel(), cols.ravel()), vals)
    assert np.array_equal(
        sparse_from_triplets(TripletBatch(5, 5, rows, cols, vals)).to_dense(), dense)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("name", ["row", "col"])
@pytest.mark.parametrize("bad", ["below", "bound"])
def test_range_check_on_broadcast_views_names_flat_position(m, name, bad):
    # the optv2 layout: each element's table row repeated along a
    # zero-stride middle axis, read through a transposed (d+1, nme) table
    nodes, nloc, nme = 7, 3, 5
    me = np.random.default_rng(3).integers(0, nodes, (nloc, nme))
    value = -1 if bad == "below" else nodes
    me[1, 3] = value                    # one stored element out of range
    view = np.broadcast_to(me.T[:, None, :], (nme, nloc, nloc))
    good = np.broadcast_to(np.arange(nloc), (nme, nloc, nloc))
    assert 0 in view.strides and view.base is not None
    rows, cols = (view, good) if name == "row" else (good, view)
    triplets = TripletBatch(m * nodes, m * nodes, rows, cols,
                            np.ones(m * m * view.size), m)
    assert np.shares_memory(getattr(triplets, name + "s"), me)
    flat = np.ascontiguousarray(view).ravel()
    pos = int(np.flatnonzero((flat < 0) | (flat >= nodes))[0])
    assert (pos, flat[pos]) == (3 * nloc * nloc + 1, value)
    with pytest.raises(IndexRangeError, match=re.escape(
            f"{name} index {value} at triplet {pos} outside [0, {nodes})")):
        sparse_from_triplets(triplets)


@pytest.mark.parametrize("m", [1, 3])
def test_zero_size_broadcast_batch_builds_empty_matrix(m):
    for idx in (np.broadcast_to(np.zeros((0, 1, 3), dtype=np.int64), (0, 3, 3)),
                np.broadcast_to(np.arange(3), (0, 3))):
        assert 0 in idx.strides and idx.size == 0
        a = sparse_from_triplets(TripletBatch(2 * m, 2 * m, idx, idx,
                                              np.empty(0), m))
        assert (a.shape, a.nnz) == ((2 * m, 2 * m), 0)
        assert np.array_equal(a.row_ptr, np.zeros(2 * m + 1, dtype=np.int64))


def test_triplet_length_mismatch():
    with pytest.raises(ShapeMismatchError):
        TripletBatch(2, 2, np.array([0]), np.array([0, 1]), np.array([1.0]))
    rows = np.broadcast_to(np.arange(2)[:, None], (2, 3))
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\), \(3, 2\)"):
        TripletBatch(2, 3, rows, rows.T, np.ones(6))
    with pytest.raises(ShapeMismatchError, match=r"\(5,\)"):
        TripletBatch(2, 3, rows, rows, np.ones(5))


def test_negative_shape_rejected_naming_it():
    # numpy's bare "negative dimensions" error, or with a triplet an index
    # "outside [0, -2)", came out of the construction before
    for rows, cols, vals in (([], [], []), ([0], [0], [1.0])):
        for nrows, ncols in ((-2, 2), (2, -3)):
            with pytest.raises(ShapeMismatchError, match=re.escape(
                    f"a {nrows}x{ncols} matrix has a negative dimension")):
                TripletBatch(nrows, ncols, rows, cols, vals)


@pytest.mark.parametrize("m", [1, 2])
def test_triplet_given_as_scalars_is_the_one_triplet_batch(m):
    # 0-d index arrays used to reach the sort as numpy scalars
    vals = 3.0 if m == 1 else np.arange(1.0, 5.0)
    scalars = TripletBatch(2 * m, 2 * m, 1, 0, vals, m)
    assert scalars.rows.shape == scalars.cols.shape == (1,)
    assert_same_csr(sparse_from_triplets(scalars), sparse_from_triplets(
        TripletBatch(2 * m, 2 * m, [1], [0], vals, m)))


def test_shape_beyond_int64_keys_rejected(tmp_path):
    with pytest.raises(CapacityError, match="int64"):
        TripletBatch(2**32, 2**31, [], [], [])
    path = tmp_path / "huge.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    f"{2**31} {2**32} 0\n")
    with pytest.raises(CapacityError, match="int64"):
        read_matrixmarket(path)
    # the widest single row whose keys still fit
    wide = sparse_from_triplets(
        TripletBatch(1, 2**63 - 1, [0, 0], [2**63 - 2, 5], [1.0, 2.0]))
    assert entries_of(wide) == {(0, 5): 2.0, (0, 2**63 - 2): 1.0}


def test_triplet_batch_rejects_non_integral_index():
    # the int64 cast used to truncate 0.7 to row 0
    with pytest.raises(IndexRangeError,
                       match="row index 0.7 at triplet 0 is not an integer"):
        TripletBatch(2, 2, [0.7], [0], [1.0])
    cols = np.array([[0.0, 1.0], [1.0, np.nan]])
    with pytest.raises(IndexRangeError, match="col index nan at triplet 3 "):
        TripletBatch(2, 2, np.zeros((2, 2)), cols, np.ones(4))
    for big in (np.inf, -np.inf, 2.0**63, 1e300):
        with pytest.raises(IndexRangeError, match="triplet 1 .*int64 range"):
            TripletBatch(2, 2, [0, 0], [1.0, big], [1.0, 1.0])
    # integral floats pass
    m = sparse_from_triplets(TripletBatch(2, 2, [1.0, 0.0], [0.0, 1.0], [2.0, 3.0]))
    assert entries_of(m) == {(1, 0): 2.0, (0, 1): 3.0}


def test_add_identities():
    for shape in ((4, 4), (5, 9)):
        a = sparse_from_triplets(batch([(0, 0, 1.0), (2, 3, -2.5)], shape))
        assert max_abs_diff(add(a, empty_matrix(*shape)), a) == 0.0
        minus = sparse_from_triplets(batch([(0, 0, -1.0), (2, 3, 2.5)], shape))
        assert add(a, minus).nnz == 0
        both = add(sparse_from_triplets(batch([(0, 1, 2.0), (3, 3, 1.0)], shape)),
                   sparse_from_triplets(batch([(1, 0, 3.0), (3, 3, 1.0)], shape)))
        assert entries_of(both) == {(0, 1): 2.0, (1, 0): 3.0, (3, 3): 2.0}
        with pytest.raises(ShapeMismatchError):
            add(a, empty_matrix(3, 3))
    with pytest.raises(ShapeMismatchError):
        add(a, empty_matrix(9, 5))


def test_add_rejects_non_canonical_operands():
    # row 0 ends in a larger column than row 1 starts with, which is canonical
    entries = [(0, 3, 1.0), (1, 0, 2.0), (1, 2, 3.0), (1, 3, 4.0), (3, 1, 5.0)]
    good = sparse_from_triplets(batch(entries))
    assert good.col_idx.tolist() == [3, 0, 2, 3, 1]
    # two columns of row 1 swapped, as perfbench's selftest corrupts a
    # matrix, and a column of row 1 stored twice
    swapped = SparseMatrix(4, 4, good.row_ptr, np.array([3, 2, 0, 3, 1]), good.vals)
    repeated = SparseMatrix(4, 4, good.row_ptr, np.array([3, 0, 2, 2, 1]), good.vals)
    for bad, where in ((swapped, r"stored entry 2 \(row 1, col 0\)"),
                       (repeated, r"stored entry 3 \(row 1, col 2\)")):
        for operands, name in (((bad, good), "a"), ((good, bad), "b"),
                               ((bad, empty_matrix(4, 4)), "a")):
            with pytest.raises(NonCanonicalMatrixError,
                               match=f"operand {name}: {where} is out of order"):
                add(*operands)
        with pytest.raises(NonCanonicalMatrixError, match="operand b: "):
            max_abs_diff(good, bad)


def test_add_rejects_stored_zeros():
    # unchecked, the stored 0.0 would be carried into the sum
    zero = SparseMatrix(2, 2, np.array([0, 1, 2]), np.array([0, 1]),
                        np.array([0.0, 2.0]))
    other = sparse_from_triplets(batch([(1, 0, 3.0)], shape=(2, 2)))
    for operands, name in (((zero, other), "a"), ((other, zero), "b")):
        with pytest.raises(NonCanonicalMatrixError,
                           match=rf"operand {name}: stored entry 0 \(row 0, col 0\) "
                                 "is an exact zero"):
            add(*operands)
    with pytest.raises(NonCanonicalMatrixError, match="operand b: "):
        max_abs_diff(other, zero)
    # the row is found past an empty one
    late = SparseMatrix(3, 3, np.array([0, 1, 1, 3]), np.array([0, 0, 2]),
                        np.array([1.0, 2.0, 0.0]))
    with pytest.raises(NonCanonicalMatrixError,
                       match=r"operand a: stored entry 2 \(row 2, col 2\)"):
        add(late, empty_matrix(3, 3))


def test_add_rejects_a_stored_zero_beside_a_cancellation():
    # the sum holds a zero at (1, 1), where 1.0 and -1.0 cancel, and one at
    # (0, 0), stored by a: dropping both would hide a's
    a = SparseMatrix(2, 2, np.array([0, 1, 2]), np.array([0, 1]),
                     np.array([0.0, 1.0]))
    b = SparseMatrix(2, 2, np.array([0, 0, 1]), np.array([1]), np.array([-1.0]))
    with pytest.raises(NonCanonicalMatrixError,
                       match=r"operand a: stored entry 0 \(row 0, col 0\) "
                             "is an exact zero"):
        add(a, b)
    # a stored zero that meets a nonzero value leaves none in the sum: the
    # sum is that value, as without the zero
    c = SparseMatrix(2, 2, np.array([0, 1, 1]), np.array([0]), np.array([2.0]))
    assert entries_of(add(c, a)) == {(0, 0): 2.0, (1, 1): 1.0}


def test_transpose():
    a = sparse_from_triplets(batch([(0, 1, 5.0)], shape=(2, 2)))
    assert entries_of(transpose(a)) == {(1, 0): 5.0}
    wide = sparse_from_triplets(batch([(0, 8, 1.0), (4, 0, 2.0), (3, 5, -1.5),
                                       (4, 8, 3.0), (0, 0, 4.0)], shape=(5, 9)))
    tall = transpose(wide)
    assert tall.shape == (9, 5)
    assert entries_of(tall) == {(8, 0): 1.0, (0, 4): 2.0, (5, 3): -1.5,
                                (8, 4): 3.0, (0, 0): 4.0}
    assert np.array_equal(tall.to_dense(), wide.to_dense().T)
    assert max_abs_diff(transpose(tall), wide) == 0.0
    b = sparse_from_triplets(batch([(0, 0, 1.0), (1, 3, 2.0), (3, 1, -4.0)]))
    assert max_abs_diff(transpose(transpose(b)), b) == 0.0
    sym = sparse_from_triplets(batch([(0, 1, 2.0), (1, 0, 2.0), (2, 2, 1.0)]))
    assert max_abs_diff(transpose(sym), sym) == 0.0


def test_max_abs_diff():
    a = sparse_from_triplets(batch([(0, 0, 1.0)], shape=(2, 2)))
    assert max_abs_diff(a, a) == 0.0
    assert max_abs_diff(a, empty_matrix(2, 2)) == 1.0
    b = sparse_from_triplets(batch([(1, 1, 2.0)], shape=(2, 2)))
    assert max_abs_diff(a, b) == 2.0


def test_canonical_form():
    rng = np.random.default_rng(7)
    # the last batch spans several of the constructor's in-place chunks
    for nrows, ncols, n in ((30, 30, 500), (30, 41, 500), (30, 41, 3 * 2**15 + 5)):
        rows = rng.integers(0, nrows, size=n)
        cols = rng.integers(0, ncols, size=n)
        vals = rng.standard_normal(n)
        vals[::7] = 0.0
        inputs = [rows, cols, vals]
        copies = [x.copy() for x in inputs]
        m = sparse_from_triplets(TripletBatch(nrows, ncols, rows, cols, vals))
        assert np.all(m.vals != 0.0)
        for i in range(nrows):
            seg = m.col_idx[m.row_ptr[i]:m.row_ptr[i + 1]]
            assert np.all(np.diff(seg) > 0)
        dense = np.zeros((nrows, ncols))
        np.add.at(dense, (rows, cols), vals)
        assert np.allclose(m.to_dense(), dense, atol=1e-13)

        # no operation writes into its inputs or operands
        operands = [m.row_ptr, m.col_idx, m.vals]
        inputs += operands
        copies += [x.copy() for x in operands]
        transpose(m)
        add(m, m)
        max_abs_diff(m, transpose(transpose(m)))
        for x, before in zip(inputs, copies):
            assert np.array_equal(x, before)


# ---------------------------------------------------------------------------
# The constructor packs each key with its input position into one int64
# word when ``bit_length(nrows*ncols - 1) + bit_length(n - 1)`` is at most
# 63, and runs a stable argsort otherwise.  Both sides of that boundary
# are compared bitwise against a reference built without the package.


def reference_csr(nrows, ncols, rows, cols, vals):
    """Canonical CSR arrays from a stable argsort of the keys and a
    left-to-right Python sum per key, skipping and dropping exact zeros."""
    keys = rows * ncols + cols
    order = np.argsort(keys, kind="stable")
    sums = {}
    for key, v in zip(keys[order].tolist(), vals[order].tolist()):
        if v != 0.0:
            sums[key] = sums.get(key, 0.0) + v
    kept = np.array([k for k, v in sums.items() if v != 0.0], dtype=np.int64)
    out_rows, out_cols = np.divmod(kept, ncols)
    row_ptr = np.searchsorted(out_rows, np.arange(nrows + 1)).astype(np.int64)
    return row_ptr, out_cols, np.array([v for v in sums.values() if v != 0.0])


def assert_csr_bitwise(m, nrows, ncols, rows, cols, vals):
    assert m.shape == (nrows, ncols)
    for got, want in zip((m.row_ptr, m.col_idx, m.vals),
                         reference_csr(nrows, ncols, rows, cols, vals)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def tie_heavy(rng, nrows, ncols, n):
    """n triplets on few keys, the first and the last key of the shape
    among them, with values whose sums depend on the order of addition.

    The last eight triplets on keys of their own are the order-of-
    appearance cases of ``test_exact_cancellation_dropped``: 1e16, 1.0,
    -1e16 cancels exactly, while 1e16, -1e16, 1.0 keeps 1.0.
    """
    size = nrows * ncols
    pool = rng.integers(1, size - 1, 64)
    pool[:2] = 0, size - 1
    keys = pool[rng.integers(0, len(pool), n - 8)]
    vals = rng.choice([1e16, -1e16, 1.0, -1.0, 0.5, 0.0], n - 8)
    vals[0] = 1.0
    spare = np.setdiff1d(rng.integers(1, size - 1, 16), pool)[:4]
    keys = np.concatenate([keys, spare[[0, 1, 0, 0, 2, 3, 2, 2]]])
    vals = np.concatenate([vals, [1e16, 1.0, 1.0, -1e16, 1e16, 1.0, -1e16, 1.0]])
    return (*np.divmod(keys, ncols), vals)


def distinct(rng, nrows, ncols, n):
    """n triplets on n distinct keys, the first and the last among them,
    in random order, with nonzero values."""
    size = nrows * ncols
    keys = np.unique(np.concatenate([[0, size - 1],
                                     rng.integers(0, size, n + 100)]))
    keys = np.concatenate([[0, size - 1], rng.permutation(keys[1:-1])[:n - 2]])
    return (*np.divmod(keys, ncols), rng.standard_normal(n))


def packed_bits(nrows, ncols, n):
    return (nrows * ncols - 1).bit_length() + (n - 1).bit_length()


def leading_first(a, lead):
    """``a`` as the ``(lead, len(a) // lead)`` array whose stream order
    (see ``TripletBatch``) is ``a``'s order."""
    return a.reshape(-1, lead).T


@pytest.mark.parametrize("bits", [63, 64])
def test_sort_branches_bitwise_at_packing_boundary(tmp_path, bits):
    rng = np.random.default_rng(bits)
    # wide: 13 position bits and 50 or 51 key bits, few rows
    nrows, ncols, n = 16, 2**46 + (bits - 63), 2**12 + 1
    assert packed_bits(nrows, ncols, n) == bits
    rows, cols, vals = tie_heavy(rng, nrows, ncols, n)
    m = sparse_from_triplets(TripletBatch(nrows, ncols, rows, cols, vals))
    assert_csr_bitwise(m, nrows, ncols, rows, cols, vals)
    # the same stream as a 2-D batch, 17 leading positions by 241, whose
    # keys are formed in stream order: its words take as many bits
    m = sparse_from_triplets(TripletBatch(
        nrows, ncols, *(leading_first(x, 17) for x in (rows, cols, vals))))
    assert_csr_bitwise(m, nrows, ncols, rows, cols, vals)
    path = tmp_path / "ties.mtx"
    path.write_text(MM_HEADER + f"{nrows} {ncols} {n}\n" + "".join(
        f"{i + 1} {j + 1} {v!r}\n"
        for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist())))
    assert_csr_bitwise(read_matrixmarket(path), nrows, ncols, rows, cols, vals)
    # add: the entries of a, then those of b, 2**12 + 1 of them in all
    split = 2**11
    a = sparse_from_triplets(TripletBatch(nrows, ncols, *distinct(rng, nrows, ncols, split)))
    b = sparse_from_triplets(TripletBatch(nrows, ncols, *distinct(rng, nrows, ncols, n - split)))
    assert_csr_bitwise(add(a, b), nrows, ncols,
                       np.concatenate([a.row_indices(), b.row_indices()]),
                       np.concatenate([a.col_idx, b.col_idx]),
                       np.concatenate([a.vals, b.vals]))

    # square: 21 position bits and 42 or 43 key bits, so that the
    # transpose has as few rows as the input
    nrows, ncols, n = 2**21, 2**21 + (bits - 63), 2**20 + 1
    assert packed_bits(nrows, ncols, n) == bits
    rows, cols, vals = tie_heavy(rng, nrows, ncols, n)
    inputs = [rows, cols, vals]
    copies = [x.copy() for x in inputs]
    # the constructor overwrites its own copy of the values in place,
    # across 32 chunks
    m = sparse_from_triplets(TripletBatch(nrows, ncols, rows, cols, vals))
    assert_csr_bitwise(m, nrows, ncols, rows, cols, vals)
    # and as a 2-D batch, 17 leading positions by 61,681 (two chunks)
    m = sparse_from_triplets(TripletBatch(
        nrows, ncols, *(leading_first(x, 17) for x in (rows, cols, vals))))
    assert_csr_bitwise(m, nrows, ncols, rows, cols, vals)
    for x, before in zip(inputs, copies):
        assert x.tobytes() == before.tobytes()
    a = sparse_from_triplets(TripletBatch(nrows, ncols, *distinct(rng, nrows, ncols, n)))
    assert a.nnz == n
    assert_csr_bitwise(transpose(a), ncols, nrows, a.col_idx, a.row_indices(), a.vals)


def test_sort_branches_agree_on_ties():
    # three chunks of keys from few values; nkeys = 2**62 leaves no room
    # for the position bits, so the second call takes the stable argsort.
    # Both leave the positions of the stable order
    rng = np.random.default_rng(7)
    keys = rng.integers(0, 50, 2 * _CHUNK + 5)
    want = np.argsort(keys, kind="stable")
    results = []
    for nkeys in (50, 2**62):
        order = keys.copy()
        results.append(_sort(order, nkeys))
        assert np.array_equal(order, want)
        assert np.array_equal(_stable_order(keys, nkeys), want)
    (packed, packed_uniq), (argsorted, argsorted_uniq) = results
    assert np.array_equal(packed, argsorted)
    assert np.array_equal(packed, np.diff(keys[want], prepend=-1) != 0)
    assert np.array_equal(packed_uniq, argsorted_uniq)
    assert np.array_equal(packed_uniq, np.unique(keys))
    # batches with 3 and 9 leading positions on 5 rows, keyed on 6 bits
    # (10 columns: packed) or 63 (2**60 columns: the stable argsort), sum
    # bitwise as their 1-D stream batches
    for lead in (3, 9):
        shape = (lead, 2 * _CHUNK + 5)
        rows, cols = rng.integers(0, 5, shape), rng.integers(0, 10, shape)
        vals = rng.choice([1e16, -1e16, 1.0, 0.5], shape)
        for ncols in (10, 2**60):
            assert (packed_bits(5, ncols, rows.size) > 63) == (ncols > 10)
            assert_same_csr(
                sparse_from_triplets(TripletBatch(5, ncols, rows, cols, vals)),
                sparse_from_triplets(TripletBatch(
                    5, ncols, *(in_stream_order(x) for x in (rows, cols, vals)))))


def test_cancellations_are_dropped_across_chunks():
    # a result longer than three chunks with cancelled sums in every chunk:
    # the kept entries move to the front chunk by chunk, in the constructor
    # and in add
    nrows, ncols, n = 7, 20000, 3 * _CHUNK + 11
    rng = np.random.default_rng(11)
    rows, cols = np.divmod(rng.permutation(nrows * ncols)[:n], ncols)
    vals = rng.uniform(1.0, 2.0, n)
    gone = rng.random(n) < 0.1  # these entries meet their negation
    all_rows = np.concatenate([rows, rows[gone]])
    all_cols = np.concatenate([cols, cols[gone]])
    all_vals = np.concatenate([vals, -vals[gone]])
    built = sparse_from_triplets(TripletBatch(nrows, ncols, all_rows, all_cols,
                                              all_vals))
    assert built.nnz == n - np.count_nonzero(gone)
    assert_csr_bitwise(built, nrows, ncols, all_rows, all_cols, all_vals)
    a = sparse_from_triplets(TripletBatch(nrows, ncols, rows, cols, vals))
    b = sparse_from_triplets(TripletBatch(nrows, ncols, rows[gone], cols[gone],
                                          -vals[gone]))
    assert_csr_bitwise(add(a, b), nrows, ncols, all_rows, all_cols, all_vals)


# ---------------------------------------------------------------------------
# Property tests

# values whose sums depend on the order of addition: with a's entries
# first, 1e16 + 1.0 rounds to 1e16 and then cancels against -1e16
ordered_values = st.sampled_from([1e16, -1e16, 1.0, -1.0, 0.5, 3.0])


@st.composite
def operand_pairs(draw):
    """Two canonical operands of one shape, b drawn freely or with a's
    pattern, disjoint from it, empty, or exactly -a; either may come first."""
    nrows, ncols = shape = draw(st.sampled_from([(1, 1), (1, 9), (9, 1), (5, 9),
                                                 (8, 8)]))
    values = ordered_values | st.floats(-8, 8).filter(lambda v: v != 0.0)
    entry = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), values)
    a = sparse_from_triplets(batch(draw(st.lists(entry, max_size=40)), shape))
    relation = draw(st.sampled_from(["free", "same pattern", "disjoint", "empty",
                                     "negated"]))
    if relation == "negated":
        b = SparseMatrix(nrows, ncols, a.row_ptr.copy(), a.col_idx.copy(), -a.vals)
    elif relation == "same pattern":
        vals = draw(st.lists(values, min_size=a.nnz, max_size=a.nnz))
        b = SparseMatrix(nrows, ncols, a.row_ptr.copy(), a.col_idx.copy(),
                         np.array(vals, dtype=np.float64))
    elif relation == "empty":
        b = empty_matrix(nrows, ncols)
    else:
        entries = draw(st.lists(entry, max_size=40))
        if relation == "disjoint":
            taken = set(entries_of(a))
            entries = [e for e in entries if e[:2] not in taken]
        b = sparse_from_triplets(batch(entries, shape))
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=300, deadline=None)
@given(operands=operand_pairs())
def test_add_is_bitwise_the_construction_of_both_operands_entries(operands):
    a, b = operands
    out = add(a, b)
    assert_csr_bitwise(out, a.nrows, a.ncols,
                       np.concatenate([a.row_indices(), b.row_indices()]),
                       np.concatenate([a.col_idx, b.col_idx]),
                       np.concatenate([a.vals, b.vals]))
    for got in (out.row_ptr, out.col_idx, out.vals):
        for operand in (a.row_ptr, a.col_idx, a.vals, b.row_ptr, b.col_idx, b.vals):
            assert not np.shares_memory(got, operand)


SHAPES = [(8, 8), (5, 9), (9, 5)]


@st.composite
def triplet_lists(draw, values, count):
    """A matrix shape and ``count`` lists of (row, col, value) inside it."""
    nrows, ncols = shape = draw(st.sampled_from(SHAPES))
    entry = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), values)
    return (shape, *(draw(st.lists(entry, max_size=50)) for _ in range(count)))


floats = st.floats(-8, 8, allow_nan=False, allow_infinity=False)
# multiples of 1/256: sums of such values are exact in float64, so batch
# splitting identities can be asserted bitwise (including zero dropping)
dyadics = st.integers(-2048, 2048).map(lambda n: n / 256.0)


@settings(max_examples=150, deadline=None)
@given(case=triplet_lists(dyadics, 2))
def test_concat_equals_add_exactly_on_exact_values(case):
    shape, first, second = case
    merged = sparse_from_triplets(batch(first + second, shape))
    summed = add(sparse_from_triplets(batch(first, shape)),
                 sparse_from_triplets(batch(second, shape)))
    assert max_abs_diff(merged, summed) == 0.0


@settings(max_examples=150, deadline=None)
@given(case=triplet_lists(floats, 2))
def test_concat_matches_add_up_to_roundoff(case):
    # with general values the two routes associate partial sums differently
    shape, first, second = case
    merged = sparse_from_triplets(batch(first + second, shape))
    summed = add(sparse_from_triplets(batch(first, shape)),
                 sparse_from_triplets(batch(second, shape)))
    entries = first + second
    bound = len(entries) * np.finfo(float).eps * max(
        (abs(e[2]) for e in entries), default=0.0)
    assert max_abs_diff(merged, summed) <= bound


@settings(max_examples=150, deadline=None)
@given(case=triplet_lists(floats, 1), rnd=st.randoms(use_true_random=False))
def test_permutation_invariance_up_to_roundoff(case, rnd):
    shape, entries = case
    shuffled = list(entries)
    rnd.shuffle(shuffled)
    a = sparse_from_triplets(batch(entries, shape))
    b = sparse_from_triplets(batch(shuffled, shape))
    bound = len(entries) * np.finfo(float).eps * max(
        (abs(e[2]) for e in entries), default=0.0)
    assert max_abs_diff(a, b) <= bound


@settings(max_examples=100, deadline=None)
@given(case=triplet_lists(floats, 1))
def test_constructed_matrices_are_canonical(case):
    shape, entries = case
    m = sparse_from_triplets(batch(entries, shape))
    assert np.all(m.vals != 0.0)
    assert m.row_ptr[-1] == m.nnz
    for i in range(shape[0]):
        seg = m.col_idx[m.row_ptr[i]:m.row_ptr[i + 1]]
        assert np.all(np.diff(seg) > 0)
    dense = np.zeros(shape)
    for i, j, v in entries:
        dense[i, j] += v
    assert np.allclose(m.to_dense(), dense, atol=1e-13)
    assert np.array_equal(transpose(m).to_dense(), m.to_dense().T)


# ---------------------------------------------------------------------------
# Block batches (m > 1)


def in_stream_order(a: np.ndarray) -> np.ndarray:
    """``a`` as a 1-D array in stream order: its last axis outermost, then
    its leading axes in C order."""
    return np.moveaxis(a, -1, 0).ravel()


def expand(blocks: TripletBatch) -> TripletBatch:
    """The 1-D scalar batch of a block batch's dof triplets, pair after
    pair, each pair's triplets in stream order."""
    m = blocks.m
    rows, cols = in_stream_order(blocks.rows), in_stream_order(blocks.cols)
    runs = blocks.vals.reshape((m * m,) + blocks.rows.shape)
    pairs = [divmod(p, m) for p in range(m * m)]
    return TripletBatch(blocks.nrows, blocks.ncols,
                        np.concatenate([m * rows + l for l, _ in pairs]),
                        np.concatenate([m * cols + n for _, n in pairs]),
                        np.concatenate([in_stream_order(run) for run in runs]))


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for a, b in ((got.row_ptr, want.row_ptr), (got.col_idx, want.col_idx),
                 (got.vals, want.vals)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def block_batches(draw):
    """A block batch with m = 2 or 3 on few node keys, so that duplicates
    abound, with values whose sums depend on the order of addition, exact
    zeros, triplets cancelled exactly by the next one, and empty batches;
    the node indices are 1-D or 2-D, whose C order the values follow."""
    m = draw(st.sampled_from([2, 3]))
    nr, nc = draw(st.sampled_from([(1, 1), (1, 5), (5, 1), (4, 4), (3, 6)]))
    node = st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1))
    nodes = draw(st.lists(node, max_size=24))
    values = st.lists(ordered_values | st.just(0.0) | floats,
                      min_size=m * m, max_size=m * m)
    vals, keys = [], []
    for key in nodes:
        vals.append(draw(values))
        keys.append(key)
        if draw(st.booleans()):
            vals.append([-v for v in vals[-1]])
            keys.append(key)
    shape = (2, len(keys) // 2) if len(keys) % 2 == 0 and draw(st.booleans()) \
        else (len(keys),)
    rows = np.array([k[0] for k in keys], dtype=np.int64).reshape(shape)
    cols = np.array([k[1] for k in keys], dtype=np.int64).reshape(shape)
    vals = np.array(vals, dtype=np.float64).reshape(-1, m * m).T.copy()
    return TripletBatch(m * nr, m * nc, rows, cols, vals, m)


@settings(max_examples=300, deadline=None)
@given(blocks=block_batches())
def test_block_batch_is_bitwise_its_scalar_expansion(blocks):
    inputs = [blocks.rows.copy(), blocks.cols.copy(), blocks.vals.copy()]
    got = sparse_from_triplets(blocks)
    assert_same_csr(got, sparse_from_triplets(expand(blocks)))
    assert np.all(got.vals != 0.0)
    for x, before in zip((blocks.rows, blocks.cols, blocks.vals), inputs):
        assert x.tobytes() == before.tobytes()


def test_block_batch_with_keys_too_wide_to_pack():
    # one node row of 2**60 columns and 16 triplets: 60 key and 4 position
    # bits, so the node keys take the stable argsort
    rng = np.random.default_rng(5)
    nc, n = 2**60, 16
    assert packed_bits(1, nc, n) == 64
    cols = rng.choice([0, 7, nc - 1], n)
    vals = rng.choice([1e16, -1e16, 1.0, 0.0], 4 * n)
    blocks = TripletBatch(2, 2 * nc, np.zeros(n, dtype=np.int64), cols, vals, 2)
    assert_same_csr(sparse_from_triplets(blocks),
                    sparse_from_triplets(expand(blocks)))


def test_block_batch_rejects_bad_shapes_and_node_indices():
    rows, cols = np.array([0, 1, 2]), np.array([2, 0, 1])
    ok = sparse_from_triplets(TripletBatch(6, 6, rows, cols, np.ones(12), 2))
    assert ok.nnz == 12
    # one value per triplet instead of m*m
    with pytest.raises(ShapeMismatchError, match=r"\(3,\) for 2x2 blocks"):
        TripletBatch(6, 6, rows, cols, np.ones(3), 2)
    for nrows, ncols, m in ((5, 6, 2), (6, 8, 3), (6, 6, 0)):
        with pytest.raises(ShapeMismatchError,
                           match=f"a {nrows}x{ncols} matrix has no {m}x{m} blocks"):
            TripletBatch(nrows, ncols, rows, cols, np.ones(m * m * 3), m)
    # 3 is a row of the 6x6 matrix, but not one of its 3 nodes
    with pytest.raises(IndexRangeError,
                       match=r"row index 3 at triplet 1 outside \[0, 3\)"):
        sparse_from_triplets(TripletBatch(6, 6, [0, 3, 1], cols, np.ones(12), 2))
    with pytest.raises(IndexRangeError, match=r"col index -1 at triplet 2 outside"):
        sparse_from_triplets(TripletBatch(6, 6, rows, [0, 1, -1], np.ones(12), 2))


@settings(max_examples=300, deadline=None)
@given(m=st.sampled_from([2, 3]), subset=st.sampled_from(["all", "upper", "strict"]),
       nq=st.integers(1, 4),
       nodes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.booleans()),
                      max_size=24),
       chunk=st.sampled_from([_CHUNK, 5]), seed=st.integers(0, 2**32 - 1))
@example(m=2, subset="all", nq=1, nodes=[], chunk=5, seed=0)
@example(m=3, subset="strict", nq=2, nodes=[], chunk=_CHUNK, seed=0)
@example(m=2, subset="all", nq=2, nodes=[(0, 2, True), (1, 2, False)], chunk=5,
         seed=1)
def test_listed_pairs_are_bitwise_their_scalar_batches(m, subset, nq, nodes,
                                                       chunk, seed):
    # the private _pairs keyword: one node stream, repeated along a leading
    # axis over the listed component pairs (l, n), gives one matrix per
    # pair, each byte for byte the construction of that pair's scalar dof
    # batch.  Few nodes, so that keys repeat; values whose sums depend on
    # their order, +-0.0, and triplets cancelled exactly by the next one
    # (the third field of a node), whose sums must be dropped.  Every
    # other seed gives a matrix with one node column more than node rows
    pairs = [(l, n) for l in range(m) for n in range(m)
             if subset == "all" or l < n or (subset == "upper" and l == n)]
    rng = np.random.default_rng(seed)
    nc = nq + seed % 2
    keys, vals = [], []
    for row, col, cancel in nodes:
        keys.append((row % nq, col % nc))
        vals.append(rng.choice([1e16, -1e16, 1.0, 0.5, 0.0, -0.0], len(pairs)))
        if cancel:
            keys.append(keys[-1])
            vals.append(-vals[-1])
    rows = np.array([k[0] for k in keys], dtype=np.int64)
    cols = np.array([k[1] for k in keys], dtype=np.int64)
    vals = np.array(vals, dtype=np.float64).reshape(-1, len(pairs)).T.copy()
    shape = (len(pairs), len(keys))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "_CHUNK", chunk)
        got = sparse_from_triplets(
            TripletBatch(m * nq, m * nc, np.broadcast_to(rows, shape),
                         np.broadcast_to(cols, shape), vals.copy()),
            _pairs=(m, pairs))
        want = [sparse_from_triplets(TripletBatch(m * nq, m * nc, m * rows + l,
                                                  m * cols + n, run))
                for (l, n), run in zip(pairs, vals)]
    assert len(got) == len(pairs)
    for a, b in zip(got, want):
        assert_same_csr(a, b)
        assert np.all(a.vals != 0.0)


@pytest.mark.parametrize("m", [2, 3])
def test_constructed_matrices_share_no_memory(m):
    # the matrices of one _pairs call: the last listed pair takes the node
    # columns in place, every earlier one a copy, and the early pairs'
    # cancelled sums are dropped in place.  Distinct node entries, the first
    # 20 of them cancelled exactly in every pair but the last
    pairs = [(l, n) for l in range(m) for n in range(m)]
    rng = np.random.default_rng(m)
    nq, n = 8, 40
    rows, cols = np.divmod(rng.permutation(nq * nq)[:n], nq)
    vals = rng.choice([1.0, 2.0, 1e16], (len(pairs), n))
    again = np.where(np.arange(len(pairs))[:, None] < len(pairs) - 1, -1.0, 1.0)
    rows, cols = np.concatenate([rows, rows[:20]]), np.concatenate([cols, cols[:20]])
    vals = np.concatenate([vals, again * vals[:, :20]], axis=1)
    shape = (len(pairs), len(rows))
    blocks = TripletBatch(m * nq, m * nq, np.broadcast_to(rows, shape),
                          np.broadcast_to(cols, shape), vals)
    got = sparse_from_triplets(blocks, _pairs=(m, pairs))
    assert [a.nnz for a in got] == [n - 20] * (len(pairs) - 1) + [n]
    arrays = [x for a in got for x in (a.row_ptr, a.col_idx, a.vals)]
    for i, x in enumerate(arrays):
        for y in arrays[i + 1:] + [blocks.rows, blocks.cols, blocks.vals]:
            assert not np.shares_memory(x, y)
    # transpose, through the scalar constructor, of a rectangular operand
    a = sparse_from_triplets(TripletBatch(m * nq, nq, rows, cols, vals[0]))
    assert a.nnz == n - 20
    t = transpose(a)
    assert np.array_equal(t.to_dense(), a.to_dense().T)
    for x in (t.row_ptr, t.col_idx, t.vals):
        for y in (a.row_ptr, a.col_idx, a.vals):
            assert not np.shares_memory(x, y)


# ---------------------------------------------------------------------------
# The stream axis: duplicates sum in order of their index along the last
# axis of the index arrays, ties broken by C order over the leading axes


@st.composite
def stream_batches(draw):
    """A batch whose index arrays have 1 to 3 leading axes, m = 1, 2 or 3.

    Few node keys, so that ties abound across elements and within one,
    and values from 1e16, -1e16, 1.0 and 0.0, whose sums depend on the
    order of addition and cancel exactly.  The index arrays are
    C-ordered, Fortran-ordered, or broadcast views with zero strides on
    some leading axes.  ``wide`` batches key their nodes on 60 to 63 bits
    and have at least 4 position bits, so that the sort words do not fit
    in 63 bits and the sort takes the stable argsort; the others pack.
    """
    m = draw(st.sampled_from([1, 2, 3]))
    wide = draw(st.booleans())
    lead = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    if wide:
        lead[0] = draw(st.integers(3, 4))
    shape = (*lead, draw(st.integers(4, 6) if wide else st.integers(1, 6)))
    nr, nc = (1, (2**63 - 1) // (m * m)) if wide else (2, 3)
    layout = draw(st.sampled_from(["C", "F", "broadcast"]))

    def indices(pool):
        stored = shape
        if layout == "broadcast":
            stored = tuple(1 if draw(st.booleans()) else n for n in shape[:-1]) \
                + shape[-1:]
        size = int(np.prod(stored))
        idx = np.array(draw(st.lists(st.sampled_from(pool), min_size=size,
                                     max_size=size)), dtype=np.int64)
        idx = np.broadcast_to(idx.reshape(stored), shape)
        return np.asfortranarray(idx) if layout == "F" else idx

    rows, cols = indices(range(nr)), indices([0, 1, nc - 1])
    size = m * m * rows.size
    vals = np.array(draw(st.lists(st.sampled_from([1e16, -1e16, 1.0, 0.0]),
                                  min_size=size, max_size=size)))
    vals = vals.reshape((m * m,) + shape)
    if layout == "F":
        vals = np.asfortranarray(vals)
    packed = (nr * nc - 1).bit_length() + sum(
        (n - 1).bit_length() for n in (rows.size // shape[-1], shape[-1]))
    assert (packed > 63) == wide
    return TripletBatch(m * nr, m * nc, rows, cols, vals, m)


@settings(max_examples=300, deadline=None)
@given(batch=stream_batches())
def test_batch_sums_in_stream_order(batch):
    m = batch.m
    inputs = [batch.rows.copy(), batch.cols.copy(), batch.vals.copy()]
    runs = batch.vals.reshape((m * m,) + batch.rows.shape)
    stream = TripletBatch(batch.nrows, batch.ncols, in_stream_order(batch.rows),
                          in_stream_order(batch.cols),
                          np.concatenate([in_stream_order(run) for run in runs]), m)
    assert_same_csr(sparse_from_triplets(batch), sparse_from_triplets(stream))
    for x, before in zip((batch.rows, batch.cols, batch.vals), inputs):
        assert x.tobytes() == before.tobytes()


# ---------------------------------------------------------------------------
# MatrixMarket I/O


def test_matrixmarket_roundtrip(tmp_path):
    a = sparse_from_triplets(batch([(0, 0, 1 / 3), (1, 2, -2.5e-17),
                                    (3, 1, 7.0)]))
    path = tmp_path / "a.mtx"
    write_matrixmarket(a, path)
    assert max_abs_diff(read_matrixmarket(path), a) == 0.0
    header = path.read_text().splitlines()[0]
    assert header == "%%MatrixMarket matrix coordinate real general"


def test_matrixmarket_empty(tmp_path):
    path = tmp_path / "empty.mtx"
    write_matrixmarket(empty_matrix(3, 5), path)
    lines = path.read_text().splitlines()
    assert lines[1] == "3 5 0"
    back = read_matrixmarket(path)
    assert back.shape == (3, 5)
    assert back.nnz == 0


def test_matrixmarket_rejects_zero_based_entry(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n0 0 1.0\n")
    with pytest.raises(MatrixFormatError):
        read_matrixmarket(path)


def test_matrixmarket_rejects_alien_header(tmp_path):
    path = tmp_path / "alien.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n")
    with pytest.raises(MatrixFormatError):
        read_matrixmarket(path)


def test_matrixmarket_banner_words_match_in_any_case(tmp_path):
    # scipy.io.mmread reads this banner as symmetric
    body = "3 3 4\n1 1 2.5\n2 1 -1.0\n3 2 0.25\n3 3 4.0\n"
    lower, upper = tmp_path / "lower.mtx", tmp_path / "upper.mtx"
    lower.write_text("%%MatrixMarket matrix coordinate real symmetric\n" + body)
    upper.write_text("%%MatrixMarket MATRIX Coordinate REAL Symmetric\n" + body)
    a, b = read_matrixmarket(lower), read_matrixmarket(upper)
    assert a.nnz == 6
    for x, y in ((a.row_ptr, b.row_ptr), (a.col_idx, b.col_idx), (a.vals, b.vals)):
        assert x.tobytes() == y.tobytes()
    for field in ("INTEGER", "integer", "Pattern", "pattern"):
        path = tmp_path / f"{field}.mtx"
        path.write_text(f"%%MatrixMarket Matrix Coordinate {field} General\n"
                        "2 2 1\n1 1 1\n")
        with pytest.raises(MatrixFormatError, match="unsupported header"):
            read_matrixmarket(path)


def test_matrixmarket_rejects_truncated_file(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 1.0\n")
    with pytest.raises(MatrixFormatError):
        read_matrixmarket(path)


MM_HEADER = "%%MatrixMarket matrix coordinate real general\n"


@pytest.mark.parametrize("body,message", [
    ("2 2 2\n1 1 1.0\n2 2\n", "entries: .*requires 3 columns but 2"),
    ("2 2 2\n1 1 1.0 4\n2 2 1.0\n", "entries: .*requires 3 columns but 4"),
    ("2 2 1\n1 1 1.0\n2 2 1.0\n", "size line declares 1 entries, found 2"),
    ("2 2 3\n1 1 1.0\n% a comment\n\n2 2 1.0\n", "size line declares 3 entries, found 2"),
    ("2 2 1\n1 1 x\n", "entries: could not convert string 'x'"),
    ("2 2 1\n1.5 1 1.0\n", "entries: could not convert string '1.5'"),
    ("2 3 2\n1 1 1.0\n2 4 1.0\n", r"entry 1: one-based index \(2, 4\) outside 2x3"),
    ("% only a comment\n\n", "missing size line"),
    ("2 1\n1 1 1.0\n", "bad size line"),
], ids=["two-fields", "four-fields", "more-entries", "fewer-entries",
        "non-numeric-value", "fractional-index", "index-range",
        "missing-size-line", "short-size-line"])
def test_matrixmarket_rejects_malformed_entries(tmp_path, body, message):
    path = tmp_path / "bad.mtx"
    path.write_text(MM_HEADER + body)
    with pytest.raises(MatrixFormatError, match=f"{re.escape(str(path))}: {message}"):
        read_matrixmarket(path)


@pytest.mark.parametrize("size", ["-1 3 0", "-2 3 0", "2 -3 0", "2 3 -1"])
def test_matrixmarket_rejects_negative_size(tmp_path, size):
    path = tmp_path / "neg.mtx"
    path.write_text(MM_HEADER + size + "\n")
    with pytest.raises(MatrixFormatError,
                       match=f"negative size on size line '{size}'"):
        read_matrixmarket(path)


def test_matrixmarket_reader_frees_the_records_before_the_construction(tmp_path):
    # np.loadtxt's records hold 24 bytes per entry; once the keys are formed
    # only a copy of the values (8 bytes) may outlive them.  The peak measured
    # 49.1 bytes per entry, and 58.1 while the records stayed alive
    rng = np.random.default_rng(5)
    n = 30000
    a = sparse_from_triplets(TripletBatch(500, 700, rng.integers(0, 500, n),
                                          rng.integers(0, 700, n),
                                          rng.standard_normal(n)))
    path = tmp_path / "a.mtx"
    write_matrixmarket(a, path)
    read_matrixmarket(path)  # warm-up, so that first-call allocations stay out
    tracemalloc.start()
    try:
        back = read_matrixmarket(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max_abs_diff(back, a) == 0.0
    assert peak < 52 * a.nnz, peak / a.nnz


def general_file(a) -> str:
    """``a``'s ``general`` MatrixMarket file from a line-by-line writer."""
    return (f"%%MatrixMarket matrix coordinate real general\n"
            f"{a.nrows} {a.ncols} {a.nnz}\n" + "".join(
                f"{i + 1} {j + 1} {v:.17g}\n" for i, j, v in
                zip(a.row_indices().tolist(), a.col_idx.tolist(), a.vals.tolist())))


def is_bitwise_symmetric(a) -> bool:
    t = transpose(a)
    return a.nrows == a.ncols and all(
        getattr(a, f).tobytes() == getattr(t, f).tobytes()
        for f in ("row_ptr", "col_idx", "vals"))


def assert_written_as_expected(a, path):
    """The file at ``path`` is ``a``'s ``symmetric`` file when ``a`` equals
    its transpose bit for bit, the lines of the general file with row >= col
    in the same order; else the general file, byte for byte."""
    text = path.read_text()
    if not is_bitwise_symmetric(a):
        assert text == general_file(a)
        return
    _, _, *lines = general_file(a).splitlines(keepends=True)
    lower = [ln for ln in lines if int(ln.split()[0]) >= int(ln.split()[1])]
    ndiag = int(np.count_nonzero(a.row_indices() == a.col_idx))
    assert len(lower) == (a.nnz + ndiag) // 2
    assert text == (f"%%MatrixMarket matrix coordinate real symmetric\n"
                    f"{a.nrows} {a.ncols} {len(lower)}\n" + "".join(lower))


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    for field in ("row_ptr", "col_idx", "vals"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


# every finite double, by bit pattern
finite_doubles = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       mirrored=st.booleans(), data=st.data())
def test_matrixmarket_roundtrip_is_bitwise(tmp_path_factory, shape, mirrored, data):
    nrows, ncols = shape
    entry = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1),
                      finite_doubles)
    entries = data.draw(st.lists(entry, max_size=40))
    if mirrored:
        # each entry moved to the lower triangle of a square shape and
        # repeated at its mirror, in the same order, so that the sums are
        # equal bit for bit
        shape = (nrows, nrows)
        entries = [(max(i, j % nrows), min(i, j % nrows), v)
                   for i, j, v in entries]
        entries += [(j, i, v) for i, j, v in entries if i != j]
    a = sparse_from_triplets(batch(entries, shape))
    if mirrored:
        assert is_bitwise_symmetric(a)
    path = tmp_path_factory.mktemp("mm") / "a.mtx"
    write_matrixmarket(a, path)
    assert_written_as_expected(a, path)
    header, size, *lines = path.read_text().splitlines(keepends=True)
    # comment and blank lines between the entries are skipped
    for pos in sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=4)),
                      reverse=True):
        lines.insert(pos, data.draw(st.sampled_from(["% note\n", "\n", "  \n"])))
    path.write_text(header + size + "".join(lines))
    assert_bitwise_equal(read_matrixmarket(path), a)


# ---------------------------------------------------------------------------
# The chunked line writer behind both file writers

# two quiet NaNs with different bits: the second has the sign bit and
# payload 1
NAN_A, NAN_B = np.array([0x7FF8000000000000, 0xFFF8000000000001 - (1 << 64)],
                        dtype=np.int64).view(np.float64)
# 8-line chunks: all distinct (one % per line), all equal (deduped), 7 of 8
# distinct (one % per line), 5 of 8 distinct (deduped), and a short last
# chunk of one value (deduped)
CHUNKED_VALUES = np.array(
    [-1 / 3, 5e-324, -5e-324, 1e16, -1e16, 1 / 3, np.inf, -np.inf]
    + [1 / 3] * 8
    + [NAN_A, NAN_B, -2.5, 1e16, 1e16, 5e-324, -1 / 3, 2.0]
    + [NAN_A, NAN_B, NAN_A, -1e16, -1e16, -1e16, 1 / 3, -1e-300]
    + [5e-324] * 3)


def spy_on_dedupe(monkeypatch) -> list:
    """Set 8-line chunks and return the list to which the length of every
    float column that the writer dedupes is appended."""
    monkeypatch.setattr(sparse, "_WRITE_CHUNK", 8)
    texts, deduped = sparse._texts, []
    monkeypatch.setattr(sparse, "_texts",
                        lambda values: deduped.append(len(values)) or texts(values))
    return deduped


@pytest.mark.parametrize("kind", ["general", "symmetric"])
def test_chunked_writer_is_byte_identical_to_one_format_per_line(
        tmp_path, monkeypatch, kind):
    deduped = spy_on_dedupe(monkeypatch)
    n = len(CHUNKED_VALUES)
    # the values on the diagonal: a square matrix is written symmetric and
    # one with an extra column general, each with a line per value
    a = SparseMatrix(n, n if kind == "symmetric" else n + 1,
                     np.arange(n + 1), np.arange(n), CHUNKED_VALUES)
    path = tmp_path / "a.mtx"
    write_matrixmarket(a, path)
    assert path.read_text() == (
        f"%%MatrixMarket matrix coordinate real {kind}\n{a.nrows} {a.ncols} {n}\n"
        + "".join("%d %d %.17g\n" % (i + 1, i + 1, v)
                  for i, v in enumerate(CHUNKED_VALUES.tolist())))
    assert deduped == [8, 8, 3]


def test_chunked_mesh_writer_keeps_signed_zeros_apart(tmp_path, monkeypatch):
    deduped = spy_on_dedupe(monkeypatch)
    # the first chunk holds 0.0 and -0.0 in both coordinates and repeats
    # (deduped), the second is all distinct (one % per line) and the short
    # last one repeats (deduped); nodes beyond the two triangles are
    # unreferenced
    x = ([0.0, -0.0, 1.0, 0.0, 1.0, 0.5, -0.0, 0.5]
         + [-1 / 3, 5e-324, -5e-324, 1e16, -1e16, 1 / 3, 0.25, 0.75]
         + [-0.0, -0.0, 0.25])
    y = ([-0.0, 0.0, 0.0, 1.0, 1.0, 0.5, 0.0, -0.0]
         + [2.5, -2.5, 1e-300, -1e-300, 1 / 7, 2 / 7, 3 / 7, 4 / 7]
         + [0.0, 0.0, 0.0])
    mesh = Mesh.from_arrays(np.array([x, y]), [[0, 1], [2, 4], [3, 3]])
    path = tmp_path / "a.mesh"
    write_mesh(mesh, path)
    assert path.read_text() == (
        f"simplexmesh {MESH_FORMAT_VERSION} 2 {len(x)} 2\n"
        + "".join("%.17g %.17g\n" % xy for xy in zip(x, y))
        + "0 2 3\n1 4 3\n")
    assert deduped == [8, 8, 3, 3]


# ---------------------------------------------------------------------------
# Symmetric MatrixMarket files


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["mass", "stiffness", "elastic", "mass-pk"])
def test_assembled_matrices_roundtrip_bitwise(tmp_path, kind, d):
    mesh = shuffled_mesh(d, 4 if d == 2 else 2, seed=d)
    if kind == "mass-pk":
        mats = {"optv2": assemble_mass_pk(build_pk_mesh(mesh, 3),
                                          pk_mass_coeffs(d, 3))}
    else:
        kernel = {"mass": lambda: MassKernel(mesh, lambda q: 1 + q[0] * q[-1]),
                  "stiffness": lambda: StiffnessKernel(mesh),
                  "elastic": lambda: ElasticKernel(mesh, lambda q: 1 + q[0],
                                                   lambda q: 2 + q[-1])}[kind]()
        drivers = VECTOR_DRIVERS if kind == "elastic" else SCALAR_DRIVERS
        mats = {name: driver(mesh, kernel) for name, driver in drivers.items()}
    # optvs adds each local matrix's transpose, so its result is symmetric
    # bit for bit; so is the lattice mass
    assert is_bitwise_symmetric(mats["optvs" if "optvs" in mats else "optv2"])
    for name, a in mats.items():
        path = tmp_path / f"{name}.mtx"
        write_matrixmarket(a, path)
        assert_written_as_expected(a, path)
        assert_bitwise_equal(read_matrixmarket(path), a)


@pytest.mark.parametrize("d,n", [(1, 12), (2, 4), (3, 2)])
def test_variable_weight_mass_is_bitwise_symmetric(tmp_path, d, n):
    # W[alpha] + W[beta] is one term of the entry, so (alpha, beta) and
    # (beta, alpha) round alike.  optv merges its local pairs column by
    # column, so in 3D, where an edge lies in many elements, (i, j) and
    # (j, i) sum their terms in different orders
    mesh = shuffled_mesh(d, n, seed=d)
    kernel = MassKernel(mesh, lambda q: 1 + q[0] * q[-1])
    for name, driver in SCALAR_DRIVERS.items():
        a = driver(mesh, kernel)
        if d < 3 or name != "optv":
            assert is_bitwise_symmetric(a), name
        path = tmp_path / f"{name}.mtx"
        write_matrixmarket(a, path)
        assert path.read_text().startswith(SYM_HEADER) == is_bitwise_symmetric(a)


def one_ulp_off(a, pos):
    vals = a.vals.copy()
    vals[pos] = np.nextafter(vals[pos], np.inf)
    return SparseMatrix(a.nrows, a.ncols, a.row_ptr, a.col_idx, vals)


def test_matrixmarket_writes_general_unless_exactly_symmetric(tmp_path):
    sym = sparse_from_triplets(batch([(0, 0, 2.0), (1, 0, 1 / 3), (0, 1, 1 / 3),
                                      (3, 2, -7.5), (2, 3, -7.5), (3, 3, 1e-300)]))
    cases = {
        "symmetric": sym,
        "one-by-one": sparse_from_triplets(batch([(0, 0, 0.1)], (1, 1))),
        "empty-square": empty_matrix(3, 3),
        "non-square": sparse_from_triplets(batch([(0, 0, 2.0), (1, 0, 1.0),
                                                  (0, 1, 1.0)], (2, 3))),
        "non-symmetric-pattern": sparse_from_triplets(batch([(0, 0, 2.0),
                                                             (1, 0, 1.0)])),
        "upper-only": sparse_from_triplets(batch([(0, 3, 1.0)])),
        # stored in the order (0, 0), (0, 1), (1, 0), (2, 3), (3, 2), (3, 3)
        "one-ulp-off-upper": one_ulp_off(sym, 1),
        "one-ulp-off-lower": one_ulp_off(sym, 2),
        "one-ulp-off-last": one_ulp_off(sym, sym.nnz - 2),
        "one-ulp-off-diagonal": one_ulp_off(sym, sym.nnz - 1),
    }
    for name, a in cases.items():
        path = tmp_path / f"{name}.mtx"
        write_matrixmarket(a, path)
        header = path.read_text().splitlines()[0].split()[-1]
        assert header == ("symmetric" if name in (
            "symmetric", "one-by-one", "empty-square", "one-ulp-off-diagonal")
            else "general"), name
        assert_written_as_expected(a, path)
        assert_bitwise_equal(read_matrixmarket(path), a)


SYM_HEADER = "%%MatrixMarket matrix coordinate real symmetric\n"


@pytest.mark.parametrize("body,message", [
    ("3 3 2\n1 1 1.0\n2 3 1.0\n",
     r"entry 1: one-based index \(2, 3\) above the diagonal of a symmetric matrix"),
    ("2 3 1\n1 1 1.0\n", "symmetric matrix with non-square size line '2 3 1'"),
    ("2 2 1\n3 1 1.0\n", r"entry 0: one-based index \(3, 1\) outside 2x2"),
], ids=["above-diagonal", "non-square", "index-range"])
def test_symmetric_matrixmarket_rejects_malformed_files(tmp_path, body, message):
    path = tmp_path / "bad.mtx"
    path.write_text(SYM_HEADER + body)
    with pytest.raises(MatrixFormatError, match=f"{re.escape(str(path))}: {message}"):
        read_matrixmarket(path)


def test_symmetric_matrixmarket_mirrors_duplicates_in_order(tmp_path):
    # 1e16 + 1.0 rounds back to 1e16, so 1.0 survives only when it is added
    # last; the mirror of each entry gets the same sum, and an exact zero
    # is dropped on both sides of the diagonal
    path = tmp_path / "dup.mtx"
    path.write_text(SYM_HEADER + "3 3 5\n2 1 1e16\n3 3 0.5\n% note\n"
                    "2 1 -1e16\n2 1 1.0\n3 2 -0.0\n")
    assert entries_of(read_matrixmarket(path)) == {(1, 0): 1.0, (0, 1): 1.0,
                                                   (2, 2): 0.5}


def test_symmetric_matrixmarket_file_read_by_scipy(tmp_path):
    scipy_io = pytest.importorskip("scipy.io")
    mesh = shuffled_mesh(3, 2, seed=4)
    a = VECTOR_DRIVERS["optvs"](mesh, ElasticKernel(mesh, lambda q: 1 + q[0]))
    path = tmp_path / "elastic.mtx"
    write_matrixmarket(a, path)
    assert path.read_text().startswith(SYM_HEADER)
    b = scipy_io.mmread(path).tocsr()
    b.sort_indices()
    assert b.shape == a.shape
    assert np.array_equal(b.indptr, a.row_ptr)
    assert np.array_equal(b.indices, a.col_idx)
    assert b.data.tobytes() == a.vals.tobytes()


def test_symmetric_writer_peak_is_at_most_the_general_writers(tmp_path):
    a = assemble_mass_pk(build_pk_mesh(shuffled_mesh(2, 16, seed=3), 3),
                         pk_mass_coeffs(2, 3))
    # the last off-diagonal entry one ulp off: the symmetry check runs to
    # its last chunk and the whole matrix is written general
    b = one_ulp_off(a, np.flatnonzero(a.row_indices() != a.col_idx)[-1])
    peaks = []
    for m in (a, b):
        path = tmp_path / "m.mtx"
        write_matrixmarket(m, path)  # warm-up
        tracemalloc.start()
        try:
            write_matrixmarket(m, path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert is_bitwise_symmetric(a) and not is_bitwise_symmetric(b)
    assert peaks[0] <= peaks[1], peaks
