import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplex_asm import (
    CapacityError,
    IndexRangeError,
    MatrixFormatError,
    NonCanonicalMatrixError,
    ShapeMismatchError,
    SparseMatrix,
    TripletBatch,
    add,
    empty_matrix,
    max_abs_diff,
    read_matrixmarket,
    sparse_from_triplets,
    transpose,
    write_matrixmarket,
)


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


def test_triplet_length_mismatch():
    with pytest.raises(ShapeMismatchError):
        TripletBatch(2, 2, np.array([0]), np.array([0, 1]), np.array([1.0]))
    rows = np.broadcast_to(np.arange(2)[:, None], (2, 3))
    with pytest.raises(ShapeMismatchError, match=r"\(2, 3\), \(3, 2\)"):
        TripletBatch(2, 3, rows, rows.T, np.ones(6))
    with pytest.raises(ShapeMismatchError, match=r"\(5,\)"):
        TripletBatch(2, 3, rows, rows, np.ones(5))


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


@pytest.mark.parametrize("bits", [63, 64])
def test_sort_branches_bitwise_at_packing_boundary(tmp_path, bits):
    rng = np.random.default_rng(bits)
    # wide: 13 position bits and 50 or 51 key bits, few rows
    nrows, ncols, n = 16, 2**46 + (bits - 63), 2**12 + 1
    assert packed_bits(nrows, ncols, n) == bits
    rows, cols, vals = tie_heavy(rng, nrows, ncols, n)
    m = sparse_from_triplets(TripletBatch(nrows, ncols, rows, cols, vals))
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
    m = sparse_from_triplets(TripletBatch(nrows, ncols, rows, cols, vals))
    assert_csr_bitwise(m, nrows, ncols, rows, cols, vals)
    # the optv2 engine's route: the constructor overwrites the batch's
    # values, the engine's own, in place across 32 chunks
    m = sparse_from_triplets(TripletBatch(nrows, ncols, rows, cols, vals.copy()),
                             _owned=True)
    assert_csr_bitwise(m, nrows, ncols, rows, cols, vals)
    for x, before in zip(inputs, copies):
        assert x.tobytes() == before.tobytes()
    a = sparse_from_triplets(TripletBatch(nrows, ncols, *distinct(rng, nrows, ncols, n)))
    assert a.nnz == n
    assert_csr_bitwise(transpose(a), ncols, nrows, a.col_idx, a.row_indices(), a.vals)


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


# every finite double, by bit pattern
finite_doubles = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)), data=st.data())
def test_matrixmarket_roundtrip_is_bitwise(tmp_path_factory, shape, data):
    nrows, ncols = shape
    entry = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1),
                      finite_doubles)
    a = sparse_from_triplets(batch(data.draw(st.lists(entry, max_size=40)), shape))
    path = tmp_path_factory.mktemp("mm") / "a.mtx"
    write_matrixmarket(a, path)
    header, size, *lines = path.read_text().splitlines(keepends=True)
    # comment and blank lines between the entries are skipped
    for pos in sorted(data.draw(st.lists(st.integers(0, len(lines)), max_size=4)),
                      reverse=True):
        lines.insert(pos, data.draw(st.sampled_from(["% note\n", "\n", "  \n"])))
    path.write_text(header + size + "".join(lines))
    back = read_matrixmarket(path)
    assert back.shape == a.shape
    for field in ("row_ptr", "col_idx", "vals"):
        got, want = getattr(back, field), getattr(a, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
