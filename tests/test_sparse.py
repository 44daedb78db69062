import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplex_asm import (
    CapacityError,
    IndexRangeError,
    MatrixFormatError,
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


def test_triplet_length_mismatch():
    with pytest.raises(ShapeMismatchError):
        TripletBatch(2, 2, np.array([0]), np.array([0, 1]), np.array([1.0]))


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
    for nrows, ncols in ((30, 30), (30, 41)):
        rows = rng.integers(0, nrows, size=500)
        cols = rng.integers(0, ncols, size=500)
        vals = rng.standard_normal(500)
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
# Property tests

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
