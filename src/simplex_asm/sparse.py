"""Triplet-accumulating sparse matrix construction and small CSR algebra.

Every canonical matrix comes from one keyed sort (``_from_keys``): entry
(row, col) of an nrows-by-ncols matrix gets the int64 key
``row*ncols + col``, one stable sort of the keys puts duplicates next to
each other in order of appearance, and a left-to-right ``bincount`` sums
them.  Input triplets whose value is exactly 0.0 are skipped and sums
that cancel to exactly 0.0 are dropped, so results are deterministic.
``add`` (keys of ``a`` before those of ``b``), ``transpose``,
``max_abs_diff`` and the MatrixMarket reader use the same sort.  Shapes
whose keys overflow int64 raise ``CapacityError`` where they enter:
``TripletBatch`` and the MatrixMarket size line.  The MatrixMarket
reader parses the entries with one ``np.loadtxt`` over the open file.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    IndexRangeError,
    MatrixFormatError,
    ShapeMismatchError,
)


def _check_key_range(nrows: int, ncols: int) -> None:
    if int(nrows) * int(ncols) > np.iinfo(np.int64).max:
        raise CapacityError(f"a {nrows}x{ncols} matrix exceeds the int64 key range")


@dataclass
class TripletBatch:
    """Unordered (row, col, value) contributions to an nrows-by-ncols matrix."""

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        _check_key_range(self.nrows, self.ncols)
        # rows and cols keep their (common) shape, so broadcast views are
        # not copied; they are read in C order
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64).ravel()
        if not (self.rows.shape == self.cols.shape
                and self.rows.size == self.vals.size):
            raise ShapeMismatchError(
                f"triplet arrays have shapes {self.rows.shape}, "
                f"{self.cols.shape}, {self.vals.shape}"
            )


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Compressed sparse row matrix in canonical form.

    Within each row the column indices are strictly increasing and no
    stored value is exactly 0.0.  Instances are immutable; all operations
    return new matrices.
    """

    nrows: int
    ncols: int
    row_ptr: np.ndarray  # (nrows+1,) int64
    col_idx: np.ndarray  # (nnz,) int64
    vals: np.ndarray     # (nnz,) float64

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row_indices(self) -> np.ndarray:
        """Expand row_ptr back to one row index per stored entry."""
        return np.repeat(np.arange(self.nrows, dtype=np.int64),
                         np.diff(self.row_ptr))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.ncols))
        out[self.row_indices(), self.col_idx] = self.vals
        return out


def empty_matrix(nrows: int, ncols: int) -> SparseMatrix:
    return SparseMatrix(
        nrows, ncols,
        np.zeros(nrows + 1, dtype=np.int64),
        np.empty(0, dtype=np.int64),
        np.empty(0, dtype=np.float64),
    )


def _from_keys(nrows, ncols, keys, vals) -> SparseMatrix:
    """Merge triplets given as keys ``row*ncols + col`` into canonical CSR.

    The only constructor of canonical matrices.  Assumes indices already
    validated and ``nrows*ncols`` within int64.  Skips inputs that are
    exactly 0.0, sums duplicates in order of appearance, drops sums that
    are exactly 0.0.  Never writes into ``keys`` or ``vals``.  Callers
    pass ``keys`` unnamed, so that the sort below frees the unsorted copy.
    """
    keep = vals != 0.0
    if not keep.all():
        keys, vals = keys[keep], vals[keep]
    if len(vals) == 0:
        return empty_matrix(nrows, ncols)

    # stable: ties keep input order.  For int64 numpy runs timsort, which
    # merges presorted runs (the operands of ``add``) in linear time.
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    del order  # lowers the peak memory of the sums below

    starts = np.empty(len(keys), dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    # bincount accumulates strictly left-to-right, so duplicates sum in
    # order of appearance with a reproducible association; cumsum numbers
    # the groups from 1, so slot 0 stays empty
    sums = np.bincount(np.cumsum(starts), weights=vals)[1:]

    keep = sums != 0.0
    keys = keys[starts][keep]
    sums = sums[keep]
    rows, cols = np.divmod(keys, ncols)
    row_ptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=row_ptr[1:])
    return SparseMatrix(nrows, ncols, row_ptr, cols, sums)


def _keys(rows, ncols, cols) -> np.ndarray:
    """The keys ``rows*ncols + cols`` as a new int64 array."""
    keys = rows * ncols
    keys += cols
    return keys


def sparse_from_triplets(batch: TripletBatch) -> SparseMatrix:
    """Build a canonical sparse matrix from a triplet batch."""
    for name, idx, size in (("row", batch.rows, batch.nrows),
                            ("col", batch.cols, batch.ncols)):
        bad = (idx < 0) | (idx >= size)
        if bad.any():
            pos = int(np.flatnonzero(bad)[0])
            raise IndexRangeError(
                f"{name} index {idx.flat[pos]} at triplet {pos} outside [0, {size})"
            )
    return _from_keys(batch.nrows, batch.ncols,
                      _keys(batch.rows, batch.ncols, batch.cols).ravel(),
                      batch.vals)


def add(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Entrywise sum, canonical output, exact-zero results dropped.

    The entries of ``a`` come before those of ``b``.  Both operands are
    canonical, so their keys form two sorted runs that the stable sort
    merges in linear time; repeated accumulation (matrix += batch) stays
    linear in the result size.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"cannot add shapes {a.shape} and {b.shape}")
    return _from_keys(a.nrows, a.ncols,
                      np.concatenate([_keys(m.row_indices(), m.ncols, m.col_idx)
                                      for m in (a, b)]),
                      np.concatenate([a.vals, b.vals]))


def transpose(a: SparseMatrix) -> SparseMatrix:
    return _from_keys(a.ncols, a.nrows,
                      _keys(a.col_idx, a.nrows, a.row_indices()), a.vals)


def max_abs_diff(a: SparseMatrix, b: SparseMatrix) -> float:
    """max |a_ij - b_ij| over the union of both sparsity patterns."""
    return max_abs(add(a, SparseMatrix(b.nrows, b.ncols, b.row_ptr,
                                       b.col_idx, -b.vals)))


def max_abs(a: SparseMatrix) -> float:
    """Largest entry magnitude; 0.0 for an empty matrix."""
    return float(np.abs(a.vals).max()) if a.nnz else 0.0


# ---------------------------------------------------------------------------
# MatrixMarket coordinate I/O (real general, one-based indices on disk)

_MM_HEADER = "%%MatrixMarket matrix coordinate real general"


def write_matrixmarket(a: SparseMatrix, path) -> None:
    with open(path, "w") as f:
        f.write(_MM_HEADER + "\n")
        f.write(f"{a.nrows} {a.ncols} {a.nnz}\n")
        rows = a.row_indices()
        for i, j, v in zip(rows, a.col_idx, a.vals):
            f.write(f"{i + 1} {j + 1} {v:.17g}\n")


def _loadtxt(source, error, where, **kwargs):
    """``np.loadtxt``, raising its ValueError (whose text names the row and
    column) as ``error`` prefixed by ``where``.  Empty tables are valid."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        try:
            return np.loadtxt(source, **kwargs)
        except ValueError as exc:
            raise error(f"{where}: {exc}") from exc


def read_matrixmarket(path) -> SparseMatrix:
    with open(path) as f:
        header = f.readline().strip()
        if header.split() != _MM_HEADER.split():
            raise MatrixFormatError(f"{path}: unsupported header {header!r}")
        for line in f:
            size_line = line.split()
            if size_line and not size_line[0].startswith("%"):
                break
        else:
            raise MatrixFormatError(f"{path}: missing size line")
        try:
            nrows, ncols, nnz = (int(t) for t in size_line)
        except ValueError as exc:
            raise MatrixFormatError(f"{path}: bad size line") from exc
        if min(nrows, ncols, nnz) < 0:
            raise MatrixFormatError(
                f"{path}: negative size on size line {line.strip()!r}"
            )
        _check_key_range(nrows, ncols)
        i, j, v = _loadtxt(f, MatrixFormatError, f"{path}: entries",
                           dtype=[("i", np.int64), ("j", np.int64),
                                  ("v", np.float64)],
                           comments="%", ndmin=1, unpack=True)
    if len(v) != nnz:
        raise MatrixFormatError(
            f"{path}: size line declares {nnz} entries, found {len(v)}"
        )
    bad = (i < 1) | (i > nrows) | (j < 1) | (j > ncols)
    if bad.any():
        pos = int(np.flatnonzero(bad)[0])
        raise MatrixFormatError(
            f"{path}: entry {pos}: one-based index ({i[pos]}, {j[pos]}) "
            f"outside {nrows}x{ncols}"
        )
    return _from_keys(nrows, ncols, (i - 1) * ncols + (j - 1), v)
