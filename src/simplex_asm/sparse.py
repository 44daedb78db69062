"""Triplet-accumulating sparse matrix construction and small CSR algebra.

Every matrix built from triplets comes from one keyed sort (``_from_keys``):
entry (row, col) of an nrows-by-ncols matrix gets the int64 key
``row*ncols + col``, a stable sort of the keys puts duplicates next to
each other in order of appearance, and a left-to-right ``bincount`` sums
them.  The stable order comes from numpy's default (unstable, SIMD) sort
of words ``key << shift | position``, which are distinct; a stable argsort
of the keys is used when the words would not fit in 63 bits.  The
constructor overwrites the keys and values it is given, so each caller
passes arrays made for the call: ``optv2`` its own values, the reader the
arrays it built, the others a copy.  Sums that are exactly 0.0 are
dropped, so no exact zero is ever stored, and results are deterministic.
``transpose`` and the MatrixMarket reader use the same routine.

``add`` (and ``max_abs_diff`` through it) does not sort: it merges two
canonical matrices in linear time, as Matlab's sparse ``+`` does.  It
locates the keys of ``b`` among those of ``a`` with one binary search and
interleaves the two in one pass, adding the values of ``b`` to the equal
keys of ``a``; the result is bit-identical to constructing the
concatenated triplets, ``a``'s first.  Operands whose keys do not strictly
increase raise ``NonCanonicalMatrixError``.

Shapes whose keys overflow int64 raise ``CapacityError`` where they
enter: ``TripletBatch`` and the MatrixMarket size line.  The MatrixMarket
reader parses the entries with one ``np.loadtxt`` over the open file; the
writers format their lines in chunks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapacityError,
    IndexRangeError,
    MatrixFormatError,
    NonCanonicalMatrixError,
    ShapeMismatchError,
)


def _check_key_range(nrows: int, ncols: int) -> None:
    if int(nrows) * int(ncols) > np.iinfo(np.int64).max:
        raise CapacityError(f"a {nrows}x{ncols} matrix exceeds the int64 key range")


def _as_index(idx, name: str) -> np.ndarray:
    """``idx`` as int64, rejecting indices that the cast would change.

    Integer input is cast (or kept) without a check.  Other input raises
    IndexRangeError naming the first flat (C-order) triplet position whose
    index is not an integer in the int64 range; integral floats such as
    2.0 pass.
    """
    idx = np.asarray(idx)
    if idx.dtype.kind not in "iu":
        f = idx.astype(np.float64)
        bad = ~(np.abs(f) < 2.0**63) | (f != np.trunc(f))
        if bad.any():
            pos = int(np.flatnonzero(bad)[0])
            raise IndexRangeError(
                f"{name} index {idx.flat[pos]} at triplet {pos} is not an "
                "integer in the int64 range"
            )
    return idx.astype(np.int64, copy=False)


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
        self.rows = _as_index(self.rows, "row")
        self.cols = _as_index(self.cols, "col")
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


# Length of the chunks in which the construction works in place: their
# temporaries stay at a few hundred KiB instead of another array of the
# batch's length.
_CHUNK = 1 << 15


def _from_keys(nrows, ncols, keys, vals) -> SparseMatrix:
    """Merge triplets given as keys ``row*ncols + col`` into canonical CSR.

    The only constructor of canonical matrices from triplets (``add``
    merges two canonical matrices without it).  Assumes indices already
    validated and ``nrows*ncols`` within int64.  Sums duplicates in order
    of appearance and drops sums that are exactly 0.0.  Inputs of exactly
    0.0 change no sum: the running sums start at +0.0 and are never -0.0,
    and x + 0.0 is x.  ``keys`` (int64) and ``vals`` (float64) must be
    arrays made for this call: both are overwritten, and no other array
    of their length is allocated.

    Each key is packed with its input position into one int64 word,
    ``key << shift | position``, in the keys' own memory.  The words are
    distinct, so numpy's default (unstable, SIMD) sort of them is exactly
    the stable order of the keys, on every platform.  The run starts and
    the unique keys are read off the sorted words, the words are masked
    down to input positions, and the values are gathered into the same
    memory chunk by chunk; the group numbers of the sum then go into the
    spent ``vals``.  When the words would not fit in 63 bits, a
    stable argsort of the keys is used instead.
    """
    n = len(vals)
    if n == 0:
        return empty_matrix(nrows, ncols)

    starts = np.empty(n, dtype=bool)
    starts[0] = True
    shift = (n - 1).bit_length()
    if (int(nrows) * int(ncols) - 1).bit_length() + shift > 63:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = vals[order]
        del order  # lowers the peak memory of the sums below
        np.not_equal(keys[1:], keys[:-1], out=starts[1:])
        uniq = keys[starts]
        groups = keys
    else:
        keys <<= shift
        for s in range(0, n, _CHUNK):
            keys[s:s + _CHUNK] |= np.arange(s, min(s + _CHUNK, n))
        keys.sort()
        # neighbours share a key iff they differ in the position bits only
        for s in range(1, n, _CHUNK):
            e = min(s + _CHUNK, n)
            np.greater_equal(keys[s:e] ^ keys[s - 1:e - 1], 1 << shift,
                             out=starts[s:e])
        uniq = keys[starts]
        uniq >>= shift
        keys &= (1 << shift) - 1
        # the values in sorted order go into the same memory; each chunk
        # overwrites only the positions it has just read
        for s in range(0, n, _CHUNK):
            keys.view(np.float64)[s:s + _CHUNK] = vals[keys[s:s + _CHUNK]]
        groups = vals.view(np.int64)
        vals = keys.view(np.float64)
    del keys

    # bincount accumulates strictly left-to-right, so duplicates sum in
    # order of appearance with a reproducible association; cumsum numbers
    # the groups from 1, so slot 0 stays empty
    groups[...] = starts
    np.cumsum(groups, out=groups)
    sums = np.bincount(groups, weights=vals)[1:]
    del groups, vals, starts  # lowers the peak memory of the CSR below

    keep = sums != 0.0
    if not keep.all():
        uniq, sums = uniq[keep], sums[keep]
    rows = uniq // ncols  # a division by one scalar, faster than divmod
    uniq -= rows * ncols  # now the column indices
    row_ptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=row_ptr[1:])
    return SparseMatrix(nrows, ncols, row_ptr, uniq, sums)


def _keys(rows, ncols, cols) -> np.ndarray:
    """New int64 keys ``rows*ncols + cols`` in C order, so ravel copies nothing."""
    keys = np.multiply(rows, ncols, order="C")
    keys += cols
    return keys


def sparse_from_triplets(batch: TripletBatch, *, _owned=False) -> SparseMatrix:
    """Build a canonical sparse matrix from a triplet batch.

    The batch's index arrays are never written, and its values are copied
    for the constructor, which overwrites them.  ``_owned`` is private to
    the ``optv2`` engine, which made ``batch.vals`` for this call and no
    longer reads it: the constructor then overwrites it instead of a copy.
    """
    for name, idx, size in (("row", batch.rows, batch.nrows),
                            ("col", batch.cols, batch.ncols)):
        if idx.size and (idx.min() < 0 or idx.max() >= size):
            pos = int(np.flatnonzero((idx < 0) | (idx >= size))[0])
            raise IndexRangeError(
                f"{name} index {idx.flat[pos]} at triplet {pos} outside [0, {size})"
            )
    return _from_keys(batch.nrows, batch.ncols,
                      _keys(batch.rows, batch.ncols, batch.cols).ravel(),
                      batch.vals if _owned else batch.vals.copy())


def _canonical_keys(m: SparseMatrix, name: str) -> np.ndarray:
    """New int64 keys ``row*ncols + col`` of ``m``'s stored entries.

    Raises NonCanonicalMatrixError, naming operand ``name`` and the first
    stored position, unless the keys strictly increase.
    """
    keys = m.row_indices()
    keys *= m.ncols
    keys += m.col_idx
    bad = keys[1:] <= keys[:-1]
    if bad.any():
        pos = int(bad.argmax()) + 1
        raise NonCanonicalMatrixError(
            f"operand {name}: stored entry {pos} (row {keys[pos] // m.ncols}, "
            f"col {m.col_idx[pos]}) is out of order or repeated in its row"
        )
    return keys


def add(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """Entrywise sum, canonical output, exact-zero results dropped.

    A linear merge of two canonical operands: one binary search locates
    the keys of ``b`` among those of ``a``, the entries of ``a`` fill the
    slots that ``b``'s new keys leave free, and the values of ``b`` are
    added to equal keys after ``a``'s are copied.  Each stored sum is
    ``a_ij + b_ij``, which is what the constructor gives for the
    concatenated triplets, ``a``'s first, since a canonical operand stores
    no zero.  Repeated accumulation (matrix += batch) therefore costs
    time linear in the result size and no sort.  Raises
    NonCanonicalMatrixError when either operand's keys do not strictly
    increase.  Stored zeros are not checked: an operand must store none,
    or its 0.0 is carried into the result.  The result never shares
    memory with an operand.
    """
    if a.shape != b.shape:
        raise ShapeMismatchError(f"cannot add shapes {a.shape} and {b.shape}")
    ka, kb = _canonical_keys(a, "a"), _canonical_keys(b, "b")
    # each key of b goes after its equal key in a, if any: ka[pos - 1].
    # Where pos is 0, ka[-1] is larger than the key, so no false match
    pos = np.searchsorted(ka, kb, side="right")
    hit = ka[pos - 1] == kb if len(ka) else np.zeros(len(kb), dtype=bool)
    del ka, kb
    new = ~hit
    # the running count of b's new keys, read at b's row starts, shifts
    # a's row starts; read at b's entries, it shifts their slots
    count = np.zeros(len(new) + 1, dtype=np.int64)
    np.cumsum(new, out=count[1:])
    row_ptr = a.row_ptr + count[b.row_ptr]
    pos += count[1:]
    pos -= 1
    del count
    new_slots, hit_slots = pos[new], pos[hit]
    del pos

    n = a.nnz + len(new_slots)
    from_a = np.ones(n, dtype=bool)
    from_a[new_slots] = False
    col_idx = np.empty(n, dtype=np.int64)
    col_idx[from_a] = a.col_idx
    col_idx[new_slots] = b.col_idx[new]
    vals = np.empty(n, dtype=np.float64)
    vals[from_a] = a.vals
    del from_a
    vals[new_slots] = b.vals[new]
    vals[hit_slots] += b.vals[hit]

    if (vals[hit_slots] == 0.0).any():
        keep = vals != 0.0
        dropped = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(~keep, out=dropped[1:])
        row_ptr -= dropped[row_ptr]
        col_idx, vals = col_idx[keep], vals[keep]
    return SparseMatrix(a.nrows, a.ncols, row_ptr, col_idx, vals)


def transpose(a: SparseMatrix) -> SparseMatrix:
    return _from_keys(a.ncols, a.nrows,
                      _keys(a.col_idx, a.nrows, a.row_indices()), a.vals.copy())


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
        _write_lines(f, "%d %d %.17g\n", a.row_indices() + 1, a.col_idx + 1, a.vals)


# Lines per string that the writers format: the per-chunk overhead is
# negligible, and the strings and Python objects of a chunk stay near 1 MiB.
_WRITE_CHUNK = 8192


def _write_lines(f, fmt: str, *columns) -> None:
    """Write ``fmt % row`` for every row of the equal-length ``columns``,
    ``_WRITE_CHUNK`` rows per joined string."""
    for s in range(0, len(columns[0]), _WRITE_CHUNK):
        rows = zip(*(c[s:s + _WRITE_CHUNK].tolist() for c in columns))
        f.write("".join(map(fmt.__mod__, rows)))


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
        entries = _loadtxt(f, MatrixFormatError, f"{path}: entries",
                           dtype=[("i", np.int64), ("j", np.int64),
                                  ("v", np.float64)],
                           comments="%", ndmin=1)
    if len(entries) != nnz:
        raise MatrixFormatError(
            f"{path}: size line declares {nnz} entries, found {len(entries)}"
        )
    i, j = entries["i"], entries["j"]
    bad = (i < 1) | (i > nrows) | (j < 1) | (j > ncols)
    if bad.any():
        pos = int(np.flatnonzero(bad)[0])
        raise MatrixFormatError(
            f"{path}: entry {pos}: one-based index ({i[pos]}, {j[pos]}) "
            f"outside {nrows}x{ncols}"
        )
    keys = (i - 1) * ncols + (j - 1)
    # the values are copied out of the records (24 bytes per entry), so that
    # the records are freed before the construction
    vals = entries["v"].copy()
    del entries, i, j, bad
    return _from_keys(nrows, ncols, keys, vals)
