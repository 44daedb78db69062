"""Triplet-accumulating sparse matrix construction and small CSR algebra.

Every matrix built from triplets is a keyed sum, then a layout.  Both
keyed sums start from one sort (``_sort``) of 1-D int64 keys ``row*ncols
+ col`` (node keys ``row*(ncols//m) + col`` for m-by-m blocks) in stream
order.  ``sparse_from_triplets`` forms them so: a batch's stream axis,
the last axis of its index arrays (see ``TripletBatch``), goes to the
front, where the C order is the stream order; the ``optv2`` engine passes
1-D element-major streams.  The sort is numpy's default (unstable, SIMD)
sort of the distinct words ``key << shift | p`` over the positions ``p``,
``shift`` the bits of the largest ``p``, or a stable argsort when those
would not fit in 63 bits; it returns the run starts and the unique keys
and leaves the positions, in stable order, in the keys' memory.
``_stable_order`` sorts by the same words.  Both sums add duplicates left
to right from +0.0 by ``bincount``:

* ``_from_keys`` gathers one scalar run of values into sorted order in
  the keys' memory.  It overwrites the keys and values it is given, so
  each caller passes arrays made for the call: the reader the arrays it
  built, the others a copy.
* ``_block_sums`` sorts one node stream for many runs: the sort leaves
  the positions in sorted order, the slot at each one gets the number of
  its node entry, and one ``bincount`` per run sums it.  The runs are
  only read; a run may take a partner run's values bitwise where a mask
  is set.

Three layouts place the sums in canonical CSR:

* ``_pair_matrices``, per-pair scalar: one scalar matrix per listed
  component pair, for ``_from_keys`` (one pair, m = 1: scalar batches,
  ``transpose``, the MatrixMarket reader) and for vector ``optv`` and
  ``optvs`` (``sparse_from_triplets``' private ``_pairs`` keyword);
* ``_from_blocks``, interleaved blocks, for a ``TripletBatch`` with ``m
  > 1`` such as the node-diagonal blocks of vector ``optv`` and ``optvs``,
  each node entry's block placed by ``_put_blocks``;
* ``_mirror``, for ``optv2``, scalar or vector, with any kernel (the
  private ``_diagonal`` keyword): the batch holds the strict upper local
  vertex pairs keyed by their upper node entry, summed into upper and
  lower blocks, and the diagonal blocks come summed; each node row's
  lower blocks, diagonal block and upper blocks are placed by
  ``_put_blocks``.

Every sum is bitwise that of the full scalar stream.  Sums that are
exactly 0.0 are dropped by ``_drop_zeros``, in every layout and in
``add``, so no exact zero is ever stored.

``add`` (and ``max_abs_diff`` through it) does not sort: it merges two
canonical matrices in linear time, as Matlab's sparse ``+`` does.  It
locates the keys of ``b`` among those of ``a`` with one binary search and
interleaves the two in one pass, adding the values of ``b`` to the equal
keys of ``a``; the result is bit-identical to constructing the
concatenated triplets, ``a``'s first.  Operands whose keys do not strictly
increase raise ``NonCanonicalMatrixError``, and so does an operand that
stores an exact 0.0 when the sum holds one.

Shapes whose keys overflow int64 raise ``CapacityError`` where they
enter: ``TripletBatch`` and the MatrixMarket size line.  The MatrixMarket
reader parses the entries with one ``np.loadtxt`` over the open file; the
writers format their lines in chunks.  A square matrix that equals its
transpose bit for bit is written ``symmetric``, its lower triangle only
(the check binary-searches the mirror of each entry above the diagonal),
and the reader mirrors such a file's off-diagonal entries before the
construction; any other matrix is written ``general``.
"""

from __future__ import annotations

import operator
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
    """``idx`` as int64 of at least one dimension (a scalar becomes one
    triplet), rejecting indices that the cast would change.

    Integer input is cast (or kept) without a check.  Other input raises
    IndexRangeError naming the first flat (C-order) triplet position whose
    index is not an integer in the int64 range; integral floats such as
    2.0 pass.
    """
    idx = np.asarray(idx)
    if not idx.ndim:
        idx = idx.reshape(1)
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
    """(row, col, value) contributions to an nrows-by-ncols matrix.

    ``rows`` and ``cols`` have one shape, and ``vals`` holds the values in
    their C order.  The last axis of ``rows`` and ``cols`` is the stream
    axis: contributions to one entry are summed in order of their index
    along it, and those with the same index in C order over the leading
    axes.  So a batch sums as the 1-D batch of its triplets in the order
    of ``np.moveaxis(rows, -1, 0).ravel()``; a 1-D batch sums in input
    order.  The ``optv2`` engine passes 1-D element-major streams, and
    ``optv`` and ``optvs`` 1-D batches or, for a vertex pair of a vector
    kernel, broadcast views with one leading axis over component pairs.

    With ``m > 1`` the batch holds m-by-m blocks: ``rows`` and ``cols`` are
    node indices in ``[0, nrows // m)`` and ``[0, ncols // m)``, and
    ``vals`` holds ``m*m`` runs of ``rows.size`` values, one per component
    pair ``(l, n)`` in order ``l*m + n``, each in the C order of ``rows``;
    its entries go to dof ``(m*row + l, m*col + n)``.  ``nrows`` and
    ``ncols`` count dofs and must be multiples of ``m``.
    """

    nrows: int
    ncols: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    m: int = 1

    def __post_init__(self):
        if min(self.nrows, self.ncols) < 0:
            raise ShapeMismatchError(
                f"a {self.nrows}x{self.ncols} matrix has a negative dimension")
        _check_key_range(self.nrows, self.ncols)
        self.m = operator.index(self.m)
        if self.m < 1 or self.nrows % self.m or self.ncols % self.m:
            raise ShapeMismatchError(
                f"a {self.nrows}x{self.ncols} matrix has no {self.m}x{self.m} "
                "blocks"
            )
        # rows and cols keep their (common) shape, so broadcast views are
        # not copied, and their last axis stays the stream axis
        self.rows = _as_index(self.rows, "row")
        self.cols = _as_index(self.cols, "col")
        self.vals = np.asarray(self.vals, dtype=np.float64).ravel()
        if not (self.rows.shape == self.cols.shape
                and self.m * self.m * self.rows.size == self.vals.size):
            raise ShapeMismatchError(
                f"triplet arrays have shapes {self.rows.shape}, "
                f"{self.cols.shape}, {self.vals.shape}"
                + (f" for {self.m}x{self.m} blocks" if self.m > 1 else "")
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


def _heads(starts, a) -> np.ndarray:
    """New array ``a[starts]``.

    A boolean index copies each run of set positions whole: it is
    faster where more than three in four positions are set, as in most
    batches of ``optv`` and ``optvs``, whose keys seldom repeat, and in
    the order-3 mass.  Where the runs are short, as in the P1 ``optv2``
    streams (two in five set in 2D), ``np.compress`` is about 3 times
    faster; it is called chunk by chunk with ``out=``, since one call
    would allocate an index array as long as its result.
    """
    count = np.count_nonzero(starts)
    if 4 * count > 3 * len(a):
        return a[starts]
    out = np.empty(count, dtype=a.dtype)
    at = 0
    for s in range(0, len(a), _CHUNK):
        mask = starts[s:s + _CHUNK]
        count = np.count_nonzero(mask)
        np.compress(mask, a[s:s + _CHUNK], out=out[at:at + count])
        at += count
    return out


def _sort(keys, nkeys: int):
    """Sort the 1-D int64 ``keys`` in ``[0, nkeys)`` stably, in place.

    Returns ``(starts, uniq)``: a bool mask of the first position of each
    run of equal keys in sorted order, and the distinct keys in increasing
    order.  ``keys`` is left holding, in sorted order, the input positions
    ``p`` of a stable sort.

    Each key is packed with its position into one int64 word, ``key <<
    shift | p`` with ``shift = (len(keys) - 1).bit_length()``, in the keys'
    own memory, chunk by chunk.  The words are distinct, so numpy's default
    (unstable, SIMD) sort of them is exactly the stable order of the keys,
    on every platform.  The run starts and the unique keys are read off the
    sorted words, and the words are masked down to positions.  When the
    words would not fit in 63 bits, the run starts and the unique keys are
    read off a sorted copy instead, from a stable argsort of the keys,
    which is written into ``keys``.
    """
    n = len(keys)
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    shift = (n - 1).bit_length()
    if (int(nkeys) - 1).bit_length() + shift > 63:
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        keys[...] = order
        return starts, _heads(starts, ordered)
    for s in range(0, n, _CHUNK):
        words = keys[s:s + _CHUNK]
        words <<= shift
        words += np.arange(s, s + len(words))
    keys.sort()
    # neighbours share a key iff they differ in the position bits only
    for s in range(1, n, _CHUNK):
        e = min(s + _CHUNK, n)
        np.greater_equal(keys[s:e] ^ keys[s - 1:e - 1], 1 << shift,
                         out=starts[s:e])
    uniq = _heads(starts, keys)
    uniq >>= shift
    keys &= (1 << shift) - 1
    return starts, uniq


def _from_keys(nrows, ncols, keys, vals) -> SparseMatrix:
    """Merge triplets given as keys ``row*ncols + col`` into canonical CSR.

    The constructor of canonical matrices from scalar triplets (``add``
    merges two canonical matrices without it).  Assumes indices already
    validated and ``nrows*ncols`` within int64.  ``keys`` and ``vals`` are
    1-D, in stream order.  Sums duplicates in stream order and drops sums
    that are exactly 0.0.  Inputs of exactly 0.0 change no sum: the
    running sums start at +0.0 and are never -0.0, and x + 0.0 is x.
    ``keys`` (int64) and ``vals`` (float64) must be arrays made for this
    call: both are overwritten, and no other array of their length is
    allocated.

    ``_sort`` leaves the stable order's positions in the keys' memory; the
    values are gathered into that memory chunk by chunk, and the group
    numbers of the sum then go into the spent ``vals``.  The sums are laid
    out by ``_pair_matrices``, as one pair of a scalar matrix.
    """
    n = len(vals)
    if n == 0:
        return empty_matrix(nrows, ncols)

    starts, uniq = _sort(keys, int(nrows) * int(ncols))
    # the values in sorted order go into the same memory; each chunk
    # overwrites only the positions it has just read
    for s in range(0, n, _CHUNK):
        keys.view(np.float64)[s:s + _CHUNK] = vals[keys[s:s + _CHUNK]]
    groups = vals.view(np.int64)
    vals = keys.view(np.float64)
    del keys

    # bincount accumulates strictly left-to-right, so duplicates sum in
    # stream order with a reproducible association; cumsum numbers
    # the groups from 1, so slot 0 stays empty
    groups[...] = starts
    np.cumsum(groups, out=groups)
    sums = np.bincount(groups, weights=vals)[1:]
    del groups, vals, starts  # lowers the peak memory of the CSR below
    return _pair_matrices(nrows, ncols, 1, [(0, 0)], uniq, sums[None])[0]


def _from_blocks(nrows, ncols, m, keys, vals) -> SparseMatrix:
    """Canonical CSR from m-by-m blocks keyed by node ``row*(ncols//m) + col``.

    ``keys`` is 1-D, in stream order; ``vals`` holds ``m*m`` runs of
    ``len(keys)`` values, one per component pair ``p = l*m + c``, each in
    the keys' order; the value of pair
    ``(l, c)`` at key ``row*(ncols//m) + col`` goes to dof
    ``(m*row + l, m*col + c)``.  ``_block_sums`` sorts the node keys only
    and sums each component pair per node entry in stream order, so the
    result is bit-identical to ``_from_keys`` on the expanded scalar
    triplets, whose duplicates all come from one pair; ``_put_blocks``
    lays the node entries out.  Sums that are exactly 0.0 are dropped
    afterwards.
    """
    nr, nc = nrows // m, ncols // m
    uniq, sums = _block_sums(keys, nr * nc, vals.reshape(m * m, -1))
    sums = sums.reshape(m, m, -1)
    del keys
    rows = uniq // nc
    uniq -= rows * nc  # now the node columns
    deg = np.bincount(rows, minlength=nr)
    row_ptr = _block_row_ptr(m, deg)
    out = np.empty(row_ptr[-1])
    col_idx = np.empty(len(out), dtype=np.int64)
    # node row i starts at entry cumsum(deg)[i] - deg[i] of uniq
    _put_blocks(out, col_idx, m, row_ptr, np.cumsum(deg) - deg, rows, uniq, sums)
    del rows, uniq, sums
    if not out.all():
        row_ptr, col_idx, out = _drop_zeros(row_ptr, col_idx, out)
    return SparseMatrix(nrows, ncols, row_ptr, col_idx, out)


def _block_sums(keys, nkeys, runs, swap=None, partners=None):
    """``(uniq, sums)`` of a block batch: its distinct node keys in
    increasing order, and the ``(len(runs), len(uniq))`` sums of each
    value run at each of them, leaving out the keys whose sums are all
    exactly 0.0.

    ``keys`` (1-D int64 in ``[0, nkeys)``) is in stream order, and each row
    ``runs[p]`` holds one component pair's values in that order: the
    ``m*m`` pairs of ``_from_blocks``, the pairs that
    ``sparse_from_triplets``' private ``_pairs`` keyword lists, or the
    upper and lower runs of its ``_diagonal`` keyword.  Only the node keys
    are sorted (by ``_sort``, which overwrites ``keys``), once for every
    run; ``runs`` is only read.  The sort leaves the keys' positions in
    sorted order, and the slot at each position, as it stands, gets the
    number of its node entry, so the slots are in stream order.  One
    ``bincount`` per run sums it slot by slot, left to right from +0.0, as
    ``_from_keys`` sums a scalar batch.  With ``swap`` (int64, the keys'
    length, all bits set or none) run ``p`` takes the values of
    ``partners[p]`` where its bits are set, by a bitwise blend of the two,
    ``a ^ ((a ^ b) & swap)``, which moves each value's bits unchanged and,
    unlike a masked copy, does not branch; a run that is its own partner is
    read as it is.  The blend goes into the spent keys, so the slots are
    the only new array of the keys' length.
    """
    n = len(keys)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty((len(runs), 0))
    starts, uniq = _sort(keys, nkeys)
    # the slot at each position gets the group number of its sorted
    # position
    slot = np.empty(n, dtype=np.int64)
    at = np.empty(min(n, _CHUNK), dtype=np.int64)
    group = -1
    for s in range(0, n, _CHUNK):
        e = keys[s:s + _CHUNK]
        buf = at[:len(e)]
        buf[...] = starts[s:s + _CHUNK]  # cumsum of a bool array is slower
        np.cumsum(buf, out=buf)
        buf += group
        group = buf[-1]
        slot[e] = buf
    del e, at, buf, starts

    sums = np.empty((len(runs), len(uniq)))
    for p, run in enumerate(runs):
        if swap is not None and partners[p] is not run:
            bits = run.view(np.int64)
            np.bitwise_xor(bits, partners[p].view(np.int64), out=keys)
            keys &= swap
            keys ^= bits
            run = keys.view(np.float64)
        sums[p] = np.bincount(slot, weights=run)
    # entries whose sums are all 0.0 go here, so that the layout leaves no
    # dropped tail in the result arrays for them
    if not sums.all():
        keep = sums.any(axis=0)
        if not keep.all():
            uniq, sums = uniq[keep], sums[:, keep]
    return uniq, sums


def _pair_matrices(nrows, ncols, m, pairs, uniq, sums) -> list:
    """One canonical nrows-by-ncols scalar matrix per listed component pair:
    the layout of every scalar matrix built from sorted keys.

    ``uniq`` holds node keys ``row*(ncols//m) + col`` in increasing order
    and row ``p`` of ``sums`` the sums of pair ``pairs[p] = (l, c)`` at
    them (``_from_keys`` passes dof keys, m = 1 and the pair ``(0, 0)``);
    the sum at node entry ``(row, col)`` goes to dof ``(m*row + l, m*col +
    c)``.  Those increase row-major as the node keys do, so each matrix is
    the node entries in order, less the exact zeros that ``_drop_zeros``
    drops under the node row pointer, which is then spread over the dof
    rows.  ``uniq`` and ``sums`` are overwritten: the last pair takes the
    decoded node columns and the node row pointer in place (every earlier
    pair a copy), and each matrix keeps its row of ``sums`` as its values.
    """
    nr, nc = nrows // m, ncols // m
    rows = uniq // nc  # a division by one scalar, faster than divmod
    ptr = np.zeros(nr + 1, dtype=np.int64)  # the node row pointer
    np.cumsum(np.bincount(rows, minlength=nr), out=ptr[1:])
    rows *= nc
    uniq -= rows  # now the node columns
    del rows
    out = []
    for p, ((l, c), s) in enumerate(zip(pairs, sums)):
        col, row_ptr = (uniq, ptr) if p == len(pairs) - 1 else (uniq.copy(), ptr.copy())
        if m > 1:
            col *= m
            col += c
        if (s == 0.0).any():
            row_ptr, col, s = _drop_zeros(row_ptr, col, s)
        if m > 1:  # dof row m*i + l holds node row i, the other m - 1 none
            row_ptr = np.repeat(row_ptr, m)[m - 1 - l:nrows + m - l]
        out.append(SparseMatrix(nrows, ncols, row_ptr, col, s))
    return out


def _block_row_ptr(m, deg) -> np.ndarray:
    """The dof row pointer of a matrix of m-by-m blocks whose node row ``i``
    holds ``deg[i]`` node entries: under the interleaved numbering it
    expands to the ``m`` dof rows ``m*i + l`` of ``m*deg[i]`` entries each."""
    row_ptr = np.zeros(m * len(deg) + 1, dtype=np.int64)
    row_ptr[1:].reshape(-1, m)[...] = (m * deg)[:, None]
    np.cumsum(row_ptr, out=row_ptr)
    return row_ptr


def _put_blocks(out, col_idx, m, row_ptr, first, rows, cols, sums, order=None):
    """Write node entries into the CSR arrays of a matrix of m-by-m blocks.

    The ``t``-th entry is entry ``order[t]`` of the node ``rows``, node
    ``cols`` and ``(m, m, len(rows))`` component ``sums`` (entry ``t``
    without ``order``), and ``first[i]`` is the ``t`` of rank 0 in node row
    ``i``.  Pair ``(l, c)`` of the entry of rank ``k`` in node row ``i``
    goes to position ``row_ptr[m*i + l] + m*k + c``, with dof column
    ``m*col + c``; ``row_ptr`` is ``_block_row_ptr``'s.  The entries are
    written chunk by chunk and pair by pair, each pair's positions and
    columns stepped on in place from the last pair's, so no temporary is as
    long as the entries.
    """
    at = row_ptr[:-1:m] - m * first  # pair (0, 0) of entry t = 0, by node row
    # from pair (l, m - 1) to pair (l + 1, 0): the rest of the dof row
    skip = row_ptr[1::m] - row_ptr[:-1:m] - (m - 1) if m > 1 else None
    pairs = [(l, c) for l in range(m) for c in range(m)]
    for s in range(0, len(rows), _CHUNK):
        p = slice(s, s + _CHUNK) if order is None else order[s:s + _CHUNK]
        dst = at[rows[p]]
        dst += np.arange(m * s, m * (s + len(dst)), m)
        # the columns are made after the first values, so that for m == 1
        # two chunk-length temporaries at most are alive at once
        out[dst] = sums[0, 0][p]
        col = m * cols[p] if m > 1 else cols[p]
        col_idx[dst] = col
        for l, c in pairs[1:]:
            if c:
                dst += 1
                col += 1
            else:
                dst += skip[rows[p]]
                col -= m - 1
            col_idx[dst] = col
            out[dst] = sums[l, c][p]
        del dst, col


def _mirror(n, m, uniq, upper, lower, blocks) -> SparseMatrix:
    """The n-by-n matrix of m-by-m blocks whose node entries pair up
    across the diagonal, in canonical CSR; a scalar matrix is the case
    ``m == 1``.

    ``uniq`` holds the upper node entries' keys ``row*(n//m) + col``,
    ``row < col``, in increasing order, as ``_block_sums`` returns them,
    and is overwritten.  ``upper`` holds their ``(m, m, len(uniq))``
    component sums, and ``lower`` those of their mirrors ``(col, row)``:
    pair ``(l, c)`` of ``lower`` goes to dof ``(m*col + l, m*row + c)``.
    ``blocks`` holds the ``(m, m, n//m)`` diagonal blocks.  Node row ``i``
    of the result lists its lower entries (the mirrors of the upper
    entries of column ``i``, in increasing row order from one stable sort
    of the columns), its diagonal block and its upper entries, each placed
    by ``_put_blocks``.  Besides the result and the sums, the node rows,
    columns and column order of the upper entries are the only arrays of
    their length.  Sums that are exactly 0.0, such as the diagonal entries
    of nodes in no element, are dropped afterwards.
    """
    nr = n // m
    rows = uniq // nr
    uniq -= rows * nr
    cols = uniq
    # node row i holds lo[i] lower entries, its diagonal block and up[i]
    # upper entries
    lo = np.bincount(cols, minlength=nr)
    up = np.bincount(rows, minlength=nr)
    row_ptr = _block_row_ptr(m, lo + up + 1)
    out = np.empty(row_ptr[-1])
    col_idx = np.empty(len(out), dtype=np.int64)
    # the upper entries of row i follow its lo[i] + 1 other entries
    _put_blocks(out, col_idx, m, row_ptr, np.cumsum(up) - up - lo - 1,
                rows, cols, upper)
    del up
    # the t-th upper entry in column order, of column c, is the lower entry
    # of rank t minus the upper entries of the columns before c in row c
    _put_blocks(out, col_idx, m, row_ptr, np.cumsum(lo) - lo,
                cols, rows, lower, _stable_order(cols, nr))
    del rows, cols, upper, lower
    # the diagonal block of row i follows its lo[i] lower entries
    nodes = np.arange(nr)
    _put_blocks(out, col_idx, m, row_ptr, nodes - lo, nodes, nodes, blocks)
    del nodes, lo
    if not out.all():
        row_ptr, col_idx, out = _drop_zeros(row_ptr, col_idx, out)
    return SparseMatrix(n, n, row_ptr, col_idx, out)


def _drop_zeros(row_ptr, col_idx, vals):
    """CSR arrays without the entries that are exactly 0.0; ``row_ptr``
    is shifted in place by the number of zeros before each row start.

    Each zero is counted in its row, found by binary search in
    ``row_ptr``, so that no int64 array of the entries' length is made.
    The kept entries are moved to the front of ``col_idx`` and ``vals`` in
    place, chunk by chunk, and the fronts are returned: no new arrays of
    the entries' length are faulted in, and the dropped tail stays
    allocated, 16 bytes per zero.
    """
    keep = vals != 0.0
    # a zero at position p in row r is counted at r + 1
    row_ptr -= np.bincount(
        np.searchsorted(row_ptr, np.flatnonzero(~keep), side="right"),
        minlength=len(row_ptr)).cumsum()
    at = 0
    for s in range(0, len(vals), _CHUNK):
        k = keep[s:s + _CHUNK]
        count = np.count_nonzero(k)
        col_idx[at:at + count] = col_idx[s:s + _CHUNK][k]
        vals[at:at + count] = vals[s:s + _CHUNK][k]
        at += count
    return row_ptr, col_idx[:at], vals[:at]


def _keys(rows, ncols, cols) -> np.ndarray:
    """New 1-D int64 keys ``rows*ncols + cols``, in the C order of
    ``rows``."""
    keys = np.multiply(rows, ncols, order="C")
    keys += cols
    return keys.ravel()


def _upper_keys(rows, n, cols) -> np.ndarray:
    """New int64 keys ``min(rows, cols)*n + max(rows, cols)`` of an n-by-n
    matrix: each triplet keyed by its entry in the upper triangle, in the
    C order of ``rows``.  They are formed in place as
    ``min(rows, cols)*(n - 1) + rows + cols``, which needs no maximum."""
    keys = np.minimum(rows, cols, order="C")
    keys *= n - 1
    keys += rows
    keys += cols
    return keys


def _stable_order(keys, nkeys: int) -> np.ndarray:
    """The positions of the int64 ``keys`` in ``[0, nkeys)`` in stably
    sorted order: one default sort of the distinct words ``key << shift |
    p`` over the positions ``p``, the words of ``_sort``, or a stable
    argsort when the words would not fit in 63 bits.  The
    positions are filled in chunk by chunk, so that the words are the only
    new array of the keys' length."""
    shift = (len(keys) - 1).bit_length()
    if (int(nkeys) - 1).bit_length() + shift > 63:
        return np.argsort(keys, kind="stable")
    order = keys << shift
    for s in range(0, len(order), _CHUNK):
        order[s:s + _CHUNK] += np.arange(s, min(s + _CHUNK, len(order)))
    order.sort()
    order &= (1 << shift) - 1
    return order


def sparse_from_triplets(batch: TripletBatch, *, _diagonal=None,
                         _pairs=None) -> SparseMatrix:
    """Build a canonical sparse matrix from a triplet batch.

    The batch's index arrays are never written.  Its stream axis goes to
    the front, by a transposed view, and the keys are formed there, in
    stream order.  With ``batch.m == 1`` the values are copied in stream
    order for the constructor, which overwrites the copy.  A block batch
    (``m > 1``) is built from its node keys by ``_from_blocks``, which only
    reads the values; a block batch with leading axes gets one copy of
    them in stream order.

    ``_diagonal=(blocks, swapped)`` is private to the ``optv2`` engine: the
    1-D batch then holds the strict upper local vertex pairs ``(a, b)`` of
    a square matrix in stream order, ``blocks`` the summed ``(m, m,
    nrows//m)`` diagonal blocks, and ``swapped`` the values of the swapped
    orientation ``(b, a)`` in the batch's layout, or None for a
    swap-symmetric kernel, whose swapped pair ``(l, c)`` is its pair ``(c,
    l)``.  The batch is keyed by
    its upper node entry and summed by ``_block_sums``, which only reads
    the values: the upper run of pair ``(l, c)`` takes the orientation
    that writes the upper entry, the lower run the other one, blended
    bitwise where the row node is the larger.  A swap-symmetric kernel's
    lower blocks are its upper blocks transposed.  ``_mirror`` lays out
    each node row's lower blocks, diagonal block and upper blocks.  An
    element adds at most one term to each entry, so when ``swapped`` (or,
    without it, each value's swap) holds the values of the swapped pairs,
    the result is bitwise that of the full stream of both triangles and
    the diagonal.  The batch is dropped before the sort and its values
    once the blocks are summed, so a caller that passes them unnamed, as
    the engine does, has the index arrays freed before the sort and the
    rest before the mirror.

    ``_pairs=(m, pairs)`` is private to the ``optv`` and ``optvs`` engine,
    and the call then returns a list: one canonical matrix per listed
    component pair ``(l, c)`` of a matrix of m-by-m blocks.  The
    batch (``m`` unset) has one leading axis over ``pairs``, along which
    its node ``rows`` and ``cols`` repeat one node stream (the engine
    broadcasts ``me[a]`` and ``me[b]``), and ``vals`` holds one run of
    values per listed pair, each in stream order.  Matrix ``p`` is
    bitwise what this function returns for the 1-D dof batch ``(m*rows[p]
    + l, m*cols[p] + c, vals[p])``: ``_block_sums`` sorts the node keys
    once, sums each run per node entry in stream order from +0.0, as the
    scalar constructor does, and ``_pair_matrices`` lays out each pair's
    nonzero sums.  The values are only read.
    """
    m = batch.m if _pairs is None else _pairs[0]
    for name, idx, size in (("row", batch.rows, batch.nrows // m),
                            ("col", batch.cols, batch.ncols // m)):
        # a broadcast view is checked over the elements it stores: every
        # zero-stride axis taken at 0 leaves the same values
        stored = idx
        if idx.size and 0 in idx.strides:
            stored = idx[tuple([0 if s == 0 else slice(None) for s in idx.strides])]
        if stored.size and (stored.min() < 0 or stored.max() >= size):
            pos = int(np.flatnonzero((idx < 0) | (idx >= size))[0])
            raise IndexRangeError(
                f"{name} index {idx.flat[pos]} at triplet {pos} outside [0, {size})"
            )
    del stored, idx  # views, not to be held through the construction
    if _pairs is not None:
        pairs, nr, nc = _pairs[1], batch.nrows // m, batch.ncols // m
        uniq, sums = _block_sums(_keys(batch.rows[0], nc, batch.cols[0]),
                                 nr * nc, batch.vals.reshape(len(pairs), -1))
        return _pair_matrices(batch.nrows, batch.ncols, m, pairs, uniq, sums)
    if _diagonal is not None:
        (blocks, swapped), n, nr = _diagonal, batch.nrows, batch.nrows // m
        keys, swap = _upper_keys(batch.rows, nr, batch.cols), None
        if m > 1 or swapped is not None:
            # cols - rows is negative, so its sign fills all bits, exactly
            # where the row node is the larger: there the swapped
            # orientation writes the upper entry
            swap = np.subtract(batch.cols, batch.rows, order="C")
            swap >>= 63
        runs = list(batch.vals.reshape(m * m, -1))
        # the batch's index arrays are freed here when the caller holds none
        del batch, _diagonal
        if swapped is None:  # a swapped pair (l, c) is the pair (c, l)
            partners = [runs[c * m + l] for l in range(m) for c in range(m)]
        else:  # the lower runs blend the two orientations the other way
            partners = list(swapped.reshape(m * m, -1))
            runs, partners = runs + partners, partners + runs
        del swapped
        uniq, sums = _block_sums(keys, nr * nr, runs, swap, partners)
        del keys, swap, runs, partners
        upper = sums[:m * m].reshape(m, m, len(uniq))
        lower = (sums[m * m:].reshape(m, m, len(uniq)) if len(sums) > m * m
                 else upper.transpose(1, 0, 2))
        return _mirror(n, m, uniq, upper, lower, blocks)
    # the stream axis goes first, where the C order is the stream order:
    # the keys are formed in it, and a scalar batch's values copied in it.
    # The keys are passed on unnamed, so that the constructor can free them
    nd = batch.rows.ndim
    axes = (nd - 1, *range(nd - 1))
    rows, cols = batch.rows.transpose(axes), batch.cols.transpose(axes)
    vals = batch.vals.reshape(m * m, *batch.rows.shape).transpose(0, nd, *range(1, nd))
    if m > 1:
        return _from_blocks(batch.nrows, batch.ncols, m,
                            _keys(rows, batch.ncols // m, cols), vals.reshape(m * m, -1))
    return _from_keys(batch.nrows, batch.ncols, _keys(rows, batch.ncols, cols),
                      vals.flatten())


def _canonical_keys(m: SparseMatrix, name: str) -> np.ndarray:
    """New int64 keys ``row*ncols + col`` of ``m``'s stored entries.

    Raises NonCanonicalMatrixError, naming operand ``name`` and the first
    stored position at fault, unless the keys strictly increase.
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


def _check_no_stored_zero(m: SparseMatrix, name: str) -> None:
    """Raise NonCanonicalMatrixError, naming operand ``name`` and its first
    stored exact 0.0, if it stores one."""
    zero = m.vals == 0.0
    if zero.any():
        pos = int(zero.argmax())
        row = int(np.searchsorted(m.row_ptr, pos, side="right")) - 1
        raise NonCanonicalMatrixError(
            f"operand {name}: stored entry {pos} (row {row}, "
            f"col {m.col_idx[pos]}) is an exact zero"
        )


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
    increase.  The merged values are checked for exact zeros in one pass;
    when they hold one, an operand that stores an exact 0.0 raises
    NonCanonicalMatrixError (``b`` checked first) and the cancelled sums
    are dropped.  A stored 0.0 that meets a nonzero value of the other
    operand leaves no zero in the sum and, with no other zero there,
    passes: that sum is the other operand's value, exactly.  The result
    never shares memory with an operand.
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

    # one pass finds every zero of the sum; only then are stored zeros told
    # from cancellations
    if (vals == 0.0).any():
        _check_no_stored_zero(b, "b")
        _check_no_stored_zero(a, "a")
        row_ptr, col_idx, vals = _drop_zeros(row_ptr, col_idx, vals)
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
# MatrixMarket coordinate I/O (real general or symmetric, one-based indices
# on disk)

_MM_HEADER = "%%MatrixMarket matrix coordinate real "


def _lower_if_symmetric(a: SparseMatrix) -> np.ndarray | None:
    """Mask of the entries with row >= col if ``a`` is square and equals its
    transpose bit for bit (same pattern, same value bits), else None.

    No transpose is built.  The entries strictly above the diagonal must
    be as many as those strictly below, and the mirror ``(col, row)`` of
    each one above is looked up among ``a``'s increasing row-major keys
    ``row*n + col`` by binary search, chunk by chunk, and its value bits
    compared.  Distinct entries have distinct mirrors, so when every
    mirror is found the mirrors are exactly the entries below, and each
    mirror pair is searched once.  Besides the keys, the mask and the
    positions above, only chunk-sized temporaries are held; a first chunk
    that fails ends the check.
    """
    n = a.ncols
    if a.nrows != n:
        return None
    keys = a.row_indices()  # the rows, until the keys are built in place
    lower = keys >= a.col_idx
    upper = np.flatnonzero(~lower)
    if np.count_nonzero(keys > a.col_idx) != len(upper):
        return None
    keys *= n
    keys += a.col_idx
    bits = a.vals.view(np.int64)
    for s in range(0, len(upper), _CHUNK):
        at = upper[s:s + _CHUNK]
        mirror = a.col_idx[at] * n
        mirror += keys[at] // n
        found = np.searchsorted(keys, mirror)
        np.minimum(found, a.nnz - 1, out=found)
        if not (np.array_equal(keys[found], mirror)
                and np.array_equal(bits[found], bits[at])):
            return None
    return lower


def write_matrixmarket(a: SparseMatrix, path) -> None:
    """Write ``a`` as a MatrixMarket coordinate file, one ``%d %d %.17g``
    line per entry in row-major order, so that reading it back is exact.

    A square matrix that equals its transpose bit for bit is written
    ``symmetric``: only its entries with row >= col are stored, and the
    size line counts those.  Any other matrix is written ``general``, with
    every entry.  The symmetry check's temporaries are freed before the
    lines are formatted.  The lines come from ``_write_lines``, which
    formats each distinct value of a chunk once where values repeat, as
    in the order-k mass; the bytes are those of one ``%`` per line.
    """
    lower = _lower_if_symmetric(a)
    rows = a.row_indices()
    if lower is None:
        kind, cols, vals = "general", a.col_idx + 1, a.vals
    else:
        kind, rows = "symmetric", rows[lower]
        cols, vals = a.col_idx[lower], a.vals[lower]
        cols += 1
        del lower
    rows += 1
    with open(path, "w") as f:
        f.write(_MM_HEADER + kind + "\n")
        f.write(f"{a.nrows} {a.ncols} {len(vals)}\n")
        _write_lines(f, rows, cols, vals)


# Lines per string that the writers format.  The pipeline's tracemalloc
# peak sets it, since a chunk's strings, Python objects and dedupe arrays
# are alive at once: on ``pk3-file-roundtrip``'s order-3 mass file,
# 8,192-line chunks put that peak at 6.48 MiB and 4,096-line chunks at
# 5.59 MiB, against 6.08 MiB for 8,192 lines of one ``%`` each.  The
# per-chunk overhead is still negligible.
_WRITE_CHUNK = 4096


def _write_lines(f, *columns) -> None:
    """Write one line per row of the equal-length 1-D ``columns``, its
    fields joined by single spaces and ended by a newline: ``%d`` for an
    integer column, ``%.17g`` for a float64 one, so that reading the line
    back is exact.

    The rows are formatted ``_WRITE_CHUNK`` at a time by one ``%``: the
    chunk's fields, interleaved row by row into one tuple, fill the line
    format repeated once per row.  In a chunk where at least one float
    value in four repeats, as in the order-k mass, whose entries take the
    values of one shared table times each element's volume, each float
    column goes through ``np.unique`` on its bit patterns, so that 0.0 and
    -0.0 and NaNs of different payloads stay apart; each distinct value is
    formatted once and its text gathered into the lines through ``%s``.
    The bytes are those of one ``%`` per line.  Measured on 4,096-line
    chunks of ``%d %d %.17g`` lines, formatted one line at a time, the
    gathering takes about half the time of formatting every float with
    one value in ten distinct, breaks even at about three distinct values
    in four and is about 15% slower with all distinct, so a chunk with
    fewer repeats formats every float.  Counting a chunk's distinct values
    takes one sort per float column, about 1% of formatting a 4,096-line
    chunk.
    """
    floats = [c.dtype.kind == "f" for c in columns]
    plain = " ".join("%.17g" if x else "%d" for x in floats) + "\n"
    gathered = plain.replace("%.17g", "%s")
    for s in range(0, len(columns[0]), _WRITE_CHUNK):
        chunk = [c[s:s + _WRITE_CHUNK] for c in columns]
        bits = [np.sort(c.view(np.int64)) for c, x in zip(chunk, floats) if x]
        distinct = sum(1 + np.count_nonzero(b[1:] != b[:-1]) for b in bits)
        if 4 * distinct > 3 * len(bits) * len(chunk[0]):
            fmt, fields = plain, [c.tolist() for c in chunk]
        else:
            fmt = gathered
            fields = [_texts(c) if x else c.tolist()
                      for c, x in zip(chunk, floats)]
        flat = [None] * (len(fields) * len(fields[0]))
        for k, field in enumerate(fields):
            flat[k::len(fields)] = field
        f.write((fmt * len(fields[0])) % tuple(flat))


def _texts(values) -> list:
    """``"%.17g" % v`` for each float64 of ``values``, formatting each
    distinct bit pattern once."""
    uniq, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = list(map("%.17g".__mod__, uniq.view(np.float64).tolist()))
    return np.array(texts, dtype=object)[inverse].tolist()


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
    """Read a MatrixMarket ``coordinate real`` file, ``general`` or
    ``symmetric``, as written by ``write_matrixmarket``.

    The banner's object, format, field and symmetry words match in any
    case, as ``scipy.io.mmread`` reads them.  ``%`` comment lines and
    blank lines may sit anywhere after the header.
    A ``symmetric`` file must have a square size line and store no entry
    above the diagonal; each off-diagonal entry is mirrored, with the same
    value bits.  Duplicates are summed in order of appearance, a symmetric
    file's mirrored entries after the stored ones.  A malformed file raises
    MatrixFormatError naming the path, and the entry where there is one.
    """
    with open(path) as f:
        header = f.readline().strip()
        fields = header.split()
        fields[1:] = [w.lower() for w in fields[1:]]
        if fields[:-1] != _MM_HEADER.split() or fields[-1] not in (
                "general", "symmetric"):
            raise MatrixFormatError(f"{path}: unsupported header {header!r}")
        symmetric = fields[-1] == "symmetric"
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
        if symmetric and nrows != ncols:
            raise MatrixFormatError(
                f"{path}: symmetric matrix with non-square size line "
                f"{line.strip()!r}"
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
    if symmetric:
        above = i < j
        if above.any():
            pos = int(np.flatnonzero(above)[0])
            raise MatrixFormatError(
                f"{path}: entry {pos}: one-based index ({i[pos]}, {j[pos]}) "
                "above the diagonal of a symmetric matrix"
            )
        off = i != j
        keys = np.concatenate([keys, (j[off] - 1) * ncols + (i[off] - 1)])
        vals = np.concatenate([vals, vals[off]])
        del above, off
    del entries, i, j, bad
    return _from_keys(nrows, ncols, keys, vals)
