"""Checks on produced matrices, written against the CSR arrays alone.

None of these calls back into simplex_asm: structure, symmetry, products
and differences are computed here with numpy, so a defect in the package's
own sparse algebra cannot hide a defect in its output.  Every check returns
a list of failure messages; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np

CROSS_RTOL = 1e-12   # the package's cross-strategy gate
IDENTITY_RTOL = 1e-10


def entries(a):
    """(rows, cols, vals) of a CSR matrix."""
    rows = np.repeat(np.arange(a.nrows, dtype=np.int64), np.diff(a.row_ptr))
    return rows, a.col_idx, a.vals


def keys(a) -> np.ndarray:
    rows, cols, _ = entries(a)
    return rows * a.ncols + cols


def canonical(a, label: str) -> list[str]:
    """Sorted, in-range column indices per row, no stored zeros, finite."""
    rp, ci, va = a.row_ptr, a.col_idx, a.vals
    if rp.shape != (a.nrows + 1,) or rp[0] != 0 or rp[-1] != len(va):
        return [f"{label}: row pointer does not span the {len(va)} entries"]
    if len(ci) != len(va):
        return [f"{label}: {len(ci)} column indices for {len(va)} values"]
    if np.any(np.diff(rp) < 0):
        return [f"{label}: row pointer decreases"]
    fails = []
    if len(ci) and (ci.min() < 0 or ci.max() >= a.ncols):
        fails.append(f"{label}: column index outside [0, {a.ncols})")
    rows, _, _ = entries(a)
    same_row = rows[1:] == rows[:-1]
    if np.any(np.diff(ci)[same_row] <= 0):
        fails.append(f"{label}: columns not strictly increasing within a row")
    if np.any(va == 0.0):
        fails.append(f"{label}: stored zero")
    if not np.all(np.isfinite(va)):
        fails.append(f"{label}: non-finite value")
    return fails


def max_abs(a) -> float:
    return float(np.abs(a.vals).max()) if len(a.vals) else 0.0


def max_diff(a, b) -> float:
    """max |a_ij - b_ij| over the union of both patterns."""
    ka, kb = keys(a), keys(b)
    if np.array_equal(ka, kb):
        return float(np.abs(a.vals - b.vals).max()) if len(ka) else 0.0
    union = np.union1d(ka, kb)
    va = np.zeros(len(union))
    vb = np.zeros(len(union))
    va[np.searchsorted(union, ka)] = a.vals
    vb[np.searchsorted(union, kb)] = b.vals
    return float(np.abs(va - vb).max())


def symmetric(a, label: str, rtol: float = CROSS_RTOL) -> list[str]:
    if a.nrows != a.ncols:
        return [f"{label}: not square"]
    rows, cols, vals = entries(a)
    tkeys = cols * a.ncols + rows
    order = np.argsort(tkeys, kind="stable")
    if not np.array_equal(rows * a.ncols + cols, tkeys[order]):
        return [f"{label}: pattern not symmetric"]
    err = float(np.abs(vals - vals[order]).max()) if len(vals) else 0.0
    if err > rtol * max_abs(a):
        return [f"{label}: asymmetry {err:.3e} above {rtol:g} x max|a|"]
    return []


def matvec(a, x: np.ndarray) -> np.ndarray:
    rows, cols, vals = entries(a)
    return np.bincount(rows, weights=vals * x[cols], minlength=a.nrows)


def abs_matvec(a, x: np.ndarray) -> np.ndarray:
    rows, cols, vals = entries(a)
    return np.bincount(rows, weights=np.abs(vals * x[cols]), minlength=a.nrows)


def near(value: float, expected: float, label: str,
         rtol: float = IDENTITY_RTOL) -> list[str]:
    if abs(value - expected) > rtol * max(abs(expected), 1.0):
        return [f"{label}: {value!r} differs from {expected!r} (rtol {rtol:g})"]
    return []


def null_vector(a, x: np.ndarray, label: str,
                rtol: float = IDENTITY_RTOL) -> list[str]:
    """A x = 0 relative to the size of the terms that cancel."""
    res = float(np.abs(matvec(a, x)).max())
    scale = float(abs_matvec(a, x).max())
    if res > rtol * scale:
        return [f"{label}: |A x| = {res:.3e} against term scale {scale:.3e}"]
    return []


def cross_gate(mats: dict, label: str) -> list[str]:
    """Every pair of strategies agrees to CROSS_RTOL x the largest entry."""
    names = list(mats)
    scale = max(max_abs(m) for m in mats.values())
    fails = []
    for i, p in enumerate(names):
        for q in names[i + 1:]:
            if mats[p].shape != mats[q].shape:
                fails.append(f"{label}: {p} and {q} differ in shape")
                continue
            diff = max_diff(mats[p], mats[q])
            if diff > CROSS_RTOL * scale:
                fails.append(f"{label}: {p} vs {q} differ by {diff:.3e} "
                             f"(gate {CROSS_RTOL * scale:.3e})")
    return fails


def identical(a, b, label: str) -> list[str]:
    """Bit-identical CSR arrays."""
    same = (a.shape == b.shape
            and np.array_equal(a.row_ptr, b.row_ptr)
            and np.array_equal(a.col_idx, b.col_idx)
            and np.array_equal(a.vals.view(np.int64), b.vals.view(np.int64)))
    return [] if same else [f"{label}: matrix read back differs from the one written"]


def simplex_volumes(q: np.ndarray, me: np.ndarray) -> np.ndarray:
    """Signed volumes det(edges) / d! from the raw arrays."""
    d = q.shape[0]
    edges = np.moveaxis(q[:, me[1:]] - q[:, me[0]][:, None, :], 2, 0)
    if d == 2:
        det = edges[:, 0, 0] * edges[:, 1, 1] - edges[:, 0, 1] * edges[:, 1, 0]
    else:
        det = np.linalg.det(edges)
    return det / math.factorial(d)
