"""Independent reference computations used to check the library.

Nothing in here shares code with the assembly paths: integrals come from
mapped product Gauss quadrature, global matrices from naive dense triple
loops, gradients from one big block-diagonal sparse solve, and strains
from the textbook definition.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse
import scipy.sparse.linalg


def simplex_quadrature(d: int, npts: int):
    """Product Gauss rule collapsed onto the reference d-simplex.

    Returns (points, weights) with points of shape (npts**d, d); the
    weights sum to the reference volume 1/d!.  Exact for polynomials of
    total degree <= 2*npts - d on the simplex.
    """
    x, w = np.polynomial.legendre.leggauss(npts)
    x = (x + 1.0) / 2.0
    w = w / 2.0
    axes = np.meshgrid(*([x] * d), indexing="ij")
    ts = np.stack([a.ravel() for a in axes], axis=1)      # (N, d) in [0,1]^d
    weights = np.prod(np.meshgrid(*([w] * d), indexing="ij"), axis=0).ravel()

    pts = np.empty_like(ts)
    remaining = np.ones(len(ts))
    for i in range(d):
        pts[:, i] = ts[:, i] * remaining
        weights *= remaining
        remaining = remaining - pts[:, i]
    return pts, weights


def barycentric_at(vertices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of physical points w.r.t. a simplex.

    vertices is (d, d+1) (one vertex per column), points is (N, d); the
    result is (d+1, N), solved from the affine interpolation system.
    """
    d = vertices.shape[0]
    system = np.vstack([np.ones((1, d + 1)), vertices])
    rhs = np.vstack([np.ones((1, len(points))), points.T])
    return np.linalg.solve(system, rhs)


def integrate_bary_monomial(vertices: np.ndarray, exponents, npts: int = 6) -> float:
    """Quadrature value of the barycentric monomial over a physical simplex."""
    d = vertices.shape[0]
    ref_pts, ref_w = simplex_quadrature(d, npts)
    origin = vertices[:, 0]
    edge = vertices[:, 1:] - origin[:, None]
    phys = origin[None, :] + ref_pts @ edge.T
    scale = abs(np.linalg.det(edge))            # volume ratio to the reference
    lam = barycentric_at(vertices, phys)
    vals = np.ones(len(ref_w))
    for i, e in enumerate(exponents):
        vals *= lam[i] ** e
    return float(np.dot(ref_w, vals) * scale)


def dense_assembly_scalar(mesh, kernel) -> np.ndarray:
    out = np.zeros((mesh.nq, mesh.nq))
    dp1 = mesh.d + 1
    for k in range(mesh.nme):
        for alpha in range(dp1):
            for beta in range(dp1):
                out[mesh.me[alpha, k], mesh.me[beta, k]] += kernel.single(alpha, beta, k)
    return out


def dense_assembly_vector(mesh, kernel) -> np.ndarray:
    m = kernel.m
    out = np.zeros((m * mesh.nq, m * mesh.nq))
    dp1 = mesh.d + 1
    for k in range(mesh.nme):
        for l in range(m):
            for n in range(m):
                for alpha in range(dp1):
                    r = m * mesh.me[alpha, k] + l
                    for beta in range(dp1):
                        s = m * mesh.me[beta, k] + n
                        out[r, s] += kernel.single(l, alpha, n, beta, k)
    return out


def scipy_coo_to_csr(nrows, ncols, rows, cols, vals):
    """scipy's COO->CSR of the triplets: duplicates summed, exact zeros
    eliminated, column indices sorted."""
    csr = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(nrows, ncols)).tocsr()
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    return csr


def voigt_strain_basis(component: int, grad: np.ndarray) -> np.ndarray:
    """Voigt strain of the field (barycentric basis function) * e_component,
    built from the symmetric-gradient definition."""
    d = len(grad)
    jac = np.zeros((d, d))
    jac[component, :] = grad
    eps = 0.5 * (jac + jac.T)
    if d == 2:
        return np.array([eps[0, 0], eps[1, 1], 2 * eps[0, 1]])
    return np.array([eps[0, 0], eps[1, 1], eps[2, 2],
                     2 * eps[0, 1], 2 * eps[1, 2], 2 * eps[0, 2]])


def elasticity_matrix(d: int, lamb: float, mu: float) -> np.ndarray:
    """Isotropic elasticity matrix in Voigt form, built blockwise."""
    nv = 3 * (d - 1)
    c = np.zeros((nv, nv))
    c[:d, :d] = lamb
    c[:d, :d] += 2.0 * mu * np.eye(d)
    c[d:, d:] = mu * np.eye(nv - d)
    return c


def gradients_via_block_solve(mesh) -> np.ndarray:
    """Basis gradients from one block-diagonal sparse system covering all
    elements at once (the all-at-once alternative to per-element solves)."""
    d, nme = mesh.d, mesh.nme
    rows, cols, vals = [], [], []
    base = d * np.arange(nme)
    for i in range(d):
        for j in range(d):
            vals.append(mesh.q[i, mesh.me[j + 1]] - mesh.q[i, mesh.me[0]])
            rows.append(base + j)
            cols.append(base + i)
    system = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(d * nme, d * nme),
    )
    ref = np.hstack([-np.ones((d, 1)), np.eye(d)])
    rhs = np.tile(ref, (nme, 1))
    flat = scipy.sparse.linalg.spsolve(system.tocsc(), rhs)
    return np.asarray(flat).reshape(nme, d, d + 1).transpose(0, 2, 1)


def rigid_body_modes(mesh, m: int) -> list[np.ndarray]:
    """Nodal samples of the d translations and d(d-1)/2 linearized
    rotations, interleaved component-major per node."""
    d = mesh.d
    assert m == d
    modes = []
    for l in range(d):
        u = np.zeros(d * mesh.nq)
        u[l::d] = 1.0
        modes.append(u)
    for i in range(d):
        for j in range(i + 1, d):
            u = np.zeros(d * mesh.nq)
            u[i::d] = -mesh.q[j]
            u[j::d] = mesh.q[i]
            modes.append(u)
    return modes
