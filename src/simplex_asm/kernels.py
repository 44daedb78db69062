"""Per-element mathematics for P1 assembly and the Pk mass extension.

Everything here is a pure function of immutable inputs.  Each local-entry
formula is written once and evaluated two ways: by a kernel's ``batched``
method on whole-mesh arrays, one value per element, and by its ``single``
method on one element's Python floats, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import RangeGuardError
from .mesh import Mesh, PkMesh, multi_index_lattice, simplex_geometry


def barycentric_moment(d: int, vol: float, exponents) -> float:
    """Integral of a barycentric monomial over a d-simplex of volume vol.

    With exponents (n_1, ..., n_{d+1}) the value is
    d! * vol * (prod n_i!) / (d + sum n_i)!.  Factorials are evaluated over
    exact integers, which restricts d + sum(n_i) to at most 20.
    """
    exponents = tuple(int(e) for e in exponents)
    if len(exponents) != d + 1:
        raise ValueError(f"expected {d + 1} exponents, got {len(exponents)}")
    if any(e < 0 for e in exponents):
        raise ValueError(f"exponents must be nonnegative, got {exponents}")
    total = sum(exponents)
    if d + total > 20:
        raise RangeGuardError(
            f"d + sum(exponents) = {d + total} exceeds the exact-factorial range (20)"
        )
    return vol * float(math.factorial(d) * _moment_fraction(d, exponents))


def compute_gradients(mesh: Mesh) -> np.ndarray:
    """Gradients of the local basis functions on every element.

    Returns grads with shape (nme, d+1, d) where grads[k, a, :] is the
    (constant) gradient of the a-th barycentric coordinate on element k.
    It is a view of the component-major (d+1, d, nme) array of
    ``simplex_geometry``: closed-form cofactors over the determinant for
    d <= 3, a solve of B_k^t G_k = [-1 | I_d] for d > 3.  Raises
    DegenerateSimplexError naming the first element of zero volume.
    """
    _, grads = simplex_geometry(mesh.q, mesh.me, gradients=True)
    return grads.transpose(2, 0, 1)


def _mass_entry(alpha, beta, W, wsum, vol):
    """(alpha, beta) entry of the local weighted mass matrix, with W[a] the
    weight at local vertex a (d + 1 of them) and wsum their sum.

    ``W[alpha] + W[beta]`` is added to ``wsum`` as one term, so that the
    (alpha, beta) and (beta, alpha) entries round alike and the matrix is
    exactly symmetric."""
    nv = len(W)
    coef = (2.0 if alpha == beta else 1.0) / (nv * (nv + 1) * (nv + 2))
    return coef * vol * (wsum + (W[alpha] + W[beta]))


def _stiffness_entry(alpha, beta, G, vol):
    """(alpha, beta) entry vol * <grad phi_beta, grad phi_alpha>, with G[a][i]
    component i of grad phi_a (arrays over the elements, or floats).

    The sum starts at its first product, not at 0.0 (see ``_add_term``)."""
    ga, gb = G[alpha], G[beta]
    acc = gb[0] * ga[0]
    for i in range(1, len(ga)):
        acc += gb[i] * ga[i]
    return acc * vol


def mass_kernel(alpha: int, beta: int, mesh: Mesh,
                W: np.ndarray, wsum: np.ndarray) -> np.ndarray:
    """Batched (alpha, beta) entries of the local weighted mass matrix.

    W holds the nodal weight values per element, W[a, k] = w(vertex a of
    element k), and wsum its column sums.  The weight is integrated through
    its nodal interpolant, which is exact for affine weights.
    """
    return _mass_entry(alpha, beta, W, wsum, mesh.vols)


def stiffness_kernel(alpha: int, beta: int, grads: np.ndarray,
                     vols: np.ndarray) -> np.ndarray:
    """Batched (alpha, beta) entries |K| <grad phi_beta, grad phi_alpha>."""
    return _stiffness_entry(alpha, beta, grads.transpose(1, 2, 0), vols)


# ---------------------------------------------------------------------------
# Linear elasticity tables


@dataclass(frozen=True, eq=False)
class ElasticTables:
    """Constant matrices that reduce the elastic bilinear form to weighted
    gradient products.

    Bl[l] maps a basis gradient to the Voigt strain of that basis function
    times the l-th coordinate direction.  C0 and C1 split the isotropic
    elasticity matrix as C = lamb*C0 + mu*C1, and Q[n][l] = Bl[n]^t C0 Bl[l],
    S[n][l] = Bl[n]^t C1 Bl[l].
    """

    d: int
    Bl: tuple
    C0: np.ndarray
    C1: np.ndarray
    Q: tuple
    S: tuple


def build_elastic_tables(d: int) -> ElasticTables:
    if d not in (2, 3):
        raise ValueError(f"elastic tables are defined for d in {{2, 3}}, got {d}")
    nv = 3 * (d - 1)  # Voigt length
    shear_pairs = [(0, 1)] if d == 2 else [(0, 1), (1, 2), (0, 2)]

    bls = []
    for l in range(d):
        b = np.zeros((nv, d))
        b[l, l] = 1.0
        for row, (i, j) in enumerate(shear_pairs, start=d):
            if l == i:
                b[row, j] = 1.0
            elif l == j:
                b[row, i] = 1.0
        bls.append(b)

    c0 = np.zeros((nv, nv))
    c0[:d, :d] = 1.0
    c1 = np.eye(nv)
    c1[:d, :d] *= 2.0

    q = tuple(tuple(bls[n].T @ c0 @ bls[l] for l in range(d)) for n in range(d))
    s = tuple(tuple(bls[n].T @ c1 @ bls[l] for l in range(d)) for n in range(d))
    return ElasticTables(d, tuple(bls), c0, c1, q, s)


def _add_term(acc, c, p):
    """``acc + c*p``, with no multiplication when ``c`` is 1.0 and no
    addition when ``acc`` is None (no term yet).

    Against a sum that starts at 0.0 and multiplies every term, this saves
    whole-mesh array operations and changes no bits except the sign of an
    exactly zero result, which may now be -0.0.  The sparse constructor's
    sums start at +0.0 and drop exact zeros, so no assembled matrix
    changes.
    """
    t = p if c == 1.0 else c * p
    return t if acc is None else acc + t


def _elastic_entry(l, alpha, n, beta, Q, S, G, lamb, mu):
    """lamb <grad phi_beta, Q[n][l] grad phi_alpha> + mu (the same with
    S[n][l]), forming each gradient product once, skipping zero entries.

    Each of the two sums starts at its first term and a table entry of 1.0
    multiplies nothing (``_add_term``); in 3D that is 57 whole-mesh array
    operations per vertex pair instead of 96.  A table with no entry for
    the pair adds nothing, as the zero S table of ``dot_mat_vec_g``.
    """
    qmat, smat = Q[n][l], S[n][l]
    acc_q = acc_s = None
    for i, ga_i in enumerate(G[alpha]):
        for j, gb_j in enumerate(G[beta]):
            qji, sji = qmat[j][i], smat[j][i]
            if qji or sji:
                p = ga_i * gb_j
                if qji:
                    acc_q = _add_term(acc_q, qji, p)
                if sji:
                    acc_s = _add_term(acc_s, sji, p)
    out = 0.0 * lamb if acc_q is None else lamb * acc_q
    return out if acc_s is None else out + mu * acc_s


def dot_mat_vec_g(A: np.ndarray, grads: np.ndarray,
                  alpha: int, beta: int) -> np.ndarray:
    """Batched <grad phi_beta, A grad phi_alpha> for an element-independent
    d-by-d matrix A: the elastic formula with unit lamb and zero mu table."""
    return _elastic_entry(0, alpha, 0, beta, [[A]], [[np.zeros_like(A)]],
                          grads.transpose(1, 2, 0), np.ones(len(grads)), 0.0)


def elastic_kernel(l: int, alpha: int, n: int, beta: int,
                   tables: ElasticTables, grads: np.ndarray,
                   lambs: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """Batched local elastic stiffness entries for component pair (l, n)
    and vertex pair (alpha, beta).

    lambs and mus must hold the element averages of the Lame fields already
    scaled by vols/(d+1), i.e. lambs[k] = vols[k]/(d+1) * sum of lamb at the
    vertices of element k.

    The tables enter as Q[n][l] / S[n][l]: the strain of the row basis
    function (component l) sits on the right of the elasticity matrix, the
    column one (component n) on the left.  With spatially varying Lame
    fields the transposed pairing would assemble a different (wrong)
    matrix; the rigid-mode tests catch that.
    """
    return _elastic_entry(l, alpha, n, beta, tables.Q, tables.S,
                          grads.transpose(1, 2, 0), lambs, mus)


# ---------------------------------------------------------------------------
# Pk mass coefficients

_moment_cache: dict[tuple[int, tuple[int, ...]], Fraction] = {}


def _moment_fraction(d: int, exponents: tuple[int, ...]) -> Fraction:
    """(prod n_i!) / (d + sum n_i)! as an exact rational."""
    key = (d, tuple(sorted(exponents)))
    hit = _moment_cache.get(key)
    if hit is None:
        num = math.prod(math.factorial(e) for e in exponents)
        hit = Fraction(num, math.factorial(d + sum(exponents)))
        _moment_cache[key] = hit
    return hit


def _basis_polynomial(alpha: tuple[int, ...], k: int) -> dict:
    """Monomial expansion of the lattice basis function for multi-index
    alpha, as a map from exponent tuples to rational coefficients.

    The basis function is the product over slots l of
    (k*x_l)(k*x_l - 1)...(k*x_l - alpha_l + 1) / alpha_l!  evaluated in the
    barycentric variables, which is 1 at the lattice point alpha/k and 0 at
    every other lattice point.
    """
    d1 = len(alpha)
    poly = {(0,) * d1: Fraction(1)}
    for slot in range(d1):
        for j in range(alpha[slot]):
            lin = Fraction(k, j + 1)
            const = Fraction(-j, j + 1)
            new: dict = {}
            for mu, c in poly.items():
                up = mu[:slot] + (mu[slot] + 1,) + mu[slot + 1:]
                new[up] = new.get(up, Fraction(0)) + c * lin
                if j:
                    new[mu] = new.get(mu, Fraction(0)) + c * const
            poly = new
    return poly


@dataclass(frozen=True, eq=False)
class PkCoeffTable:
    """Element-independent mass coefficients for the order-k lattice basis.

    The local mass matrix of any d-simplex K is d! * |K| * C in the lattice
    ordering given by `lattice` (the index map: local index -> multi-index).
    C is exact-rational arithmetic rounded once to float; the unrounded
    values are kept in `exact`.
    """

    d: int
    k: int
    ndfe: int
    lattice: tuple
    C: np.ndarray
    exact: tuple


def pk_mass_coeffs(d: int, k: int) -> PkCoeffTable:
    """Coefficient table such that the local mass matrix is d!*|K|*C."""
    if not 1 <= d <= 3:
        raise RangeGuardError(f"mass coefficients support 1 <= d <= 3, got d={d}")
    if not 1 <= k <= 6:
        raise RangeGuardError(f"mass coefficients support 1 <= k <= 6, got k={k}")
    lattice = multi_index_lattice(d, k)
    polys = [list(_basis_polynomial(a, k).items()) for a in lattice]
    ndfe = len(lattice)
    exact = [[Fraction(0)] * ndfe for _ in range(ndfe)]
    for a in range(ndfe):
        for b in range(a, ndfe):
            total = Fraction(0)
            for mu, cmu in polys[a]:
                for nu, cnu in polys[b]:
                    merged = tuple(m + v for m, v in zip(mu, nu))
                    total += cmu * cnu * _moment_fraction(d, merged)
            exact[a][b] = exact[b][a] = total
    cfloat = np.array([[float(x) for x in row] for row in exact])
    return PkCoeffTable(d, k, ndfe, tuple(lattice), cfloat,
                        tuple(tuple(row) for row in exact))


# ---------------------------------------------------------------------------
# Kernel objects consumed by the assembly drivers
#
# A scalar kernel exposes `batched(alpha, beta) -> (nme,)`,
# `single(alpha, beta, k) -> float` and a `symmetric` flag; a vector kernel
# takes (l, alpha, n, beta) and carries the system size `m`, by which the
# engine tells the two apart.  Both evaluate the kernel's one entry formula:
# `batched` through the module function on whole-mesh arrays (gradients as
# the (d+1, d, nme) view G[a][i] = grads[:, a, i]), `single` on `_flat[k]`,
# element k's values as Python lists and floats.  Coefficient functions are
# evaluated at the mesh nodes once, here, so the evaluators are pure array
# transforms.
#
# `symmetric = True` promises bitwise swap symmetry: `batched(a, b)` equals
# `batched(b, a)` bit for bit, and for a vector kernel `batched(l, a, n, b)`
# equals `batched(n, b, l, a)`.  `optvs` needs the flag, and `optv2` reads
# it to spare the evaluations of the swapped vertex pairs (b, a) and of
# the diagonal component pairs l > n, which then keeps the bits of the
# kernel without the flag only under this promise.  Every kernel here
# keeps it (the mass adds `W[alpha] + W[beta]` as one term for this), as
# the swap-symmetry test in `tests/test_kernels.py` checks.


def _nodal_values(value, q: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient at all nodes: accepts a constant or a callable
    mapping the (d, nq) coordinate array to nq values.  Non-finite values
    are rejected, naming the first node that has one."""
    if callable(value):
        out = np.asarray(value(q), dtype=np.float64)
        if out.shape != (q.shape[1],):
            raise ValueError(
                f"coefficient returned shape {out.shape}, expected ({q.shape[1]},)"
            )
    else:
        out = np.full(q.shape[1], float(value))
    finite = np.isfinite(out)
    if not finite.all():
        node = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"coefficient value {out[node]} at node {node} is not finite")
    return out


class MassKernel:
    """Weighted mass entries with the weight interpolated at the vertices."""

    symmetric = True

    def __init__(self, mesh: Mesh, weight=1.0):
        self.mesh = mesh
        nodal = _nodal_values(weight, mesh.q)
        self.W = nodal[mesh.me]
        self.wsum = self.W.sum(axis=0)

    def batched(self, alpha: int, beta: int) -> np.ndarray:
        return mass_kernel(alpha, beta, self.mesh, self.W, self.wsum)

    @cached_property
    def _flat(self):
        return list(zip(self.W.T.tolist(), self.wsum.tolist(),
                        self.mesh.vols.tolist()))

    def single(self, alpha: int, beta: int, k: int) -> float:
        W, wsum, vol = self._flat[k]
        return _mass_entry(alpha, beta, W, wsum, vol)


class StiffnessKernel:
    """Gradient-product entries of the scalar stiffness matrix."""

    symmetric = True

    def __init__(self, mesh: Mesh):
        self.vols = mesh.vols
        self.grads = compute_gradients(mesh)

    def batched(self, alpha: int, beta: int) -> np.ndarray:
        return stiffness_kernel(alpha, beta, self.grads, self.vols)

    @cached_property
    def _flat(self):
        return list(zip(self.grads.tolist(), self.vols.tolist()))

    def single(self, alpha: int, beta: int, k: int) -> float:
        G, vol = self._flat[k]
        return _stiffness_entry(alpha, beta, G, vol)


class ElasticKernel:
    """Isotropic elastic stiffness entries; system size m = d.

    The Lame parameters may vary over the domain; they are interpolated at
    the vertices and averaged per element.
    """

    symmetric = True

    def __init__(self, mesh: Mesh, lamb=1.0, mu=1.0):
        d = mesh.d
        self.m = d
        self.tables = build_elastic_tables(d)
        self._Q = [[m.tolist() for m in row] for row in self.tables.Q]
        self._S = [[m.tolist() for m in row] for row in self.tables.S]
        self.grads = compute_gradients(mesh)
        lamb_nodal = _nodal_values(lamb, mesh.q)
        mu_nodal = _nodal_values(mu, mesh.q)
        if np.any(lamb_nodal + mu_nodal <= 0.0):
            node = int(np.flatnonzero(lamb_nodal + mu_nodal <= 0.0)[0])
            raise ValueError(
                f"Lame parameters must satisfy lamb + mu > 0; violated at "
                f"node {node}"
            )
        scale = mesh.vols / (d + 1)
        self.lambs = lamb_nodal[mesh.me].sum(axis=0) * scale
        self.mus = mu_nodal[mesh.me].sum(axis=0) * scale

    def batched(self, l: int, alpha: int, n: int, beta: int) -> np.ndarray:
        return elastic_kernel(l, alpha, n, beta, self.tables, self.grads,
                              self.lambs, self.mus)

    @cached_property
    def _flat(self):
        return list(zip(self.grads.tolist(), self.lambs.tolist(),
                        self.mus.tolist()))

    def single(self, l: int, alpha: int, n: int, beta: int, k: int) -> float:
        G, lamb, mu = self._flat[k]
        return _elastic_entry(l, alpha, n, beta, self._Q, self._S, G, lamb, mu)


class PkMassKernel:
    """Order-k lattice mass entries d! * C[a, b] * |K|.

    Only ``batched`` is provided: the lattice mass matrix is assembled with
    the batched ``optv2`` strategy.
    """

    symmetric = True

    def __init__(self, pkmesh: PkMesh, coeffs: PkCoeffTable):
        self.scaled = float(math.factorial(pkmesh.d)) * coeffs.C
        self.vols = pkmesh.vols

    def batched(self, a: int, b: int) -> np.ndarray:
        return self.scaled[a, b] * self.vols
