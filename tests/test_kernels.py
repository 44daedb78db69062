import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplex_asm import (
    ElasticKernel,
    MassKernel,
    Mesh,
    MeshValidationError,
    PkMassKernel,
    RangeGuardError,
    StiffnessKernel,
    barycentric_moment,
    build_elastic_tables,
    build_pk_mesh,
    compute_gradients,
    dot_mat_vec_g,
    elastic_kernel,
    generate_hypercube_mesh,
    mass_kernel,
    pk_mass_coeffs,
    reference_gradients,
    stiffness_kernel,
)

from oracles import (
    barycentric_at,
    elasticity_matrix,
    gradients_via_block_solve,
    integrate_bary_monomial,
    simplex_quadrature,
    voigt_strain_basis,
)
from test_assembly import shuffled_mesh
from test_mesh import DEGENERATE

REF_TRI = Mesh.from_arrays(np.array([[0., 1., 0.], [0., 0., 1.]]),
                           np.array([[0], [1], [2]]))
REF_TET = Mesh.from_arrays(
    np.array([[0., 1., 0., 0.], [0., 0., 1., 0.], [0., 0., 0., 1.]]),
    np.array([[0], [1], [2], [3]]))


def random_simplex(d, seed):
    rng = np.random.default_rng(seed)
    while True:
        verts = rng.random((d, d + 1)) * 2.0 - 0.5
        vol = abs(np.linalg.det(verts[:, 1:] - verts[:, :1])) / math.factorial(d)
        if vol > 1e-3:
            return Mesh.from_arrays(verts, np.arange(d + 1).reshape(d + 1, 1))


# ---------------------------------------------------------------------------
# Barycentric moments


def test_moment_trivial_values():
    assert barycentric_moment(2, 1.0, (0, 0, 0)) == 1.0
    assert barycentric_moment(2, 0.5, (1, 1, 0)) == pytest.approx(1 / 24, rel=1e-15)


def test_moment_against_quadrature_on_reference_tet():
    value = barycentric_moment(3, 1 / 6, (2, 0, 0, 0))
    assert value == pytest.approx(1 / 60, rel=1e-15)
    oracle = integrate_bary_monomial(REF_TET.q, (2, 0, 0, 0))
    assert value == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_moment_sweep_matches_quadrature(d):
    mesh = random_simplex(d, seed=42 + d)
    vol = mesh.vols[0]
    for exps in itertools.product(range(5), repeat=d + 1):
        if sum(exps) > 4:
            continue
        got = barycentric_moment(d, vol, exps)
        want = integrate_bary_monomial(mesh.q, exps)
        assert got == pytest.approx(want, rel=1e-12)


def test_moment_guards():
    with pytest.raises(ValueError):
        barycentric_moment(2, 1.0, (1, -1, 0))
    with pytest.raises(ValueError):
        barycentric_moment(2, 1.0, (1, 1))
    with pytest.raises(RangeGuardError):
        barycentric_moment(3, 1.0, (18, 0, 0, 0))


# ---------------------------------------------------------------------------
# Gradients


def test_gradients_on_reference_triangle():
    grads = compute_gradients(REF_TRI)
    assert np.allclose(grads[0], [[-1, -1], [1, 0], [0, 1]], atol=0)


def test_gradients_scale_inversely():
    scaled = Mesh.from_arrays(np.array([[0., 2., 0.], [0., 0., 2.]]),
                              np.array([[0], [1], [2]]))
    grads = compute_gradients(scaled)
    assert np.allclose(grads[0], [[-0.5, -0.5], [0.5, 0], [0, 0.5]], atol=0)


@pytest.mark.parametrize("d,n", [(1, 5), (2, 4), (3, 2), (4, 2)])
def test_gradient_partition_of_unity(d, n):
    mesh = generate_hypercube_mesh(d, n)
    grads = compute_gradients(mesh)
    bound = 1e-12 * np.abs(grads).max()
    assert np.abs(grads.sum(axis=1)).max() <= bound


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (4, 2)])
def test_gradients_solve_their_defining_system(d, n):
    # d = 4 takes the general solve, d <= 3 the closed-form cofactors
    mesh = generate_hypercube_mesh(d, n)
    grads = compute_gradients(mesh)
    ref = reference_gradients(d)
    for k in range(mesh.nme):
        edges = mesh.q[:, mesh.me[1:, k]] - mesh.q[:, mesh.me[0, k]][:, None]
        assert np.allclose(edges.T @ grads[k].T, ref, atol=1e-10)


@pytest.mark.parametrize("d,n", [(1, 40), (2, 12), (3, 5)])
def test_closed_form_geometry_matches_lu_solve(d, n):
    # the closed-form cofactors against LAPACK's LU, element by element,
    # on jittered meshes whose local vertex order is shuffled
    mesh = shuffled_mesh(d, n, seed=20 + d)
    edges = mesh.q[:, mesh.me[1:]] - mesh.q[:, mesh.me[0]][:, None, :]
    bmats = np.moveaxis(edges, 2, 0)
    rhs = np.broadcast_to(reference_gradients(d), (mesh.nme, d, d + 1))
    want = np.linalg.solve(bmats.transpose(0, 2, 1), rhs).transpose(0, 2, 1)
    grads = compute_gradients(mesh)
    assert grads.shape == (mesh.nme, d + 1, d)
    assert grads.transpose(1, 2, 0).flags.c_contiguous   # the layout kernels read
    err = np.abs(grads - want).max(axis=(1, 2))
    assert np.all(err <= 1e-14 * np.abs(want).max(axis=(1, 2)))
    vols = np.abs(np.linalg.det(bmats)) / math.factorial(d)
    assert np.all(np.abs(mesh.vols - vols) <= 1e-14 * vols)


def test_gradients_match_finite_differences():
    mesh = random_simplex(3, seed=11)
    grads = compute_gradients(mesh)[0]
    center = mesh.q.mean(axis=1)
    h = 1e-6
    for alpha in range(4):
        for i in range(3):
            plus, minus = center.copy(), center.copy()
            plus[i] += h
            minus[i] -= h
            lam = barycentric_at(mesh.q, np.vstack([plus, minus]))
            fd = (lam[alpha, 0] - lam[alpha, 1]) / (2 * h)
            assert fd == pytest.approx(grads[alpha, i], abs=1e-6)


def test_gradients_match_block_diagonal_solve():
    for d, n in [(1, 6), (2, 3), (3, 2)]:
        mesh = generate_hypercube_mesh(d, n)
        assert np.allclose(compute_gradients(mesh),
                           gradients_via_block_solve(mesh), atol=1e-13)


def test_gradients_degenerate_error_names_element():
    from simplex_asm import DegenerateSimplexError
    for q, me in DEGENERATE.values():
        mesh = Mesh(q, me, np.array([0.5, 0.5]))   # bypass volume check
        with pytest.raises(DegenerateSimplexError) as err:
            compute_gradients(mesh)
        assert err.value.element == 1


@pytest.mark.parametrize("rows", [2, 4])
def test_kernel_rejects_connectivity_with_wrong_row_count(rows):
    q = np.array([[0., 1., 0.], [0., 0., 1.]])
    me = np.array([[0], [1], [2], [0]])[:rows]
    mesh = Mesh(q, me, np.array([0.5]))   # bypass the constructor checks
    with pytest.raises(MeshValidationError, match=r"connectivity shape"):
        StiffnessKernel(mesh)


# ---------------------------------------------------------------------------
# Scalar kernels


def test_mass_kernel_constant_weight_reference_triangle():
    kern = MassKernel(REF_TRI, 1.0)
    # |K|/12 off the diagonal, |K|/6 on it, with |K| = 1/2
    assert kern.batched(0, 1)[0] == pytest.approx(1 / 24, rel=1e-15)
    assert kern.batched(1, 1)[0] == pytest.approx(1 / 12, rel=1e-15)


def test_mass_kernel_affine_weight_is_exact():
    # nodal interpolation commits no error for affine weights
    mesh = REF_TET
    kern = MassKernel(mesh, lambda q: q[0])
    pts, wts = simplex_quadrature(3, 6)
    lam = barycentric_at(mesh.q, pts)
    for alpha in range(4):
        for beta in range(4):
            oracle = float(np.dot(wts, pts[:, 0] * lam[alpha] * lam[beta]))
            assert kern.batched(alpha, beta)[0] == pytest.approx(oracle, abs=1e-14)


def test_mass_kernel_module_function_signature():
    mesh = generate_hypercube_mesh(2, 2)
    nodal = np.ones(mesh.nq)
    W = nodal[mesh.me]
    out = mass_kernel(0, 0, mesh, W, W.sum(axis=0))
    assert out.shape == (mesh.nme,)
    assert np.allclose(out, mesh.vols / 6, rtol=1e-15)


def test_stiffness_kernel_reference_triangle():
    kern = StiffnessKernel(REF_TRI)
    local = np.array([[kern.batched(a, b)[0] for b in range(3)]
                      for a in range(3)])
    expected = 0.5 * np.array([[2., -1., -1.], [-1., 1., 0.], [-1., 0., 1.]])
    assert np.allclose(local, expected, atol=0)


@pytest.mark.parametrize("d,n", [(1, 4), (2, 3), (3, 2)])
def test_stiffness_kernel_rows_sum_to_zero(d, n):
    mesh = generate_hypercube_mesh(d, n)
    kern = StiffnessKernel(mesh)
    for alpha in range(d + 1):
        total = sum(kern.batched(alpha, beta) for beta in range(d + 1))
        assert np.abs(total).max() < 1e-13


def test_stiffness_kernel_symmetry_is_exact():
    mesh = generate_hypercube_mesh(3, 2)
    kern = StiffnessKernel(mesh)
    for alpha in range(4):
        for beta in range(alpha, 4):
            assert np.array_equal(kern.batched(alpha, beta),
                                  kern.batched(beta, alpha))


def test_stiffness_kernel_against_dense_per_element():
    mesh = random_simplex(3, seed=5)
    kern = StiffnessKernel(mesh)
    edges = mesh.q[:, mesh.me[1:, 0]] - mesh.q[:, mesh.me[0, 0]][:, None]
    dense_grads = np.linalg.solve(edges.T, reference_gradients(3))
    vol = mesh.vols[0]
    for alpha in range(4):
        for beta in range(4):
            want = vol * float(dense_grads[:, beta] @ dense_grads[:, alpha])
            assert kern.batched(alpha, beta)[0] == pytest.approx(want, rel=1e-13)


KERNELS = {
    "mass": lambda mesh: MassKernel(mesh, 2.5),
    "weighted-mass": lambda mesh: MassKernel(mesh, lambda q: 1.0 + q[0]),
    "stiffness": StiffnessKernel,
    "elastic": lambda mesh: ElasticKernel(mesh, lambda q: 1 + q[0],
                                          lambda q: 2 + q[-1] * q[0]),
}


@pytest.mark.parametrize("kind,d,shuffled", [
    pytest.param(kind, d, shuffled,
                 id=f"{kind}-d{d}-{'shuffled' if shuffled else 'kuhn'}")
    for kind in KERNELS for d in (1, 2, 3) for shuffled in (False, True)
    if not (kind == "elastic" and d == 1)
])
def test_batched_matches_single(kind, d, shuffled):
    # batched and single evaluate one formula, so they agree bit for bit
    n = {1: 5, 2: 3, 3: 2}[d]
    mesh = shuffled_mesh(d, n, seed=d) if shuffled else generate_hypercube_mesh(d, n)
    kern = KERNELS[kind](mesh)
    if kind == "elastic":
        indices = itertools.product(range(d), range(d + 1), range(d), range(d + 1))
    else:
        indices = itertools.product(range(d + 1), repeat=2)
    for index in indices:
        single = [kern.single(*index, k) for k in range(mesh.nme)]
        assert kern.batched(*index).tolist() == single, index


def zero_started_stiffness(alpha, beta, G, vol):
    """The stiffness entry as a sum that starts at 0.0."""
    acc = 0.0
    for i in range(len(G[alpha])):
        acc += G[beta][i] * G[alpha][i]
    return acc * vol


def zero_started_elastic(l, alpha, n, beta, Q, S, G, lamb, mu):
    """The elastic entry as two sums that start at 0.0 and multiply every
    nonzero table entry, 1.0 included."""
    qmat, smat = Q[n][l], S[n][l]
    acc_q = acc_s = 0.0
    for i, ga_i in enumerate(G[alpha]):
        for j, gb_j in enumerate(G[beta]):
            if qmat[j][i] or smat[j][i]:
                p = ga_i * gb_j
                if qmat[j][i]:
                    acc_q += qmat[j][i] * p
                if smat[j][i]:
                    acc_s += smat[j][i] * p
    return lamb * acc_q + mu * acc_s


@pytest.mark.parametrize("d,shuffled", [(2, False), (2, True), (3, False),
                                        (3, True)])
def test_entries_match_zero_started_sums_up_to_the_sign_of_zero(d, shuffled):
    # the kernels start each sum at its first term and multiply by no table
    # entry of 1.0; that may turn an exact 0.0 into -0.0 and changes no
    # other bit (x + 0.0 maps -0.0 to 0.0 and leaves every other x alone)
    n = {2: 3, 3: 2}[d]
    mesh = shuffled_mesh(d, n, seed=d) if shuffled else generate_hypercube_mesh(d, n)
    G = compute_gradients(mesh).transpose(1, 2, 0)
    stiff = StiffnessKernel(mesh)
    elastic = ElasticKernel(mesh, lambda q: 1 + q[0], lambda q: 2 + q[-1])
    t = elastic.tables
    zeros = 0
    for alpha, beta in itertools.product(range(d + 1), repeat=2):
        got = stiff.batched(alpha, beta)
        want = zero_started_stiffness(alpha, beta, G, mesh.vols)
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        for l, m in itertools.product(range(d), repeat=2):
            got = elastic.batched(l, alpha, m, beta)
            want = zero_started_elastic(l, alpha, m, beta, t.Q, t.S, G,
                                        elastic.lambs, elastic.mus)
            assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
            zeros += np.count_nonzero(want == 0.0)
    assert zeros > 0 or shuffled


# ---------------------------------------------------------------------------
# Elastic tables and kernel


def test_elastic_tables_2d_blocks():
    t = build_elastic_tables(2)
    assert np.array_equal(t.Q[0][0], [[1, 0], [0, 0]])
    assert np.array_equal(t.S[0][0], [[2, 0], [0, 1]])
    assert np.array_equal(t.Q[0][1], [[0, 1], [0, 0]])
    assert np.array_equal(t.S[0][1], [[0, 0], [1, 0]])


@pytest.mark.parametrize("d", [2, 3])
def test_elastic_split_reproduces_elasticity_matrix(d):
    t = build_elastic_tables(d)
    rng = np.random.default_rng(3)
    for lamb, mu in rng.random((5, 2)) * 4 - 1:
        assert np.allclose(lamb * t.C0 + mu * t.C1,
                           elasticity_matrix(d, lamb, mu), atol=0)


@pytest.mark.parametrize("d", [2, 3])
def test_elastic_tables_symmetry(d):
    t = build_elastic_tables(d)
    for n in range(d):
        for l in range(d):
            assert np.array_equal(t.Q[n][l], t.Q[l][n].T)
            assert np.array_equal(t.S[n][l], t.S[l][n].T)


def test_elastic_tables_reject_other_dimensions():
    with pytest.raises(ValueError):
        build_elastic_tables(1)
    with pytest.raises(ValueError):
        build_elastic_tables(4)


def test_dot_mat_vec_g():
    mesh = generate_hypercube_mesh(3, 1)
    grads = compute_gradients(mesh)
    vols = mesh.vols
    for alpha in range(4):
        for beta in range(4):
            with_identity = dot_mat_vec_g(np.eye(3), grads, alpha, beta) * vols
            assert np.allclose(with_identity,
                               stiffness_kernel(alpha, beta, grads, vols),
                               rtol=1e-15)
    assert np.all(dot_mat_vec_g(np.zeros((3, 3)), grads, 0, 1) == 0.0)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((3, 3))
    for k in range(mesh.nme):
        want = grads[k, 2] @ a @ grads[k, 1]
        got = dot_mat_vec_g(a, grads, 1, 2)[k]
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_elastic_kernel_zero_coefficient_arrays():
    # the batched evaluator itself has no positivity requirement
    mesh = generate_hypercube_mesh(2, 1)
    tables = build_elastic_tables(2)
    grads = compute_gradients(mesh)
    zeros = np.zeros(mesh.nme)
    assert np.all(elastic_kernel(0, 1, 1, 2, tables, grads, zeros, zeros) == 0.0)


def test_elastic_kernel_requires_positive_lame_sum():
    mesh = generate_hypercube_mesh(2, 1)
    with pytest.raises(ValueError, match="lamb \\+ mu > 0"):
        ElasticKernel(mesh, 0.0, 0.0)
    with pytest.raises(ValueError):
        ElasticKernel(mesh, lambda q: q[0] - 2.0, 1.0)


def test_elastic_kernel_rejects_nan_lame_field():
    # a NaN passes the lamb + mu <= 0 guard, so it is caught at the nodes
    mesh = generate_hypercube_mesh(2, 2)
    lamb = lambda q: np.where(np.arange(q.shape[1]) == 4, np.nan, 1.0)
    with pytest.raises(ValueError, match="node 4 is not finite"):
        ElasticKernel(mesh, lamb, 1.0)


def test_mass_kernel_rejects_infinite_weight():
    mesh = generate_hypercube_mesh(2, 2)
    weight = lambda q: np.where(np.arange(q.shape[1]) == 7, np.inf, 1.0)
    with pytest.raises(ValueError, match="node 7 is not finite"):
        MassKernel(mesh, weight)


def test_elastic_kernel_swap_symmetry():
    mesh = generate_hypercube_mesh(3, 1)
    kern = ElasticKernel(mesh, lambda q: 1 + q[0], lambda q: 2 + q[1])
    for l, alpha, n, beta in itertools.product(range(3), range(4),
                                               range(3), range(4)):
        assert np.array_equal(kern.batched(l, alpha, n, beta),
                              kern.batched(n, beta, l, alpha))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@settings(max_examples=10, deadline=None)
@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_symmetric_kernels_are_bitwise_swap_symmetric(d, seed):
    # symmetric = True promises batched(a, b) == batched(b, a) bit for bit,
    # (l, a, n, b) <-> (n, b, l, a) for a vector kernel: scalar optv2
    # evaluates and sorts only the strict upper local pairs on it.  The mesh
    # is jittered, its local vertex order shuffled per element, and its
    # vertices and elements permuted
    rng = np.random.default_rng(seed)
    shuffled = shuffled_mesh(d, 3 if d == 2 else 2, seed=seed)
    new_id = rng.permutation(shuffled.nq)
    q = np.empty_like(shuffled.q)
    q[:, new_id] = shuffled.q
    mesh = Mesh.from_arrays(
        q, new_id[shuffled.me][:, rng.permutation(shuffled.nme)])
    c = rng.uniform(0.5, 2.0, 3)
    kernels = [
        MassKernel(mesh),
        MassKernel(mesh, lambda x: c[0] + c[1] * x[0] * x[-1] + np.sin(c[2] * x[1])),
        StiffnessKernel(mesh),
        ElasticKernel(mesh, lambda x: c[0] + x[0] * c[2],
                      lambda x: c[1] + np.cos(x[-1] * c[2])),
    ] + [PkMassKernel(build_pk_mesh(mesh, k), pk_mass_coeffs(d, k))
         for k in (2, 3)]
    for kernel in kernels:
        assert kernel.symmetric
        nloc = kernel.scaled.shape[0] if isinstance(kernel, PkMassKernel) else d + 1
        if hasattr(kernel, "m"):
            for l, alpha, n, beta in itertools.product(
                    range(kernel.m), range(nloc), range(kernel.m), range(nloc)):
                assert np.array_equal(bits(kernel.batched(l, alpha, n, beta)),
                                      bits(kernel.batched(n, beta, l, alpha)))
        else:
            for alpha, beta in itertools.combinations(range(nloc), 2):
                assert np.array_equal(bits(kernel.batched(alpha, beta)),
                                      bits(kernel.batched(beta, alpha)))


def test_elastic_kernel_local_matrix_against_voigt_oracle():
    mesh = REF_TRI
    kern = ElasticKernel(mesh, 1.0, 1.0)
    grads = compute_gradients(mesh)[0]
    cmat = elasticity_matrix(2, 1.0, 1.0)
    vol = mesh.vols[0]
    for l, alpha, n, beta in itertools.product(range(2), range(3),
                                               range(2), range(3)):
        eps_row = voigt_strain_basis(l, grads[alpha])
        eps_col = voigt_strain_basis(n, grads[beta])
        want = vol * float(eps_col @ cmat @ eps_row)
        got = kern.batched(l, alpha, n, beta)[0]
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("d", [2, 3])
def test_elastic_kernel_variable_fields_against_voigt_oracle(d):
    # variable Lame fields distinguish the (row, col) component pairing;
    # the oracle splits the elasticity matrix per element from scratch
    mesh = generate_hypercube_mesh(d, 2)
    lamb = lambda q: 1 + q[0]
    mu = lambda q: 2 + q[d - 1]
    kern = ElasticKernel(mesh, lamb, mu)
    grads = compute_gradients(mesh)
    lam_avg = lamb(mesh.q)[mesh.me].mean(axis=0)
    mu_avg = mu(mesh.q)[mesh.me].mean(axis=0)
    rng = np.random.default_rng(23)
    for _ in range(40):
        l, n = rng.integers(0, d, size=2)
        alpha, beta = rng.integers(0, d + 1, size=2)
        k = rng.integers(0, mesh.nme)
        cmat = (lam_avg[k] * elasticity_matrix(d, 1.0, 0.0)
                + mu_avg[k] * elasticity_matrix(d, 0.0, 1.0))
        eps_row = voigt_strain_basis(l, grads[k, alpha])
        eps_col = voigt_strain_basis(n, grads[k, beta])
        want = mesh.vols[k] * float(eps_col @ cmat @ eps_row)
        got = kern.batched(l, alpha, n, beta)[k]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_elastic_kernel_prescaled_field_averages():
    mesh = generate_hypercube_mesh(2, 2)
    lamb = lambda q: 1 + q[0]
    kern = ElasticKernel(mesh, lamb, 1.0)
    nodal = lamb(mesh.q)
    want = nodal[mesh.me].sum(axis=0) * mesh.vols / 3
    assert np.allclose(kern.lambs, want, rtol=1e-15)


def test_lemma_identity_small_sample():
    rng = np.random.default_rng(17)
    for d in (2, 3):
        t = build_elastic_tables(d)
        for _ in range(100):
            ga, gb = rng.standard_normal((2, d))
            lamb, mu = rng.random(2) * 3 + 0.1
            cmat = elasticity_matrix(d, lamb, mu)
            for l in range(d):
                for n in range(d):
                    lhs = voigt_strain_basis(n, gb) @ cmat @ voigt_strain_basis(l, ga)
                    rhs = (lamb * (gb @ t.Q[n][l] @ ga)
                           + mu * (gb @ t.S[n][l] @ ga))
                    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-13)


# ---------------------------------------------------------------------------
# Mass coefficients for lattice bases


@pytest.mark.parametrize("d", [1, 2, 3])
def test_pk_coeffs_order_one_closed_form(d):
    table = pk_mass_coeffs(d, 1)
    fact = math.factorial(d + 2)
    for a in range(d + 1):
        for b in range(d + 1):
            want = Fraction(2 if a == b else 1, fact)
            assert table.exact[a][b] == want


def test_pk_coeffs_d1_k2_matrix():
    table = pk_mass_coeffs(1, 2)
    want = [[Fraction(4, 30), Fraction(2, 30), Fraction(-1, 30)],
            [Fraction(2, 30), Fraction(16, 30), Fraction(2, 30)],
            [Fraction(-1, 30), Fraction(2, 30), Fraction(4, 30)]]
    assert [list(row) for row in table.exact] == want


def test_pk_coeffs_d1_k2_against_symbolic_oracle():
    import sympy

    x = sympy.Symbol("x")
    lam = (1 - x, x)
    basis = []
    for alpha in pk_mass_coeffs(1, 2).lattice:
        expr = sympy.Integer(1)
        for slot, a in enumerate(alpha):
            for j in range(a):
                expr *= (2 * lam[slot] - j) / (j + 1)
        basis.append(sympy.expand(expr))
    table = pk_mass_coeffs(1, 2)
    for a in range(3):
        for b in range(3):
            integral = sympy.integrate(basis[a] * basis[b], (x, 0, 1))
            assert Fraction(int(integral.p), int(integral.q)) == table.exact[a][b]


@pytest.mark.parametrize("d,k", [(1, 3), (2, 2), (2, 4), (3, 2), (3, 3)])
def test_pk_coeffs_total_is_inverse_factorial(d, k):
    table = pk_mass_coeffs(d, k)
    total = sum(sum(row) for row in table.exact)
    assert total == Fraction(1, math.factorial(d))
    assert np.allclose(table.C, table.C.T, atol=0)


def test_pk_coeffs_diagonal_dominance_not_assumed():
    # entries may be negative from k = 2 on
    table = pk_mass_coeffs(1, 2)
    assert table.exact[0][2] < 0


def test_pk_coeffs_range_guard():
    with pytest.raises(RangeGuardError):
        pk_mass_coeffs(4, 1)
    with pytest.raises(RangeGuardError):
        pk_mass_coeffs(2, 7)
    with pytest.raises(RangeGuardError):
        pk_mass_coeffs(2, 0)


def test_coefficient_callable_shape_check():
    mesh = generate_hypercube_mesh(2, 1)
    with pytest.raises(ValueError):
        MassKernel(mesh, lambda q: np.ones(3))
