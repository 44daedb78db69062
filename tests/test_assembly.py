import collections
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplex_asm.assembly
import simplex_asm.sparse
from simplex_asm import (
    ElasticKernel,
    MassKernel,
    Mesh,
    NonSymmetricKernelError,
    SCALAR_DRIVERS,
    StiffnessKernel,
    TripletBatch,
    VECTOR_DRIVERS,
    add,
    assemble_base,
    assemble_mass_pk,
    assemble_optv,
    assemble_optv1,
    assemble_optv2,
    assemble_optvs,
    assemble_vector_base,
    assemble_vector_optv,
    assemble_vector_optv2,
    assemble_vector_optvs,
    build_pk_mesh,
    compute_gradients,
    dot_mat_vec_g,
    empty_matrix,
    generate_hypercube_mesh,
    max_abs,
    max_abs_diff,
    pk_mass_coeffs,
    sparse_from_triplets,
    transpose,
)

from oracles import (
    dense_assembly_scalar,
    dense_assembly_vector,
    rigid_body_modes,
    scipy_coo_to_csr,
)

REF_TRI = Mesh.from_arrays(np.array([[0., 1., 0.], [0., 0., 1.]]),
                           np.array([[0], [1], [2]]))


class ZeroKernel:
    symmetric = True

    def batched(self, alpha, beta):
        return np.zeros(1)

    def single(self, alpha, beta, k):
        return 0.0


class RecordingScalar:
    """Pass-through wrapper that logs every batched evaluation."""

    def __init__(self, inner):
        self.inner = inner
        self.symmetric = inner.symmetric
        self.calls = []

    def batched(self, alpha, beta):
        self.calls.append((alpha, beta))
        return self.inner.batched(alpha, beta)

    def single(self, alpha, beta, k):
        return self.inner.single(alpha, beta, k)


class RecordingVector:
    def __init__(self, inner):
        self.inner = inner
        self.symmetric = inner.symmetric
        self.m = inner.m
        self.calls = []

    def batched(self, l, alpha, n, beta):
        self.calls.append((l, alpha, n, beta))
        return self.inner.batched(l, alpha, n, beta)

    def single(self, l, alpha, n, beta, k):
        return self.inner.single(l, alpha, n, beta, k)


# ---------------------------------------------------------------------------
# Scalar drivers


def test_base_stiffness_on_split_square():
    mesh = generate_hypercube_mesh(2, 1)
    got = assemble_base(mesh, StiffnessKernel(mesh)).to_dense()
    want = np.array([[1.0, -0.5, -0.5, 0.0],
                     [-0.5, 1.0, 0.0, -0.5],
                     [-0.5, 0.0, 1.0, -0.5],
                     [0.0, -0.5, -0.5, 1.0]])
    assert np.allclose(got, want, atol=1e-15)


def test_base_mass_on_reference_triangle():
    got = assemble_base(REF_TRI, MassKernel(REF_TRI)).to_dense()
    vol = 0.5
    want = np.full((3, 3), vol / 12) + np.eye(3) * vol / 12
    assert np.allclose(got, want, rtol=1e-14)


def test_zero_kernel_gives_empty_matrix():
    mesh = Mesh.from_arrays(REF_TRI.q, REF_TRI.me)
    for driver in SCALAR_DRIVERS.values():
        assert driver(mesh, ZeroKernel()).nnz == 0


@pytest.mark.parametrize("d", [2, 3])
def test_vector_incremental_strategies_without_elements(d):
    # every vertex pair's batch is empty: each listed component pair still
    # gets an empty canonical matrix, and their sums stay empty
    mesh = Mesh.from_arrays(np.random.default_rng(d).random((d, 5)),
                            np.empty((d + 1, 0), dtype=np.int64))
    kernel = ElasticKernel(mesh)
    for driver in (assemble_vector_optv, assemble_vector_optvs):
        assert same_bits(driver(mesh, kernel), empty_matrix(d * 5, d * 5))


@pytest.mark.parametrize("d,n", [(1, 9), (2, 4), (3, 2)])
@pytest.mark.parametrize("make", [
    lambda m: MassKernel(m),
    lambda m: MassKernel(m, lambda q: q[0]),
    lambda m: StiffnessKernel(m),
])
def test_scalar_variants_agree(d, n, make):
    mesh = generate_hypercube_mesh(d, n)
    kernel = make(mesh)
    matrices = {name: driver(mesh, kernel)
                for name, driver in SCALAR_DRIVERS.items()}
    scale = max(max_abs(m) for m in matrices.values())
    for a, b in itertools.combinations(matrices, 2):
        assert max_abs_diff(matrices[a], matrices[b]) <= 1e-12 * scale


def test_optv1_and_optv2_are_bitwise_identical():
    # both produce the same element-major triplet stream, optv2 as a
    # batch whose stream axis is the element axis; optv2 hands the
    # constructor its own buffers, optv1 new lists.  The shuffled mesh's
    # 73,728 triplets span several of the constructor's in-place chunks.
    for mesh in (generate_hypercube_mesh(2, 5), shuffled_mesh(2, 64, seed=3)):
        kernel = StiffnessKernel(mesh)
        a = assemble_optv1(mesh, kernel)
        b = assemble_optv2(mesh, kernel)
        assert np.array_equal(a.vals, b.vals)
        assert np.array_equal(a.col_idx, b.col_idx)
        assert np.array_equal(a.row_ptr, b.row_ptr)


class TableKernel:
    """Scalar kernel whose local entry (a, b) on element k is table[a, b, k]."""

    def __init__(self, table, symmetric):
        self.table = table
        self.symmetric = symmetric

    def batched(self, alpha, beta):
        return self.table[alpha, beta].copy()

    def single(self, alpha, beta, k):
        return float(self.table[alpha, beta, k])


def same_bits(a, b):
    return a.shape == b.shape and all(
        getattr(a, f).dtype == getattr(b, f).dtype
        and getattr(a, f).tobytes() == getattr(b, f).tobytes()
        for f in ("row_ptr", "col_idx", "vals"))


# the constructor's chunk length: its default, and a length of 5, with
# which every chunked loop of the constructor crosses chunk boundaries
CHUNKS = st.sampled_from([simplex_asm.sparse._CHUNK, 5])


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), extra=st.integers(0, 3),
       nme=st.integers(1, 24), chunk=CHUNKS, data=st.data())
def test_symmetric_optv2_is_bitwise_the_full_stream(d, extra, nme, chunk, data):
    # few vertices and many elements, so vertex pairs and diagonal entries
    # take terms from several elements; values 1e16, -1e16, 1.0, 0.0 and
    # -0.0 make the sums depend on their order and cancel exactly.  The
    # swap-symmetric table flagged symmetric streams one orientation of
    # each vertex pair; flagged not symmetric, it streams both, the full
    # stream of every local pair, and so does the table before it was made
    # swap-symmetric, whose lower entries are not the upper ones mirrored
    nq = d + 1 + extra
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    me = np.stack([rng.permutation(nq)[:d + 1] for _ in range(nme)], axis=1)
    mesh = Mesh.from_arrays(rng.random((d, nq)), me)
    nloc = d + 1
    table = np.array(data.draw(st.lists(
        st.sampled_from([1e16, -1e16, 1.0, 0.0, -0.0]),
        min_size=nloc * nloc * nme, max_size=nloc * nloc * nme))).reshape(
            nloc, nloc, nme)
    raw = table.copy()
    upper = np.triu(np.ones((nloc, nloc), dtype=bool), 1)
    table.transpose(1, 0, 2)[upper] = table[upper]  # swap-symmetric
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex_asm.sparse, "_CHUNK", chunk)
        got = assemble_optv2(mesh, TableKernel(table, True))
        full = assemble_optv2(mesh, TableKernel(table, False))
        loop = assemble_optv1(mesh, TableKernel(table, True))
        raw_got = assemble_optv2(mesh, TableKernel(raw, False))
        raw_loop = assemble_optv1(mesh, TableKernel(raw, False))
    assert same_bits(got, full)
    assert same_bits(got, loop)
    assert same_bits(raw_got, raw_loop)


def test_non_symmetric_scalar_optv2_is_bitwise_the_element_loop():
    # a kernel flagged non-symmetric streams both orientations of every
    # vertex pair
    class Anisotropic:
        symmetric = False

        def __init__(self, mesh, A):
            self.A, self.vols = A, mesh.vols
            self.grads = compute_gradients(mesh)

        def batched(self, alpha, beta):
            return dot_mat_vec_g(self.A, self.grads, alpha, beta) * self.vols

        def single(self, alpha, beta, k):
            return float(self.batched(alpha, beta)[k])

    for d in (2, 3):
        mesh = shuffled_mesh(d, 3 if d == 2 else 2, seed=d)
        A = np.arange(1.0, d * d + 1).reshape(d, d) + np.eye(d) * d * d
        kernel = Anisotropic(mesh, A)
        got = assemble_optv2(mesh, kernel)
        assert max_abs_diff(got, transpose(got)) > 1e-3 * max_abs(got)
        assert same_bits(got, assemble_base(mesh, kernel))


class VectorTableKernel:
    """Vector kernel whose local entry (l, a, n, b) on element k is
    table[l*nloc + a, n*nloc + b, k], over the component-major local dofs."""

    def __init__(self, table, m, symmetric):
        self.table, self.m, self.symmetric = table, m, symmetric
        self.nloc = table.shape[0] // m

    def batched(self, l, alpha, n, beta):
        return self.table[l * self.nloc + alpha, n * self.nloc + beta].copy()

    def single(self, l, alpha, n, beta, k):
        return float(self.table[l * self.nloc + alpha, n * self.nloc + beta, k])


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), m=st.sampled_from([2, 3]),
       extra=st.integers(0, 3), nme=st.integers(1, 24),
       chunk=CHUNKS, seed=st.integers(0, 2**32 - 1))
def test_symmetric_vector_optv2_is_bitwise_the_full_stream(d, m, extra, nme,
                                                           chunk, seed):
    # few vertices and many elements, so vertex pairs and diagonal node
    # blocks take terms from several elements; each element's local vertex
    # order is random, so about half its vertex pairs have me[a] > me[b]
    # and reach the upper node triangle transposed.  Values 1e16, -1e16,
    # 1.0, 0.0 and -0.0 make the sums depend on their order and cancel
    # exactly.  As in the scalar test, the swap-symmetric table is also
    # streamed in both orientations, and so is the table before it was
    # made swap-symmetric
    nq = d + 1 + extra
    rng = np.random.default_rng(seed)
    me = np.stack([rng.permutation(nq)[:d + 1] for _ in range(nme)], axis=1)
    mesh = Mesh.from_arrays(rng.random((d, nq)), me)
    size = m * (d + 1)
    table = rng.choice([1e16, -1e16, 1.0, 0.0, -0.0], size=(size, size, nme))
    raw = table.copy()
    upper = np.triu(np.ones((size, size), dtype=bool), 1)
    table.transpose(1, 0, 2)[upper] = table[upper]  # swap-symmetric
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex_asm.sparse, "_CHUNK", chunk)
        got = assemble_vector_optv2(mesh, VectorTableKernel(table, m, True))
        full = assemble_vector_optv2(mesh, VectorTableKernel(table, m, False))
        loop = assemble_vector_base(mesh, VectorTableKernel(table, m, True))
        raw_got = assemble_vector_optv2(mesh, VectorTableKernel(raw, m, False))
        raw_loop = assemble_vector_base(mesh, VectorTableKernel(raw, m, False))
    assert same_bits(got, full)
    assert same_bits(got, loop)
    assert same_bits(raw_got, raw_loop)


def test_non_symmetric_vector_optv2_is_bitwise_the_element_loop():
    # a vector kernel flagged non-symmetric streams both orientations of
    # every vertex pair
    class Anisotropic:
        symmetric = False

        def __init__(self, mesh, A):
            self.m, self.A, self.vols = len(A), A, mesh.vols
            self.grads = compute_gradients(mesh)

        def batched(self, l, alpha, n, beta):
            return dot_mat_vec_g(self.A[l][n], self.grads, alpha, beta) * self.vols

        def single(self, l, alpha, n, beta, k):
            return float(self.batched(l, alpha, n, beta)[k])

    for d in (2, 3):
        mesh = shuffled_mesh(d, 3 if d == 2 else 2, seed=d)
        # a different non-symmetric matrix per component pair
        A = [[np.arange(1.0, d * d + 1).reshape(d, d) * (1 + l + 2 * n)
              + np.eye(d) * d * d for n in range(d)] for l in range(d)]
        kernel = Anisotropic(mesh, A)
        got = assemble_vector_optv2(mesh, kernel)
        assert max_abs_diff(got, transpose(got)) > 1e-3 * max_abs(got)
        assert same_bits(got, assemble_vector_base(mesh, kernel))


def paper_loops(mesh, table, m, symmetric):
    """The paper's ``M = M + sparse(I, J, K)``, one accumulator over every
    local pair: ``optv`` column by column; ``optvs`` the strict upper
    triangle row by row, the transpose-add, then the diagonal.  Local dof
    ``ii = l*nloc + a`` of element k is dof ``m*me[a, k] + l`` and its pair
    with ``jj`` takes ``table[ii, jj]``."""
    size, ndof = len(table), m * mesh.nq
    dof = [m * mesh.me[a] + l for l in range(m) for a in range(mesh.d + 1)]

    def term(ii, jj):
        return sparse_from_triplets(TripletBatch(ndof, ndof, dof[ii], dof[jj],
                                                 table[ii, jj].copy()))

    out = empty_matrix(ndof, ndof)
    if not symmetric:
        for jj in range(size):
            for ii in range(size):
                out = add(out, term(ii, jj))
        return out
    for ii in range(size):
        for jj in range(ii + 1, size):
            out = add(out, term(ii, jj))
    out = add(out, transpose(out))
    for ii in range(size):
        out = add(out, term(ii, ii))
    return out


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), m=st.sampled_from([1, 2, 3]),
       extra=st.integers(0, 3), nme=st.integers(1, 24),
       chunk=CHUNKS, seed=st.integers(0, 2**32 - 1))
def test_optv_and_optvs_are_bitwise_the_paper_loops(d, m, extra, nme, chunk,
                                                    seed):
    # the drivers sum each component pair's local pairs on their own, and
    # optvs its diagonal too; few vertices and many elements, and values
    # 1e16, -1e16, 1.0, 0.0 and -0.0, make every entry's sum depend on its
    # order and cancel exactly, so any term summed out of order shows
    nq = d + 1 + extra
    rng = np.random.default_rng(seed)
    me = np.stack([rng.permutation(nq)[:d + 1] for _ in range(nme)], axis=1)
    mesh = Mesh.from_arrays(rng.random((d, nq)), me)
    size = m * (d + 1)
    table = rng.choice([1e16, -1e16, 1.0, 0.0, -0.0], size=(size, size, nme))
    upper = np.triu(np.ones((size, size), dtype=bool), 1)
    table.transpose(1, 0, 2)[upper] = table[upper]  # swap-symmetric
    kernel = (TableKernel(table, True) if m == 1
              else VectorTableKernel(table, m, True))
    drivers = SCALAR_DRIVERS if m == 1 else VECTOR_DRIVERS
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex_asm.sparse, "_CHUNK", chunk)
        for strategy, symmetric in (("optv", False), ("optvs", True)):
            assert same_bits(drivers[strategy](mesh, kernel),
                             paper_loops(mesh, table, m, symmetric)), strategy


def local_table(kernel, m, nloc):
    """``kernel``'s local values as a table[ii, jj], over the component-major
    local dofs ``ii = l*nloc + a``."""
    local = [divmod(ii, nloc) if m > 1 else (ii,) for ii in range(m * nloc)]
    return np.array([[kernel.batched(*i, *j) for j in local] for i in local])


@pytest.mark.parametrize("m", [1, 2], ids=["scalar", "vector"])
@pytest.mark.parametrize("case", ["unused-node", "cancelling-node", "kuhn"])
def test_dense_node_diagonal_is_bitwise_the_paper_loops(case, m):
    # optv and optvs sum the vertex pairs (a, a) into dense node-diagonal
    # blocks, vertex after vertex, and construct them once: a node in no
    # element must stay unstored, a node whose first two vertex sums cancel
    # exactly must keep the third, and the exact zeros of an unjittered
    # Kuhn mesh's elastic blocks must be dropped, all as the paper's loops do
    nloc = 3
    if case == "kuhn":
        mesh = generate_hypercube_mesh(2, 3)
        kernel = ElasticKernel(mesh) if m > 1 else StiffnessKernel(mesh)
        table = local_table(kernel, m, nloc)
    else:
        if case == "unused-node":  # node 4 lies in no element
            me = np.array([[0, 1], [1, 3], [2, 2]])
            rng = np.random.default_rng(24)
            table = rng.choice([1e16, -1e16, 1.0, 0.0], size=(m * nloc,) * 2 + (2,))
            table = table + table.transpose(1, 0, 2)  # swap-symmetric
        else:  # node 0 is vertex k of element k, which adds S_k everywhere
            me = np.array([[0, 3, 5], [1, 0, 6], [2, 4, 0]])
            table = np.broadcast_to([1e16, -1e16, 1.0], (m * nloc,) * 2 + (3,))
        mesh = Mesh.from_arrays(np.random.default_rng(1).random((2, me.max() + 2)), me)
        kernel = (TableKernel(table, True) if m == 1
                  else VectorTableKernel(table, m, True))
    drivers = SCALAR_DRIVERS if m == 1 else VECTOR_DRIVERS
    for strategy, symmetric in (("optv", False), ("optvs", True)):
        got = drivers[strategy](mesh, kernel)
        assert same_bits(got, paper_loops(mesh, table, m, symmetric)), strategy
        blocks = [got.to_dense()[m * i:m * i + m, m * i:m * i + m]
                  for i in range(mesh.nq)]
        if case == "unused-node":
            assert got.row_ptr[m * 4] == got.nnz  # the last node's rows are empty
        elif case == "cancelling-node":
            assert (blocks[0] == 1.0).all()
        elif m > 1:
            assert 0 < sum((b == 0.0).sum() for b in blocks) < m * m * mesh.nq


def test_optvs_requires_symmetric_kernel():
    mesh = generate_hypercube_mesh(2, 1)
    kernel = StiffnessKernel(mesh)
    kernel.symmetric = False
    with pytest.raises(NonSymmetricKernelError):
        assemble_optvs(mesh, kernel)


def test_optvs_output_is_exactly_symmetric():
    mesh = generate_hypercube_mesh(3, 2)
    out = assemble_optvs(mesh, MassKernel(mesh, lambda q: 1 + q[0] * q[1]))
    assert max_abs_diff(out, transpose(out)) == 0.0


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_optvs_strict_triangle_before_transpose(vector, monkeypatch):
    # local dofs (l, alpha) are ordered component-major; before the
    # transpose-add the sweep visits every pair of the strict upper triangle
    # between distinct vertices once (vertex pair by vertex pair, row by
    # row), and after it, vertex by vertex, the pairs ((l, a), (n, a)) with
    # l <= n, which sum the node-diagonal blocks
    mesh = generate_hypercube_mesh(2, 1 if vector else 2)
    if vector:
        rec = RecordingVector(ElasticKernel(mesh))
        m, dof = rec.m, lambda l, a: (l, a)
    else:
        rec = RecordingScalar(StiffnessKernel(mesh))
        m, dof = 1, lambda l, a: (a,)
    nloc = mesh.d + 1
    dofs = [dof(l, a) for l in range(m) for a in range(nloc)]

    def marked(a, _real=simplex_asm.assembly.transpose):
        rec.calls.append("transpose")
        return _real(a)
    monkeypatch.setattr(simplex_asm.assembly, "transpose", marked)
    (assemble_vector_optvs if vector else assemble_optvs)(mesh, rec)
    cut = rec.calls.index("transpose")
    upper, diag = ([(c[:len(c) // 2], c[len(c) // 2:]) for c in calls]
                   for calls in (rec.calls[:cut], rec.calls[cut + 1:]))
    for row, col in upper:
        assert row < col      # strictly one-sided pairs only
    assert sorted(upper) == [(row, col) for i, row in enumerate(dofs)
                             for col in dofs[i + 1:] if row[-1] != col[-1]]
    assert diag == [(dof(l, a), dof(n, a)) for a in range(nloc)
                    for l in range(m) for n in range(l, m)]


class CountingKernel:
    """Proxy that counts batched and single calls and forwards the rest."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = collections.Counter()

    def batched(self, *index):
        self.calls["batched"] += 1
        return self._inner.batched(*index)

    def single(self, *index):
        self.calls["single"] += 1
        return self._inner.single(*index)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_batch_counts_per_strategy(monkeypatch):
    # the benchmark's tracer swaps these module attributes and proxies the
    # kernel, so every strategy must call through both
    calls = collections.Counter()
    for name in ("sparse_from_triplets", "add", "transpose"):
        def counted(*args, _name=name, _real=getattr(simplex_asm.assembly, name),
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(simplex_asm.assembly, name, counted)

    mesh = generate_hypercube_mesh(2, 2)
    for drivers, kernel in ((SCALAR_DRIVERS, StiffnessKernel(mesh)),
                            (VECTOR_DRIVERS, ElasticKernel(mesh))):
        m, nloc = getattr(kernel, "m", 1), mesh.d + 1
        size = m * nloc   # L local dofs
        pairs, half = size * size, size * (size + 1) // 2
        offdiag = nloc * (nloc - 1)   # vertex pairs a != b
        expected = {
            "base": ({"sparse_from_triplets": 1}, {"single": pairs * mesh.nme}),
            "optv1": ({"sparse_from_triplets": 1}, {"single": pairs * mesh.nme}),
            # a symmetric kernel streams every component pair of the vertex
            # pairs a < b and the pairs l <= n of the vertex pairs (a, a):
            # L(L+1)/2 calls for a scalar kernel, 21 for 2D elasticity
            "optv2": ({"sparse_from_triplets": 1},
                      {"batched": nloc * (nloc - 1) // 2 * m * m
                       + nloc * m * (m + 1) // 2}),
            # one construction per vertex pair a != b gives the matrices of
            # its component pairs; each component pair's sum starts as its
            # first pair's matrix, and the sums are added up from the first,
            # then the node-diagonal blocks of the pairs (a, a), summed
            # densely, in one more construction and add: m^2 nloc(nloc - 1)
            # adds for optv.  optvs adds the transpose too and visits the
            # vertex pairs a > b only for the component pairs l < n, which a
            # scalar kernel does not have: one add per strict upper local
            # pair between distinct vertices, plus one
            "optv": ({"sparse_from_triplets": offdiag + 1,
                      "add": m * m * offdiag}, {"batched": pairs}),
            "optvs": ({"sparse_from_triplets": (offdiag if m > 1 else
                                                offdiag // 2) + 1,
                       "add": size * (size - 1) // 2 - nloc * m * (m - 1) // 2
                       + 1, "transpose": 1}, {"batched": half}),
        }
        for strategy, driver in drivers.items():
            calls.clear()
            counting = CountingKernel(kernel)
            driver(mesh, counting)
            assert (calls, counting.calls) == expected[strategy], strategy


# ---------------------------------------------------------------------------
# Vector drivers


@pytest.mark.parametrize("d,n", [(2, 3), (3, 1)])
def test_vector_variants_agree(d, n):
    mesh = generate_hypercube_mesh(d, n)
    kernel = ElasticKernel(mesh, lambda q: 1 + q[0], lambda q: 2 + q[d - 1])
    matrices = {name: driver(mesh, kernel)
                for name, driver in VECTOR_DRIVERS.items()}
    scale = max(max_abs(m) for m in matrices.values())
    for a, b in itertools.combinations(matrices, 2):
        assert max_abs_diff(matrices[a], matrices[b]) <= 1e-12 * scale


def test_drivers_read_scalar_or_vector_off_the_kernel():
    # a kernel without `m` is scalar; a proxy that forwards attribute lookups,
    # as the benchmark's tracer does, passes the inner kernel's kind on
    mesh = generate_hypercube_mesh(2, 3)
    scalar = MassKernel(mesh, lambda q: 1 + q[1])
    elastic = ElasticKernel(mesh, lambda q: 1 + q[0], lambda q: 2 + q[1])
    for name, driver in VECTOR_DRIVERS.items():
        pairs = ((driver(mesh, scalar), SCALAR_DRIVERS[name](mesh, scalar)),
                 (driver(mesh, CountingKernel(elastic)), driver(mesh, elastic)))
        for got, want in pairs:
            assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
            for field in ("row_ptr", "col_idx", "vals"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert pairs[1][0].nrows == 2 * mesh.nq


def permuted_mesh(mesh, seed):
    """``mesh`` with its vertices renumbered and its elements reordered."""
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(mesh.nq)
    q = np.empty_like(mesh.q)
    q[:, new_id] = mesh.q
    return Mesh.from_arrays(q, new_id[mesh.me][:, rng.permutation(mesh.nme)])


@pytest.mark.parametrize("d,n", [(2, 6), (3, 2)])
def test_vector_optv2_is_bitwise_the_element_loop(d, n):
    # optv2 sums each dof entry's terms from per-component-pair node blocks,
    # base in a dictionary element by element: both add them in element
    # order, starting from 0.0.  Unit Lame parameters on the Kuhn mesh
    # cancel entries exactly, which both drop
    kuhn = generate_hypercube_mesh(d, n)
    cases = [(kuhn, ElasticKernel(kuhn))] + [
        (mesh, ElasticKernel(mesh, lambda q: 1 + q[0], lambda q: 2 + q[-1]))
        for mesh in (kuhn, shuffled_mesh(d, n, seed=d),
                     permuted_mesh(shuffled_mesh(d, n, seed=d + 1), seed=d))]
    for mesh, kernel in cases:
        got = assemble_vector_optv2(mesh, kernel)
        want = assemble_vector_base(mesh, kernel)
        assert got.shape == want.shape == (d * mesh.nq, d * mesh.nq)
        for field in ("row_ptr", "col_idx", "vals"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    node_pairs = np.unique(kuhn.me[:, None, :] * kuhn.nq + kuhn.me[None, :, :])
    assert assemble_vector_optv2(*cases[0]).nnz < d * d * len(node_pairs)


def test_vector_optvs_requires_symmetric_kernel():
    mesh = generate_hypercube_mesh(2, 1)
    kernel = ElasticKernel(mesh)
    kernel.symmetric = False
    with pytest.raises(NonSymmetricKernelError):
        assemble_vector_optvs(mesh, kernel)


def test_elastic_rigid_modes_small():
    for d, n in [(2, 3), (3, 2)]:
        mesh = generate_hypercube_mesh(d, n)
        for lamb, mu in [(1.0, 1.0),
                         (lambda q: 1 + q[0], lambda q: 2 + q[d - 1])]:
            kernel = ElasticKernel(mesh, lamb, mu)
            dense = assemble_vector_optv2(mesh, kernel).to_dense()
            norm = np.abs(dense).max()
            for u in rigid_body_modes(mesh, d):
                residual = np.abs(dense @ u).max()
                assert residual <= 1e-10 * norm * np.abs(u).max()


# ---------------------------------------------------------------------------
# Dense-oracle equivalence (small meshes)


@pytest.mark.parametrize("d,n", [(1, 12), (2, 6), (3, 2)])
def test_scalar_drivers_match_dense_oracle(d, n):
    mesh = generate_hypercube_mesh(d, n)
    assert mesh.nq <= 60
    for kernel in (MassKernel(mesh, lambda q: 1 + q[0]), StiffnessKernel(mesh)):
        want = dense_assembly_scalar(mesh, kernel)
        scale = np.abs(want).max()
        for driver in SCALAR_DRIVERS.values():
            got = driver(mesh, kernel).to_dense()
            assert np.abs(got - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("d,n", [(2, 4), (3, 2)])
def test_vector_drivers_match_dense_oracle(d, n):
    mesh = generate_hypercube_mesh(d, n)
    assert mesh.nq <= 60
    kernel = ElasticKernel(mesh, lambda q: 1 + q[0], 1.5)
    want = dense_assembly_vector(mesh, kernel)
    scale = np.abs(want).max()
    for driver in VECTOR_DRIVERS.values():
        got = driver(mesh, kernel).to_dense()
        assert np.abs(got - want).max() <= 1e-12 * scale


def shuffled_mesh(d, n, seed):
    """Jittered Kuhn mesh whose local vertex order is permuted per element,
    so that local pairs map to global entries in no consistent order."""
    rng = np.random.default_rng(seed)
    kuhn = generate_hypercube_mesh(d, n)
    q = kuhn.q + rng.uniform(-0.15, 0.15, kuhn.q.shape) / n
    me = np.take_along_axis(kuhn.me, rng.permuted(
        np.broadcast_to(np.arange(d + 1)[:, None], kuhn.me.shape), axis=0), axis=0)
    return Mesh.from_arrays(q, me)


@pytest.mark.parametrize("d,n", [(1, 12), (2, 4), (3, 2)])
def test_drivers_match_dense_oracle_on_shuffled_mesh(d, n):
    mesh = shuffled_mesh(d, n, seed=d)
    assert mesh.nq <= 60
    assert not np.array_equal(mesh.me, generate_hypercube_mesh(d, n).me)
    for kernel in (MassKernel(mesh, lambda q: 1 + q[0] * q[-1]),
                   StiffnessKernel(mesh)):
        want = dense_assembly_scalar(mesh, kernel)
        scale = np.abs(want).max()
        got = {name: driver(mesh, kernel)
               for name, driver in SCALAR_DRIVERS.items()}
        for mat in got.values():
            assert np.abs(mat.to_dense() - want).max() <= 1e-12 * scale
        for field in ("row_ptr", "col_idx", "vals"):
            assert np.array_equal(getattr(got["optv1"], field),
                                  getattr(got["optv2"], field))
    if d >= 2:
        kernel = ElasticKernel(mesh, lambda q: 1 + q[0], lambda q: 2 + q[-1])
        want = dense_assembly_vector(mesh, kernel)
        scale = np.abs(want).max()
        for driver in VECTOR_DRIVERS.values():
            got = driver(mesh, kernel).to_dense()
            assert np.abs(got - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("d,n", [(2, 16), (3, 4)])
def test_optv2_is_deterministic_and_matches_scipy(d, n):
    mesh = shuffled_mesh(d, n, seed=10 + d)
    for driver, kernel in (
            (assemble_optv2, StiffnessKernel(mesh)),
            (assemble_vector_optv2,
             ElasticKernel(mesh, lambda q: 1 + q[0], lambda q: 2 + q[-1]))):
        m = getattr(kernel, "m", 1)
        first, second = driver(mesh, kernel), driver(mesh, kernel)
        for field in ("row_ptr", "col_idx", "vals"):
            assert getattr(first, field).tobytes() == getattr(second, field).tobytes()

        # every local pair's triplets, built without the package's drivers
        size = m * (d + 1)
        rows, cols, vals = [], [], []
        for ii, jj in itertools.product(range(size), repeat=2):
            (l, alpha), (k, beta) = divmod(ii, d + 1), divmod(jj, d + 1)
            rows.append(m * mesh.me[alpha] + l)
            cols.append(m * mesh.me[beta] + k)
            vals.append(kernel.batched(l, alpha, k, beta) if m > 1
                        else kernel.batched(alpha, beta))
        triplets = (m * mesh.nq, m * mesh.nq, np.concatenate(rows),
                    np.concatenate(cols), np.concatenate(vals))
        want = scipy_coo_to_csr(*triplets)
        assert np.array_equal(first.row_ptr, want.indptr)
        assert np.array_equal(first.col_idx, want.indices)
        # summation error bound of either order: count * eps * sum |v|
        stored = want.nonzero()
        count, mass = (np.asarray(scipy_coo_to_csr(*triplets[:4], v)[stored]).ravel()
                       for v in (np.ones_like(triplets[4]), np.abs(triplets[4])))
        bound = count * np.finfo(float).eps * mass
        assert np.all(np.abs(first.vals - want.data) <= bound)


# ---------------------------------------------------------------------------
# Invariance under renumbering


def property_mesh(d):
    """A jittered 2D or 3D Kuhn mesh of 18 or 48 elements whose local
    vertex order is shuffled."""
    return shuffled_mesh(d, 3 if d == 2 else 2, seed=40 + d)


def kernel_and_drivers(mesh, vector):
    """Stiffness and the scalar drivers, or variable-Lame elasticity and the
    vector drivers, on ``mesh``."""
    if vector:
        return (ElasticKernel(mesh, lambda q: 1 + q[0], lambda q: 2 + q[-1]),
                VECTOR_DRIVERS)
    return StiffnessKernel(mesh), SCALAR_DRIVERS


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([2, 3]), vector=st.booleans(), data=st.data())
def test_relabelling_the_vertices_permutes_the_matrix_bitwise(d, vector, data):
    # every element keeps its place and its local order, so each entry
    # sums the same terms in the same order
    mesh = property_mesh(d)
    new_id = np.array(data.draw(st.permutations(range(mesh.nq))))
    q = np.empty_like(mesh.q)
    q[:, new_id] = mesh.q
    relabelled = Mesh.from_arrays(q, new_id[mesh.me])
    m = d if vector else 1
    new_dof = (m * new_id[:, None] + np.arange(m)).ravel()
    kernel, drivers = kernel_and_drivers(mesh, vector)
    new_kernel, _ = kernel_and_drivers(relabelled, vector)
    for name in ("base", "optv1", "optv2"):
        if name not in drivers:
            continue
        a = drivers[name](mesh, kernel)
        # distinct keys, so each entry is its one value
        want = sparse_from_triplets(TripletBatch(
            a.nrows, a.ncols, new_dof[a.row_indices()], new_dof[a.col_idx], a.vals))
        got = drivers[name](relabelled, new_kernel)
        for field in ("row_ptr", "col_idx", "vals"):
            x, y = getattr(got, field), getattr(want, field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (name, field)


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([2, 3]), vector=st.booleans(), data=st.data())
def test_reordering_the_elements_changes_entries_by_roundoff_only(d, vector, data):
    mesh = property_mesh(d)
    order = np.array(data.draw(st.permutations(range(mesh.nme))))
    reordered = Mesh.from_arrays(mesh.q, mesh.me[:, order])
    kernel, drivers = kernel_and_drivers(mesh, vector)
    new_kernel, _ = kernel_and_drivers(reordered, vector)
    for name, driver in drivers.items():
        a, b = driver(mesh, kernel), driver(reordered, new_kernel)
        assert max_abs_diff(a, b) <= 1e-12 * max_abs(a), name


@settings(max_examples=20, deadline=None)
@given(d=st.sampled_from([2, 3]), data=st.data())
def test_stiffness_is_invariant_under_rigid_motions(d, data):
    # a rotation (det +1) and a translation change the geometry by roundoff
    # only: the same pattern, values within 1e-12 of the largest entry
    mesh = property_mesh(d)
    # a product of plane rotations, one per coordinate plane: every
    # rotation in 2D and, as Tait-Bryan angles, in 3D
    rot = np.eye(d)
    for i, j in itertools.combinations(range(d), 2):
        angle = data.draw(st.floats(-np.pi, np.pi))
        plane = np.eye(d)
        plane[[i, j], [i, j]] = np.cos(angle)
        plane[i, j], plane[j, i] = -np.sin(angle), np.sin(angle)
        rot = rot @ plane
    assert np.linalg.det(rot) > 0
    shift = np.array(data.draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False),
                                        min_size=d, max_size=d)))
    moved = Mesh.from_arrays(rot @ mesh.q + shift[:, None], mesh.me)
    for driver in (assemble_optv2, assemble_optvs):
        a = driver(mesh, StiffnessKernel(mesh))
        b = driver(moved, StiffnessKernel(moved))
        assert np.array_equal(a.row_ptr, b.row_ptr), driver.__name__
        assert np.array_equal(a.col_idx, b.col_idx), driver.__name__
        assert np.abs(a.vals - b.vals).max() <= 1e-12 * max_abs(a), driver.__name__


@settings(max_examples=10, deadline=None)
@given(d=st.sampled_from([2, 3]), vector=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_every_strategy_is_deterministic(d, vector, seed):
    # the same input, built twice, gives the same bits from every strategy
    outputs = []
    for _ in range(2):
        mesh = shuffled_mesh(d, 3 if d == 2 else 2, seed=seed)
        kernel, drivers = kernel_and_drivers(mesh, vector)
        outputs.append({name: driver(mesh, kernel)
                        for name, driver in drivers.items()})
    assert outputs[0].keys() == (VECTOR_DRIVERS if vector else SCALAR_DRIVERS).keys()
    for name, got in outputs[0].items():
        assert same_bits(got, outputs[1][name]), name


def test_optv2_peak_memory_is_two_full_length_buffers():
    # optv2 with a symmetric kernel, scalar or vector, sums the diagonal
    # blocks densely, then holds the blocks of its upper vertex pairs and
    # their node indices (each a third of an L^2*nme float64 buffer in 2D
    # for a scalar kernel), and the constructor sorts only the upper node
    # keys, frees the index arrays before the sort and the values once the
    # blocks are summed, and lays the result out chunk by chunk: the peaks
    # measured 2.09 (stiffness) and 1.40 (elastic) buffers, the result and
    # the layout's node rows, columns and column order.  Flagged not
    # symmetric, the same kernels stream both orientations of the upper
    # vertex pairs, and the constructor blends them into upper and lower
    # runs: the peaks measured 2.74 (stiffness) and 1.57 (elastic), where a
    # full stream of every local pair, sorted by its nloc^2*nme node keys
    # with the values alive, measured 2.97 and 2.76
    mesh = shuffled_mesh(2, 64, seed=1)
    cases = []
    for symmetric, bounds in ((True, (2.6, 1.6)), (False, (3.0, 1.7))):
        stiffness = StiffnessKernel(mesh)
        elastic = ElasticKernel(mesh, lambda q: 1 + q[0], lambda q: 2 + q[-1])
        stiffness.symmetric = elastic.symmetric = symmetric
        cases += [(assemble_optv2, stiffness, bounds[0]),
                  (assemble_vector_optv2, elastic, bounds[1])]
    for driver, kernel, bound in cases:
        size = getattr(kernel, "m", 1) * (mesh.d + 1)
        driver(mesh, kernel)  # warm-up, so that first-call allocations stay out
        tracemalloc.start()
        try:
            driver(mesh, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = size * size * mesh.nme * 8
        assert peak < bound * buffer, (driver.__name__, kernel.symmetric,
                                       peak / buffer)


def test_incremental_strategies_peak_memory_per_stored_entry():
    # optvs and optv hold the growing matrix, the growing sum of one
    # component pair, one pair's batch and the merge of two of them.  The
    # peaks measured 51.0 (optvs, stiffness) and 38.3 (optv, elastic) bytes
    # per stored entry of the result, about 10% and 9% under the bounds
    # (36.4 for optv when every pair merged into the one growing matrix);
    # re-sorting both operands' keys in every add took them to 60.6 and 52.1
    mesh = shuffled_mesh(2, 64, seed=1)
    for driver, kernel, bound in (
            (assemble_optvs, StiffnessKernel(mesh), 56),
            (assemble_vector_optv,
             ElasticKernel(mesh, lambda q: 1 + q[0], lambda q: 2 + q[-1]), 42)):
        nnz = driver(mesh, kernel).nnz  # warm-up
        tracemalloc.start()
        try:
            driver(mesh, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * nnz, (driver.__name__, peak / nnz)


# ---------------------------------------------------------------------------
# Analytic identities


@pytest.mark.parametrize("d,n", [(1, 16), (2, 5), (3, 2)])
def test_mass_totals_equal_weight_integral(d, n):
    mesh = generate_hypercube_mesh(d, n)
    total_one = assemble_optv(mesh, MassKernel(mesh)).vals.sum()
    assert total_one == pytest.approx(1.0, abs=1e-10)
    total_x = assemble_optv(mesh, MassKernel(mesh, lambda q: q[0])).vals.sum()
    assert total_x == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("d,n", [(1, 16), (2, 5), (3, 3)])
def test_stiffness_row_sums_vanish(d, n):
    mesh = generate_hypercube_mesh(d, n)
    mat = assemble_optvs(mesh, StiffnessKernel(mesh))
    rows = mat.row_indices()
    row_sums = np.zeros(mat.nrows)
    np.add.at(row_sums, rows, mat.vals)
    row_abs = np.zeros(mat.nrows)
    np.add.at(row_abs, rows, np.abs(mat.vals))
    assert np.abs(row_sums).max() <= 1e-10 * row_abs.max()


# ---------------------------------------------------------------------------
# Lattice mass matrices


def test_mass_pk_order_one_equals_p1_mass():
    mesh = generate_hypercube_mesh(2, 4)
    lattice = build_pk_mesh(mesh, 1)
    got = assemble_mass_pk(lattice, pk_mass_coeffs(2, 1))
    want = assemble_optv2(mesh, MassKernel(mesh))
    assert max_abs_diff(got, want) <= 1e-13 * max_abs(want)


@pytest.mark.parametrize("d,k", [(1, 4), (2, 2), (2, 3), (3, 2)])
def test_mass_pk_total_is_domain_volume(d, k):
    mesh = generate_hypercube_mesh(d, 2)
    lattice = build_pk_mesh(mesh, k)
    mat = assemble_mass_pk(lattice, pk_mass_coeffs(d, k))
    assert mat.vals.sum() == pytest.approx(1.0, abs=1e-10)


def test_mass_pk_single_interval_local_matrix():
    mesh = generate_hypercube_mesh(1, 1)
    lattice = build_pk_mesh(mesh, 2)
    mat = assemble_mass_pk(lattice, pk_mass_coeffs(1, 2)).to_dense()
    local = mat[np.ix_(lattice.me[:, 0], lattice.me[:, 0])]
    want = np.array([[4., 2., -1.], [2., 16., 2.], [-1., 2., 4.]]) / 30
    assert np.allclose(local, want, atol=1e-16)


def test_mass_pk_rejects_mismatched_table():
    mesh = generate_hypercube_mesh(2, 1)
    lattice = build_pk_mesh(mesh, 2)
    with pytest.raises(ValueError):
        assemble_mass_pk(lattice, pk_mass_coeffs(2, 3))
    with pytest.raises(ValueError):
        assemble_mass_pk(lattice, pk_mass_coeffs(1, 2))
