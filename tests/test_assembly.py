import collections
import itertools
import tracemalloc

import numpy as np
import pytest

import simplex_asm.assembly
from simplex_asm import (
    ElasticKernel,
    MassKernel,
    Mesh,
    NonSymmetricKernelError,
    SCALAR_DRIVERS,
    StiffnessKernel,
    VECTOR_DRIVERS,
    assemble_base,
    assemble_mass_pk,
    assemble_optv,
    assemble_optv1,
    assemble_optv2,
    assemble_optvs,
    assemble_vector_optv,
    assemble_vector_optv2,
    assemble_vector_optvs,
    build_pk_mesh,
    generate_hypercube_mesh,
    max_abs,
    max_abs_diff,
    pk_mass_coeffs,
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
    # both produce the same element-major triplet stream; optv2 hands the
    # constructor its own buffers, optv1 new lists.  The shuffled mesh's
    # 73,728 triplets span several of the constructor's in-place chunks.
    for mesh in (generate_hypercube_mesh(2, 5), shuffled_mesh(2, 64, seed=3)):
        kernel = StiffnessKernel(mesh)
        a = assemble_optv1(mesh, kernel)
        b = assemble_optv2(mesh, kernel)
        assert np.array_equal(a.vals, b.vals)
        assert np.array_equal(a.col_idx, b.col_idx)
        assert np.array_equal(a.row_ptr, b.row_ptr)


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
def test_optvs_strict_triangle_before_transpose(vector):
    # local dofs (l, alpha) are ordered component-major; before the
    # transpose-add the sweep visits the strict upper triangle row by row
    mesh = generate_hypercube_mesh(2, 1 if vector else 2)
    if vector:
        rec = RecordingVector(ElasticKernel(mesh))
        assemble_vector_optvs(mesh, rec)
        calls = [((l, a), (n, b)) for l, a, n, b in rec.calls]
        size = rec.m * (mesh.d + 1)
    else:
        rec = RecordingScalar(StiffnessKernel(mesh))
        assemble_optvs(mesh, rec)
        calls = [((a,), (b,)) for a, b in rec.calls]
        size = mesh.d + 1
    first_diag = next(i for i, (row, col) in enumerate(calls) if row == col)
    upper = calls[:first_diag]
    assert len(upper) == size * (size - 1) // 2
    assert upper == sorted(upper)
    for row, col in upper:
        assert row < col      # strictly one-sided pairs only
    for row, col in calls[first_diag:]:
        assert row == col     # diagonal sweep after the transpose add


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
        size = getattr(kernel, "m", 1) * (mesh.d + 1)   # L local dofs
        pairs, half = size * size, size * (size + 1) // 2
        expected = {
            "base": ({"sparse_from_triplets": 1}, {"single": pairs * mesh.nme}),
            "optv1": ({"sparse_from_triplets": 1}, {"single": pairs * mesh.nme}),
            "optv2": ({"sparse_from_triplets": 1}, {"batched": pairs}),
            "optv": ({"sparse_from_triplets": pairs, "add": pairs},
                     {"batched": pairs}),
            "optvs": ({"sparse_from_triplets": half, "add": half + 1,
                       "transpose": 1}, {"batched": half}),
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


def test_optv2_peak_memory_is_two_full_length_buffers():
    # optv2 holds its element-major values and the constructor's keys, and
    # no third array of that length: the peaks measured 2.97 (stiffness) and
    # 3.08 (elastic) L^2*nme float64 buffers, and keeping the pair-major
    # values alive through the construction takes them to about 4
    mesh = shuffled_mesh(2, 64, seed=1)
    for driver, kernel in (
            (assemble_optv2, StiffnessKernel(mesh)),
            (assemble_vector_optv2,
             ElasticKernel(mesh, lambda q: 1 + q[0], lambda q: 2 + q[-1]))):
        size = getattr(kernel, "m", 1) * (mesh.d + 1)
        driver(mesh, kernel)  # warm-up, so that first-call allocations stay out
        tracemalloc.start()
        try:
            driver(mesh, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = size * size * mesh.nme * 8
        assert peak < 3.3 * buffer, (driver.__name__, peak / buffer)


def test_incremental_strategies_peak_memory_per_stored_entry():
    # optvs and optv hold the growing matrix, one pair's batch and the merge
    # of the two.  The peaks measured 51.0 (optvs, stiffness) and 36.4 (optv,
    # elastic) bytes per stored entry of the result, about 10% and 15% under
    # the bounds; re-sorting both operands' keys in every add took them to
    # 60.6 and 52.1
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
