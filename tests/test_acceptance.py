"""Acceptance suite: one test per criterion, one printed line per criterion.

The PASS/FAIL lines bypass output capture, so any `pytest` run shows them;
add `-s` to also see the per-criterion detail lines (slopes, diffs, byte
counts).
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from simplex_asm import (
    ElasticKernel,
    MassKernel,
    SCALAR_DRIVERS,
    StiffnessKernel,
    VECTOR_DRIVERS,
    assemble_mass_pk,
    assemble_optv2,
    barycentric_moment,
    build_elastic_tables,
    build_pk_mesh,
    generate_hypercube_mesh,
    max_abs,
    max_abs_diff,
    pk_mass_coeffs,
)
from simplex_asm.bench import BenchConfig, aux_memory_bytes, run_bench

from oracles import (
    dense_assembly_scalar,
    dense_assembly_vector,
    elasticity_matrix,
    integrate_bary_monomial,
    rigid_body_modes,
    voigt_strain_basis,
)


@pytest.fixture
def report(capsys):
    """One PASS/FAIL line per criterion, emitted past pytest's capture."""
    @contextmanager
    def criterion(num, name):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\n[acceptance] criterion {num} ({name}): FAIL",
                      flush=True)
            raise
        with capsys.disabled():
            print(f"\n[acceptance] criterion {num} ({name}): PASS", flush=True)
    return criterion


def pairwise_reldiff(matrices: dict) -> float:
    """Largest pairwise max_abs_diff over the union pattern, relative to the
    largest entry magnitude across all given matrices."""
    scale = max(max_abs(m) for m in matrices.values())
    worst = 0.0
    for a, b in itertools.combinations(matrices, 2):
        worst = max(worst, max_abs_diff(matrices[a], matrices[b]))
    return worst / scale if scale else worst


def matvec(mat, u):
    prods = mat.vals * u[mat.col_idx]
    return np.bincount(mat.row_indices(), weights=prods, minlength=mat.nrows)


def inf_norm(mat) -> float:
    sums = np.bincount(mat.row_indices(), weights=np.abs(mat.vals),
                       minlength=mat.nrows)
    return float(sums.max()) if mat.nnz else 0.0


SCALAR_KERNELS = {
    "mass w=1": lambda mesh: MassKernel(mesh),
    "mass w=x1": lambda mesh: MassKernel(mesh, lambda q: q[0]),
    "stiffness": lambda mesh: StiffnessKernel(mesh),
}

ELASTIC_FIELDS = {
    "lame const": (1.0, 1.0),
    "lame variable": (lambda q: 1.0 + q[0], lambda q: 2.0 + q[-1]),
}


def test_criterion_1_variant_equivalence(report):
    """All implemented variants agree pairwise within 1e-12 * max entry on
    hypercube meshes reaching 1e5 elements, in under a minute.

    The per-element python strategies (base, optv1) join on meshes of a few
    thousand elements; the batched strategies are additionally cross-checked
    on the large meshes, where the loop-per-entry strategies would spend the
    whole runtime budget on interpreter overhead.
    """
    t0 = time.perf_counter()
    all_small = {1: 2000, 2: 33, 3: 7}        # everything incl. base/optv1
    batched_large = {1: 100000, 2: 224, 3: 26}  # nme >= 1e5
    batched = ("optv2", "optv", "optvs")
    checked = []

    with report(1, "variant equivalence"):
        for label, make in SCALAR_KERNELS.items():
            for d in (1, 2, 3):
                mesh = generate_hypercube_mesh(d, all_small[d])
                kern = make(mesh)
                mats = {v: SCALAR_DRIVERS[v](mesh, kern) for v in SCALAR_DRIVERS}
                rel = pairwise_reldiff(mats)
                assert rel <= 1e-12, (label, d, "small", rel)

                mesh = generate_hypercube_mesh(d, batched_large[d])
                assert mesh.nme >= 1e5
                kern = make(mesh)
                mats = {v: SCALAR_DRIVERS[v](mesh, kern) for v in batched}
                rel = pairwise_reldiff(mats)
                assert rel <= 1e-12, (label, d, "large", rel)
                checked.append((label, d, mesh.nme, rel))

        elastic_small = {2: 12, 3: 4}
        elastic_large = {2: 160, 3: 16}
        for label, (lamb, mu) in ELASTIC_FIELDS.items():
            for d in (2, 3):
                mesh = generate_hypercube_mesh(d, elastic_small[d])
                kern = ElasticKernel(mesh, lamb, mu)
                mats = {v: VECTOR_DRIVERS[v](mesh, kern) for v in VECTOR_DRIVERS}
                rel = pairwise_reldiff(mats)
                assert rel <= 1e-12, (label, d, "small", rel)

                mesh = generate_hypercube_mesh(d, elastic_large[d])
                kern = ElasticKernel(mesh, lamb, mu)
                mats = {v: VECTOR_DRIVERS[v](mesh, kern) for v in batched}
                rel = pairwise_reldiff(mats)
                assert rel <= 1e-12, (label, d, "large", rel)
                checked.append((label, d, mesh.nme, rel))

        # elastic reaches 1e5 elements too (cheapest pair at that size)
        mesh = generate_hypercube_mesh(3, 26)
        assert mesh.nme >= 1e5
        kern = ElasticKernel(mesh)
        mats = {v: VECTOR_DRIVERS[v](mesh, kern) for v in ("optv2", "optvs")}
        rel = pairwise_reldiff(mats)
        assert rel <= 1e-12, ("elastic 1e5", rel)
        checked.append(("lame const", 3, mesh.nme, rel))

        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"runtime budget exceeded: {elapsed:.1f}s"
    worst = max(c[-1] for c in checked)
    print(f"  {len(checked)} large-mesh configs, worst rel diff {worst:.2e}, "
          f"runtime {elapsed:.1f}s")


def test_criterion_2_dense_oracle_equivalence(report):
    """Naive dense assembly equals every variant on all meshes with
    nq <= 60, within 1e-12 relative."""
    with report(2, "dense-oracle equivalence"):
        for d, n in [(1, 12), (1, 59), (2, 6), (3, 2)]:
            mesh = generate_hypercube_mesh(d, n)
            assert mesh.nq <= 60
            for make in SCALAR_KERNELS.values():
                kern = make(mesh)
                want = dense_assembly_scalar(mesh, kern)
                scale = np.abs(want).max()
                for driver in SCALAR_DRIVERS.values():
                    got = driver(mesh, kern).to_dense()
                    assert np.abs(got - want).max() <= 1e-12 * scale
        for d, n in [(2, 4), (3, 2)]:
            mesh = generate_hypercube_mesh(d, n)
            assert mesh.nq <= 60
            for lamb, mu in ELASTIC_FIELDS.values():
                kern = ElasticKernel(mesh, lamb, mu)
                want = dense_assembly_vector(mesh, kern)
                scale = np.abs(want).max()
                for driver in VECTOR_DRIVERS.values():
                    got = driver(mesh, kern).to_dense()
                    assert np.abs(got - want).max() <= 1e-12 * scale


def test_criterion_3_analytic_invariants(report):
    """Stiffness row sums vanish, mass totals integrate the weight, and
    rigid-body fields are in the elastic kernel."""
    with report(3, "analytic invariants"):
        for d, n in [(1, 64), (2, 16), (3, 6)]:
            mesh = generate_hypercube_mesh(d, n)

            stiff = assemble_optv2(mesh, StiffnessKernel(mesh))
            row_sums = matvec(stiff, np.ones(stiff.ncols))
            assert np.abs(row_sums).max() <= 1e-10 * inf_norm(stiff)

            total = assemble_optv2(mesh, MassKernel(mesh)).vals.sum()
            assert abs(total - 1.0) <= 1e-10
            total_x = assemble_optv2(mesh, MassKernel(mesh, lambda q: q[0])).vals.sum()
            assert abs(total_x - 0.5) <= 1e-10

        for d, n in [(2, 12), (3, 5)]:
            mesh = generate_hypercube_mesh(d, n)
            for lamb, mu in ELASTIC_FIELDS.values():
                mat = VECTOR_DRIVERS["optv2"](mesh, ElasticKernel(mesh, lamb, mu))
                norm = inf_norm(mat)
                modes = rigid_body_modes(mesh, d)
                assert len(modes) == d * (d + 1) // 2
                for u in modes:
                    residual = np.abs(matvec(mat, u)).max()
                    assert residual <= 1e-10 * norm * np.abs(u).max()


def test_criterion_4_moment_formula_vs_quadrature(report):
    """The closed-form barycentric integral matches mapped Gauss quadrature
    for every exponent tuple with sum <= 4, d <= 3, within 1e-12 relative."""
    rng = np.random.default_rng(2024)
    with report(4, "barycentric moment validation"):
        count = 0
        for d in (1, 2, 3):
            ref = np.hstack([np.zeros((d, 1)), np.eye(d)])
            rand = rng.random((d, d + 1)) * 2.0 - 0.5
            while abs(np.linalg.det(rand[:, 1:] - rand[:, :1])) < 1e-2:
                rand = rng.random((d, d + 1)) * 2.0 - 0.5
            for verts in (ref, rand):
                vol = abs(np.linalg.det(verts[:, 1:] - verts[:, :1])) / math.factorial(d)
                for exps in itertools.product(range(5), repeat=d + 1):
                    if sum(exps) > 4:
                        continue
                    got = barycentric_moment(d, vol, exps)
                    want = integrate_bary_monomial(verts, exps)
                    assert abs(got - want) <= 1e-12 * abs(want), (d, exps)
                    count += 1
    print(f"  {count} exponent/simplex combinations checked")


def test_criterion_5_strain_split_identity(report):
    """The Voigt-form product eps^t C eps equals its two-table split for
    1000 random draws in d = 2 and 3, within 1e-13."""
    rng = np.random.default_rng(99)
    with report(5, "strain-split identity"):
        for d in (2, 3):
            tables = build_elastic_tables(d)
            for _ in range(1000):
                grad_a, grad_b = rng.standard_normal((2, d))
                lamb, mu = rng.random(2) * 4.0 + 0.05
                cmat = elasticity_matrix(d, lamb, mu)
                l, n = rng.integers(0, d, size=2)
                lhs = float(voigt_strain_basis(n, grad_b)
                            @ cmat @ voigt_strain_basis(l, grad_a))
                rhs = float(lamb * (grad_b @ tables.Q[n][l] @ grad_a)
                            + mu * (grad_b @ tables.S[n][l] @ grad_a))
                assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_criterion_6_lattice_mass_consistency(report):
    """Order-1 lattice mass equals the P1 path; totals integrate to the
    domain volume for k <= 4, d <= 3; the d=1, k=2 local matrix matches the
    symbolic oracle."""
    import sympy

    with report(6, "lattice mass consistency"):
        for d, n in [(1, 40), (2, 8), (3, 3)]:
            mesh = generate_hypercube_mesh(d, n)
            got = assemble_mass_pk(build_pk_mesh(mesh, 1), pk_mass_coeffs(d, 1))
            want = assemble_optv2(mesh, MassKernel(mesh))
            assert max_abs_diff(got, want) <= 1e-13 * max_abs(want)

        for d in (1, 2, 3):
            for k in (1, 2, 3, 4):
                mesh = generate_hypercube_mesh(d, 2)
                mat = assemble_mass_pk(build_pk_mesh(mesh, k), pk_mass_coeffs(d, k))
                assert abs(mat.vals.sum() - 1.0) <= 1e-10, (d, k)

        # symbolic oracle for the one-interval quadratic lattice
        x = sympy.Symbol("x")
        lam = (1 - x, x)
        table = pk_mass_coeffs(1, 2)
        basis = []
        for alpha in table.lattice:
            expr = sympy.Integer(1)
            for slot, a in enumerate(alpha):
                for j in range(a):
                    expr *= (2 * lam[slot] - j) / (j + 1)
            basis.append(sympy.expand(expr))
        oracle = [[sympy.integrate(basis[a] * basis[b], (x, 0, 1))
                   for b in range(3)] for a in range(3)]
        assert oracle == [[sympy.Rational(4, 30), sympy.Rational(2, 30),
                           sympy.Rational(-1, 30)],
                          [sympy.Rational(2, 30), sympy.Rational(16, 30),
                           sympy.Rational(2, 30)],
                          [sympy.Rational(-1, 30), sympy.Rational(2, 30),
                           sympy.Rational(4, 30)]]

        interval = generate_hypercube_mesh(1, 1)
        lattice = build_pk_mesh(interval, 2)
        dense = assemble_mass_pk(lattice, table).to_dense()
        local = dense[np.ix_(lattice.me[:, 0], lattice.me[:, 0])]
        for a in range(3):
            for b in range(3):
                assert local[a, b] == pytest.approx(float(oracle[a][b]),
                                                    rel=1e-15)


def test_criterion_7_linear_complexity(report):
    """Median assembly time of the batched strategies scales like ndof:
    the log-log slope over the three largest refinements lies in
    [0.8, 1.3].  Absolute timings are machine-specific and not asserted."""
    t0 = time.perf_counter()
    with report(7, "linear complexity"):
        # sizes where one assembly takes about 0.1-1.5 s, so scheduler
        # jitter is a few percent of the median.  The fit window does hold
        # allocator and cache regime steps: a full-length optv2 array is
        # 14.4, 28.9 and 57.5 MB at n = 316, 448 and 632, so glibc's 32 MiB
        # mmap ceiling falls between the last two sizes (at n = 632 each
        # such array is a fresh, page-faulted mapping, at n = 448 the heap
        # reuses it), and a 105 MiB last-level cache, as on the 2-vCPU host
        # the bound was set on, holds two of them at n = 448 but not at 632.
        # Eleven repetitions per cell: on a 2-vCPU shared VM, medians of 5
        # gave slopes with a standard deviation of about 0.06 (and one of
        # three full runs of an earlier version read 1.41 for optv2),
        # medians of 11 about 0.04, resampled from six sweeps of 15
        # repetitions each; scaling each call by a reference task timed
        # around it, as perfbench does, did not narrow them
        config = BenchConfig(matrix="stiffness", d=2,
                             variants=("optv2", "optv", "optvs"),
                             refinements=(316, 448, 632), reps=11)
        result = run_bench(config)
        by_variant = {}
        for rec in result.records:
            by_variant.setdefault(rec.variant, []).append(
                (rec.ndof, rec.time_median_s))
        slopes = {}
        for variant, pts in by_variant.items():
            pts = sorted(pts)[-3:]
            logs = np.log([p[0] for p in pts]), np.log([p[1] for p in pts])
            slopes[variant] = float(np.polyfit(logs[0], logs[1], 1)[0])
            assert 0.8 <= slopes[variant] <= 1.3, (variant, slopes[variant])
        elapsed = time.perf_counter() - t0
        assert elapsed < 300.0
    print("  slopes: " + ", ".join(f"{v}={s:.2f}" for v, s in slopes.items())
          + f", runtime {elapsed:.1f}s")


def test_criterion_8_memory_accounting(report):
    """Analytic auxiliary-memory ratio of the full-batch strategy to the
    incremental one for the 3D vector matrix is (d+1)^2 m^2 = 144 >= 5."""
    with report(8, "memory accounting"):
        nme = 6 * 16**3
        local_dofs = 3 * 4      # m * (d+1) for the 3D vector case
        full = aux_memory_bytes("optv2", local_dofs, nme)
        step = aux_memory_bytes("optv", local_dofs, nme)
        ratio = full / step
        assert ratio == local_dofs**2 == 144
        assert ratio >= 5.0
        result = run_bench(BenchConfig(
            matrix="elastic", d=3, variants=("optv2", "optv"),
            refinements=(16,), mode="memory"))
        assert any("ratio 144" in m for m in result.messages)
    print(f"  optv2/optv auxiliary ratio = {ratio:g} "
          f"({full} / {step} bytes at nme={nme})")
