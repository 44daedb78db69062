"""Seeded inputs and the three workloads.

Every workload exposes the same small interface to the runner:

* ``build(rng, tracer)`` makes the inputs the set-up time measures: mesh
  generation, jitter and permutation, ``Mesh.from_arrays`` and, for the file
  path, the input mesh file.  ``fresh`` workloads use a new build in every
  sample, the others keep the first one; both time ``setup_repeats``
  builds per sample.
* ``sample(base, rng)`` adds the cheap per-sample inputs (Lame fields,
  test fields).
* ``run(sample, call, tracer)`` is one timed call: kernel construction to
  canonical CSR for a strategy, or the CLI file path for ``pipeline``.
* ``check(sample, outputs)`` verifies the outputs of one sample and returns
  failure messages.

The package only ever receives the generated arrays (through
``Mesh.from_arrays``), a mesh file, or kernel coefficients.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

import simplex_asm as sa
from simplex_asm import cli

import checks
from tracing import TimedKernel

STRATEGIES = ("optv2", "optv", "optvs")
JITTER = 0.1   # interior displacement per axis, as a share of the mesh step


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def jittered_kuhn(d: int, n: int, rng, permute: bool, tracer) -> "sa.Mesh":
    """Kuhn mesh of the unit hypercube with seeded interior jitter and,
    optionally, seeded vertex and element permutations.

    Boundary nodes stay put, so the domain is still exactly [0, 1]^d.  The
    jitter is small enough that no simplex changes orientation; that is
    checked here, not assumed.
    """
    with _span(tracer, "mesh.generate"):
        grid = sa.generate_hypercube_mesh(d, n)
    q = grid.q.copy()
    me = grid.me
    interior = np.all((q > 0.0) & (q < 1.0), axis=0)
    q[:, interior] += (JITTER / n) * rng.uniform(-1.0, 1.0,
                                                 size=(d, int(interior.sum())))
    before = np.sign(checks.simplex_volumes(grid.q, me))
    after = np.sign(checks.simplex_volumes(q, me))
    if not np.array_equal(before, after):
        raise RuntimeError("jitter flipped the orientation of a simplex")
    if permute:
        vperm = rng.permutation(q.shape[1])
        permuted = np.empty_like(q)
        permuted[:, vperm] = q
        q = permuted
        me = vperm[me][:, rng.permutation(me.shape[1])]
    with _span(tracer, "mesh.from_arrays"):
        return sa.Mesh.from_arrays(q, me)


def _strategy_checks(mats: dict, label: str) -> list[str]:
    fails = []
    for call, a in mats.items():
        fails += (checks.canonical(a, f"{label} {call}")
                  or checks.symmetric(a, f"{label} {call}"))
    fails += checks.cross_gate(mats, label)
    return fails


@dataclass
class Sample:
    mesh: "sa.Mesh"
    lamb: object = None
    mu: object = None
    affine: tuple | None = None


class StiffnessFresh:
    name = "stiffness-2d-fresh"
    why = ("one-shot P1 stiffness (L=3), new permuted jittered 2D mesh per "
           "sample (131k triangles): kernel setup and sparse construction, "
           "nothing reusable")
    fresh = True
    setup_repeats = 1
    calls = STRATEGIES
    repeats: dict = {}

    def __init__(self, tiny: bool, workdir: str):
        self.n = 8 if tiny else 256

    def build(self, rng, tracer):
        return jittered_kuhn(2, self.n, rng, True, tracer)

    def sample(self, mesh, rng):
        return Sample(mesh)

    def run(self, s: Sample, call: str, tracer):
        with _span(tracer, "kernels.setup"):
            kernel = sa.StiffnessKernel(s.mesh)
        if tracer is not None:
            kernel = TimedKernel(kernel, tracer)
        with _span(tracer, "assembly.driver"):
            return sa.SCALAR_DRIVERS[call](s.mesh, kernel)

    def check(self, s: Sample, outs: dict) -> list[str]:
        fails = _strategy_checks(outs, self.name)
        x = s.mesh.q[0]
        for call, a in outs.items():
            fails += checks.null_vector(a, np.ones(a.nrows), f"{call} row sums")
            fails += checks.near(float(x @ checks.matvec(a, x)), 1.0,
                                 f"{call} x'Kx for u = x1")
        return fails

    def sizes(self, s: Sample, outs: dict) -> dict:
        return {"nme": s.mesh.nme, "nq": s.mesh.nq, "ndof": s.mesh.nq,
                "nnz": outs[self.calls[0]].nnz}

    def local_dofs(self, call):
        return 3


def lame_field(rng):
    """Smooth seeded Lame fields, each a positive constant times
    1 + a*sin(2 pi k.x + phase) with a < 1, so lamb > 0 and mu > 0."""
    base = rng.uniform(0.5, 2.0, size=2)
    amp = rng.uniform(0.1, 0.5, size=2)
    wave = rng.integers(-2, 3, size=(2, 3)).astype(float)
    phase = rng.uniform(0.0, 2.0 * math.pi, size=2)

    def field(i):
        return lambda q: base[i] * (1.0 + amp[i] * np.sin(
            2.0 * math.pi * (wave[i] @ q) + phase[i]))

    return field(0), field(1)


class ElasticSweep:
    name = "elastic-3d-sweep"
    why = ("3D elastic stiffness (L=12) on one mesh (10k tets), new Lame field "
           "per sample: 144 kernel calls and incremental add merges; mesh "
           "reuse may pay")
    fresh = False
    # set-up takes milliseconds; repeat it for a steadier median
    setup_repeats = 5
    calls = STRATEGIES
    repeats: dict = {}

    def __init__(self, tiny: bool, workdir: str):
        self.n = 3 if tiny else 12

    def build(self, rng, tracer):
        return jittered_kuhn(3, self.n, rng, False, tracer)

    def sample(self, mesh, rng):
        lamb, mu = lame_field(rng)
        grad = rng.normal(size=(3, 3))
        shift = rng.normal(size=3)
        return Sample(mesh, lamb, mu, (grad, shift))

    def run(self, s: Sample, call: str, tracer):
        with _span(tracer, "kernels.setup"):
            kernel = sa.ElasticKernel(s.mesh, lamb=s.lamb, mu=s.mu)
        if tracer is not None:
            kernel = TimedKernel(kernel, tracer)
        with _span(tracer, "assembly.driver"):
            return sa.VECTOR_DRIVERS[call](s.mesh, kernel)

    def check(self, s: Sample, outs: dict) -> list[str]:
        fails = _strategy_checks(outs, self.name)
        q, me = s.mesh.q, s.mesh.me
        # rigid-body modes: three translations, three infinitesimal rotations
        modes = [np.tile(np.eye(3)[l], q.shape[1]) for l in range(3)]
        for i, j in ((0, 1), (1, 2), (0, 2)):
            rot = np.zeros((3, q.shape[1]))
            rot[i], rot[j] = -q[j], q[i]
            modes.append(rot.T.ravel())
        # energy of u = G x + c against the element sums computed here
        grad, shift = s.affine
        u = (grad @ q + shift[:, None]).T.ravel()
        eps = 0.5 * (grad + grad.T)
        vols = np.abs(checks.simplex_volumes(q, me))
        lam_el = s.lamb(q)[me].mean(axis=0)
        mu_el = s.mu(q)[me].mean(axis=0)
        energy = float(vols @ (lam_el * np.trace(eps) ** 2
                               + 2.0 * mu_el * np.sum(eps * eps)))
        for call, a in outs.items():
            for k, r in enumerate(modes):
                fails += checks.null_vector(a, r, f"{call} rigid mode {k}")
            fails += checks.near(float(u @ checks.matvec(a, u)), energy,
                                 f"{call} affine-field energy")
        return fails

    def sizes(self, s: Sample, outs: dict) -> dict:
        return {"nme": s.mesh.nme, "nq": s.mesh.nq, "ndof": 3 * s.mesh.nq,
                "nnz": outs[self.calls[0]].nnz}

    def local_dofs(self, call):
        return 12


@dataclass
class PkBase:
    mesh: "sa.Mesh"
    mesh_path: str
    out_path: str


class Pk3FileRoundTrip:
    name = "pk3-file-roundtrip"
    why = ("CLI mesh file to order-3 mass to MatrixMarket and back (2k "
           "triangles): per-line I/O and lattice loops, plus the P1 mass of "
           "the same mesh")
    fresh = False
    setup_repeats = 5
    calls = STRATEGIES + ("pipeline",)
    # the P1 mass calls take milliseconds; repeat them for a steadier median
    repeats = {"optv2": 5, "optv": 5, "optvs": 5}
    order = 3

    def __init__(self, tiny: bool, workdir: str):
        self.n = 4 if tiny else 32
        self.workdir = workdir
        self._reference = None

    def build(self, rng, tracer):
        mesh = jittered_kuhn(2, self.n, rng, False, tracer)
        path = os.path.join(self.workdir, "input.mesh")
        with _span(tracer, "mesh.write"):
            sa.write_mesh(mesh, path)
        return PkBase(mesh, path, os.path.join(self.workdir, "mass-pk.mtx"))

    def sample(self, base, rng):
        return base

    def run(self, s: PkBase, call: str, tracer):
        if call != "pipeline":
            with _span(tracer, "kernels.setup"):
                kernel = sa.MassKernel(s.mesh)
            if tracer is not None:
                kernel = TimedKernel(kernel, tracer)
            with _span(tracer, "assembly.driver"):
                return sa.SCALAR_DRIVERS[call](s.mesh, kernel)
        self.run_cli(s, tracer)
        if tracer is not None:
            tracer.count("sparse.mm_bytes", os.path.getsize(s.out_path))
        with _span(tracer, "sparse.mm_read"):
            return sa.read_matrixmarket(s.out_path)

    def run_cli(self, s: PkBase, tracer) -> None:
        """``simplex-asm assemble --matrix mass-pk``, in-process."""
        argv = ["assemble", "--mesh", s.mesh_path, "--matrix", "mass-pk",
                "--variant", "optv2", "--order", str(self.order),
                "--out", s.out_path]
        try:
            with _span(tracer, "cli.main"), \
                    contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
        except SystemExit as exc:
            raise RuntimeError(f"cli exited with {exc.code}") from None
        if status != 0:
            raise RuntimeError(f"cli returned {status}")

    def reference(self, s: PkBase):
        """The order-k lattice and mass matrix built in memory from the same
        mesh file, once per run, untimed."""
        if self._reference is None:
            lattice = sa.build_pk_mesh(sa.read_mesh(s.mesh_path), self.order)
            mass = sa.assemble_mass_pk(lattice,
                                       sa.pk_mass_coeffs(2, self.order))
            self._reference = (lattice, mass)
        return self._reference

    def check(self, s: PkBase, outs: dict) -> list[str]:
        p1 = {c: outs[c] for c in STRATEGIES}
        fails = _strategy_checks(p1, f"{self.name} P1 mass")
        x = s.mesh.q[0]
        for call, a in p1.items():
            fails += checks.near(float(a.vals.sum()), 1.0, f"{call} 1'M1")
            fails += checks.near(float(x @ checks.matvec(a, x)), 1.0 / 3.0,
                                 f"{call} x'Mx")
        m = outs["pipeline"]
        fails += checks.canonical(m, "mass-pk read back")
        if fails:
            return fails
        fails += checks.symmetric(m, "mass-pk read back")
        lattice, mass = self.reference(s)
        fails += checks.identical(m, mass, "mass-pk")
        fails += checks.near(float(m.vals.sum()), 1.0, "mass-pk 1'M1")
        xk = lattice.q[0]
        if len(xk) == m.nrows:
            fails += checks.near(float(xk @ checks.matvec(m, xk)), 1.0 / 3.0,
                                 "mass-pk x'Mx")
        else:
            fails.append("mass-pk: size differs from the lattice")
        return fails

    def sizes(self, s: PkBase, outs: dict) -> dict:
        lattice, _ = self.reference(s)
        return {"nme": s.mesh.nme, "nq": s.mesh.nq, "ndof": s.mesh.nq,
                "nnz": outs["optv2"].nnz, "pk_ndof": lattice.nq,
                "pk_nnz": outs["pipeline"].nnz}

    def local_dofs(self, call):
        return 10 if call == "pipeline" else 3


WORKLOADS = {w.name: w for w in (StiffnessFresh, ElasticSweep, Pk3FileRoundTrip)}
