"""Assembly benchmark for simplex_asm.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (defined in ``workloads.py``, each with the reason it exists):

* ``stiffness-2d-fresh`` - P1 stiffness, new jittered and permuted 2D Kuhn
  mesh per sample (n=256, 131,072 triangles);
* ``elastic-3d-sweep`` - 3D isotropic elastic stiffness on one jittered
  Kuhn cube mesh (n=12, 10,368 tets) with a new Lame field per sample;
* ``pk3-file-roundtrip`` - ``simplex-asm assemble --matrix mass-pk
  --order 3`` run in-process from a mesh file (n=32, 2,048 triangles) to a
  MatrixMarket file that is read back, plus the P1 mass of the same mesh.

Each workload times the strategies ``optv2``, ``optv`` and ``optvs`` from
kernel construction to canonical CSR (``assemble_s.*``).  ``pipeline_s`` is
the time of the whole sample: the three strategies back to back on the
P1 workloads, the file path on ``pk3-file-roundtrip``.

Load model: closed loop, one caller in one process, one assembly at a time.
BLAS threads are capped at the number of usable cores before numpy loads.

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

1. set-up before every sample (``setup_s`` is the median);
2. an untimed pass under tracemalloc: one warm-up sample, then one sample
   with the peak reset just before each call (``peak_mb.*``); memory that
   earlier calls keep alive counts;
3. timed samples until ``--seconds`` have passed; every sample's outputs
   are checked untimed and a sample fails if it raises or a check fails.

The times of the end-to-end metrics (``assemble_s.*``, ``pipeline_s``,
``setup_s``) are scaled for host speed: every timed call or set-up sits
between two timings of a fixed reference task, and its seconds are scaled
to a host where that task takes ``speed.NOMINAL_S`` (see ``speed.py``).
The raw medians are printed and saved beside them.

``--trace 1`` runs each call untraced and then traced, sample after sample,
and reports per-layer metrics from the traced calls plus the tracing
overhead.  Spans are recorded by wrapping public functions from outside the
package (see ``tracing.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics that BENCHMARK.json lists for the
mode.  Every metric, with its unit, is printed above it, and the whole
result (environment, sizes, spans when traced) is written under
``.perfbench_out/`` in the checkout.  ``perfbench/selftest.py`` exercises
the benchmark at tiny sizes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from speed import NOMINAL_S, SpeedGauge
from tracing import Tracer, installed, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "assemble_s": "s", "pipeline_s": "s", "peak_mb": "MiB", "setup_s": "s",
    "fail_ratio": "ratio",
}
# per-layer metrics that only the pipeline call produces carry no suffix
PIPELINE_ONLY = {
    "mesh.read_s", "mesh.build_pk_s", "mesh.pk_nodes", "kernels.pk_coeffs_s",
    "sparse.mm_write_s", "sparse.mm_read_s", "sparse.mm_bytes",
    "cli.self_s", "cli.child_coverage",
}
SPAN_METRICS = {
    "kernels.setup": "kernels.setup_s",
    "kernels.eval": "kernels.eval_s",
    "sparse.construct": "sparse.construct_s",
    "sparse.add": "sparse.add_s",
    "sparse.transpose": "sparse.transpose_s",
    "mesh.read": "mesh.read_s",
    "mesh.build_pk": "mesh.build_pk_s",
    "kernels.pk_coeffs": "kernels.pk_coeffs_s",
    "sparse.mm_write": "sparse.mm_write_s",
    "sparse.mm_read": "sparse.mm_read_s",
    "mesh.generate": "mesh.generate_s",
    "mesh.from_arrays": "mesh.from_arrays_s",
    "mesh.write": "mesh.write_s",
}
# spans whose self time and child coverage are reported: driver -> layer
DRIVER_SPANS = {"assembly.driver": "assembly", "assembly.mass_pk": "assembly",
                "cli.main": "cli"}
LAYER_UNITS = {
    "_s": "s", "_calls": "count", "_out": "count", "_in": "count",
    "pk_nodes": "count", "mm_bytes": "B", "merge_ratio": "ratio",
    "child_coverage": "ratio", "aux_bytes_analytic": "B", "overhead": "ratio",
}


def layer_unit(name: str) -> str:
    base = name
    for suffix in (".optv2", ".optvs", ".optv", ".pipeline"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
            break
    for tail, unit in LAYER_UNITS.items():
        if base.endswith(tail):
            return unit
    raise KeyError(f"no unit for metric {name}")


def aux_bytes(local_dofs: int, nme: int, call: str) -> int:
    """Analytic batch storage of a strategy: three (L^2, nme) arrays for the
    one-shot ones (optv2 and the batched-row lattice mass), three
    nme-length arrays per step for the incremental ones."""
    if call in ("optv2", "pipeline"):
        return 3 * local_dofs * local_dofs * nme * 8
    return 3 * nme * 8


def cap_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def environment(nproc: int) -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas.update(name=info.get("name", "unknown"),
                    version=info.get("version", "unknown"))
    except (TypeError, KeyError):
        pass
    blas["threads"] = _blas_threads(np)
    return {
        "cpu": cpu, "nproc": nproc, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def _blas_threads(np):
    """Thread count OpenBLAS reports, when the bundled library is found."""
    import ctypes
    import glob

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def timing_summary(values: list, raw: list) -> dict:
    """Median, sample count and the samples; plus the highest percentile
    that has at least ten samples beyond it, once that percentile lies above
    the median (21 samples or more).  ``raw`` are the same samples before
    scaling for host speed."""
    vals = sorted(values)
    n = len(vals)
    out = {"median": statistics.median(vals), "n": n, "samples": list(values),
           "raw_median": statistics.median(raw), "raw_samples": list(raw)}
    if n > 20:
        out["p_hi"] = vals[n - 11]
        out["p_hi_rank"] = round(100.0 * (n - 10) / n, 1)
    return out


class Runner:
    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        import numpy as np

        self.np = np
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.setup_times: list[float] = []
        self.setup_raw: list[float] = []
        self.setup_layers: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.sizes: dict = {}
        self.check_s = 0.0
        self.base = None
        self.tracer = Tracer() if trace else None
        # end-to-end times are scaled for host speed; traced runs stay raw
        self.gauge = None if trace else SpeedGauge()
        self.missing: list[str] = []   # patch targets the package lacks

    def rng(self, *tag):
        return self.np.random.default_rng([self.seed, *tag])

    def build(self, tag: int):
        tracer = self.tracer
        mark = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.scope = "setup"
        if self.gauge:
            base, raw, scaled = self.gauge.timed(
                lambda: self.wl.build(self.rng(0, tag), None),
                self.wl.setup_repeats)
            self.setup_raw += raw
            self.setup_times += scaled
        else:
            t0 = time.perf_counter()
            base = self.wl.build(self.rng(0, tag), tracer)
            self.setup_times.append(time.perf_counter() - t0)
        if tracer:
            for (_, name), agg in summarize(tracer.spans[mark:], mark).items():
                self.setup_layers.setdefault(SPAN_METRICS[name], []).append(
                    agg["total_s"])
        return base

    def new_sample(self, index: int):
        """Inputs of one sample.  Set-up runs before every sample, so that
        setup_s spans the whole run; a workload that keeps one mesh per run
        keeps the first set-up's result (the later ones are identical).
        Untraced, the workload's ``setup_repeats`` builds are timed."""
        base = self.build(index if self.wl.fresh else 0)
        if not self.wl.fresh:
            if self.base is None:
                self.base = base
            base = self.base
        return self.wl.sample(base, self.rng(1, index))

    def run_call(self, sample, call, tracer=None):
        t0 = time.perf_counter()
        out = self.wl.run(sample, call, tracer)
        return out, time.perf_counter() - t0

    def record(self, sample, outs: dict, error: str | None) -> None:
        self.attempted += 1
        fails = [error] if error else []
        t0 = time.perf_counter()
        if not fails:
            try:
                fails = self.wl.check(sample, outs)
                if not self.sizes:
                    self.sizes = self.wl.sizes(sample, outs)
            except Exception as exc:  # a crashing check fails the sample
                fails = [f"check raised {exc!r}"]
        self.check_s += time.perf_counter() - t0
        if fails:
            self.failed += 1
            self.failures.extend(fails[: 5 - len(self.failures)])

    # -- end-to-end -------------------------------------------------------

    def peak_pass(self) -> dict:
        """tracemalloc peaks (MiB), untimed, over two samples that are also
        the warm-up.

        The first sample gives the pipeline peak: the whole sample with its
        outputs kept where the pipeline is the three strategies, or the CLI
        call, first in the run as it would be in a fresh process.  The
        second gives each strategy's peak, reset just before the call, so
        memory the first sample left alive counts."""
        warm, probe = self.new_sample(0), self.new_sample(1)
        strategies = [c for c in self.wl.calls if c != "pipeline"]
        mib = float(1 << 20)
        peaks = {}
        tracemalloc.start()
        try:
            if "pipeline" not in self.wl.calls:
                outs = [self.wl.run(warm, c, None) for c in strategies]
            else:
                for call in strategies:
                    self.wl.run(warm, call, None)
                tracemalloc.reset_peak()
                outs = self.wl.run_cli(warm, None)
            peaks["peak_mb.pipeline"] = tracemalloc.get_traced_memory()[1] / mib
            del outs
            for call in strategies:
                tracemalloc.reset_peak()
                out = self.wl.run(probe, call, None)
                peaks[f"peak_mb.{call}"] = tracemalloc.get_traced_memory()[1] / mib
                del out
        finally:
            tracemalloc.stop()
        return peaks

    def end_to_end(self) -> tuple[dict, dict]:
        peaks = self.peak_pass()
        times = {call: [] for call in self.wl.calls}
        composite = "pipeline" not in times
        if composite:
            times["pipeline"] = []
        raw_times = {call: [] for call in times}
        deadline = time.perf_counter() + self.seconds
        index = 2
        while True:
            sample = self.new_sample(index)
            outs, error, total, total_raw = {}, None, 0.0, 0.0
            try:
                for call in self.wl.calls:
                    outs[call], raw, scaled = self.gauge.timed(
                        lambda: self.wl.run(sample, call, None),
                        self.wl.repeats.get(call, 1), chain=True)
                    times[call] += scaled
                    raw_times[call] += raw
                    total += scaled[-1]
                    total_raw += raw[-1]
                if composite:
                    times["pipeline"].append(total)
                    raw_times["pipeline"].append(total_raw)
            except Exception as exc:  # a raising sample fails, the run goes on
                error = f"sample {index} raised {exc!r}"
            self.record(sample, outs, error)
            index += 1
            if time.perf_counter() >= deadline:
                break
        summaries = {}
        metrics = dict(peaks)
        for call, vals in times.items():
            if not vals:
                continue
            name = "pipeline_s" if call == "pipeline" else f"assemble_s.{call}"
            summaries[name] = timing_summary(vals, raw_times[call])
            metrics[name] = summaries[name]["median"]
        summaries["setup_s"] = timing_summary(self.setup_times, self.setup_raw)
        metrics["setup_s"] = summaries["setup_s"]["median"]
        metrics["fail_ratio"] = self.failed / self.attempted
        return metrics, summaries

    def speed(self) -> dict:
        """The reference task's timings behind the scaled times."""
        if not self.gauge or not self.gauge.references:
            return {}
        refs = self.gauge.references
        return {"nominal_s": NOMINAL_S, "reference_median_s":
                statistics.median(refs), "reference_min_s": min(refs),
                "reference_max_s": max(refs), "references": len(refs)}

    # -- per layer --------------------------------------------------------

    def traced_call(self, sample, call, index):
        tracer = self.tracer
        tracer.scope = f"{call}#{index}"
        tracer.counts.clear()
        mark = len(tracer.spans)
        with installed(tracer, self.missing):
            out, dt = self.run_call(sample, call, tracer)
        summary = summarize(tracer.spans[mark:], mark)
        layer = {}
        for (_, name), agg in summary.items():
            if name in SPAN_METRICS:
                layer[self.layer_name(SPAN_METRICS[name], call)] = agg["total_s"]
            if name in DRIVER_SPANS:
                prefix = DRIVER_SPANS[name]
                layer[self.layer_name(f"{prefix}.self_s", call)] = agg["self_s"]
                layer[self.layer_name(f"{prefix}.child_coverage", call)] = (
                    agg["covered_s"] / agg["total_s"] if agg["total_s"] else 0.0)
        for (_, name), value in tracer.counts.items():
            layer[self.layer_name(name, call)] = value
        layer[self.layer_name("sparse.nnz_out", call)] = out.nnz
        triplets = layer.get(self.layer_name("sparse.triplets_in", call))
        if triplets:
            layer[self.layer_name("sparse.merge_ratio", call)] = out.nnz / triplets
        layer[self.layer_name("assembly.aux_bytes_analytic", call)] = aux_bytes(
            self.wl.local_dofs(call), sample.mesh.nme, call)
        return out, dt, layer

    @staticmethod
    def layer_name(base: str, call: str) -> str:
        if call == "pipeline" and base in PIPELINE_ONLY:
            return base
        return f"{base}.{call}"

    def per_layer(self) -> tuple[dict, dict]:
        warm = self.new_sample(0)
        for call in self.wl.calls:
            self.wl.run(warm, call, None)
        untraced = {call: [] for call in self.wl.calls}
        traced = {call: [] for call in self.wl.calls}
        layers: dict[str, list] = {}
        deadline = time.perf_counter() + self.seconds
        index = 1
        while True:
            sample = self.new_sample(index)
            outs, error = {}, None
            try:
                for call in self.wl.calls:
                    _, dt = self.run_call(sample, call)
                    untraced[call].append(dt)
                    outs[call], dt, layer = self.traced_call(sample, call, index)
                    traced[call].append(dt)
                    for name, value in layer.items():
                        layers.setdefault(name, []).append(value)
            except Exception as exc:  # a raising sample fails, the run goes on
                error = f"sample {index} raised {exc!r}"
            self.record(sample, outs, error)
            index += 1
            if time.perf_counter() >= deadline:
                break
        metrics = {name: statistics.median(vals) for name, vals in layers.items()}
        for name, vals in self.setup_layers.items():
            metrics[name] = statistics.median(vals)
        for call in self.wl.calls:
            if traced[call] and untraced[call]:
                metrics[self.layer_name("trace.overhead", call)] = (
                    statistics.median(traced[call])
                    / statistics.median(untraced[call]) - 1.0)
        extra = {
            "assemble_s_untraced": {c: statistics.median(v)
                                    for c, v in untraced.items() if v},
            "assemble_s_traced": {c: statistics.median(v)
                                  for c, v in traced.items() if v},
            "not_wrapped": sorted(set(self.missing)),
        }
        return metrics, extra


def load_definition() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny meshes, for the self-test")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "simplex_asm" / "__init__.py").is_file():
        print(f"error: no simplex_asm sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    definition = load_definition()
    env = environment(nproc)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.tiny, str(workdir))
        runner = Runner(wl, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            metrics, extra = runner.per_layer()
            summaries = {}
            wanted = definition["per_layer"]
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, summaries = runner.end_to_end()
            extra = {}
            wanted = definition["end_to_end"]
            units = {name: E2E_UNITS[name.split(".")[0]] for name in metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "environment": env, "sizes": runner.sizes,
        "attempted": runner.attempted, "failed": runner.failed,
        "fail_ratio": runner.failed / runner.attempted,
        "failures": runner.failures, "summaries": summaries,
        "check_s": runner.check_s, "wall_s": time.perf_counter() - started,
        "speed": runner.speed(),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
        **extra,
    }
    print(f"# workload {wl.name}: {wl.why}")
    print(f"# seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"sizes {json.dumps(runner.sizes)}")
    print(f"# environment {json.dumps(env)}")
    if result["speed"]:
        print(f"# host speed {json.dumps(result['speed'])}")
    for name, entry in result["metrics"].items():
        line = f"{name} = {entry['value']!r} {entry['unit']}"
        summ = summaries.get(name)
        if summ:
            line += f"  (median of {summ['n']}"
            if "p_hi" in summ:
                line += f"; p{summ['p_hi_rank']:g} {summ['p_hi']!r}"
            else:
                line += "; too few samples for a tail percentile"
            line += f"; raw median {summ['raw_median']!r} s)"
        print(line)
    for key in ("assemble_s_untraced", "assemble_s_traced", "not_wrapped"):
        if key in extra:
            print(f"# {key} {json.dumps(extra[key])}")
    for msg in runner.failures:
        print(f"# FAILED: {msg}")
    print(f"# checks {runner.check_s:.2f} s, run {result['wall_s']:.2f} s")
    if args.trace:
        result["spans"] = runner.tracer.spans
    OUT_DIR.mkdir(exist_ok=True)
    tag = "tiny-" if args.tiny else ""
    with open(OUT_DIR / f"{tag}{wl.name}-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump(result, f)

    for m in wanted:
        if m["name"] not in metrics:
            print(f"# not measured: {m['name']}")
    line = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
