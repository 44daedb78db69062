"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

1. Checks that BENCHMARK.json names the workloads with their reasons.
   Runs every workload once per mode through ``run.py --tiny`` and checks
   that the run passes its own checks and prints every metric, each with
   a unit, including every metric BENCHMARK.json lists for the mode.
2. Corrupts one produced matrix per workload (one value changed, one entry
   dropped, two columns swapped) and checks that the sample is counted in
   ``fail_ratio`` rather than passed.
3. Checks that the same seed gives identical inputs and a second seed
   different inputs of the same sizes.

Exits 0 when everything passes, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import simplex_asm as sa  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

METRIC_LINE = re.compile(r"^(\S+) = (\S+) ([A-Za-z0-9_/%.-]+)(  \(.*\))?$")
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def printed_metrics():
    definition = run.load_definition()
    listed = {w["name"]: w["why"] for w in definition["workloads"]}
    expect(listed == {name: cls.why for name, cls in WORKLOADS.items()},
           "BENCHMARK.json lists every workload with the reason it is defined with")
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", "0.3", "--trace", str(trace),
                 "--tiny"],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            tag = f"{name} trace {trace}"
            expect(proc.returncode == 0, f"{tag}: exit code 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1])
            expect(last["correct"] and last["failed"] == 0
                   and last["attempted"] >= 1, f"{tag}: all samples correct")
            printed = {}
            for line in lines[:-1]:
                if line.startswith("#"):
                    continue
                m = METRIC_LINE.match(line)
                expect(m is not None, f"{tag}: metric line with unit: {line!r}")
                if m:
                    printed[m.group(1)] = m.group(3)
            wanted = definition["per_layer" if trace else "end_to_end"]
            for metric in wanted:
                entry = last["metrics"].get(metric["name"])
                expect(entry is not None and entry["unit"] == metric["unit"]
                       and printed.get(metric["name"]) == metric["unit"],
                       f"{tag}: {metric['name']} printed in {metric['unit']}")
            if not trace:
                expect(printed.get("fail_ratio") == "ratio",
                       f"{tag}: fail_ratio printed")


def corrupt(a, how: str):
    """A copy of CSR matrix a with one defect placed off the diagonal."""
    rows = np.repeat(np.arange(a.nrows), np.diff(a.row_ptr))
    off = np.flatnonzero(rows != a.col_idx)
    pos = int(off[len(off) // 2])
    row_ptr, col_idx, vals = a.row_ptr.copy(), a.col_idx.copy(), a.vals.copy()
    if how == "value":
        vals[pos] *= 1.0 + 1e-6
    elif how == "drop":
        col_idx = np.delete(col_idx, pos)
        vals = np.delete(vals, pos)
        row_ptr[rows[pos] + 1:] -= 1
    else:  # swap two column indices inside one row
        row = rows[pos]
        start = int(a.row_ptr[row])
        col_idx[start], col_idx[start + 1] = col_idx[start + 1], col_idx[start]
    return sa.SparseMatrix(a.nrows, a.ncols, row_ptr, col_idx, vals)


class Corrupting:
    """Workload whose ``call`` output is corrupted before the checks."""

    def __init__(self, workload, call: str, how: str):
        self._workload = workload
        self._call = call
        self._how = how

    def run(self, sample, call, tracer):
        out = self._workload.run(sample, call, tracer)
        return corrupt(out, self._how) if call == self._call else out

    def __getattr__(self, name):
        return getattr(self._workload, name)


def corrupted_samples(workdir: Path):
    for name, cls in WORKLOADS.items():
        for call in ("optvs", "pipeline"):
            if call not in cls.calls:
                continue
            for how in ("value", "drop", "swap"):
                wl = Corrupting(cls(True, str(workdir)), call, how)
                runner = run.Runner(wl, 3, 0.0, False)
                metrics, _ = runner.end_to_end()
                expect(runner.attempted >= 1 and metrics["fail_ratio"] == 1.0,
                       f"{name}: {how} defect in {call} counted in fail_ratio "
                       f"({runner.failures[:1]})")


def seeded_inputs(workdir: Path):
    for name, cls in WORKLOADS.items():
        wl = cls(True, str(workdir))

        def inputs(seed):
            runner = run.Runner(wl, seed, 0.0, False)
            s = runner.new_sample(2)
            arrays = [s.mesh.q, s.mesh.me]
            if getattr(s, "lamb", None) is not None:
                arrays += [s.lamb(s.mesh.q), s.mu(s.mesh.q)]
            return arrays

        a, a2, b = inputs(1), inputs(1), inputs(2)
        expect(all(np.array_equal(x, y) for x, y in zip(a, a2)),
               f"{name}: same seed, identical inputs")
        expect(all(x.shape == y.shape for x, y in zip(a, b)),
               f"{name}: second seed, same sizes")
        expect(not np.array_equal(a[0], b[0]),
               f"{name}: second seed, different coordinates")
        if len(a) > 2:
            expect(not np.array_equal(a[2], b[2]),
                   f"{name}: second seed, different Lame field")


def main() -> int:
    printed_metrics()
    workdir = run.OUT_DIR / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        corrupted_samples(workdir)
        seeded_inputs(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
