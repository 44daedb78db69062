"""Record a BENCH file: perfbench's workloads, untraced and traced, on fixed
seeds, for one or more checkouts.

Usage, from the root of a checkout:

    python3 scripts/record_bench.py --out BENCH_<n>.json \
        [--checkout LABEL=PATH ...] [--seeds 101,102,103]

Every checkout (by default this one, labelled ``change``) runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace X``
in its own directory, for the workloads and the run length ``T`` that
``BENCHMARK.json`` declares: untraced on every seed, so that the
end-to-end metrics come in pairs of runs, and traced on the first seed,
since stage times and counts explain a result but do not decide it.  The
checkouts take turns run by run (the first to go alternates) so that
drift of the host falls on all of them alike.  Each run's result file
under ``.perfbench_out/`` is read back and reduced to:

* its environment block, sizes, sample counts and failures;
* every metric's value and unit, and for the timed metrics the median,
  quartiles, min and max of the host-scaled samples and of the raw ones,
  computed from the samples the file holds;
* no ``spans`` (a traced ``elastic-3d-sweep`` file holds about 455 KB).

Each checkout is identified by its git commit, whether ``src/`` or
``perfbench/`` differ from that commit, and a SHA-256 over the files
under them.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEASURED = ("src", "perfbench")


def spread(samples: list) -> dict:
    """Median, quartiles, min and max of ``samples``."""
    vals = sorted(samples)
    if len(vals) > 1:
        q1, median, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    else:
        q1 = median = q3 = vals[0]
    return {"median": median, "q1": q1, "q3": q3, "min": vals[0],
            "max": vals[-1], "n": len(vals)}


def identify(path: Path) -> dict:
    """Git commit, whether the measured directories differ from it, and a
    SHA-256 over their files (``__pycache__`` left out)."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(path), *args],
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    digest = hashlib.sha256()
    for top in MEASURED:
        for f in sorted((path / top).rglob("*")):
            if f.is_file() and "__pycache__" not in f.parts:
                digest.update(str(f.relative_to(path)).encode() + b"\0")
                digest.update(f.read_bytes())
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", *MEASURED)
    return {"commit": commit,
            "dirty": None if status is None else bool(status),
            "source_sha256": digest.hexdigest()}


def reduce(result: dict) -> dict:
    """A run's result file without spans, each timed metric with the
    spread of its samples."""
    metrics = {}
    for name, entry in result["metrics"].items():
        summ = result.get("summaries", {}).get(name)
        metrics[name] = dict(entry)
        if summ:
            metrics[name]["scaled"] = spread(summ["samples"])
            metrics[name]["raw"] = spread(summ["raw_samples"])
    keep = ("workload", "seed", "seconds", "trace", "environment", "sizes",
            "attempted", "failed", "fail_ratio", "failures", "speed",
            "check_s", "wall_s", "assemble_s_untraced", "assemble_s_traced",
            "not_wrapped")
    out = {k: result[k] for k in keep if k in result}
    out["metrics"] = metrics
    return out


def run_one(path: Path, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{path}: {' '.join(cmd)} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    out = path / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    with open(out) as f:
        return reduce(json.load(f))


def parse_checkout(text: str) -> tuple[str, Path]:
    label, sep, path = text.partition("=")
    if not sep or not label or not path:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {text!r}")
    path = Path(path).resolve()
    if not (path / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"{path} has no perfbench/run.py")
    return label, path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--checkout", action="append", type=parse_checkout,
                        metavar="LABEL=PATH")
    parser.add_argument("--seeds", default="101",
                        type=lambda s: [int(x) for x in s.split(",")])
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as f:
        definition = json.load(f)
    workloads = [w["name"] for w in definition["workloads"]]
    seconds = definition["run_seconds"]
    checkouts = args.checkout or [("change", ROOT)]
    if len({label for label, _ in checkouts}) != len(checkouts):
        parser.error("checkout labels must differ")

    record = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds T --trace X",
        "seconds": seconds, "seeds": args.seeds,
        "checkouts": {label: identify(path) for label, path in checkouts},
        "runs": [],
    }
    turn = 0
    for workload in workloads:
        for trace, seeds in ((0, args.seeds), (1, args.seeds[:1])):
            for seed in seeds:
                order = checkouts if turn % 2 == 0 else checkouts[::-1]
                turn += 1
                for label, path in order:
                    started = time.perf_counter()
                    run = run_one(path, workload, seed, seconds, trace)
                    print(f"{label}: {workload} seed {seed} trace {trace}: "
                          f"{run['attempted']} samples, {run['failed']} failed, "
                          f"{time.perf_counter() - started:.0f} s", flush=True)
                    record["runs"].append({"checkout": label, **run})
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
