"""The benchmark's own self-test (``perfbench/selftest.py``) as a test,
and the module attributes that its tracer wraps.

The self-test runs every workload at tiny sizes in both modes and checks
canonical CSR output, the 1e-12 cross-strategy gate, the bit-identical
read-back and that corrupted matrices are counted as failures.
"""

import collections
import importlib.util
import subprocess
import sys
from pathlib import Path

import simplex_asm.cli as cli
from simplex_asm import generate_hypercube_mesh, write_mesh

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]


def trace_patches():
    """``PATCHES`` of ``perfbench/tracing.py``, loaded without running it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_trace_boundaries_are_called_through(tmp_path, monkeypatch):
    # an attribute the tracer cannot find is skipped, and one the code no
    # longer calls through records nothing; either would lose a stage
    patches = trace_patches()
    for modname, attr, *_ in patches:
        assert hasattr(importlib.import_module(modname), attr), f"{modname}.{attr}"
    targets = [attr for modname, attr, *_ in patches if modname == "simplex_asm.cli"]
    assert len(targets) == 5
    calls = collections.Counter()
    for attr in targets:
        def counted(*args, _attr=attr, _real=getattr(cli, attr), **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, attr, counted)

    path = tmp_path / "square.mesh"
    write_mesh(generate_hypercube_mesh(2, 3), path)
    assert cli.main(["assemble", "--mesh", str(path), "--matrix", "mass-pk",
                     "--order", "2", "--out", str(tmp_path / "pk.mtx")]) == 0
    assert calls == {attr: 1 for attr in targets}
