"""The benchmark's own self-test (``perfbench/selftest.py``) as a test.

It runs every workload at tiny sizes in both modes and checks canonical
CSR output, the 1e-12 cross-strategy gate, the bit-identical read-back
and that corrupted matrices are counted as failures.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
