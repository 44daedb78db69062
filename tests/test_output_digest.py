"""The package's output bits, pinned.

``tests/data/output_digest.txt`` is the output of
``scripts/output_digest.py``: one SHA-256 per matrix, MatrixMarket file,
read-back matrix, mesh and batch that the package makes on fixed small
inputs.  A change that moves any of those bits fails here.  Regenerate
the file only for a change that means to move them, and say why.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pinned_lines():
    """(case, SHA-256) of every line of the pinned file but the total."""
    lines = (ROOT / "tests" / "data" / "output_digest.txt").read_text().splitlines()
    pairs = [line.split("  ", 1)[::-1] for line in lines]
    assert pairs[-1][0] == "total"
    return pairs[:-1]


def compared(pairs):
    # the d = 4 geometry goes through LAPACK, whose bits may differ between
    # builds; every other digest comes from elementwise arithmetic, exact
    # sorts and sequential bincounts
    return {case: sha for case, sha in pairs if "d=4" not in case}


def test_outputs_match_the_pinned_digests(tmp_path):
    pinned = pinned_lines()
    got = list(load_script().cases(tmp_path / "a.mtx"))
    assert [case for case, _ in got] == [case for case, _ in pinned]
    want = compared(pinned)
    assert len(want) == len(pinned) - 3
    changed = [case for case, sha in compared(got).items() if sha != want[case]]
    assert not changed, changed
