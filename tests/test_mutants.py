"""Mutants the tests must kill.

Each row breaks the package in one place: it names a source file under
``src/sumsign``, a text that occurs exactly once in it, the text that
replaces it, and the test that must fail on the result. The check copies
``src/`` to a temporary directory, applies the one replacement and runs the
named test there in a fresh interpreter, with ``PYTHONPATH`` set to the
copy (``conftest.py`` then imports the copy). Only pytest's exit code 1,
tests failed, is a kill: 2 is a collection error, 4 a usage error and 5 a
test that was not collected. A mutant that survives is a gap in the tests;
its row stays.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

import sumsign

SRC = Path(sumsign.__file__).resolve().parent.parent
ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    source: str
    text: str
    replacement: str
    killer: str


MUTANTS = [
    Mutant(
        "closing-edge-bit-dropped",
        "graphs.py",
        "cycles.append((tuple(path), masks[-1] | bit))",
        "cycles.append((tuple(path), masks[-1]))",
        "tests/test_graphs.py::TestCycleMasks::test_masks_follow_simple_cycles",
    ),
    Mutant(
        "mask-stack-kept-on-backtrack",
        "graphs.py",
        "                stack.pop()\n                masks.pop()\n",
        "                stack.pop()\n",
        "tests/test_graphs.py::TestCycleMasks::test_masks_follow_simple_cycles",
    ),
    Mutant(
        "both-orientations-listed",
        "graphs.py",
        "if len(path) >= 3 and path[1] < path[-1]:",
        "if len(path) >= 3:",
        "tests/test_graphs.py::TestSimpleCycles::test_matches_oracle_on_small_connected_graphs",
    ),
    Mutant(
        "sweep-fast-side-reads-oracle-groups",
        "verify.py",
        "fast = _parity_groups(fund_masks, planes, full)",
        "fast = oracle",
        "tests/test_verify.py::TestSweepSignPatterns::test_sweep_equals_a_literal_recount[default]",
    ),
]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(mutant, tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = copy / "sumsign" / mutant.source
    source = path.read_text(encoding="utf-8")
    assert source.count(mutant.text) == 1
    path.write_text(source.replace(mutant.text, mutant.replacement), encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", mutant.killer],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 1, run.stdout[-2000:] + run.stderr[-2000:]
