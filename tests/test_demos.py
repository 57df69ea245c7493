"""Every demo script runs to completion in a fresh interpreter and prints
the bytes pinned here."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout, the same under any PYTHONHASHSEED.
STDOUT_SHA256 = {
    "01_sumsets_and_progressions.py":
        "6510b93f1788d02fa3fd19e9bfe109a8f2db152e6a13d1872b56748a8289ef6f",
    "02_signed_graphs_from_labelings.py":
        "3ee46909d57f67bc1f74180a5e6ec381bdbcfb8478b3ebcb7da7ec10bcaae293",
    "03_balance_and_clusterability.py":
        "ee0a9b0d06c7393267e9f8a789e0aa9f856d22fdce5d1d388b57d14b3b254b9d",
    "04_labeled_graph_transforms.py":
        "d64b218f6b25e76380ca423f07ccb2281404f86f22a546b06cb9c8a41bfa23b0",
    "05_theorem_experiments.py":
        "37a1b376464260aab16d76cbbf7d5c36df8fb18f7fd1fe1f94f30f7f07bcdedb",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
