"""The equivalence gates reject a bad command line before running a case.

A gate that misreads its flags must not print ``PASS``: a misspelt
``--engine`` used to select no rows and pass vacuously, and a flag given
without its value used to die in a raw ``IndexError``.  Each gate parses
its argv with ``argparse``, so both end in a usage error (exit 2).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("gate, args", [
    ("check_cluster_equivalence.py", ["--engine", "clsuter"]),
    ("check_cluster_equivalence.py", ["--engine"]),
    ("check_chaos_equivalence.py", ["--timeline-out"]),
], ids=["cluster-misspelt-engine", "cluster-engine-without-value",
        "chaos-timeline-out-without-value"])
def test_a_bad_flag_is_a_usage_error(gate, args):
    done = subprocess.run(
        [sys.executable, str(_ROOT / "benchmarks" / gate), *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
    )
    assert done.returncode == 2, done.stdout + done.stderr
    assert "PASS" not in done.stdout + done.stderr
    assert "usage:" in done.stderr
