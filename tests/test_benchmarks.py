"""The benchmark suite under benchmarks/ runs against the package sources.

benchmarks/ lies outside the default test paths, so this runs it once with
timing disabled: an API change that breaks a benchmark fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_benchmarks_run():
    pytest.importorskip("pytest_benchmark")
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "benchmarks",
            "--benchmark-disable", "-q", "-p", "no:cacheprovider",
        ],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
