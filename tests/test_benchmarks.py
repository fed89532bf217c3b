"""The suites outside the default test paths run against the package sources.

benchmarks/ and perfbench/tests/ lie outside the default test paths, so
each runs here once in a subprocess, benchmarks with timing disabled: an
API change that breaks a benchmark, or a name perfbench's tracer wraps, or
one of perfbench's output checks, fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_pytest(*args):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *args, "-q", "-p", "no:cacheprovider"],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmarks_run():
    pytest.importorskip("pytest_benchmark")
    _run_pytest("benchmarks", "--benchmark-disable")


def test_perfbench_tests_pass():
    _run_pytest("perfbench/tests")
