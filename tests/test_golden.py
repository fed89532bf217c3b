"""Byte identity against checked-in digests: three small pipelines, every
output file's SHA-256 compared with tests/golden_digests.json.

The digests are written by ``python3 tools/identity.py --write-golden``.  A
change that must alter an output rewrites that file, and the diff shows
which outputs changed.  They hold for the Python and numpy versions they
were written with; on others the test fails and names both.
"""

import importlib.util
import json
import platform
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def _identity():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    return identity


def test_pipeline_outputs_match_golden_digests(tmp_path):
    identity = _identity()
    golden = json.loads(identity.GOLDEN.read_text())
    here = (platform.python_version(), np.__version__)
    assert (golden["python"], golden["numpy"]) == here, (
        f"the golden digests were written with Python {golden['python']} and numpy"
        f" {golden['numpy']}; this is Python {here[0]} and numpy {here[1]}, whose"
        " outputs may differ: rewrite them with python3 tools/identity.py --write-golden"
        " on a commit whose outputs are known good"
    )
    want = _by_path(golden["runs"])
    got = _by_path(identity.golden_digests(tmp_path)["runs"])
    changed = sorted(path for path in want.keys() | got.keys() if want.get(path) != got.get(path))
    assert not changed, "outputs differ from the golden digests: " + ", ".join(changed)


def _by_path(runs) -> dict:
    """{run/file: digest} over every run's files."""
    return {
        f"{run}/{path}": digest for run, files in runs.items() for path, digest in files.items()
    }
