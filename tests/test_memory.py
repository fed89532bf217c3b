"""Peak memory of network generation, graph building and KDE scoring stays
linear in size.

Each case runs in a fresh interpreter and reports how far ``ru_maxrss``
rose across one call, after its inputs exist.  A quadratic working set
would take about 1.8 GB for the network (12 000 nodes in one group) and
about 250 MB for the KDE (20 000 samples per side).  A graph of 2 M edges,
unique and in (u, v) order as gen_network emits them, costs about its two
endpoint arrays (32 MB); a dedup sort of them would take about 115 MB.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
LIMIT_MB = 64

SETUP = {
    "gen_network": (
        "from solartwin.toygen import gen_network\n"
        "call = lambda: gen_network(12_000, 0.001)\n"
    ),
    "graph_ordered_edges": (
        "import numpy as np\n"
        "from solartwin.records import Graph\n"
        "u = np.repeat(np.arange(2_000), 1_000)\n"
        "edges = np.column_stack((u, u + 1 + np.tile(np.arange(1_000), 2_000)))\n"
        "call = lambda: Graph(3_000, edges)\n"
    ),
    "jsd_kde": (
        "import numpy as np\n"
        "from solartwin.metrics import jsd_kde\n"
        "rng = np.random.default_rng(0)\n"
        "a, b = rng.normal(0.0, 1.0, 20_000), rng.normal(0.2, 1.1, 20_000)\n"
        "call = lambda: jsd_kde(a, b)\n"
    ),
}

MEASURE = (
    "import resource\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "call()\n"
    "print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)\n"
)


@pytest.mark.parametrize("case", sorted(SETUP))
def test_peak_rss_growth(case):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP[case] + MEASURE],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    growth_mb = float(proc.stdout)
    assert growth_mb < LIMIT_MB, f"{case} raised peak RSS by {growth_mb:.1f} MB"
