"""Peak memory of network generation, graph building, KDE scoring, the
daily PV reduction and the contagion simulation stays linear in size.

Each case runs in a fresh interpreter and reports how far ``ru_maxrss``
rose across one call, after its inputs exist.  A quadratic working set
would take about 1.8 GB for the network (12 000 nodes in one group) and
about 250 MB for the KDE (20 000 samples per side).  A graph of 2 M edges,
unique and in (u, v) order as gen_network emits them, costs about its two
endpoint arrays (32 MB); a dedup sort of them would take about 115 MB.
``generate_profiles(..., hourly=False)`` over 20 000 adopters x 30 days
keeps only the (20 000,) mean daily kWh and reduces each household chunk
before the next is made; keeping the (households, dates, 24) mean and std
would take about 230 MB.
``generate_profiles`` with ``workers=1_000_000`` on 24 adopters splits
them into at most one block per adopter, and its pool starts at most
``os.cpu_count()`` processes; splitting into one block per worker made a
million mostly empty index arrays, about 150 MB.
``simulate`` runs 50 iterations of 20 steps on 30 000 households, as the
``energy-policy-90d`` benchmark sweeps: it holds one run's 21 bool adopted
arrays (0.6 MB) and folds them into integer counts before the next run.
Keeping every run's states, as a stack of 50 x 21 adopted arrays (31.5 MB)
held about three times over while the rows are counted, grew it by about
94 MB; keeping the int64 counts that ``step`` carries in every state would
add about 250 MB more.
``train_ovr`` on 40 000 rows x 8 features x 8 classes (2 rounds) grows
its classes in lockstep groups of at most ``GROUP_CELLS`` (class, row,
feature) cells, here one class per group: about 20 MB.  Growing all 8
classes in one group holds each level's keys, weights and histograms for
the whole stack at once, about 99 MB.
``cmd_validate`` over 250 adopters x 120 days per side folds each
``profiles_<date>.csv`` into (month, hour) sums as it reads it, so it holds
one day's rows at a time.  Holding every day's hour, value and month
columns of both sides, then their concatenations and a sort of the months,
grew it by about 130 MB.
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
    "profiles_mean_daily": (
        "from datetime import timedelta\n"
        "import numpy as np\n"
        "from solartwin.pv import generate_profiles\n"
        "from solartwin.toygen import ToyConfig, gen_irradiance, gen_population, tract_ids\n"
        "toy = ToyConfig(n_households=20_000, seed=0, days=30)\n"
        "pop = gen_population(toy)\n"
        "pop = pop.replace(solar=np.ones(len(pop), bool), sqft_value=np.full(len(pop), 1800.0))\n"
        "irradiance = {t: gen_irradiance(toy, t) for t in tract_ids(toy)}\n"
        "dates = [toy.start_date + timedelta(days=d) for d in range(toy.days)]\n"
        "call = lambda: generate_profiles(pop, irradiance, dates, workers=1, seed=0, hourly=False)\n"
    ),
    "profiles_many_workers": (
        "from datetime import timedelta\n"
        "import numpy as np\n"
        "from solartwin.pv import generate_profiles\n"
        "from solartwin.toygen import ToyConfig, gen_irradiance, gen_population, tract_ids\n"
        "toy = ToyConfig(n_households=24, seed=0, days=2)\n"
        "pop = gen_population(toy)\n"
        "pop = pop.replace(solar=np.ones(len(pop), bool), sqft_value=np.full(len(pop), 1800.0))\n"
        "irradiance = {t: gen_irradiance(toy, t) for t in tract_ids(toy)}\n"
        "dates = [toy.start_date + timedelta(days=d) for d in range(toy.days)]\n"
        "call = lambda: generate_profiles(pop, irradiance, dates, workers=1_000_000, seed=0)\n"
    ),
    "simulate_timelines": (
        "import numpy as np\n"
        "from solartwin.diffusion import DiffusionConfig, build_nodes, simulate\n"
        "from solartwin.records import Graph\n"
        "from solartwin.toygen import ToyConfig, gen_population\n"
        "n = 30_000\n"
        "pop = gen_population(ToyConfig(n_households=n, seed=0))\n"
        "graph = Graph(n, np.column_stack((np.arange(n - 1), np.arange(1, n))))\n"
        "cfg = DiffusionConfig(case='1b', time_steps=20, iterations=50)\n"
        "initial = np.flatnonzero(pop.solar.filled(False))\n"
        "nodes = build_nodes(pop, graph, np.linspace(1.0, 2.0, n))\n"
        "call = lambda: simulate(nodes, cfg, initial)\n"
    ),
    "train_ovr_groups": (
        "import numpy as np\n"
        "from solartwin.boosting import GbtParams, train_ovr\n"
        "from solartwin.preprocess import LabeledDataset\n"
        "rng = np.random.default_rng(0)\n"
        "data = LabeledDataset(rng.integers(0, 16, size=(40_000, 8)), rng.integers(0, 8, size=40_000))\n"
        "call = lambda: train_ovr(data, GbtParams(rounds=2))\n"
    ),
    "validate_profile_days": (
        "import datetime, os, tempfile\n"
        "import numpy as np\n"
        "from solartwin.cli import main\n"
        "from solartwin.pv import EnergyProfiles, save_daily, save_profiles\n"
        "households, days = 250, 120\n"
        "rng = np.random.default_rng(0)\n"
        "out = tempfile.mkdtemp()\n"
        "dates = [datetime.date(2018, 1, 1) + datetime.timedelta(days=d) for d in range(days)]\n"
        "ids = np.arange(households)\n"
        "for side in ('real', 'twin'):\n"
        "    os.makedirs(os.path.join(out, side))\n"
        "    mean = rng.random((households, days, 24))\n"
        "    for d, day in enumerate(dates):  # one day's rows in memory at a time\n"
        "        day_mean = mean[:, d : d + 1]\n"
        "        save_profiles(EnergyProfiles(ids, [day], day_mean, 0.1 * day_mean, None),\n"
        "                      os.path.join(out, side))\n"
        "    save_daily(EnergyProfiles(ids, dates, mean, 0.1 * mean, None),\n"
        "               os.path.join(out, side, f'daily_2018-01-01_{days}d.csv'))\n"
        "ini = os.path.join(out, 'run.ini')\n"
        "open(ini, 'w').write(f'[toygen]\\ndays = {days}\\n')\n"
        "del mean, day_mean\n"
        "def call():\n"
        "    assert main(['validate', '--config', ini, '--out', out]) == 0\n"
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
