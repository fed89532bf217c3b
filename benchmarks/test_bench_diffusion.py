"""Microbenchmarks of the policy contagion and of network ingest.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_diffusion.py

Contagion: all seven policy cases of ``simulate`` on a fixed world of
250 households and ``edge_prob`` 0.4 (about 12.5 k edges), 50 iterations
of 20 steps each: the simulate stage's sweep on the ``energy-policy-90d``
workload, without its PV call.  Ingest: ``load_network`` on the edge file
of 2 000 households at ``edge_prob`` 0.01 (about 20 k edges, the
``pipeline-2k`` network).  Outside the tier-1 ``testpaths``.
"""

import numpy as np
import pytest

from solartwin.diffusion import CASES, DiffusionConfig, build_nodes, simulate
from solartwin.records import load_network, save_network
from solartwin.toygen import ToyConfig, gen_network, gen_population


@pytest.fixture(scope="module")
def world():
    pop = gen_population(ToyConfig(n_households=250, seed=0))
    graph = gen_network(len(pop), 0.4, seed=0)
    daily_kwh = np.linspace(8.0, 30.0, len(pop))
    return pop, graph, daily_kwh


def test_bench_simulate_all_cases(benchmark, world):
    pop, graph, daily_kwh = world
    initial = np.flatnonzero(pop.solar.filled(False))
    configs = [DiffusionConfig(case=c, time_steps=20, iterations=50) for c in CASES]

    def sweep():
        # as the simulate stage does: the nodes once, then every case on them
        nodes = build_nodes(pop, graph, daily_kwh)
        return [simulate(nodes, cfg, initial, daily_kwh * 365.0) for cfg in configs]

    results = benchmark(sweep)
    assert [rows[-1]["step"] for rows in results] == [20] * len(CASES)


def test_bench_load_network(benchmark, tmp_path):
    graph = gen_network(2000, 0.01, seed=0)
    path = tmp_path / "network.edges"
    save_network(graph, path)
    again = benchmark(load_network, path, 2000)
    assert again.edge_count == graph.edge_count
