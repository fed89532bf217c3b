"""Microbenchmarks of workplace-network generation in one group.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_toygen.py

``gen_network`` at the default ``edge_prob`` of 0.01 on 2 000 households
(the ``pipeline-2k`` toygen stage, about 20 k edges) and on 10 000 (about
500 k edges).  Every pair of the one group gets a draw, so both time and
edges grow with n².  Outside the tier-1 ``testpaths``.
"""

import pytest

from solartwin.toygen import gen_network


@pytest.mark.parametrize("n_households", [2000, 10000])
def test_bench_gen_network(benchmark, n_households):
    graph = benchmark(gen_network, n_households, 0.01)
    pairs = n_households * (n_households - 1) // 2
    assert 0.009 * pairs < graph.edge_count < 0.011 * pairs
