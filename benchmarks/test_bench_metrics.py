"""Microbenchmark of KDE scoring on large sample sets.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_metrics.py

``jsd_kde`` on 20 000 samples per side over the default 512-point grid,
Scott's rule on both sides, as validate scores daily kWh at 20 000
households.  Outside the tier-1 ``testpaths``.
"""

import numpy as np

from solartwin.metrics import jsd_kde


def test_bench_jsd_kde_20k(benchmark):
    rng = np.random.default_rng(0)
    a, b = rng.normal(0.0, 1.0, 20_000), rng.normal(0.2, 1.1, 20_000)
    value = benchmark(jsd_kde, a, b)
    assert 0.0 < value < 0.1
