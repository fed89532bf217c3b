"""Microbenchmarks of SMOTEN balancing on fixed toy populations.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_preprocess.py

``smoten_oversample`` balances the ``solar`` dataset of a 2 000-household
population (the ``pipeline-2k`` preprocess stage: 200 adopters raised to
1 800) and of a 10 000-household one (1 000 raised to 9 000).  Outside the
tier-1 ``testpaths``.
"""

import pytest

from solartwin.preprocess import dataset_from_households, smoten_oversample
from solartwin.toygen import ToyConfig, gen_population


@pytest.mark.parametrize("n_households", [2000, 10000])
def test_bench_smoten_solar(benchmark, n_households):
    data = dataset_from_households(gen_population(ToyConfig(n_households=n_households, seed=0)), "solar")
    balanced = benchmark(smoten_oversample, data, 5, 0)
    counts = balanced.class_counts()
    assert counts[0] == counts[1] == max(data.class_counts().values())
