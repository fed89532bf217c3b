"""Microbenchmarks of booster training on a fixed 2 000-household population.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_boosting.py

These are outside the tier-1 ``testpaths``; pytest-benchmark prints one
timing row per test.
"""

import pytest

from solartwin.boosting import GbtParams, LossParams, train_gbt, train_ovr
from solartwin.preprocess import dataset_from_households
from solartwin.toygen import ToyConfig, gen_population


@pytest.fixture(scope="module")
def population():
    return gen_population(ToyConfig(n_households=2000, seed=0))


def test_bench_train_gbt(benchmark, population):
    data = dataset_from_households(population, "solar")
    model = benchmark(train_gbt, data, GbtParams(), LossParams(beta=1.7))
    assert len(model.trees) == GbtParams().rounds


def test_bench_train_ovr(benchmark, population):
    data = dataset_from_households(population, "sqft_class")
    ovr = benchmark(train_ovr, data, GbtParams())
    assert len(ovr.members) == len(set(data.y.tolist()))
