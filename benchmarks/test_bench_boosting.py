"""Microbenchmarks of booster training on fixed 2 000- and 250-household
populations.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_boosting.py

The one-vs-rest stack runs at both sizes: at 250 rows the fixed cost of
each tree level dominates, at 2 000 rows the histogram element work does.
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


@pytest.fixture(scope="module")
def small_population():
    return gen_population(ToyConfig(n_households=250, seed=0))


def test_bench_train_gbt(benchmark, population):
    data = dataset_from_households(population, "solar")
    model = benchmark(train_gbt, data, GbtParams(), LossParams(beta=1.7))
    assert len(model.trees) == GbtParams().rounds


def _bench_ovr(benchmark, population):
    data = dataset_from_households(population, "sqft_class")
    ovr = benchmark(train_ovr, data, GbtParams())
    n_classes = len(set(data.y.tolist()))
    assert len(ovr.classes) == n_classes
    assert len(ovr.model.trees) == GbtParams().rounds * n_classes


def test_bench_train_ovr(benchmark, population):
    _bench_ovr(benchmark, population)


def test_bench_train_ovr_250(benchmark, small_population):
    _bench_ovr(benchmark, small_population)
