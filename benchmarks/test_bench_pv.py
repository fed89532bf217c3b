"""Microbenchmark of PV profile generation on a fixed all-adopter table.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_pv.py

500 households, every one an adopter with a fixed footage, over the toy
config's 7 days, in one process.  Outside the tier-1 ``testpaths``.
"""

from datetime import timedelta

import numpy as np
import pytest

from solartwin.pv import generate_profiles
from solartwin.toygen import ToyConfig, gen_irradiance, gen_population, tract_ids

CONFIG = ToyConfig(n_households=500, seed=0)


@pytest.fixture(scope="module")
def world():
    pop = gen_population(CONFIG)
    n = len(pop)
    adopters = pop.replace(
        solar=np.ones(n, dtype=bool), sqft_value=np.linspace(800.0, 4000.0, n)
    )
    irradiance = {t: gen_irradiance(CONFIG, t) for t in tract_ids(CONFIG)}
    dates = [CONFIG.start_date + timedelta(days=i) for i in range(CONFIG.days)]
    return adopters, irradiance, dates


def test_bench_generate_profiles(benchmark, world):
    pop, irradiance, dates = world
    profiles = benchmark(generate_profiles, pop, irradiance, dates, workers=1, seed=0)
    assert len(profiles) == len(pop) * len(dates)
