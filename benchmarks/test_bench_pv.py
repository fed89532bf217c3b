"""Microbenchmarks of PV profile generation and square-footage estimation.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_pv.py

Profiles: every household an adopter with a fixed footage, over the toy
config's 7 days, in one process: 500 households, and 2 000 (the size of
simulate's call on the ``pipeline-2k`` workload).  Estimation: the
estimate-sqft stage on 2 000 classified households, CSV load and save
included.  Outside the tier-1 ``testpaths``.
"""

import argparse
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest

from solartwin import cli
from solartwin.pv import generate_profiles
from solartwin.records import save_households
from solartwin.toygen import ToyConfig, gen_irradiance, gen_population, gen_survey, tract_ids


def _world(n_households):
    config = ToyConfig(n_households=n_households, seed=0)
    pop = gen_population(config)
    n = len(pop)
    adopters = pop.replace(
        solar=np.ones(n, dtype=bool), sqft_value=np.linspace(800.0, 4000.0, n)
    )
    irradiance = {t: gen_irradiance(config, t) for t in tract_ids(config)}
    dates = [config.start_date + timedelta(days=i) for i in range(config.days)]
    return adopters, irradiance, dates


@pytest.mark.parametrize("n_households", [500, 2000])
def test_bench_generate_profiles(benchmark, n_households):
    pop, irradiance, dates = _world(n_households)
    profiles = benchmark(generate_profiles, pop, irradiance, dates, workers=1, seed=0)
    assert len(profiles) == len(pop) * len(dates)


def test_bench_estimate_sqft_stage(benchmark, tmp_path):
    toy = ToyConfig(n_households=2000, seed=0)
    save_households(gen_population(toy), tmp_path / "households_classified.csv")
    cli._save_survey(gen_survey(toy, 2000), tmp_path / "survey.csv")
    cfg = replace(cli.load_config(None), out_dir=str(tmp_path))
    benchmark(cli.cmd_estimate_sqft, cfg, argparse.Namespace())
    assert (tmp_path / "households_sqft.csv").stat().st_size > 0
