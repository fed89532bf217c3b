"""Microbenchmarks of the household tables and the hourly profile CSVs:
one write and one read back, and one read alone.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_records.py

``save_households`` then ``load_households``, and ``load_households``
alone, on 2 000 households (the ``pipeline-2k`` workload) and 20 000, with
all five optional columns and about a tenth of each one's cells missing, as
``households_twin.csv`` has them and more.

``save_profiles`` then ``load_profile_rows`` on every file written, for
200 adopters over 7 days (the generate stage's per-side output on the
``pipeline-2k`` workload), 25 adopters over 90 days (the same on
``energy-policy-90d``) and 10 000 adopters over 1 day (one day of the
100 000-household run).  ``load_profile_rows`` alone reads that one
10 000-adopter day again, so the parse shows apart from ``save_profiles``.
The kWh cells are random doubles, zero at night as PV output is, so each
daytime cell prints about 18 digits.  Outside the tier-1 ``testpaths``.
"""

import datetime

import numpy as np
import pytest

from solartwin.pv import EnergyProfiles, load_profile_rows, save_profiles
from solartwin.records import N_SQFT_CLASSES, SQFT_CLASS_EDGES, load_households, save_households
from solartwin.toygen import ToyConfig, gen_population


def _profiles(households, days):
    rng = np.random.default_rng(0)
    daylight = np.zeros(24)
    daylight[6:19] = np.sin(np.linspace(0.1, np.pi - 0.1, 13))
    mean = rng.random((households, days, 24)) * daylight
    std = 0.1 * rng.random((households, days, 24)) * daylight
    dates = [datetime.date(2018, 1, 1) + datetime.timedelta(days=d) for d in range(days)]
    ids = np.arange(households, dtype=np.int64) * 7 + 1000
    return EnergyProfiles(ids, dates, mean, std, mean.sum(-1).mean(1))


def _round_trip(profiles, out_dir):
    return [load_profile_rows(path) for path in save_profiles(profiles, out_dir)]


@pytest.mark.parametrize("households, days", [(200, 7), (25, 90), (10_000, 1)])
def test_bench_profile_round_trip(benchmark, tmp_path, households, days):
    profiles = _profiles(households, days)
    loaded = benchmark(_round_trip, profiles, tmp_path)
    assert len(loaded) == days
    assert loaded[0]["mean_kwh"].tolist() == profiles.hourly_mean[:, 0].ravel().tolist()


def test_bench_profile_load(benchmark, tmp_path):
    profiles = _profiles(10_000, 1)
    [path] = save_profiles(profiles, tmp_path)
    loaded = benchmark(load_profile_rows, path)
    assert loaded["mean_kwh"].tolist() == profiles.hourly_mean[:, 0].ravel().tolist()


def _households(n):
    """n toygen households with all five optional columns, each cell missing
    with probability 0.1."""
    table = gen_population(ToyConfig(n_households=n, n_tracts=n // 500))
    rng = np.random.default_rng(0)
    sqft_class = rng.integers(0, N_SQFT_CLASSES, n)
    columns = {
        "sqft_class": sqft_class,
        "sqft_value": np.array(SQFT_CLASS_EDGES)[sqft_class] + 1.0 + 500.0 * rng.random(n),
        "solar": table.solar.data, "lmi": table.lmi.data, "rural": table.rural.data,
    }
    return table.replace(**{
        name: np.ma.array(values, mask=rng.random(n) < 0.1) for name, values in columns.items()
    })


def _households_round_trip(table, path):
    save_households(table, path)
    return load_households(path)


@pytest.mark.parametrize("households", [2_000, 20_000])
def test_bench_households_round_trip(benchmark, tmp_path, households):
    table = _households(households)
    loaded = benchmark(_households_round_trip, table, tmp_path / "households_twin.csv")
    assert loaded.sqft_value.tolist() == table.sqft_value.tolist()
    assert loaded.solar.tolist() == table.solar.tolist()


@pytest.mark.parametrize("households", [2_000, 20_000])
def test_bench_households_load(benchmark, tmp_path, households):
    table = _households(households)
    path = tmp_path / "households_twin.csv"
    save_households(table, path)
    loaded = benchmark(load_households, path)
    assert loaded.sqft_class.tolist() == table.sqft_class.tolist()
    assert loaded.rural.tolist() == table.rural.tolist()
