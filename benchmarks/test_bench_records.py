"""Microbenchmarks of the hourly profile CSVs: one write and one read back.

    PYTHONPATH=src python -m pytest benchmarks/test_bench_records.py

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
