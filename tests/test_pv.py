"""Solar geometry, roof sampling, and the profile engine."""

import datetime
from concurrent.futures import Future

import numpy as np
import pytest

from solartwin import pv
from solartwin.pv import (
    DEFAULT_TABLES,
    SamplingTables,
    declination,
    generate_profiles,
    hourly_energy,
    load_daily,
    load_profile_rows,
    sample_time_invariant,
    save_daily,
    save_profiles,
    tilted_radiation,
)
from solartwin.records import HouseholdRecord, HouseholdTable, IrradianceSeries

FEATURES = {
    "NHSLDMEM": 2,
    "BEDROOMS": 3,
    "TYPEHUQ": 2,
    "FUELHEAT": 1,
    "KOWNRENT": 1,
    "YEARMADERANGE": 5,
    "MONEYPY": 8,
    "BA_climate": 4,
}


def make_household(i=0, sqft=1800.0, tract="t1", solar=True, lat=38.0):
    return HouseholdRecord(
        id=i, state="VA", county="51001", tract=tract, lat=lat, lon=-78.0,
        features=dict(FEATURES), sqft_value=sqft, solar=solar,
    )


def flat_series(tract="t1", days=2, value=400.0, start=datetime.date(2018, 6, 1)):
    hours = np.zeros(days * 24)
    hours.reshape(days, 24)[:, 8:17] = value  # daylight block, night stays zero
    return IrradianceSeries(tract, start, hours)


def test_declination_oracles():
    assert declination(172) == pytest.approx(23.4498, abs=1e-3)
    assert declination(355) == pytest.approx(-23.4498, abs=1e-3)
    assert abs(declination(81)) < 0.5  # equinox neighborhood
    with pytest.raises(ValueError, match="day_of_year"):
        declination(0)


def test_tilted_radiation_oracle():
    # 500 * sin(82 deg) / sin(52 deg) with no degradation
    ht = tilted_radiation(500.0, 38.0, 0.0, 30.0, "S", {"S": 1.0})
    assert ht == pytest.approx(628.3341085188987, abs=1e-9)


def test_tilted_radiation_identity_at_zero_tilt():
    for ghi in (0.0, 123.456, 987.0):
        assert tilted_radiation(ghi, 38.0, 11.7, 0.0, "S", {"S": 1.0}) == ghi


def test_tilted_radiation_degradation_and_guards():
    base = tilted_radiation(400.0, 38.0, 0.0, 25.0, "S")
    north = tilted_radiation(400.0, 38.0, 0.0, 25.0, "N")
    assert north == pytest.approx(base * 0.55 / 1.00)
    # sun below the numerical horizon falls back to the horizontal value
    assert tilted_radiation(300.0, 89.9, -23.0, 30.0, "S", {"S": 1.0}) == 300.0
    with pytest.raises(ValueError, match="ghi"):
        tilted_radiation(-1.0, 38.0, 0.0, 30.0, "S")
    with pytest.raises(ValueError, match="unknown azimuth sector"):
        tilted_radiation(1.0, 38.0, 0.0, 30.0, "XX")


def test_sample_time_invariant_ranges():
    ti = sample_time_invariant(make_household(sqft=2000.0), n=200, seed=1)
    assert ti.n == 200
    roof = 1.5 * 2000.0 * 0.092903
    assert ti.roof_area == pytest.approx(roof)
    assert ti.building_type == "small"
    assert np.all((ti.yields >= 0.18) & (ti.yields <= 0.22))
    assert np.all((ti.ratios >= 0.5) & (ti.ratios <= 0.9))
    assert np.all((ti.planes >= 1) & (ti.planes <= 4))
    assert set(np.unique(ti.tilts)) <= {15.0, 25.0, 35.0}
    assert set(ti.azimuths) <= {"N", "NE", "E", "SE", "S", "SW", "W", "NW"}
    assert np.all(ti.areas >= 0.0) and np.all(ti.areas <= roof)
    # areas snap to whole 1.64 m^2 panels
    panels = ti.areas / 1.64
    assert np.allclose(panels, np.round(panels), atol=1e-9)
    # arpr is the elementwise product of area, yield, and performance ratio
    assert np.allclose(ti.arpr, ti.areas * ti.yields * ti.ratios, atol=1e-12)


def test_building_type_threshold():
    big = sample_time_invariant(make_household(sqft=4000.0), n=10, seed=0)
    assert big.building_type == "medium"  # 1.5 * 4000 * 0.092903 > 464.6
    small = sample_time_invariant(make_household(sqft=3000.0), n=10, seed=0)
    assert small.building_type == "small"


def test_sample_requires_sqft():
    rec = make_household()
    rec.sqft_value = None
    with pytest.raises(ValueError, match="household 0 has no sqft_value"):
        sample_time_invariant(rec)


def test_sample_deterministic():
    a = sample_time_invariant(make_household(), n=50, seed=9)
    b = sample_time_invariant(make_household(), n=50, seed=9)
    assert np.array_equal(a.areas, b.areas)
    assert a.azimuths == b.azimuths


def test_hourly_energy_matches_manual():
    ti = sample_time_invariant(make_household(), n=30, seed=2)
    mean, std = hourly_energy(ti, 500.0)
    kwh = ti.arpr * 500.0 / 1000.0
    assert mean == pytest.approx(float(kwh.mean()), rel=1e-12)
    assert std == pytest.approx(float(kwh.std()), rel=1e-12)
    with pytest.raises(ValueError, match="scalar or length"):
        hourly_energy(ti, np.zeros(7))


def profiles_setup(n_households=6, days=2):
    records = [make_household(i, sqft=1200.0 + 150.0 * i) for i in range(n_households)]
    pop = HouseholdTable(records)
    series = flat_series(days=days)
    dates = [series.start_date + datetime.timedelta(days=d) for d in range(days)]
    return pop, {"t1": series}, dates


def test_profiles_shape_and_order():
    pop, irr, dates = profiles_setup()
    profiles = generate_profiles(pop, irr, dates, seed=4)
    assert len(profiles) == 6 * 2
    # ordered by household table order, then date
    keys = [(p.household, p.date) for p in profiles]
    assert keys == [(h, d) for h in range(6) for d in dates]


def test_profiles_identities_and_night_zeros():
    pop, irr, dates = profiles_setup()
    for prof in generate_profiles(pop, irr, dates, seed=4):
        assert prof.daily_mean == pytest.approx(float(prof.hourly_mean.sum()), abs=1e-9)
        assert prof.daily_std**2 == pytest.approx(
            float((prof.hourly_std**2).sum()), abs=1e-9
        )
        for hour in range(24):
            if not 8 <= hour < 17:
                assert prof.hourly_mean[hour] == 0.0
                assert prof.hourly_std[hour] == 0.0
            else:
                assert prof.hourly_mean[hour] > 0.0


def test_profiles_ghi_doubling_is_exact():
    pop, irr, dates = profiles_setup()
    doubled = {
        "t1": IrradianceSeries("t1", irr["t1"].start_date, irr["t1"].hours * 2.0)
    }
    base = generate_profiles(pop, irr, dates, seed=4)
    twice = generate_profiles(pop, doubled, dates, seed=4)
    for a, b in zip(base, twice):
        assert np.array_equal(b.hourly_mean, a.hourly_mean * 2.0)
        assert np.array_equal(b.hourly_std, a.hourly_std * 2.0)


def test_profiles_worker_invariance_small():
    pop, irr, dates = profiles_setup(n_households=5)
    one = generate_profiles(pop, irr, dates, workers=1, seed=4)
    two = generate_profiles(pop, irr, dates, workers=2, seed=4)
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert (a.household, a.date) == (b.household, b.date)
        assert np.array_equal(a.hourly_mean, b.hourly_mean)
        assert np.array_equal(a.hourly_std, b.hourly_std)


def test_profile_pool_capped_at_cpu_count(monkeypatch):
    pools = []

    class InlinePool:  # records the pool size, runs each block in this process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(pv, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(pv.os, "cpu_count", lambda: 2)
    pop, irr, dates = profiles_setup(n_households=6)
    many = generate_profiles(pop, irr, dates, workers=5000, seed=4)
    assert pools == [2]
    one = generate_profiles(pop, irr, dates, workers=1, seed=4)
    assert [(p.household, p.date) for p in many] == [(p.household, p.date) for p in one]
    for a, b in zip(many, one):
        assert np.array_equal(a.hourly_mean, b.hourly_mean)
        assert np.array_equal(a.hourly_std, b.hourly_std)


def test_profiles_only_for_adopters():
    records = [make_household(0, solar=True), make_household(1, solar=False)]
    pop = HouseholdTable(records)
    series = flat_series(days=1)
    profiles = generate_profiles(pop, {"t1": series}, [series.start_date], seed=0)
    assert [p.household for p in profiles] == [0]


def test_profiles_input_guards():
    pop, irr, dates = profiles_setup()
    with pytest.raises(ValueError, match="no dates"):
        generate_profiles(pop, irr, [], seed=0)
    with pytest.raises(ValueError, match="no irradiance series for tract t1"):
        generate_profiles(pop, {}, dates, seed=0)
    late = [dates[-1] + datetime.timedelta(days=30)]
    with pytest.raises(ValueError, match="no irradiance for tract t1 on"):
        generate_profiles(pop, irr, late, seed=0)


def test_profile_csv_roundtrip(tmp_path):
    pop, irr, dates = profiles_setup(n_households=3, days=2)
    profiles = generate_profiles(pop, irr, dates, seed=6)
    paths = save_profiles(profiles, tmp_path)
    assert [p.split("profiles_")[-1] for p in paths] == [
        "2018-06-01.csv", "2018-06-02.csv"
    ]
    rows = load_profile_rows(paths[0])
    assert len(rows) == 3 * 24
    by_key = {(r[0], r[2]): (r[3], r[4]) for r in rows}
    prof = profiles[0]
    assert by_key[(prof.household, 10)] == (
        float(prof.hourly_mean[10]), float(prof.hourly_std[10])
    )
    daily_path = tmp_path / "daily_test.csv"
    save_daily(profiles, daily_path)
    daily = load_daily(daily_path)
    assert len(daily) == len(profiles)
    assert daily[0][2] == float(profiles[0].daily_mean)


def test_custom_tables_flow_through():
    tables = SamplingTables(yield_range=(0.5, 0.5), pr_range=(1.0, 1.0))
    ti = sample_time_invariant(make_household(), n=20, tables=tables, seed=0)
    assert np.all(ti.yields == 0.5)
    assert np.all(ti.ratios == 1.0)
    assert DEFAULT_TABLES.yield_range == (0.18, 0.22)
