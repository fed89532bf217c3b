"""Solar geometry, roof sampling, and the profile engine."""

import datetime
import math
from concurrent.futures import Future
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solartwin import pv
from solartwin.pv import (
    AREA_PARAMS,
    AZIMUTH_SECTORS,
    AZIMUTH_WEIGHTS,
    DEGRADATION,
    N_CANDIDATES,
    PANEL_AREA_M2,
    PLANE_WEIGHTS,
    PR_RANGE,
    ROOF_FACTOR,
    SMALL_THRESHOLD_M2,
    SQFT_TO_M2,
    TILT_WEIGHTS,
    YIELD_RANGE,
    declination,
    generate_profiles,
    load_daily,
    load_profile_rows,
    sample_time_invariant,
    save_daily,
    save_profiles,
    tilted_radiation,
)
from solartwin.records import HouseholdTable, IrradianceSeries
from solartwin.seeds import choose, rng_for

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


def make_households(n=1, sqft=1800.0, tract="t1", solar=True, lat=38.0, ids=None):
    """n households with ids 0..n-1, or ``ids``; a column given as a list
    holds one value per row (None for missing), a scalar every row's."""

    def column(value):
        return value if isinstance(value, list) else [value] * n

    return HouseholdTable(
        id=list(range(n)) if ids is None else ids, state=column("VA"), county=column("51001"),
        tract=column(tract), lat=column(lat), lon=column(-78.0),
        features=np.tile(list(FEATURES.values()), (n, 1)), sqft_value=column(sqft),
        solar=column(solar),
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
    ht = tilted_radiation(500.0, 38.0, 0.0, 30.0, "S")
    assert ht == pytest.approx(628.3341085188987, abs=1e-9)


def test_tilted_radiation_identity_at_zero_tilt():
    for ghi in (0.0, 123.456, 987.0):
        assert tilted_radiation(ghi, 38.0, 11.7, 0.0, "S") == ghi


def test_tilted_radiation_degradation_and_guards():
    base = tilted_radiation(400.0, 38.0, 0.0, 25.0, "S")
    north = tilted_radiation(400.0, 38.0, 0.0, 25.0, "N")
    assert north == pytest.approx(base * 0.55 / 1.00)
    # sun below the numerical horizon falls back to the horizontal value
    assert tilted_radiation(300.0, 89.9, -23.0, 30.0, "S") == 300.0
    with pytest.raises(ValueError, match="ghi"):
        tilted_radiation(-1.0, 38.0, 0.0, 30.0, "S")
    with pytest.raises(ValueError, match="unknown azimuth sector"):
        tilted_radiation(1.0, 38.0, 0.0, 30.0, "XX")


def sample(pop, n, seed):
    """The sampler's (arpr, tilts, degradation) for a table's households."""
    return sample_time_invariant(pop.id, pop.sqft_value.filled(np.nan), n, seed)


def test_sample_time_invariant_ranges():
    # the variables the sampler does not return are checked on the
    # reference, whose returned three it matches bit for bit
    ti = _reference_sample_time_invariant(0, 2000.0, 200, rng_for(1, "pv", 0))
    arpr, tilts, degradation = sample(make_households(sqft=2000.0), 200, 1)
    assert arpr.shape == tilts.shape == degradation.shape == (1, 200)
    assert np.array_equal(arpr[0], ti.arpr) and np.array_equal(tilts[0], ti.tilts)
    assert np.array_equal(degradation[0], ti.degradation)
    roof = 1.5 * 2000.0 * 0.092903
    assert ti.roof_area == pytest.approx(roof)
    assert ti.building_type == "small"
    assert np.all((ti.yields >= 0.18) & (ti.yields <= 0.22))
    assert np.all((ti.ratios >= 0.5) & (ti.ratios <= 0.9))
    assert np.all((ti.planes >= 1) & (ti.planes <= 4))
    assert set(np.unique(tilts)) <= {15.0, 25.0, 35.0}
    assert set(ti.azimuths) <= {"N", "NE", "E", "SE", "S", "SW", "W", "NW"}
    assert np.all(ti.areas >= 0.0) and np.all(ti.areas <= roof)
    # areas snap to whole 1.64 m^2 panels
    panels = ti.areas / 1.64
    assert np.allclose(panels, np.round(panels), atol=1e-9)
    # arpr is the elementwise product of area, yield, and performance ratio
    assert np.allclose(arpr[0], ti.areas * ti.yields * ti.ratios, atol=1e-12)


def test_building_type_threshold():
    big = _reference_sample_time_invariant(0, 4000.0, 10, rng_for(0, "pv", 0))
    assert big.building_type == "medium"  # 1.5 * 4000 * 0.092903 > 464.6
    small = _reference_sample_time_invariant(0, 3000.0, 10, rng_for(0, "pv", 0))
    assert small.building_type == "small"


def test_sample_requires_sqft():
    with pytest.raises(ValueError, match="household 0 has no sqft_value"):
        sample(make_households(sqft=None), 20, 0)


def test_sample_deterministic():
    a = sample(make_households(), 50, 9)
    b = sample(make_households(), 50, 9)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_hourly_energy_matches_manual():
    """One profile hour is the ensemble mean and std of each sample's
    area * yield * ratio * tilted radiation, in kWh."""
    pop = make_households()
    series = flat_series(days=1, value=500.0)
    date = series.start_date
    profiles = generate_profiles(pop, {"t1": series}, [date], workers=1, seed=2, n_samples=30)
    ti = _reference_sample_time_invariant(0, 1800.0, 30, rng_for(2, "pv", 0))
    delta = declination(date.timetuple().tm_yday)
    ht = [
        tilted_radiation(500.0, 38.0, delta, tilt, azimuth)
        for tilt, azimuth in zip(ti.tilts, ti.azimuths)
    ]
    kwh = ti.arpr * np.array(ht) / 1000.0
    assert profiles.hourly_mean[0, 0, 12] == pytest.approx(float(kwh.mean()), rel=1e-12)
    assert profiles.hourly_std[0, 0, 12] == pytest.approx(float(kwh.std()), rel=1e-12)


def profiles_setup(n_households=6, days=2):
    pop = make_households(n_households, sqft=[1200.0 + 150.0 * i for i in range(n_households)])
    series = flat_series(days=days)
    dates = [series.start_date + datetime.timedelta(days=d) for d in range(days)]
    return pop, {"t1": series}, dates


def test_profiles_shape_and_order():
    pop, irr, dates = profiles_setup()
    profiles = generate_profiles(pop, irr, dates, workers=1, seed=4)
    assert len(profiles) == 6 * 2
    assert profiles.hourly_mean.shape == profiles.hourly_std.shape == (6, 2, 24)
    # ordered by household table order, then date
    assert profiles.household.tolist() == list(range(6))
    assert profiles.dates == dates


def test_profiles_identities_and_night_zeros():
    pop, irr, dates = profiles_setup()
    profiles = generate_profiles(pop, irr, dates, workers=1, seed=4)
    daily_mean, daily_std = profiles.daily_mean, profiles.daily_std
    for k in range(len(pop)):
        for j in range(len(dates)):
            mean = profiles.hourly_mean[k, j]
            std = profiles.hourly_std[k, j]
            assert daily_mean[k, j] == pytest.approx(float(mean.sum()), abs=1e-9)
            assert daily_std[k, j] ** 2 == pytest.approx(
                float((std**2).sum()), abs=1e-9
            )
            for hour in range(24):
                if not 8 <= hour < 17:
                    assert mean[hour] == 0.0
                    assert std[hour] == 0.0
                else:
                    assert mean[hour] > 0.0


def test_profiles_ghi_doubling_is_exact():
    pop, irr, dates = profiles_setup()
    doubled = {
        "t1": IrradianceSeries("t1", irr["t1"].start_date, irr["t1"].hours * 2.0)
    }
    base = generate_profiles(pop, irr, dates, workers=1, seed=4)
    twice = generate_profiles(pop, doubled, dates, workers=1, seed=4)
    assert np.array_equal(twice.hourly_mean, base.hourly_mean * 2.0)
    assert np.array_equal(twice.hourly_std, base.hourly_std * 2.0)


def test_profiles_worker_invariance_small():
    pop, irr, dates = profiles_setup(n_households=5)
    one = generate_profiles(pop, irr, dates, workers=1, seed=4)
    two = generate_profiles(pop, irr, dates, workers=2, seed=4)
    assert len(one) == len(two)
    assert np.array_equal(one.household, two.household)
    assert one.dates == two.dates
    assert np.array_equal(one.hourly_mean, two.hourly_mean)
    assert np.array_equal(one.hourly_std, two.hourly_std)


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
    assert np.array_equal(many.household, one.household)
    assert many.dates == one.dates
    assert np.array_equal(many.hourly_mean, one.hourly_mean)
    assert np.array_equal(many.hourly_std, one.hourly_std)


def test_profiles_only_for_adopters():
    pop = make_households(2, solar=[True, False])
    series = flat_series(days=1)
    profiles = generate_profiles(pop, {"t1": series}, [series.start_date], workers=1, seed=0)
    assert profiles.household.tolist() == [0]
    assert len(profiles) == 1


def test_profiles_empty_side(tmp_path):
    pop = make_households(2, solar=False)
    series = flat_series(days=2)
    dates = [series.start_date, series.start_date + datetime.timedelta(days=1)]
    profiles = generate_profiles(pop, {"t1": series}, dates, workers=2, seed=0)
    assert len(profiles) == 0
    assert save_profiles(profiles, tmp_path) == []
    assert list(tmp_path.iterdir()) == []
    save_daily(profiles, tmp_path / "daily.csv")
    assert (tmp_path / "daily.csv").read_bytes() == (
        b"household_id,date,daily_mean_kwh,daily_std_kwh\r\n"
    )


def test_profiles_input_guards():
    pop, irr, dates = profiles_setup()
    with pytest.raises(ValueError, match="no dates"):
        generate_profiles(pop, irr, [], workers=1, seed=0)
    with pytest.raises(ValueError, match="no irradiance series for tract t1"):
        generate_profiles(pop, {}, dates, workers=1, seed=0)
    late = [dates[-1] + datetime.timedelta(days=30)]
    with pytest.raises(ValueError, match="no irradiance for tract t1 on"):
        generate_profiles(pop, irr, late, workers=1, seed=0)
    # two tracts: only the second one's series ends early, so it is named
    # with the first date it lacks
    two = make_households(3, tract=["t1", "t2", "t2"])
    short = {"t1": flat_series(days=3), "t2": flat_series("t2", days=1)}
    days3 = [dates[0] + datetime.timedelta(days=d) for d in range(3)]
    with pytest.raises(ValueError, match="^no irradiance for tract t2 on 2018-06-02$"):
        generate_profiles(two, short, days3, workers=1, seed=0)
    with pytest.raises(ValueError, match="^no irradiance series for tract t2$"):
        generate_profiles(two, {"t1": short["t1"]}, days3, workers=1, seed=0)


def test_profiles_horizontal_fallback_across_dates():
    # at lat 89.5, sin(alpha) <= 0.01 through 2018-03-22 and > 0.01 from 03-23
    pop = make_households(lat=89.5)
    start = datetime.date(2018, 3, 20)
    series = flat_series(days=6, start=start)
    dates = [start + datetime.timedelta(days=d) for d in range(6)]
    profiles = generate_profiles(pop, {"t1": series}, dates, workers=1, seed=5)
    arpr, tilts, d = (column[0] for column in sample(pop, 20, 5))
    flat_days = 0
    for j, date in enumerate(dates):
        alpha = 90.0 - 89.5 + declination(date.timetuple().tm_yday)
        s = np.sin(np.radians(alpha))
        if s <= 0.01:
            per_wh = arpr * d
            flat_days += 1
        else:
            per_wh = arpr * np.maximum(np.sin(np.radians(alpha + tilts)) / s * d, 0.0)
        assert (s <= 0.01) == (date <= datetime.date(2018, 3, 22))
        for hour, ghi in enumerate(series.ghi_for_date(date)):
            kwh = ghi / 1000.0 * per_wh
            assert profiles.hourly_mean[0, j, hour] == kwh.mean()
            assert profiles.hourly_std[0, j, hour] == kwh.std()
    assert flat_days == 3


def test_profile_csv_roundtrip(tmp_path):
    pop, irr, dates = profiles_setup(n_households=3, days=2)
    profiles = generate_profiles(pop, irr, dates, workers=1, seed=6)
    paths = save_profiles(profiles, tmp_path)
    assert [p.split("profiles_")[-1] for p in paths] == [
        "2018-06-01.csv", "2018-06-02.csv"
    ]
    rows = load_profile_rows(paths[0])
    assert len(rows["hour"]) == 3 * 24
    by_key = dict(zip(
        zip(rows["household_id"], rows["hour"]), zip(rows["mean_kwh"], rows["std_kwh"])
    ))
    assert by_key[(int(profiles.household[0]), 10)] == (
        float(profiles.hourly_mean[0, 0, 10]), float(profiles.hourly_std[0, 0, 10])
    )
    daily_path = tmp_path / "daily_test.csv"
    save_daily(profiles, daily_path)
    daily = load_daily(daily_path)
    assert len(daily["household_id"]) == len(profiles)
    assert daily["daily_mean_kwh"][0] == float(profiles.daily_mean[0, 0])
    # rows in (household, date) order
    assert list(zip(daily["household_id"], daily["date"])) == [
        (h, d) for h in range(3) for d in dates
    ]


# ------------------------------------------- batched sampler against the loop


def _reference_sample_time_invariant(household, sqft_value, n, rng):
    """The per-sample sampler the batched kernel replaced: one Generator
    call per draw, one rng.choice per sample, for one household's id and
    footage (None when missing), from the module's tables.  It returns
    every sampled variable, not only the three the kernel reads."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if sqft_value is None:
        raise ValueError(f"household {household} has no sqft_value")
    roof_area = ROOF_FACTOR * sqft_value * SQFT_TO_M2
    building_type = "small" if roof_area <= SMALL_THRESHOLD_M2 else "medium"
    yields = rng.uniform(*YIELD_RANGE, size=n)
    ratios = rng.uniform(*PR_RANGE, size=n)
    plane_values = np.array(sorted(PLANE_WEIGHTS))
    plane_p = np.array([PLANE_WEIGHTS[v] for v in plane_values], dtype=float)
    planes = rng.choice(plane_values, size=n, p=plane_p / plane_p.sum())
    areas = np.empty(n)
    for i in range(n):
        rate, location = AREA_PARAMS[(building_type, bool(planes[i] == 1))]
        candidates = rng.uniform(0.0, roof_area, size=N_CANDIDATES)
        weights = np.where(
            candidates >= location,
            rate * np.exp(-rate * (candidates - location)),
            0.0,
        )
        total = weights.sum()
        if total <= 0.0:
            weights = np.full(N_CANDIDATES, 1.0)
            total = float(N_CANDIDATES)
        chosen = rng.choice(candidates, p=weights / total)
        areas[i] = math.floor(chosen / PANEL_AREA_M2) * PANEL_AREA_M2
    tilt_values = sorted(TILT_WEIGHTS)
    azimuth_values = [a for a in AZIMUTH_SECTORS if a in AZIMUTH_WEIGHTS]
    pairs = [(t, a) for t in tilt_values for a in azimuth_values]
    joint = np.array([TILT_WEIGHTS[t] * AZIMUTH_WEIGHTS[a] for t, a in pairs])
    picks = rng.choice(len(pairs), size=n, p=joint / joint.sum())
    return SimpleNamespace(
        household=household,
        roof_area=roof_area,
        building_type=building_type,
        n=n,
        areas=areas,
        yields=yields,
        ratios=ratios,
        planes=planes,
        tilts=np.array([pairs[i][0] for i in picks]),
        azimuths=tuple(pairs[i][1] for i in picks),
        arpr=areas * yields * ratios,
        degradation=np.array([DEGRADATION[pairs[i][1]] for i in picks]),
    )


def _outcome(fn, *args):
    """fn's result, or the (type, message) of what it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _same_samples(batch, k, ref):
    """Row k of the sampler's arrays is the reference's arpr, tilts and
    degradation, bit for bit."""
    assert all(column.shape[1] == ref.n for column in batch)
    for column, name in zip(batch, ("arpr", "tilts", "degradation")):
        assert np.array_equal(column[k], getattr(ref, name)), name


# small/medium edge: the largest footage whose roof is <= 464.6 m^2, and the next
_EDGE = 464.6 / (1.5 * SQFT_TO_M2)
while 1.5 * _EDGE * SQFT_TO_M2 > 464.6:
    _EDGE = np.nextafter(_EDGE, 0.0)
while 1.5 * np.nextafter(_EDGE, np.inf) * SQFT_TO_M2 <= 464.6:
    _EDGE = np.nextafter(_EDGE, np.inf)
_FOOTAGES = st.one_of(
    st.floats(0.5, 70.0),  # every candidate below the 10 m^2 location: uniform fallback
    st.sampled_from([float(_EDGE), float(np.nextafter(_EDGE, np.inf))]),
    st.floats(70.0, 12000.0),
)


@settings(max_examples=300, deadline=None)
@given(
    footages=st.lists(st.one_of(st.none(), _FOOTAGES), min_size=1, max_size=6),
    n=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
@example(footages=[10.0, 4000.0], n=20, seed=0)
@example(footages=[1800.0, None, 30.0], n=3, seed=1)
def test_batched_sampler_matches_reference(footages, n, seed):
    """The batched kernel gives every household what the per-call loop
    gives it from the same stream, bit for bit, and raises what the loop
    raises for the first household that fails."""
    ids = [10 + 3 * k for k in range(len(footages))]
    pop = make_households(len(footages), sqft=list(footages), ids=ids)
    expected = []
    for household, sqft in zip(ids, footages):
        rng = rng_for(seed, "pv", household)
        got = _outcome(_reference_sample_time_invariant, household, sqft, n, rng)
        expected.append(got)
        if isinstance(got, tuple):
            break
    batch = _outcome(sample, pop, n, seed)
    if isinstance(expected[-1], tuple):
        assert batch == expected[-1]
    else:
        assert batch[0].shape == (len(footages), n)
        for k, ref in enumerate(expected):
            _same_samples(batch, k, ref)
    # one household alone: the same kernel, batch-shaped
    one = make_households(1, sqft=footages[:1], ids=ids[:1])
    first = _outcome(sample, one, n, seed)
    if isinstance(expected[0], tuple):
        assert first == expected[0]
    else:
        assert first[0].shape == (1, n)
        _same_samples(first, 0, expected[0])


def test_choose_is_the_choice_search_rule():
    """choose picks as Generator.choice does: the cdf divided by its last
    value, searched with side="right", so a draw equal to a cdf step takes
    the next entry and a draw above an unnormalized total stays in range."""
    p = np.full(10, 0.1)  # its cumsum ends at 0.9999999999999999
    cdf = p.cumsum()
    cdf /= cdf[-1]
    top = np.nextafter(1.0, 0.0)
    u = np.concatenate([cdf[:-1], [0.0, top], np.random.default_rng(0).random(50)])
    assert np.array_equal(choose(p, u), cdf.searchsorted(u, side="right"))
    assert choose(p, np.array([top]))[0] == 9
    picks = np.random.default_rng(3).choice(10, size=200, p=p)
    assert np.array_equal(choose(p, np.random.default_rng(3).random(200)), picks)


def _reference_profiles(pop, irradiance, dates, seed, n):
    """Per-household (D, 24) mean and std from the reference sampler."""
    deltas = np.array([declination(date.timetuple().tm_yday) for date in dates])
    mean, std = [], []
    columns = (pop.id.tolist(), pop.sqft_value.tolist(), pop.tract.tolist(), pop.lat.tolist())
    for household, sqft, tract, lat in zip(*columns):
        rng = rng_for(seed, "pv", household)
        ti = _reference_sample_time_invariant(household, sqft, n, rng)
        d = np.array([DEGRADATION[a] for a in ti.azimuths])
        ghi = np.stack([irradiance[tract].ghi_for_date(date) for date in dates])
        per_wh = ti.arpr * pv._tilt_factors(lat, deltas[:, None], ti.tilts, d)
        energy = (ghi / 1000.0)[:, :, None] * per_wh[:, None, :]
        mean.append(energy.mean(axis=-1))
        std.append(energy.std(axis=-1))
    return np.array(mean).reshape(-1, len(dates), 24), np.array(std).reshape(-1, len(dates), 24)


@settings(max_examples=60, deadline=None)
@given(
    footages=st.lists(_FOOTAGES, min_size=1, max_size=7),
    lats=st.lists(st.sampled_from([25.0, 38.0, 48.5, 89.5]), min_size=7, max_size=7),
    days=st.integers(1, 4),
    n=st.integers(1, 30),
    cells=st.sampled_from([1, 700, 5000, pv._BLOCK_CELLS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_profiles_match_reference_per_household(footages, lats, days, n, cells, seed):
    """Household chunks of any size give each household's reference
    profile bit for bit, and the chunked daily reduction equals the one
    taken on the whole block."""
    start = datetime.date(2018, 3, 19)
    irradiance = {
        "t1": flat_series("t1", days=days, start=start),
        "t2": flat_series("t2", days=days, value=730.5, start=start),
    }
    dates = [start + datetime.timedelta(days=d) for d in range(days)]
    n_households = len(footages)
    pop = make_households(
        n_households, sqft=list(footages), lat=lats[:n_households],
        tract=[f"t{1 + k % 2}" for k in range(n_households)],
    )
    with mock.patch.object(pv, "_BLOCK_CELLS", cells):
        profiles = generate_profiles(pop, irradiance, dates, workers=1, seed=seed, n_samples=n)
        daily = generate_profiles(
            pop, irradiance, dates, workers=1, seed=seed, n_samples=n, hourly=False
        )
    mean, std = _reference_profiles(pop, irradiance, dates, seed, n)
    assert np.array_equal(profiles.hourly_mean, mean)
    assert np.array_equal(profiles.hourly_std, std)
    assert np.array_equal(profiles.mean_daily, profiles.daily_mean.mean(axis=1))
    assert np.array_equal(daily.mean_daily, profiles.mean_daily)
    assert daily.hourly_mean is None and daily.hourly_std is None
    assert len(daily) == len(profiles) and np.array_equal(daily.household, profiles.household)


def test_mean_daily_matches_whole_block_across_workers():
    """One-household chunks, in one block of 9, blocks of 5 and 4, or
    blocks of 1 (12 workers leave 3 blocks empty), give the arrays of one
    whole-block chunk."""
    pop, irr, dates = profiles_setup(n_households=9, days=2)
    whole = generate_profiles(pop, irr, dates, workers=1, seed=11)
    assert np.array_equal(whole.mean_daily, whole.daily_mean.mean(axis=1))
    for workers in (1, 2, 12):
        with mock.patch.object(pv, "_BLOCK_CELLS", 1):
            daily = generate_profiles(pop, irr, dates, workers=workers, seed=11, hourly=False)
            hourly = generate_profiles(pop, irr, dates, workers=workers, seed=11)
        assert daily.mean_daily.shape == (9,)
        assert np.array_equal(daily.mean_daily, whole.mean_daily)
        assert daily.hourly_mean is None and daily.hourly_std is None
        assert np.array_equal(hourly.household, whole.household)
        assert np.array_equal(hourly.hourly_mean, whole.hourly_mean)
        assert np.array_equal(hourly.hourly_std, whole.hourly_std)
        assert np.array_equal(hourly.mean_daily, whole.mean_daily)


def test_first_adopter_without_sqft_is_named():
    # household 1 lacks footage too, but is not an adopter: never sampled
    pop = make_households(
        6, sqft=[1500.0, None, 1500.0, 1500.0, None, None], solar=[True, False] + [True] * 4
    )
    series = flat_series(days=1)
    for workers in (1, 2):
        with pytest.raises(ValueError, match="^household 4 has no sqft_value$"):
            generate_profiles(pop, {"t1": series}, [series.start_date], workers=workers, seed=0)


def test_overflowing_roof_is_named():
    # 1.5 * 1.5e308 overflows: that household's roof area is inf
    message = "^household 7 has sqft_value 1.5e\\+308, whose roof area is not finite$"
    pop = make_households(3, sqft=[1800.0, 1.5e308, None], ids=[5, 7, 9])
    with pytest.raises(ValueError, match=message):
        sample(pop, 20, 0)
    # the sixth adopter: in the second block with two workers
    pop = make_households(7, sqft=[1500.0] * 5 + [1.5e308, 1500.0], ids=list(range(2, 9)))
    series = flat_series(days=1)
    for workers in (1, 2):
        with pytest.raises(ValueError, match=message):
            generate_profiles(pop, {"t1": series}, [series.start_date], workers=workers, seed=0)


def test_non_finite_energy_is_named():
    # a finite 1e308 W/m^2 at noon of the second day in tract t2: the
    # ensemble std of that hour overflows for both of t2's households
    pop = make_households(3, tract=["t1", "t2", "t2"], ids=[4, 6, 8])
    huge = flat_series("t2", days=2)
    huge.hours[24 + 12] = 1e308
    irradiance = {"t1": flat_series(days=2), "t2": huge}
    dates = [huge.start_date, huge.start_date + datetime.timedelta(days=1)]
    for workers in (1, 2):
        with pytest.raises(ValueError, match="^household 6 has non-finite energy on 2018-06-02$"):
            generate_profiles(pop, irradiance, dates, workers=workers, seed=0)
