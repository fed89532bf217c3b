"""Hourly PV energy profiles with uncertainty.

Each household gets an ensemble of n time-invariant samples (panel area,
yield, performance ratio, tilt, azimuth).  For every date the declination
fixes a solar elevation angle, each hour's horizontal irradiance is
projected onto the sampled tilted planes with an azimuth degradation
factor, and energy per sample is area * yield * radiation * ratio, reported
as the ensemble mean and population standard deviation in kWh.  Households
are independent, so the engine parallelizes over contiguous household
blocks with per-household seeded streams; outputs are identical for any
worker count.
"""

import datetime
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .records import HouseholdRecord, HouseholdTable, IrradianceSeries, read_csv, write_csv
from .seeds import rng_for

SQFT_TO_M2 = 0.092903
AZIMUTH_SECTORS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")

DEFAULT_DEGRADATION = {
    "S": 1.00,
    "SE": 0.95,
    "SW": 0.95,
    "E": 0.85,
    "W": 0.85,
    "NE": 0.70,
    "NW": 0.70,
    "N": 0.55,
}

DEFAULT_PLANE_WEIGHTS = {1: 0.50, 2: 0.30, 3: 0.15, 4: 0.05}
DEFAULT_TILT_WEIGHTS = {15.0: 0.30, 25.0: 0.45, 35.0: 0.25}
DEFAULT_AZIMUTH_WEIGHTS = {
    "S": 0.30,
    "SE": 0.15,
    "SW": 0.15,
    "E": 0.10,
    "W": 0.10,
    "NE": 0.06,
    "NW": 0.06,
    "N": 0.08,
}

# Exponential density parameters (rate, location) for candidate-area
# weighting, keyed by (building_type, single_plane).
DEFAULT_AREA_PARAMS = {
    ("small", True): (0.042, 10.0),
    ("small", False): (0.071, 10.0),
    ("medium", True): (0.002, 300.0),
    ("medium", False): (0.046, 10.0),
}


@dataclass(frozen=True)
class SamplingTables:
    """All weight tables and physical constants of the sampling stage."""

    roof_factor: float = 1.5
    small_threshold_m2: float = 464.6
    panel_area_m2: float = 1.64
    yield_range: tuple = (0.18, 0.22)
    pr_range: tuple = (0.5, 0.9)
    plane_weights: dict = field(default_factory=lambda: dict(DEFAULT_PLANE_WEIGHTS))
    tilt_weights: dict = field(default_factory=lambda: dict(DEFAULT_TILT_WEIGHTS))
    azimuth_weights: dict = field(default_factory=lambda: dict(DEFAULT_AZIMUTH_WEIGHTS))
    degradation: dict = field(default_factory=lambda: dict(DEFAULT_DEGRADATION))
    area_params: dict = field(default_factory=lambda: dict(DEFAULT_AREA_PARAMS))
    n_candidates: int = 100


DEFAULT_TABLES = SamplingTables()


@dataclass
class TimeInvariantSamples:
    """Per-household sampled ensembles of the time-invariant variables."""

    household: int
    roof_area: float
    building_type: str
    n: int
    areas: np.ndarray
    yields: np.ndarray
    ratios: np.ndarray
    planes: np.ndarray
    tilts: np.ndarray
    azimuths: tuple
    arpr: np.ndarray

    def __post_init__(self):
        for name in ("areas", "yields", "ratios", "planes", "tilts", "arpr"):
            if len(getattr(self, name)) != self.n:
                raise ValueError(f"{name} must have length n={self.n}")
        if len(self.azimuths) != self.n:
            raise ValueError(f"azimuths must have length n={self.n}")


def sample_time_invariant(
    h: HouseholdRecord,
    n: int = 20,
    tables: SamplingTables | None = None,
    seed=0,
) -> TimeInvariantSamples:
    """Draw n time-invariant samples for one household.

    Roof area is 1.5x the house footprint converted to m^2; buildings at or
    under 464.6 m^2 count as small.  Yields and performance ratios are
    uniform in their ranges.  For each sample a plane count is drawn, then
    ~100 uniform candidate areas in (0, roof_area) are weighted by an
    exponential density whose (rate, location) depend on building type and
    whether the sample has a single plane; the winning candidate snaps down
    to a whole number of 1.64 m^2 panels.  Tilt/azimuth pairs come from the
    joint weight table.  seed may be an integer or a numpy Generator.
    """
    tables = tables or DEFAULT_TABLES
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if h.sqft_value is None:
        raise ValueError(f"household {h.id} has no sqft_value")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        rng = rng_for(seed, "pv", h.id)

    roof_area = tables.roof_factor * h.sqft_value * SQFT_TO_M2
    building_type = "small" if roof_area <= tables.small_threshold_m2 else "medium"

    yields = rng.uniform(*tables.yield_range, size=n)
    ratios = rng.uniform(*tables.pr_range, size=n)

    plane_values = np.array(sorted(tables.plane_weights))
    plane_p = np.array([tables.plane_weights[v] for v in plane_values], dtype=float)
    planes = rng.choice(plane_values, size=n, p=plane_p / plane_p.sum())

    areas = np.empty(n)
    for i in range(n):
        rate, location = tables.area_params[(building_type, bool(planes[i] == 1))]
        candidates = rng.uniform(0.0, roof_area, size=tables.n_candidates)
        weights = np.where(
            candidates >= location,
            rate * np.exp(-rate * (candidates - location)),
            0.0,
        )
        total = weights.sum()
        if total <= 0.0:
            weights = np.full(tables.n_candidates, 1.0)  # all mass below location
            total = float(tables.n_candidates)
        chosen = rng.choice(candidates, p=weights / total)
        areas[i] = math.floor(chosen / tables.panel_area_m2) * tables.panel_area_m2

    tilt_values = sorted(tables.tilt_weights)
    azimuth_values = [a for a in AZIMUTH_SECTORS if a in tables.azimuth_weights]
    pairs = [(t, a) for t in tilt_values for a in azimuth_values]
    joint = np.array(
        [tables.tilt_weights[t] * tables.azimuth_weights[a] for t, a in pairs]
    )
    picks = rng.choice(len(pairs), size=n, p=joint / joint.sum())
    tilts = np.array([pairs[i][0] for i in picks])
    azimuths = tuple(pairs[i][1] for i in picks)

    return TimeInvariantSamples(
        household=h.id,
        roof_area=roof_area,
        building_type=building_type,
        n=n,
        areas=areas,
        yields=yields,
        ratios=ratios,
        planes=planes,
        tilts=tilts,
        azimuths=azimuths,
        arpr=areas * yields * ratios,
    )


def declination(day_of_year: int) -> float:
    """Solar declination in degrees: 23.45 * sin(360 * (284 + n) / 365)."""
    if not 1 <= day_of_year <= 366:
        raise ValueError(f"day_of_year must be in [1, 366], got {day_of_year}")
    return 23.45 * math.sin(math.radians(360.0 * (284 + day_of_year) / 365.0))


def tilted_radiation(
    ghi: float,
    lat: float,
    delta: float,
    theta: float,
    omega: str,
    degradation: dict | None = None,
) -> float:
    """Radiation on a tilted plane: ghi * sin(alpha + theta)/sin(alpha) * D.

    alpha = 90 - lat + delta is the solar elevation angle at the given
    declination.  When sin(alpha) <= 0.01 the projection is ill-conditioned
    and the horizontal value ghi * D is returned instead.  Output is clamped
    to >= 0.
    """
    degradation = degradation if degradation is not None else DEFAULT_DEGRADATION
    if ghi < 0:
        raise ValueError(f"ghi must be >= 0, got {ghi}")
    if omega not in degradation:
        raise ValueError(f"unknown azimuth sector {omega!r}")
    return float(ghi * _tilt_factors(lat, delta, theta, degradation[omega]))


def _tilt_factors(lat: float, delta: float, tilts, d):
    """HT/GHI ratio sin(alpha + tilt)/sin(alpha) * D per sample, clamped to
    >= 0; the horizontal D when sin(alpha) <= 0.01.

    Numerator and denominator use the same sine, so at zero tilt the ratio
    is exactly 1.
    """
    alpha = 90.0 - lat + delta
    s = np.sin(np.radians(alpha))
    if s <= 0.01:
        return d
    factors = np.sin(np.radians(alpha + tilts)) / s * d
    return np.maximum(factors, 0.0)


def _ensemble_kwh(ghi, per_wh) -> tuple:
    """Hourly (mean, std) kWh over the ensemble, where sample i yields
    ghi[h] / 1000 * per_wh[i] in hour h."""
    energy = np.outer(np.asarray(ghi) / 1000.0, per_wh)  # (hours, n) kWh
    return energy.mean(axis=1), energy.std(axis=1)


def hourly_energy(ti: TimeInvariantSamples, ht) -> tuple:
    """(mean, std) energy in kWh over the ensemble for one hour.

    ht is the tilted radiation in W/m^2, either one scalar shared by all
    samples or one value per sample.  Per sample the hour yields
    area * yield * ht * ratio watt-hours.
    """
    ht_arr = np.asarray(ht, dtype=float)
    if ht_arr.ndim != 0 and ht_arr.shape != (ti.n,):
        raise ValueError(f"ht must be scalar or length {ti.n}")
    # one hour at unit GHI: ht already holds each sample's plane irradiance
    mean, std = _ensemble_kwh([1.0], ti.arpr * ht_arr)
    return float(mean[0]), float(std[0])


@dataclass
class EnergyProfile:
    """One household-day: 24 hourly (mean, std) pairs plus daily aggregates."""

    household: int
    date: datetime.date
    hourly_mean: np.ndarray
    hourly_std: np.ndarray
    daily_mean: float
    daily_std: float


def _profile_for_day(ti, lat, date, ghi24, degradation) -> EnergyProfile:
    delta = declination(date.timetuple().tm_yday)
    d = np.array([degradation[a] for a in ti.azimuths])
    per_wh = ti.arpr * _tilt_factors(lat, delta, ti.tilts, d)
    hourly_mean, hourly_std = _ensemble_kwh(ghi24, per_wh)
    return EnergyProfile(
        household=ti.household,
        date=date,
        hourly_mean=hourly_mean,
        hourly_std=hourly_std,
        daily_mean=float(hourly_mean.sum()),
        daily_std=float(math.sqrt(float((hourly_std**2).sum()))),
    )


def _profiles_for_records(records, irradiance, dates, seed, tables, n_samples):
    profiles = []
    for rec in records:
        rng = rng_for(seed, "pv", rec.id)
        ti = sample_time_invariant(rec, n_samples, tables, rng)
        series = irradiance[rec.tract]
        for date in dates:
            profiles.append(
                _profile_for_day(
                    ti, rec.lat, date, series.ghi_for_date(date), tables.degradation
                )
            )
    return profiles


def generate_profiles(
    pop: HouseholdTable,
    irradiance: dict,
    dates,
    workers: int = 1,
    seed: int = 0,
    tables: SamplingTables | None = None,
    n_samples: int = 20,
) -> list:
    """Energy profiles for every solar-adopter household over the dates.

    irradiance maps tract id to IrradianceSeries.  Households are split into
    contiguous blocks across workers; per-household streams are derived from
    (seed, household id), so the result is a list ordered by (household
    table order, date) and identical for any worker count.
    """
    tables = tables or DEFAULT_TABLES
    dates = list(dates)
    if not dates:
        raise ValueError("no dates in period")
    adopters = [rec for rec in pop if rec.solar]
    for rec in adopters:
        if rec.tract not in irradiance:
            raise ValueError(f"no irradiance series for tract {rec.tract}")
        series = irradiance[rec.tract]
        for date in dates:
            if not series.covers(date):
                raise ValueError(
                    f"no irradiance for tract {rec.tract} on {date.isoformat()}"
                )
    if not adopters:
        return []
    workers = max(1, int(workers))
    if workers == 1 or len(adopters) == 1:
        return _profiles_for_records(adopters, irradiance, dates, seed, tables, n_samples)
    blocks = [b for b in np.array_split(np.arange(len(adopters)), workers) if b.size]
    profiles = []
    # more blocks than CPUs queue on the pool; the blocks fix the output
    with ProcessPoolExecutor(max_workers=min(len(blocks), os.cpu_count() or 1)) as pool:
        futures = [
            pool.submit(
                _profiles_for_records,
                [adopters[i] for i in block],
                irradiance,
                dates,
                seed,
                tables,
                n_samples,
            )
            for block in blocks
        ]
        for future in futures:
            profiles.extend(future.result())
    return profiles


def save_profiles(profiles, out_dir) -> list:
    """Write one profiles_<date>.csv per date; returns the paths written."""
    by_date = {}
    for prof in profiles:
        by_date.setdefault(prof.date, []).append(prof)
    paths = []
    for date in sorted(by_date):
        day = date.isoformat()
        path = os.path.join(out_dir, f"profiles_{day}.csv")
        write_csv(
            path,
            ["household_id", "date", "hour", "mean_kwh", "std_kwh"],
            (
                [prof.household, day, hour, repr(float(prof.hourly_mean[hour])),
                 repr(float(prof.hourly_std[hour]))]
                for prof in by_date[date]
                for hour in range(24)
            ),
        )
        paths.append(path)
    return paths


def save_daily(profiles, path):
    """Write daily_<period>.csv rows in profile order."""
    write_csv(
        path,
        ["household_id", "date", "daily_mean_kwh", "daily_std_kwh"],
        (
            [prof.household, prof.date.isoformat(), repr(float(prof.daily_mean)),
             repr(float(prof.daily_std))]
            for prof in profiles
        ),
    )


def load_daily(path) -> list:
    """Read a daily CSV back as (household_id, date, mean, std) tuples."""
    columns = read_csv(
        path,
        {
            "household_id": int,
            "date": datetime.date.fromisoformat,
            "daily_mean_kwh": float,
            "daily_std_kwh": float,
        },
    )
    return list(zip(*columns.values()))


def load_profile_rows(path) -> list:
    """Read a profiles_<date>.csv back as (household_id, date, hour, mean,
    std) tuples, the date as text.  Every row's date must be the one in the
    file name."""
    day = os.path.basename(path)[len("profiles_"):-len(".csv")]

    def same_day(cell):
        if cell != day:
            raise ValueError(f"date is not {day}")
        return cell

    columns = read_csv(
        path,
        {"household_id": int, "date": same_day, "hour": int, "mean_kwh": float, "std_kwh": float},
    )
    return list(zip(*columns.values()))
