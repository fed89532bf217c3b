"""Hourly PV energy profiles with uncertainty.

Each household gets an ensemble of n time-invariant samples (panel area,
yield, performance ratio, tilt, azimuth).  For every date the declination
fixes a solar elevation angle, each hour's horizontal irradiance is
projected onto the sampled tilted planes with an azimuth degradation
factor, and energy per sample is area * yield * radiation * ratio, reported
as the ensemble mean and population standard deviation in kWh.  The result
is one EnergyProfiles block of (households, dates, 24) arrays.

The engine reads the adopters' id, sqft_value, lat and tract columns and
works on household chunks.  Each household's whole sampling sequence is
one row of raw doubles from its own stream rng_for(seed, "pv", id), and
the sampling math, the tilted projection and the ensemble reduction each
run once per chunk; a chunk holds fewer households the more dates there
are, so every intermediate is bounded by household-days.  A caller that
needs only each household's mean daily kWh reduces every chunk as it is
made (hourly=False).  Households are independent, so the engine also
parallelizes over contiguous household blocks; outputs are identical for
any worker count and any chunk size.  The sampler takes the same columns,
so one household is a one-row table and gets (1, n) samples.  The CSV
loaders return whole parsed columns.
"""

import datetime
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .records import HouseholdTable, IrradianceSeries, read_csv, write_csv
from .seeds import CHOICE_ERRORS, choice_codes, choice_error, choose, stream_rows

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
    """Sampled ensembles of the time-invariant variables of H households:
    (H,) household ids, roof areas and building types, and (H, n) arrays
    of per-sample values (azimuths holds sector names).  degradation holds
    each sample's azimuth factor from the sampling tables, NaN for a sector
    they lack."""

    household: np.ndarray
    roof_area: np.ndarray
    building_type: np.ndarray
    n: int
    areas: np.ndarray
    yields: np.ndarray
    ratios: np.ndarray
    planes: np.ndarray
    tilts: np.ndarray
    azimuths: np.ndarray
    arpr: np.ndarray
    degradation: np.ndarray | None = None

    def __post_init__(self):
        for name in ("areas", "yields", "ratios", "planes", "tilts", "azimuths", "arpr"):
            if np.shape(getattr(self, name))[-1:] != (self.n,):
                raise ValueError(f"{name} must have length n={self.n}")


def _uniform_error(span):
    """The exception Generator.uniform raises for high - low = span, or None."""
    if not np.isfinite(span):
        return OverflowError("high - low range exceeds valid bounds")
    return ValueError("high - low < 0") if span < 0 else None


def sample_time_invariant(
    h,
    n: int = 20,
    tables: SamplingTables | None = None,
    seed=0,
) -> TimeInvariantSamples:
    """Draw n time-invariant samples for each of a batch of households.

    Roof area is 1.5x the house footprint converted to m^2; buildings at or
    under 464.6 m^2 count as small.  Yields and performance ratios are
    uniform in their ranges.  For each sample a plane count is drawn, then
    ~100 uniform candidate areas in (0, roof_area) are weighted by an
    exponential density whose (rate, location) depend on building type and
    whether the sample has a single plane; the winning candidate snaps down
    to a whole number of 1.64 m^2 panels.  Tilt/azimuth pairs come from the
    joint weight table.

    h is any object with (H,) ``id`` and ``sqft_value`` columns, such as a
    HouseholdTable (one household is a one-row table); a missing footage
    is masked or NaN.  seed may be an integer, giving each household the
    stream rng_for(seed, "pv", id), or a numpy Generator that the
    households consume in turn.
    A household takes n * (n_candidates + 5) doubles in the order of one
    Generator call per draw: n yields, n ratios, n plane counts; per sample,
    n_candidates candidates and one pick; then n tilt/azimuth picks.  All
    the math runs on the batch's (H, n, n_candidates + 1) block of doubles,
    and a failure raises what the per-draw sequence raises for the first
    household that fails, at its first failing check.
    """
    tables = tables or DEFAULT_TABLES
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ids = h.id
    sqft = np.ma.filled(h.sqft_value, np.nan)
    missing = np.isnan(sqft)

    def no_sqft(row):
        return ValueError(f"household {int(ids[row])} has no sqft_value")

    if missing[0]:
        raise no_sqft(0)
    # checks on the tables alone, which the first household meets next
    y_lo, y_hi = map(float, tables.yield_range)
    r_lo, r_hi = map(float, tables.pr_range)
    plane_values = np.array(sorted(tables.plane_weights))
    plane_p = np.array([tables.plane_weights[v] for v in plane_values], dtype=float)
    plane_p = plane_p / plane_p.sum()
    for error in (_uniform_error(y_hi - y_lo), _uniform_error(r_hi - r_lo), choice_error(plane_p)):
        if error is not None:
            raise error
    area_params = np.array(
        [[tables.area_params[kind, one] for one in (False, True)] for kind in ("small", "medium")],
        float,
    )
    pairs = [
        (t, a)
        for t in sorted(tables.tilt_weights)
        for a in AZIMUTH_SECTORS
        if a in tables.azimuth_weights
    ]
    joint = np.array([tables.tilt_weights[t] * tables.azimuth_weights[a] for t, a in pairs])
    joint = joint / joint.sum()
    joint_error = choice_error(joint)

    C = tables.n_candidates
    H, size = ids.size, n * (C + 5)
    if isinstance(seed, np.random.Generator):
        u = seed.random((H, size))
    else:
        u = stream_rows(seed, "pv", ids, size)
    draws = u[:, 3 * n : 3 * n + n * (C + 1)].reshape(H, n, C + 1)
    yields = y_lo + (y_hi - y_lo) * u[:, :n]
    ratios = r_lo + (r_hi - r_lo) * u[:, n : 2 * n]
    planes = plane_values[choose(plane_p, u[:, 2 * n : 3 * n])]
    roof = tables.roof_factor * sqft * SQFT_TO_M2
    medium = ~(roof <= tables.small_threshold_m2)
    cell = area_params[medium[:, None].astype(int), (planes == 1).astype(int)]
    rate, location = cell[..., 0, None], cell[..., 1, None]
    # uniform(0, roof) is 0 + roof * u, which is roof * u
    candidates = roof[:, None, None] * draws[..., :C]
    weights = np.where(
        candidates >= location, rate * np.exp(-rate * (candidates - location)), 0.0
    )
    total = weights.sum(axis=-1)
    flat = total <= 0.0  # all mass below location: uniform weights
    p = np.where(flat[..., None], 1.0, weights) / np.where(flat, float(C), total)[..., None]

    # each sample checks uniform's range, then choice's p; the joint pick is last
    range_error = [_uniform_error(span) for span in roof.tolist()]
    p_code = choice_codes(p)
    bad = np.array([e is not None for e in range_error])[:, None] | (p_code >= 0)
    fails = missing | bad.any(axis=1)
    fails[0] |= joint_error is not None
    if fails.any():
        row = int(np.argmax(fails))
        if missing[row]:
            raise no_sqft(row)
        if not bad[row].any():
            raise joint_error
        raise range_error[row] or ValueError(CHOICE_ERRORS[p_code[row][p_code[row] >= 0][0]])

    chosen = np.take_along_axis(candidates, choose(p, draws[..., C])[..., None], axis=-1)
    areas = np.floor(chosen[..., 0] / tables.panel_area_m2) * tables.panel_area_m2
    pick = choose(joint, u[:, 3 * n + n * (C + 1) :])
    tilts = np.array([t for t, _ in pairs])[pick]
    azimuths = np.array([a for _, a in pairs])[pick]
    factors = np.array([tables.degradation.get(a, np.nan) for _, a in pairs], dtype=float)
    return TimeInvariantSamples(
        household=ids,
        roof_area=roof,
        building_type=np.where(medium, "medium", "small"),
        n=n,
        areas=areas,
        yields=yields,
        ratios=ratios,
        planes=planes,
        tilts=tilts,
        azimuths=azimuths,
        arpr=areas * yields * ratios,
        degradation=factors[pick],
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


def _tilt_factors(lat: float, delta, tilts, d):
    """HT/GHI ratio sin(alpha + tilt)/sin(alpha) * D, clamped to >= 0; the
    horizontal D where sin(alpha) <= 0.01.

    delta, tilts and d broadcast: a (D, 1) column of declinations against
    (n,) sample tilts gives a (D, n) block.  Numerator and denominator use
    the same sine, so at zero tilt the ratio is exactly 1.
    """
    alpha = 90.0 - lat + delta
    s = np.sin(np.radians(alpha))
    flat = s <= 0.01
    factors = np.sin(np.radians(alpha + tilts)) / np.where(flat, 1.0, s) * d
    return np.where(flat, d, np.maximum(factors, 0.0))


def _sample_kwh(ghi, per_wh):
    """kWh of every sample in every hour, (..., hours, n): sample i yields
    ghi[..., h] / 1000 * per_wh[..., i] in hour h."""
    return (np.asarray(ghi) / 1000.0)[..., :, None] * per_wh[..., None, :]


def _ensemble_kwh(energy) -> tuple:
    """Hourly (mean, std) kWh over the ensemble, the last axis of energy."""
    return energy.mean(axis=-1), energy.std(axis=-1)


@dataclass
class EnergyProfiles:
    """Hourly (mean, std) kWh of H households over D dates, as (H, D, 24)
    arrays, or None when they were reduced without being kept; household
    holds the (H,) ids, and mean_daily each household's mean over the dates
    of its daily mean kWh.  len() counts household-days."""

    household: np.ndarray
    dates: list
    hourly_mean: np.ndarray | None
    hourly_std: np.ndarray | None
    mean_daily: np.ndarray

    @property
    def daily_mean(self) -> np.ndarray:
        return self.hourly_mean.sum(axis=-1)

    @property
    def daily_std(self) -> np.ndarray:
        return np.sqrt((self.hourly_std**2).sum(axis=-1))

    def __len__(self):
        return self.household.size * len(self.dates)


# doubles per intermediate array of the profile kernel: a chunk covers
# fewer households the more samples, candidates and dates each one has
_BLOCK_CELLS = 1 << 18


class _Households(NamedTuple):
    """The columns of the adopters the profile kernel reads."""

    id: np.ndarray
    sqft_value: np.ndarray
    lat: np.ndarray
    tract: np.ndarray


def _profile_chunks(households, ghi, deltas, seed, tables, n_samples, reduce):
    """Yield reduce(energy) for consecutive household chunks, where energy
    is the chunk's (households, D, 24, n) kWh per sample.

    households.tract indexes the (tracts, D, 24) GHI stack ghi, and deltas
    holds the D declinations.  Each chunk is sampled in one call and
    projected in one _tilt_factors call.
    """
    per_household = max(n_samples, 1) * max(tables.n_candidates + 1, 24 * deltas.size)
    rows = max(1, _BLOCK_CELLS // per_household)
    for start in range(0, households.id.size, rows):
        chunk = _Households(*(column[start : start + rows] for column in households))
        ti = sample_time_invariant(chunk, n_samples, tables, seed)
        lost = np.isnan(ti.degradation)
        if lost.any():  # as the per-sample lookup raised it
            raise KeyError(str(ti.azimuths[np.unravel_index(np.argmax(lost), lost.shape)]))
        lat, tilts, d = chunk.lat[:, None, None], ti.tilts[:, None, :], ti.degradation[:, None, :]
        factors = _tilt_factors(lat, deltas[:, None], tilts, d)
        yield reduce(_sample_kwh(ghi[chunk.tract], ti.arpr[:, None, :] * factors))


def _profile_block(*args):
    return list(_profile_chunks(*args))


def _mean_daily(energy):
    return (energy.mean(axis=-1).sum(axis=-1).mean(axis=1),)


def _hourly(energy):
    mean, std = _ensemble_kwh(energy)
    return mean, std, mean.sum(axis=-1).mean(axis=1)


def generate_profiles(
    pop: HouseholdTable,
    irradiance: dict,
    dates,
    workers: int = 1,
    seed: int = 0,
    tables: SamplingTables | None = None,
    n_samples: int = 20,
    hourly: bool = True,
) -> EnergyProfiles:
    """Energy profiles for every solar-adopter household over the dates, in
    table order.

    irradiance maps tract id to IrradianceSeries.  The kernel runs on
    household chunks; with hourly=False each chunk is reduced to mean_daily
    as it is made and the (households, dates, 24) blocks are not kept.
    Households are split into contiguous blocks across workers, each block
    returning its reduced chunks; per-household streams are derived from
    (seed, household id), so the values are identical for any worker count.
    """
    tables = tables or DEFAULT_TABLES
    dates = list(dates)
    if not dates:
        raise ValueError("no dates in period")
    rows = np.flatnonzero(pop.solar.filled(False))
    names, first, tract = np.unique(pop.tract[rows], return_index=True, return_inverse=True)
    for name in names[np.argsort(first)].tolist():
        if name not in irradiance:
            raise ValueError(f"no irradiance series for tract {name}")
        for date in dates:
            if not irradiance[name].covers(date):
                raise ValueError(f"no irradiance for tract {name} on {date.isoformat()}")
    ghi = np.array([[irradiance[name].ghi_for_date(date) for date in dates] for name in names])
    deltas = np.array([declination(date.timetuple().tm_yday) for date in dates])
    households = _Households(
        pop.id[rows], pop.sqft_value.filled(np.nan)[rows], pop.lat[rows], tract
    )
    reduce = _hourly if hourly else _mean_daily
    args = (ghi.reshape(-1, len(dates), 24), deltas, seed, tables, n_samples, reduce)
    workers = max(1, int(workers))
    if workers == 1 or rows.size <= 1:
        parts = _profile_chunks(households, *args)
    else:
        blocks = [b for b in np.array_split(np.arange(rows.size), workers) if b.size]
        # more blocks than CPUs queue on the pool; the blocks fix the output
        with ProcessPoolExecutor(max_workers=min(len(blocks), os.cpu_count() or 1)) as pool:
            futures = [
                pool.submit(_profile_block, _Households(*(c[block] for c in households)), *args)
                for block in blocks
            ]
            parts = [part for future in futures for part in future.result()]
    shapes = [a.shape[1:] for a in reduce(np.empty((0, len(dates), 24, 1)))]
    out = [np.empty((rows.size,) + shape) for shape in shapes]
    start = 0
    for part in parts:
        for whole, a in zip(out, part):
            whole[start : start + len(a)] = a
        start += len(part[0])
    mean, std = out[:2] if hourly else (None, None)
    return EnergyProfiles(pop.id[rows], dates, mean, std, out[-1])


def save_profiles(profiles: EnergyProfiles, out_dir) -> list:
    """Write one profiles_<date>.csv per date, in ascending date order;
    returns the paths written (none when there are no households)."""
    if not profiles.household.size:
        return []
    ids = [cell for cell in map(str, profiles.household.tolist()) for _ in range(24)]
    hours = list(map(str, range(24))) * profiles.household.size
    paths = []
    for j in sorted(range(len(profiles.dates)), key=profiles.dates.__getitem__):
        day = profiles.dates[j].isoformat()
        path = os.path.join(out_dir, f"profiles_{day}.csv")
        write_csv(
            path,
            ["household_id", "date", "hour", "mean_kwh", "std_kwh"],
            [
                ids, [day] * len(ids), hours,
                list(map(repr, profiles.hourly_mean[:, j].ravel().tolist())),
                list(map(repr, profiles.hourly_std[:, j].ravel().tolist())),
            ],
        )
        paths.append(path)
    return paths


def save_daily(profiles: EnergyProfiles, path):
    """Write daily_<period>.csv rows in (household, date) order."""
    days = [date.isoformat() for date in profiles.dates]
    write_csv(
        path,
        ["household_id", "date", "daily_mean_kwh", "daily_std_kwh"],
        [
            [cell for cell in map(str, profiles.household.tolist()) for _ in days],
            days * profiles.household.size,
            list(map(repr, profiles.daily_mean.ravel().tolist())),
            list(map(repr, profiles.daily_std.ravel().tolist())),
        ],
    )


def load_daily(path) -> dict:
    """Read a daily CSV back as its household_id, date, daily_mean_kwh and
    daily_std_kwh columns, keyed by name."""
    return read_csv(
        path,
        {
            "household_id": int,
            "date": datetime.date.fromisoformat,
            "daily_mean_kwh": float,
            "daily_std_kwh": float,
        },
    )


def load_profile_rows(path) -> dict:
    """Read a profiles_<date>.csv back as its household_id, date, hour,
    mean_kwh and std_kwh columns, keyed by name, the date as text.  Every
    row's date must be the one in the file name."""
    day = os.path.basename(path)[len("profiles_"):-len(".csv")]

    def same_day(cell):
        if cell != day:
            raise ValueError(f"date is not {day}")
        return cell

    return read_csv(
        path,
        {"household_id": int, "date": same_day, "hour": int, "mean_kwh": float, "std_kwh": float},
    )
