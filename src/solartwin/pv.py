"""Hourly PV energy profiles with uncertainty.

Each household gets an ensemble of n time-invariant samples (panel area,
yield, performance ratio, tilt, azimuth).  For every date the declination
fixes a solar elevation angle, each hour's horizontal irradiance is
projected onto the sampled tilted planes with an azimuth degradation
factor, and energy per sample is area * yield * radiation * ratio, reported
as the ensemble mean and population standard deviation in kWh.  The result
is one EnergyProfiles block of (households, dates, 24) arrays.  The weight
tables and physical constants of the sampling are module constants, and
the arrays the sampler reads of them are derived once, at import.

The engine is one block function: it reads a block of adopters' id,
sqft_value, lat and tract columns and returns the block's (mean, std,
mean_daily) arrays, the hourly pair only when asked (hourly=True).  It
works on household chunks.  Each household's whole sampling sequence is
one row of raw doubles from its own stream rng_for(seed, "pv", id), the
only seed form, and the sampling math, the tilted projection and the
ensemble reduction each run once per chunk; a chunk holds fewer
households the more dates there are, so every intermediate is bounded by
household-days.  Households are independent, so with several workers
each contiguous household block runs in a pool process and returns its
whole-block arrays, joined in block order; outputs are identical for any
worker count and any chunk size.  The sampler returns only what the
projection reads: area * yield * ratio, tilt and azimuth degradation, as
(households, n) arrays.  The CSV loaders return whole numpy columns,
checked by the rules they pass to read_csv.
"""

import datetime
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .records import HouseholdTable, IrradianceSeries, read_csv, write_csv
from .seeds import choose, stream_rows

SQFT_TO_M2 = 0.092903
AZIMUTH_SECTORS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")

# the sampling tables and physical constants
ROOF_FACTOR = 1.5
SMALL_THRESHOLD_M2 = 464.6
PANEL_AREA_M2 = 1.64
YIELD_RANGE = (0.18, 0.22)
PR_RANGE = (0.5, 0.9)
N_CANDIDATES = 100

DEGRADATION = {
    "S": 1.00,
    "SE": 0.95,
    "SW": 0.95,
    "E": 0.85,
    "W": 0.85,
    "NE": 0.70,
    "NW": 0.70,
    "N": 0.55,
}

PLANE_WEIGHTS = {1: 0.50, 2: 0.30, 3: 0.15, 4: 0.05}
TILT_WEIGHTS = {15.0: 0.30, 25.0: 0.45, 35.0: 0.25}
AZIMUTH_WEIGHTS = {
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
# weighting, keyed by (building kind, single plane).
AREA_PARAMS = {
    ("small", True): (0.042, 10.0),
    ("small", False): (0.071, 10.0),
    ("medium", True): (0.002, 300.0),
    ("medium", False): (0.046, 10.0),
}

# what the sampler reads of the tables, derived once
_PLANE_VALUES = np.array(sorted(PLANE_WEIGHTS))
_PLANE_P = np.array([PLANE_WEIGHTS[v] for v in _PLANE_VALUES], dtype=float)
_PLANE_P = _PLANE_P / _PLANE_P.sum()
# [medium, single plane] -> (rate, location)
_AREA_PARAMS = np.array(
    [[AREA_PARAMS[kind, one] for one in (False, True)] for kind in ("small", "medium")], float
)
_PAIRS = [(t, a) for t in sorted(TILT_WEIGHTS) for a in AZIMUTH_SECTORS]
_JOINT = np.array([TILT_WEIGHTS[t] * AZIMUTH_WEIGHTS[a] for t, a in _PAIRS])
_JOINT = _JOINT / _JOINT.sum()
_PAIR_TILTS = np.array([t for t, _ in _PAIRS])
_PAIR_DEGRADATION = np.array([DEGRADATION[a] for _, a in _PAIRS])


def sample_time_invariant(ids, sqft, n, seed):
    """Draw n time-invariant samples for each of a batch of households.

    Roof area is 1.5x the house footprint converted to m^2; buildings at or
    under 464.6 m^2 count as small.  Yields and performance ratios are
    uniform in their ranges.  For each sample a plane count is drawn, then
    ~100 uniform candidate areas in (0, roof_area) are weighted by an
    exponential density whose (rate, location) depend on building type and
    whether the sample has a single plane; the winning candidate snaps down
    to a whole number of 1.64 m^2 panels.  Tilt/azimuth pairs come from the
    joint weight table.

    ids and sqft are (H,) household ids and footages, NaN when missing; the
    first household whose footage is missing or whose roof area is not
    finite is named in a ValueError.  Returns the (H, n) arrays of
    area * yield * ratio, tilt and azimuth degradation.  Each household draws
    from its own stream rng_for(seed, "pv", id), and takes n *
    (N_CANDIDATES + 5) doubles in the order of one Generator call per draw:
    n yields, n ratios, n plane counts; per sample, N_CANDIDATES candidates
    and one pick; then n tilt/azimuth picks.  All the math runs on the
    batch's (H, n, N_CANDIDATES + 1) block of doubles.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    with np.errstate(over="ignore"):  # an overflow is reported below
        roof = ROOF_FACTOR * sqft * SQFT_TO_M2
    bad = ~np.isfinite(roof)  # a missing footage gives a NaN roof
    if bad.any():
        row = int(np.argmax(bad))
        problem = (
            "has no sqft_value" if np.isnan(sqft[row])
            else f"has sqft_value {float(sqft[row])!r}, whose roof area is not finite"
        )
        raise ValueError(f"household {int(ids[row])} {problem}")

    C = N_CANDIDATES
    H, size = ids.size, n * (C + 5)
    u = stream_rows(seed, "pv", ids, size)
    draws = u[:, 3 * n : 3 * n + n * (C + 1)].reshape(H, n, C + 1)
    y_lo, y_hi = YIELD_RANGE
    r_lo, r_hi = PR_RANGE
    yields = y_lo + (y_hi - y_lo) * u[:, :n]
    ratios = r_lo + (r_hi - r_lo) * u[:, n : 2 * n]
    planes = _PLANE_VALUES[choose(_PLANE_P, u[:, 2 * n : 3 * n])]
    medium = ~(roof <= SMALL_THRESHOLD_M2)
    cell = _AREA_PARAMS[medium[:, None].astype(int), (planes == 1).astype(int)]
    rate, location = cell[..., 0, None], cell[..., 1, None]
    # uniform(0, roof) is 0 + roof * u, which is roof * u
    candidates = roof[:, None, None] * draws[..., :C]
    weights = np.where(
        candidates >= location, rate * np.exp(-rate * (candidates - location)), 0.0
    )
    total = weights.sum(axis=-1)
    flat = total <= 0.0  # all mass below location: uniform weights
    p = np.where(flat[..., None], 1.0, weights) / np.where(flat, float(C), total)[..., None]
    chosen = np.take_along_axis(candidates, choose(p, draws[..., C])[..., None], axis=-1)
    areas = np.floor(chosen[..., 0] / PANEL_AREA_M2) * PANEL_AREA_M2
    pick = choose(_JOINT, u[:, 3 * n + n * (C + 1) :])
    return areas * yields * ratios, _PAIR_TILTS[pick], _PAIR_DEGRADATION[pick]


def declination(day_of_year: int) -> float:
    """Solar declination in degrees: 23.45 * sin(360 * (284 + n) / 365)."""
    if not 1 <= day_of_year <= 366:
        raise ValueError(f"day_of_year must be in [1, 366], got {day_of_year}")
    return 23.45 * math.sin(math.radians(360.0 * (284 + day_of_year) / 365.0))


def tilted_radiation(ghi: float, lat: float, delta: float, theta: float, omega: str) -> float:
    """Radiation on a tilted plane: ghi * sin(alpha + theta)/sin(alpha) * D.

    alpha = 90 - lat + delta is the solar elevation angle at the given
    declination, and D is the DEGRADATION factor of azimuth sector omega.
    When sin(alpha) <= 0.01 the projection is ill-conditioned and the
    horizontal value ghi * D is returned instead.  Output is clamped to
    >= 0.
    """
    if ghi < 0:
        raise ValueError(f"ghi must be >= 0, got {ghi}")
    if omega not in DEGRADATION:
        raise ValueError(f"unknown azimuth sector {omega!r}")
    return float(ghi * _tilt_factors(lat, delta, theta, DEGRADATION[omega]))


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


def _profile_block(households, ghi, dates, seed, n_samples, hourly):
    """(mean, std, mean_daily) of a block of households: the (H, D, 24)
    hourly ensemble mean and population std kWh, both None unless hourly,
    and the (H,) mean over the dates of each household's daily mean kWh.

    households holds the block's (id, sqft_value, lat, tract) columns, and
    tract indexes the (tracts, D, 24) GHI stack ghi of the D dates.  Each
    household chunk is sampled in one call and projected in one
    _tilt_factors call, and its (households, D, 24, n) kWh per sample is
    reduced before the next chunk is made.  The first household whose daily
    mean or daily std is not finite is named with that date in a ValueError.
    """
    ids, sqft, lats, tracts = households
    deltas = np.array([declination(date.timetuple().tm_yday) for date in dates])[:, None]
    size, days = ids.size, len(dates)
    per_household = max(n_samples, 1) * max(N_CANDIDATES + 1, 24 * days)
    rows = max(1, _BLOCK_CELLS // per_household)
    shape = (size, days, 24)
    mean, std = (np.empty(shape), np.empty(shape)) if hourly else (None, None)
    mean_daily = np.empty(size)
    for start in range(0, size, rows):
        part = slice(start, start + rows)
        arpr, tilts, d = sample_time_invariant(ids[part], sqft[part], n_samples, seed)
        factors = _tilt_factors(lats[part, None, None], deltas, tilts[:, None], d[:, None])
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            per_wh = arpr[:, None, :] * factors
            # sample i yields ghi / 1000 * per_wh[i] kWh in each hour
            energy = (ghi[tracts[part]] / 1000.0)[..., None] * per_wh[:, :, None, :]
            hour_mean = energy.mean(axis=-1)
            daily = hour_mean.sum(axis=-1)
            finite = np.isfinite(daily)
            if hourly:
                mean[part], std[part] = hour_mean, energy.std(axis=-1)
                finite &= np.isfinite((std[part] ** 2).sum(axis=-1))
            mean_daily[part] = daily.mean(axis=1)
        if not finite.all():
            k, j = np.unravel_index(np.argmin(finite), finite.shape)
            raise ValueError(f"household {ids[start + k]} has non-finite energy on {dates[j]}")
        del energy, hour_mean  # free before the next chunk's are made
    return mean, std, mean_daily


def generate_profiles(
    pop: HouseholdTable,
    irradiance: dict,
    dates,
    workers: int,
    seed: int,
    n_samples: int = 20,
    hourly: bool = True,
) -> EnergyProfiles:
    """Energy profiles for every solar-adopter household over the dates, in
    table order.

    irradiance maps tract id to IrradianceSeries.  One _profile_block call
    covers every adopter, or with several workers each contiguous block of
    adopters gets one, whose arrays are joined in block order; with
    hourly=False only mean_daily is kept.  Per-household streams are
    derived from (seed, household id), so the values are identical for any
    worker count.
    """
    dates = list(dates)
    if not dates:
        raise ValueError("no dates in period")
    rows = np.flatnonzero(pop.solar.filled(False))
    names, first, tract = np.unique(pop.tract[rows], return_index=True, return_inverse=True)
    # the (tracts, D, 24) GHI stack, filled in order of first appearance so
    # that a missing series or date names the first such tract
    ghi = np.empty((names.size, len(dates), 24))
    for k in np.argsort(first).tolist():
        if names[k] not in irradiance:
            raise ValueError(f"no irradiance series for tract {names[k]}")
        ghi[k] = [irradiance[names[k]].ghi_for_date(date) for date in dates]
    households = (pop.id[rows], pop.sqft_value.filled(np.nan)[rows], pop.lat[rows], tract)
    args = (ghi, dates, seed, n_samples, hourly)
    workers = max(1, int(workers))
    if workers == 1 or rows.size <= 1:
        mean, std, mean_daily = _profile_block(households, *args)
    else:
        # at most one block per adopter; more blocks than CPUs queue on the
        # pool, and the blocks fix the output
        blocks = np.array_split(np.arange(rows.size), min(workers, rows.size))
        with ProcessPoolExecutor(max_workers=min(len(blocks), os.cpu_count() or 1)) as pool:
            futures = [
                pool.submit(_profile_block, tuple(c[block] for c in households), *args)
                for block in blocks
            ]
            parts = zip(*(future.result() for future in futures))
        mean, std, mean_daily = (None if p[0] is None else np.concatenate(p) for p in parts)
    return EnergyProfiles(pop.id[rows], dates, mean, std, mean_daily)


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


def _at_least_zero(*names) -> list:
    """read_csv's rules that each named column holds no negative value."""
    return [(name, lambda values: values < 0, "{} must be >= 0") for name in names]


def load_daily(path) -> dict:
    """Read a daily CSV back as its household_id, date, daily_mean_kwh and
    daily_std_kwh columns, keyed by name.  The kWh columns must be >= 0."""
    return read_csv(
        path,
        {
            "household_id": int,
            "date": datetime.date.fromisoformat,
            "daily_mean_kwh": float,
            "daily_std_kwh": float,
        },
        rules=_at_least_zero("daily_mean_kwh", "daily_std_kwh"),
    )


def load_profile_rows(path) -> dict:
    """Read a profiles_<date>.csv back as its household_id, date, hour,
    mean_kwh and std_kwh columns, keyed by name, the date as text.  Every
    row's date must be the one in the file name, each hour in [0, 23], and
    the kWh columns >= 0."""
    day = os.path.basename(path)[len("profiles_"):-len(".csv")]
    return read_csv(
        path,
        {"household_id": int, "date": str, "hour": int, "mean_kwh": float, "std_kwh": float},
        rules=[
            ("date", lambda dates: dates != day, "bad value {!r}"),
            ("hour", lambda hours: (hours < 0) | (hours > 23), "{} out of [0, 23]"),
            *_at_least_zero("mean_kwh", "std_kwh"),
        ],
    )
