"""Synthetic toy inputs: population, irradiance, survey, and network.

These generators exist so every pipeline stage has deterministic input with
enough signal to be worth modeling: planted adopters skew toward high income
codes and home ownership, square-footage classes track bedroom counts, and
irradiance is a clear-sky half-sinusoid under a seasonal envelope.  No
demographic realism is attempted.
"""

import datetime
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .records import (
    FEATURE_DOMAINS,
    FEATURE_NAMES,
    Graph,
    HouseholdTable,
    IrradianceSeries,
    N_SQFT_CLASSES,
    SQFT_CLASS_EDGES,
)
from .seeds import rng_for

SUNRISE_HOUR = 6
SUNSET_HOUR = 18
PEAK_GHI_WM2 = 700.0
SEASONAL_AMPLITUDE = 0.45
SOLSTICE_DOY = 172

# Loose RECS-flavoured marginals, aligned with records.FEATURE_DOMAINS order.
DEFAULT_MARGINALS = {
    "NHSLDMEM": (0.14, 0.30, 0.20, 0.16, 0.10, 0.06, 0.04),
    "BEDROOMS": (0.04, 0.14, 0.30, 0.30, 0.16, 0.06),
    "TYPEHUQ": (0.06, 0.62, 0.10, 0.16, 0.06),
    "FUELHEAT": (0.42, 0.34, 0.10, 0.07, 0.05, 0.02),
    "KOWNRENT": (0.62, 0.33, 0.05),
    "YEARMADERANGE": (0.07, 0.09, 0.12, 0.13, 0.14, 0.13, 0.12, 0.10, 0.10),
    "MONEYPY": (0.10, 0.09, 0.09, 0.08, 0.08, 0.07, 0.07, 0.06,
                0.06, 0.06, 0.05, 0.05, 0.05, 0.04, 0.03, 0.02),
    "BA_climate": (0.08, 0.12, 0.18, 0.20, 0.16, 0.12, 0.08, 0.06),
}

# Planted adopters re-draw tenure from an owner-heavy marginal.
ADOPTER_KOWNRENT = (0.90, 0.08, 0.02)

# Survey square-footage mass per class, low to high.
SURVEY_CLASS_WEIGHTS = (0.05, 0.10, 0.20, 0.25, 0.18, 0.12, 0.06, 0.04)

# Every toy household lies in one state, at a latitude drawn from this band.
STATE = "VA"
LATITUDE_BAND = (36.0, 40.0)


@dataclass(frozen=True)
class ToyConfig:
    """Toy generator knobs: every field has a sane default and is checked on construction."""

    n_households: int = 500
    n_tracts: int = 4
    adopter_fraction: float = 0.1
    lmi_fraction: float = 0.3
    seed: int = 0
    days: int = 7
    start_date: datetime.date = datetime.date(2018, 1, 1)
    signal_shift: int = 4

    def __post_init__(self):
        if self.n_households <= 0:
            raise ValueError(f"n_households must be > 0, got {self.n_households}")
        if self.n_tracts <= 0:
            raise ValueError(f"n_tracts must be > 0, got {self.n_tracts}")
        if self.n_tracts > self.n_households:
            raise ValueError("n_tracts must not exceed n_households")
        for name in ("adopter_fraction", "lmi_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.days <= 0:
            raise ValueError(f"days must be > 0, got {self.days}")
        if self.signal_shift < 0:
            raise ValueError("signal_shift must be >= 0")


def county_id(tract_index: int) -> str:
    return f"51{tract_index // 2 + 1:03d}"


def tract_id(tract_index: int) -> str:
    return f"{county_id(tract_index)}{tract_index + 1:06d}"


def tract_ids(cfg: ToyConfig) -> list:
    """All tract FIPS strings the population generator will use."""
    return [tract_id(t) for t in range(cfg.n_tracts)]


def _draw(rng, domain, weights, size):
    p = np.asarray(weights, dtype=float)
    return rng.choice(np.asarray(domain), size=size, p=p / p.sum())


def gen_population(cfg: ToyConfig) -> HouseholdTable:
    """Generate the toy household table with planted labels.

    Exactly ``round(n_households * adopter_fraction)`` households carry
    ``solar=True``; their MONEYPY codes are shifted up by ``signal_shift``
    (clamped to the top code) and their tenure is re-drawn owner-heavy, so
    a classifier has learnable signal.  Square-footage classes are planted
    from bedroom and household-size counts plus small jitter.  The
    ``lmi_fraction`` lowest-income households (ties by id) are flagged LMI,
    and households in odd tracts are flagged rural.

    Returns
    -------
    HouseholdTable
        ``n_households`` records with ids 0..n-1, planted ``sqft_class``,
        ``solar``, ``lmi``, and ``rural`` labels, and empty ``sqft_value``.
    """
    rng = rng_for(cfg.seed, "population")
    n = cfg.n_households

    n_adopt = int(round(n * cfg.adopter_fraction))
    adopters = np.zeros(n, dtype=bool)
    adopters[rng.permutation(n)[:n_adopt]] = True

    codes = {}
    for name in FEATURE_NAMES:
        codes[name] = _draw(rng, FEATURE_DOMAINS[name], DEFAULT_MARGINALS[name], n)

    top_mpy = max(FEATURE_DOMAINS["MONEYPY"])
    codes["MONEYPY"] = codes["MONEYPY"].copy()
    codes["MONEYPY"][adopters] = np.minimum(
        top_mpy, codes["MONEYPY"][adopters] + cfg.signal_shift
    )
    if n_adopt:
        codes["KOWNRENT"] = codes["KOWNRENT"].copy()
        codes["KOWNRENT"][adopters] = _draw(
            rng, FEATURE_DOMAINS["KOWNRENT"], ADOPTER_KOWNRENT, n_adopt
        )

    jitter = rng.choice(np.array([-1, 0, 1]), size=n, p=np.array([0.2, 0.6, 0.2]))
    sqft_class = np.clip(
        codes["BEDROOMS"] + (codes["NHSLDMEM"] >= 4).astype(int) + jitter,
        0,
        N_SQFT_CLASSES - 1,
    )

    lats = rng.uniform(*LATITUDE_BAND, size=n)
    lons = rng.uniform(-80.0, -76.0, size=n)

    n_lmi = int(round(n * cfg.lmi_fraction))
    lmi = np.zeros(n, dtype=bool)
    lmi[np.argsort(codes["MONEYPY"], kind="stable")[:n_lmi]] = True

    t = np.arange(n) % cfg.n_tracts
    return HouseholdTable(
        id=np.arange(n), state=np.full(n, STATE, dtype=object),
        county=np.array([county_id(k) for k in range(cfg.n_tracts)], dtype=object)[t],
        tract=np.array(tract_ids(cfg), dtype=object)[t], lat=lats, lon=lons,
        features=np.column_stack([codes[name] for name in FEATURE_NAMES]),
        sqft_class=sqft_class, solar=adopters, lmi=lmi, rural=t % 2 == 1,
    )


def peak_ghi(date: datetime.date, tract: str) -> float:
    """Midday GHI for a date and tract: seasonal envelope times a fixed
    per-tract scale in [0.9, 1.1] derived from the tract id."""
    doy = date.timetuple().tm_yday
    season = 1.0 + SEASONAL_AMPLITUDE * math.cos(
        2.0 * math.pi * (doy - SOLSTICE_DOY) / 365.0
    )
    scale = 0.9 + 0.2 * (zlib.crc32(tract.encode("utf-8")) % 1000) / 999.0
    return PEAK_GHI_WM2 * season * scale


def gen_irradiance(cfg: ToyConfig, tract: str) -> IrradianceSeries:
    """Clear-sky half-sinusoid GHI for one tract over cfg.days days.

    Daylight hours follow ``peak * sin(pi * (w - sunrise)/(sunset - sunrise))``;
    hours at or outside the sunrise/sunset bounds are exactly zero.
    """
    span = SUNSET_HOUR - SUNRISE_HOUR
    daylight = [w for w in range(24) if 0.0 < (w - SUNRISE_HOUR) / span < 1.0]
    shape = np.array([math.sin(math.pi * ((w - SUNRISE_HOUR) / span)) for w in daylight])
    peaks = [peak_ghi(cfg.start_date + datetime.timedelta(days=d), tract) for d in range(cfg.days)]
    hours = np.zeros((cfg.days, 24))
    hours[:, daylight] = np.array(peaks)[:, None] * shape
    return IrradianceSeries(tract, cfg.start_date, hours.ravel())


def gen_survey(cfg: ToyConfig, size: int) -> list:
    """``size`` square-footage survey values spanning all eight classes."""
    rng = rng_for(cfg.seed, "survey")
    classes = _draw(rng, np.arange(N_SQFT_CLASSES), SURVEY_CLASS_WEIGHTS, size)
    edges = np.array(SQFT_CLASS_EDGES)
    lo, hi = edges[classes], edges[classes + 1]
    return (lo + rng.random(size) * (hi - lo)).tolist()


# Within-group pairs drawn per rng.random call in gen_network.
_BLOCK_PAIRS = 1 << 18


def gen_network(n: int, edge_prob: float, groups: int = 1, seed: int = 0) -> Graph:
    """Workplace-group random graph.

    Nodes 0..n-1 are split into ``groups`` near-equal contiguous groups;
    each within-group pair is connected independently with ``edge_prob``.
    There are no cross-group edges.

    Each group of m nodes walks its m(m-1)/2 upper-triangle pairs (u < v) in
    row-major order, in blocks of ``_BLOCK_PAIRS``: one uniform double per
    pair, the pair kept when the double is below ``edge_prob``.  Successive
    ``rng.random`` calls yield the same doubles as one call over every pair,
    so the edges and their order do not depend on the block size.  A hit at
    flat index k maps back to row i through a search of the row starts
    ``i(m-1) - i(i-1)/2``.  Memory is the edges plus O(m + block), never
    O(m^2).
    """
    if n <= 0:
        raise ValueError(f"n must be > 0, got {n}")
    if groups < 1:
        raise ValueError(f"groups must be >= 1, got {groups}")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must be in [0, 1], got {edge_prob}")
    rng = rng_for(seed, "network")
    bounds = np.linspace(0, n, groups + 1).astype(int)
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for g in range(groups):
        lo, hi = int(bounds[g]), int(bounds[g + 1])
        m = hi - lo
        if m < 2:
            continue
        rows = np.arange(m - 1, dtype=np.int64)
        row_starts = rows * (m - 1) - rows * (rows - 1) // 2
        pairs = m * (m - 1) // 2
        for offset in range(0, pairs, _BLOCK_PAIRS):
            hits = np.flatnonzero(rng.random(min(_BLOCK_PAIRS, pairs - offset)) < edge_prob)
            hits += offset
            u = np.searchsorted(row_starts, hits, "right") - 1
            v = hits - row_starts[u] + u + 1
            edges.append(np.column_stack((u, v)) + lo)
    edges = np.concatenate(edges)  # drops the blocks before Graph copies the columns
    return Graph(n, edges)
