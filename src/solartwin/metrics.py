"""Validation metrics: divergences, load-shape correlation, count deltas.

All divergences use base-2 logarithms so the Jensen-Shannon divergence
lands in [0, 1]: 0 for identical distributions, 1 for disjoint supports.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability mass over shared ascending bin edges."""

    bin_edges: tuple
    mass: tuple

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        mass = np.asarray(self.mass, dtype=float)
        if edges.size != mass.size + 1:
            raise ValueError("need len(bin_edges) == len(mass) + 1")
        # each check also fails NaN
        if not np.all(np.diff(edges) > 0):
            raise ValueError("bin edges must be strictly ascending")
        if not np.all(mass >= 0) or abs(float(mass.sum()) - 1.0) > 1e-9:
            raise ValueError("mass must be non-negative and sum to 1")


def _kld_mass(p: np.ndarray, q: np.ndarray) -> float:
    support = p > 0
    if np.any(q[support] == 0):
        return math.inf
    terms = p[support] * np.log2(p[support] / q[support])
    return max(0.0, float(terms.sum()))


def _check_edges(p: DiscreteDistribution, q: DiscreteDistribution):
    if not np.array_equal(p.bin_edges, q.bin_edges):
        raise ValueError("distributions must share bin edges")


def jsd(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Jensen-Shannon divergence in bits, bounded [0, 1]."""
    _check_edges(p, q)
    return _jsd_mass(np.asarray(p.mass), np.asarray(q.mass))


def _jsd_mass(pm: np.ndarray, qm: np.ndarray) -> float:
    m = 0.5 * (pm + qm)
    value = 0.5 * _kld_mass(pm, m) + 0.5 * _kld_mass(qm, m)
    return min(1.0, max(0.0, value))


def _histogram_masses(samples_a, samples_b, bins: int):
    """Each sample set's mass in ``bins`` equal-width bins over the range
    both sets share, or None when every sample on both sides is the same."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("both sample sets must be non-empty")
    lo = float(min(a.min(), b.min()))
    hi = float(max(a.max(), b.max()))
    if lo == hi:
        return None
    counts_a, _ = np.histogram(a, bins=bins, range=(lo, hi))
    counts_b, _ = np.histogram(b, bins=bins, range=(lo, hi))
    return counts_a / a.size, counts_b / b.size


def jsd_histogram(samples_a, samples_b, bins: int = 50) -> float:
    """JSD between equal-width shared-range histograms of two sample sets."""
    masses = _histogram_masses(samples_a, samples_b, bins)
    return 0.0 if masses is None else _jsd_mass(*masses)


def kld_histogram(samples_a, samples_b, bins: int) -> float:
    """KL divergence D(a || b) in bits on jsd_histogram's histograms;
    +inf when a bin holds samples of a but none of b."""
    masses = _histogram_masses(samples_a, samples_b, bins)
    return 0.0 if masses is None else _kld_mass(*masses)


def scott_bandwidth(samples) -> float:
    """Scott's rule: n^(-1/5) times the population standard deviation."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample set")
    return arr.size ** (-1.0 / 5.0) * float(np.std(arr))


# (grid point, sample) kernel cells evaluated at once by _kde_mass.
_KDE_BLOCK_CELLS = 1 << 16


def _kde_mass(samples: np.ndarray, bandwidths: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Mass of the Gaussian KDE of ``samples`` at the grid points ``xs``.

    The density at each grid point is the mean of one kernel per sample,
    each with its own bandwidth, normalised so the grid sums to 1.  Grid
    points go in blocks of about ``_KDE_BLOCK_CELLS`` kernel cells (at least
    one point per block), so memory is O(samples + grid).  Each point's
    kernels are reduced whole along one contiguous row, so the mass does not
    depend on the block size.  When every density underflows to 0 (a grid
    coarse against the bandwidths), or their sum overflows, the mass comes
    from the log-densities instead.
    """
    density = np.empty(xs.size)
    norm = bandwidths * math.sqrt(2.0 * math.pi)
    for block, z2 in _kernel_blocks(samples, bandwidths, xs):
        density[block] = (np.exp(-0.5 * z2) / norm).mean(axis=1)
    total = density.sum()
    if 0.0 < total < math.inf:
        return density / total
    log_norm = np.log(norm)
    log_density = np.empty(xs.size)
    for block, z2 in _kernel_blocks(samples, bandwidths, xs):
        # log-sum-exp of each point's kernels, the mean's 1/n left out
        terms = -0.5 * z2 - log_norm
        peak = terms.max(axis=1)
        log_density[block] = peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))
    mass = np.exp(log_density - log_density.max())
    return mass / mass.sum()


def _kernel_blocks(samples, bandwidths, xs):
    """(grid slice, squared standardised distances) for each block of grid
    rows.  A square that overflows to inf is where the kernel is exactly 0."""
    rows = max(1, _KDE_BLOCK_CELLS // samples.size)
    for start in range(0, xs.size, rows):
        block = slice(start, start + rows)
        with np.errstate(over="ignore"):
            z2 = ((xs[block, None] - samples) / bandwidths) ** 2
        yield block, z2


def jsd_kde(samples_a, samples_b, bandwidth_a=None, grid: int = 512) -> float:
    """JSD between Gaussian KDEs evaluated on a shared grid.

    Side b always uses Scott's rule.  Side a uses Scott's rule by default;
    pass one positive bandwidth per sample (side a's per-sample
    uncertainty) to override.  A grid whose span is not finite is an error.
    """
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least 2 samples on each side")
    h_b = scott_bandwidth(b)
    if h_b <= 0:
        raise ValueError("zero-variance sample set; use jsd_histogram instead")
    if bandwidth_a is None:
        h_a_scalar = scott_bandwidth(a)
        if h_a_scalar <= 0:
            raise ValueError("zero-variance sample set; use jsd_histogram instead")
        h_a = np.full(a.size, h_a_scalar)
    else:
        h_a = np.asarray(bandwidth_a, dtype=float)
        if h_a.shape != a.shape:
            raise ValueError("need one bandwidth per sample on side a")
        if np.any(h_a <= 0):
            raise ValueError(
                "non-positive bandwidth on side a; use jsd_histogram instead"
            )
    pad = 3.0 * max(float(h_a.max()), h_b)
    lo = min(float(a.min()), float(b.min())) - pad
    hi = max(float(a.max()), float(b.max())) + pad
    if not math.isfinite(hi - lo):
        raise ValueError(f"KDE grid from {lo} to {hi} is not finite")
    xs = np.linspace(lo, hi, grid)
    return _jsd_mass(_kde_mass(a, h_a, xs), _kde_mass(b, np.full(b.size, h_b), xs))


def pearson_monthly(a, b) -> dict:
    """Per-month Pearson correlation of hourly load shapes.

    Each side is a (months, hours, values) triple of equal-length columns,
    one entry per row; values are averaged per (month, hour) into 24-point
    shapes first.  Both sides must cover the same months and all 24 hours
    of each.  Months where either shape has zero variance map to None; a
    month whose arithmetic overflows is an error.
    """
    months_a, shapes_a = _monthly_shapes(*a, "a")
    months_b, shapes_b = _monthly_shapes(*b, "b")
    if months_a != months_b:
        raise ValueError("the two series cover different months")
    out = {}
    for month, va, vb in zip(months_a, shapes_a, shapes_b):
        try:
            with np.errstate(over="raise", invalid="raise"):
                flat = float(np.std(va)) == 0.0 or float(np.std(vb)) == 0.0
                out[month] = None if flat else float(np.corrcoef(va, vb)[0, 1])
        except FloatingPointError as exc:
            raise ValueError(f"pearson for month {month}: {exc}") from None
    return out


def _monthly_shapes(months, hours, values, side: str) -> tuple:
    """The sorted months of one side and their (months, 24) mean shapes.

    One bincount adds each (month, hour) bin's values in row order.
    """
    hours = np.asarray(hours, dtype=np.int64)
    outside = (hours < 0) | (hours >= 24)
    if outside.any():
        raise ValueError(f"hour {hours[outside.argmax()]} out of range on side {side}")
    if not hours.size:
        raise ValueError(f"no rows on side {side}")
    keys, month = np.unique(months, return_inverse=True)
    cells = month * 24 + hours
    sums = np.bincount(cells, np.asarray(values, dtype=float), keys.size * 24)
    counts = np.bincount(cells, minlength=keys.size * 24)
    if not counts.all():
        gap = int(np.argmin(counts))
        raise ValueError(f"side {side} missing hour {gap % 24} in month {keys[gap // 24]}")
    return keys.tolist(), (sums / counts).reshape(-1, 24)


def relative_pct_diff(real: float, synth: float) -> float:
    """100 * |synth - real| / real; undefined (error) when real is 0."""
    if real <= 0:
        raise ValueError("relative percentage difference undefined for real <= 0")
    return 100.0 * abs(synth - real) / real
