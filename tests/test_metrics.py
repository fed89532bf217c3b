"""Divergences, KDE comparison, and shape correlation."""

import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from solartwin import metrics
from solartwin.metrics import (
    DiscreteDistribution,
    _kde_mass,
    _kld_mass,
    _monthly_shapes,
    jsd,
    jsd_histogram,
    jsd_kde,
    kld_histogram,
    pearson_monthly,
    relative_pct_diff,
    scott_bandwidth,
)

EDGES = (0.0, 1.0, 2.0)


def dist(*mass):
    edges = tuple(float(i) for i in range(len(mass) + 1))
    return DiscreteDistribution(edges, mass)


def from_counts(bin_edges, counts) -> DiscreteDistribution:
    """The distribution of histogram counts over their bin edges."""
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("counts sum to zero")
    return DiscreteDistribution(tuple(float(e) for e in bin_edges), tuple(counts / total))


def kld(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """Kullback-Leibler divergence in bits of two distributions on the same
    edges; +inf when q lacks p's support."""
    if not np.array_equal(p.bin_edges, q.bin_edges):
        raise ValueError("distributions must share bin edges")
    return _kld_mass(np.asarray(p.mass), np.asarray(q.mass))


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution(EDGES, (0.5, 0.6))  # does not sum to 1
    with pytest.raises(ValueError):
        DiscreteDistribution(EDGES, (1.2, -0.2))
    with pytest.raises(ValueError):
        DiscreteDistribution((0.0, 0.0, 1.0), (0.5, 0.5))
    d = from_counts(EDGES, [3, 1])
    assert d.mass == pytest.approx((0.75, 0.25))


def test_distribution_rejects_nan():
    # NaN fails every comparison, so a check written as `x < 0` lets it through
    with pytest.raises(ValueError, match="mass must be non-negative and sum to 1"):
        DiscreteDistribution(EDGES, (float("nan"), 1.0))
    with pytest.raises(ValueError, match="bin edges must be strictly ascending"):
        DiscreteDistribution((0.0, float("nan"), 1.0), (0.5, 0.5))


def test_kld_oracle_and_infinity():
    # KL([.5,.5] || [.25,.75]) = .5*log2(2) + .5*log2(2/3)
    assert kld(dist(0.5, 0.5), dist(0.25, 0.75)) == pytest.approx(
        0.20751874963942185, rel=1e-12
    )
    assert kld(dist(1.0, 0.0), dist(1.0, 0.0)) == 0.0
    assert kld(dist(0.5, 0.5), dist(1.0, 0.0)) == math.inf
    with pytest.raises(ValueError, match="share bin edges"):
        kld(dist(0.5, 0.5), DiscreteDistribution((0.0, 5.0, 9.0), (0.5, 0.5)))


def test_jsd_bounds_and_oracle():
    assert jsd(dist(0.3, 0.7), dist(0.3, 0.7)) == 0.0
    assert jsd(dist(1.0, 0.0), dist(0.0, 1.0)) == 1.0  # disjoint, base 2
    assert jsd(dist(0.5, 0.5), dist(0.25, 0.75)) == pytest.approx(
        0.0487949406953985, rel=1e-12
    )


def test_jsd_symmetry_random_pairs():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.random(6)
        b = rng.random(6)
        p = dist(*(a / a.sum()))
        q = dist(*(b / b.sum()))
        assert abs(jsd(p, q) - jsd(q, p)) <= 1e-12
        assert 0.0 <= jsd(p, q) <= 1.0


def test_jsd_histogram_behavior():
    rng = np.random.default_rng(1)
    samples = rng.normal(10.0, 2.0, size=500)
    assert jsd_histogram(samples, samples) == 0.0
    far = samples + 1000.0
    assert jsd_histogram(samples, far) == pytest.approx(1.0)
    assert jsd_histogram([5.0, 5.0], [5.0, 5.0]) == 0.0  # degenerate range
    mid = jsd_histogram(samples, samples + 0.5)
    assert 0.0 < mid < 1.0


def _reference_kld_histogram(a, b, bins):
    """The KL route the validate stage took before kld_histogram: explicit
    linspace edges over the shared range, from_counts on each side's counts,
    then kld."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    edges = np.linspace(lo, hi, bins + 1) if hi > lo else np.array([lo, lo + 1.0])
    p = from_counts(edges, np.histogram(a, edges)[0])
    q = from_counts(edges, np.histogram(b, edges)[0])
    return kld(p, q)


@st.composite
def _kl_samples(draw):
    """Two sample sets and a bin count; many samples sit exactly on the bin
    edges of a range near the one they span, and sometimes every sample is
    the same value."""
    bins = draw(st.integers(1, 60))
    lo = draw(st.integers(-10**6, 10**6)) / 1000
    width = draw(st.sampled_from([0, 1, 7, 1000, 123457])) / 1000
    edges = np.linspace(lo, lo + width, bins + 1).tolist()
    value = st.one_of(st.sampled_from(edges), st.floats(lo, lo + width))
    sides = [draw(st.lists(value, min_size=1, max_size=40)) for _ in range(2)]
    return sides[0], sides[1], bins


@settings(max_examples=300, deadline=None)
@given(_kl_samples())
@example(([5.0, 5.0], [5.0], 50))
@example(([0.0, 1.0], [0.0, 0.0, 0.5], 2))
def test_kld_histogram_matches_reference(samples):
    a, b, bins = samples
    assert kld_histogram(a, b, bins) == _reference_kld_histogram(a, b, bins)


def test_kld_histogram_behavior():
    assert kld_histogram([1.0, 2.0], [1.0, 2.0], 4) == 0.0
    assert kld_histogram([1.0, 2.0], [1.0, 1.0], 4) == math.inf
    assert kld_histogram([3.0], [3.0, 3.0], 50) == 0.0  # degenerate range
    assert kld_histogram([1.0, 1.0, 2.0], [1.0, 2.0], 2) == pytest.approx(
        kld(dist(2 / 3, 1 / 3), dist(0.5, 0.5)), rel=1e-15
    )
    with pytest.raises(ValueError, match="non-empty"):
        kld_histogram([], [1.0], 50)


def test_scott_bandwidth_exact_values():
    # n^(-1/5) * population std; 32 points of unit std give exactly 0.5
    samples = [-1.0, 1.0] * 16
    assert scott_bandwidth(samples) == 0.5
    assert scott_bandwidth([-1.0, 1.0] * 8) == 16.0 ** (-0.2)


def test_jsd_kde_basics():
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 1.0, size=100)
    assert jsd_kde(a, a) == pytest.approx(0.0, abs=1e-12)
    b = rng.normal(60.0, 1.0, size=100)
    assert jsd_kde(a, b) > 0.99
    near = a + 0.2
    assert 0.0 < jsd_kde(a, near) < 0.5


def test_jsd_kde_per_point_bandwidths():
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 1.0, size=50)
    b = rng.normal(0.2, 1.0, size=60)
    uniform = jsd_kde(a, b, bandwidth_a=np.full(50, 0.4))
    assert 0.0 < uniform < jsd_kde(a, b, bandwidth_a=np.linspace(0.4, 4.0, 50)) < 1.0
    with pytest.raises(ValueError, match="one bandwidth per sample"):
        jsd_kde(a, b, bandwidth_a=0.4)
    with pytest.raises(ValueError, match="bandwidth"):
        jsd_kde(a, b, bandwidth_a=np.zeros(50))


def test_jsd_kde_guards():
    with pytest.raises(ValueError, match="zero-variance"):
        jsd_kde([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="at least"):
        jsd_kde([1.0], [1.0, 2.0])


def _reference_density(samples, bandwidths, xs):
    """(standardised distances, KDE density) as one (grid, samples) block."""
    z = (xs[:, None] - samples[None, :]) / bandwidths[None, :]
    kernels = np.exp(-0.5 * z**2) / (bandwidths[None, :] * math.sqrt(2.0 * math.pi))
    return z, kernels.mean(axis=1)


def _reference_kde_mass(samples, bandwidths, xs):
    """_kde_mass as one (grid, samples) kernel block; when the densities
    do not have a positive finite sum, the mass from scipy's log-sum-exp of
    the log-kernels."""
    z, density = _reference_density(samples, bandwidths, xs)
    if 0.0 < density.sum() < math.inf:
        return density / density.sum()
    log_kernels = -0.5 * z**2 - np.log(bandwidths[None, :] * math.sqrt(2.0 * math.pi))
    log_density = logsumexp(log_kernels, axis=1)
    return np.exp(log_density - logsumexp(log_density))


@st.composite
def _kde_cases(draw):
    """(a, b, bandwidth_a, grid, block cells) for jsd_kde."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(0.0, draw(st.floats(0.01, 100.0)), draw(st.integers(2, 80)))
    b = rng.normal(draw(st.floats(-5.0, 5.0)), 1.0, draw(st.integers(2, 80)))
    kind = draw(st.sampled_from(["scott", "scalar", "per-point"]))
    if kind == "scalar":
        bandwidth_a = np.full(a.size, draw(st.floats(0.01, 10.0)))
    elif kind == "per-point":
        bandwidth_a = rng.uniform(0.01, 5.0, a.size)
    else:
        bandwidth_a = None
    grid = draw(st.integers(2, 64))
    cells = draw(st.integers(1, 4 * max(a.size, b.size)))
    return a, b, bandwidth_a, grid, cells


@settings(max_examples=300, deadline=None)
@given(_kde_cases())
# one grid row per block
@example((np.linspace(0.0, 1.0, 7), np.linspace(0.5, 2.0, 9), None, 16, 1))
# three grid rows per block on side a, a grid of 64 rows
@example((np.linspace(-1.0, 1.0, 10), np.linspace(0.0, 3.0, 40), np.full(10, 0.3), 64, 30))
@example((np.linspace(-1.0, 1.0, 50), np.linspace(0.0, 3.0, 40), np.linspace(0.1, 2.0, 50), 29, 200))
@example((np.sin(np.arange(2000.0)), np.cos(np.arange(1500.0)), None, 512, 1 << 16))
# every density of side b underflows, on a grid of 4 and of 512 points
@example((np.array([0.0, 10.0]), np.array([5.0, 5.001]), None, 4, 1))
@example((np.array([0.0, 10.0]), np.array([5.0, 5.001]), None, 512, 3))
def test_kde_matches_one_block_reference(case):
    """Bit-identical to the one-block reference wherever its direct
    densities have a positive finite sum; within a tolerance of the
    log-space evaluation (relative error about |log-density| * 2**-52)
    where every density underflows."""
    a, b, bandwidth_a, grid, cells = case
    with patch.object(metrics, "_kde_mass", _reference_kde_mass):
        expected = jsd_kde(a, b, bandwidth_a, grid)
    h_a = np.broadcast_to(scott_bandwidth(a) if bandwidth_a is None else bandwidth_a, a.shape)
    h_b = np.full(b.size, scott_bandwidth(b))
    pad = 3.0 * max(h_a.max(), h_b[0])
    xs = np.linspace(min(a.min(), b.min()) - pad, max(a.max(), b.max()) + pad, grid)
    underflow = [
        not 0.0 < _reference_density(samples, h, xs)[1].sum() < math.inf
        for samples, h in ((a, h_a), (b, h_b))
    ]
    with patch.object(metrics, "_KDE_BLOCK_CELLS", cells):
        if any(underflow):
            assert jsd_kde(a, b, bandwidth_a, grid) == pytest.approx(expected, rel=1e-6, abs=1e-12)
        else:
            assert jsd_kde(a, b, bandwidth_a, grid) == expected
        for samples, h, log_space in ((a, h_a, underflow[0]), (b, h_b, underflow[1])):
            got = _kde_mass(samples, h, xs)
            reference = _reference_kde_mass(samples, h, xs)
            if log_space:
                assert np.allclose(got, reference, rtol=1e-6, atol=1e-300)
            else:
                assert np.array_equal(got, reference)


def test_jsd_kde_when_every_density_of_one_side_underflows():
    # side b's bandwidth (about 4e-4) is far below the grid step, so all
    # its mass lands on the grid point nearest its samples
    a, b = np.array([0.0, 10.0]), np.array([5.0, 5.001])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = jsd_kde(a, b)
    h_a = np.full(2, scott_bandwidth(a))
    pad = 3.0 * h_a[0]
    xs = np.linspace(-pad, 10.0 + pad, 512)
    one_hot = np.zeros(512)
    one_hot[np.abs(xs - 5.0005).argmin()] = 1.0
    assert value == pytest.approx(metrics._jsd_mass(_reference_kde_mass(a, h_a, xs), one_hot))
    assert 0.9 < value < 1.0


def month_rows(values_by_month, scale=1.0, offset=0.0):
    rows = []
    for month, values in values_by_month.items():
        for hour in range(24):
            rows.append((month, hour, scale * values[hour] + offset))
    return rows


def columns(rows):
    """(months, hours, values) columns of (month, hour, value) rows."""
    return tuple(list(column) for column in zip(*rows)) or ([], [], [])


def test_pearson_monthly_identity_and_affine():
    rng = np.random.default_rng(4)
    shapes = {"2018-01": rng.random(24), "2018-02": rng.random(24)}
    a = columns(month_rows(shapes))
    same = pearson_monthly(a, columns(month_rows(shapes)))
    affine = pearson_monthly(a, columns(month_rows(shapes, scale=3.0, offset=7.0)))
    for month in ("2018-01", "2018-02"):
        assert same[month] == pytest.approx(1.0, abs=1e-9)
        assert affine[month] == pytest.approx(1.0, abs=1e-9)


def test_pearson_monthly_averages_duplicates():
    shape = np.arange(24.0)
    a = month_rows({"m": shape}) + month_rows({"m": shape + 2.0})
    b = month_rows({"m": shape + 1.0})  # the mean of the two a-series
    out = pearson_monthly(columns(a), columns(b))
    assert out["m"] == pytest.approx(1.0, abs=1e-12)


def test_pearson_monthly_zero_variance_is_none():
    flat = columns(month_rows({"m": np.ones(24)}))
    varying = columns(month_rows({"m": np.arange(24.0)}))
    assert pearson_monthly(flat, varying)["m"] is None


def test_pearson_monthly_errors():
    full = month_rows({"m": np.arange(24.0)})
    with pytest.raises(ValueError, match="missing hour 23 in month m"):
        pearson_monthly(columns(full[:-1]), columns(full))
    other = month_rows({"x": np.arange(24.0)})
    with pytest.raises(ValueError, match="different months"):
        pearson_monthly(columns(full), columns(other))


def _reference_monthly_shapes(rows, side):
    """The dict fold pearson_monthly used before its bincount: per-row
    sums and counts keyed by (month, hour), then one 24-point mean shape
    per month."""
    sums = {}
    counts = {}
    for month, hour, value in rows:
        hour = int(hour)
        if not 0 <= hour < 24:
            raise ValueError(f"hour {hour} out of range on side {side}")
        key = (month, hour)
        sums[key] = sums.get(key, 0.0) + float(value)
        counts[key] = counts.get(key, 0) + 1
    months = sorted({m for m, _ in sums})
    if not months:
        raise ValueError(f"no rows on side {side}")
    shapes = {}
    for month in months:
        shape = np.empty(24)
        for hour in range(24):
            key = (month, hour)
            if key not in sums:
                raise ValueError(f"side {side} missing hour {hour} in month {month}")
            shape[hour] = sums[key] / counts[key]
        shapes[month] = shape
    return shapes


def _reference_pearson_monthly(a, b):
    shapes_a = _reference_monthly_shapes(a, "a")
    shapes_b = _reference_monthly_shapes(b, "b")
    if set(shapes_a) != set(shapes_b):
        raise ValueError("the two series cover different months")
    out = {}
    for month in sorted(shapes_a):
        va, vb = shapes_a[month], shapes_b[month]
        try:
            with np.errstate(over="raise", invalid="raise"):
                if float(np.std(va)) == 0.0 or float(np.std(vb)) == 0.0:
                    out[month] = None
                else:
                    out[month] = float(np.corrcoef(va, vb)[0, 1])
        except FloatingPointError as exc:
            raise ValueError(f"pearson for month {month}: {exc}") from None
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


_MONTHS = ("2018-01", "2018-02", "2018-03")
_SPECIAL = np.array([0.0, -0.0, 0.1, 1.0, 1e16, -1e16])


@st.composite
def _hourly_side(draw, months):
    """Rows of the given months in shuffled order: every hour once, extra
    rows and duplicate rows, with values of every sign and magnitude; now
    and then one value in every row, dropped rows or hours outside
    0..23."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extra = draw(st.integers(0, 40))
    month = np.concatenate([np.repeat(months, 24), rng.choice(months, extra)])
    hour = np.concatenate([np.tile(np.arange(24), len(months)), rng.integers(0, 24, extra)])
    value = np.where(
        rng.random(month.size) < 0.3,
        rng.choice(_SPECIAL, month.size),
        rng.normal(size=month.size) * 10.0 ** rng.uniform(-300.0, 300.0, month.size),
    )
    if draw(st.integers(0, 9)) == 0:
        value[:] = rng.choice(_SPECIAL)  # a flat shape
    rows = list(zip(month.tolist(), hour.tolist(), value.tolist()))
    rows += [rows[i] for i in rng.integers(0, len(rows), draw(st.integers(0, 5)))]
    if draw(st.integers(0, 9)) == 0:
        for _ in range(draw(st.integers(1, 3))):
            rows.pop(draw(st.integers(0, len(rows) - 1)))
    if draw(st.integers(0, 19)) == 0:
        rows += [(months[0], hour, 1.0) for hour in draw(st.lists(
            st.sampled_from([-1, 24, 99]), min_size=1, max_size=3
        ))]
    return [rows[i] for i in rng.permutation(len(rows))]


@st.composite
def _hourly_pair(draw):
    months = draw(st.lists(st.sampled_from(_MONTHS), min_size=1, max_size=3, unique=True))
    other = months if draw(st.integers(0, 9)) else draw(
        st.lists(st.sampled_from(_MONTHS), min_size=1, max_size=3, unique=True)
    )
    return draw(_hourly_side(months)), draw(_hourly_side(other))


@settings(max_examples=300, deadline=None)
@given(_hourly_pair())
@example(([("m", h, 1.0) for h in range(24)], []))
def test_pearson_monthly_matches_dict_fold(pair):
    """The bincount fold gives the dict fold's shapes bit for bit, and the
    same correlations or the same error."""
    rows_a, rows_b = pair
    for side, rows in (("a", rows_a), ("b", rows_b)):
        expected = _outcome(_reference_monthly_shapes, rows, side)
        got = _outcome(_monthly_shapes, *columns(rows), side)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got[0] == sorted(expected)
            assert got[1].tobytes() == np.array([expected[m] for m in got[0]]).tobytes()
    expected = _outcome(_reference_pearson_monthly, rows_a, rows_b)
    got = _outcome(pearson_monthly, columns(rows_a), columns(rows_b))
    if isinstance(expected, dict):
        assert list(got) == list(expected)
        assert all(
            (g is None and e is None) or (math.isnan(g) and math.isnan(e)) or g == e
            for g, e in zip(got.values(), expected.values())
        )
    else:
        assert got == expected


def test_relative_pct_diff_oracle():
    assert relative_pct_diff(62, 338) == pytest.approx(445.16129032258067, rel=1e-12)
    assert relative_pct_diff(50, 50) == 0.0
    assert relative_pct_diff(100, 50) == 50.0
    with pytest.raises(ValueError, match="undefined"):
        relative_pct_diff(0, 10)
