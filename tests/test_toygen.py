"""Toy generators: determinism, planted signal, irradiance shape."""

import datetime
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solartwin import toygen
from solartwin.records import FEATURE_DOMAINS, FEATURE_NAMES, N_SQFT_CLASSES, Graph
from solartwin.seeds import rng_for
from solartwin.toygen import (
    SUNRISE_HOUR,
    SUNSET_HOUR,
    ToyConfig,
    gen_irradiance,
    gen_network,
    gen_population,
    gen_survey,
    peak_ghi,
    tract_ids,
)


def test_population_is_deterministic():
    cfg = ToyConfig(n_households=120, seed=7)
    assert gen_population(cfg) == gen_population(cfg)


def test_population_counts_are_exact():
    cfg = ToyConfig(n_households=240, adopter_fraction=0.1, lmi_fraction=0.25, seed=3)
    pop = gen_population(cfg)
    assert len(pop) == 240
    assert np.count_nonzero(pop.labels("solar")) == 24
    assert np.count_nonzero(pop.labels("lmi")) == 60
    assert pop.sqft_value.mask.all()
    assert set(pop.labels("sqft_class").tolist()) <= set(range(N_SQFT_CLASSES))


def test_population_feature_domains():
    pop = gen_population(ToyConfig(n_households=300, seed=1))
    for name, codes in zip(FEATURE_NAMES, pop.features.T):
        assert set(codes.tolist()) <= set(FEATURE_DOMAINS[name])


def test_planted_income_signal():
    pop = gen_population(ToyConfig(n_households=1000, seed=0))
    income = pop.features[:, FEATURE_NAMES.index("MONEYPY")]
    solar = pop.labels("solar")
    assert np.mean(income[solar]) > np.mean(income[~solar]) + 1.0


def test_lmi_marks_lowest_income():
    pop = gen_population(ToyConfig(n_households=200, lmi_fraction=0.2, seed=5))
    income = pop.features[:, FEATURE_NAMES.index("MONEYPY")]
    lmi = pop.labels("lmi")
    assert income[lmi].max() <= income[~lmi].min()


def test_tract_and_rural_assignment():
    cfg = ToyConfig(n_households=40, n_tracts=4)
    pop = gen_population(cfg)
    ids = tract_ids(cfg)
    assert len(ids) == 4
    assert pop.tract.tolist() == [ids[i % 4] for i in range(40)]
    assert pop.labels("rural").tolist() == [i % 4 % 2 == 1 for i in range(40)]


def test_irradiance_night_zero_and_peak():
    cfg = ToyConfig(days=3)
    series = gen_irradiance(cfg, "51001000001")
    assert series.days == 3
    hours = series.hours.reshape(3, 24)
    for d in range(3):
        date = cfg.start_date + datetime.timedelta(days=d)
        for w in range(24):
            if w <= SUNRISE_HOUR or w >= SUNSET_HOUR:
                assert hours[d, w] == 0.0
            else:
                assert hours[d, w] > 0.0
        assert hours[d, 12] == peak_ghi(date, "51001000001")


def test_peak_ghi_seasonal_and_tract_scale():
    summer = peak_ghi(datetime.date(2018, 6, 21), "t")
    winter = peak_ghi(datetime.date(2018, 12, 21), "t")
    assert summer > winter
    # per-tract scale is pinned to [0.9, 1.1] of the seasonal envelope
    values = [peak_ghi(datetime.date(2018, 6, 21), f"tract{i}") for i in range(50)]
    ratio = max(values) / min(values)
    assert ratio <= 1.1 / 0.9 + 1e-9


def test_survey_values_span_classes():
    values = gen_survey(ToyConfig(seed=2), size=4000)
    assert len(values) == 4000
    assert min(values) >= 0.0
    assert max(values) <= 8000.0
    assert max(values) > 4000.0  # top class has mass


def test_network_groups_do_not_cross():
    g = gen_network(100, edge_prob=0.3, groups=2, seed=4)
    for u, v in g.edges:
        assert (u < 50) == (v < 50)
    assert g.edge_count > 0
    assert gen_network(100, 0.3, 2, 4) == g


def _reference_gen_network(n, edge_prob, groups=1, seed=0):
    """gen_network as one triu_indices walk over each group's pairs."""
    rng = rng_for(seed, "network")
    bounds = np.linspace(0, n, groups + 1).astype(int)
    edges = [np.zeros((0, 2), dtype=np.int64)]
    for g in range(groups):
        lo, hi = int(bounds[g]), int(bounds[g + 1])
        m = hi - lo
        if m < 2:
            continue
        iu, iv = np.triu_indices(m, k=1)
        mask = rng.random(iu.size) < edge_prob
        edges.append(np.column_stack((iu[mask], iv[mask])) + lo)
    return Graph(n, np.concatenate(edges))


@st.composite
def _network_cases(draw):
    """(n, groups, edge_prob, seed, block) with at most ~256 blocks per group,
    so small groups get blocks of a pair or two and large ones cross rows."""
    n = draw(st.integers(1, 300))
    groups = draw(st.integers(1, 4))
    largest = -(-n // groups)
    least = max(1, largest * (largest - 1) // 2 // 256)
    return (
        n,
        groups,
        draw(st.sampled_from([0.0, 0.01, 0.4, 1.0])),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(least, least + 600)),
    )


@settings(max_examples=300, deadline=None)
@given(_network_cases())
@example((1, 1, 1.0, 0, 1))
@example((5, 4, 1.0, 0, 1))
@example((40, 3, 0.4, 2, 3))
@example((300, 1, 0.4, 1, 1 << 18))
def test_network_matches_triu_reference(case):
    n, groups, edge_prob, seed, block = case
    expected = _reference_gen_network(n, edge_prob, groups, seed)
    with patch.object(toygen, "_BLOCK_PAIRS", block):
        got = gen_network(n, edge_prob, groups, seed)
    assert got.node_count == n
    assert np.array_equal(got.edge_u, expected.edge_u)
    assert np.array_equal(got.edge_v, expected.edge_v)


def test_config_validation():
    with pytest.raises(ValueError, match="n_households"):
        gen_population(ToyConfig(n_households=0))
    with pytest.raises(ValueError, match="adopter_fraction"):
        ToyConfig(adopter_fraction=1.5).validate()
    with pytest.raises(ValueError, match="edge_prob"):
        gen_network(10, 1.5)
