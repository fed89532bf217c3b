"""Toy generators: determinism, planted signal, irradiance shape."""

import datetime

import numpy as np
import pytest

from solartwin.records import FEATURE_DOMAINS, FEATURE_NAMES, N_SQFT_CLASSES
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


def test_config_validation():
    with pytest.raises(ValueError, match="n_households"):
        gen_population(ToyConfig(n_households=0))
    with pytest.raises(ValueError, match="adopter_fraction"):
        ToyConfig(adopter_fraction=1.5).validate()
    with pytest.raises(ValueError, match="edge_prob"):
        gen_network(10, 1.5)
