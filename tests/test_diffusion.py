"""Contagion thresholds, policy gates, and the synchronous simulator."""

import numpy as np
import pytest

from solartwin.diffusion import (
    CASE3_LMI_SEQUENCE,
    DiffusionConfig,
    DiffusionState,
    barrier_flags,
    build_nodes,
    node_probability,
    normalize_benefit,
    rebate_bins,
    rebate_value,
    save_timeline,
    simulate,
    step,
    threshold_from_barriers,
    utility,
)
from solartwin.records import FEATURE_NAMES, Graph, HouseholdTable
from solartwin.seeds import rng_for

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


def make_households(county, lmi, rural=None, features=None):
    """Households 0..n-1, one per entry of the county and lmi lists; rural
    defaults to False and features to FEATURES in every row."""
    n = len(county)
    return HouseholdTable(
        id=range(n), state=["VA"] * n, county=county, tract=[c + "000001" for c in county],
        lat=[37.0] * n, lon=[-78.0] * n,
        features=np.tile(list(FEATURES.values()), (n, 1)) if features is None else features,
        solar=[False] * n, lmi=lmi, rural=[False] * n if rural is None else rural,
    )


def test_threshold_from_barriers():
    assert threshold_from_barriers([False] * 8) == pytest.approx(0.1)
    assert threshold_from_barriers([True] * 8) == pytest.approx(0.95)
    assert threshold_from_barriers([True] * 3 + [False] * 5) == pytest.approx(0.41875)
    with pytest.raises(ValueError, match="exactly 8"):
        threshold_from_barriers([True] * 7)


def test_barriers_from_record_mapping():
    features = np.tile(list(FEATURES.values()), (6, 1))
    for row, name, code in [
        (2, "KOWNRENT", 2), (3, "MONEYPY", 1), (4, "BA_climate", 8),
        (5, "KOWNRENT", 2), (5, "MONEYPY", 2),
    ]:
        features[row, FEATURE_NAMES.index(name)] = code
    lmi = [False, True, False, False, False, True]
    pop = make_households(["51001"] * 6, lmi, features=features)
    flags = barrier_flags(pop.features, pop.lmi.filled(False))
    assert flags.shape == (6, 8) and flags.dtype == bool
    assert flags[0].sum() == 0
    assert flags[1, 5] and flags[2, 3] and flags[3, 2] and flags[4, 0]
    assert [int(row.sum()) for row in flags[1:5]] == [1, 1, 1, 1]
    assert flags[5].sum() == 3


def test_utility_oracle():
    assert utility(0.5, 0.2, 0.1, (0.4, 0.3, 0.3)) == pytest.approx(0.29)
    assert utility(1.0, 1.0, 1.0, (0.4, 0.3, 0.3)) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="p must be"):
        utility(1.5, 0.0, 0.0, (0.4, 0.3, 0.3))
    with pytest.raises(ValueError, match="summing to 1"):
        utility(0.5, 0.5, 0.5, (0.5, 0.5, 0.5))


def test_node_probability_table():
    assert node_probability("1a", False, 1) == 0.1
    assert node_probability("1a", True, 1) == 0.1
    assert node_probability("1b", False, 1) == 0.2
    assert node_probability("2a", True, 1) == 0.2
    assert node_probability("2a", False, 1) == 0.1
    assert node_probability("2b", True, 1) == 0.5
    assert node_probability("2b", False, 1) == 0.1
    # case 3 LMI sequence dips then ramps, clamping past step 10
    assert CASE3_LMI_SEQUENCE == (0.30, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50)
    for s, expected in enumerate(CASE3_LMI_SEQUENCE, start=1):
        assert node_probability("3", True, s) == expected
    assert node_probability("3", True, 15) == 0.50
    assert node_probability("3", False, 4) == 0.1
    with pytest.raises(ValueError, match="step"):
        node_probability("3", True, 0)


def test_node_probability_rebate_cases():
    assert node_probability("4", False, 1, rebate_bin=10) == pytest.approx(0.1)
    assert node_probability("4", False, 1, rebate_bin=1) == pytest.approx(0.01)
    assert node_probability("5", True, 3, rebate_bin=5) == pytest.approx(0.05)
    with pytest.raises(ValueError, match="needs a rebate bin"):
        node_probability("4", False, 1)
    with pytest.raises(ValueError, match="rebate bin"):
        node_probability("5", False, 1, rebate_bin=11)
    with pytest.raises(ValueError, match="unknown case"):
        node_probability("6", False, 1)


def test_rebate_value_oracle():
    # 6570 kWh/yr at cf 0.15 sizes a 5 kW system; 30% of $3.04/W
    assert rebate_value(6570.0, 3.04, 0.30, 0.15) == pytest.approx(4560.0, rel=1e-9)
    assert rebate_value(6570.0, 3.04, 0.0, 0.15) == 0.0
    with pytest.raises(ValueError):
        rebate_value(0.0, 3.04, 0.3)


def test_rebate_bins_equal_population():
    values = np.arange(20.0)
    bins = rebate_bins(values)
    assert list(np.sort(np.unique(bins))) == list(range(1, 11))
    assert np.all(np.bincount(bins)[1:] == 2)
    assert bins[np.argmax(values)] == 10
    assert bins[np.argmin(values)] == 1
    # ties break by row index: equal rebates fill bins in id order
    tied = rebate_bins(np.zeros(10))
    assert list(tied) == list(range(1, 11))


def test_normalize_benefit():
    out = normalize_benefit([2.0, 4.0, 6.0])
    assert out == pytest.approx([0.0, 0.5, 1.0])
    assert normalize_benefit([3.0, 3.0]) == pytest.approx([0.0, 0.0])


def test_config_validation():
    with pytest.raises(ValueError, match="unknown case"):
        DiffusionConfig(case="9z")
    with pytest.raises(ValueError, match="sum to 1"):
        DiffusionConfig(weights=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="time_steps"):
        DiffusionConfig(time_steps=-1)
    DiffusionConfig(time_steps=0)  # zero steps is a valid degenerate run


def small_world(n=30, lmi_every=3, seed=0):
    pop = make_households(
        county=["51001" if i < n // 2 else "51002" for i in range(n)],
        lmi=[i % lmi_every == 0 for i in range(n)],
        rural=[i % 2 == 1 for i in range(n)],
    )
    rng = rng_for(seed, "edges")
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.15:
                edges.append((u, v))
    return pop, Graph(n, edges)


def test_build_nodes_guards():
    pop, graph = small_world()
    cfg = DiffusionConfig(case="1a")
    benefit = np.linspace(0.0, 1.0, len(pop))
    with pytest.raises(ValueError, match="graph has"):
        build_nodes(pop, Graph(5, []), cfg, benefit[:5])
    with pytest.raises(ValueError, match="needs annual_kwh"):
        build_nodes(pop, graph, DiffusionConfig(case="4"), benefit)


def test_case5_uprating_changes_bins():
    pop, graph = small_world(n=40, lmi_every=2)
    benefit = np.linspace(1.0, 2.0, 40)
    kwh = np.linspace(4000.0, 8000.0, 40)
    four = build_nodes(pop, graph, DiffusionConfig(case="4"), benefit, kwh)
    five = build_nodes(pop, graph, DiffusionConfig(case="5"), benefit, kwh)
    lmi = pop.lmi.filled(False)
    # the uprated credit can only push LMI households up the ranking
    assert np.all(five.rebate_bin[lmi] >= four.rebate_bin[lmi])
    assert np.any(five.rebate_bin != four.rebate_bin)


def test_step_is_synchronous_and_irreversible():
    # line graph 0-1-2: with county/network rates from the step's start,
    # node 2 cannot react to node 1 adopting within the same step
    pop = make_households(["51001"] * 3, lmi=[False] * 3)
    graph = Graph(3, [(0, 1), (1, 2)])
    cfg = DiffusionConfig(case="1b", weights=(0.0, 0.0, 1.0), time_steps=1, seed=0)
    nodes = build_nodes(pop, graph, cfg, np.ones(3))
    adopted = np.array([True, False, False])
    state = DiffusionState(step=0, adopted=adopted, nodes=nodes)

    class AlwaysPass:
        def random(self, n):
            return np.zeros(n)  # every Bernoulli gate succeeds

    nxt = step(state, graph, cfg, AlwaysPass())
    # node 1 sees neighbor rate 0.5 > 0.1 threshold; node 2 sees 0 and waits
    assert list(nxt.adopted) == [True, True, False]
    after = step(nxt, graph, cfg, AlwaysPass())
    assert list(after.adopted) == [True, True, True]
    assert nxt.step == 1 and after.step == 2


def test_county_rates_recomputed_each_step():
    pop, graph = small_world(n=20)
    cfg = DiffusionConfig(case="1a", seed=1)
    nodes = build_nodes(pop, graph, cfg, np.linspace(0, 1, 20))
    adopted = np.zeros(20, dtype=bool)
    adopted[:4] = True  # all in county 51001 (first half)
    state = DiffusionState(step=0, adopted=adopted, nodes=nodes)
    rates = state.county_rates()
    assert rates == pytest.approx([0.4, 0.0])


def test_simulate_monotone_and_deterministic():
    pop, graph = small_world(n=40, seed=2)
    cfg = DiffusionConfig(case="1b", time_steps=8, iterations=2, seed=5)
    benefit = rng_for(5, "benefit").random(40)
    initial = [0, 7, 13]
    a = simulate(pop, graph, cfg, initial, benefit)
    b = simulate(pop, graph, cfg, initial, benefit)
    for timeline_a, timeline_b in zip(a.timelines, b.timelines):
        for sa, sb in zip(timeline_a, timeline_b):
            assert np.array_equal(sa.adopted, sb.adopted)
    for timeline in a.timelines:
        assert timeline[0].total == 3
        totals = [s.total for s in timeline]
        assert totals == sorted(totals)
        for prev, nxt in zip(timeline, timeline[1:]):
            assert np.all(prev.adopted <= nxt.adopted)  # never un-adopts


def test_simulate_zero_steps():
    pop, graph = small_world(n=10)
    cfg = DiffusionConfig(case="1a", time_steps=0)
    result = simulate(pop, graph, cfg, [2], np.ones(10))
    assert len(result.timelines[0]) == 1
    assert result.rows[-1]["step"] == 0
    assert result.rows[-1]["total_adopters"] == 1.0


def test_simulate_rows_schema_and_quadrants():
    pop, graph = small_world(n=24, lmi_every=2)
    cfg = DiffusionConfig(case="2b", time_steps=3, iterations=3, seed=9)
    result = simulate(pop, graph, cfg, [0, 1], np.linspace(0, 1, 24))
    assert len(result.rows) == 4
    for t, row in enumerate(result.rows):
        assert row["case"] == "2b"
        assert row["step"] == t
        quadrant_sum = (
            row["lmi_rural"] + row["lmi_urban"]
            + row["nonlmi_rural"] + row["nonlmi_urban"]
        )
        assert quadrant_sum == pytest.approx(row["total_adopters"])
    assert result.rows[0]["total_adopters"] == 2.0
    assert len(result.timelines) == 3


def test_simulate_initial_index_guard():
    pop, graph = small_world(n=10)
    with pytest.raises(ValueError, match="out of range"):
        simulate(pop, graph, DiffusionConfig(), [99], np.ones(10))


def test_save_timeline_format(tmp_path):
    pop, graph = small_world(n=16)
    results = [
        simulate(pop, graph, DiffusionConfig(case=c, time_steps=2, seed=3), [0],
                 np.linspace(0, 1, 16))
        for c in ("1a", "1b")
    ]
    path = tmp_path / "adoption_timeline.csv"
    save_timeline(results, path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "case,step,total_adopters,lmi_rural,lmi_urban,nonlmi_rural,nonlmi_urban"
    )
    assert len(lines) == 1 + 2 * 3
    assert lines[1].startswith("1a,0,1,")
    assert lines[4].startswith("1b,0,1,")
    # single-iteration counts print as integers
    for line in lines[1:]:
        for cell in line.split(",")[2:]:
            assert "." not in cell
