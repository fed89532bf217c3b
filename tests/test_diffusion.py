"""Contagion thresholds, policy gates, and the synchronous simulator."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solartwin.diffusion import (
    CASE3_LMI_SEQUENCE,
    CASES,
    DiffusionConfig,
    DiffusionState,
    barrier_flags,
    build_nodes,
    case_nodes,
    node_probability,
    normalize_benefit,
    rebate_bins,
    rebate_value,
    save_timeline,
    simulate,
    step,
    _utility,
    threshold_from_barriers,
)
from solartwin.records import FEATURE_DOMAINS, FEATURE_NAMES, Graph, HouseholdTable
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
    assert _utility(0.5, 0.2, 0.1, (0.4, 0.3, 0.3)) == pytest.approx(0.29)
    assert _utility(1.0, 1.0, 1.0, (0.4, 0.3, 0.3)) == pytest.approx(1.0)


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
    # a household that generates nothing gets nothing, and is ranked
    assert rebate_value(0.0, 3.04, 0.3, 0.15) == 0.0
    rebates = rebate_value(np.array([5.0, 0.0, 9.0]), 3.04, 0.3, 0.15)
    assert rebate_bins(rebates).tolist() == [4, 1, 7]
    for kwh in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="^annual_kwh must be >= 0$"):
            rebate_value(kwh, 3.04, 0.3, 0.15)
    with pytest.raises(ValueError, match="^annual_kwh 1e\\+306 gives a rebate that is not finite$"):
        rebate_value(np.array([1.0, 1e306]), 3.04, 0.3, 0.15)


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
    benefit = np.linspace(0.0, 1.0, len(pop))
    with pytest.raises(ValueError, match="graph has"):
        build_nodes(pop, Graph(5, []), benefit[:5])
    nodes = build_nodes(pop, graph, benefit)
    with pytest.raises(ValueError, match="needs annual_kwh"):
        simulate(nodes, DiffusionConfig(case="4"), [0])


def test_case5_uprating_changes_bins():
    pop, graph = small_world(n=40, lmi_every=2)
    nodes = build_nodes(pop, graph, np.linspace(1.0, 2.0, 40))
    kwh = np.linspace(4000.0, 8000.0, 40)
    four = case_nodes(nodes, DiffusionConfig(case="4"), kwh)
    five = case_nodes(nodes, DiffusionConfig(case="5"), kwh)
    # the shared nodes carry no bins, and the other cases take them as they are
    assert nodes.rebate_bin is None
    assert case_nodes(nodes, DiffusionConfig(case="3"), kwh) is nodes
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
    nodes = build_nodes(pop, graph, np.ones(3))
    state = DiffusionState.start(nodes, [True, False, False])

    class AlwaysPass:
        def random(self, n):
            return np.zeros(n)  # every Bernoulli gate succeeds

    nxt = step(state, cfg, AlwaysPass())
    # node 1 sees neighbor rate 0.5 > 0.1 threshold; node 2 sees 0 and waits
    assert list(nxt.adopted) == [True, True, False]
    after = step(nxt, cfg, AlwaysPass())
    assert list(after.adopted) == [True, True, True]
    assert nxt.step == 1 and after.step == 2


def quadrant_masks(nodes):
    """The node mask of each count in a timeline row."""
    lmi, rural = nodes.lmi, nodes.rural
    return {
        "total_adopters": np.ones(nodes.n, dtype=bool), "lmi_rural": lmi & rural,
        "lmi_urban": lmi & ~rural, "nonlmi_rural": ~lmi & rural, "nonlmi_urban": ~lmi & ~rural,
    }


def test_simulate_monotone_and_deterministic():
    pop, graph = small_world(n=40, seed=2)
    cfg = DiffusionConfig(case="1b", time_steps=8, iterations=2, seed=5)
    nodes = build_nodes(pop, graph, rng_for(5, "benefit").random(40))
    initial = [0, 7, 13]
    rows = simulate(nodes, cfg, initial)
    assert rows == simulate(nodes, cfg, initial)
    assert rows[0]["total_adopters"] == 3.0
    for name in quadrant_masks(nodes):
        means = [row[name] for row in rows]
        assert means == sorted(means)


def test_simulate_zero_steps():
    pop, graph = small_world(n=10)
    cfg = DiffusionConfig(case="1a", time_steps=0)
    rows = simulate(build_nodes(pop, graph, np.ones(10)), cfg, [2])
    assert len(rows) == 1
    assert rows[-1]["step"] == 0
    assert rows[-1]["total_adopters"] == 1.0


def test_simulate_rows_schema_and_quadrants():
    pop, graph = small_world(n=24, lmi_every=2)
    cfg = DiffusionConfig(case="2b", time_steps=3, iterations=3, seed=9)
    rows = simulate(build_nodes(pop, graph, np.linspace(0, 1, 24)), cfg, [0, 1])
    assert len(rows) == 4
    for t, row in enumerate(rows):
        assert row["case"] == "2b"
        assert row["step"] == t
        quadrant_sum = (
            row["lmi_rural"] + row["lmi_urban"]
            + row["nonlmi_rural"] + row["nonlmi_urban"]
        )
        assert quadrant_sum == pytest.approx(row["total_adopters"])
    assert rows[0]["total_adopters"] == 2.0


def assert_rows_average(rows, nodes, runs):
    """rows hold, for every step and mask, the mean over runs of the
    adopters each run has at that step under that mask."""
    for t, row in enumerate(rows):
        for name, mask in quadrant_masks(nodes).items():
            counts = [np.count_nonzero(run[t] & mask) for run in runs]
            assert repr(row[name]) == repr(float(np.mean(counts)))


@pytest.mark.parametrize("iterations", [1, 3, 7])
def test_simulate_rows_match_per_state_counts(iterations):
    pop, graph = small_world(n=36, lmi_every=3, seed=4)
    cfg = DiffusionConfig(case="2b", time_steps=5, iterations=iterations, seed=2)
    nodes = build_nodes(pop, graph, rng_for(2, "benefit").random(36))
    rows = simulate(nodes, cfg, [0, 5, 9])
    start = DiffusionState.start(nodes, np.isin(np.arange(36), [0, 5, 9]))
    runs = []
    for iteration in range(iterations):
        rng = rng_for(cfg.seed, "diffusion", cfg.case, iteration)
        states = [start]
        for _ in range(cfg.time_steps):
            states.append(step(states[-1], cfg, rng))
        runs.append([state.adopted for state in states])
    assert [(row["case"], row["step"]) for row in rows] == [("2b", t) for t in range(6)]
    assert_rows_average(rows, nodes, runs)


def test_simulate_initial_index_guard():
    pop, graph = small_world(n=10)
    # the first bad index in input order is named
    nodes = build_nodes(pop, graph, np.ones(10))
    for initial, bad in [([99], 99), ([-1], -1), ([3, 10, -2], 10), (np.array([3, -2, 10]), -2)]:
        with pytest.raises(ValueError, match=rf"^initial adopter index {bad} out of range$"):
            simulate(nodes, DiffusionConfig(), initial)


def _reference_step(nodes, graph, config, adopted, number, rng):
    """The adopted mask after step number (1-based), as step makes it, but
    with each node's adopting neighbours gathered per edge end and summed by
    two weighted bincounts, and county rates counted afresh."""
    adopted_f = adopted.astype(float)
    county_rate = (
        np.bincount(nodes.county_index, weights=adopted_f, minlength=nodes.county_size.size)
        / nodes.county_size
    )[nodes.county_index]
    neighbor_adopters = np.bincount(
        graph.edge_u, weights=adopted_f[graph.edge_v], minlength=nodes.n
    ) + np.bincount(graph.edge_v, weights=adopted_f[graph.edge_u], minlength=nodes.n)
    neighbor_rate = neighbor_adopters / np.maximum(nodes.degree, 1.0)
    probs = np.array([
        node_probability(config.case, lmi, number,
                         None if nodes.rebate_bin is None else nodes.rebate_bin[i])
        for i, lmi in enumerate(nodes.lmi)
    ])
    draws = rng.random(nodes.n)
    w = config.weights
    u = w[0] * nodes.benefit + w[1] * county_rate + w[2] * neighbor_rate
    newly = (~adopted) & (draws < probs) & (u > nodes.thresholds)
    return adopted | newly


@pytest.mark.parametrize("case", ["1a", "2b", "3", "5"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_step_matches_bincount_reference(case, seed):
    pop, graph = small_world(n=40, lmi_every=2, seed=seed)
    cfg = DiffusionConfig(case=case, weights=(0.2, 0.2, 0.6), seed=seed)
    kwh = np.linspace(4000.0, 8000.0, 40)
    nodes = case_nodes(build_nodes(pop, graph, rng_for(seed, "benefit").random(40)), cfg, kwh)
    assert nodes.degree.tolist() == np.diff(nodes.indptr).tolist()
    state = DiffusionState.start(nodes, rng_for(seed, "start").random(40) < 0.3)
    ours, theirs = rng_for(seed, "steps"), rng_for(seed, "steps")
    expected = state.adopted
    for number in range(1, 7):
        state = step(state, cfg, ours)
        expected = _reference_step(nodes, graph, cfg, expected, number, theirs)
        assert np.array_equal(state.adopted, expected)


@st.composite
def worlds(draw):
    """(pop, graph, inputs) for build_nodes and simulate: 1 to 25 households
    in up to three counties with random barrier features, on an edge set of
    density 0 (no edges), low (isolated nodes likely) or high.  inputs holds
    the benefit values, annual kWh, the step-0 adopted mask, the weights and
    the seed."""
    n = draw(st.integers(1, 25))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    seed = draw(st.integers(0, 2**16))
    rng = rng_for(seed, "world")
    u, v = np.triu_indices(n, 1)
    keep = rng.random(u.size) < density
    features = np.column_stack([rng.choice(FEATURE_DOMAINS[name], n) for name in FEATURE_NAMES])
    pop = make_households(
        county=[str(51001 + c) for c in rng.integers(0, 3, n)],
        lmi=(rng.random(n) < 0.5).tolist(),
        rural=(rng.random(n) < 0.5).tolist(),
        features=features,
    )
    inputs = {
        "benefit": rng.random(n),
        "kwh": 4000.0 + 4000.0 * rng.random(n),
        "start": rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.6])),
        "weights": draw(st.sampled_from([(0.4, 0.3, 0.3), (0.2, 0.2, 0.6), (0.0, 0.5, 0.5)])),
        "seed": seed,
    }
    return pop, Graph(n, np.column_stack((u[keep], v[keep]))), inputs


def _counts_afresh(nodes, graph, adopted):
    """Adopting neighbours per node and adopters per county, by bincount."""
    adopted_f = adopted.astype(float)
    neighbors = np.bincount(
        graph.edge_u, weights=adopted_f[graph.edge_v], minlength=nodes.n
    ) + np.bincount(graph.edge_v, weights=adopted_f[graph.edge_u], minlength=nodes.n)
    county = np.bincount(nodes.county_index, weights=adopted_f, minlength=nodes.county_size.size)
    return neighbors, county


@settings(max_examples=200, deadline=None)
@given(worlds(), st.sampled_from(CASES))
def test_step_chain_matches_reference_and_carries_counts(world, case):
    pop, graph, inputs = world
    cfg = DiffusionConfig(case=case, weights=inputs["weights"], seed=inputs["seed"])
    nodes = case_nodes(build_nodes(pop, graph, inputs["benefit"]), cfg, inputs["kwh"])
    state = DiffusionState.start(nodes, inputs["start"])
    expected = inputs["start"]
    ours, theirs = rng_for(cfg.seed, "steps"), rng_for(cfg.seed, "steps")
    # 13 steps take case 3 past the end of its LMI sequence
    for number in range(14):
        if number:
            state = step(state, cfg, ours)
            expected = _reference_step(nodes, graph, cfg, expected, number, theirs)
        assert state.step == number
        assert np.array_equal(state.adopted, expected)
        neighbors, county = _counts_afresh(nodes, graph, state.adopted)
        assert state.neighbor_count.dtype == state.county_count.dtype == np.int64
        assert state.neighbor_count.tolist() == neighbors.tolist()
        assert state.county_count.tolist() == county.tolist()


@settings(max_examples=100, deadline=None)
@given(worlds(), st.sampled_from(CASES), st.integers(0, 12), st.integers(1, 4))
def test_simulate_rows_match_reference_loop(world, case, time_steps, iterations):
    pop, graph, inputs = world
    cfg = DiffusionConfig(
        case=case, weights=inputs["weights"], time_steps=time_steps,
        iterations=iterations, seed=inputs["seed"],
    )
    shared = build_nodes(pop, graph, inputs["benefit"])
    rows = simulate(shared, cfg, np.flatnonzero(inputs["start"]), inputs["kwh"])
    nodes = case_nodes(shared, cfg, inputs["kwh"])
    runs = []
    for iteration in range(iterations):
        rng = rng_for(cfg.seed, "diffusion", case, iteration)
        run = [inputs["start"]]
        for number in range(1, time_steps + 1):
            run.append(_reference_step(nodes, graph, cfg, run[-1], number, rng))
        runs.append(run)
    assert [(row["case"], row["step"]) for row in rows] == [
        (case, t) for t in range(time_steps + 1)
    ]
    assert_rows_average(rows, nodes, runs)


class FixedDraws:
    """An rng whose one draw per step is a given vector."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, n):
        assert n == self.draws.size
        return self.draws


@pytest.mark.parametrize("case", CASES)
def test_step_gates_match_node_probability(case):
    # every node but node 0 clears its threshold (u = benefit = 1), so a node
    # adopts exactly when its draw is below its gate; draws sit on the gate
    # and one float below it, at every step up to past case 3's sequence
    pop, graph = small_world(n=40, lmi_every=2)
    cfg = DiffusionConfig(case=case, weights=(1.0, 0.0, 0.0))
    nodes = case_nodes(
        build_nodes(pop, graph, [0.0] + [1.0] * 39), cfg, np.linspace(4000.0, 8000.0, 40)
    )
    bins = [None] * 40 if nodes.rebate_bin is None else nodes.rebate_bin
    below = np.arange(40) % 4 < 2
    for number in range(1, 14):
        gates = np.array(
            [node_probability(case, lmi, number, b) for lmi, b in zip(nodes.lmi, bins)]
        )
        draws = np.where(below, np.nextafter(gates, 0.0), gates)
        state = replace(DiffusionState.start(nodes, np.zeros(40, dtype=bool)), step=number - 1)
        nxt = step(state, cfg, FixedDraws(draws))
        assert nxt.adopted.tolist() == (below & (np.arange(40) > 0)).tolist()


def test_step_adds_utility_terms_in_documented_order():
    # u = (w1*benefit + w2*county_rate) + w3*neighbor_rate lands one float
    # either side of the 0.525 threshold (four barriers) for nodes 0 and 2,
    # where w1*benefit + (w2*county_rate + w3*neighbor_rate) lands on the
    # other side
    features = np.tile(list(FEATURES.values()), (8, 1))
    for name, code in [("BA_climate", 7), ("NHSLDMEM", 6), ("MONEYPY", 1), ("KOWNRENT", 2)]:
        features[[0, 2], FEATURE_NAMES.index(name)] = code
    pop = make_households(["A", "A", "B", "B", "C", "C", "C", "C"], [False] * 8, features=features)
    graph = Graph(8, [(0, 1), (2, 3), (2, 4), (2, 5)])
    cfg = DiffusionConfig(case="1a")
    benefit = [0.1875000000000002, 0.5, 0.6875000000000001, 0.5, 0.5, 0.5, 0.0, 1.0]
    nodes = build_nodes(pop, graph, benefit)
    assert nodes.thresholds[[0, 2]].tolist() == [0.525, 0.525]
    start = DiffusionState.start(nodes, np.isin(np.arange(8), [1, 3]))
    nxt = step(start, cfg, FixedDraws(np.zeros(8)))
    w = cfg.weights
    for node, c, n, adopts in [(0, 1 / 2, 1 / 1, True), (2, 1 / 2, 1 / 3, False)]:
        p = benefit[node]
        assert ((w[0] * p + w[1] * c) + w[2] * n > 0.525) is adopts
        assert (w[0] * p + (w[1] * c + w[2] * n) > 0.525) is not adopts
        assert nxt.adopted[node] == adopts


def test_save_timeline_format(tmp_path):
    pop, graph = small_world(n=16)
    nodes = build_nodes(pop, graph, np.linspace(0, 1, 16))
    rows = [
        row for c in ("1a", "1b")
        for row in simulate(nodes, DiffusionConfig(case=c, time_steps=2, seed=3), [0])
    ]
    path = tmp_path / "adoption_timeline.csv"
    save_timeline(rows, path)
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
