"""Progressive-threshold contagion over the household network.

Adoption is irreversible: each step, a non-adopter first passes a Bernoulli
gate with its policy-dependent node probability, then adopts if its utility
u = w1*benefit + w2*county_rate + w3*neighbor_rate strictly exceeds its
barrier threshold.  Updates are synchronous; county and neighbor rates come
from the state at the start of the step, and every node draws from a
per-step vector of uniforms indexed by node id, so results are independent
of evaluation order.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .records import FEATURE_NAMES, Graph, HouseholdTable, write_csv
from .seeds import rng_for

BASE_PROB = 0.1
CASE3_LMI_SEQUENCE = (0.30, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50)
# The Bernoulli gate of each policy case: (probability for LMI nodes, for
# the rest).  "step" takes the LMI probability from CASE3_LMI_SEQUENCE by
# step number; "rebate" scales BASE_PROB by the node's rebate bin.
CASE_GATES = {
    "1a": (BASE_PROB, BASE_PROB),
    "1b": (0.2, 0.2),
    "2a": (0.2, BASE_PROB),
    "2b": (0.5, BASE_PROB),
    "3": ("step", BASE_PROB),
    "4": ("rebate", "rebate"),
    "5": ("rebate", "rebate"),
}
CASES = tuple(CASE_GATES)
THRESHOLD_MIN = 0.10
THRESHOLD_MAX = 0.95
N_BARRIERS = 8
N_REBATE_BINS = 10
HOURS_PER_YEAR = 8760


@dataclass(frozen=True)
class DiffusionConfig:
    case: str = "1a"
    weights: tuple = (0.4, 0.3, 0.3)
    time_steps: int = 10
    iterations: int = 1
    seed: int = 0
    cost_per_watt: float = 3.04
    credit_rate: float = 0.30
    lmi_extra_credit: float = 0.20
    capacity_factor: float = 0.15

    def __post_init__(self):
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}; expected one of {CASES}")
        if len(self.weights) != 3 or any(not 0 <= w <= 1 for w in self.weights):
            raise ValueError("need three weights in [0, 1]")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if self.time_steps < 0:
            raise ValueError("time_steps must be >= 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.cost_per_watt <= 0 or self.capacity_factor <= 0:
            raise ValueError("cost_per_watt and capacity_factor must be > 0")
        if self.credit_rate < 0 or self.lmi_extra_credit < 0:
            raise ValueError("credit rates must be >= 0")


def threshold_from_barriers(barriers):
    """Linear step function: 0.1 with no barriers up to 0.95 with all 8;
    barriers is 8 flags or an (n, 8) matrix of them, one row per node."""
    flags = np.asarray(barriers, dtype=bool)
    if flags.shape[-1:] != (N_BARRIERS,):
        raise ValueError(f"need exactly {N_BARRIERS} barrier flags, got shape {flags.shape}")
    return THRESHOLD_MIN + (THRESHOLD_MAX - THRESHOLD_MIN) * flags.sum(axis=-1) / N_BARRIERS


def barrier_flags(features, lmi) -> np.ndarray:
    """Toy mapping of the eight adoption barriers onto household columns:
    an (n, 8) bool matrix from the (n, 8) feature codes and the LMI flags.

    In order: internet access, language, race/socioeconomic, rental,
    education, income, house age, member age.
    """
    f = dict(zip(FEATURE_NAMES, np.asarray(features).T))
    return np.column_stack((
        np.isin(f["BA_climate"], (7, 8)),
        f["NHSLDMEM"] >= 6,
        f["MONEYPY"] <= 2,
        f["KOWNRENT"] == 2,
        np.isin(f["TYPEHUQ"], (4, 5)),
        np.asarray(lmi, dtype=bool),
        f["YEARMADERANGE"] <= 2,
        np.isin(f["FUELHEAT"], (5, 7)),
    ))


def utility(p: float, c: float, n: float, w) -> float:
    """u = w1*p + w2*c + w3*n, a convex combination inside [0, 1]."""
    for name, value in (("p", p), ("c", c), ("n", n)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    if len(w) != 3 or abs(sum(w) - 1.0) > 1e-9:
        raise ValueError("weights must be three values summing to 1")
    return _utility(p, c, n, w)


def _utility(p, c, n, w):
    return w[0] * p + w[1] * c + w[2] * n


def node_probability(case: str, lmi: bool, step: int, rebate_bin: int | None = None) -> float:
    """Per-step Bernoulli gate for one node under a policy case.

    Cases 4 and 5 need the node's rebate bin (1..10, highest rebate = 10);
    case 3's LMI sequence is indexed by step (1-based) and clamps to its
    last value beyond step 10.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    kind = CASE_GATES[case][0]
    if kind == "step" and step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    if kind == "rebate":
        if rebate_bin is None:
            raise ValueError(f"case {case} needs a rebate bin")
        if not 1 <= rebate_bin <= N_REBATE_BINS:
            raise ValueError(f"rebate bin must be in [1, {N_REBATE_BINS}]")
    return float(_gate(case, lmi, step, rebate_bin))


def _gate(case: str, lmi, step: int, rebate_bin):
    """Gate probabilities; lmi and rebate_bin are per node, as scalars or arrays."""
    lmi_prob, other_prob = CASE_GATES[case]
    if lmi_prob == "rebate":
        return rebate_bin / N_REBATE_BINS * BASE_PROB
    if lmi_prob == "step":
        lmi_prob = CASE3_LMI_SEQUENCE[min(step, len(CASE3_LMI_SEQUENCE)) - 1]
    return np.where(lmi, lmi_prob, other_prob)


def rebate_value(
    annual_kwh,
    cost_per_watt: float,
    credit_rate,
    capacity_factor: float = 0.15,
):
    """Dollar rebate: credit on the install cost of a system sized to the
    household's annual generation at the given capacity factor.

    annual_kwh and credit_rate may be per-household arrays.
    """
    kwh = np.asarray(annual_kwh, dtype=float)
    rate = np.asarray(credit_rate, dtype=float)
    if np.any(kwh <= 0) or cost_per_watt <= 0 or capacity_factor <= 0:
        raise ValueError("annual_kwh, cost_per_watt, capacity_factor must be > 0")
    if np.any(rate < 0):
        raise ValueError("credit_rate must be >= 0")
    watts = kwh * 1000.0 / (capacity_factor * HOURS_PER_YEAR)
    return rate * cost_per_watt * watts


def rebate_bins(rebates) -> np.ndarray:
    """Equal-population bins 1..10 by ascending rebate (ties by index)."""
    values = np.asarray(rebates, dtype=float)
    n = values.size
    if n == 0:
        raise ValueError("no rebates to bin")
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    return (ranks * N_REBATE_BINS) // n + 1


@dataclass
class NodeData:
    """Static per-node inputs shared by every state of one simulation;
    adjacency is the graph's symmetric 0/1 matrix in CSR form."""

    thresholds: np.ndarray
    benefit: np.ndarray
    county_index: np.ndarray
    county_size: np.ndarray
    lmi: np.ndarray
    rural: np.ndarray
    degree: np.ndarray
    adjacency: scipy.sparse.csr_array
    rebate_bin: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.thresholds.size


@dataclass
class DiffusionState:
    """Adopter set after `step` synchronous updates."""

    step: int
    adopted: np.ndarray
    nodes: NodeData = field(repr=False)

    @property
    def total(self) -> int:
        return int(np.count_nonzero(self.adopted))

    def county_rates(self) -> np.ndarray:
        per_county = np.bincount(
            self.nodes.county_index,
            weights=self.adopted.astype(float),
            minlength=self.nodes.county_size.size,
        )
        return per_county / self.nodes.county_size


def normalize_benefit(values) -> np.ndarray:
    """Min-max normalize raw generation values into [0, 1]."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("no benefit values")
    lo = float(arr.min())
    hi = float(arr.max())
    if hi == lo:
        return np.zeros(arr.size)
    return (arr - lo) / (hi - lo)


def build_nodes(
    pop: HouseholdTable,
    graph: Graph,
    config: DiffusionConfig,
    benefit_values,
    annual_kwh=None,
) -> NodeData:
    """Assemble static node arrays; node i is row i of the table.

    benefit_values are raw per-household daily generation figures,
    normalized here.  Cases 4 and 5 additionally need annual_kwh per
    household to rank rebates; case 5 uprates the credit rate for LMI
    households by the extra credit before ranking.
    """
    n = len(pop)
    if graph.node_count != n:
        raise ValueError(
            f"graph has {graph.node_count} nodes but population has {n}"
        )
    lmi = pop.lmi.filled(False)
    rural = pop.rural.filled(False)
    thresholds = threshold_from_barriers(barrier_flags(pop.features, lmi))
    benefit = normalize_benefit(benefit_values)
    if benefit.size != n:
        raise ValueError("need one benefit value per household")
    counties, county_index = np.unique(pop.county, return_inverse=True)
    county_size = np.bincount(county_index, minlength=counties.size).astype(float)
    ends = np.concatenate((graph.edge_u, graph.edge_v))
    starts = np.concatenate((graph.edge_v, graph.edge_u))
    adjacency = scipy.sparse.csr_array((np.ones(ends.size), (ends, starts)), shape=(n, n))
    degree = np.bincount(ends, minlength=n).astype(float)
    bins = None
    if config.case in ("4", "5"):
        if annual_kwh is None:
            raise ValueError(f"case {config.case} needs annual_kwh per household")
        kwh = np.asarray(annual_kwh, dtype=float)
        if kwh.size != n:
            raise ValueError("need one annual_kwh value per household")
        rates = np.full(n, config.credit_rate)
        if config.case == "5":
            rates[lmi] = config.credit_rate + config.lmi_extra_credit
        rebates = rebate_value(kwh, config.cost_per_watt, rates, config.capacity_factor)
        bins = rebate_bins(rebates)
    return NodeData(
        thresholds=thresholds,
        benefit=benefit,
        county_index=county_index,
        county_size=county_size,
        lmi=lmi,
        rural=rural,
        degree=degree,
        adjacency=adjacency,
        rebate_bin=bins,
    )


def step(state: DiffusionState, graph: Graph, config: DiffusionConfig, rng) -> DiffusionState:
    """One synchronous update; returns the successor state.

    rng supplies one uniform per node (a single vectorized draw), so the
    outcome does not depend on node evaluation order.  Each node's adopting
    neighbours come from one matvec with the adjacency that build_nodes
    made from graph: every term is 0 or 1, so the float sums are exact
    integers whatever order they are added in.
    """
    nodes = state.nodes
    if graph.node_count != nodes.n:
        raise ValueError("graph does not match the simulation's node data")
    adopted = state.adopted
    county_rate = state.county_rates()[nodes.county_index]
    neighbor_rate = (nodes.adjacency @ adopted) / np.maximum(nodes.degree, 1.0)
    step_number = state.step + 1
    probs = _gate(config.case, nodes.lmi, step_number, nodes.rebate_bin)
    draws = rng.random(nodes.n)
    u = _utility(nodes.benefit, county_rate, neighbor_rate, config.weights)
    newly = (~adopted) & (draws < probs) & (u > nodes.thresholds)
    return DiffusionState(step=step_number, adopted=adopted | newly, nodes=nodes)


@dataclass
class SimulationResult:
    config: DiffusionConfig
    timelines: list
    rows: list


def simulate(
    pop: HouseholdTable,
    graph: Graph,
    config: DiffusionConfig,
    initial_adopters,
    benefit_values,
    annual_kwh=None,
) -> SimulationResult:
    """Run config.iterations contagion runs of config.time_steps steps each.

    initial_adopters holds node indices (row positions) adopted at step 0.
    rows holds the plot-ready timeline averaged over iterations: one row per
    step with totals split by (lmi, rural).
    """
    nodes = build_nodes(pop, graph, config, benefit_values, annual_kwh)
    chosen = np.asarray(initial_adopters, dtype=np.int64)
    outside = (chosen < 0) | (chosen >= nodes.n)
    if outside.any():
        raise ValueError(f"initial adopter index {chosen[outside.argmax()]} out of range")
    initial = np.zeros(nodes.n, dtype=bool)
    initial[chosen] = True
    timelines = []
    for iteration in range(config.iterations):
        rng = rng_for(config.seed, "diffusion", config.case, iteration)
        states = [DiffusionState(step=0, adopted=initial.copy(), nodes=nodes)]
        for _ in range(config.time_steps):
            states.append(step(states[-1], graph, config, rng))
        timelines.append(states)
    # (iterations, steps + 1, n): integer counts per run, then their mean
    adopted = np.array([[state.adopted for state in timeline] for timeline in timelines])
    groups = {
        "total_adopters": np.ones(nodes.n, dtype=bool),
        "lmi_rural": nodes.lmi & nodes.rural,
        "lmi_urban": nodes.lmi & ~nodes.rural,
        "nonlmi_rural": ~nodes.lmi & nodes.rural,
        "nonlmi_urban": ~nodes.lmi & ~nodes.rural,
    }
    means = {
        name: np.count_nonzero(adopted & mask, axis=2).mean(axis=0).tolist()
        for name, mask in groups.items()
    }
    rows = [
        {"case": config.case, "step": t, **{name: mean[t] for name, mean in means.items()}}
        for t in range(config.time_steps + 1)
    ]
    return SimulationResult(config=config, timelines=timelines, rows=rows)


def _format_count(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def save_timeline(results, path):
    """Write adoption_timeline.csv for one or more simulation results."""
    if isinstance(results, SimulationResult):
        results = [results]
    counts = ("total_adopters", "lmi_rural", "lmi_urban", "nonlmi_rural", "nonlmi_urban")
    rows = [row for result in results for row in result.rows]
    write_csv(
        path,
        ["case", "step", *counts],
        [[str(row[c]) for row in rows] for c in ("case", "step")]
        + [[_format_count(row[c]) for row in rows] for c in counts],
    )
