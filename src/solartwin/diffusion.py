"""Progressive-threshold contagion over the household network.

Adoption is irreversible: each step, a non-adopter first passes a Bernoulli
gate with its policy-dependent node probability, then adopts if its utility
u = w1*benefit + w2*county_rate + w3*neighbor_rate strictly exceeds its
barrier threshold.  Updates are synchronous; county and neighbor rates come
from the state at the start of the step, and every node draws from a
per-step vector of uniforms indexed by node id, so results are independent
of evaluation order.  Those rates come from integer counts that each step
updates from its new adopters alone.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

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
# the (lmi, rural) split of the timeline rows
QUADRANTS = ("lmi_rural", "lmi_urban", "nonlmi_rural", "nonlmi_urban")


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
        # each check also fails NaN and inf
        if not (0 < self.cost_per_watt < math.inf and 0 < self.capacity_factor < math.inf):
            raise ValueError("cost_per_watt and capacity_factor must be > 0")
        if not (0 <= self.credit_rate < math.inf and 0 <= self.lmi_extra_credit < math.inf):
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


def _utility(p, c, n, w):
    """u = w1*p + w2*c + w3*n, a convex combination of rates in [0, 1]."""
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


def rebate_value(annual_kwh, cost_per_watt: float, credit_rate, capacity_factor: float):
    """Dollar rebate: credit on the install cost of a system sized to the
    household's annual generation at the given capacity factor.

    annual_kwh and credit_rate may be per-household arrays.  A household
    that generates nothing gets a rebate of 0; a negative or NaN annual_kwh,
    or a rebate too large for a float, is an error.  The price, rate and
    capacity factor come from a DiffusionConfig, which checks them.
    """
    kwh = np.asarray(annual_kwh, dtype=float)
    rate = np.asarray(credit_rate, dtype=float)
    if not np.all(kwh >= 0):  # fails NaN
        raise ValueError("annual_kwh must be >= 0")
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        rebate = rate * cost_per_watt * (kwh * 1000.0 / (capacity_factor * HOURS_PER_YEAR))
    bad = ~np.isfinite(rebate)
    if bad.any():
        first = float(np.broadcast_to(kwh, bad.shape)[bad][0])
        raise ValueError(f"annual_kwh {first!r} gives a rebate that is not finite")
    return rebate


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
    """Per-node inputs that every policy case shares, except rebate_bin,
    which case_nodes sets for cases 4 and 5.

    The degree[i] neighbours of node i are indices[indptr[i]:indptr[i + 1]]:
    both directions of every graph edge in CSR layout.  degree_floor is
    max(degree, 1), the divisor of each node's neighbour rate.
    """

    thresholds: np.ndarray
    benefit: np.ndarray
    county_index: np.ndarray
    county_size: np.ndarray
    lmi: np.ndarray
    rural: np.ndarray
    degree: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    degree_floor: np.ndarray
    rebate_bin: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.thresholds.size


def _adopter_counts(nodes: NodeData, adopters) -> tuple:
    """What the nodes at indices adopters add to each node's count of
    adopting neighbours and to each county's adopter count, as int64."""
    lengths = nodes.degree[adopters]
    # the CSR positions of every listed node's neighbours, row after row
    positions = (nodes.indptr[adopters] - lengths.cumsum() + lengths).repeat(lengths)
    positions += np.arange(positions.size)
    return (
        np.bincount(nodes.indices[positions], minlength=nodes.n),
        np.bincount(nodes.county_index[adopters], minlength=nodes.county_size.size),
    )


@dataclass
class DiffusionState:
    """Adopter set after `step` synchronous updates, with the int64 counts
    step carries forward: adopting neighbours per node (neighbor_count) and
    adopters per county (county_count)."""

    step: int
    adopted: np.ndarray
    nodes: NodeData = field(repr=False)
    neighbor_count: np.ndarray = field(repr=False)
    county_count: np.ndarray = field(repr=False)

    @classmethod
    def start(cls, nodes: NodeData, adopted) -> "DiffusionState":
        """The step-0 state of an adopted mask, its counts derived from it."""
        adopted = np.asarray(adopted, dtype=bool)
        return cls(0, adopted, nodes, *_adopter_counts(nodes, np.flatnonzero(adopted)))


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


def build_nodes(pop: HouseholdTable, graph: Graph, benefit_values) -> NodeData:
    """Assemble the node arrays every policy case shares; node i is row i of
    the table.  benefit_values are raw per-household daily generation
    figures, normalized here.
    """
    n = len(pop)
    if graph.node_count != n:
        raise ValueError(
            f"graph has {graph.node_count} nodes but population has {n}"
        )
    lmi = pop.lmi.filled(False)
    benefit = normalize_benefit(benefit_values)
    if benefit.size != n:
        raise ValueError("need one benefit value per household")
    counties, county_index = np.unique(pop.county, return_inverse=True)
    ends = np.concatenate((graph.edge_u, graph.edge_v))
    starts = np.concatenate((graph.edge_v, graph.edge_u))
    degree = np.bincount(ends, minlength=n)
    return NodeData(
        thresholds=threshold_from_barriers(barrier_flags(pop.features, lmi)),
        benefit=benefit,
        county_index=county_index,
        county_size=np.bincount(county_index, minlength=counties.size).astype(float),
        lmi=lmi,
        rural=pop.rural.filled(False),
        degree=degree,
        indptr=np.concatenate(([0], np.cumsum(degree))),
        # any order within a row will do: step only counts a row's entries
        indices=starts[np.argsort(ends)],
        degree_floor=np.maximum(degree, 1.0),
    )


def case_nodes(nodes: NodeData, config: DiffusionConfig, annual_kwh) -> NodeData:
    """The nodes under config's case.  Cases 4 and 5 add each household's
    rebate bin, ranked on its annual_kwh; case 5 uprates the credit rate for
    LMI households by the extra credit before ranking.  Other cases take the
    nodes as they are."""
    if config.case not in ("4", "5"):
        return nodes
    if annual_kwh is None:
        raise ValueError(f"case {config.case} needs annual_kwh per household")
    kwh = np.asarray(annual_kwh, dtype=float)
    if kwh.size != nodes.n:
        raise ValueError("need one annual_kwh value per household")
    rates = np.full(nodes.n, config.credit_rate)
    if config.case == "5":
        rates[nodes.lmi] = config.credit_rate + config.lmi_extra_credit
    rebates = rebate_value(kwh, config.cost_per_watt, rates, config.capacity_factor)
    return replace(nodes, rebate_bin=rebate_bins(rebates))


def step(state: DiffusionState, config: DiffusionConfig, rng) -> DiffusionState:
    """One synchronous update; returns the successor state.

    rng supplies one uniform per node (a single vectorized draw), so the
    outcome does not depend on node evaluation order.  The rates are
    integer counts over max(degree, 1) and county size.  The successor's
    counts are these plus what the step's new adopters add, found from
    their CSR rows alone, so a step costs O(n) plus the new adopters'
    edges.
    """
    nodes = state.nodes
    adopted = state.adopted
    county_rate = (state.county_count / nodes.county_size)[nodes.county_index]
    neighbor_rate = state.neighbor_count / nodes.degree_floor
    step_number = state.step + 1
    probs = _gate(config.case, nodes.lmi, step_number, nodes.rebate_bin)
    draws = rng.random(nodes.n)
    u = _utility(nodes.benefit, county_rate, neighbor_rate, config.weights)
    newly = (~adopted) & (draws < probs) & (u > nodes.thresholds)
    new_neighbors, new_county = _adopter_counts(nodes, newly.nonzero()[0])
    return DiffusionState(
        step=step_number,
        adopted=adopted | newly,
        nodes=nodes,
        neighbor_count=state.neighbor_count + new_neighbors,
        county_count=state.county_count + new_county,
    )


def simulate(nodes: NodeData, config: DiffusionConfig, initial_adopters, annual_kwh=None) -> list:
    """Run config.iterations contagion runs of config.time_steps steps each.

    initial_adopters holds node indices (row positions) adopted at step 0;
    annual_kwh ranks the rebates of cases 4 and 5 (see case_nodes).  Returns
    the plot-ready timeline: one row per step with the adopter total and its
    (lmi, rural) split, averaged over iterations.
    """
    nodes = case_nodes(nodes, config, annual_kwh)
    chosen = np.asarray(initial_adopters, dtype=np.int64)
    outside = (chosen < 0) | (chosen >= nodes.n)
    if outside.any():
        raise ValueError(f"initial adopter index {chosen[outside.argmax()]} out of range")
    initial = np.zeros(nodes.n, dtype=bool)
    initial[chosen] = True
    start = DiffusionState.start(nodes, initial)
    steps = config.time_steps + 1
    # one code per (step, quadrant), so one bincount folds a run's states
    # into its integer counts; the runs' counts are then averaged.  A
    # node's quadrant is its position in QUADRANTS.
    quadrant = 2 * ~nodes.lmi + ~nodes.rural
    codes = np.arange(steps)[:, None] * len(QUADRANTS) + quadrant
    counts = np.empty((config.iterations, steps * len(QUADRANTS)), dtype=np.int64)
    for iteration in range(config.iterations):
        rng = rng_for(config.seed, "diffusion", config.case, iteration)
        state = start
        run = [state.adopted]
        for _ in range(config.time_steps):
            state = step(state, config, rng)
            run.append(state.adopted)
        counts[iteration] = np.bincount(codes[np.array(run)], minlength=counts.shape[1])
    counts = counts.reshape(config.iterations, steps, len(QUADRANTS))
    means = {
        "total_adopters": counts.sum(axis=2).mean(axis=0).tolist(),
        **dict(zip(QUADRANTS, counts.mean(axis=0).T.tolist())),
    }
    return [
        {"case": config.case, "step": t, **{name: mean[t] for name, mean in means.items()}}
        for t in range(steps)
    ]


def _format_count(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def save_timeline(rows, path):
    """Write adoption_timeline.csv from the rows of one or more simulate calls."""
    counts = ("total_adopters", *QUADRANTS)
    write_csv(
        path,
        ["case", "step", *counts],
        [[str(row[c]) for row in rows] for c in ("case", "step")]
        + [[_format_count(row[c]) for row in rows] for c in counts],
    )
