"""Square-footage point estimation from a predicted class range.

A class range is split into k equal-width sub-intervals weighted by how
often survey values land in each.  The estimate draws M sub-intervals with
replacement by weight, L uniform values from each, and returns the mean of
all M*L draws, so it always lies inside the class range.  Each household's
M + M*L draws are one row of doubles, so many households are estimated in
one batched call on a block of rows.
"""

from dataclasses import dataclass

import numpy as np

from .seeds import choose, rng_for


@dataclass(frozen=True)
class SubclassWeights:
    """Equal-width sub-intervals of one class range with normalized weights."""

    class_range: tuple
    edges: tuple
    weights: tuple

    def __post_init__(self):
        low, high = self.class_range
        if not low < high:
            raise ValueError(f"class range {self.class_range} must be increasing")
        edges = np.asarray(self.edges, dtype=float)
        if edges.size < 2 or not np.all(np.diff(edges) >= 0):  # fails NaN
            raise ValueError("edges must be ascending")
        if edges[0] != low or edges[-1] != high:
            raise ValueError("edges must span the class range exactly")
        weights = np.asarray(self.weights, dtype=float)
        if weights.size != edges.size - 1:
            raise ValueError("need one weight per sub-interval")
        if not np.all(weights >= 0) or abs(float(weights.sum()) - 1.0) > 1e-9:  # fails NaN
            raise ValueError("weights must be non-negative and sum to 1")

    @property
    def k(self) -> int:
        return len(self.weights)


def subclass_weights(survey, class_range, k: int = 5) -> SubclassWeights:
    """Frequency weights of k equal-width sub-intervals of a class range.

    Counts survey values in [low, high) per sub-interval (internal edges are
    left-closed).  With no survey mass in range, the weights are equal.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    low, high = class_range
    if not low < high:
        raise ValueError(f"class range {class_range} must be increasing")
    edges = np.linspace(low, high, k + 1)
    values = np.asarray(list(survey), dtype=float)
    values = values[(values >= low) & (values < high)]
    if values.size == 0:
        weights = np.full(k, 1.0 / k)
    else:
        idx = np.searchsorted(edges, values, side="right") - 1
        counts = np.bincount(idx, minlength=k).astype(float)
        weights = counts / counts.sum()
    return SubclassWeights(
        class_range=(float(low), float(high)),
        edges=tuple(float(e) for e in edges),
        weights=tuple(float(w) for w in weights),
    )


def estimate_sqft(w: SubclassWeights, M: int = 10, L: int = 10, seed=0):
    """Mean of M weighted sub-interval draws times L uniform draws each.

    seed may be an integer or a numpy Generator, giving one float (callers
    running many households derive one stream per household), or an
    (H, M + M*L) block of uniform doubles, one household's stream per row,
    giving an (H,) array.  A stream's first M doubles pick sub-intervals as
    ``Generator.choice(k, M, p=weights)`` does, and its next M*L place the
    L draws inside each pick, so a block row gives what its Generator would.
    """
    if M < 1 or L < 1:
        raise ValueError("M and L must be >= 1")
    if isinstance(seed, np.ndarray):
        draws = seed
    else:
        rng = seed if isinstance(seed, np.random.Generator) else rng_for(seed, "sqft-estimate")
        draws = rng.random((1, M + M * L))
    if draws.ndim != 2 or draws.shape[1] != M + M * L:
        raise ValueError(f"draws must have shape (H, {M + M * L}), got {draws.shape}")
    edges = np.asarray(w.edges)
    idx = choose(np.asarray(w.weights), draws[:, :M])
    lows = edges[idx]
    widths = edges[idx + 1] - edges[idx]
    values = lows[..., None] + draws[:, M:].reshape(-1, M, L) * widths[..., None]
    means = values.reshape(-1, M * L).mean(axis=-1)
    return means if isinstance(seed, np.ndarray) else float(means[0])
