"""Class-imbalance correction and categorical association diagnostics.

SMOTEN balances nominal-feature datasets by synthesizing minority rows as
the per-feature mode of a random seed row's nearest minority neighbors
under Hamming distance.  Cramér's V quantifies pairwise association so the
balanced data can be checked for distributional drift.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .records import FEATURE_DOMAINS, FEATURE_NAMES, HouseholdTable
from .seeds import rng_for


@dataclass
class LabeledDataset:
    """Integer feature matrix with one class label per row.

    X is (n, d) of small integer codes, y is (n,) of class indices, and
    domains lists the valid codes of each feature column.
    """

    X: np.ndarray
    y: np.ndarray
    domains: tuple = field(default=())

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.int64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y length must match X row count")
        if not self.domains:
            self.domains = tuple(
                tuple(np.unique(self.X[:, j]).tolist()) for j in range(self.X.shape[1])
            )
        if len(self.domains) != self.X.shape[1]:
            raise ValueError("one domain per feature column required")
        for j, domain in enumerate(self.domains):
            bad = set(np.unique(self.X[:, j]).tolist()) - set(domain)
            if bad:
                raise ValueError(f"column {j} has codes outside domain: {sorted(bad)}")

    def __len__(self):
        return self.X.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, LabeledDataset)
            and np.array_equal(self.X, other.X)
            and np.array_equal(self.y, other.y)
        )

    def class_counts(self) -> dict:
        classes, counts = np.unique(self.y, return_counts=True)
        return {int(c): int(k) for c, k in zip(classes, counts)}


def dataset_from_households(table: HouseholdTable, label: str) -> LabeledDataset:
    """LabeledDataset over the eight feature columns of a household table.

    label selects the target: "solar" (0/1) or "sqft_class".
    """
    if label not in ("solar", "sqft_class"):
        raise ValueError(f"unknown label {label!r}")
    domains = tuple(tuple(FEATURE_DOMAINS[name]) for name in FEATURE_NAMES)
    return LabeledDataset(table.features, table.labels(label).astype(np.int64), domains)


def smoten_oversample(data: LabeledDataset, k: int = 5, seed: int = 0) -> LabeledDataset:
    """Upsample every minority class to the majority count.

    Each synthetic row takes a uniformly chosen minority seed row and sets
    feature j to the mode over the seed's k nearest minority neighbors by
    Hamming distance (the seed itself excluded; neighbor distance ties go to
    the lower row index, mode ties to the lowest code).  Original rows are
    passed through verbatim, synthetics are appended per class in ascending
    class order.

    A class's seed rows are drawn in one call.  The synthetic row is a pure
    function of its seed, so it is computed once per distinct seed, in
    chunks of seeds sized so that the (seeds, rows) distance block stays a
    fixed size and memory grows linearly with the class.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts = data.class_counts()
    if len(counts) < 2:
        raise ValueError("need at least two classes to oversample")
    majority = max(counts.values())
    rng = rng_for(seed, "smoten")
    X_parts = [data.X]
    y_parts = [data.y]
    for cls in sorted(counts):
        deficit = majority - counts[cls]
        if deficit == 0:
            continue
        if counts[cls] <= k:
            raise ValueError(
                f"class {cls} has {counts[cls]} rows, not enough neighbors for "
                f"k={k}; use a smaller k"
            )
        rows = data.X[data.y == cls]
        seeds, inverse = np.unique(rng.integers(0, rows.shape[0], size=deficit), return_inverse=True)
        X_parts.append(_smoten_rows(rows, seeds, k)[inverse])
        y_parts.append(np.full(deficit, cls, dtype=np.int64))
    if len(X_parts) == 1:
        return LabeledDataset(data.X.copy(), data.y.copy(), data.domains)
    return LabeledDataset(np.vstack(X_parts), np.concatenate(y_parts), data.domains)


# (seed, row) distances held at once; small enough to stay in cache
_SMOTEN_PAIRS = 1 << 16


def _smoten_rows(rows: np.ndarray, seeds: np.ndarray, k: int) -> np.ndarray:
    """The SMOTEN row of each seed index: per-feature mode of its k nearest.

    The k nearest are the k smallest keys ``distance * m + row``, which are
    unique, so (distance, row index) order picks them; their order does not
    matter to the mode.
    """
    m, F = rows.shape
    columns = np.ascontiguousarray(rows.T)
    index = np.arange(m)
    out = np.empty((seeds.size, F), dtype=np.int64)
    chunk = max(1, _SMOTEN_PAIRS // m)
    differs = np.empty((min(chunk, seeds.size), m), dtype=bool)
    for start in range(0, seeds.size, chunk):
        block = seeds[start:start + chunk]
        dist = np.zeros((block.size, m), dtype=np.min_scalar_type(F + 1))
        for column in columns:
            dist += np.not_equal(column, column[block, None], out=differs[:block.size])
        dist[np.arange(block.size), block] = F + 1  # a row is not its own neighbor
        key = dist * np.int64(m) + index
        near = rows[np.argpartition(key, k - 1, axis=1)[:, :k]]  # (b, k, F)
        # how often each neighbor's code occurs among the k; the mode is the
        # lowest code of highest count
        freq = np.count_nonzero(near[:, :, None, :] == near[:, None, :, :], axis=2)
        top = freq == freq.max(axis=1, keepdims=True)
        out[start:start + chunk] = np.where(top, near, np.iinfo(np.int64).max).min(axis=1)
    return out


def cramers_v(col_a, col_b) -> float:
    """Cramér's V association between two code vectors, in [0, 1].

    V = sqrt(chi2 / (n * min(r-1, c-1))); degenerate tables (a constant
    column) return 0.
    """
    a = np.asarray(col_a)
    b = np.asarray(col_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("columns must be 1-d and of equal length")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 observations")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    r = int(ai.max()) + 1
    c = int(bi.max()) + 1
    if min(r - 1, c - 1) == 0:
        return 0.0
    observed = np.bincount(ai * c + bi, minlength=r * c).reshape(r, c).astype(float)
    expected = observed.sum(axis=1, keepdims=True) * observed.sum(axis=0) / n
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)
    chi2 = float(terms.sum())
    v = math.sqrt(max(0.0, chi2 / (n * min(r - 1, c - 1))))
    return min(1.0, v)


def correlation_matrix(data: LabeledDataset, include_label: bool = False) -> np.ndarray:
    """Pairwise Cramér's V over feature columns (label appended on request)."""
    if len(data) == 0:
        raise ValueError("empty dataset")
    columns = [data.X[:, j] for j in range(data.X.shape[1])]
    if include_label:
        columns.append(data.y)
    d = len(columns)
    matrix = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            v = cramers_v(columns[i], columns[j])
            matrix[i, j] = v
            matrix[j, i] = v
    return matrix
