"""Newton-boosted decision trees with a false-positive-weighted log loss.

The binary objective is -(1/T) * sum(y*ln(p) + beta*(1-y)*ln(1-p)): beta
scales the penalty on negatives, so beta > 1 suppresses false positives and
beta < 1 tolerates them.  Each node's split is found from exact
gradient/hessian histograms over the integer feature codes, treated as
ordinal (split "code <= c"): the highest gain wins, ties go to the first
feature and then the lowest code, and a split must gain more than 1e-12.
Leaf values are second-order (Newton) steps; training updates its margins
from the leaf values after each round.

One training fits one binary target per class (label == class) and grows
each round's trees of all its targets in lockstep, one level at a time:
one bincount each for g, h and the row count covers every (target, node)
pair of the level, so a histogram's fixed cost is paid once per level, not
once per node.  Each node's rows stay contiguous and in ascending order,
and its keys are shifted into a block of F * C bins of its own, so every
bin still adds its node's rows in row order, and each target's trees are
bit for bit the ones it grows alone.  Targets go in groups of at most
GROUP_CELLS (target, row, feature) cells, which bounds each level's
buffers.  A one-vs-rest booster labels multi-class data this way, voting
with the training class frequencies.
"""

import math
from dataclasses import dataclass

import numpy as np

from .preprocess import LabeledDataset

PROB_EPS = 1e-12
# Most (target, row, feature) cells that one lockstep group holds.  Each
# costs about 32 bytes (its root key, its key at the current level, and its
# g and h weights), so a group's buffers stay near 16 MB.
GROUP_CELLS = 1 << 19
MODEL_FORMAT = "solartwin-gbt"
MODEL_VERSION = 1


@dataclass(frozen=True)
class LossParams:
    """Loss weight beta on the negative class."""

    beta: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")


@dataclass(frozen=True)
class GbtParams:
    rounds: int = 100
    depth: int = 3
    learning_rate: float = 0.3
    reg_lambda: float = 1.0
    min_child_hess: float = 1e-3

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        # each check also fails NaN and inf
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be > 0")
        if not 0 <= self.reg_lambda < math.inf:
            raise ValueError("reg_lambda must be >= 0")
        if not 0 <= self.min_child_hess < math.inf:
            raise ValueError("min_child_hess must be finite and >= 0")


@dataclass
class TreeNode:
    """Split node (feature >= 0) or leaf (feature == -1)."""

    feature: int = -1
    code: int = 0
    left: int = -1
    right: int = -1
    value: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class GbtModel:
    """Boosted-tree classifier, one binary target per class: probability =
    sigmoid(margin).  The trees are stored round-major: tree t belongs to
    class t % len(classes)."""

    trees: list
    learning_rate: float
    base_score: float
    beta: float
    domains: tuple
    classes: tuple = (1,)

    def margin(self, X: np.ndarray) -> np.ndarray:
        """Each row's margin: (n,) for one class, (len(classes), n) for more."""
        n_classes = len(self.classes)
        total = np.full((n_classes, X.shape[0]), self.base_score)
        for t, nodes in enumerate(self.trees):
            total[t % n_classes] += self.learning_rate * _tree_apply(nodes, X)
        return total[0] if n_classes == 1 else total


def weighted_log_loss(y, p, beta: float) -> float:
    """Mean weighted binary log loss; p is clamped into [1e-12, 1-1e-12]."""
    y_arr = np.asarray(y, dtype=float)
    p_arr = np.clip(np.asarray(p, dtype=float), PROB_EPS, 1.0 - PROB_EPS)
    if y_arr.shape != p_arr.shape:
        raise ValueError("y and p must have the same length")
    terms = y_arr * np.log(p_arr) + beta * (1.0 - y_arr) * np.log1p(-p_arr)
    return float(-np.mean(terms))


def loss_grad_hess(y, p, beta: float):
    """Gradient and hessian of the weighted log loss w.r.t. the logit.

    grad = p*(y + beta*(1-y)) - y, hess = p*(1-p)*(y + beta*(1-y)),
    elementwise as arrays (0-d for scalar inputs).
    """
    y_arr = np.asarray(y, dtype=float)
    p_arr = np.asarray(p, dtype=float)
    w = y_arr + beta * (1.0 - y_arr)
    grad = p_arr * w - y_arr
    hess = p_arr * (1.0 - p_arr) * w
    return grad, hess


def _tree_apply(nodes, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0])
    _apply_node(nodes, 0, X, np.arange(X.shape[0]), out)
    return out


def _apply_node(nodes, nid, X, rows, out):
    node = nodes[nid]
    if node.is_leaf:
        out[rows] = node.value
        return
    mask = X[rows, node.feature] <= node.code
    _apply_node(nodes, node.left, X, rows[mask], out)
    _apply_node(nodes, node.right, X, rows[~mask], out)


def _histogram_keys(X: np.ndarray):
    """Histogram bin of every (row, feature) cell, and the code of each rank.

    Codes are ranked among the distinct values of X, so bin j * C + r holds
    rank r of feature j (C = number of distinct codes): one bincount of a
    node's keys reshapes to the (F, C) histograms of all features.  Ranking
    drops empty codes only, which leaves every prefix sum unchanged.
    """
    codes = np.unique(X)
    ranks = np.searchsorted(codes, X)
    return ranks + np.arange(X.shape[1]) * codes.size, codes


def _leaf_values(g_sum, h_sum, lam):
    """Newton step -G / (H + lambda) of each node."""
    den = h_sum + lam
    if not den.all():  # lambda = 0 with a zero hessian sum
        raise ZeroDivisionError("float division by zero")
    return -g_sum / den


def _new_node() -> list:
    """A node under construction: [feature, code, left, right, value]."""
    return [-1, 0, None, None, 0.0]


def _preorder(node, nodes) -> list:
    """Append node's subtree to nodes as TreeNodes, numbered in preorder."""
    feature, code, left, right, value = node
    if feature < 0:
        nodes.append(TreeNode(value=value))
        return nodes
    split = TreeNode(feature, code, len(nodes) + 1)
    nodes.append(split)
    _preorder(left, nodes)
    split.right = len(nodes)
    _preorder(right, nodes)
    return nodes


class _Lockstep:
    """Grows one round's trees of several binary targets together, level by
    level.

    A level's elements are the (target, row) pairs of its nodes, node by
    node, each node's rows in ascending order.  Node i's keys are shifted
    into bins i * F * C onwards, so one bincount per statistic covers every
    node of the level, and each bin still sums its node's rows in row
    order, exactly as a bincount over that node alone does.  The buffers
    are allocated once per training.
    """

    def __init__(self, keys, codes, n_targets, params):
        n, n_features = keys.shape
        self.codes, self.params = codes, params
        self.n, self.hist = n, (n_features, codes.size)
        self.width = n_features * codes.size
        # a tree over no features is a single leaf
        self.levels = params.depth if n_features else 0
        # element t * n + i is row i of target t, its keys shifted into target t's bins
        offsets = np.arange(n_targets) * self.width
        self.root_keys = (keys + offsets[:, None, None]).reshape(n_targets * n, n_features)
        # the root counts are the same for every target and round
        counts = np.bincount(keys.ravel(), minlength=self.width).reshape(self.hist).cumsum(axis=1)
        self.root_counts = np.broadcast_to(counts, (n_targets,) + self.hist)
        self.key_buf = np.empty(self.root_keys.size, dtype=np.int64)
        self.gh_buf = np.empty((2, n_targets * n))
        self.cell_starts = np.arange(0, self.root_keys.size, max(n_features, 1))

    def grow(self, G, H, leaf):
        """One tree per target from its row of gradients G and hessians H;
        writes each (target, row)'s leaf value into leaf."""
        n_targets = G.shape[0]
        G_flat, H_flat, leaf_flat = G.ravel(), H.ravel(), leaf.ravel()
        roots = [_new_node() for _ in range(n_targets)]
        level = roots
        counts = np.full(n_targets, self.n)
        targets = np.arange(n_targets)
        # each element's (target, row) position in G, node by node
        pos = np.arange(G.size)
        keys, cl = self.root_keys.ravel(), self.root_counts
        gv, hv = G_flat, H_flat
        g_sum, h_sum = G.sum(axis=1), H.sum(axis=1)
        for depth in range(self.levels + 1):
            value = _leaf_values(g_sum, h_sum, self.params.reg_lambda)
            for node, v in zip(level, value.tolist()):
                node[4] = v  # a split node ignores it
            if depth == self.levels:
                leaf_flat[pos] = np.repeat(value, counts)
                break
            k, split = self._best(keys, gv, hv, cl, g_sum, h_sum, counts)
            if not split.all():
                leaf_flat[pos] = np.repeat(value, counts)
            if not split.any():
                break
            feature, rank = np.divmod(k, self.codes.size)
            n_left = cl[np.arange(counts.size), feature, rank]
            goes_left = keys[self.cell_starts[: pos.size] + np.repeat(feature, counts)] <= np.repeat(
                np.arange(counts.size) * self.width + k, counts
            )
            keep = np.repeat(split, counts)
            lefts, rights = pos[keep & goes_left], pos[keep & ~goes_left]
            pos = np.concatenate((lefts, rights))
            parents = np.flatnonzero(split)
            codes = self.codes[rank[parents]].tolist()
            for i, f, c in zip(parents.tolist(), feature[parents].tolist(), codes):
                level[i][:4] = f, c, _new_node(), _new_node()
            level = [level[i][2] for i in parents] + [level[i][3] for i in parents]
            counts = np.concatenate((n_left[split], (counts - n_left)[split]))
            targets = np.concatenate((targets[split], targets[split]))
            gh = self.gh_buf[:, : pos.size]
            np.take(G_flat, pos, out=gh[0])
            np.take(H_flat, pos, out=gh[1])
            gv, hv = gh
            # each node's pairwise sum over its own contiguous slice
            ends = np.cumsum(counts).tolist()
            sums = np.array([gh[:, a:b].sum(axis=1) for a, b in zip([0] + ends[:-1], ends)])
            g_sum, h_sum = sums[:, 0], sums[:, 1]
            if depth + 1 < self.levels:
                keys, cl = self._level_keys(pos, counts, targets, lefts.size, cl[split])
        return [_preorder(root, []) for root in roots]

    def _level_keys(self, pos, counts, targets, n_left, parent_counts):
        """Shifted keys of a level below the root, and its prefix counts.

        The root's keys sit in their target's bins; node i's move to bins
        i * F * C onwards.  The left children come first; a right child's
        counts are its parent's minus its left sibling's, which is exact
        for integers.
        """
        n_features = self.hist[0]
        keys = self.key_buf[: pos.size * n_features]
        np.take(self.root_keys, pos, axis=0, out=keys.reshape(pos.size, n_features))
        keys += np.repeat((np.arange(counts.size) - targets) * self.width, counts * n_features)
        n_pairs = parent_counts.shape[0]
        left = np.bincount(keys[: n_left * n_features], minlength=n_pairs * self.width)
        left = left.reshape((n_pairs,) + self.hist).cumsum(axis=2)
        return keys, np.concatenate((left, parent_counts - left))

    def _best(self, keys, gv, hv, cl, g_sum, h_sum, counts):
        """Each node's best split from its (F, C) prefix histograms: its flat
        argmax k = feature * C + rank, and whether it gains more than 1e-12.

        g and h are repeated per feature in row-major order, as the keys
        are.  The row-major argmax breaks ties to the first feature, then
        the lowest code.  A NaN gain (0/0 at lambda = 0) voids every split
        of its feature; argmax lands on a NaN whenever one exists, so
        voiding them all up front picks the same split.
        """
        n_features = self.hist[0]
        lam, min_child_hess = self.params.reg_lambda, self.params.min_child_hess
        size = counts.size * self.width
        shape = (counts.size,) + self.hist
        gl = np.bincount(keys, np.repeat(gv, n_features), size).reshape(shape).cumsum(axis=2)
        hl = np.bincount(keys, np.repeat(hv, n_features), size).reshape(shape).cumsum(axis=2)
        g_sum = g_sum[:, None, None]
        h_sum = h_sum[:, None, None]
        gr = g_sum - gl
        hr = h_sum - hl
        valid = (cl > 0) & (cl < counts[:, None, None])
        valid &= (hl >= min_child_hess) & (hr >= min_child_hess)
        gains = np.where(
            valid,
            gl * gl / (hl + lam) + gr * gr / (hr + lam) - g_sum * g_sum / (h_sum + lam),
            -np.inf,
        )
        gains[np.isnan(gains).any(axis=2)] = -np.inf
        gains = gains.reshape(counts.size, -1)
        k = np.argmax(gains, axis=1)
        return k, gains[np.arange(k.size), k] > 1e-12


def train_gbt(data: LabeledDataset, params: GbtParams, loss: LossParams, classes=(1,)) -> GbtModel:
    """Fit Newton-boosted trees, one binary target per class: label == class.

    Training is exact and deterministic: it draws no random numbers.  The
    targets grow in lockstep, in groups of at most GROUP_CELLS (target,
    row, feature) cells; each target's trees are the ones it would grow
    alone.

    Parameters
    ----------
    data : LabeledDataset
        Integer feature codes (all >= 0); labels in {0} and ``classes``,
        and every target must hold both of its classes.
    params : GbtParams
        rounds/depth/learning_rate plus leaf regularization.
    loss : LossParams
        beta enters the gradient statistics.
    classes : tuple
        The positive class of each target; the model stores its trees
        round-major, one per class per round.
    """
    y = data.y
    labels = set(np.unique(y).tolist())
    allowed = sorted({0, *classes})
    if not labels <= set(allowed):
        raise ValueError(
            "labels must be in {" + ", ".join(map(str, allowed)) + f"}}, got {sorted(labels)}"
        )
    Y = np.equal.outer(classes, y).astype(float)
    positives = Y.sum(axis=1)
    if not np.all((positives > 0) & (positives < y.size)):
        raise ValueError("training data contains a single class")
    X = data.X
    if X.size and X.min() < 0:
        raise ValueError("feature codes must be non-negative")
    keys, codes = _histogram_keys(X)
    group = max(1, GROUP_CELLS // max(1, X.size))
    trees = [None] * (params.rounds * len(classes))
    for start in range(0, len(classes), group):
        targets = Y[start : start + group]
        grower = _Lockstep(keys, codes, len(targets), params)
        margins = np.zeros(targets.shape)
        leaf = np.empty(targets.shape)
        for r in range(params.rounds):
            grad, hess = loss_grad_hess(targets, _sigmoid(margins), loss.beta)
            first = r * len(classes) + start
            trees[first : first + len(targets)] = grower.grow(grad, hess, leaf)
            margins += params.learning_rate * leaf
    return GbtModel(
        trees=trees,
        learning_rate=params.learning_rate,
        base_score=0.0,
        beta=loss.beta,
        domains=data.domains,
        classes=tuple(classes),
    )


def _sigmoid(m: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-m)) elementwise, in one new array."""
    p = np.negative(m)
    # an overflowing exp gives inf and so exactly 0, which is what scipy's
    # expit gives
    with np.errstate(over="ignore"):
        np.exp(p, out=p)
    p += 1.0
    return np.divide(1.0, p, out=p)


def _check_domains(model: GbtModel, X: np.ndarray):
    for j, domain in enumerate(model.domains):
        bad = ~np.isin(X[:, j], np.asarray(domain))
        if bad.any():
            code = int(X[:, j][bad][0])
            raise ValueError(f"feature {j} code {code} outside training domain")


def predict_proba(model: GbtModel, X) -> np.ndarray:
    """Positive-class probability of each row of a feature matrix: (n,) for
    a one-class model, a C-contiguous (n, len(classes)) matrix for more."""
    X = np.asarray(X, dtype=np.int64)
    if X.ndim != 2:
        raise ValueError(f"expected a feature matrix, got shape {X.shape}")
    if X.shape[1] != len(model.domains):
        raise ValueError(
            f"expected {len(model.domains)} features, got {X.shape[1]}"
        )
    _check_domains(model, X)
    p = _sigmoid(model.margin(X))
    return p if p.ndim == 1 else np.ascontiguousarray(p.T)


def apply_threshold(p, tau: float) -> np.ndarray:
    """Decision rule: 1 iff p >= tau, elementwise (0-d for a scalar p)."""
    return (np.asarray(p, dtype=float) >= tau).astype(np.int64)


def _vote(probs: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Per row, the boosters' top class if it is the majority class, else argmax(probs + freqs)."""
    top = np.argmax(probs, axis=1)
    return np.where(top == np.argmax(freqs), top, np.argmax(probs + freqs, axis=1))


@dataclass
class OvrModel:
    """One-vs-rest booster over the observed class set, with the class
    frequencies of its training labels."""

    model: GbtModel
    freqs: np.ndarray

    @property
    def classes(self) -> tuple:
        return self.model.classes

    def predict_probs(self, X: np.ndarray) -> np.ndarray:
        """(n, len(classes)) matrix of normalized per-class probabilities."""
        raw = predict_proba(self.model, X)
        total = raw.sum(axis=1, keepdims=True)
        if not np.all(total > 0):
            row = int(np.argmin(total > 0))
            raise ValueError(
                f"feature row {row}: no one-vs-rest member gives it a positive probability"
            )
        return raw / total

    def predict_labels(self, X: np.ndarray) -> np.ndarray:
        """Class label of each row, voted by the boosters and a member that
        always predicts the training class frequencies."""
        return np.asarray(self.classes)[_vote(self.predict_probs(X), self.freqs)]


def train_ovr(data: LabeledDataset, params: GbtParams) -> OvrModel:
    """One binary target per observed class (beta = 1 for each), trained
    together by one train_gbt call."""
    classes, counts = np.unique(data.y, return_counts=True)
    if classes.size < 2:
        raise ValueError("training data contains a single class")
    model = train_gbt(data, params, LossParams(1.0), tuple(classes.tolist()))
    return OvrModel(model, counts / counts.sum())


def save_model(model: GbtModel, path):
    """Write the versioned text format; floats are written with repr, so
    every value is exact.  The format holds one class."""
    if len(model.classes) != 1:
        raise ValueError(f"model.txt holds one class, got {len(model.classes)}")
    lines = [f"{MODEL_FORMAT} {MODEL_VERSION}"]
    lines.append(f"base_score {model.base_score!r}")
    lines.append(f"learning_rate {model.learning_rate!r}")
    lines.append(f"beta {model.beta!r}")
    lines.append(f"features {len(model.domains)}")
    for j, domain in enumerate(model.domains):
        lines.append("domain " + " ".join(str(c) for c in (j,) + tuple(domain)))
    lines.append(f"trees {len(model.trees)}")
    for t, nodes in enumerate(model.trees):
        lines.append(f"tree {t} {len(nodes)}")
        for node in nodes:
            if node.is_leaf:
                lines.append(f"leaf {node.value!r}")
            else:
                lines.append(f"split {node.feature} {node.code} {node.left} {node.right}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
