"""Newton-boosted decision trees with a false-positive-weighted log loss.

The binary objective is -(1/T) * sum(y*ln(p) + beta*(1-y)*ln(1-p)): beta
scales the penalty on negatives, so beta > 1 suppresses false positives and
beta < 1 tolerates them.  Trees are grown depth-first; each node's split
is found from exact gradient/hessian histograms over the integer feature
codes, treated as ordinal (split "code <= c"): the highest gain wins, ties
go to the first feature and then the lowest code, and a split must gain
more than 1e-12.  Leaf values are second-order (Newton) steps; training
updates its margins from the leaf values as each tree is built.  A
plurality/soft voting combinator and a majority-class baseline member
round out the classifier stack.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .preprocess import LabeledDataset

PROB_EPS = 1e-12
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
    """Boosted-tree binary classifier: probability = sigmoid(margin)."""

    trees: list
    learning_rate: float
    base_score: float
    beta: float
    domains: tuple

    def margin(self, X: np.ndarray) -> np.ndarray:
        total = np.full(X.shape[0], self.base_score)
        for nodes in self.trees:
            total += self.learning_rate * _tree_apply(nodes, X)
        return total


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

    grad = p*(y + beta*(1-y)) - y, hess = p*(1-p)*(y + beta*(1-y)).
    Accepts scalars or arrays elementwise.
    """
    y_arr = np.asarray(y, dtype=float)
    p_arr = np.asarray(p, dtype=float)
    w = y_arr + beta * (1.0 - y_arr)
    grad = p_arr * w - y_arr
    hess = p_arr * (1.0 - p_arr) * w
    if grad.ndim == 0:
        return float(grad), float(hess)
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


def _best_split(node_keys, g_rows, h_rows, g_sum, h_sum, codes, lam, min_child_hess):
    """Best (feature, code) split of one node, or None.

    One weighted bincount each for g and h, and one for the count, over the
    node's keys; g and h are repeated per feature in row-major order, so
    each bin sums its rows in row order.  The row-major argmax over the
    (F, C) gains breaks ties to the first feature, then the lowest code;
    the gain must exceed 1e-12.
    """
    n_rows, n_features = node_keys.shape
    keys = node_keys.ravel()
    shape = (n_features, codes.size)
    size = n_features * codes.size
    gl = np.bincount(keys, np.repeat(g_rows, n_features), size).reshape(shape).cumsum(axis=1)
    hl = np.bincount(keys, np.repeat(h_rows, n_features), size).reshape(shape).cumsum(axis=1)
    cl = np.bincount(keys, minlength=size).reshape(shape).cumsum(axis=1)
    gr = g_sum - gl
    hr = h_sum - hl
    valid = (cl > 0) & (cl < n_rows) & (hl >= min_child_hess) & (hr >= min_child_hess)
    gains = np.where(
        valid,
        gl * gl / (hl + lam) + gr * gr / (hr + lam) - g_sum * g_sum / (h_sum + lam),
        -np.inf,
    )
    k = int(np.argmax(gains))
    if math.isnan(gains.flat[k]):
        # a NaN gain (0/0 at lambda = 0) voids every split of its feature
        gains[np.isnan(gains).any(axis=1)] = -np.inf
        k = int(np.argmax(gains))
    if not gains.flat[k] > 1e-12:
        return None
    f, r = divmod(k, codes.size)
    return f, int(codes[r])


def _build_tree(X, keys, codes, g, h, max_depth, lam, min_child_hess, leaf):
    """Grow one tree in preorder; write each row's leaf value into leaf."""
    nodes = []

    def grow(rows, depth):
        nid = len(nodes)
        nodes.append(None)
        g_rows = g[rows]
        h_rows = h[rows]
        g_sum = float(g_rows.sum())
        h_sum = float(h_rows.sum())
        split = None
        if depth < max_depth and rows.size >= 2 and X.shape[1]:
            split = _best_split(
                keys[rows], g_rows, h_rows, g_sum, h_sum, codes, lam, min_child_hess
            )
        if split is None:
            value = -g_sum / (h_sum + lam)
            nodes[nid] = TreeNode(value=value)
            leaf[rows] = value
            return nid
        f, c = split
        mask = X[rows, f] <= c
        left = grow(rows[mask], depth + 1)
        right = grow(rows[~mask], depth + 1)
        nodes[nid] = TreeNode(feature=f, code=c, left=left, right=right)
        return nid

    grow(np.arange(X.shape[0]), 0)
    return nodes


def train_gbt(
    data: LabeledDataset,
    params: GbtParams | None = None,
    loss: LossParams | None = None,
    seed: int = 0,
) -> GbtModel:
    """Fit Newton-boosted trees on a binary {0,1} labeled dataset.

    Training is exact and deterministic; seed is accepted for signature
    stability but no randomness is consumed.

    Parameters
    ----------
    data : LabeledDataset
        Integer feature codes (all >= 0) with labels in {0, 1}; both classes
        must be present.
    params : GbtParams
        rounds/depth/learning_rate plus leaf regularization.
    loss : LossParams
        beta enters the gradient statistics.
    """
    params = params or GbtParams()
    loss = loss or LossParams()
    y = data.y
    labels = set(np.unique(y).tolist())
    if not labels <= {0, 1}:
        raise ValueError(f"labels must be in {{0, 1}}, got {sorted(labels)}")
    if len(labels) < 2:
        raise ValueError("training data contains a single class")
    X = data.X
    if X.size and X.min() < 0:
        raise ValueError("feature codes must be non-negative")
    base_score = 0.0
    margins = np.full(X.shape[0], base_score)
    y_f = y.astype(float)
    keys, codes = _histogram_keys(X)
    leaf = np.empty(X.shape[0])
    trees = []
    for _ in range(params.rounds):
        p = expit(margins)
        grad, hess = loss_grad_hess(y_f, p, loss.beta)
        trees.append(
            _build_tree(
                X, keys, codes, grad, hess, params.depth, params.reg_lambda,
                params.min_child_hess, leaf,
            )
        )
        margins += params.learning_rate * leaf
    return GbtModel(
        trees=trees,
        learning_rate=params.learning_rate,
        base_score=base_score,
        beta=loss.beta,
        domains=data.domains,
    )


def _check_domains(model: GbtModel, X: np.ndarray):
    for j, domain in enumerate(model.domains):
        bad = ~np.isin(X[:, j], np.asarray(domain))
        if bad.any():
            code = int(X[:, j][bad][0])
            raise ValueError(f"feature {j} code {code} outside training domain")


def predict_proba(model: GbtModel, x):
    """Probability of the positive class for one feature vector or a matrix."""
    arr = np.asarray(x, dtype=np.int64)
    single = arr.ndim == 1
    X = arr[None, :] if single else arr
    if X.shape[1] != len(model.domains):
        raise ValueError(
            f"expected {len(model.domains)} features, got {X.shape[1]}"
        )
    _check_domains(model, X)
    probs = expit(model.margin(X))
    return float(probs[0]) if single else probs


def apply_threshold(p, tau: float):
    """Decision rule: 1 iff p >= tau (elementwise on arrays)."""
    arr = np.asarray(p, dtype=float)
    decisions = (arr >= tau).astype(np.int64)
    if arr.ndim == 0:
        return int(decisions)
    return decisions


def ensemble_votes(class_preds, class_probs) -> np.ndarray:
    """Combine members row by row: plurality when >= 2 agree, else soft vote.

    class_preds is (n, m): each of m members' predicted class index per row;
    class_probs is (n, m, k): the matching probability vectors over a shared
    list of k classes.  A plurality tie between classes that each got >= 2
    votes goes to the tied class with the highest summed probability; pure
    soft-vote ties go to the lowest class index.  Returns n class indices.
    """
    preds = np.asarray(class_preds, dtype=np.int64)
    probs = np.asarray(class_probs, dtype=float)
    if preds.ndim != 2 or preds.shape[1] < 2:
        raise ValueError("need at least two ensemble members")
    if probs.ndim != 3 or probs.shape[:2] != preds.shape:
        raise ValueError("one probability vector per member required")
    if not np.all(np.abs(probs.sum(axis=2) - 1.0) <= 1e-9):
        raise ValueError("member probability vectors must sum to 1")
    if preds.size and not (preds.min() >= 0 and preds.max() < probs.shape[2]):
        raise ValueError("predicted class index outside the probability vectors")
    counts = (preds[:, :, None] == np.arange(probs.shape[2])).sum(axis=1)
    top = counts.max(axis=1)[:, None]
    candidates = (counts == top) | (top < 2)
    summed = probs.sum(axis=1)
    return np.argmax(np.where(candidates, summed, -np.inf), axis=1)


@dataclass
class MajorityBaseline:
    """Trivial ensemble member: constant class-frequency probabilities."""

    freqs: np.ndarray

    @classmethod
    def fit(cls, y, n_classes: int) -> "MajorityBaseline":
        counts = np.bincount(np.asarray(y, dtype=np.int64), minlength=n_classes)
        if counts.sum() == 0:
            raise ValueError("empty training labels")
        return cls(freqs=counts / counts.sum())

    def predict_class(self) -> int:
        return int(np.argmax(self.freqs))

    def predict_probs(self) -> np.ndarray:
        return self.freqs.copy()


@dataclass
class OvrModel:
    """One-vs-rest stack of binary boosters over the observed class set."""

    classes: tuple
    members: list

    def predict_probs(self, X: np.ndarray) -> np.ndarray:
        """(n, len(classes)) matrix of normalized per-class probabilities."""
        raw = np.column_stack([predict_proba(m, X) for m in self.members])
        return raw / raw.sum(axis=1, keepdims=True)

    def predict_class(self, X: np.ndarray) -> np.ndarray:
        probs = self.predict_probs(X)
        picks = np.argmax(probs, axis=1)  # first max ties to the lowest class
        return np.asarray(self.classes)[picks]


def train_ovr(
    data: LabeledDataset, params: GbtParams | None = None, seed: int = 0
) -> OvrModel:
    """One binary booster per observed class (beta = 1 for each)."""
    classes = sorted(set(np.unique(data.y).tolist()))
    if len(classes) < 2:
        raise ValueError("training data contains a single class")
    members = []
    for cls in classes:
        binary = LabeledDataset(
            data.X, (data.y == cls).astype(np.int64), data.domains
        )
        members.append(train_gbt(binary, params, LossParams(1.0), seed))
    return OvrModel(classes=tuple(classes), members=members)


def save_model(model: GbtModel, path):
    """Serialize to the versioned text format (round-trips exactly)."""
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


def load_model(path) -> GbtModel:
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    pos = 0

    def take(prefix):
        nonlocal pos
        if pos >= len(lines) or not lines[pos].startswith(prefix):
            raise ValueError(f"malformed model file at line {pos + 1}: expected {prefix}")
        parts = lines[pos].split()
        pos += 1
        return parts

    header = take(MODEL_FORMAT)
    if int(header[1]) != MODEL_VERSION:
        raise ValueError(f"unsupported model version {header[1]}")
    base_score = float(take("base_score")[1])
    learning_rate = float(take("learning_rate")[1])
    beta = float(take("beta")[1])
    n_features = int(take("features")[1])
    domains = []
    for _ in range(n_features):
        parts = take("domain")
        domains.append(tuple(int(c) for c in parts[2:]))
    n_trees = int(take("trees")[1])
    trees = []
    for _ in range(n_trees):
        head = take("tree")
        n_nodes = int(head[2])
        nodes = []
        for _ in range(n_nodes):
            if pos >= len(lines) or lines[pos].split()[0] not in ("leaf", "split"):
                raise ValueError(f"malformed model file at line {pos + 1}: expected node")
            parts = lines[pos].split()
            pos += 1
            if parts[0] == "leaf":
                nodes.append(TreeNode(value=float(parts[1])))
            else:
                nodes.append(
                    TreeNode(
                        feature=int(parts[1]),
                        code=int(parts[2]),
                        left=int(parts[3]),
                        right=int(parts[4]),
                    )
                )
        trees.append(nodes)
    return GbtModel(
        trees=trees,
        learning_rate=learning_rate,
        base_score=base_score,
        beta=beta,
        domains=tuple(domains),
    )
