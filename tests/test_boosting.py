"""Weighted loss, Newton trees, voting, and the text model format."""

import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from solartwin.boosting import (
    GbtModel,
    GbtParams,
    LossParams,
    TreeNode,
    _tree_apply,
    _vote,
    apply_threshold,
    loss_grad_hess,
    predict_proba,
    save_model,
    train_gbt,
    train_ovr,
    weighted_log_loss,
)
from solartwin.preprocess import LabeledDataset


def test_weighted_log_loss_oracle():
    # -(ln 0.8 + 2 ln 0.7)/2 computed by hand
    v = weighted_log_loss([1, 0], [0.8, 0.3], beta=2.0)
    assert v == pytest.approx(0.4682467195958373, rel=1e-12)


def test_weighted_log_loss_clamps():
    assert np.isfinite(weighted_log_loss([1, 0], [0.0, 1.0], beta=1.0))
    with pytest.raises(ValueError, match="same length"):
        weighted_log_loss([1, 0], [0.5], beta=1.0)


def test_grad_hess_points():
    g, h = loss_grad_hess(0.0, 0.3, beta=2.0)
    assert g == pytest.approx(0.6, rel=1e-12)
    assert h == pytest.approx(0.42, rel=1e-12)
    g, h = loss_grad_hess(1.0, 0.3, beta=2.0)
    assert g == pytest.approx(-0.7, rel=1e-12)
    assert h == pytest.approx(0.21, rel=1e-12)
    # beta drops out entirely on positives
    assert loss_grad_hess(1.0, 0.4, 0.1) == loss_grad_hess(1.0, 0.4, 5.0)


def test_grad_hess_vectorized():
    y = np.array([0.0, 1.0])
    p = np.array([0.3, 0.3])
    g, h = loss_grad_hess(y, p, beta=2.0)
    assert g == pytest.approx([0.6, -0.7])
    assert h == pytest.approx([0.42, 0.21])


def tiny_dataset():
    X = np.array([[0], [0], [1], [1]])
    y = np.array([0, 0, 1, 1])
    return LabeledDataset(X, y, ((0, 1),))


def test_single_round_tree_is_exact():
    # p0 = 0.5 everywhere: g = +-0.5, h = 0.25; split on the only feature,
    # leaves are -sum(g)/(sum(h) + 1) = -+2/3
    model = train_gbt(tiny_dataset(), GbtParams(rounds=1, depth=1), LossParams())
    nodes = model.trees[0]
    root = nodes[0]
    assert not root.is_leaf
    assert root.feature == 0 and root.code == 0
    assert nodes[root.left].value == pytest.approx(-2.0 / 3.0, rel=1e-12)
    assert nodes[root.right].value == pytest.approx(2.0 / 3.0, rel=1e-12)
    p = predict_proba(model, np.array([[0], [1]]))
    assert p[0] == pytest.approx(0.45016600268752216, rel=1e-12)
    assert p[1] == pytest.approx(0.549833997312478, rel=1e-12)


def test_zero_rounds_gives_base_probability():
    model = train_gbt(tiny_dataset(), GbtParams(rounds=0), LossParams())
    assert predict_proba(model, np.array([[0]])).tolist() == [0.5]


def test_training_fits_separable_data():
    rng = np.random.default_rng(0)
    X = rng.integers(0, 4, size=(200, 3))
    y = (X[:, 0] >= 2).astype(int)
    data = LabeledDataset(X, y)
    model = train_gbt(data, GbtParams(rounds=20), LossParams())
    p = predict_proba(model, X)
    assert np.all((p >= 0.5) == (y == 1))


def test_beta_suppresses_positives():
    rng = np.random.default_rng(1)
    X = rng.integers(0, 5, size=(300, 4))
    y = (X[:, 1] + rng.integers(0, 3, size=300) >= 4).astype(int)
    data = LabeledDataset(X, y)
    counts = []
    for beta in (0.2, 1.0, 5.0):
        model = train_gbt(data, GbtParams(rounds=30), LossParams(beta=beta))
        counts.append(int(apply_threshold(predict_proba(model, X), 0.5).sum()))
    assert counts[0] >= counts[1] >= counts[2]
    assert counts[0] > counts[2]


def test_train_input_validation():
    def train(data):
        return train_gbt(data, GbtParams(), LossParams())

    with pytest.raises(ValueError, match="single class"):
        train(LabeledDataset(np.zeros((4, 1), dtype=int), np.ones(4, dtype=int)))
    with pytest.raises(ValueError, match=r"\{0, 1\}"):
        train(LabeledDataset(np.zeros((4, 1), dtype=int), np.array([0, 1, 2, 2])))
    with pytest.raises(ValueError, match="non-negative"):
        train(LabeledDataset(np.array([[-1], [0]]), np.array([0, 1]), ((-1, 0),)))


def test_predict_domain_guard():
    model = train_gbt(tiny_dataset(), GbtParams(rounds=1, depth=1), LossParams())
    with pytest.raises(ValueError, match="feature 0 code 7 outside training domain"):
        predict_proba(model, np.array([[7]]))
    with pytest.raises(ValueError, match="expected 1 features"):
        predict_proba(model, np.array([[0, 1]]))
    with pytest.raises(ValueError, match=r"expected a feature matrix, got shape \(1,\)"):
        predict_proba(model, np.array([0]))


def test_apply_threshold_boundary():
    assert apply_threshold(0.5, 0.5) == 1
    assert apply_threshold(0.5, 0.5).shape == ()
    assert apply_threshold(0.4999999, 0.5) == 0
    assert list(apply_threshold(np.array([0.1, 0.9]), 0.5)) == [0, 1]


def test_loss_params_validation():
    with pytest.raises(ValueError, match="beta"):
        LossParams(beta=-0.1)


def _reference_vote(preds, probs):
    """The scalar vote rule: Counter plurality, then summed probabilities."""
    counts = Counter(preds)
    top = max(counts.values())
    summed = np.asarray(probs, dtype=float).sum(axis=0)
    if top >= 2:
        tied = sorted(c for c, k in counts.items() if k == top)
        return max(tied, key=lambda c: (summed[c], -c))
    return int(np.argmax(summed))


@st.composite
def vote_batches(draw):
    """(n, k) booster probability rows and one k-vector of class
    frequencies."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    # quarters give exact ties between summed probabilities
    weights = draw(st.lists(st.integers(0, 4), min_size=(n + 1) * k, max_size=(n + 1) * k))
    raw = np.asarray(weights, dtype=float).reshape(n + 1, k)
    raw[:, 0] += raw.sum(axis=1) == 0
    probs = raw / raw.sum(axis=1, keepdims=True)
    return probs[:n], probs[n]


# Two rounding ties.  In the first, the classes tie on frequency and class
# 0's smaller probability rounds to the same sum as class 1's: the boosters'
# top class 1 is a majority class, but not the first one, so the sum decides
# (class 0).  In the second, class 1 is the boosters' top class and the
# first majority class, so it wins, though class 0's one-ulp smaller
# probability and frequency round to the same sum.
_ROUNDING_TIES = [
    (np.array([[np.nextafter(0.5, 0.0), 0.5]]), np.array([0.5, 0.5])),
    (
        np.array([[0.421891459952041, 0.4218914599520411, 0.15621708009591784]]),
        np.array([0.49207419141214964, 0.4920741914121497, 0.01585161717570066]),
    ),
]


@settings(max_examples=200, deadline=None)
@given(vote_batches())
@example(_ROUNDING_TIES[0])
@example(_ROUNDING_TIES[1])
def test_vote_matches_scalar_rule(batch):
    # the boosters and the majority baseline as two members of the scalar rule
    probs, freqs = batch
    majority = int(np.argmax(freqs))
    expected = [_reference_vote([int(np.argmax(p)), majority], [p, freqs]) for p in probs]
    assert _vote(probs, freqs).tolist() == expected


def test_ovr_multiclass():
    rng = np.random.default_rng(2)
    X = rng.integers(0, 4, size=(150, 3))
    y = X[:, 0]  # four classes, perfectly learnable
    data = LabeledDataset(X, y)
    ovr = train_ovr(data, GbtParams(rounds=15))
    assert ovr.classes == (0, 1, 2, 3)
    probs = ovr.predict_probs(X)
    assert probs.shape == (150, 4)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.mean(np.asarray(ovr.classes)[np.argmax(probs, axis=1)] == y) > 0.95
    assert ovr.freqs.tolist() == (np.bincount(y) / y.size).tolist()
    assert np.mean(ovr.predict_labels(X) == y) > 0.95


def test_model_text_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.integers(0, 4, size=(120, 5))
    y = (X[:, 2] >= 2).astype(int)
    data = LabeledDataset(X, y)
    model = train_gbt(data, GbtParams(rounds=7, depth=3), LossParams(beta=1.7))
    path = tmp_path / "model.txt"
    save_model(model, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "solartwin-gbt 1"
    assert "beta 1.7" in lines
    assert "trees 7" in lines
    # floats are written with repr, so the text holds every leaf value exactly
    leaves = [node.value for nodes in model.trees for node in nodes if node.is_leaf]
    assert [line for line in lines if line.startswith("leaf ")] == [
        f"leaf {value!r}" for value in leaves
    ]


def _reference_build_tree(X, g, h, max_depth, lam, min_child_hess):
    """Per-feature exact greedy split search, one bincount per feature."""
    nodes = []

    def grow(rows, depth):
        nid = len(nodes)
        nodes.append(TreeNode())
        g_sum = float(g[rows].sum())
        h_sum = float(h[rows].sum())
        best = None
        if depth < max_depth and rows.size >= 2:
            parent_score = g_sum * g_sum / (h_sum + lam)
            for f in range(X.shape[1]):
                codes = X[rows, f]
                if codes.min() == codes.max():
                    continue
                length = int(codes.max()) + 1
                gl = np.cumsum(np.bincount(codes, weights=g[rows], minlength=length))[:-1]
                hl = np.cumsum(np.bincount(codes, weights=h[rows], minlength=length))[:-1]
                cl = np.cumsum(np.bincount(codes, minlength=length))[:-1]
                gr = g_sum - gl
                hr = h_sum - hl
                valid = (
                    (cl > 0)
                    & (cl < rows.size)
                    & (hl >= min_child_hess)
                    & (hr >= min_child_hess)
                )
                if not valid.any():
                    continue
                gains = np.where(
                    valid,
                    gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score,
                    -np.inf,
                )
                c = int(np.argmax(gains))  # first max ties to the lowest code
                if gains[c] > 1e-12 and (best is None or gains[c] > best[0]):
                    best = (float(gains[c]), f, c)
        if best is None:
            nodes[nid] = TreeNode(value=-g_sum / (h_sum + lam))
            return nid
        _, f, c = best
        mask = X[rows, f] <= c
        left = grow(rows[mask], depth + 1)
        right = grow(rows[~mask], depth + 1)
        nodes[nid] = TreeNode(feature=f, code=c, left=left, right=right)
        return nid

    grow(np.arange(X.shape[0]), 0)
    return nodes


def _reference_train(data, params, loss):
    """train_gbt with the reference tree and a second pass for the margins."""
    margins = np.zeros(len(data))
    y = data.y.astype(float)
    trees = []
    for _ in range(params.rounds):
        grad, hess = loss_grad_hess(y, expit(margins), loss.beta)
        nodes = _reference_build_tree(
            data.X, grad, hess, params.depth, params.reg_lambda, params.min_child_hess
        )
        trees.append(nodes)
        margins += params.learning_rate * _tree_apply(nodes, data.X)
    return GbtModel(trees, params.learning_rate, 0.0, loss.beta, data.domains)


def _model_text(model):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "model.txt"
        save_model(model, path)
        return path.read_text()


CODE_SETS = ((0,), (0, 1), (1, 2, 3), tuple(range(6)) + (99,), (0, 7))


@st.composite
def small_datasets(draw):
    n_features = draw(st.integers(0, 4))
    n_rows = draw(st.integers(2, 24))
    sets = [draw(st.sampled_from(CODE_SETS)) for _ in range(n_features)]
    X = np.array(
        [[draw(st.sampled_from(codes)) for codes in sets] for _ in range(n_rows)],
        dtype=np.int64,
    ).reshape(n_rows, n_features)
    y = draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows))
    y[:2] = [0, 1]
    return LabeledDataset(X, np.array(y))


# at the first round every row's hessian is 0.25 (positives) or 0.25 * beta
TRAIN_PARAMS = st.builds(
    GbtParams,
    rounds=st.integers(1, 3),
    depth=st.integers(1, 4),
    learning_rate=st.sampled_from([0.3, 20.0]),
    reg_lambda=st.sampled_from([0.0, 1.0]),
    min_child_hess=st.sampled_from([0.0, 1e-3, 0.1075, 0.25, 0.5, 0.5 + 1e-12, 0.75]),
)
BETAS = st.sampled_from([0.0, 0.43, 1.7])


def _duplicate_columns():
    # two identical columns tie on every gain: the first feature must win
    X = np.array([[0, 0], [0, 0], [1, 1], [1, 1], [2, 2], [99, 99]])
    return LabeledDataset(X, np.array([0, 1, 1, 0, 1, 1]))


@settings(max_examples=300, deadline=None)
@given(small_datasets(), TRAIN_PARAMS, BETAS)
@example(_duplicate_columns(), GbtParams(rounds=2, depth=2), 1.7)
@example(LabeledDataset(np.zeros((4, 0), dtype=np.int64), np.array([0, 1, 1, 0])),
         GbtParams(rounds=2), 0.43)
# the first tree saturates row 1 to p = 1.0 (h = 0), so at lambda = 0 the
# second tree's feature 0 has a 0/0 gain: the whole feature is skipped
@example(LabeledDataset(np.array([[0, 2], [1, 2], [0, 0]]), np.array([0, 1, 1])),
         GbtParams(rounds=2, depth=1, learning_rate=20.0, reg_lambda=0.0,
                   min_child_hess=0.0), 0.43)
# ... and here a NaN at code 1 voids the gain of code 2 as well
@example(LabeledDataset(np.array([[2], [1], [3]]), np.array([0, 1, 1])),
         GbtParams(rounds=2, depth=1, learning_rate=50.0, reg_lambda=0.0,
                   min_child_hess=0.0), 1.7)
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_train_matches_reference_search(data, params, beta):
    loss = LossParams(beta=beta)
    try:
        expected = _model_text(_reference_train(data, params, loss))
    except ZeroDivisionError:  # lambda = 0 with a zero hessian sum
        with pytest.raises(ZeroDivisionError):
            train_gbt(data, params, loss)
        return
    assert _model_text(train_gbt(data, params, loss)) == expected
