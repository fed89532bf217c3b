"""SMOTEN balancing and categorical association checks."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solartwin.preprocess import (
    LabeledDataset,
    correlation_matrix,
    cramers_v,
    dataset_from_households,
    smoten_oversample,
)
from solartwin.seeds import rng_for
from solartwin.toygen import ToyConfig, gen_population


def small_imbalanced(seed=0):
    rng = np.random.default_rng(seed)
    X_major = rng.integers(0, 3, size=(40, 4))
    X_minor = rng.integers(1, 4, size=(9, 4))
    X = np.vstack([X_major, X_minor])
    y = np.array([0] * 40 + [1] * 9)
    return LabeledDataset(X, y, tuple((0, 1, 2, 3) for _ in range(4)))


def test_dataset_requires_matching_shapes():
    with pytest.raises(ValueError, match="length"):
        LabeledDataset(np.zeros((3, 2), dtype=int), np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="outside domain"):
        LabeledDataset(np.array([[5]]), np.array([0]), ((0, 1),))


def test_dataset_from_households_labels():
    pop = gen_population(ToyConfig(n_households=60, seed=1))
    solar = dataset_from_households(pop, "solar")
    assert set(np.unique(solar.y)) <= {0, 1}
    sqft = dataset_from_households(pop, "sqft_class")
    assert sqft.X.shape == (60, 8)
    with pytest.raises(ValueError, match="unknown label"):
        dataset_from_households(pop, "bogus")


def test_dataset_from_households_missing_label():
    pop = gen_population(ToyConfig(n_households=10, seed=1))
    solar = pop.solar.copy()
    solar[3] = np.ma.masked
    pop = pop.replace(solar=solar)
    with pytest.raises(ValueError, match="household 3 has no solar label"):
        dataset_from_households(pop, "solar")


def test_smoten_balances_counts():
    data = small_imbalanced()
    out = smoten_oversample(data, k=5, seed=0)
    counts = out.class_counts()
    assert counts[0] == counts[1] == 40
    # originals come through untouched, synthetics appended
    assert np.array_equal(out.X[: len(data)], data.X)
    assert np.array_equal(out.y[: len(data)], data.y)


def test_smoten_synthetics_use_observed_codes():
    data = small_imbalanced(3)
    out = smoten_oversample(data, k=3, seed=1)
    minority = data.X[data.y == 1]
    synth = out.X[len(data):]
    for j in range(synth.shape[1]):
        assert set(synth[:, j]) <= set(minority[:, j])


def test_smoten_deterministic_and_k_guard():
    data = small_imbalanced(5)
    a = smoten_oversample(data, k=4, seed=9)
    b = smoten_oversample(data, k=4, seed=9)
    assert a == b
    with pytest.raises(ValueError, match="not enough neighbors for k=9"):
        smoten_oversample(data, k=9, seed=0)


def test_smoten_balanced_input_is_copied():
    X = np.array([[0], [1], [0], [1]])
    y = np.array([0, 0, 1, 1])
    data = LabeledDataset(X, y)
    out = smoten_oversample(data, k=1)
    assert out == data
    assert out.X is not data.X


def test_smoten_single_class_rejected():
    data = LabeledDataset(np.zeros((5, 2), dtype=int), np.zeros(5, dtype=int))
    with pytest.raises(ValueError, match="two classes"):
        smoten_oversample(data)


def _reference_smoten_oversample(data, k=5, seed=0):
    """The per-row SMOTEN loop: one seed draw, sort and per-feature mode each."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts = data.class_counts()
    if len(counts) < 2:
        raise ValueError("need at least two classes to oversample")
    majority = max(counts.values())
    rng = rng_for(seed, "smoten")
    synth_rows = []
    synth_labels = []
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
        for _ in range(deficit):
            s = int(rng.integers(0, rows.shape[0]))
            dist = np.count_nonzero(rows != rows[s], axis=1)
            dist[s] = rows.shape[1] + 1  # a row is not its own neighbor
            order = np.lexsort((np.arange(rows.shape[0]), dist))
            neighbors = rows[order[:k]]
            row = np.empty(rows.shape[1], dtype=np.int64)
            for j in range(rows.shape[1]):
                codes, code_counts = np.unique(neighbors[:, j], return_counts=True)
                row[j] = codes[np.argmax(code_counts)]
            synth_rows.append(row)
            synth_labels.append(cls)
    if not synth_rows:
        return LabeledDataset(data.X.copy(), data.y.copy(), data.domains)
    X = np.vstack([data.X, np.array(synth_rows, dtype=np.int64)])
    y = np.concatenate([data.y, np.array(synth_labels, dtype=np.int64)])
    return LabeledDataset(X, y, data.domains)


@st.composite
def smoten_cases(draw):
    """(data, k, seed) with few codes per column, so Hamming and mode ties
    are common, rows repeated from a small pattern pool, and a class below
    k + 1 rows in about one case of six."""
    k = draw(st.integers(1, 7))
    n_features = draw(st.integers(0, 8))
    # one to three codes per column; one code makes the column constant
    values = [draw(st.lists(st.integers(-3, 99), min_size=1, max_size=3, unique=True))
              for _ in range(n_features)]
    patterns = draw(st.lists(
        st.tuples(*(st.integers(0, len(v) - 1) for v in values)), min_size=1, max_size=12))
    labels = draw(st.lists(st.integers(-2, 9), min_size=2, max_size=4, unique=True))
    sizes = [draw(st.integers(k + 1, k + 20)) for _ in labels]
    if draw(st.sampled_from([False] * 5 + [True])):
        sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.integers(1, k))
    y = draw(st.permutations(np.repeat(labels, sizes).tolist()))
    picks = draw(st.lists(st.integers(0, len(patterns) - 1), min_size=len(y), max_size=len(y)))
    X = np.array([[v[c] for v, c in zip(values, patterns[p])] for p in picks],
                 dtype=np.int64).reshape(len(y), n_features)
    return LabeledDataset(X, np.array(y)), k, draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(smoten_cases())
# the minority has exactly k + 1 rows: every other row is a neighbor
@example((LabeledDataset(np.array([[0, 1], [1, 1], [1, 0], [0, 0], [1, 1], [0, 1],
                                   [0, 0], [1, 1], [1, 0], [0, 1], [1, 1]]),
                         np.array([0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1])), 3, 5))
# every class already balanced: nothing is drawn
@example((LabeledDataset(np.array([[0, 1], [1, 1], [2, 0], [0, 0], [1, 1], [2, 1]]),
                         np.array([4, 1, 1, 4, 7, 7])), 1, 0))
def test_smoten_matches_reference_loop(case):
    data, k, seed = case
    try:
        expected = _reference_smoten_oversample(data, k=k, seed=seed)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            smoten_oversample(data, k=k, seed=seed)
        return
    out = smoten_oversample(data, k=k, seed=seed)
    assert out.X.dtype == out.y.dtype == np.int64
    assert np.array_equal(out.X, expected.X) and np.array_equal(out.y, expected.y)
    assert out.domains == expected.domains


def test_cramers_v_known_values():
    # perfect association
    a = np.array([0, 0, 1, 1] * 10)
    assert cramers_v(a, a) == 1.0
    # 2x2 contingency [[10,20],[20,10]] works out to exactly 1/3
    x = np.repeat([0, 0, 1, 1], [10, 20, 20, 10])
    y = np.repeat([0, 1, 0, 1], [10, 20, 20, 10])
    assert cramers_v(x, y) == pytest.approx(1.0 / 3.0, abs=1e-12)
    # constant column has no association to measure
    assert cramers_v(np.zeros(10), np.arange(10)) == 0.0


def test_cramers_v_independence_near_zero():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 4, size=20000)
    b = rng.integers(0, 4, size=20000)
    assert cramers_v(a, b) < 0.03


def test_correlation_matrix_shape_and_symmetry():
    data = small_imbalanced()
    m = correlation_matrix(data)
    assert m.shape == (4, 4)
    assert np.allclose(m, m.T)
    assert np.all(np.diag(m) == 1.0)
    with_label = correlation_matrix(data, include_label=True)
    assert with_label.shape == (5, 5)
