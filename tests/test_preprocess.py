"""SMOTEN balancing and categorical association checks."""

import numpy as np
import pytest

from solartwin.preprocess import (
    LabeledDataset,
    correlation_matrix,
    cramers_v,
    dataset_from_households,
    smoten_oversample,
)
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
