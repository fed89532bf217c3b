"""Square-footage sub-interval weights and the two-stage estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solartwin import cli
from solartwin.records import load_households, save_households
from solartwin.seeds import rng_for, stream_rows
from solartwin.sqft import SubclassWeights, estimate_sqft, subclass_weights
from solartwin.toygen import ToyConfig, gen_population, gen_survey


def test_subclass_weights_counts():
    survey = [1000.0, 1200.0, 1200.0, 1400.0, 1600.0]
    w = subclass_weights(survey, (1000.0, 1500.0), k=5)
    assert w.edges == (1000.0, 1100.0, 1200.0, 1300.0, 1400.0, 1500.0)
    # 1600 is outside; 1000 -> bin 0, both 1200s -> bin 2, 1400 -> bin 4
    assert w.weights == pytest.approx((0.25, 0.0, 0.5, 0.0, 0.25))
    assert w.k == 5


def test_subclass_weights_boundaries():
    # low edge included, high edge excluded, internal edges left-closed
    w = subclass_weights([100.0, 150.0, 200.0], (100.0, 200.0), k=2)
    assert w.weights == pytest.approx((0.5, 0.5))


def test_subclass_weights_empty_range():
    w = subclass_weights([10.0], (1000.0, 2000.0), k=4)
    assert w.weights == pytest.approx((0.25, 0.25, 0.25, 0.25))


def test_subclass_weights_validation():
    with pytest.raises(ValueError, match="k must be"):
        subclass_weights([1.0], (0.0, 1.0), k=0)
    with pytest.raises(ValueError, match="increasing"):
        subclass_weights([1.0], (5.0, 5.0), k=2)
    with pytest.raises(ValueError, match="sum to 1"):
        SubclassWeights((0.0, 2.0), (0.0, 1.0, 2.0), (0.7, 0.7))


def test_subclass_weights_reject_nan():
    # NaN fails every comparison, so a check written as `x < 0` lets it through
    with pytest.raises(ValueError, match="weights must be non-negative and sum to 1"):
        SubclassWeights((0.0, 100.0), (0.0, 50.0, 100.0), (float("nan"), 1.0))
    with pytest.raises(ValueError, match="edges must be ascending"):
        SubclassWeights((0.0, 100.0), (0.0, float("nan"), 100.0), (0.5, 0.5))


def test_estimate_within_bounds():
    w = subclass_weights([1050.0, 1450.0], (1000.0, 1500.0), k=5)
    for seed in range(30):
        est = estimate_sqft(w, M=4, L=3, seed=seed)
        assert 1000.0 <= est < 1500.0


def test_estimate_deterministic_and_generator_seed():
    w = subclass_weights([1050.0, 1450.0], (1000.0, 1500.0), k=5)
    assert estimate_sqft(w, seed=7) == estimate_sqft(w, seed=7)
    a = estimate_sqft(w, seed=rng_for(7, "sqft-estimate"))
    b = estimate_sqft(w, seed=7)
    assert a == b  # integer seed is shorthand for the derived stream


def test_estimate_mean_tracks_weights():
    # all mass on one sub-interval pins the expectation to its midpoint
    w = SubclassWeights((0.0, 100.0), (0.0, 50.0, 100.0), (1.0, 0.0))
    est = estimate_sqft(w, M=200, L=200, seed=0)
    assert est == pytest.approx(25.0, abs=1.0)


def test_estimate_validation():
    w = SubclassWeights((0.0, 100.0), (0.0, 100.0), (1.0,))
    with pytest.raises(ValueError, match="M and L"):
        estimate_sqft(w, M=0, L=5)


def _reference_estimate_sqft(w, M, L, rng):
    """The per-household estimator the batched rows replaced."""
    edges = np.asarray(w.edges)
    idx = rng.choice(w.k, size=M, p=np.asarray(w.weights))
    lows = edges[idx]
    widths = edges[idx + 1] - edges[idx]
    return float((lows[:, None] + rng.random((M, L)) * widths[:, None]).mean())


@st.composite
def _subclass_weights(draw):
    k = draw(st.integers(1, 6))
    low = draw(st.sampled_from([0.0, 600.0, 1000.0, 4000.0]))
    high = low + draw(st.sampled_from([1.0, 400.0, 4000.0]))
    counts = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k))
    counts[draw(st.integers(0, k - 1))] += 1  # zero-weight entries, never all zero
    edges = np.linspace(low, high, k + 1)
    weights = np.array(counts, dtype=float) / sum(counts)
    return SubclassWeights((low, high), tuple(edges.tolist()), tuple(weights.tolist()))


@settings(max_examples=300, deadline=None)
@given(
    w=_subclass_weights(),
    M=st.integers(1, 20),
    L=st.integers(1, 20),
    ids=st.lists(st.integers(0, 10**6), min_size=1, max_size=8, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_estimates_match_reference(w, M, L, ids, seed):
    """Each row of a stream_rows block gives the estimate that household's
    own Generator gives, bit for bit, and so does the one-household call."""
    draws = stream_rows(seed, "sqft", ids, M + M * L)
    batch = estimate_sqft(w, M, L, draws)
    expected = [_reference_estimate_sqft(w, M, L, rng_for(seed, "sqft", i)) for i in ids]
    assert batch.tolist() == expected
    assert estimate_sqft(w, M, L, rng_for(seed, "sqft", ids[0])) == expected[0]
    assert estimate_sqft(w, M, L, seed) == _reference_estimate_sqft(
        w, M, L, rng_for(seed, "sqft-estimate")
    )


def test_estimate_rejects_bad_draw_shape():
    with pytest.raises(ValueError, match="shape"):
        estimate_sqft(subclass_weights([10.0], (0.0, 100.0), k=2), 3, 2, np.zeros((4, 8)))


def test_estimate_stage_matches_per_household_reference(tmp_path, monkeypatch):
    """The estimate-sqft stage, run on household chunks, gives every
    household its reference estimate from rng_for(seed, "sqft", id)."""
    toy = ToyConfig(n_households=300, seed=5)
    save_households(gen_population(toy), tmp_path / "households_classified.csv")
    cli._save_survey(gen_survey(toy, 400), tmp_path / "survey.csv")
    monkeypatch.setattr(cli, "_SQFT_CHUNK", 64)
    assert cli.main(["estimate-sqft", "--seed", "5", "--out", str(tmp_path)]) == 0
    cfg = cli.load_config(None)
    pop = load_households(tmp_path / "households_sqft.csv")
    survey = cli._load_survey(tmp_path / "survey.csv")
    expected = [
        _reference_estimate_sqft(
            subclass_weights(survey, cli.sqft_class_range(k), cfg.sqft_k),
            cfg.sqft_m, cfg.sqft_l, rng_for(5, "sqft", i),
        )
        for k, i in zip(pop.sqft_class.tolist(), pop.id.tolist())
    ]
    assert pop.sqft_value.tolist() == expected
