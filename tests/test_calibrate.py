"""GP posterior, expected improvement, and the (beta, tau) search loop."""

import numpy as np
import pytest

from solartwin.boosting import GbtParams, LossParams, predict_proba, save_model, train_gbt
from solartwin.calibrate import (
    EI_CHUNK,
    STOP_BAND,
    TAU_COUNT,
    CalibrationResult,
    RbfKernel,
    TraceEntry,
    calibrate,
    default_kernel,
    expected_improvement,
    gp_fit,
    gp_predict,
    parameter_grid,
    save_trace,
)
from solartwin.seeds import rng_for
from solartwin.preprocess import dataset_from_households, smoten_oversample
from solartwin.records import AdopterTarget
from solartwin.toygen import ToyConfig, gen_population


def test_parameter_grid_layout():
    grid = parameter_grid()
    assert grid.shape == (201 * 91, 2)
    assert list(grid[0]) == [0.0, 0.05]
    assert list(grid[1]) == pytest.approx([0.0, 0.06])
    assert list(grid[91]) == pytest.approx([0.01, 0.05])  # beta-major layout
    assert list(grid[-1]) == pytest.approx([2.0, 0.95])
    assert grid[:, 0].max() == pytest.approx(2.0)
    assert grid[:, 1].min() == pytest.approx(0.05)


def test_expected_improvement_values():
    # at mu == f_min with unit sigma, EI reduces to the standard normal pdf at 0
    assert expected_improvement(1.0, 1.0, 1.0) == pytest.approx(
        0.3989422804014327, abs=1e-12
    )
    assert expected_improvement(2.0, 0.0, 1.0) == 0.0  # sigma 0, no improvement
    assert expected_improvement(0.25, 0.0, 1.0) == 0.75  # sigma 0, deterministic gain
    assert expected_improvement(0.25, 0.0, 1.0).shape == ()
    vec = expected_improvement(np.array([1.0, 2.0]), np.array([1.0, 0.0]), 1.0)
    assert vec.shape == (2,)
    assert np.all(vec >= 0.0)


def test_expected_improvement_monotone_in_sigma():
    eis = [expected_improvement(1.5, s, 1.0) for s in (0.1, 0.5, 1.0, 2.0)]
    assert eis == sorted(eis)


def test_gp_interpolates_noiselessly():
    points = np.array([[0.1, 0.1], [0.5, 0.5], [1.0, 0.3], [1.5, 0.8], [2.0, 0.6]])
    values = np.array([3.0, 1.0, 4.0, 1.5, 2.5])
    kernel = RbfKernel(signal_var=1.0, length_beta=0.5, length_tau=0.225, noise_var=0.0)
    gp = gp_fit(points, values, kernel)
    mu, sigma = gp_predict(gp, points)
    assert np.max(np.abs(mu - values)) < 1e-9
    assert np.all(sigma < 1e-4)


def test_gp_reverts_to_prior_far_away():
    points = np.array([[0.1, 0.1]])
    values = np.array([5.0])
    kernel = RbfKernel(signal_var=2.0, length_beta=0.1, length_tau=0.05, noise_var=0.0)
    gp = gp_fit(points, values, kernel)
    mu, sigma = gp_predict(gp, np.array([[2.0, 0.95]]))
    assert mu[0] == pytest.approx(5.0)  # prior mean is the observation mean
    assert sigma[0] == pytest.approx(np.sqrt(2.0), rel=1e-6)
    for shape in ((2,), (1, 3), (1, 1, 2)):
        with pytest.raises(ValueError, match="expected an \\(n, 2\\) matrix"):
            gp_predict(gp, np.zeros(shape))


def test_default_kernel_scales():
    k = default_kernel([1.0, 3.0])
    assert k.signal_var == pytest.approx(1.0)
    assert k.length_beta == pytest.approx(0.5)
    assert k.length_tau == pytest.approx(0.225)
    assert k.noise_var == pytest.approx(1e-6)
    assert default_kernel([2.0, 2.0]).signal_var == 1.0  # flat values fall back


def test_kernel_validation():
    with pytest.raises(ValueError, match="positive"):
        RbfKernel(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="noise"):
        RbfKernel(1.0, 1.0, 1.0, -1e-9)


@pytest.fixture(scope="module")
def toy_calibration():
    pop = gen_population(ToyConfig(n_households=400, seed=11))
    data = dataset_from_households(pop, "solar")
    balanced = smoten_oversample(data, k=5, seed=11)
    target = AdopterTarget("VA", int(np.count_nonzero(pop.labels("solar"))))
    result = calibrate(
        balanced, pop, target, budget=200, init=8, seed=11,
        gbt_params=GbtParams(rounds=40),
    )
    return pop, target, result


def test_calibrate_converges_on_toy(toy_calibration):
    pop, target, result = toy_calibration
    assert result.converged
    assert result.discrepancy <= 0.15 * target.count
    assert result.rounds_used == len(result.trace) <= 200
    assert 0.0 <= result.beta_star <= 2.0
    assert 0.05 <= result.tau_star <= 0.95


def test_calibrate_best_matches_trace(toy_calibration):
    _, _, result = toy_calibration
    diffs = [e.discrepancy for e in result.trace]
    assert result.discrepancy == min(diffs)
    winner = [e for e in result.trace if e.discrepancy == result.discrepancy][0]
    # the reported optimum is an actually-evaluated grid point
    assert (result.beta_star, result.tau_star) == (winner.beta, winner.tau)
    rounds = [e.round for e in result.trace]
    assert rounds == list(range(1, len(rounds) + 1))


def test_calibrate_model_reproduces_prediction(toy_calibration):
    from solartwin.boosting import apply_threshold, predict_proba

    pop, target, result = toy_calibration
    probs = predict_proba(result.model, pop.features)
    predicted = int(apply_threshold(probs, result.tau_star).sum())
    winner = [e for e in result.trace if e.discrepancy == result.discrepancy][0]
    assert predicted == winner.predicted
    assert result.model.beta == pytest.approx(result.beta_star)


def test_calibrate_is_deterministic():
    pop = gen_population(ToyConfig(n_households=200, seed=3))
    data = smoten_oversample(dataset_from_households(pop, "solar"), k=5, seed=3)
    target = AdopterTarget("VA", 20)
    kw = dict(budget=60, init=5, seed=3, gbt_params=GbtParams(rounds=25))
    a = calibrate(data, pop, target, **kw)
    b = calibrate(data, pop, target, **kw)
    assert [(e.beta, e.tau, e.predicted) for e in a.trace] == [
        (e.beta, e.tau, e.predicted) for e in b.trace
    ]


def test_calibrate_argument_guards():
    pop = gen_population(ToyConfig(n_households=50, seed=0))
    data = smoten_oversample(dataset_from_households(pop, "solar"), k=3, seed=0)
    with pytest.raises(ValueError, match="budget"):
        calibrate(data, pop, AdopterTarget("VA", 5), budget=2, init=5, seed=0)
    with pytest.raises(ValueError, match="exceeds population"):
        calibrate(data, pop, AdopterTarget("VA", 500), budget=2000, init=10, seed=0)


def test_save_trace_format(tmp_path, toy_calibration):
    _, target, result = toy_calibration
    path = tmp_path / "calibration_trace.csv"
    save_trace(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,beta,tau,predicted,target,diff"
    assert len(lines) == len(result.trace) + 1
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == f"{result.trace[0].beta:.2f}"
    assert first[4] == str(target.count)
    assert int(first[5]) == abs(int(first[3]) - target.count)


def _reference_calibrate(train, apply, target, budget, init, seed, gbt_params):
    """calibrate as an init loop and a GP loop that each track the best
    entry, before the search became one loop over the trace."""
    grid = parameter_grid()
    n_grid = grid.shape[0]
    stop_at = STOP_BAND * target.count
    prob_cache = {}

    def probs_for(beta_index):
        if beta_index not in prob_cache:
            beta = grid[beta_index * TAU_COUNT, 0]
            model = train_gbt(train, gbt_params, LossParams(beta=beta))
            prob_cache[beta_index] = (model, predict_proba(model, apply.features))
        return prob_cache[beta_index][1]

    trace = []
    evaluated = np.zeros(n_grid, dtype=bool)

    def evaluate(grid_index):
        beta, tau = grid[grid_index]
        predicted = int(np.count_nonzero(probs_for(grid_index // TAU_COUNT) >= tau))
        entry = TraceEntry(len(trace) + 1, float(beta), float(tau), predicted,
                           abs(predicted - target.count))
        trace.append(entry)
        evaluated[grid_index] = True
        return entry

    rng = rng_for(seed, "calibrate")
    best = best_index = None
    for grid_index in rng.choice(n_grid, size=min(init, n_grid), replace=False):
        entry = evaluate(int(grid_index))
        if best is None or entry.discrepancy < best.discrepancy:
            best, best_index = entry, int(grid_index)
        if entry.discrepancy <= stop_at:
            break
    while best.discrepancy > stop_at and len(trace) < budget and not evaluated.all():
        points = np.array([(e.beta, e.tau) for e in trace])
        values = np.array([float(e.discrepancy) for e in trace])
        gp = gp_fit(points, values, default_kernel(values))
        f_min = float(values.min())
        ei = np.empty(n_grid)
        for start in range(0, n_grid, EI_CHUNK):
            chunk = slice(start, start + EI_CHUNK)
            ei[chunk] = expected_improvement(*gp_predict(gp, grid[chunk]), f_min)
        ei[evaluated] = -np.inf
        pick = int(np.argmax(ei))
        entry = evaluate(pick)
        if entry.discrepancy < best.discrepancy:
            best, best_index = entry, pick
    return CalibrationResult(
        beta_star=best.beta, tau_star=best.tau, discrepancy=best.discrepancy, trace=trace,
        rounds_used=len(trace), target_count=target.count,
        model=prob_cache[best_index // TAU_COUNT][0],
    )


@pytest.fixture(scope="module")
def search_world():
    pop = gen_population(ToyConfig(n_households=200, seed=5))
    return pop, smoten_oversample(dataset_from_households(pop, "solar"), k=5, seed=5)


@pytest.mark.parametrize(
    "count, budget, rows, converged",
    [
        (40, 12, 1, True),  # the first init point is in the band
        (14, 12, 3, True),  # the third of four init points is
        (30, 12, 7, True),  # the third expected-improvement round is
        (5, 8, 8, False),  # the budget runs out; rounds 5 and 7 tie at the minimum
    ],
)
def test_calibrate_matches_reference_search(search_world, tmp_path, count, budget, rows, converged):
    pop, data = search_world
    target = AdopterTarget("VA", count)
    kw = dict(budget=budget, init=4, seed=2, gbt_params=GbtParams(rounds=5))
    got, want = calibrate(data, pop, target, **kw), _reference_calibrate(data, pop, target, **kw)
    assert (len(want.trace), want.converged) == (rows, converged)
    assert [(e.round, e.beta, e.tau, e.predicted, e.discrepancy) for e in got.trace] == [
        (e.round, e.beta, e.tau, e.predicted, e.discrepancy) for e in want.trace
    ]
    assert (got.beta_star, got.tau_star, got.discrepancy, got.rounds_used) == (
        want.beta_star, want.tau_star, want.discrepancy, want.rounds_used
    )
    save_model(got.model, tmp_path / "got.txt")
    save_model(want.model, tmp_path / "want.txt")
    assert (tmp_path / "got.txt").read_text() == (tmp_path / "want.txt").read_text()
