"""End-to-end acceptance checks, one per shipped guarantee.

Each test carries a `criterion` marker; the terminal summary prints one
pass/fail line per criterion.  Tolerances and time budgets are asserted
exactly as promised, with independent reference computations where the
guarantee is about matching a formula.
"""

import math
import os
import shutil
import subprocess
import sys
import time
from datetime import date, timedelta

import numpy as np
import pytest
from scipy.special import expit

import solartwin
from solartwin.boosting import (
    GbtParams,
    LossParams,
    loss_grad_hess,
    train_gbt,
    weighted_log_loss,
)
from solartwin.calibrate import (
    RbfKernel,
    calibrate,
    expected_improvement,
    gp_fit,
    gp_predict,
)
from solartwin.diffusion import (
    CASE3_LMI_SEQUENCE,
    DiffusionConfig,
    DiffusionState,
    build_nodes,
    case_nodes,
    node_probability,
    simulate,
    step,
)
from solartwin.metrics import (
    DiscreteDistribution,
    jsd,
    pearson_monthly,
    relative_pct_diff,
    scott_bandwidth,
)
from solartwin.preprocess import (
    LabeledDataset,
    correlation_matrix,
    dataset_from_households,
    smoten_oversample,
)
from solartwin.pv import declination, generate_profiles, save_daily, save_profiles, tilted_radiation
from solartwin.records import AdopterTarget, IrradianceSeries
from solartwin.seeds import rng_for
from solartwin.sqft import SubclassWeights, estimate_sqft
from solartwin.toygen import ToyConfig, gen_irradiance, gen_network, gen_population, tract_ids


# ---------------------------------------------------------------- criterion 1

def _single_loss(y, m, beta):
    return weighted_log_loss([y], [expit(m)], beta)


def _ref_grow(X, g, h, rows, depth, depth_limit, lam, min_hess):
    """Independent greedy Newton tree: scan (feature, code) pairs directly."""
    g_sum = float(np.sum(g[rows]))
    h_sum = float(np.sum(h[rows]))
    best = None
    if depth < depth_limit and rows.size >= 2:
        parent = g_sum * g_sum / (h_sum + lam)
        for f in range(X.shape[1]):
            col = X[rows, f]
            for code in range(int(col.min()), int(col.max())):
                left = rows[col <= code]
                right = rows[col > code]
                if left.size == 0 or right.size == 0:
                    continue
                hl = float(np.sum(h[left]))
                hr = float(np.sum(h[right]))
                if hl < min_hess or hr < min_hess:
                    continue
                gl = float(np.sum(g[left]))
                gr = g_sum - gl
                gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent
                if gain > 1e-12 and (best is None or gain > best[0]):
                    best = (gain, f, code, left, right)
    if best is None:
        return {"value": -g_sum / (h_sum + lam)}
    _, f, code, left, right = best
    return {
        "feature": f,
        "code": code,
        "left": _ref_grow(X, g, h, left, depth + 1, depth_limit, lam, min_hess),
        "right": _ref_grow(X, g, h, right, depth + 1, depth_limit, lam, min_hess),
    }


def _ref_apply(tree, X):
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        node = tree
        while "value" not in node:
            node = node["left"] if row[node["feature"]] <= node["code"] else node["right"]
        out[i] = node["value"]
    return out


def _assert_same_tree(nodes, nid, ref):
    node = nodes[nid]
    if "value" in ref:
        assert node.is_leaf
        assert node.value == pytest.approx(ref["value"], rel=1e-9, abs=1e-12)
        return
    assert not node.is_leaf
    assert node.feature == ref["feature"]
    assert node.code == ref["code"]
    _assert_same_tree(nodes, node.left, ref["left"])
    _assert_same_tree(nodes, node.right, ref["right"])


@pytest.mark.criterion(1, "loss derivatives and beta=1 equivalence")
def test_criterion_1_loss_and_unweighted_equivalence():
    start = time.monotonic()
    # 100-point (y, p, beta) grid; derivatives are w.r.t. the logit
    eps = 1e-5
    points = [
        (y, m, beta)
        for y in (0.0, 1.0)
        for m in np.linspace(-2.5, 2.5, 10)
        for beta in (0.25, 0.5, 1.0, 2.0, 5.0)
    ]
    assert len(points) == 100
    for y, m, beta in points:
        p = float(expit(m))
        grad, hess = loss_grad_hess(y, p, beta)
        fd_grad = (_single_loss(y, m + eps, beta) - _single_loss(y, m - eps, beta)) / (2 * eps)
        assert abs(fd_grad - grad) <= 1e-6 * abs(grad)
        g_plus = loss_grad_hess(y, float(expit(m + eps)), beta)[0]
        g_minus = loss_grad_hess(y, float(expit(m - eps)), beta)[0]
        fd_hess = (g_plus - g_minus) / (2 * eps)
        assert abs(fd_hess - hess) <= 1e-6 * abs(hess)

    # at beta = 1 the gradient statistics collapse to plain logistic loss
    rng = rng_for(0, "acceptance", "boosting")
    p = rng.random(500)
    y = (rng.random(500) < 0.5).astype(float)
    grad, hess = loss_grad_hess(y, p, 1.0)
    assert np.array_equal(grad, p - y)
    assert np.array_equal(hess, p * (1.0 - p))

    # full training matches an independently coded unweighted booster
    n = 240
    X = np.column_stack(
        [rng.integers(0, 5, n), rng.integers(0, 4, n), rng.integers(0, 6, n)]
    ).astype(np.int64)
    labels = ((X[:, 0] + X[:, 2] + rng.random(n) * 3.0) > 6.0).astype(np.int64)
    data = LabeledDataset(X=X, y=labels, domains=())  # domains derived from X
    params = GbtParams(rounds=8, depth=3, learning_rate=0.3, reg_lambda=1.0,
                       min_child_hess=1e-3)
    model = train_gbt(data, params=params, loss=LossParams(beta=1.0))

    margins = np.zeros(n)
    y_f = labels.astype(float)
    ref_trees = []
    for _ in range(params.rounds):
        prob = expit(margins)
        grad = prob - y_f
        hess = prob * (1.0 - prob)
        tree = _ref_grow(X, grad, hess, np.arange(n), 0, params.depth,
                         params.reg_lambda, params.min_child_hess)
        ref_trees.append(tree)
        margins += params.learning_rate * _ref_apply(tree, X)

    assert len(model.trees) == len(ref_trees)
    for nodes, ref in zip(model.trees, ref_trees):
        _assert_same_tree(nodes, 0, ref)
    assert np.allclose(model.margin(X), margins, rtol=1e-9, atol=1e-12)
    assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------- criterion 2

@pytest.mark.criterion(2, "calibration convergence on planted adopters")
def test_criterion_2_calibration_convergence():
    start = time.monotonic()
    target = 200
    band = 0.15 * target  # 30 adopters
    hits = 0
    for seed in range(10):
        pop = gen_population(ToyConfig(n_households=2000, seed=seed))
        planted = sum(1 for rec in pop if rec.solar)
        assert planted == target
        data = dataset_from_households(pop, "solar")
        balanced = smoten_oversample(data, k=5, seed=seed)
        result = calibrate(
            balanced, pop, AdopterTarget("VA", target),
            budget=2000, init=10, seed=seed,
        )
        assert len(result.trace) <= 2000
        incumbent = math.inf
        incumbents = []
        for entry in result.trace:
            incumbent = min(incumbent, entry.discrepancy)
            incumbents.append(incumbent)
        assert all(a >= b for a, b in zip(incumbents, incumbents[1:]))
        assert result.discrepancy == min(e.discrepancy for e in result.trace)
        if result.discrepancy <= band:
            hits += 1
    assert hits >= 9
    assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------- criterion 3

@pytest.mark.criterion(3, "expected improvement and GP interpolation")
def test_criterion_3_ei_and_gp():
    assert expected_improvement(2.0, 1.0, 2.0) == pytest.approx(
        0.398942, abs=1e-6
    )
    assert expected_improvement(2.0, 0.0, 2.0) == 0.0
    assert expected_improvement(5.0, 0.0, 2.0) == 0.0

    points = np.array(
        [[0.2, 0.10], [0.5, 0.30], [0.9, 0.55], [1.4, 0.75], [1.9, 0.90]]
    )
    values = np.array([3.0, 1.0, 4.0, 1.5, 2.0])
    kernel = RbfKernel(1.0, 0.5, 0.225, 0.0)  # noiseless
    gp = gp_fit(points, values, kernel)
    mu, _ = gp_predict(gp, points)
    assert np.max(np.abs(mu - values)) <= 1e-9


# ---------------------------------------------------------------- criterion 4

@pytest.mark.criterion(4, "square footage mixture mean and bounds")
def test_criterion_4_sqft_estimation():
    w = SubclassWeights(
        class_range=(1000.0, 2000.0),
        edges=(1000.0, 1500.0, 2000.0),
        weights=(2.0 / 3.0, 1.0 / 3.0),
    )
    rng = rng_for(0, "acceptance", "sqft")
    estimate = estimate_sqft(w, M=1000, L=100, draws=rng.random((1, 1000 + 1000 * 100)))[0]
    assert estimate == pytest.approx(1416.7, abs=5.0)

    rng = rng_for(1, "acceptance", "sqft-bounds")
    for _ in range(10_000):
        low = float(rng.uniform(400.0, 3000.0))
        high = low + float(rng.uniform(200.0, 1500.0))
        k = int(rng.integers(1, 6))
        raw = rng.random(k) + 1e-3
        weights = raw / raw.sum()
        cfg = SubclassWeights(
            class_range=(low, high),
            edges=tuple(np.linspace(low, high, k + 1)),
            weights=tuple(weights),
        )
        est = estimate_sqft(cfg, M=3, L=2, draws=rng.random((1, 3 + 3 * 2)))[0]
        assert low <= est <= high


# ---------------------------------------------------------------- criterion 5

@pytest.mark.criterion(5, "tilted radiation and declination")
def test_criterion_5_radiation():
    assert tilted_radiation(500.0, 38.0, 0.0, 30.0, "S") == pytest.approx(
        628.3, abs=0.1
    )
    # zero tilt reproduces the horizontal input bit for bit
    for ghi in (0.0, 55.5, 123.456, 987.0):
        assert tilted_radiation(ghi, 38.0, 10.0, 0.0, "S") == ghi
    assert declination(172) == pytest.approx(23.45, abs=0.05)
    assert declination(355) == pytest.approx(-23.45, abs=0.05)


# ---------------------------------------------------------------- criterion 6

def _profile_world():
    cfg = ToyConfig(n_households=500, n_tracts=4, days=7, seed=3)
    pop = gen_population(cfg)
    fitted = pop.replace(
        solar=np.ones(len(pop), dtype=bool), sqft_value=500.0 + (pop.id % 40) * 50.0
    )
    irradiance = {t: gen_irradiance(cfg, t) for t in tract_ids(cfg)}
    dates = [cfg.start_date + timedelta(days=i) for i in range(cfg.days)]
    return fitted, irradiance, dates


@pytest.mark.criterion(6, "profile worker invariance and identities")
def test_criterion_6_profiles(tmp_path):
    start = time.monotonic()
    pop, irradiance, dates = _profile_world()
    runs = {}
    for workers in (1, 2, 8):
        profiles = generate_profiles(
            pop, irradiance, dates, workers=workers, seed=3, n_samples=20
        )
        out_dir = tmp_path / f"w{workers}"
        out_dir.mkdir()
        save_profiles(profiles, str(out_dir))
        save_daily(profiles, str(out_dir / "daily.csv"))
        runs[workers] = profiles
    elapsed = time.monotonic() - start
    assert elapsed < 120.0

    # byte-identical output for every worker count
    names = sorted(os.listdir(tmp_path / "w1"))
    assert names
    for workers in (2, 8):
        assert sorted(os.listdir(tmp_path / f"w{workers}")) == names
        for name in names:
            assert (tmp_path / f"w{workers}" / name).read_bytes() == (
                tmp_path / "w1" / name
            ).read_bytes()

    night = [True] * 24
    tract_of = dict(zip(pop.id.tolist(), pop.tract.tolist()))
    one = runs[1]
    daily_mean, daily_std = one.daily_mean, one.daily_std
    for k, household in enumerate(one.household.tolist()):
        for j, date in enumerate(one.dates):
            mean = one.hourly_mean[k, j]
            std = one.hourly_std[k, j]
            # aggregate identities hold row by row
            assert daily_mean[k, j] == pytest.approx(float(np.sum(mean)), abs=1e-9)
            assert daily_std[k, j] ** 2 == pytest.approx(
                float(np.sum(std**2)), abs=1e-9
            )
            ghi = irradiance[tract_of[household]].ghi_for_date(date)
            for hour in range(24):
                if ghi[hour] == 0.0:
                    assert mean[hour] == 0.0
                    assert std[hour] == 0.0
                else:
                    night[hour] = False
    assert not all(night)  # the week has daylight hours

    # doubling irradiance doubles every mean exactly
    doubled = {
        t: IrradianceSeries(tract=s.tract, start_date=s.start_date, hours=s.hours * 2.0)
        for t, s in irradiance.items()
    }
    twice = generate_profiles(pop, doubled, dates, workers=1, seed=3, n_samples=20)
    assert np.array_equal(twice.hourly_mean, one.hourly_mean * 2.0)
    assert np.array_equal(twice.daily_mean, one.daily_mean * 2.0)


# ---------------------------------------------------------------- criterion 7

@pytest.mark.criterion(7, "distribution metrics battery")
def test_criterion_7_metrics():
    edges = tuple(float(i) for i in range(7))
    rng = rng_for(0, "acceptance", "metrics")

    def random_dist():
        mass = rng.random(6) + 1e-3
        return DiscreteDistribution(bin_edges=edges, mass=tuple(mass / mass.sum()))

    p = random_dist()
    assert jsd(p, p) == 0.0
    disjoint_a = DiscreteDistribution(bin_edges=edges, mass=(0.5, 0.5, 0.0, 0.0, 0.0, 0.0))
    disjoint_b = DiscreteDistribution(bin_edges=edges, mass=(0.0, 0.0, 0.0, 0.5, 0.25, 0.25))
    assert jsd(disjoint_a, disjoint_b) == pytest.approx(1.0, abs=1e-12)
    for _ in range(100):
        a, b = random_dist(), random_dist()
        assert abs(jsd(a, b) - jsd(b, a)) <= 1e-12
        assert 0.0 <= jsd(a, b) <= 1.0

    assert scott_bandwidth([-1.0, 1.0] * 16) == 0.5  # 32 ** (-1/5) exactly

    months = ("2018-01", "2018-02")
    shape = [0.0, 0.0, 1.0, 3.0, 6.0, 8.0, 9.0, 8.0, 6.0, 3.0, 1.0, 0.5] * 2
    rows_a = [(m, h, shape[h] + i) for i, m in enumerate(months) for h in range(24)]
    rows_b = [(m, h, 3.0 * v + 7.0) for m, h, v in rows_a]
    correlations = pearson_monthly(tuple(zip(*rows_a)), tuple(zip(*rows_b)))
    for month in months:
        assert correlations[month] == pytest.approx(1.0, abs=1e-9)

    assert relative_pct_diff(62.0, 338.0) == pytest.approx(445.2, abs=0.1)


# ---------------------------------------------------------------- criterion 8

@pytest.mark.criterion(8, "contagion monotonicity and policy ordering")
def test_criterion_8_diffusion():
    start = time.monotonic()
    # spot-check the policy gate table before simulating with it
    assert node_probability("2b", True, 1) == 0.5
    assert node_probability("2b", False, 1) == 0.1
    assert CASE3_LMI_SEQUENCE == (0.30, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50)
    for step_number, expected in enumerate(CASE3_LMI_SEQUENCE, start=1):
        assert node_probability("3", True, step_number) == expected

    # adoption never reverses on any step of any case at scale: step is
    # driven from simulate's start state with simulate's stream, and
    # simulate's rows count those states
    n = 5000
    pop = gen_population(ToyConfig(n_households=n, seed=1))
    graph = gen_network(n, 0.002, groups=10, seed=1)
    rng = rng_for(1, "acceptance", "diffusion")
    benefit = rng.random(n)
    annual = 4000.0 + rng.random(n) * 5000.0
    initial = np.flatnonzero(pop.solar.filled(False))
    assert initial.size
    nodes = build_nodes(pop, graph, benefit)
    lmi, rural = nodes.lmi, nodes.rural
    masks = {
        "total_adopters": np.ones(n, dtype=bool), "lmi_rural": lmi & rural,
        "lmi_urban": lmi & ~rural, "nonlmi_rural": ~lmi & rural, "nonlmi_urban": ~lmi & ~rural,
    }
    adopted = np.isin(np.arange(n), initial)
    for case in ("1a", "1b", "2a", "2b", "3", "4", "5"):
        config = DiffusionConfig(case=case, time_steps=5, iterations=1, seed=7)
        states = [DiffusionState.start(case_nodes(nodes, config, annual), adopted)]
        stream = rng_for(config.seed, "diffusion", case, 0)
        for _ in range(config.time_steps):
            states.append(step(states[-1], config, stream))
            assert np.all(states[-2].adopted <= states[-1].adopted)
        rows = simulate(nodes, config, initial, annual)
        assert [[row[name] for name in masks] for row in rows] == [
            [float(np.count_nonzero(state.adopted & mask)) for mask in masks.values()]
            for state in states
        ]

    # stronger incentives reach at least as many homes, on average
    n = 1000
    pop = gen_population(ToyConfig(n_households=n, seed=2))
    graph = gen_network(n, 0.01, groups=2, seed=2)
    nodes = build_nodes(pop, graph, rng_for(2, "acceptance", "diffusion").random(n))
    initial = np.flatnonzero(pop.solar.filled(False))
    totals = {case: [] for case in ("1a", "1b")}
    lmi_totals = {case: [] for case in ("2a", "2b")}
    for seed in range(20):
        for case in ("1a", "1b", "2a", "2b"):
            config = DiffusionConfig(case=case, time_steps=10, iterations=1, seed=seed)
            last = simulate(nodes, config, initial)[-1]
            if case in totals:
                totals[case].append(last["total_adopters"])
            else:
                lmi_totals[case].append(last["lmi_rural"] + last["lmi_urban"])
    assert np.mean(totals["1b"]) >= np.mean(totals["1a"])
    assert np.mean(lmi_totals["2b"]) >= np.mean(lmi_totals["2a"])
    assert time.monotonic() - start < 300.0


# ---------------------------------------------------------------- criterion 9

@pytest.mark.criterion(9, "oversampling balance and association drift")
def test_criterion_9_smoten():
    pop = gen_population(ToyConfig(n_households=2000, seed=0))
    data = dataset_from_households(pop, "solar")
    balanced = smoten_oversample(data, k=5, seed=0)
    counts = balanced.class_counts()
    assert len(counts) == 2
    assert len(set(counts.values())) == 1  # both classes equally sized

    before = correlation_matrix(data)
    after = correlation_matrix(balanced)
    assert float(np.max(np.abs(before - after))) <= 0.15


# --------------------------------------------------------------- criterion 10

@pytest.mark.criterion(10, "pipeline end to end reproducibility")
def test_criterion_10_cli_pipeline(tmp_path):
    start = time.monotonic()
    exe = shutil.which("solartwin")
    command, env = [exe], None
    if exe is None:  # no installed console script: run the package as a module
        src = os.path.dirname(os.path.dirname(os.path.abspath(solartwin.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        command, env = [sys.executable, "-m", "solartwin"], dict(os.environ, PYTHONPATH=path)
    outputs = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        proc = subprocess.run(
            command + ["pipeline", "--out", str(out_dir)],
            capture_output=True, text=True, cwd=str(tmp_path), env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_dir)
    assert time.monotonic() - start < 900.0

    first, second = outputs
    rel_paths = sorted(
        os.path.relpath(os.path.join(root, f), first)
        for root, _, files in os.walk(first)
        for f in files
    )
    rel_other = sorted(
        os.path.relpath(os.path.join(root, f), second)
        for root, _, files in os.walk(second)
        for f in files
    )
    assert rel_paths == rel_other
    assert rel_paths
    for rel in rel_paths:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
