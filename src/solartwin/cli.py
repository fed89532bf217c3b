"""Command line front end.

Stages communicate only through files in one output directory, so any
stage can be re-run in isolation and the full pipeline is reproducible
byte-for-byte from (config, seed):

    toygen -> preprocess -> classify-sqft -> estimate-sqft -> calibrate
           -> generate -> validate -> simulate

``solartwin pipeline`` runs them all in order.  Errors print a single
``error: <stage>: <message>`` line on stderr and exit nonzero; set
SOLARTWIN_LOG=info (or debug) for progress on stderr.
"""

import argparse
import calendar
import logging
import os
import sys
from dataclasses import replace
from datetime import date, timedelta

import numpy as np

from .boosting import apply_threshold, save_model, train_ovr
from .boosting import predict_proba  # noqa: F401 - perfbench's tracer wraps cli.predict_proba
from .calibrate import calibrate, save_trace
from .config import RunConfig, load_config, parse_cases
from .diffusion import build_nodes, save_timeline, simulate
from .metrics import MonthlyFold, jsd_histogram, jsd_kde, pearson_shapes, relative_pct_diff
from .metrics import kld_histogram as kld  # perfbench's tracer times the KL row as cli.kld
from .metrics import pearson_monthly  # noqa: F401 - perfbench's tracer wraps cli.pearson_monthly
from .preprocess import (
    LabeledDataset,
    correlation_matrix,
    dataset_from_households,
    smoten_oversample,
)
from .pv import generate_profiles, load_daily, load_profile_rows, save_daily, save_profiles
from .records import (
    FEATURE_CODE_RULES,
    FEATURE_DOMAINS,
    FEATURE_NAMES,
    AdopterTarget,
    load_households,
    load_irradiance,
    load_network,
    load_targets,
    read_csv,
    save_households,
    save_irradiance,
    save_network,
    save_targets,
    sqft_class_range,
    write_csv,
)
from .seeds import stream_rows
from .sqft import estimate_sqft, subclass_weights
from .toygen import STATE, gen_irradiance, gen_network, gen_population, gen_survey, tract_ids

log = logging.getLogger("solartwin")

# households per estimate-sqft draw block
_SQFT_CHUNK = 4096


def parse_period(text: str):
    """Turn ``kind:value`` into (label, [dates]).

    Kinds: ``date:2018-01-03``, ``week:2018-W01`` (ISO week),
    ``month:2018-01``, ``year:2018``.
    """
    kind, _, value = text.partition(":")
    if not value:
        raise ValueError(f"period must look like kind:value, got {text!r}")
    if kind == "date":
        return value, [date.fromisoformat(value)]
    if kind == "week":
        year_s, _, week_s = value.partition("-W")
        if not week_s:
            raise ValueError(f"week periods look like 2018-W01, got {value!r}")
        start = date.fromisocalendar(int(year_s), int(week_s), 1)
        return value, [start + timedelta(days=i) for i in range(7)]
    if kind == "month":
        year_s, _, month_s = value.partition("-")
        if not month_s:
            raise ValueError(f"month periods look like 2018-01, got {value!r}")
        year, month = int(year_s), int(month_s)
        n_days = calendar.monthrange(year, month)[1]
        return value, [date(year, month, d) for d in range(1, n_days + 1)]
    if kind == "year":
        year = int(value)
        start = date(year, 1, 1)
        n_days = (date(year + 1, 1, 1) - start).days
        return value, [start + timedelta(days=i) for i in range(n_days)]
    raise ValueError(f"unknown period kind {kind!r}")


def resolve_period(cfg: RunConfig, args):
    """The --period flag, or the config's start_date/days span."""
    if getattr(args, "period", None):
        return parse_period(args.period)
    label = f"{cfg.start_date.isoformat()}_{cfg.days}d"
    return label, [cfg.start_date + timedelta(days=i) for i in range(cfg.days)]


def _path(cfg: RunConfig, *parts) -> str:
    return os.path.join(cfg.out_dir, *parts)


def _require(path: str, hint: str) -> str:
    if not os.path.exists(path):
        raise ValueError(f"missing {path}; run {hint} first")
    return path


def _save_survey(values, path):
    write_csv(path, ["sqft"], [[repr(float(v)) for v in values]])


def _load_survey(path) -> np.ndarray:
    rules = [("sqft", lambda sqft: ~(sqft > 0), "{} must be > 0")]
    return read_csv(path, {"sqft": float}, rules=rules)["sqft"]


def _save_dataset(data: LabeledDataset, path):
    columns = [*data.X.T.tolist(), data.y.tolist()]
    write_csv(path, list(FEATURE_NAMES) + ["label"], [list(map(str, c)) for c in columns])


def _label_cells(y):
    """The label cells other than 0 or 1; with none, both classes must appear."""
    bad = (y != 0) & (y != 1)
    classes = np.unique(y).tolist()
    if not bad.any() and classes != [0, 1]:
        raise ValueError(f"needs both classes 0 and 1, found {classes}")
    return bad


def _load_dataset(path) -> LabeledDataset:
    columns = read_csv(
        path,
        dict.fromkeys([*FEATURE_NAMES, "label"], int),
        rules=[*FEATURE_CODE_RULES, ("label", _label_cells, "{} must be 0 or 1")],
    )
    X = np.column_stack([columns[f] for f in FEATURE_NAMES])
    domains = tuple(tuple(FEATURE_DOMAINS[name]) for name in FEATURE_NAMES)
    return LabeledDataset(X, columns["label"], domains)


def _save_matrix(matrix: np.ndarray, names, path):
    columns = np.asarray(matrix, dtype=float).T.tolist()
    write_csv(
        path, ["feature"] + list(names), [list(names)] + [list(map(repr, c)) for c in columns]
    )


def _load_irradiance_map(cfg: RunConfig, tracts) -> dict:
    series = {}
    for tract in sorted(set(tracts)):
        path = _require(_path(cfg, f"irradiance_{tract}.csv"), "toygen")
        series[tract] = load_irradiance(path, tract)
    return series


def cmd_toygen(cfg: RunConfig, args):
    toy = cfg.toy_config()
    os.makedirs(cfg.out_dir, exist_ok=True)
    pop = gen_population(toy)
    save_households(pop, _path(cfg, "households.csv"))
    for tract in tract_ids(toy):
        save_irradiance(gen_irradiance(toy, tract), _path(cfg, f"irradiance_{tract}.csv"))
    n_adopters = int(np.count_nonzero(pop.solar.filled(False)))
    save_targets([AdopterTarget(STATE, n_adopters)], _path(cfg, "targets.csv"))
    save_network(
        gen_network(len(pop), cfg.edge_prob, cfg.network_groups, cfg.seed),
        _path(cfg, "network.edges"),
    )
    _save_survey(gen_survey(toy, cfg.survey_size), _path(cfg, "survey.csv"))
    log.info("toygen: %d households, %d adopters, %d tracts", len(pop), n_adopters, toy.n_tracts)


def cmd_preprocess(cfg: RunConfig, args):
    pop = load_households(_require(_path(cfg, "households.csv"), "toygen"))
    data = dataset_from_households(pop, "solar")
    names = list(FEATURE_NAMES) + ["label"]
    _save_matrix(correlation_matrix(data, include_label=True), names, _path(cfg, "corr_before.csv"))
    balanced = smoten_oversample(data, k=cfg.smoten_k, seed=cfg.seed)
    _save_matrix(correlation_matrix(balanced, include_label=True), names, _path(cfg, "corr_after.csv"))
    _save_dataset(balanced, _path(cfg, "train_solar.csv"))
    log.info(
        "preprocess: %d rows balanced to %d (classes %s)",
        len(data), len(balanced), balanced.class_counts(),
    )


def cmd_classify_sqft(cfg: RunConfig, args):
    pop = load_households(_require(_path(cfg, "households.csv"), "toygen"))
    data = dataset_from_households(pop, "sqft_class")
    predicted = train_ovr(data, cfg.gbt_params()).predict_labels(data.X)
    agree = int(np.count_nonzero(predicted == pop.sqft_class.filled(-1)))
    save_households(pop.replace(sqft_class=predicted), _path(cfg, "households_classified.csv"))
    log.info("classify-sqft: %d/%d match the planted class", agree, len(pop))


def cmd_estimate_sqft(cfg: RunConfig, args):
    pop = load_households(_require(_path(cfg, "households_classified.csv"), "classify-sqft"))
    survey = _load_survey(_require(_path(cfg, "survey.csv"), "toygen"))
    classes = pop.labels("sqft_class")
    weights = {
        k: subclass_weights(survey, sqft_class_range(k), cfg.sqft_k)
        for k in np.unique(classes).tolist()
    }
    values = np.empty(len(pop))
    size = cfg.sqft_m + cfg.sqft_m * cfg.sqft_l
    for start in range(0, len(pop), _SQFT_CHUNK):
        # household i draws from its own stream rng_for(seed, "sqft", i)
        draws = stream_rows(cfg.seed, "sqft", pop.id[start : start + _SQFT_CHUNK], size)
        chunk = classes[start : start + _SQFT_CHUNK]
        for k, w in weights.items():
            rows = np.flatnonzero(chunk == k)
            values[start + rows] = estimate_sqft(w, cfg.sqft_m, cfg.sqft_l, draws[rows])
    save_households(pop.replace(sqft_value=values), _path(cfg, "households_sqft.csv"))
    log.info("estimate-sqft: filled sqft_value for %d households", len(values))


def cmd_calibrate(cfg: RunConfig, args):
    train = _load_dataset(_require(_path(cfg, "train_solar.csv"), "preprocess"))
    pop = load_households(_require(_path(cfg, "households_sqft.csv"), "estimate-sqft"))
    targets = load_targets(_require(_path(cfg, "targets.csv"), "toygen"))
    if not targets:
        raise ValueError("targets.csv has no rows")
    total = AdopterTarget("total", sum(t.count for t in targets))
    result = calibrate(
        train, pop, total,
        budget=cfg.budget, init=cfg.init_points, seed=cfg.seed,
        gbt_params=cfg.gbt_params(),
    )
    save_trace(result, _path(cfg, "calibration_trace.csv"))
    save_model(result.model, _path(cfg, "model.txt"))
    decisions = apply_threshold(result.probabilities, result.tau_star)
    save_households(pop.replace(solar=decisions), _path(cfg, "households_twin.csv"))
    log.info(
        "calibrate: beta=%.2f tau=%.2f predicted=%d target=%d diff=%d rounds=%d%s",
        result.beta_star, result.tau_star, int(np.count_nonzero(decisions)),
        total.count, result.discrepancy, result.rounds_used,
        "" if result.converged else " (budget exhausted)",
    )


def _generate_variant(cfg: RunConfig, variant: str, label: str, dates):
    source = {
        "real": ("households_sqft.csv", "estimate-sqft"),
        "twin": ("households_twin.csv", "calibrate"),
    }[variant]
    pop = load_households(_require(_path(cfg, source[0]), source[1]))
    irradiance = _load_irradiance_map(cfg, pop.tract[pop.solar.filled(False)])
    profiles = generate_profiles(
        pop, irradiance, dates,
        workers=cfg.workers, seed=cfg.seed, n_samples=cfg.pv_samples,
    )
    out_dir = _path(cfg, variant)
    os.makedirs(out_dir, exist_ok=True)
    save_profiles(profiles, out_dir)
    save_daily(profiles, os.path.join(out_dir, f"daily_{label}.csv"))
    log.info("generate: %s side has %d household-days", variant, len(profiles))


def cmd_generate(cfg: RunConfig, args):
    label, dates = resolve_period(cfg, args)
    variants = ("real", "twin") if args.variant == "both" else (args.variant,)
    for variant in variants:
        _generate_variant(cfg, variant, label, dates)


def cmd_validate(cfg: RunConfig, args):
    label, dates = resolve_period(cfg, args)
    real = load_daily(_require(_path(cfg, "real", f"daily_{label}.csv"), "generate"))
    twin = load_daily(_require(_path(cfg, "twin", f"daily_{label}.csv"), "generate"))
    if len(real["household_id"]) < 2 or len(twin["household_id"]) < 2:
        raise ValueError("not enough household-days on one side to validate")
    real_daily, twin_daily = real["daily_mean_kwh"], twin["daily_mean_kwh"]
    rows = [("jsd_histogram", "daily_kwh", jsd_histogram(real_daily, twin_daily, cfg.hist_bins))]
    real_stds = real["daily_std_kwh"]
    bandwidth = real_stds if np.all(real_stds > 0) else None
    rows.append(("jsd_kde", "daily_kwh", jsd_kde(real_daily, twin_daily, bandwidth, cfg.kde_grid)))
    rows.append(("kld", "daily_kwh", kld(real_daily, twin_daily, cfg.hist_bins)))
    # each file is folded as it is read; the shapes' errors come after
    # both sides have loaded
    folds = [MonthlyFold("a"), MonthlyFold("b")]
    for side, fold in zip(("real", "twin"), folds):
        for d in dates:
            path = _require(_path(cfg, side, f"profiles_{d.isoformat()}.csv"), "generate")
            columns = load_profile_rows(path)  # checks each row is dated d
            fold.add(d.isoformat()[:7], columns["hour"], columns["mean_kwh"])
    for month, r in pearson_shapes(folds[0].shapes(), folds[1].shapes()).items():
        rows.append(("pearson", month, r))
    n_real = np.unique(real["household_id"]).size
    n_twin = np.unique(twin["household_id"]).size
    rows.append(("adopter_pct_diff", "count", relative_pct_diff(n_real, n_twin)))
    write_csv(
        _path(cfg, "metrics_report.csv"),
        ["metric", "scope", "value"],
        [
            [m for m, _, _ in rows], [scope for _, scope, _ in rows],
            ["" if v is None else repr(float(v)) for _, _, v in rows],
        ],
    )
    log.info("validate: wrote %d metric rows", len(rows))


def _case_configs(cfg: RunConfig, args) -> list:
    """One DiffusionConfig per case of --cases, or of the config."""
    cases = parse_cases(args.cases) if args.cases is not None else cfg.cases
    return [cfg.diffusion_config(case) for case in cases]


def cmd_simulate(cfg: RunConfig, args):
    configs = _case_configs(cfg, args)
    _, dates = resolve_period(cfg, args)
    pop = load_households(_require(_path(cfg, "households_twin.csv"), "calibrate"))
    graph = load_network(_require(_path(cfg, "network.edges"), "toygen"), len(pop))
    irradiance = _load_irradiance_map(cfg, pop.tract)
    # personal benefit needs generation for every household, adopter or not
    everyone = pop.replace(solar=np.ones(len(pop), dtype=bool))
    mean_daily = generate_profiles(
        everyone, irradiance, dates,
        workers=cfg.workers, seed=cfg.seed, n_samples=cfg.pv_samples, hourly=False,
    ).mean_daily
    with np.errstate(over="ignore"):  # rebate_value rejects an overflow
        annual_kwh = mean_daily * 365.0
    nodes = build_nodes(pop, graph, mean_daily)
    initial = np.flatnonzero(pop.solar.filled(False))
    rows = []
    for config in configs:
        case_rows = simulate(nodes, config, initial, annual_kwh)
        rows += case_rows
        log.info(
            "simulate: case %s ended with %s adopters",
            config.case, case_rows[-1]["total_adopters"],
        )
    save_timeline(rows, _path(cfg, "adoption_timeline.csv"))


def cmd_pipeline(cfg: RunConfig, args):
    # every flag is checked before toygen writes; the period must lie in
    # the span of irradiance that toygen writes
    _case_configs(cfg, args)
    _, dates = resolve_period(cfg, args)
    last = cfg.start_date + timedelta(days=cfg.days - 1)
    if dates[0] < cfg.start_date or dates[-1] > last:
        raise ValueError(
            f"period {args.period} is outside the toygen span "
            f"{cfg.start_date.isoformat()} to {last.isoformat()}"
        )
    cmd_toygen(cfg, args)
    cmd_preprocess(cfg, args)
    cmd_classify_sqft(cfg, args)
    cmd_estimate_sqft(cfg, args)
    cmd_calibrate(cfg, args)
    generate_args = argparse.Namespace(**vars(args))
    generate_args.variant = "both"
    cmd_generate(cfg, generate_args)
    cmd_validate(cfg, args)
    cmd_simulate(cfg, args)


STAGES = {
    "toygen": cmd_toygen,
    "preprocess": cmd_preprocess,
    "classify-sqft": cmd_classify_sqft,
    "estimate-sqft": cmd_estimate_sqft,
    "calibrate": cmd_calibrate,
    "generate": cmd_generate,
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "pipeline": cmd_pipeline,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file")
    common.add_argument("--seed", type=int, help="override the run seed")
    common.add_argument("--workers", type=int, help="process count for profile generation")
    common.add_argument("--out", help="output directory (default: out)")
    common.add_argument(
        "--period",
        help="date:YYYY-MM-DD | week:YYYY-Wnn | month:YYYY-MM | year:YYYY "
        "(default: the config's start_date/days span)",
    )
    parser = argparse.ArgumentParser(
        prog="solartwin",
        description="Rooftop-solar digital twin pipeline on synthetic data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "toygen": "write synthetic households, irradiance, targets, network, survey",
        "preprocess": "balance the adopter training data and report associations",
        "classify-sqft": "predict square-footage classes with the boosted ensemble",
        "estimate-sqft": "turn classes into square footage via survey sub-interval draws",
        "calibrate": "search (beta, tau) until predicted adopters match the target",
        "generate": "sample hourly PV energy profiles for adopters",
        "validate": "compare real and twin generation distributions",
        "simulate": "run policy-case adoption contagion on the network",
        "pipeline": "run every stage in order",
    }
    for name in STAGES:
        p = sub.add_parser(name, parents=[common], help=helps[name])
        if name == "generate":
            p.add_argument("--variant", choices=("real", "twin", "both"), default="both")
        if name in ("simulate", "pipeline"):
            p.add_argument("--cases", help="comma list of policy cases (default: all)")
    return parser


def _setup_logging():
    level_name = os.environ.get("SOLARTWIN_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        level_name = "error"
    logging.basicConfig(
        stream=sys.stderr, level=levels[level_name], format="%(levelname)s %(message)s"
    )


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    stage = args.command
    try:
        flags = {"seed": args.seed, "workers": args.workers, "out_dir": args.out}
        cfg = replace(
            load_config(args.config),
            **{name: value for name, value in flags.items() if value is not None},
        )
        STAGES[stage](cfg, args)
    except Exception as exc:  # single-line error contract
        print(f"error: {stage}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
