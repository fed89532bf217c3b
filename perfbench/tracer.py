"""Spans around the calls into each solartwin layer, recorded from outside.

A wrapper replaces a function where its caller looks it up (a module
attribute), so the program itself is unchanged.  Each call records a span
``[name, start, end, parent]`` in memory, with ``time.monotonic()`` stamps
so they line up with the parent process's clock, and may add to named
counters.  ``layer_metrics`` turns the spans and counters of one pipeline
into the per-layer metrics; a layer's self time is its span minus the time
its child spans cover.

Calls made inside ``--workers`` pool processes run in another process, so
their spans are never seen here.
"""

import functools
import importlib
import resource
import time

STAGES = (
    "toygen",
    "preprocess",
    "classify-sqft",
    "estimate-sqft",
    "calibrate",
    "generate",
    "validate",
    "simulate",
)

# Spans whose time counts as CSV loading or saving: every load_*/save_* in
# records and pv, plus the CSV codecs that still live in cli.
LOAD_SPANS = {
    "records.load_households", "records.load_irradiance", "records.load_network",
    "records.load_targets", "records.load_survey", "records.load_dataset",
    "pv.load_daily", "pv.load_profile_rows",
}
SAVE_SPANS = {
    "records.save_households", "records.save_irradiance", "records.save_network",
    "records.save_targets", "records.save_survey", "records.save_dataset",
    "records.save_matrix", "pv.save_profiles", "pv.save_daily",
    "calibrate.save_trace", "boosting.save_model", "diffusion.save_timeline",
}
GP_SPANS = {"calibrate.gp_fit", "calibrate.gp_predict", "calibrate.expected_improvement"}
SCORE_SPANS = {
    "metrics.jsd_histogram", "metrics.jsd_kde", "metrics.kld", "metrics.pearson_monthly",
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder; one per pipeline process."""

    def __init__(self):
        self.spans = []
        self.counters = {}
        self._stack = []

    def add(self, counter: str, amount: float):
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def wrap(self, module, attr: str, name: str, count=None):
        """Replace ``module.attr`` by a wrapper that records span ``name``.

        ``count(tracer, args, kwargs, result)`` runs after the span closes.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.monotonic(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.monotonic()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        setattr(module, attr, traced)


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


def _count_toygen(t, args, kwargs, result):
    t.add("toygen.peak_rss_mb", _peak_rss_mb())


def _count_network(t, args, kwargs, result):
    t.add("toygen.edges", result.edge_count)


def _count_smoten(t, args, kwargs, result):
    t.add("preprocess.synthetic_rows", len(result) - len(_arg(args, kwargs, 0, "data")))


def _count_train(t, args, kwargs, result):
    rows = _arg(args, kwargs, 0, "data").X.shape[0]
    t.add("boosting.trees", len(result.trees))
    t.add("boosting.row_rounds", rows * len(result.trees))


def _count_calibration(t, args, kwargs, result):
    t.add("calibrate.evaluations", result.rounds_used)


def _count_calibrate_training(t, args, kwargs, result):
    t.add("calibrate.trainings", 1)
    _count_train(t, args, kwargs, result)


def _count_generate(t, args, kwargs, result):
    pop = _arg(args, kwargs, 0, "pop")
    t.add("pv.households_sampled", sum(1 for rec in pop if rec.solar))
    t.add("pv.household_days", len(result))


def _count_step(t, args, kwargs, result):
    t.add("diffusion.node_steps", result.nodes.n)


def install(tracer: Tracer, full: bool):
    """Spans around the eight stage commands; with ``full``, also around
    every layer entry point."""
    cli = importlib.import_module("solartwin.cli")
    for stage in STAGES:
        tracer.wrap(cli, "cmd_" + stage.replace("-", "_"), "cli." + stage,
                    _count_toygen if full and stage == "toygen" else None)
    if not full:
        return
    boosting = importlib.import_module("solartwin.boosting")
    calibrate = importlib.import_module("solartwin.calibrate")
    pv = importlib.import_module("solartwin.pv")
    diffusion = importlib.import_module("solartwin.diffusion")
    # where cli looks them up
    cli_calls = {
        "load_households": "records.load_households",
        "save_households": "records.save_households",
        "load_irradiance": "records.load_irradiance",
        "save_irradiance": "records.save_irradiance",
        "load_network": "records.load_network",
        "save_network": "records.save_network",
        "load_targets": "records.load_targets",
        "save_targets": "records.save_targets",
        "_load_survey": "records.load_survey",
        "_save_survey": "records.save_survey",
        "_load_dataset": "records.load_dataset",
        "_save_dataset": "records.save_dataset",
        "_save_matrix": "records.save_matrix",
        "load_daily": "pv.load_daily",
        "load_profile_rows": "pv.load_profile_rows",
        "save_daily": "pv.save_daily",
        "save_profiles": "pv.save_profiles",
        "gen_population": "toygen.gen_population",
        "gen_irradiance": "toygen.gen_irradiance",
        "gen_survey": "toygen.gen_survey",
        "correlation_matrix": "preprocess.correlation_matrix",
        "train_ovr": "boosting.train_ovr",
        "predict_proba": "boosting.predict_proba",
        "save_model": "boosting.save_model",
        "save_trace": "calibrate.save_trace",
        "subclass_weights": "sqft.subclass_weights",
        "estimate_sqft": "sqft.estimate_sqft",
        "jsd_histogram": "metrics.jsd_histogram",
        "jsd_kde": "metrics.jsd_kde",
        "kld": "metrics.kld",
        "pearson_monthly": "metrics.pearson_monthly",
        "simulate": "diffusion.simulate",
        "save_timeline": "diffusion.save_timeline",
    }
    for attr, name in cli_calls.items():
        tracer.wrap(cli, attr, name)
    tracer.wrap(cli, "gen_network", "toygen.gen_network", _count_network)
    tracer.wrap(cli, "smoten_oversample", "preprocess.smoten_oversample", _count_smoten)
    tracer.wrap(cli, "calibrate", "calibrate.calibrate", _count_calibration)
    tracer.wrap(cli, "generate_profiles", "pv.generate_profiles", _count_generate)

    tracer.wrap(boosting, "train_gbt", "boosting.train_gbt", _count_train)
    tracer.wrap(boosting, "predict_proba", "boosting.predict_proba")
    tracer.wrap(calibrate, "train_gbt", "boosting.train_gbt", _count_calibrate_training)
    tracer.wrap(calibrate, "predict_proba", "boosting.predict_proba")
    for attr in ("gp_fit", "gp_predict", "expected_improvement"):
        tracer.wrap(calibrate, attr, "calibrate." + attr)
    tracer.wrap(pv, "sample_time_invariant", "pv.sample_time_invariant")
    tracer.wrap(diffusion, "build_nodes", "diffusion.build_nodes")
    tracer.wrap(diffusion, "step", "diffusion.step", _count_step)


def span_times(spans):
    """Per span name: (count, total duration, total self time)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, parent) in enumerate(spans):
        count, total, own = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (count + 1, total + (end - start), own + (end - start - child_time[i]))
    return totals


def stage_seconds(spans) -> dict:
    """Stage name -> (start, end) of its span."""
    return {
        name[len("cli."):]: (start, end)
        for name, start, end, _ in spans
        if name.startswith("cli.") and name[len("cli."):] in STAGES
    }


# (name, unit) of every per-layer metric, in print order
LAYER_METRICS = (
    [(f"cli.{s}_s", "s") for s in STAGES]
    + [(f"cli.{s}.self_s", "s") for s in STAGES]
    + [
        ("toygen.gen_population_s", "s"),
        ("toygen.gen_network_s", "s"),
        ("toygen.edges", "count"),
        ("toygen.peak_rss_mb", "MB"),
        ("records.load_s", "s"),
        ("records.save_s", "s"),
        ("records.rows_written", "count"),
        ("records.bytes_written", "bytes"),
        ("preprocess.smoten_s", "s"),
        ("preprocess.correlation_s", "s"),
        ("preprocess.synthetic_rows", "count"),
        ("boosting.train_s", "s"),
        ("boosting.trainings", "count"),
        ("boosting.trees", "count"),
        ("boosting.row_rounds", "count"),
        ("boosting.predict_s", "s"),
        ("calibrate.evaluations", "count"),
        ("calibrate.trainings", "count"),
        ("calibrate.cache_hit_ratio", "ratio"),
        ("calibrate.gp_s", "s"),
        ("calibrate.self_s", "s"),
        ("sqft.estimate_s", "s"),
        ("pv.generate_s", "s"),
        ("pv.sample_s", "s"),
        ("pv.profile_s", "s"),
        ("pv.household_days", "count"),
        ("pv.households_sampled", "count"),
        ("metrics.score_s", "s"),
        ("diffusion.simulate_s", "s"),
        ("diffusion.build_nodes_s", "s"),
        ("diffusion.step_s", "s"),
        ("diffusion.steps", "count"),
        ("diffusion.node_steps_per_s", "1/s"),
    ]
)


def layer_metrics(spans, counters) -> dict:
    """Per-layer metric values of one traced pipeline."""
    times = span_times(spans)

    def total(*names):
        return sum(times.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    c = counters.get
    out = {}
    for s in STAGES:
        out[f"cli.{s}_s"] = total("cli." + s)
        out[f"cli.{s}.self_s"] = own("cli." + s)
    evaluations = c("calibrate.evaluations", 0.0)
    trainings = c("calibrate.trainings", 0.0)
    step_s = total("diffusion.step")
    generate_s = total("pv.generate_profiles")
    sample_s = total("pv.sample_time_invariant")
    out.update({
        "toygen.gen_population_s": total("toygen.gen_population"),
        "toygen.gen_network_s": total("toygen.gen_network"),
        "toygen.edges": c("toygen.edges", 0.0),
        "toygen.peak_rss_mb": c("toygen.peak_rss_mb", 0.0),
        "records.load_s": total(*LOAD_SPANS),
        "records.save_s": total(*SAVE_SPANS),
        "records.rows_written": c("records.rows_written", 0.0),
        "records.bytes_written": c("records.bytes_written", 0.0),
        "preprocess.smoten_s": total("preprocess.smoten_oversample"),
        "preprocess.correlation_s": total("preprocess.correlation_matrix"),
        "preprocess.synthetic_rows": c("preprocess.synthetic_rows", 0.0),
        "boosting.train_s": total("boosting.train_gbt"),
        "boosting.trainings": calls("boosting.train_gbt"),
        "boosting.trees": c("boosting.trees", 0.0),
        "boosting.row_rounds": c("boosting.row_rounds", 0.0),
        "boosting.predict_s": total("boosting.predict_proba"),
        "calibrate.evaluations": evaluations,
        "calibrate.trainings": trainings,
        "calibrate.cache_hit_ratio": 1.0 - trainings / evaluations if evaluations else 0.0,
        "calibrate.gp_s": total(*GP_SPANS),
        "calibrate.self_s": own("calibrate.calibrate"),
        "sqft.estimate_s": total("sqft.estimate_sqft", "sqft.subclass_weights"),
        "pv.generate_s": generate_s,
        "pv.sample_s": sample_s,
        "pv.profile_s": generate_s - sample_s,
        "pv.household_days": c("pv.household_days", 0.0),
        "pv.households_sampled": c("pv.households_sampled", 0.0),
        "metrics.score_s": total(*SCORE_SPANS),
        "diffusion.simulate_s": total("diffusion.simulate"),
        "diffusion.build_nodes_s": total("diffusion.build_nodes"),
        "diffusion.step_s": step_s,
        "diffusion.steps": calls("diffusion.step"),
        "diffusion.node_steps_per_s": c("diffusion.node_steps", 0.0) / step_s if step_s else 0.0,
    })
    return out
