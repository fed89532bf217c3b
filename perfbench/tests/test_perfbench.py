"""Tests of the benchmark itself, on each workload at reduced size.

    python3 -m pytest -q perfbench/tests

They show that every output check passes on real output and rejects a
deliberately corrupted copy, that a traced pipeline reports every layer
metric, that outputs repeat byte for byte, and that energy-policy-90d's outputs
do not depend on --workers.  They are not part of the repository's tier-1
``testpaths``.
"""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from solartwin.records import sqft_class_range  # noqa: E402

SMALL = {
    "pipeline-2k": {"toygen": {"n_households": "200", "days": "3"}},
    "energy-policy-90d": {
        "toygen": {"n_households": "200", "days": "10"},
        "diffusion": {"iterations": "3", "time_steps": "6"},
    },
}
FAST_BOOSTING = {"boosting": {"rounds": "15"}}


def small_config(workload, **sections):
    overrides = {s: dict(v) for s, v in SMALL[workload].items()}
    for section, keys in {**FAST_BOOSTING, **sections}.items():
        overrides.setdefault(section, {}).update(keys)
    return run.workload_config(workload, overrides)


def pipeline(config, tmp_path, seed=3, traced=False):
    result = run.run_pipeline(config, seed, traced, tmp_path / f"scratch-{seed}-{traced}", 300)
    assert result["report"] is not None and result["report"]["rc"] == 0, result["error"]
    return result


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """Workload -> (output directory, Expect) of one reduced pipeline each."""
    base = tmp_path_factory.mktemp("clean")
    outs = {}
    for workload in SMALL:
        config = small_config(workload)
        outs[workload] = (pipeline(config, base / workload)["out"], run.expect_from(config))
    return outs


@pytest.fixture
def copy(clean, tmp_path):
    """A fresh copy of the pipeline-2k output to corrupt."""
    out, expect = clean["pipeline-2k"]
    target = tmp_path / "out"
    shutil.copytree(out, target)
    return target, expect


def edit_csv(path, change):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames
        rows = list(reader)
    rows = change(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


def set_field(index, field, value):
    def change(rows):
        rows[index][field] = value(rows[index][field])
        return rows
    return change


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_every_check_passes_on_real_output(clean, workload):
    out, expect = clean[workload]
    assert checks.check_outputs(out, expect, sqft_class_range) == {}


def test_unbalanced_training_data_is_rejected(copy):
    out, _ = copy
    edit_csv(out / "train_solar.csv", set_field(-1, "label", lambda v: "1" if v == "0" else "0"))
    assert "not class-balanced" in checks.check_balanced(out)[0]


def test_sqft_outside_its_class_is_rejected(copy):
    out, _ = copy
    edit_csv(out / "households_sqft.csv", set_field(
        0, "sqft_value", lambda v: "9000.0"))
    assert "outside class" in checks.check_sqft_range(out, sqft_class_range)[0]


def test_twin_count_must_match_best_trace_row(copy):
    out, _ = copy
    edit_csv(out / "households_twin.csv", set_field(
        0, "solar", lambda v: "1" if v == "0" else "0"))
    assert any("best trace row predicted" in p for p in checks.check_calibration(out))


def test_best_trace_row_must_be_within_band(copy):
    out, _ = copy

    def miss(rows):
        for r in rows:
            r["predicted"] = str(2 * int(r["target"]))
            r["diff"] = r["target"]
        return rows

    edit_csv(out / "calibration_trace.csv", miss)
    assert any("(> 15%)" in p for p in checks.check_calibration(out))


def _profile_path(out, expect, side="real"):
    return out / side / f"profiles_{expect.dates[0].isoformat()}.csv"


def _daily_path(out, expect, side="real"):
    return out / side / f"daily_{expect.label}.csv"


def test_energy_in_a_dark_hour_is_rejected(copy):
    out, expect = copy
    # hour 0 is night in every tract
    edit_csv(_profile_path(out, expect), set_field(0, "mean_kwh", lambda v: "0.001"))
    assert any("zero GHI" in p for p in checks.check_profiles(out, expect))


@pytest.mark.parametrize("field", ["mean_kwh", "std_kwh"])
def test_hour_off_the_ghi_ratio_is_rejected(copy, field):
    out, expect = copy
    edit_csv(_profile_path(out, expect), set_field(12, field, lambda v: repr(float(v) * 1.01)))
    name = field.split("_")[0]
    assert any(f"hourly {name}/GHI not constant" in p for p in checks.check_profiles(out, expect))


@pytest.mark.parametrize("field,message", [
    ("daily_mean_kwh", "daily_mean != sum(hourly mean)"),
    ("daily_std_kwh", "daily_std^2 != sum(hourly std^2)"),
])
def test_daily_aggregate_off_the_hourly_sum_is_rejected(copy, field, message):
    out, expect = copy
    edit_csv(_daily_path(out, expect), set_field(0, field, lambda v: repr(float(v) * (1 + 1e-6))))
    assert any(message in p for p in checks.check_profiles(out, expect))


def test_missing_household_day_is_rejected(copy):
    out, expect = copy
    edit_csv(_daily_path(out, expect, "twin"), lambda rows: rows[:-1])
    assert any("one per adopter per date" in p for p in checks.check_profiles(out, expect))


@pytest.mark.parametrize("metric,scope,delta,message", [
    ("jsd_histogram", "daily_kwh", 1e-9, "jsd_histogram is"),
    ("adopter_pct_diff", "count", 1.0, "adopter_pct_diff is"),
])
def test_report_rows_are_recomputed(copy, metric, scope, delta, message):
    out, expect = copy

    def shift(rows):
        for r in rows:
            if (r["metric"], r["scope"]) == (metric, scope):
                r["value"] = repr(float(r["value"]) + delta)
        return rows

    edit_csv(out / "metrics_report.csv", shift)
    assert any(message in p for p in checks.check_report(out, expect))


@pytest.mark.parametrize("step,change,message", [
    (3, lambda rows, i: str(float(rows[i - 1]["total_adopters"]) - 1), "total adopters fall"),
    (0, lambda rows, i: str(float(rows[i]["total_adopters"]) + 1), "step 0 has"),
    (2, lambda rows, i: str(float(rows[i]["total_adopters"]) + 0.5), "quadrants do not sum"),
])
def test_bad_timeline_is_rejected(copy, step, change, message):
    out, expect = copy

    def corrupt(rows):
        i = next(k for k, r in enumerate(rows) if r["case"] == "1a" and int(r["step"]) == step)
        rows[i]["total_adopters"] = change(rows, i)
        return rows

    edit_csv(out / "adoption_timeline.csv", corrupt)
    assert any(message in p for p in checks.check_timeline(out, expect))


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_pipeline_reports_every_layer(tmp_path, workload):
    config = small_config(workload)
    result = pipeline(config, tmp_path, traced=True)
    values = tracer.layer_metrics(result["report"]["spans"], result["report"]["counters"])
    assert set(values) == {name for name, _ in tracer.LAYER_METRICS}
    expect = run.expect_from(config)
    iterations = int(config["diffusion"]["iterations"])
    assert values["diffusion.steps"] == len(expect.cases) * iterations * expect.time_steps
    # one-vs-rest members in classify-sqft, then one per new beta in calibrate
    assert values["boosting.trainings"] > values["calibrate.trainings"] >= 1
    assert values["calibrate.trainings"] <= values["calibrate.evaluations"]
    for stage in tracer.STAGES:
        assert 0 <= values[f"cli.{stage}.self_s"] <= values[f"cli.{stage}_s"]
    assert values["pv.households_sampled"] > 0 and values["pv.profile_s"] > 0
    # sampling inside pool workers is out of the wrapper's sight
    workers = int(config["run"]["workers"])
    assert (values["pv.sample_s"] > 0) == (workers == 1)


def test_same_seed_gives_identical_outputs(clean, tmp_path):
    out, _ = clean["pipeline-2k"]
    again = pipeline(small_config("pipeline-2k"), tmp_path)["out"]
    other = pipeline(small_config("pipeline-2k"), tmp_path, seed=4)["out"]
    assert checks.tree_digest(again) == checks.tree_digest(out)
    assert checks.tree_digest(other) != checks.tree_digest(out)


def test_digest_key_changes_with_the_config():
    base = run.workload_config("energy-policy-90d")
    resized = run.workload_config("energy-policy-90d", {"toygen": {"n_households": "100"}})
    assert run.source_signature(base) == run.source_signature(run.workload_config("energy-policy-90d"))
    assert run.source_signature(resized) != run.source_signature(base)


def test_trimmed_mean_drops_the_extremes():
    assert run.trimmed_mean([9.0, 1.0, 2.0, 3.0, 4.0]) == 3.0
    assert run.trimmed_mean([2.0, 4.0]) == 3.0
    assert run.trimmed_mean([]) == 0.0


def test_energy_outputs_do_not_depend_on_workers(clean, tmp_path):
    out, _ = clean["energy-policy-90d"]
    assert run.workload_config("energy-policy-90d")["run"]["workers"] == "2"
    single = pipeline(small_config("energy-policy-90d", run={"workers": "1"}), tmp_path)["out"]
    assert checks.tree_digest(single) == checks.tree_digest(out)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline-2k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not os.path.exists(tmp_path / ".perfbench")
