"""Config loading and the command line pipeline, run in process."""

import configparser
import importlib.util
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from datetime import date
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from solartwin.boosting import GbtParams
from solartwin.cli import main, parse_period, resolve_period
from solartwin.config import RunConfig, _schema, load_config
from solartwin.diffusion import CASES, DiffusionConfig
from solartwin.records import load_households, save_households
from solartwin.toygen import ToyConfig

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_leaves_out_scipy_and_csv():
    # the booster's sigmoid is numpy's and the GP imports scipy when it
    # first runs, so no scipy module is paid for at CLI start; records
    # reads and writes its one CSV dialect without the csv module
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, solartwin.cli; "
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy' or m in ('csv', '_csv')))",
        ],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_defaults():
    cfg = load_config(None)
    assert cfg.seed == 0
    assert cfg.workers == 1
    assert cfg.n_households == 500
    assert cfg.days == 7
    assert cfg.start_date == date(2018, 1, 1)
    assert cfg.rounds == 100
    assert cfg.budget == 2000
    assert cfg.cases == CASES
    assert cfg.diffusion_weights == (0.4, 0.3, 0.3)


def test_ini_overrides(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nseed = 7\nworkers = 2\n"
        "[toygen]\nn_households = 40\nn_tracts = 2\nstart_date = 2018-03-01\n"
        "[calibrate]\nbudget = 50\ninit_points = 5\n"
        "[diffusion]\ncases = 1a, 1b\n"
    )
    cfg = load_config(str(ini))
    assert cfg.seed == 7
    assert cfg.workers == 2
    assert cfg.n_households == 40
    assert cfg.start_date == date(2018, 3, 1)
    assert cfg.budget == 50
    assert cfg.cases == ("1a", "1b")
    # untouched keys keep defaults
    assert cfg.days == 7


def test_config_errors(tmp_path):
    bogus = tmp_path / "bogus.ini"
    bogus.write_text("[toygen]\nplanets = 9\n")
    with pytest.raises(ValueError, match=r"unknown config key \[toygen\] planets"):
        load_config(str(bogus))
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nseed = abc\n")
    with pytest.raises(ValueError, match=r"bad value for \[run\] seed: 'abc'"):
        load_config(str(bad))
    with pytest.raises(ValueError, match="cannot read config file"):
        load_config(str(tmp_path / "missing.ini"))


# every INI key the loader accepts, by section
ACCEPTED_KEYS = {
    "run": ("seed", "workers", "out_dir"),
    "toygen": (
        "n_households", "n_tracts", "adopter_fraction", "lmi_fraction", "days",
        "start_date", "signal_shift", "survey_size", "edge_prob", "network_groups",
    ),
    "boosting": ("rounds", "depth", "learning_rate", "reg_lambda", "min_child_hess"),
    "smoten": ("k",),
    "calibrate": ("budget", "init_points"),
    "sqft": ("m", "l", "k"),
    "pv": ("samples",),
    "diffusion": (
        "time_steps", "iterations", "weight_benefit", "weight_county", "weight_network",
        "cost_per_watt", "credit_rate", "lmi_extra_credit", "capacity_factor", "cases",
    ),
    "validate": ("hist_bins", "kde_grid"),
}


def _identity():
    """The identity tool, which defines the standard runs' INI texts."""
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    return identity


def test_identity_names_first_differing_line(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    for side, texts in ((old, (b"a\nb\nc\n", b"x\n", b"\xff", b"same")),
                        (new, (b"a\nB\nc\n", b"x\ny\n", b"\xfe", b"same"))):
        side.mkdir()
        for name, data in zip(("model.txt", "short.csv", "blob.bin", "same.csv"), texts):
            (side / name).write_bytes(data)
    assert _identity().compare(old, new) == 3
    assert capsys.readouterr().out.splitlines() == [
        "differs: blob.bin",
        "differs: model.txt (line 2)",
        "differs: short.csv (line 2)",
        "4 files compared, 3 differ or are missing",
    ]


def test_every_ini_key_reaches_its_field(tmp_path):
    pairs = [(section, key) for section, keys in ACCEPTED_KEYS.items() for key in keys]
    assert len(pairs) == 37
    assert [(section, key) for section, key, _, _ in _schema()] == pairs
    assert sorted(name for _, _, name, _ in _schema()) == sorted(f.name for f in fields(RunConfig))
    ini = tmp_path / "every.ini"
    ini.write_text(_identity().EVERY_KEY_INI)
    written = configparser.ConfigParser(interpolation=None)
    written.read(ini)
    assert [(section, key) for section in written.sections() for key in written[section]] == pairs
    cfg = load_config(str(ini))
    assert {f.name: getattr(cfg, f.name) for f in fields(cfg)} == {
        "seed": 11, "workers": 2, "out_dir": "runs/every-key",
        "n_households": 300, "n_tracts": 6, "adopter_fraction": 0.15, "lmi_fraction": 0.25,
        "days": 3, "start_date": date(2018, 6, 1), "signal_shift": 5, "survey_size": 700,
        "edge_prob": 0.05, "network_groups": 14,
        "rounds": 30, "depth": 4, "learning_rate": 0.45, "reg_lambda": 2.0,
        "min_child_hess": 0.01,
        "smoten_k": 7, "budget": 60, "init_points": 8, "sqft_m": 9, "sqft_l": 12, "sqft_k": 13,
        "pv_samples": 10,
        "time_steps": 15, "iterations": 16, "weight_benefit": 0.6, "weight_county": 0.12,
        "weight_network": 0.28, "cost_per_watt": 2.5, "credit_rate": 0.26,
        "lmi_extra_credit": 0.1, "capacity_factor": 0.18, "cases": ("1a", "3", "5"),
        "hist_bins": 40, "kde_grid": 256,
    }
    default = RunConfig()
    assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in fields(cfg))
    assert cfg.toy_config() == ToyConfig(
        n_households=300, n_tracts=6, adopter_fraction=0.15, lmi_fraction=0.25, seed=11,
        days=3, start_date=date(2018, 6, 1), signal_shift=5,
    )
    assert cfg.gbt_params() == GbtParams(
        rounds=30, depth=4, learning_rate=0.45, reg_lambda=2.0, min_child_hess=0.01
    )
    assert cfg.diffusion_config("3") == DiffusionConfig(
        case="3", weights=(0.6, 0.12, 0.28), time_steps=15, iterations=16, seed=11,
        cost_per_watt=2.5, credit_rate=0.26, lmi_extra_credit=0.1, capacity_factor=0.18,
    )


def test_run_config_defaults_match_settings_defaults():
    # each default is declared on RunConfig and again on its settings class
    cfg = RunConfig()
    assert cfg.toy_config() == ToyConfig()
    assert cfg.gbt_params() == GbtParams()
    for case in CASES:
        assert cfg.diffusion_config(case) == DiffusionConfig(case=case)


@pytest.mark.parametrize(
    "text, key",
    [
        ("[DEFAULT]\nseed = 5\n", "seed"),
        ("[DEFAULT]\nseed = 5\n[run]\nworkers = 2\n", "seed"),
        ("[DEFAULT]\nseed = 5\n[toygen]\ndays = 2\n", "seed"),
        ("[run]\nworkers = 2\n[DEFAULT]\nplanets = 9\n", "planets"),
    ],
)
def test_config_rejects_default_section(tmp_path, capsys, text, key):
    # [DEFAULT] is not a fallback for the other sections: each key in it is
    # unknown, whichever sections come with it
    ini = tmp_path / "default.ini"
    ini.write_text(text)
    message = f"unknown config key [DEFAULT] {key}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(str(ini))
    assert main(["toygen", "--config", str(ini), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: toygen: {message}\n"


def test_config_reads_percent_literally(tmp_path):
    ini = tmp_path / "percent.ini"
    ini.write_text("[run]\nout_dir = runs/50%\n[diffusion]\ncases = 1a, %(seed)s\n")
    with pytest.raises(ValueError, match=re.escape("unknown case '%(seed)s'")):
        load_config(str(ini))
    ini.write_text("[run]\nout_dir = runs/50%%(seed)s%\n")
    assert load_config(str(ini)).out_dir == "runs/50%%(seed)s%"


def test_validate_guards():
    with pytest.raises(ValueError, match="workers"):
        replace(RunConfig(), workers=0)
    with pytest.raises(ValueError, match="sum to 1"):
        replace(RunConfig(), weight_benefit=0.9)
    with pytest.raises(ValueError, match="unknown case"):
        replace(RunConfig(), cases=("8x",))


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("diffusion", "iterations", "0", "iterations must be >= 1"),
        ("diffusion", "time_steps", "-1", "time_steps must be >= 0"),
        ("diffusion", "capacity_factor", "0", "capacity_factor must be > 0"),
        ("boosting", "depth", "0", "depth must be >= 1"),
        ("boosting", "learning_rate", "0", "learning_rate must be > 0"),
        ("toygen", "network_groups", "0", "network_groups must be >= 1"),
        ("toygen", "adopter_fraction", "1.5", "adopter_fraction must be in [0, 1]"),
        ("toygen", "n_tracts", "201", "n_tracts must not exceed n_households"),
        ("smoten", "k", "0", "smoten k must be >= 1"),
        ("calibrate", "budget", "9", "need budget >= init_points >= 1"),
    ] + [
        (section, key, value, message)
        for section, key, message in (
            ("boosting", "learning_rate", "learning_rate must be > 0"),
            ("boosting", "reg_lambda", "reg_lambda must be >= 0"),
            ("boosting", "min_child_hess", "min_child_hess must be finite and >= 0"),
            ("diffusion", "cost_per_watt", "cost_per_watt and capacity_factor must be > 0"),
            ("diffusion", "capacity_factor", "cost_per_watt and capacity_factor must be > 0"),
            ("diffusion", "credit_rate", "credit rates must be >= 0"),
            ("diffusion", "lmi_extra_credit", "credit rates must be >= 0"),
        )
        for value in ("nan", "inf")
    ],
)
def test_config_rejects_stage_settings_before_any_stage(
    tmp_path, capsys, section, key, value, message
):
    sections = {"toygen": {"n_households": "200"}}
    sections.setdefault(section, {})[key] = value
    ini = tmp_path / "bad.ini"
    ini.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()
    ))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_config(str(ini))
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(ini), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pipeline: ") and message in err
    assert not out.exists()


def test_parse_period_kinds():
    label, days = parse_period("date:2018-01-03")
    assert label == "2018-01-03"
    assert days == [date(2018, 1, 3)]
    label, days = parse_period("week:2018-W01")
    assert len(days) == 7
    assert days[0] == date(2018, 1, 1)  # ISO week 1 of 2018 starts on a Monday
    assert days[-1] == date(2018, 1, 7)
    label, days = parse_period("month:2018-02")
    assert len(days) == 28
    assert days[0] == date(2018, 2, 1)
    label, days = parse_period("year:2019")
    assert len(days) == 365
    assert days[-1] == date(2019, 12, 31)


def test_parse_period_errors():
    with pytest.raises(ValueError, match="kind:value"):
        parse_period("2018-01-03")
    with pytest.raises(ValueError, match="week periods"):
        parse_period("week:2018")
    with pytest.raises(ValueError, match="month periods"):
        parse_period("month:2018")
    with pytest.raises(ValueError, match="unknown period kind"):
        parse_period("quarter:2018-Q1")


def test_resolve_period_default_and_flag():
    cfg = RunConfig()
    label, days = resolve_period(cfg, SimpleNamespace(period=None))
    assert label == "2018-01-01_7d"
    assert len(days) == 7
    label, days = resolve_period(cfg, SimpleNamespace(period="date:2018-06-01"))
    assert label == "2018-06-01"


TINY_INI = _identity().TINY_INI


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One full pipeline run on a small world, shared across checks."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "tiny.ini"
    ini.write_text(TINY_INI)
    out = root / "out"
    code = main(["pipeline", "--config", str(ini), "--out", str(out)])
    return code, out, ini


def test_pipeline_exit_code(tiny_run):
    code, _, _ = tiny_run
    assert code == 0


def test_pipeline_artifacts(tiny_run):
    _, out, _ = tiny_run
    expected = [
        "households.csv", "targets.csv", "network.edges", "survey.csv",
        "corr_before.csv", "corr_after.csv", "train_solar.csv",
        "households_classified.csv", "households_sqft.csv",
        "calibration_trace.csv", "model.txt", "households_twin.csv",
        "metrics_report.csv", "adoption_timeline.csv",
    ]
    for name in expected:
        assert (out / name).exists(), name
    for variant in ("real", "twin"):
        daily = list((out / variant).glob("daily_*.csv"))
        profiles = list((out / variant).glob("profiles_*.csv"))
        assert len(daily) == 1
        assert len(profiles) == 2  # one per day
    tracts = list(out.glob("irradiance_*.csv"))
    assert len(tracts) == 2


def test_metrics_report_shape(tiny_run):
    _, out, _ = tiny_run
    lines = (out / "metrics_report.csv").read_text().splitlines()
    assert lines[0] == "metric,scope,value"
    metrics = {line.split(",")[0] for line in lines[1:]}
    assert "jsd_histogram" in metrics
    assert "adopter_pct_diff" in metrics


def test_stage_seed_override_changes_output(tiny_run, tmp_path):
    _, _, ini = tiny_run
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["toygen", "--config", str(ini), "--out", str(a)]) == 0
    assert main(["toygen", "--config", str(ini), "--out", str(b), "--seed", "4"]) == 0
    assert (a / "households.csv").read_bytes() != (b / "households.csv").read_bytes()


def test_toygen_is_byte_deterministic(tiny_run, tmp_path):
    _, _, ini = tiny_run
    a = tmp_path / "a"
    b = tmp_path / "b"
    for target in (a, b):
        assert main(["toygen", "--config", str(ini), "--out", str(target)]) == 0
    for name in ("households.csv", "survey.csv", "network.edges", "targets.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_single_variant(tiny_run, tmp_path):
    _, out, ini = tiny_run
    # rerun generate into the same tree but only for the real side
    code = main([
        "generate", "--config", str(ini), "--out", str(out), "--variant", "real",
    ])
    assert code == 0


@pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
def test_generate_names_household_with_overflowing_roof(tiny_run, tmp_path, capsys):
    _, out, ini = tiny_run
    run = tmp_path / "out"
    shutil.copytree(out, run)
    pop = load_households(run / "households_sqft.csv")
    row = int(np.flatnonzero(pop.solar.filled(False))[0])
    sqft = pop.sqft_value.copy()
    sqft[row] = 1.5e308  # finite, but 1.5 times it overflows
    save_households(pop.replace(sqft_value=sqft), run / "households_sqft.csv")
    code = main(["generate", "--config", str(ini), "--out", str(run), "--variant", "real"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: generate: household {pop.id[row]} has sqft_value 1.5e+308,"
        " whose roof area is not finite"
    ]


def test_preprocess_names_negative_household_id(tiny_run, tmp_path, capsys):
    _, out, ini = tiny_run
    run = tmp_path / "out"
    run.mkdir()
    lines = (out / "households.csv").read_text().splitlines()
    lines[1] = "-7" + lines[1][lines[1].index(","):]  # row 2's id
    (run / "households.csv").write_text("\n".join(lines) + "\n")
    code = main(["preprocess", "--config", str(ini), "--out", str(run)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: preprocess: households.csv: row 2, column id: -7 must be >= 0"
    ]


def _set_cell(path, row, column, value):
    """Rewrite one cell of a CSV file; rows are numbered from the header's 1."""
    lines = [line.split(",") for line in path.read_text().splitlines()]
    lines[row - 1][lines[0].index(column)] = value
    path.write_text("".join(",".join(line) + "\n" for line in lines))


@pytest.mark.parametrize(
    "column, value, message",
    [
        ("NHSLDMEM", "-1", "code -1 outside domain"),
        ("label", "99", "99 must be 0 or 1"),
    ],
)
def test_calibrate_names_bad_training_cell(tiny_run, tmp_path, capsys, column, value, message):
    _, out, ini = tiny_run
    run = tmp_path / "out"
    shutil.copytree(out, run)
    _set_cell(run / "train_solar.csv", 4, column, value)
    code = main(["calibrate", "--config", str(ini), "--out", str(run)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: calibrate: train_solar.csv: row 4, column {column}: {message}"
    ]


@pytest.mark.parametrize(
    "keep, label, found",
    [(0, None, []), (1, "1", [1]), (None, "0", [0]), (None, "1", [1])],
)
def test_calibrate_needs_both_label_classes(tiny_run, tmp_path, capsys, keep, label, found):
    # keep the first `keep` data rows, then set every label
    _, out, ini = tiny_run
    run = tmp_path / "out"
    shutil.copytree(out, run)
    path = run / "train_solar.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    if keep is not None:
        rows = rows[: keep + 1]
    if label is not None:
        for row in rows[1:]:
            row[-1] = label
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    assert main(["calibrate", "--config", str(ini), "--out", str(run)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: calibrate: train_solar.csv: column label: needs both classes 0 and 1,"
        f" found {found}"
    ]


@pytest.mark.parametrize(
    "name, column, value, message",
    [
        ("profiles_2018-01-02.csv", "hour", "99", "99 out of [0, 23]"),
        ("profiles_2018-01-01.csv", "mean_kwh", "-3", "-3.0 must be >= 0"),
        ("daily_2018-01-01_2d.csv", "daily_mean_kwh", "-5", "-5.0 must be >= 0"),
    ],
)
def test_validate_names_bad_generation_cell(
    tiny_run, tmp_path, capsys, name, column, value, message
):
    _, out, ini = tiny_run
    run = tmp_path / "out"
    shutil.copytree(out, run)
    _set_cell(run / "twin" / name, 4, column, value)
    assert main(["validate", "--config", str(ini), "--out", str(run)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: validate: {name}: row 4, column {column}: {message}"
    ]


def test_validate_rejects_a_kde_grid_that_is_not_finite(tiny_run, tmp_path, capsys):
    # side a's bandwidths are its daily_std_kwh; 3 * 1e308 pads the grid to inf
    _, out, ini = tiny_run
    run = tmp_path / "out"
    shutil.copytree(out, run)
    _set_cell(run / "real" / "daily_2018-01-01_2d.csv", 4, "daily_std_kwh", "1e308")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["validate", "--config", str(ini), "--out", str(run)])
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: validate: KDE grid from -inf to inf is not finite"
    ]


def test_validate_rejects_an_overflowing_load_shape(tiny_run, tmp_path, capsys):
    # row 14 is the first household's hour 12; 1e308 there overflows the
    # month's correlation
    _, out, ini = tiny_run
    run = tmp_path / "out"
    shutil.copytree(out, run)
    _set_cell(run / "twin" / "profiles_2018-01-01.csv", 14, "mean_kwh", "1e308")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["validate", "--config", str(ini), "--out", str(run)])
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: validate: pearson for month 2018-01: overflow encountered in square"
    ]


def test_validate_accepts_a_kde_kernel_that_underflows(tiny_run, tmp_path, capsys):
    # a bandwidth of 1e-300 makes that sample's kernel 0 away from its
    # mean, where z**2 overflows; the value is the one computed with the
    # overflow warning shown
    _, out, ini = tiny_run
    run = tmp_path / "out"
    shutil.copytree(out, run)
    _set_cell(run / "real" / "daily_2018-01-01_2d.csv", 4, "daily_std_kwh", "1e-300")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["validate", "--config", str(ini), "--out", str(run)])
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == 0
    assert capsys.readouterr().err == ""
    report = (run / "metrics_report.csv").read_text().splitlines()
    assert [line for line in report if line.startswith("jsd_kde,")] == [
        "jsd_kde,daily_kwh,0.07996675876582349"
    ]


def test_classify_sqft_names_a_row_no_member_scores(tmp_path, capsys):
    # at this learning rate every booster's margin saturates, and some row
    # gets probability 0 from every one-vs-rest member
    ini = tmp_path / "steep.ini"
    ini.write_text(
        TINY_INI.replace("n_households = 60", "n_households = 300")
        .replace("rounds = 20", "rounds = 5\nlearning_rate = 1e6")
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["pipeline", "--config", str(ini), "--out", str(tmp_path / "out")])
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: pipeline: feature row 0: no one-vs-rest member gives it a positive probability"
    ]


def test_estimate_sqft_rejects_footage_below_zero_only(tiny_run, tmp_path, capsys):
    # a finite footage above the top class is in no class range, so it
    # weighs nothing and loads as before
    _, out, ini = tiny_run
    run = tmp_path / "out"
    shutil.copytree(out, run)
    args = ["estimate-sqft", "--config", str(ini), "--out", str(run)]
    for value in ("-1", "-1e308"):
        _set_cell(run / "survey.csv", 4, "sqft", value)
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: estimate-sqft: survey.csv: row 4, column sqft: {float(value)} must be > 0"
        ]
    _set_cell(run / "survey.csv", 4, "sqft", "1e308")
    assert main(args) == 0


def test_simulate_ranks_a_household_that_generates_nothing(tiny_run, tmp_path):
    # 10 sq ft gives a 1.4 m^2 roof, which fits no 1.64 m^2 panel, so that
    # household's annual kWh and rebate are 0
    _, out, ini = tiny_run
    run = tmp_path / "out"
    shutil.copytree(out, run)
    pop = load_households(run / "households_twin.csv")
    sqft = pop.sqft_value.copy()
    sqft[0] = 10.0
    save_households(pop.replace(sqft_value=sqft), run / "households_twin.csv")
    code = main(["simulate", "--config", str(ini), "--out", str(run), "--cases", "4,5"])
    assert code == 0
    lines = (run / "adoption_timeline.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["4"] * 3 + ["5"] * 3


def test_huge_ghi_fails_generate_and_simulate_with_one_line(tiny_run, tmp_path, capsys):
    # a finite GHI of 1e308 makes the energy, or the rebate, overflow
    _, out, ini = tiny_run
    run = tmp_path / "out"
    shutil.copytree(out, run)
    tract = "51001000001"
    path = run / f"irradiance_{tract}.csv"
    lines = path.read_text().splitlines()
    lines[13] = "2018-01-01,12,1e308"  # row 14: the first day's hour 12
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        generate = main(["generate", "--config", str(ini), "--out", str(run)])
        generate_err = capsys.readouterr().err.splitlines()
        simulate = main(["simulate", "--config", str(ini), "--out", str(run), "--cases", "4"])
        simulate_err = capsys.readouterr().err.splitlines()
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert generate == 1 and len(generate_err) == 1
    match = re.fullmatch(
        r"error: generate: household (\d+) has non-finite energy on 2018-01-01", generate_err[0]
    )
    assert match, generate_err
    pop = load_households(run / "households_sqft.csv")
    row = int(np.flatnonzero(pop.id == int(match[1]))[0])
    assert pop.solar[row] and pop.tract[row] == tract
    assert simulate == 1 and len(simulate_err) == 1
    assert re.fullmatch(
        r"error: simulate: annual_kwh \S+ gives a rebate that is not finite", simulate_err[0]
    ), simulate_err


def _rewrite_line(path, number, edit):
    """Rewrite line ``number`` (from 1) of a file, its line end included, with ``edit``."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[number - 1] = edit(lines[number - 1])
    path.write_bytes(b"".join(lines))


_NOT_EDGE = "expected two node ids, one space and LF, got "


@pytest.mark.parametrize(
    "stage, name, number, edit, message",
    [
        pytest.param("preprocess", "households.csv", 3, lambda line: b'"' + line,
                     'row 3: a quote (") is not allowed', id="quote"),
        pytest.param("estimate-sqft", "survey.csv", 3, lambda line: b"\0" + line,
                     "row 3: a NUL is not allowed", id="nul"),
        pytest.param("calibrate", "train_solar.csv", 3, lambda line: line.replace(b",", b"\r", 1),
                     "row 3: a CR that ends no line is not allowed", id="bare-cr"),
        pytest.param("calibrate", "targets.csv", 2, lambda line: b"\r\n" + line,
                     "row 2: a blank line is not allowed", id="blank-line"),
        pytest.param("validate", "twin/profiles_2018-01-01.csv", 3,
                     lambda line: line.split(b",", 1)[1],
                     "row 3: expected 5 fields, got 4", id="ragged-row"),
        pytest.param("simulate", "network.edges", 1, lambda line: b"# comment\n" + line,
                     f"line 1: {_NOT_EDGE}'# comment\\n'", id="edge-comment"),
        pytest.param("simulate", "network.edges", 2, lambda line: line.replace(b" ", b","),
                     f"line 2: {_NOT_EDGE}'", id="edge-comma"),
        pytest.param("simulate", "network.edges", 3, lambda line: line.replace(b"\n", b"\r\n"),
                     f"line 3: {_NOT_EDGE}'", id="edge-crlf"),
        pytest.param("simulate", "network.edges", 2, lambda line: b"\xff" + line,
                     f"line 2: {_NOT_EDGE}'\\\\xff", id="edge-utf8"),
        pytest.param("simulate", "households_twin.csv", 3,
                     lambda line: line.replace(b"VA", b"V\xedA", 1),
                     "row 3: byte 0xed is not UTF-8", id="households-utf8"),
        pytest.param("simulate", "irradiance_*.csv", 4, lambda line: b"\xff" + line,
                     "row 4: byte 0xff is not UTF-8", id="irradiance-utf8"),
        pytest.param("validate", "real/daily_*.csv", 2, lambda line: line[:-2] + b"\xc3\r\n",
                     "row 2: byte 0xc3 is not UTF-8", id="daily-utf8"),
    ],
)
def test_stages_name_the_line_of_input_off_its_format(
    tiny_run, tmp_path, capsys, stage, name, number, edit, message
):
    # a CSV input must be UTF-8 in the one dialect, and network.edges in
    # save_network's format; anything else fails with one line naming the
    # file and its first line off the format
    _, out, ini = tiny_run
    run = tmp_path / "out"
    shutil.copytree(out, run)
    path = sorted(run.glob(name))[0]
    _rewrite_line(path, number, edit)
    assert main([stage, "--config", str(ini), "--out", str(run)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {stage}: {path.name}: {message}"), err


def test_a_cell_longer_than_the_csv_module_limit_loads(tiny_run, tmp_path, capsys):
    # csv.reader refuses a field longer than 131 072 characters by default
    _, out, ini = tiny_run
    run = tmp_path / "out"
    shutil.copytree(out, run)
    _set_cell(run / "households.csv", 3, "county", "5" * 200_000)
    assert main(["preprocess", "--config", str(ini), "--out", str(run)]) == 0
    assert capsys.readouterr().err == ""


def test_missing_input_error_contract(tmp_path, capsys):
    code = main(["validate", "--out", str(tmp_path / "empty")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: validate:")
    assert "missing" in err


def test_bad_config_error_contract(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[run]\nworkers = 0\n")
    code = main(["toygen", "--config", str(ini), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: toygen:")


def test_simulate_case_filter(tiny_run, tmp_path):
    _, out, ini = tiny_run
    code = main([
        "simulate", "--config", str(ini), "--out", str(out), "--cases", "1a,1b",
    ])
    assert code == 0
    lines = (out / "adoption_timeline.csv").read_text().splitlines()
    cases = {line.split(",")[0] for line in lines[1:]}
    assert cases == {"1a", "1b"}


def test_simulate_cases_parsed_like_config(tiny_run, caplog):
    # the --cases list goes through the config's parser: entries are
    # stripped and empty ones dropped, as in [diffusion] cases
    _, out, ini = tiny_run
    caplog.set_level("INFO", logger="solartwin")
    code = main([
        "simulate", "--config", str(ini), "--out", str(out), "--cases", " 1a,,1b ",
    ])
    assert code == 0
    lines = (out / "adoption_timeline.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["1a"] * 3 + ["1b"] * 3
    logged = [r.getMessage() for r in caplog.records if "ended with" in r.getMessage()]
    assert [m.split()[2] for m in logged] == ["1a", "1b"]
    assert all(m.startswith("simulate: case 1") for m in logged)


@pytest.mark.parametrize("cases", [",", "", " , "])
def test_simulate_rejects_empty_case_list(tiny_run, capsys, cases):
    # an empty --cases is an error, not "all cases", and leaves the
    # timeline as it was
    _, out, ini = tiny_run
    timeline = (out / "adoption_timeline.csv").read_bytes()
    code = main(["simulate", "--config", str(ini), "--out", str(out), "--cases", cases])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: simulate: no policy cases in {cases!r}\n"
    assert (out / "adoption_timeline.csv").read_bytes() == timeline


def test_simulate_rejects_empty_config_cases(tiny_run, tmp_path, capsys):
    _, out, ini = tiny_run
    empty = tmp_path / "empty_cases.ini"
    empty.write_text(ini.read_text().replace("cases = 1a", "cases ="))
    code = main(["simulate", "--config", str(empty), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: simulate: bad value for [diffusion] cases: ''\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--cases", "9z"], "unknown case '9z'"),
        (["--period", "bogus"], "period must look like kind:value, got 'bogus'"),
        (["--period", "week:2018-W99"], "Invalid week: 99"),
        (
            ["--period", "month:2019-01"],
            "period month:2019-01 is outside the toygen span 2018-01-01 to 2018-01-02",
        ),
        (["--period", "date:2017-12-31"], "outside the toygen span"),
        (["--period", "date:2018-01-03"], "outside the toygen span"),
    ],
)
def test_pipeline_checks_flags_before_any_write(tmp_path, capsys, flags, message):
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI)
    out = tmp_path / "out"
    assert main(["pipeline", "--config", str(ini), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pipeline: ") and message in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_pipeline_accepts_period_on_last_toygen_day(tmp_path):
    ini = tmp_path / "tiny.ini"
    ini.write_text(TINY_INI)
    out = tmp_path / "out"
    flags = ["--config", str(ini), "--out", str(out), "--period", "date:2018-01-02"]
    assert main(["pipeline", *flags]) == 0
    assert (out / "twin" / "profiles_2018-01-02.csv").exists()


@pytest.mark.parametrize("cases", ["9z", "1a,9z"])
def test_simulate_checks_cases_before_reading_inputs(tmp_path, capsys, cases):
    code = main(["simulate", "--out", str(tmp_path / "empty"), "--cases", cases])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: simulate: unknown case '9z'")
    assert "households_twin" not in err
