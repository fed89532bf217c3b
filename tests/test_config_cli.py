"""Config loading and the command line pipeline, run in process."""

import os
import re
import subprocess
import sys
from dataclasses import replace
from datetime import date
from pathlib import Path
from types import SimpleNamespace

import pytest

from solartwin.cli import main, parse_period, resolve_period
from solartwin.config import RunConfig, load_config
from solartwin.diffusion import CASES


def test_cli_import_leaves_out_scipy_linalg_and_sparse():
    # the contagion step needs no scipy.sparse, and the GP imports
    # scipy.linalg when it first runs; neither is paid for at CLI start
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, solartwin.cli; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules))",
        ],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_defaults():
    cfg = load_config()
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


def test_validate_guards():
    with pytest.raises(ValueError, match="workers"):
        replace(RunConfig(), workers=0).validate()
    with pytest.raises(ValueError, match="sum to 1"):
        replace(RunConfig(), weight_benefit=0.9).validate()
    with pytest.raises(ValueError, match="unknown case"):
        replace(RunConfig(), cases=("8x",)).validate()


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


TINY_INI = """\
[run]
seed = 3
[toygen]
n_households = 60
n_tracts = 2
days = 2
survey_size = 200
edge_prob = 0.05
[boosting]
rounds = 20
[smoten]
k = 3
[calibrate]
budget = 40
init_points = 5
[pv]
samples = 5
[diffusion]
time_steps = 2
cases = 1a
"""


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
