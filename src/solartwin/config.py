"""Run configuration: defaults, INI file loading, and validation.

Every pipeline stage reads its knobs from a RunConfig.  A config file only
needs the keys it wants to change; everything else keeps its default.
"""

import configparser
from dataclasses import dataclass, replace
from datetime import date

from .diffusion import CASES


@dataclass(frozen=True)
class RunConfig:
    # run
    seed: int = 0
    workers: int = 1
    out_dir: str = "out"
    # toygen
    n_households: int = 500
    n_tracts: int = 4
    adopter_fraction: float = 0.1
    lmi_fraction: float = 0.3
    days: int = 7
    start_date: date = date(2018, 1, 1)
    signal_shift: int = 4
    survey_size: int = 2000
    edge_prob: float = 0.01
    network_groups: int = 1
    # boosting
    rounds: int = 100
    depth: int = 3
    learning_rate: float = 0.3
    reg_lambda: float = 1.0
    min_child_hess: float = 1e-3
    # smoten
    smoten_k: int = 5
    # calibrate
    budget: int = 2000
    init_points: int = 10
    # sqft
    sqft_m: int = 10
    sqft_l: int = 10
    sqft_k: int = 5
    # pv
    pv_samples: int = 20
    # diffusion
    time_steps: int = 10
    iterations: int = 1
    weight_benefit: float = 0.4
    weight_county: float = 0.3
    weight_network: float = 0.3
    cost_per_watt: float = 3.04
    credit_rate: float = 0.30
    lmi_extra_credit: float = 0.20
    capacity_factor: float = 0.15
    cases: tuple = CASES
    # validate
    hist_bins: int = 50
    kde_grid: int = 512

    def validate(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.n_households < 1 or self.n_tracts < 1:
            raise ValueError("population must have households and tracts")
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.survey_size < 1:
            raise ValueError("survey_size must be >= 1")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must be in [0, 1]")
        if self.budget < 1 or self.init_points < 1:
            raise ValueError("budget and init_points must be >= 1")
        if self.sqft_m < 1 or self.sqft_l < 1 or self.sqft_k < 1:
            raise ValueError("sqft settings must be >= 1")
        if self.pv_samples < 1:
            raise ValueError("pv_samples must be >= 1")
        if self.hist_bins < 1 or self.kde_grid < 2:
            raise ValueError("hist_bins must be >= 1 and kde_grid >= 2")
        weights = (self.weight_benefit, self.weight_county, self.weight_network)
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError("diffusion weights must sum to 1")
        for case in self.cases:
            if case not in CASES:
                raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
        return self

    @property
    def diffusion_weights(self) -> tuple:
        return (self.weight_benefit, self.weight_county, self.weight_network)


def parse_cases(text: str) -> tuple:
    """Policy cases from a comma list, stripped, empty entries dropped."""
    return tuple(p.strip() for p in text.split(",") if p.strip())


# (section, key, field, converter)
_SCHEMA = (
    ("run", "seed", "seed", int),
    ("run", "workers", "workers", int),
    ("run", "out_dir", "out_dir", str),
    ("toygen", "n_households", "n_households", int),
    ("toygen", "n_tracts", "n_tracts", int),
    ("toygen", "adopter_fraction", "adopter_fraction", float),
    ("toygen", "lmi_fraction", "lmi_fraction", float),
    ("toygen", "days", "days", int),
    ("toygen", "start_date", "start_date", date.fromisoformat),
    ("toygen", "signal_shift", "signal_shift", int),
    ("toygen", "survey_size", "survey_size", int),
    ("toygen", "edge_prob", "edge_prob", float),
    ("toygen", "network_groups", "network_groups", int),
    ("boosting", "rounds", "rounds", int),
    ("boosting", "depth", "depth", int),
    ("boosting", "learning_rate", "learning_rate", float),
    ("boosting", "reg_lambda", "reg_lambda", float),
    ("boosting", "min_child_hess", "min_child_hess", float),
    ("smoten", "k", "smoten_k", int),
    ("calibrate", "budget", "budget", int),
    ("calibrate", "init_points", "init_points", int),
    ("sqft", "m", "sqft_m", int),
    ("sqft", "l", "sqft_l", int),
    ("sqft", "k", "sqft_k", int),
    ("pv", "samples", "pv_samples", int),
    ("diffusion", "time_steps", "time_steps", int),
    ("diffusion", "iterations", "iterations", int),
    ("diffusion", "weight_benefit", "weight_benefit", float),
    ("diffusion", "weight_county", "weight_county", float),
    ("diffusion", "weight_network", "weight_network", float),
    ("diffusion", "cost_per_watt", "cost_per_watt", float),
    ("diffusion", "credit_rate", "credit_rate", float),
    ("diffusion", "lmi_extra_credit", "lmi_extra_credit", float),
    ("diffusion", "capacity_factor", "capacity_factor", float),
    ("diffusion", "cases", "cases", parse_cases),
    ("validate", "hist_bins", "hist_bins", int),
    ("validate", "kde_grid", "kde_grid", int),
)


def load_config(path=None) -> RunConfig:
    """Defaults, overridden by any keys present in the INI file at path."""
    cfg = RunConfig()
    if path is None:
        return cfg.validate()
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path}")
    known = {(section, key) for section, key, _, _ in _SCHEMA}
    for section in parser.sections():
        for key in parser[section]:
            if (section, key) not in known:
                raise ValueError(f"unknown config key [{section}] {key}")
    overrides = {}
    for section, key, fieldname, convert in _SCHEMA:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                overrides[fieldname] = convert(raw)
            except ValueError as exc:
                raise ValueError(f"bad value for [{section}] {key}: {raw!r}") from exc
    return replace(cfg, **overrides).validate()
