"""Run configuration: defaults, INI file loading, and validation.

Every pipeline stage reads its knobs from a RunConfig, the one place that
lists them.  The toygen, booster and diffusion settings the stages take are
built from the RunConfig fields of the same name, and every settings class
checks itself when it is built, so a RunConfig that exists has passed every
check before any stage starts.

A config file only needs the keys it wants to change; everything else keeps
its default.  SECTIONS maps each INI section to the fields it sets; a key is
its field's name less the ``<section>_`` prefix (``smoten_k`` is
``[smoten] k``), and its value is parsed by the field's type.  The file is
read literally: ``%`` is an ordinary character and ``[DEFAULT]`` is an
unknown section.
"""

import configparser
from dataclasses import dataclass, fields
from datetime import date

from .boosting import GbtParams
from .diffusion import CASES, DiffusionConfig
from .toygen import ToyConfig


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    workers: int = 1
    out_dir: str = "out"
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
    rounds: int = 100
    depth: int = 3
    learning_rate: float = 0.3
    reg_lambda: float = 1.0
    min_child_hess: float = 1e-3
    smoten_k: int = 5
    budget: int = 2000
    init_points: int = 10
    sqft_m: int = 10
    sqft_l: int = 10
    sqft_k: int = 5
    pv_samples: int = 20
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
    hist_bins: int = 50
    kde_grid: int = 512

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.survey_size < 1:
            raise ValueError("survey_size must be >= 1")
        if not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must be in [0, 1]")
        if self.network_groups < 1:
            raise ValueError("network_groups must be >= 1")
        if self.smoten_k < 1:
            raise ValueError("smoten k must be >= 1")
        if not 1 <= self.init_points <= self.budget:
            raise ValueError("need budget >= init_points >= 1")
        if self.sqft_m < 1 or self.sqft_l < 1 or self.sqft_k < 1:
            raise ValueError("sqft settings must be >= 1")
        if self.pv_samples < 1:
            raise ValueError("pv_samples must be >= 1")
        if self.hist_bins < 1 or self.kde_grid < 2:
            raise ValueError("hist_bins must be >= 1 and kde_grid >= 2")
        self.toy_config()
        self.gbt_params()
        for case in self.cases:
            self.diffusion_config(case)

    @property
    def diffusion_weights(self) -> tuple:
        return (self.weight_benefit, self.weight_county, self.weight_network)

    def _settings(self, cls, **explicit):
        """A cls built from its fields that RunConfig also has, plus explicit."""
        own = {f.name for f in fields(self)}
        shared = {f.name: getattr(self, f.name) for f in fields(cls) if f.name in own}
        return cls(**shared, **explicit)

    def toy_config(self) -> ToyConfig:
        return self._settings(ToyConfig)

    def gbt_params(self) -> GbtParams:
        return self._settings(GbtParams)

    def diffusion_config(self, case: str) -> DiffusionConfig:
        return self._settings(DiffusionConfig, case=case, weights=self.diffusion_weights)


def parse_cases(text: str) -> tuple:
    """Policy cases from a comma list, stripped, empty entries dropped; at
    least one must remain."""
    cases = tuple(p.strip() for p in text.split(",") if p.strip())
    if not cases:
        raise ValueError(f"no policy cases in {text!r}")
    return cases


# INI section -> the RunConfig fields it sets, in the order they are read
SECTIONS = {
    "run": ("seed", "workers", "out_dir"),
    "toygen": (
        "n_households", "n_tracts", "adopter_fraction", "lmi_fraction", "days",
        "start_date", "signal_shift", "survey_size", "edge_prob", "network_groups",
    ),
    "boosting": ("rounds", "depth", "learning_rate", "reg_lambda", "min_child_hess"),
    "smoten": ("smoten_k",),
    "calibrate": ("budget", "init_points"),
    "sqft": ("sqft_m", "sqft_l", "sqft_k"),
    "pv": ("pv_samples",),
    "diffusion": (
        "time_steps", "iterations", "weight_benefit", "weight_county", "weight_network",
        "cost_per_watt", "credit_rate", "lmi_extra_credit", "capacity_factor", "cases",
    ),
    "validate": ("hist_bins", "kde_grid"),
}

# parsers for the field types that cannot read INI text themselves
_PARSERS = {date: date.fromisoformat, tuple: parse_cases}


def _schema():
    """(section, key, field name, parser) of every INI key, in read order."""
    types = {f.name: f.type for f in fields(RunConfig)}
    for section, names in SECTIONS.items():
        for name in names:
            parse = _PARSERS.get(types[name], types[name])
            yield section, name.removeprefix(section + "_"), name, parse


def load_config(path) -> RunConfig:
    """Defaults, overridden by any keys present in the INI file at path."""
    if path is None:
        return RunConfig()
    parser = configparser.ConfigParser(interpolation=None)
    if not parser.read(path):
        raise ValueError(f"cannot read config file {path}")
    keys = list(_schema())
    known = {(section, key) for section, key, _, _ in keys}
    for section in (parser.default_section, *parser.sections()):
        for key in parser[section]:
            if (section, key) not in known:
                raise ValueError(f"unknown config key [{section}] {key}")
    overrides = {}
    for section, key, name, parse in keys:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                overrides[name] = parse(raw)
            except ValueError as exc:
                raise ValueError(f"bad value for [{section}] {key}: {raw!r}") from exc
    return RunConfig(**overrides)
