"""Checks on one pipeline output directory.

Each check recomputes a value apart from the program, or tests a property
the method must have; none compares against a stored copy of earlier
output.  Every check returns a list of problems (empty when it passes), so
the benchmark's tests can show that each one rejects a corrupted file.
``check_outputs`` runs them all and groups the problems by the stage that
wrote the file.
"""

import csv
import hashlib
import os
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

REL = 1e-9


@dataclass(frozen=True)
class Expect:
    """What the run's config says the outputs must cover."""

    start: date
    days: int
    hist_bins: int
    cases: tuple
    time_steps: int

    @property
    def dates(self):
        return [self.start + timedelta(days=i) for i in range(self.days)]

    @property
    def label(self) -> str:
        return f"{self.start.isoformat()}_{self.days}d"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a, b, rel=REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _adopters(path) -> dict:
    """Household id -> tract for every adopter row."""
    return {int(r["id"]): r["tract"] for r in read_rows(path) if r["solar"] == "1"}


def check_balanced(out) -> list:
    labels = [r["label"] for r in read_rows(os.path.join(out, "train_solar.csv"))]
    n0, n1 = labels.count("0"), labels.count("1")
    if n0 != n1 or n0 == 0 or n0 + n1 != len(labels):
        return [f"train_solar.csv is not class-balanced: {n0} zeros, {n1} ones"]
    return []


def check_sqft_range(out, class_range) -> list:
    problems = []
    for r in read_rows(os.path.join(out, "households_sqft.csv")):
        low, high = class_range(int(r["sqft_class"]))
        value = float(r["sqft_value"])
        if not low <= value <= high:
            problems.append(
                f"household {r['id']}: sqft_value {value} outside class "
                f"{r['sqft_class']} range [{low}, {high}]"
            )
    return problems


def check_calibration(out) -> list:
    trace = read_rows(os.path.join(out, "calibration_trace.csv"))
    if not trace:
        return ["calibration_trace.csv has no rows"]
    problems = []
    for r in trace:
        if int(r["diff"]) != abs(int(r["predicted"]) - int(r["target"])):
            problems.append(f"trace round {r['round']}: diff is not |predicted - target|")
    best = min(trace, key=lambda r: int(r["diff"]))  # first minimum, as the search keeps
    target = int(best["target"])
    if int(best["diff"]) > 0.15 * target:
        problems.append(f"best trace row misses the target {target} by {best['diff']} (> 15%)")
    twin = len(_adopters(os.path.join(out, "households_twin.csv")))
    if twin != int(best["predicted"]):
        problems.append(f"twin has {twin} adopters, best trace row predicted {best['predicted']}")
    return problems


def _ghi(out, tracts, dates) -> dict:
    """(tract, date) -> 24 GHI values, read from the irradiance files."""
    wanted = set(dates)
    table = {}
    for tract in sorted(set(tracts)):
        for r in read_rows(os.path.join(out, f"irradiance_{tract}.csv")):
            day = date.fromisoformat(r["date"])
            if day in wanted:
                table.setdefault((tract, day), [0.0] * 24)[int(r["hour"])] = float(r["ghi_wm2"])
    return {key: np.array(v) for key, v in table.items()}


def _profile_blocks(path):
    """Profiles CSV -> (household ids, hourly mean (n, 24), hourly std (n, 24)),
    or a problem string when households do not have exactly hours 0..23."""
    rows = read_rows(path)
    hid = np.array([int(r["household_id"]) for r in rows], dtype=np.int64)
    hour = np.array([int(r["hour"]) for r in rows], dtype=np.int64)
    mean = np.array([float(r["mean_kwh"]) for r in rows])
    std = np.array([float(r["std_kwh"]) for r in rows])
    order = np.lexsort((hour, hid))
    hid, hour, mean, std = hid[order], hour[order], mean[order], std[order]
    if hid.size % 24:
        return f"{path}: {hid.size} rows, not whole days of 24 hours"
    hid24 = hid.reshape(-1, 24)
    if np.any(hid24 != hid24[:, :1]) or np.any(hour.reshape(-1, 24) != np.arange(24)):
        return f"{path}: a household-day does not have exactly hours 0..23"
    return hid24[:, 0], mean.reshape(-1, 24), std.reshape(-1, 24)


SIDES = (("real", "households_sqft.csv"), ("twin", "households_twin.csv"))


def check_profiles(out, expect: Expect) -> list:
    """Zero output where GHI is 0; elsewhere mean/GHI and std/GHI constant
    within a household-day; daily_mean = sum(hourly mean) and
    daily_std^2 = sum(hourly std^2); one household-day per adopter per date."""
    problems = []
    for side, households in SIDES:
        adopters = _adopters(os.path.join(out, households))
        ghi = _ghi(out, adopters.values(), expect.dates)
        daily = read_rows(os.path.join(out, side, f"daily_{expect.label}.csv"))
        keys = [(int(r["household_id"]), date.fromisoformat(r["date"])) for r in daily]
        wanted = {(h, d) for h in adopters for d in expect.dates}
        if len(keys) != len(set(keys)) or set(keys) != wanted:
            problems.append(
                f"{side}: daily rows are not one per adopter per date "
                f"({len(keys)} rows, {len(set(keys))} distinct, {len(wanted)} wanted)"
            )
        daily_by_key = dict(zip(keys, daily))
        for day in expect.dates:
            block = _profile_blocks(os.path.join(out, side, f"profiles_{day.isoformat()}.csv"))
            if isinstance(block, str):
                problems.append(block)
                continue
            hids, mean, std = block
            if sorted(hids.tolist()) != sorted(adopters):
                problems.append(f"{side} {day}: profile households are not the adopters")
                continue
            g = np.stack([ghi[(adopters[h], day)] for h in hids.tolist()])
            dark = g == 0
            if np.any(mean[dark] != 0) or np.any(std[dark] != 0):
                problems.append(f"{side} {day}: nonzero energy in an hour with zero GHI")
            for name, values in (("mean", mean), ("std", std)):
                ratio = np.where(dark, np.nan, values / np.where(dark, 1.0, g))
                hi = np.nanmax(ratio, axis=1)
                lo = np.nanmin(ratio, axis=1)
                bad = np.abs(hi - lo) > REL * np.maximum(np.abs(hi), 1e-300)
                if np.any(bad):
                    h = int(hids[np.argmax(bad)])
                    problems.append(f"{side} {day} household {h}: hourly {name}/GHI not constant")
            for i, h in enumerate(hids.tolist()):
                row = daily_by_key.get((h, day))
                if row is None:
                    continue
                if not _close(float(row["daily_mean_kwh"]), float(mean[i].sum())):
                    problems.append(f"{side} {day} household {h}: daily_mean != sum(hourly mean)")
                if not _close(float(row["daily_std_kwh"]) ** 2, float((std[i] ** 2).sum())):
                    problems.append(f"{side} {day} household {h}: daily_std^2 != sum(hourly std^2)")
    return problems


def _jsd_histogram(a, b, bins) -> float:
    lo, hi = min(a.min(), b.min()), max(a.max(), b.max())
    if lo == hi:
        return 0.0
    pa = np.histogram(a, bins=bins, range=(lo, hi))[0] / a.size
    pb = np.histogram(b, bins=bins, range=(lo, hi))[0] / b.size
    m = 0.5 * (pa + pb)

    def kl(p):
        s = p > 0
        return float(np.sum(p[s] * np.log2(p[s] / m[s])))

    return min(1.0, max(0.0, 0.5 * kl(pa) + 0.5 * kl(pb)))


def check_report(out, expect: Expect) -> list:
    """The jsd_histogram row recomputed from the two daily CSVs (1e-12), and
    adopter_pct_diff recomputed from the adopter counts."""
    report = {(r["metric"], r["scope"]): r["value"] for r in read_rows(os.path.join(out, "metrics_report.csv"))}
    problems = []
    daily = {
        side: np.array([float(r["daily_mean_kwh"]) for r in read_rows(os.path.join(out, side, f"daily_{expect.label}.csv"))])
        for side, _ in SIDES
    }
    want = _jsd_histogram(daily["real"], daily["twin"], expect.hist_bins)
    got = report.get(("jsd_histogram", "daily_kwh"))
    if got is None or not abs(float(got) - want) <= 1e-12:
        problems.append(f"jsd_histogram is {got}, recomputed {want!r}")
    n_real = len(_adopters(os.path.join(out, "households_sqft.csv")))
    n_twin = len(_adopters(os.path.join(out, "households_twin.csv")))
    want = 100.0 * abs(n_twin - n_real) / n_real
    got = report.get(("adopter_pct_diff", "count"))
    if got is None or not _close(float(got), want, 1e-12):
        problems.append(f"adopter_pct_diff is {got}, recomputed {want!r}")
    return problems


QUADRANTS = ("lmi_rural", "lmi_urban", "nonlmi_rural", "nonlmi_urban")


def check_timeline(out, expect: Expect) -> list:
    """Per case: steps 0..T, totals never fall, step 0 is the twin's
    adopters, and the quadrants sum to the total."""
    initial = len(_adopters(os.path.join(out, "households_twin.csv")))
    rows = read_rows(os.path.join(out, "adoption_timeline.csv"))
    problems = []
    for case in expect.cases:
        mine = [r for r in rows if r["case"] == case]
        if [int(r["step"]) for r in mine] != list(range(expect.time_steps + 1)):
            problems.append(f"case {case}: steps are not 0..{expect.time_steps}")
            continue
        totals = [float(r["total_adopters"]) for r in mine]
        if any(b < a for a, b in zip(totals, totals[1:])):
            problems.append(f"case {case}: total adopters fall")
        if totals[0] != initial:
            problems.append(f"case {case}: step 0 has {totals[0]} adopters, the twin {initial}")
        for r, total in zip(mine, totals):
            if not _close(sum(float(r[q]) for q in QUADRANTS), total):
                problems.append(f"case {case} step {r['step']}: quadrants do not sum to the total")
    if {r["case"] for r in rows} != set(expect.cases):
        problems.append("timeline cases differ from the configured cases")
    return problems


def check_outputs(out, expect: Expect, class_range) -> dict:
    """Stage -> problems, for every stage whose output fails a check."""
    found = {
        "preprocess": check_balanced(out),
        "estimate-sqft": check_sqft_range(out, class_range),
        "calibrate": check_calibration(out),
        "generate": check_profiles(out, expect),
        "validate": check_report(out, expect),
        "simulate": check_timeline(out, expect),
    }
    return {stage: problems for stage, problems in found.items() if problems}


def tree_digest(out) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    paths = []
    for folder, _, files in os.walk(out):
        paths.extend(os.path.join(folder, f) for f in files)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, out).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
        digest.update(b"\0")
    return digest.hexdigest()


def tree_size(out) -> tuple:
    """(data rows, bytes) over every file in the output directory; a CSV's
    header line is not a row."""
    rows = size = 0
    for folder, _, files in os.walk(out):
        for f in files:
            path = os.path.join(folder, f)
            size += os.path.getsize(path)
            with open(path, "rb") as fh:
                lines = sum(1 for _ in fh)
            rows += lines - (1 if f.endswith(".csv") and lines else 0)
    return rows, size
