"""Byte-identity check of the pipeline's outputs against a git revision.

    python3 tools/identity.py REV
    python3 tools/identity.py --write-golden

Exports ``src/`` and ``perfbench/`` at REV with ``git archive`` into a
temporary directory, then runs the seven standard pipelines on that tree and
on this checkout (working tree included):

- seeds 0, 1 and 2 on the default config;
- seed 0 with ``--workers 2``;
- seed 0 on the ``pipeline-2k`` and ``energy-policy-90d`` configs, which
  each tree writes with its own perfbench's
  ``write_ini(workload_config(name))``;
- EVERY_KEY_INI, the same file for both trees, which sets every config key
  to a value other than its default, so a key read into the wrong setting
  shows up as a differing file.

Every output file is compared byte for byte.  Each differing or missing
path is printed, and the exit status is 1 if any file differs, is missing
or a pipeline fails.  The temporary directory is removed afterwards.

``--write-golden`` instead runs the three small GOLDEN_RUNS in this process
through ``solartwin.cli.main`` on this checkout's ``src/`` and writes the
SHA-256 of every output file, with the Python and numpy versions, to
GOLDEN.  ``tests/test_golden.py`` runs the same pipelines through
``golden_digests`` and compares.  A change that must alter an output
rewrites the file, so its diff names the changed files.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_digests.json"

EVERY_KEY = "every-key"

# (name, pipeline flags, the config it runs: None for the defaults, a
# perfbench workload's name, or EVERY_KEY for EVERY_KEY_INI)
RUNS = (
    ("seed0", ["--seed", "0"], None),
    ("seed1", ["--seed", "1"], None),
    ("seed2", ["--seed", "2"], None),
    ("seed0-workers2", ["--seed", "0", "--workers", "2"], None),
    ("pipeline-2k", ["--seed", "0"], "pipeline-2k"),
    ("energy-policy-90d", ["--seed", "0"], "energy-policy-90d"),
    (EVERY_KEY, [], EVERY_KEY),
)

# 300 households over 3 days; each value differs from its default and,
# where it can, from every other value of its type.  Calibration runs one
# expected-improvement round after its 8 initial points.
EVERY_KEY_INI = """\
[run]
seed = 11
workers = 2
out_dir = runs/every-key
[toygen]
n_households = 300
n_tracts = 6
adopter_fraction = 0.15
lmi_fraction = 0.25
days = 3
start_date = 2018-06-01
signal_shift = 5
survey_size = 700
edge_prob = 0.05
network_groups = 14
[boosting]
rounds = 30
depth = 4
learning_rate = 0.45
reg_lambda = 2.0
min_child_hess = 0.01
[smoten]
k = 7
[calibrate]
budget = 60
init_points = 8
[sqft]
m = 9
l = 12
k = 13
[pv]
samples = 10
[diffusion]
time_steps = 15
iterations = 16
weight_benefit = 0.6
weight_county = 0.12
weight_network = 0.28
cost_per_watt = 2.5
credit_rate = 0.26
lmi_extra_credit = 0.1
capacity_factor = 0.18
cases = 1a, 3, 5
[validate]
hist_bins = 40
kde_grid = 256
"""

# 60 households over 2 days: the smallest config that runs every stage.
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

# (name, INI text, pipeline flags) of the runs whose digests GOLDEN holds;
# EVERY_KEY is the only one that reaches calibration's expected-improvement
# rounds
GOLDEN_RUNS = (
    ("tiny", TINY_INI, []),
    ("tiny-workers2", TINY_INI, ["--workers", "2"]),
    (EVERY_KEY, EVERY_KEY_INI, []),
)

WRITE_INI = (
    "import sys\n"
    "from pathlib import Path\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from run import workload_config, write_ini\n"
    "write_ini(workload_config(sys.argv[2]), Path(sys.argv[3]))\n"
)


def export(rev: str, dest: Path):
    """Write src/ and perfbench/ as of rev into dest."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src", "perfbench"],
        check=True, capture_output=True,
    ).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_pipelines(tree: Path, work: Path) -> bool:
    """Run every standard pipeline on tree's sources, each into
    work/<name>; False if one failed."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    ok = True
    work.mkdir(parents=True)
    for name, flags, config in RUNS:
        if config is not None:
            ini = work / f"{name}.ini"
            if config == EVERY_KEY:
                ini.write_text(EVERY_KEY_INI)
            else:
                subprocess.run(
                    [sys.executable, "-c", WRITE_INI, str(tree / "perfbench"), config, str(ini)],
                    check=True,
                )
            flags = ["--config", str(ini), *flags]
        out = work / name
        command = [sys.executable, "-m", "solartwin", "pipeline", *flags]
        proc = subprocess.run(
            command + ["--out", str(out)], env=env, cwd=work.parent, capture_output=True, text=True
        )
        if proc.returncode:
            print(f"{tree}: {name} failed: {proc.stderr.strip()}")
            ok = False
    return ok


def files(top: Path) -> set:
    return {path.relative_to(top) for path in top.rglob("*") if path.is_file()}


def compare(old: Path, new: Path) -> int:
    """Print each file, outputs and workload configs, that differs or
    exists on one side only; return how many there were."""
    old_files, new_files = files(old), files(new)
    bad = 0
    for path in sorted(old_files | new_files):
        if path not in new_files:
            print(f"missing in checkout: {path}")
        elif path not in old_files:
            print(f"missing at revision: {path}")
        elif (old / path).read_bytes() != (new / path).read_bytes():
            print(f"differs: {path}")
        else:
            continue
        bad += 1
    print(f"{len(old_files | new_files)} files compared, {bad} differ or are missing")
    return bad


def golden_digests(work: Path) -> dict:
    """Run GOLDEN_RUNS in this process, each into work/<name>, and return
    the versions and each output file's SHA-256 in GOLDEN's layout."""
    import numpy as np
    from solartwin.cli import main

    runs = {}
    for name, ini_text, flags in GOLDEN_RUNS:
        ini, out = work / f"{name}.ini", work / name
        ini.write_text(ini_text)
        if main(["pipeline", "--config", str(ini), "--out", str(out), *flags]):
            raise RuntimeError(f"golden run {name} failed")
        runs[name] = {
            path.as_posix(): hashlib.sha256((out / path).read_bytes()).hexdigest()
            for path in sorted(files(out))
        }
    return {"python": platform.python_version(), "numpy": np.__version__, "runs": runs}


def write_golden() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix="solartwin-golden-") as tmp:
        digests = golden_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare pipeline outputs with a revision's.")
    parser.add_argument("rev", nargs="?", help="the revision to compare with, such as HEAD~")
    parser.add_argument(
        "--write-golden", action="store_true",
        help=f"write the golden runs' digests to {GOLDEN.relative_to(ROOT)} instead",
    )
    args = parser.parse_args(argv)
    if args.write_golden:
        return write_golden()
    if args.rev is None:
        parser.error("give a revision, or --write-golden")
    with tempfile.TemporaryDirectory(prefix="solartwin-identity-") as tmp:
        tmp = Path(tmp)
        export(args.rev, tmp / "rev")
        ok = run_pipelines(tmp / "rev", tmp / "rev-out")
        ok = run_pipelines(ROOT, tmp / "checkout-out") and ok
        bad = compare(tmp / "rev-out", tmp / "checkout-out")
    return 0 if ok and not bad else 1


if __name__ == "__main__":
    sys.exit(main())
