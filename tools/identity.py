"""Byte-identity check of the pipeline's outputs against a git revision.

    python3 tools/identity.py REV

Exports ``src/`` and ``perfbench/`` at REV with ``git archive`` into a
temporary directory, then runs the six standard pipelines on that tree and
on this checkout (working tree included):

- seeds 0, 1 and 2 on the default config;
- seed 0 with ``--workers 2``;
- seed 0 on the ``pipeline-2k`` and ``energy-policy-90d`` configs, which
  each tree writes with its own perfbench's
  ``write_ini(workload_config(name))``.

Every output file is compared byte for byte.  Each differing or missing
path is printed, and the exit status is 1 if any file differs, is missing
or a pipeline fails.  The temporary directory is removed afterwards.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, pipeline flags, perfbench workload whose config it runs or None)
RUNS = (
    ("seed0", ["--seed", "0"], None),
    ("seed1", ["--seed", "1"], None),
    ("seed2", ["--seed", "2"], None),
    ("seed0-workers2", ["--seed", "0", "--workers", "2"], None),
    ("pipeline-2k", ["--seed", "0"], "pipeline-2k"),
    ("energy-policy-90d", ["--seed", "0"], "energy-policy-90d"),
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
    for name, flags, workload in RUNS:
        config = []
        if workload is not None:
            ini = work / f"{name}.ini"
            work.mkdir(parents=True, exist_ok=True)
            subprocess.run(
                [sys.executable, "-c", WRITE_INI, str(tree / "perfbench"), workload, str(ini)],
                check=True,
            )
            config = ["--config", str(ini)]
        out = work / name
        command = [sys.executable, "-m", "solartwin", "pipeline", *config, *flags]
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare pipeline outputs with a revision's.")
    parser.add_argument("rev", help="the revision to compare with, such as HEAD~")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="solartwin-identity-") as tmp:
        tmp = Path(tmp)
        export(rev, tmp / "rev")
        ok = run_pipelines(tmp / "rev", tmp / "rev-out")
        ok = run_pipelines(ROOT, tmp / "checkout-out") and ok
        bad = compare(tmp / "rev-out", tmp / "checkout-out")
    return 0 if ok and not bad else 1


if __name__ == "__main__":
    sys.exit(main())
