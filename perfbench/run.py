"""Benchmark of the solartwin pipeline: end-to-end times, output checks and,
in a traced run, the time split by module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  Each
pipeline runs ``solartwin.cli.main(["pipeline", ...])`` in a fresh
interpreter (perfbench/child.py) on the workload's config and one program
seed; a run keeps starting pipelines, seeds N*100, N*100+1, ..., until S
seconds have passed.  After each pipeline, outside the timed region, the
outputs are checked (checks.py) and their digest is compared with every
earlier pipeline of the same workload, seed and source.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 each seed runs once untraced and once traced, and it reports the
per-layer metrics and the tracing overhead.  Scratch files live under
``.perfbench/`` in the checkout and the pipeline outputs are removed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import date
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HARD_LIMIT_S = 170.0
SEEDS_PER_RUN = 100

# The keys the output checks read are spelled out in every workload.
COMMON = {
    # signal_shift 15: see README, "Why the planted signal is strong"
    "toygen": {"start_date": "2018-01-01", "signal_shift": "15"},
    "validate": {"hist_bins": "50"},
    "diffusion": {"cases": "1a, 1b, 2a, 2b, 3, 4, 5"},
}
WORKLOADS = {
    "pipeline-2k": {
        "run": {"workers": "1"},
        "toygen": {"n_households": "2000", "days": "7", "edge_prob": "0.01"},
        "diffusion": {"iterations": "1", "time_steps": "10"},
    },
    "energy-policy-90d": {
        "run": {"workers": "2"},
        "toygen": {"n_households": "250", "days": "90", "edge_prob": "0.4"},
        "diffusion": {"iterations": "50", "time_steps": "20"},
    },
}

END_TO_END = (
    ("setup_s", "s"),
    ("twin_s", "s"),
    ("energy_s", "s"),
    ("policy_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
TWIN = ("preprocess", "classify-sqft", "estimate-sqft", "calibrate")
ENERGY = ("generate", "validate")


def workload_config(name: str, overrides=None) -> dict:
    """INI sections of a workload, with optional per-key overrides."""
    sections = {s: dict(v) for s, v in COMMON.items()}
    for layer in (WORKLOADS[name], overrides or {}):
        for section, keys in layer.items():
            sections.setdefault(section, {}).update(keys)
    return sections


def write_ini(sections: dict, path: Path):
    with open(path, "w") as fh:
        for section, keys in sections.items():
            fh.write(f"[{section}]\n")
            fh.writelines(f"{k} = {v}\n" for k, v in keys.items())


def expect_from(sections: dict) -> checks.Expect:
    return checks.Expect(
        start=date.fromisoformat(sections["toygen"]["start_date"]),
        days=int(sections["toygen"]["days"]),
        hist_bins=int(sections["validate"]["hist_bins"]),
        cases=tuple(c.strip() for c in sections["diffusion"]["cases"].split(",")),
        time_steps=int(sections["diffusion"]["time_steps"]),
    )


def source_signature(sections: dict) -> str:
    """Hash of the package sources and the workload config: outputs of one
    seed must repeat only while neither changes."""
    digest = hashlib.sha256(json.dumps(sections, sort_keys=True).encode())
    for path in sorted((SRC / "solartwin").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_pipeline(sections: dict, seed: int, trace: bool, scratch: Path, timeout: float) -> dict:
    """One pipeline in a fresh interpreter; returns its report, the spawn
    time and the output directory (left in place for the caller)."""
    scratch.mkdir(parents=True, exist_ok=True)
    config = scratch / "config.ini"
    write_ini(sections, config)
    out = scratch / f"out-{seed}-{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    report_path = scratch / "report.json"
    report_path.unlink(missing_ok=True)
    env = dict(os.environ, SOLARTWIN_LOG="error")
    cmd = [
        sys.executable, str(BENCH / "child.py"), str(report_path), "1" if trace else "0", "--",
        "pipeline", "--config", str(config), "--seed", str(seed), "--out", str(out),
    ]
    spawned = time.monotonic()
    # its own process group, so a timeout also ends the pool workers
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        error = proc.communicate(timeout=timeout)[1].strip()
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        error = f"timed out after {timeout:.0f} s"
    report = None
    if report_path.exists():
        with open(report_path) as fh:
            report = json.load(fh)
    return {"spawned": spawned, "report": report, "error": error, "out": out}


def measure(result: dict) -> dict:
    """End-to-end figures of one successful pipeline."""
    report = result["report"]
    stages = tracer.stage_seconds(report["spans"])

    def span(*names):
        return sum(stages[n][1] - stages[n][0] for n in names)

    return {
        "setup_s": stages["toygen"][1] - result["spawned"],
        "twin_s": span(*TWIN),
        "energy_s": span(*ENERGY),
        "policy_s": span("simulate"),
        "wall_s": stages["simulate"][1] - result["spawned"],
        "peak_rss_mb": max(report["rss_self_kb"], report["rss_workers_kb"]) / 1024.0,
    }


class Run:
    """Counts, checks and figures of one benchmark run."""

    def __init__(self, workload: str, sections: dict, class_range):
        self.workload = workload
        self.sections = sections
        self.expect = expect_from(sections)
        self.class_range = class_range
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []
        self.signature = source_signature(sections)

    def record(self, seed: int, result: dict) -> bool:
        """Count the pipeline's eight stage calls; check its outputs.
        True when every stage ran and every check passed."""
        self.attempted += len(tracer.STAGES)
        report = result["report"]
        if report is None or report["rc"] != 0:
            done = 0 if report is None else len(tracer.stage_seconds(report["spans"])) - 1
            self.failed += len(tracer.STAGES) - max(done, 0)
            self.problems.append(f"seed {seed}: {result['error'] or 'no report'}")
            return False
        found = checks.check_outputs(result["out"], self.expect, self.class_range)
        if found:
            self.failed += len(found)
            self.correct = False
            for stage, problems in found.items():
                self.problems.append(f"seed {seed} {stage}: {problems[0]} ({len(problems)} problems)")
        self._compare_digest(seed, checks.tree_digest(result["out"]))
        return not found

    def _compare_digest(self, seed: int, digest: str):
        path = WORK / "digests" / f"{self.workload}-{seed}-{self.signature}.txt"
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            earlier = path.read_text().strip()
            if earlier != digest:
                self.correct = False
                self.problems.append(f"seed {seed}: outputs differ from an earlier run of this seed")
        else:
            path.write_text(digest + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "solartwin" / "cli.py").is_file():
        print(f"error: no solartwin sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from solartwin.records import sqft_class_range

    started = time.monotonic()
    deadline = started + args.seconds
    sections = workload_config(args.workload)
    run = Run(args.workload, sections, sqft_class_range)
    scratch = WORK / f"run-{os.getpid()}"
    figures, layers, overhead = [], [], []
    try:
        for i in range(SEEDS_PER_RUN):
            now = time.monotonic()
            # start another seed only if it should end before the deadline
            if i and now + (now - started) / i > deadline:
                break
            seed = args.seed * SEEDS_PER_RUN + i
            left = HARD_LIMIT_S - (time.monotonic() - started)
            plain = one_pipeline(run, seed, False, scratch, left)
            if plain is not None:
                figures.append(plain[0])
            if args.trace:
                left = HARD_LIMIT_S - (time.monotonic() - started)
                traced = one_pipeline(run, seed, True, scratch, left)
                if traced is not None:
                    layers.append(traced[1])
                    if plain is not None:
                        overhead.append(traced[0]["wall_s"] - plain[0]["wall_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for line in run.problems:
        print(f"problem: {line}", file=sys.stderr)
    if args.trace:
        metrics = {name: metric(_mean(v[name] for v in layers), unit)
                   for name, unit in tracer.LAYER_METRICS}
        metrics["trace.overhead_s"] = metric(_mean(overhead), "s")
        samples = len(layers)
    else:
        metrics = {name: metric(trimmed_mean(f[name] for f in figures), unit)
                   for name, unit in END_TO_END}
        samples = len(figures)
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} pipelines {samples}, operations attempted {run.attempted}, "
          f"failed {run.failed}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def trimmed_mean(values) -> float:
    """Mean of the middle half, rounded out: with 4 to 7 pipelines it drops
    the fastest and the slowest, with 8 the two of each.  On a shared
    2-CPU VM the speed drifts by about 20 % over a few seconds, so the
    pipelines of a run are noisy samples; the mean averages that drift
    better than the median, and the trimming keeps one stalled pipeline or
    one seed that trains extra boosters out."""
    values = sorted(values)
    if not values:
        return 0.0
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def one_pipeline(run: Run, seed: int, traced: bool, scratch: Path, timeout: float):
    """Run, check and measure one pipeline, then delete its outputs.
    Returns (end-to-end figures, layer metrics or None), or None if it failed."""
    result = run_pipeline(run.sections, seed, traced, scratch, max(timeout, 1.0))
    try:
        if not run.record(seed, result):
            return None
        figures = measure(result)
        print(f"seed {seed}{' traced' if traced else ''}: "
              + " ".join(f"{k}={v:.4g}" for k, v in figures.items()), file=sys.stderr)
        layers = None
        if traced:
            report = result["report"]
            layers = tracer.layer_metrics(report["spans"], report["counters"])
            layers["records.rows_written"], layers["records.bytes_written"] = (
                checks.tree_size(result["out"]))
            _save_spans(run.workload, seed, report["spans"])
        return figures, layers
    finally:
        shutil.rmtree(result["out"], ignore_errors=True)


def _save_spans(workload: str, seed: int, spans):
    """Keep a traced pipeline's spans for a closer look."""
    path = WORK / "spans" / f"{workload}-{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent"], "spans": spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
