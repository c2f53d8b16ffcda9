"""Benchmark of the superalg package: one workload per run, single thread.

    python3 perfbench/run.py --workload mink2_prolong --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

With --trace 0 the run times untraced passes and reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes and reports
the per-layer metrics plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A copy of the result, with every
sample and the environment, goes to .perfbench_out/ at the repository root,
and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
NAMES = ("mink2_prolong", "h2_sweep", "real_structures")

# Set-up runs in a burst before every untraced pass: at least once, then again
# while the burst is shorter than SETUP_BURST_S (at most SETUP_BURST_REPS
# times).  Spreading the repeats over the run, instead of one block at the
# start, keeps the median of set-up times from riding on a few seconds of
# machine state.
SETUP_BURST_S = 0.25
SETUP_BURST_REPS = 100
# Untraced passes: at least MIN_PASSES, then more while another set-up burst
# and pass still fit in --seconds (judged by the last ones).
MIN_PASSES = 3
CHILD_TIMEOUT_S = 900

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio"}


def environment():
    from superalg import scalars

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    backend = type(scalars.rational(1))
    loc = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "scalar_backend": f"{backend.__module__}.{backend.__qualname__}",
        "nproc": len(os.sched_getaffinity(0)),
        "src_loc": loc,
    }


class Tally:
    """Operations attempted and failed over all passes of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = set()

    def add(self, workloads, outcomes, expected):
        failed, wrong = workloads.check(outcomes, expected)
        self.attempted += len(expected)
        self.failed += failed
        self.wrong.extend(wrong)
        self.errors.update(f"{o.label}: {o.error}" for o in outcomes if o.error)


def timed_setup(wl, seed, times):
    """One burst of set-ups; appends each duration to times, returns the inputs."""
    start = time.perf_counter()
    for _ in range(SETUP_BURST_REPS):
        gc.collect()
        t0 = time.perf_counter()
        inputs = wl.setup(seed)
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= SETUP_BURST_S:
            break
    return inputs


def timed_pass(wl, inputs, rec):
    gc.collect()
    t0 = time.perf_counter()
    outcomes = wl.run_pass(inputs, rec)
    return outcomes, time.perf_counter() - t0


def untraced_run(workloads, wl, seed, seconds, tally):
    from spans import NullRecorder

    null = NullRecorder()
    setup_times, walls = [], []
    start = time.perf_counter()
    cycle = 0.0
    while len(walls) < MIN_PASSES or time.perf_counter() - start + cycle <= seconds:
        t0 = time.perf_counter()
        inputs = timed_setup(wl, seed, setup_times)
        outcomes, wall = timed_pass(wl, inputs, null)
        walls.append(wall)
        cycle = time.perf_counter() - t0
        tally.add(workloads, outcomes, inputs.expected)
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1 - tally.failed / tally.attempted,
    }
    return metrics, {"wall_s": walls, "setup_s": setup_times}, None


def traced_run(workloads, wl, name, seed, seconds, tally):
    import layers
    from spans import NullRecorder, Recorder, aggregate

    with Recorder() as rec:
        layers.instrument(rec)
        inputs = wl.setup(seed)
    setup_spans = rec.spans
    setup_agg = aggregate(setup_spans)
    null = NullRecorder()
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds:
        outcomes, wall = timed_pass(wl, inputs, null)
        plain.append(wall)
        tally.add(workloads, outcomes, inputs.expected)
        with Recorder() as rec:
            layers.instrument(rec)
            outcomes, wall = timed_pass(wl, inputs, rec)
        traced.append(wall)
        tally.add(workloads, outcomes, inputs.expected)
        per_pass.append(layers.per_layer_metrics(setup_agg, aggregate(rec.spans), rec.spans))
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    problems = layers.check_coverage(name, metrics)
    if problems:
        raise SystemExit("layer coverage check failed:\n  " + "\n  ".join(problems))
    spans = {"setup": [s.as_dict() for s in setup_spans], "pass": [s.as_dict() for s in rec.spans]}
    return metrics, {"untraced_wall_s": plain, "traced_wall_s": traced}, spans


def run_all(args):
    """Run every workload in its own process, so each reports its own peak RSS."""
    code = 0
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, timeout=CHILD_TIMEOUT_S).returncode)
    return code


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "superalg" / "__init__.py").is_file():
        print(f"superalg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        metrics, samples, spans = traced_run(workloads, wl, args.workload, args.seed, args.seconds, tally)
        units = layers.UNITS
    else:
        metrics, samples, spans = untraced_run(workloads, wl, args.seed, args.seconds, tally)
        units = END_TO_END_UNITS
    env = environment()
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  env=env, samples=samples, wrong=tally.wrong, errors=sorted(tally.errors))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=str))
    if spans is not None:
        with gzip.open(OUT_DIR / f"{stem}.spans.json.gz", "wt") as f:
            json.dump(spans, f)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, v in metrics.items():
        n = len(samples[key]) if key in samples else ""
        print(f"{key:40s} {v:>14.6g} {units[key]:6s} {f'median of {n}' if n else ''}")
    print(f"{'failed_share':40s} {tally.failed / tally.attempted:>14.6g} ratio  ({tally.failed} of {tally.attempted} operations)")
    for line in sorted(tally.errors):
        print(f"# failed: {line}")
    for w in tally.wrong:
        print(f"# WRONG OUTPUT: {w}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
