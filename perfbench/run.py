"""Convergence-study benchmark of atc: time, memory and per-layer cost.

    python3 perfbench/run.py --workload far_field_sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25      # every workload, both modes
    python3 perfbench/run.py --workload all --smoke --seconds 0

Each workload run is a fresh interpreter running study.py, started one at a
time with the environment pinned (workloads.CHILD_ENV: one BLAS and OpenMP
thread, no NumPy huge-page advice), so its peak RSS is its own.  It repeats
passes of the workload for about --seconds (at least one pass, and with
--trace 1 at least one untraced and one traced pass).  --trace 0 reports the
end-to-end metrics of BENCHMARK.json: times as medians over passes, and the
peak RSS of the first pass.  --trace 1 alternates untraced and traced passes
and reports the per-layer metrics as medians over the traced passes, with
the tracing overhead (traced minus untraced study_s).  Odd seeds shift every
core radius by one site.  --smoke uses tiny radii.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count study points over
all passes.  The lines before it report the environment, every point and
every metric with its unit.  The exit code is nonzero, with no result line,
when a run cannot be measured at all (crash, missing sources, time limit).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import CHILD_ENV, WORKLOADS  # noqa: E402

# A run must end within 180 s; its interpreter is killed past this limit.
RUN_LIMIT_S = 170.0


class BenchmarkError(Exception):
    """A workload run could not be measured."""


def run_child(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One workload run in a fresh interpreter; killed past RUN_LIMIT_S."""
    cmd = [sys.executable, str(HERE / "study.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    env = {**os.environ, **CHILD_ENV, "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"{name}: killed at the {RUN_LIMIT_S:.0f} s run limit") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{name}: study exited with code {proc.returncode}")
    return json.loads(lines[-1])


def summarize(run: dict, trace: bool) -> dict:
    untraced = [p for p in run["passes"] if "layers" not in p]
    traced = [p for p in run["passes"] if "layers" in p]

    def median(key, passes=untraced):
        return statistics.median(p[key] for p in passes)

    if not trace:
        # the peak of a single study, which later passes' heap fragmentation cannot raise
        return {"study_s": median("study_s"), "setup_s": median("setup_s"),
                "solve_s": median("solve_s"), "peak_rss_mb": run["passes"][0]["peak_rss_mb"]}
    metrics = {key: statistics.median(p["layers"][key] for p in traced)
               for key in traced[0]["layers"]}
    base = median("study_s")
    metrics["trace.overhead_s"] = median("study_s", traced) - base
    metrics["trace.overhead_pct"] = 100.0 * metrics["trace.overhead_s"] / base
    return metrics


def with_units(values: dict, declared: list) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchmarkError(f"metrics not produced: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def environment(run: dict) -> dict:
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {"machine": platform.machine(), "cpu": cpu, "platform": platform.platform(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            **run["environment"], "pinned": CHILD_ENV}


def report(name: str, seed: int, passes: list, metrics: dict, failures: list):
    untraced = [p for p in passes if "layers" not in p]
    print(f"== {name}  seed {seed}  passes {len(passes)} "
          f"({len(passes) - len(untraced)} traced)  study_s per pass: "
          + " ".join(f"{p['study_s']:.4f}" for p in passes))
    keys = ("r_c", "dof", "unknowns", "newton_iters", "setup_s", "seed_s", "solve_s",
            "measure_s", "oracle_s")
    print("  r_core " + " ".join(f"{k:>12}" for k in keys) + f" {'err_l2':>22}")
    for i, pt in enumerate(untraced[0]["points"]):
        cells = []
        for k in keys:
            vals = [p["points"][i][k] for p in untraced if k in p["points"][i]]
            v = statistics.median(vals) if vals else float("nan")
            cells.append(f"{v:12.4f}" if k.endswith("_s") else f"{v:12.0f}")
        print(f"  {pt['r_core']:6d} " + " ".join(cells) + f" {pt.get('err_l2', float('nan'))!r:>22}")
    if WORKLOADS[name].oracle:
        print(f"  oracle_s {statistics.median(p['oracle_s'] for p in untraced):.4f} s "
              f"(median over untraced passes)")
    for key, m in metrics.items():
        print(f"  {key:36s} {m['value']:>16.6g} {m['unit']}")
    for f in failures:
        print(f"  FAILED {f}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 bench: dict) -> dict:
    run = run_child(name, seed, seconds, trace, smoke)
    metrics = with_units(summarize(run, trace), bench["per_layer" if trace else "end_to_end"])
    points = [pt for p in run["passes"] for pt in p["points"]]
    failures = [f"r_core {pt['r_core']}: {f}" for pt in points for f in pt["failures"]]
    failed = sum(1 for pt in points if pt["failures"])
    print("environment " + json.dumps(environment(run)))
    report(name, seed, run["passes"], metrics, failures)
    print(f"  failed_points {failed}/{len(points)}")
    return {"correct": failed == 0, "attempted": len(points), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny core radii")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.smoke, bench)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for name in WORKLOADS:
                for trace in (False, True):
                    r = run_workload(name, args.seed, args.seconds, trace, args.smoke, bench)
                    result["correct"] &= r["correct"]
                    result["attempted"] += r["attempted"]
                    result["failed"] += r["failed"]
                    result["metrics"].update(
                        {f"{name}.{k}": v for k, v in r["metrics"].items()})
    except BenchmarkError as err:
        print(f"run: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
