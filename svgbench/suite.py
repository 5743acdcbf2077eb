"""Run every workload, each in its own process, and summarise the results.

    python3 svgbench/suite.py                      # seed 0, untraced + traced
    python3 svgbench/suite.py --seeds 0 1 2 3 4 --workloads ingest-tiny

For each workload the untraced runs give the end-to-end metrics (median
and spread over the seeds, spread being the interquartile range over the
median as statistics.quantiles computes it); one traced run on the first
seed gives the per-layer metrics, and the tracing overhead is the traced
run's end-to-end figures against the untraced run on the same seed.
Runs go one after another so that they never compete for the CPUs.
With ``--out`` the summary is written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its result plus the lines before it."""
    cmd = [sys.executable, str(ROOT / "svgbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        key, _, payload = line.partition(" ")
        if key in ("env", "detail", "traced-end-to-end"):
            result[key] = json.loads(payload)
    return result


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for constant values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def summarise(workload: str, untraced: list[dict], traced: dict | None) -> dict:
    names = list(untraced[0]["metrics"])
    e2e = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in untraced]
        e2e[name] = {"unit": untraced[0]["metrics"][name]["unit"],
                     "median": statistics.median(values), "spread": spread(values),
                     "values": values}
    out = {"workload": workload, "runs": len(untraced),
           "correct": all(r["correct"] for r in untraced),
           "attempted": sum(r["attempted"] for r in untraced),
           "failed": sum(r["failed"] for r in untraced),
           "env": untraced[0].get("env"), "end_to_end": e2e,
           "latency_tail_percentile": untraced[0]["detail"]["latency_tail_percentile"],
           "latency_samples": [r["detail"]["latency_samples"] for r in untraced],
           "latency_samples_beyond_tail": [r["detail"]["latency_samples_beyond_tail"]
                                           for r in untraced]}
    if traced is not None:
        base = untraced[0]["metrics"]
        out["per_layer"] = traced["metrics"]
        out["traced_correct"] = traced["correct"]
        out["tracing_overhead"] = {
            name: {"traced": value, "untraced": base[name]["value"],
                   "difference": value - base[name]["value"],
                   "share": (value - base[name]["value"]) / base[name]["value"]}
            for name, value in traced["traced-end-to-end"].items()}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced run")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else BENCHMARK["run_seconds"]

    summaries = []
    for workload in args.workloads:
        untraced = []
        for seed in args.seeds:
            untraced.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in untraced[-1]["metrics"].items()),
                flush=True)
        traced = None if args.no_trace else run_once(workload, args.seeds[0], seconds, 1)
        summary = summarise(workload, untraced, traced)
        summaries.append(summary)
        print(f"\n== {workload}: {summary['runs']} runs, correct={summary['correct']}, "
              f"failed {summary['failed']} of {summary['attempted']}")
        for name, m in summary["end_to_end"].items():
            print(f"  {name:22s} {m['median']:14.6g} {m['unit']:6s} spread {m['spread']:.4f}")
        for name, o in summary.get("tracing_overhead", {}).items():
            print(f"  overhead {name:22s} traced {o['traced']:.6g} untraced "
                  f"{o['untraced']:.6g} ({100 * o['share']:+.1f}%)")
        for name, m in summary.get("per_layer", {}).items():
            print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
        print(flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps({"seconds": seconds, "seeds": args.seeds,
                                        "workloads": summaries}, indent=1) + "\n",
                            encoding="utf-8")
    return 0 if all(s["correct"] for s in summaries) else 1


if __name__ == "__main__":
    sys.exit(main())
