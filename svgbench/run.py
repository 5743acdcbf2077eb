"""Run one svgnet benchmark workload and print its metrics.

    python3 svgbench/run.py --workload train-paper-b4 --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric of BENCHMARK.json; with ``--trace 1`` the
svgnet functions are wrapped by the tracer and the object holds every
per-layer metric instead. Lines before it give the environment stamp and
the figures in readable form. ``--write-reference`` stores the reference
phase's outputs as the new expected values instead of checking them.

Run it from the repository root: svgnet is imported from ``src/``, and
scratch files go to ``.bench_build/`` and are removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("train-paper-b4", "serve-paper-b1", "ingest-tiny")


def limit_blas_threads() -> None:
    """Run BLAS on one thread; must happen before numpy is imported.

    svgnet's training is documented as deterministic when single-threaded,
    which the output check relies on, and on a shared 2-CPU machine a
    two-thread matmul waits for whichever thread a neighbour slowed down.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="synth seed of the inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the main loop is measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    limit_blas_threads()
    if not (ROOT / "src" / "svgnet").is_dir():
        print(f"no svgnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from svgbench import measure, workloads
    from svgbench.tracer import Tracer

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"svgbench-{args.workload}-", dir=build))
    ctx = workloads.Context(seed=args.seed, seconds=args.seconds, work=work,
                            write_reference=args.write_reference)
    if not args.write_reference:
        ctx.reference = workloads.load_reference(args.workload)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is not None:
            ctx.tracer = tracer.install()
        run = workloads.WORKLOADS[args.workload](ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if args.write_reference:
        workloads.save_reference(args.workload, ctx.reference)
        print(f"wrote {workloads.reference_path(args.workload)}")
        return 0 if run.failed == 0 else 1

    e2e = run.end_to_end()
    _, beyond = measure.tail(run.latencies_ms, run.tail_percentile)
    detail = {"workload": args.workload, "trace": args.trace,
              "latency_samples": len(run.latencies_ms),
              "latency_tail_percentile": run.tail_percentile,
              "latency_samples_beyond_tail": beyond, "setup_samples_s": run.setup_s,
              "operations_per_cpu": {c: run.cpus.count(c) for c in ctx.allowed_cpus},
              # scaled time = wall time * scale; below 1 when the machine ran slow
              "probe": run.probe.name,
              "probe_scale_quartiles": statistics.quantiles(run.scales, n=4),
              "cpu_moves": sum(a != b for a, b in zip(run.cpus, run.cpus[1:]))}
    print("env " + json.dumps(measure.environment(ROOT, args.seed)))
    print("detail " + json.dumps(detail))
    if tracer is None:
        metrics = e2e
    else:
        # the tracing overhead is this line against an untraced run's result
        print("traced-end-to-end " + json.dumps({k: v for k, (v, _) in e2e.items()}))
        metrics = dict(tracer.per_layer())
        for name, unit in workloads.EXTRA_UNITS.items():
            metrics[name] = run.extra.get(name, (0.0, unit))
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": float(v), "unit": u}
                                  for k, (v, u) in metrics.items()}}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
