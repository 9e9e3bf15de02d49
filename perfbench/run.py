"""Benchmark of imdp: one workload per run, end-to-end or per-layer figures.

    python3 perfbench/run.py --workload trend-private --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` wraps the program's public
functions and reports per-layer metrics instead.  See README.md here.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

# One BLAS thread, fixed before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = (("setup_s", "s"), ("op_ms", "ms"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def per_round(outcome) -> list[float]:
    """Mean operation time of each round of the timed phase."""
    k = outcome.round_size
    return [sum(outcome.op_s[i:i + k]) / k for i in range(0, len(outcome.op_s), k)]


def end_to_end(outcome) -> dict[str, float]:
    return {
        "setup_s": statistics.median(outcome.setup_s),
        "op_ms": 1e3 * statistics.median(per_round(outcome)),
        "ops_per_s": outcome.ok_ops / sum(outcome.op_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "imdp" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {ROOT / 'src' / 'imdp'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import imdp
    if Path(imdp.__file__).resolve().parent != (ROOT / "src" / "imdp").resolve():
        sys.stderr.write(f"perfbench: imdp imported from {imdp.__file__}\n")
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                                workdir=str(workdir), tracer=tracer)
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        values, units = end_to_end(outcome), dict(END_TO_END)
    else:
        values = tracing.layer_metrics(tracer, len(outcome.op_s), per_round(outcome),
                                       outcome.train_owns_op)
        units = dict(tracing.LAYER_METRICS)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    for name, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    for failure in sorted(outcome.failures):
        print(f"failed operation: {failure}")
    print(f"operations attempted {outcome.attempted} failed {outcome.failed} "
          f"(timed {len(outcome.op_s)}, set-up repetitions {len(outcome.setup_s)})")
    for name in units:
        print(f"{name} {float(values[name])!r} {units[name]}")
    print(json.dumps({
        "correct": all(ok for _, ok, _ in outcome.checks),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
