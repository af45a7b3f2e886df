#!/usr/bin/env python3
"""Run one imt benchmark workload and print its result.

    python3 perfbench/run.py --workload denoise --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports ``imt`` from ./src and
keeps its scratch files under ./.bench_work, removed at exit. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics. The lines before it name every metric with its unit, including the
workload-specific figures, and give the machine descriptor and notes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1 runs
the same workload with the span tracer installed and reports the per-layer
metrics instead. Every run also writes its full result (and, when traced, its
spans) under ./.bench_out for summarize.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("denoise", "train", "baseline-eval")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program(root: Path):
    """Import imt from the checkout's ./src; None when there is none."""
    src = root / "src"
    if not (src / "imt" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import imt

    if Path(imt.__file__).resolve().parent != (src / "imt").resolve():
        return None
    return imt


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tracing_overhead(out_dir: Path, workload: str, machine_id: str, traced: float) -> str | None:
    """Traced cycle time against the untraced runs already on disk."""
    untraced = []
    for path in out_dir.glob(f"{workload}.t0.*.json"):
        doc = json.loads(path.read_text())
        if doc["machine"]["machine_id"] == machine_id and doc["result"]["correct"]:
            untraced.append(doc["result"]["metrics"]["cycle_s"]["value"])
    if not untraced or traced <= 0:
        return None
    base = statistics.median(untraced)
    return (
        f"tracing overhead: traced cycle {traced:.3f} s vs untraced median {base:.3f} s "
        f"over {len(untraced)} runs: {traced - base:+.3f} s ({100 * (traced / base - 1):+.1f}%)"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if import_program(root) is None:
        print("run.py: no imt package under ./src; run from the root of an imt checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import machine
    import tracer
    import workloads

    desc = machine.describe()
    run = workloads.Run()
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
    else:
        tr = tracer.NullTracer()
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workloads.WORKLOADS[args.workload](run, args.seed, args.seconds, work, tr)
        if args.trace:
            workloads.unit_benchmark(args.workload, args.seed, tr, run.notes.append)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if args.trace:
            tr.uninstall()

    cycle = statistics.median(run.cycle_s) if run.cycle_s else 0.0
    correct = not run.check_failures and run.request_failures == 0 and bool(run.cycle_s)
    if args.trace:
        metrics = tracer.per_layer_metrics(tr, cycle)
    else:
        metrics = {
            "setup_s": (statistics.median(run.setup_s), "s"),
            "cycle_s": (cycle, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    figures = dict(run.figures)
    figures["setup_s"] = (statistics.median(run.setup_s), "s")
    figures["peak_rss_mb"] = (peak_rss_mb(), "MB")
    figures["error_rate"] = (run.failed / max(run.attempted, 1), "failed/attempted")

    print(f"machine: {json.dumps(desc, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}: "
          f"{run.attempted} requests, {run.failed} failed, "
          f"{len(run.setup_s)} set-ups ({min(run.setup_s):.4f}-{max(run.setup_s):.4f} s), "
          f"cycle samples {[round(s, 4) for s in run.cycle_s]}")
    for name, (value, unit) in sorted(figures.items()):
        print(f"  {name} = {value:.6g} {unit}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name} = {value:.6g} {unit}")
    for line in run.notes + run.errors + [f"check failed: {c}" for c in run.check_failures]:
        print(f"  {line}")

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}.t{args.trace}.s{args.seed}.{time.time_ns()}"
    if args.trace:
        overhead = tracing_overhead(out_dir, args.workload, desc["machine_id"], cycle)
        if overhead:
            print(f"  {overhead}")
        tr.write_spans(out_dir / f"{stem}.spans.jsonl")
        ranked = sorted(tr.prims.items(), key=lambda kv: -kv[1][1])
        print("  primitives by self time (s/calls): "
              + ", ".join(f"{n} {c[1]:.3f}/{c[0]}" for n, c in ranked if c[0]))
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": value, "unit": unit} for n, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": desc,
        "result": result,
        "figures": {n: {"value": v, "unit": u} for n, (v, u) in figures.items()},
        "setup_s": run.setup_s,
        "cycle_s": run.cycle_s,
        "notes": run.notes,
        "errors": run.errors,
        "check_failures": run.check_failures,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
