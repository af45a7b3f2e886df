#!/usr/bin/env python3
"""Summarize benchmark results written by run.py.

    python3 perfbench/summarize.py [RESULT.json ...]

With no arguments it reads every result under ./.bench_out. For each
workload and trace mode it prints, per metric, the run count, the median,
the quartiles and the spread: the distance between the quartiles as a share
of the median, as statistics.quantiles(values, n=4) gives them. End-to-end
metrics also show their bound from BENCHMARK.json.

Results from machines with different descriptors are never summarized
together: the script exits 1 when the files carry more than one machine_id.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(Path(".bench_out").glob("*.json"))
    docs = [json.loads(p.read_text()) for p in paths if not p.name.endswith(".spans.jsonl")]
    if not docs:
        print("no results", file=sys.stderr)
        return 1
    machines = {d["machine"]["machine_id"] for d in docs}
    if len(machines) > 1:
        print(f"results come from {len(machines)} machine descriptors {sorted(machines)}; "
              "compare only results of one machine", file=sys.stderr)
        return 1
    bench = Path("BENCHMARK.json")
    bounds = {}
    if bench.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(bench.read_text())["end_to_end"]}
    groups: dict = {}
    for d in docs:
        groups.setdefault((d["workload"], d["trace"]), []).append(d)
    for (workload, trace), runs in sorted(groups.items()):
        bad = sum(not r["result"]["correct"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print(f"{workload} trace={trace}: {len(runs)} runs, seeds "
              f"{sorted(r['seed'] for r in runs)}, {bad} not correct, {failed}/{attempted} failed")
        series: dict = {}
        for r in runs:
            for source in ("result", "figures"):
                table = r["result"]["metrics"] if source == "result" else r["figures"]
                for name, entry in table.items():
                    key = name if source == "result" else f"({name})"
                    series.setdefault((key, entry["unit"]), []).append(entry["value"])
        for (name, unit), values in series.items():
            median, q1, q3, share = spread(values)
            bound = bounds.get(name) if trace == 0 else None
            flag = ""
            if bound is not None:
                flag = f"  bound {bound:g}{'  OVER' if share > bound else ''}"
            print(f"  {name:38s} n={len(values):2d} median {median:12.6g} {unit:10s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {share:7.2%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
