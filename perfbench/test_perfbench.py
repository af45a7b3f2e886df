"""Fast self-check of the benchmark itself (not of imt).

    python3 -m pytest -q perfbench/test_perfbench.py

Runs in about 15 seconds: the tracer's bookkeeping on a tiny training
request, the repeated set-up, the result line of a short real run, and the
refusal to run outside a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import summarize  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_covered_child_time():
    parent = tracer.Span("p", 0.0, None, 1, 0)
    parent.end = 10.0
    a = tracer.Span("a", 1.0, 0, 1, 0)
    a.end = 4.0
    b = tracer.Span("b", 3.0, 0, 1, 0)  # overlaps a: covered once
    b.end = 6.0
    assert tracer.self_times([parent, a, b]) == [5.0, 3.0, 3.0]


def test_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    median, q1, q3, share = summarize.spread(values)
    assert (median, q1, q3) == (12.0, 10.5, 13.5)
    assert share == pytest.approx(0.25)


def test_repeated_setup_keeps_variant_zero_only(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_MIN_S", 0.05)

    def make(d, variant):
        d.mkdir(parents=True)
        (d / "variant").write_text(str(variant))

    run = workloads.Run()
    kept = workloads.repeated_setup(run, tmp_path, make)
    assert len(run.setup_s) >= workloads.SETUP_MIN_REPEATS
    assert sum(run.setup_s) >= workloads.SETUP_MIN_S
    assert [p.name for p in tmp_path.iterdir()] == [kept.name]
    assert (kept / "variant").read_text() == "0"


def test_traced_training_request_fills_every_per_layer_metric(tmp_path):
    import numpy as np
    from imt import autodiff, cli, phantom, training
    from imt.imgstack import save_stack

    for k in range(2):
        save_stack(phantom.make_phantom(2, 16, 16, seed=5, index=k), tmp_path / f"s{k}.imts")
    config = {
        "model": {"channels": 4, "heads": 1, "window": 8, "slice_depth": 2, "mixer_expansion": 1},
        "train": {"epochs": 1, "steps_per_epoch": 2, "batch": 1, "patch_sizes": [16],
                  "hessian_update_every": 2, "val_samples": 1},
    }
    (tmp_path / "run.json").write_text(json.dumps(config))
    originals = (cli.main, training.forward_graph, autodiff.backward, dict(autodiff._FORWARD))
    tr = tracer.Tracer()
    tr.install()
    try:
        argv = ["train", "--config", str(tmp_path / "run.json"), "--data", str(tmp_path),
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
    finally:
        tr.uninstall()
    assert (cli.main, training.forward_graph, autodiff.backward) == originals[:3]
    assert autodiff._FORWARD == originals[3]

    totals = tr.totals()
    assert totals["cli.main"][0] == 1
    assert totals["autodiff.backward"][0] == 2
    assert totals["autodiff.backward_hvp"][0] == 1
    assert tr.tape_records["refresh"][0] > tr.tape_records["plain"][0] > 0
    assert len(tr.step_peak_mb["plain"]) == len(tr.step_peak_mb["refresh"]) == 1
    assert all(s.request == 1 for s in tr.spans)
    metrics_out = tracer.per_layer_metrics(tr, 1.0)
    assert [m["name"] for m in BENCH["per_layer"]] == list(metrics_out)
    for m in BENCH["per_layer"]:
        assert metrics_out[m["name"]][1] == m["unit"]
        assert np.isfinite(metrics_out[m["name"]][0])
    assert metrics_out["training.sophia_step_s"][0] > 0
    assert metrics_out["autodiff.matmul.gflop"][0] > 0


def test_run_prints_the_end_to_end_metrics_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "baseline-eval", "--seed", "3",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and entry["value"] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCH["command"], "--workload", "denoise", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
