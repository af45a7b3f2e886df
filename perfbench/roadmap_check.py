#!/usr/bin/env python3
"""Re-measure the default-config figures of the ROADMAP baseline.

    python3 perfbench/roadmap_check.py

Run from the root of a checkout. With the default ModelConfig it times:

- one eval forward of an 8x64x64 chunk and the units of one full-resolution
  cell (``workloads.time_units``, timed by the tracer's spans), for the
  initial weights and for the benchmark's calibrated checkpoint;
- one traced ``imt train`` request of two steps at patch 32, batch 2, T=8
  (step 1 refreshes the Hessian, step 2 does not), with per-step time, tape
  records, tape memory and tracemalloc peak.

The process caps its own address space (RLIMIT_AS, 6 GiB) so that running
out of memory raises MemoryError instead of drawing the kernel's OOM killer.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import resource
import shutil
import sys
from pathlib import Path

AS_LIMIT = 6 * 1024**3


def main() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT, AS_LIMIT))
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    import tracer
    import workloads
    from imt import cli, imgstack, network, phantom

    cfg = network.ModelConfig()
    rng = np.random.default_rng(0)
    shape = (8, 64, 64)
    chunk = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(np.complex64)
    chunk_n, _ = imgstack.power_normalize(imgstack.ComplexImageStack(chunk))
    for label, params in (
        ("initial weights", network.init_params(cfg, 0)),
        ("calibrated checkpoint", workloads.denoise_checkpoint(0, tracer.NullTracer())[0]),
    ):
        network.forward(chunk_n, params, cfg)
        tr = tracer.Tracer()
        tr.install()
        try:
            with tr.primitives_off():
                network.forward(chunk_n, params, cfg)
            lines = []
            workloads.time_units(params, cfg, (shape,), 0, tr, lines.append)
        finally:
            tr.uninstall()
        fwd = tr.totals()["network.forward"][1]
        print(f"{label}: eval forward 8x64x64 {fwd:.2f} s; {lines[0]}")

    work = root / ".bench_work" / "roadmap"
    shutil.rmtree(work, ignore_errors=True)
    (work / "data").mkdir(parents=True)
    for k in range(4):
        stack = phantom.make_phantom(8, 64, 64, seed=0, index=k)
        imgstack.save_stack(stack, work / "data" / f"s{k}.imts")
    config = {"train": {"epochs": 1, "steps_per_epoch": 2, "patch_sizes": [32],
                        "val_samples": 1, "augment": False}}
    (work / "run.json").write_text(json.dumps(config))
    tr = tracer.Tracer()
    tr.install()
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["train", "--config", str(work / "run.json"),
                           "--data", str(work / "data"), "--out", str(work / "out")])
    except MemoryError:
        rc = "MemoryError"
    finally:
        tr.uninstall()
    tail = err.getvalue().strip()[-300:]
    print(f"imt train, default config, patch 32, 2 steps: exit {rc} {tail}")
    log = work / "out" / "train_log.csv"
    if log.is_file():
        with open(log) as fh:
            walls = [r["wall_ms"] for r in csv.DictReader(fh) if r["train_loss"]]
        print(f"  step wall ms (refresh, plain): {walls}")
    for kind in ("refresh", "plain"):
        print(f"  {kind}: tape records {tr.tape_records[kind]}, "
              f"tape MB {[round(x) for x in tr.tape_mb[kind]]}, "
              f"tracemalloc step peak MB {[round(x) for x in tr.step_peak_mb[kind]]}")
    print(f"  peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
