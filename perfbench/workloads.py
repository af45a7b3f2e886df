"""The benchmark's three workloads: denoise, train and baseline-eval.

Every workload drives the public ``imt.cli.main([...])`` entry in-process,
closed loop with one client: the next request goes out only after the
previous one returned, so each request is exactly what a user types. The
program sees only the ``.imts`` files, config and checkpoint that set-up
generates from the seed.

A run sets up repeatedly (see ``repeated_setup``) and keeps the first
set-up; then it issues requests until the next one is not expected to
finish inside the time budget. Output checks run outside the timed part
and count a failed check like a failed request.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from imt import baseline, cli, imgstack, metrics, network, noisegen, phantom
from imt.errors import ImtError

# set-up is short (25 ms on train), so its median takes many samples
SETUP_MIN_REPEATS = 11
SETUP_MIN_S = 2.0

# denoise: (slices, height, width) of the input stacks, in request order
DENOISE_SHAPES = ((4, 64, 64), (16, 64, 64), (8, 100, 100))
DENOISE_SIGMA = 4.0
HEAD_STD = 0.02
CALIBRATION_SHAPE = (4, 32, 32)
# a float32 request against a float64 forward with the same weights; the
# measured relative error is 3e-8 to 5e-8
FLOAT64_REL_TOL = 1e-6

# train: AC-7's model at patch 32, two Hessian refreshes in 20 steps
TRAIN_STACKS = 4
TRAIN_STACK_SHAPE = (8, 64, 64)
TRAIN_MODEL = {"channels": 16, "heads": 2, "window": 8, "slice_depth": 4}
TRAIN_EPOCHS = 2
TRAIN_STEPS_PER_EPOCH = 10
TRAIN_BATCH = 2
TRAIN_HESSIAN_EVERY = 10
# The training seed draws the patch sizes (the resize ratio sets each step's
# cost) and noise levels. It is fixed so that every run does the same work;
# --seed varies the phantoms.
TRAIN_SEED = 1

# default-config memory probe: one refresh step at patch 64 in a child whose
# address space is capped, so running out is a MemoryError and not a kill.
# The cap is a quarter of an 8 GB machine, so the child cannot crowd out
# other processes. The probe therefore passes only once such a step fits in
# 2 GiB of address space, a stricter mark than fitting on an 8 GB machine.
PROBE_AS_LIMIT = 2 * 1024**3
# keeps a whole train run under three minutes even if the probe hangs
PROBE_TIMEOUT_S = 100

# baseline-eval
EVAL_SHAPE = (32, 256, 256)
EVAL_STACKS = 2
EVAL_SIGMA = 4.0
EVAL_THREADS = "2"


class Run:
    """Counters and samples of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.request_failures = 0
        self.check_failures: list[str] = []
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.cycle_s: list[float] = []
        self.figures: dict[str, tuple[float, str]] = {}
        self.notes: list[str] = []

    def request(self, argv, env=None) -> tuple[bool, float]:
        """Send one request through imt.cli.main; True when it exited 0."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        saved = {k: os.environ.get(k) for k in (env or {})}
        os.environ.update(env or {})
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except Exception:  # a crash is a failed request, not a failed run
            rc = None
            err.write(traceback.format_exc())
        finally:
            dt = time.perf_counter() - t0
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        if rc != 0:
            self.failed += 1
            self.request_failures += 1
            self.errors.append(f"imt {argv[0]} exited {rc}: {err.getvalue().strip()[-400:]}")
            return False, dt
        return True, dt

    def check(self, ok: bool, what: str) -> None:
        """Record an output check; a failure counts as a failed request."""
        if not ok:
            self.failed += 1
            self.check_failures.append(what)


def timed_loop(seconds: float, min_requests: int, keys, send) -> float:
    """Closed loop over ``keys`` (cycled) until the budget is spent.

    The next request starts only if its last duration still fits in the
    budget, so the count does not hinge on a few milliseconds. Returns the
    busy time.
    """
    last: dict = {}
    start = time.perf_counter()
    i = 0
    while True:
        key = keys[i % len(keys)]
        elapsed = time.perf_counter() - start
        if i >= min_requests and elapsed + last.get(key, 0.0) > seconds:
            break
        last[key] = send(key)
        i += 1
    return time.perf_counter() - start


def repeated_setup(run: Run, work: Path, make) -> Path:
    """Set up at least SETUP_MIN_REPEATS times and for at least SETUP_MIN_S
    seconds, each time into a fresh directory. Set-up k builds variant k of
    the inputs: its phantoms sit at other indices of the seed's set, and a
    phantom's cost grows with its random ellipse count, so the median spans
    many phantoms instead of the few of one seed. Variant 0 is kept for the
    requests; each other one is removed after it is timed."""
    k, spent = 0, 0.0
    while k < SETUP_MIN_REPEATS or spent < SETUP_MIN_S:
        t0 = time.perf_counter()
        make(work / f"setup{k}", k)
        run.setup_s.append(time.perf_counter() - t0)
        spent += run.setup_s[-1]
        if k:
            shutil.rmtree(work / f"setup{k}")
        k += 1
    return work / "setup0"


def _noisy_stack(shape, seed: int, index: int) -> imgstack.ComplexImageStack:
    clean = phantom.make_phantom(*shape, seed=seed, index=index)
    gmap = noisegen.make_gmap(noisegen.GmapModel(kind="radial_ramp", alpha=1.0), shape[1], shape[2])
    noisy, _ = noisegen.make_training_pair(
        clean, noisegen.NoiseSpec(sigma=DENOISE_SIGMA, seed=seed * 16 + index), gmap
    )
    return noisy


def _shape_name(shape) -> str:
    return "x".join(str(n) for n in shape)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# denoise


def denoise_checkpoint(seed: int, tr):
    """Default-config weights with a seeded non-zero head, so the net is not
    the identity, and batch-norm running statistics taken from one seeded
    calibration chunk, as a trained checkpoint would carry. With the initial
    running statistics (0, 1) activations grow cell by cell, attention
    saturates, and float32 drifts from float64 by 0.3%."""
    cfg = network.ModelConfig()
    params = network.init_params(cfg, init_seed=seed)
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x68656164]))
    for name in ("head.weight", "head.bias"):
        shape = params.tensors[name].shape
        params.tensors[name] = (rng.standard_normal(shape) * HEAD_STD).astype(np.float32)
    calibration, _ = imgstack.power_normalize(_noisy_stack(CALIBRATION_SHAPE, seed, 99))
    with tr.paused():
        calibrate = dataclasses.replace(cfg, bn_momentum=1.0)
        network.forward(calibration, params, calibrate, mode="train")
    return params, cfg


def run_denoise(run: Run, seed: int, seconds: float, work: Path, tr) -> None:
    def make(d: Path, variant: int):
        d.mkdir(parents=True)
        params, cfg = denoise_checkpoint(seed, tr)
        network.save_checkpoint(d / "model.ckpt", params, cfg)
        for k, shape in enumerate(DENOISE_SHAPES):
            stack = _noisy_stack(shape, seed, variant * len(DENOISE_SHAPES) + k)
            imgstack.save_stack(stack, d / f"in_{_shape_name(shape)}.imts")

    d = repeated_setup(run, work, make)
    ckpt = d / "model.ckpt"
    outputs: dict = {}
    times: dict = {s: [] for s in DENOISE_SHAPES}

    def send(shape, timed=True):
        name = _shape_name(shape)
        src, dst = d / f"in_{name}.imts", d / f"out_{name}.imts"
        ok, dt = run.request(["denoise", "--model", str(ckpt), "--in", str(src), "--out", str(dst)])
        if ok and timed:
            times[shape].append(dt)
        if ok:
            with tr.paused():
                check_denoise_output(run, shape, src, dst, outputs)
        return dt

    # untimed warm-up on the smallest stack; its output is the reference of
    # the repeat check and of the float64 probe
    send(DENOISE_SHAPES[0], timed=False)
    with tr.paused():
        float64_probe(run, seed, tr, d / f"in_{_shape_name(DENOISE_SHAPES[0])}.imts", outputs)
    busy = timed_loop(seconds, len(DENOISE_SHAPES), DENOISE_SHAPES, send)

    medians = {s: statistics.median(v) for s, v in times.items() if v}
    if len(medians) == len(DENOISE_SHAPES):
        run.cycle_s.append(sum(medians.values()))
    for shape, value in medians.items():
        run.figures[f"denoise_s.{_shape_name(shape)}"] = (value, "s")
    voxels = sum(math.prod(s) * len(v) for s, v in times.items())
    total = sum(sum(v) for v in times.values())
    if total > 0:
        run.figures["denoise_vox_per_s"] = (voxels / total / 1e6, "Mvox/s")
    counts = ", ".join(f"{_shape_name(s)}={len(v)}" for s, v in times.items())
    run.notes.append(f"denoise requests per shape: {counts}; busy {busy:.2f} s")


def check_denoise_output(run: Run, shape, src: Path, dst: Path, outputs: dict) -> None:
    name = _shape_name(shape)
    inp = imgstack.load_stack(src).data
    out = imgstack.load_stack(dst).data
    run.check(out.shape == inp.shape and out.dtype == inp.dtype, f"denoise {name}: shape/dtype")
    run.check(bool(np.all(np.isfinite(out))), f"denoise {name}: non-finite output")
    if shape in outputs:
        run.check(_same_bits(out, outputs[shape]), f"denoise {name}: repeat not bitwise equal")
    else:
        outputs[shape] = out


def float64_probe(run: Run, seed: int, tr, src: Path, outputs: dict) -> None:
    """The float32 request against a float64 forward with the same weights."""
    shape = DENOISE_SHAPES[0]
    if shape not in outputs:
        return
    params, cfg = denoise_checkpoint(seed, tr)
    normalized, state = imgstack.power_normalize(imgstack.load_stack(src))
    ref = network.forward(normalized.data.astype(np.complex128), params.astype(np.float64), cfg)
    ref = imgstack.power_denormalize(ref, state).data.astype(np.complex128)
    got = outputs[shape].astype(np.complex128)
    rel = float(np.linalg.norm(got - ref) / np.linalg.norm(ref))
    run.notes.append(f"float64 probe: relative error {rel:.3e} (tolerance {FLOAT64_REL_TOL:g})")
    run.check(rel <= FLOAT64_REL_TOL, f"float64 probe: relative error {rel:.3e}")


# ---------------------------------------------------------------------------
# train


def train_config(data: Path) -> dict:
    return {
        "model": TRAIN_MODEL,
        "train": {
            "lr": 0.01,
            "weight_decay": 0.01,
            "epochs": TRAIN_EPOCHS,
            "steps_per_epoch": TRAIN_STEPS_PER_EPOCH,
            "batch": TRAIN_BATCH,
            "patch_sizes": [32],
            "hessian_update_every": TRAIN_HESSIAN_EVERY,
            "sigma_range": [2.0, 6.0],
            "seed": TRAIN_SEED,
        },
        "noise": {"kind": "radial_ramp", "alpha": 1.0},
        "data": {"train_dir": str(data)},
    }


def probe_config(data: Path) -> dict:
    # built-in model and optimizer defaults; one step, which is a refresh
    # step, at exactly patch 64 (augmentation's resize would change it)
    return {
        "train": {
            "epochs": 1,
            "steps_per_epoch": 1,
            "patch_sizes": [64],
            "val_samples": 1,
            "augment": False,
        },
        "data": {"train_dir": str(data)},
    }


def run_train(run: Run, seed: int, seconds: float, work: Path, tr) -> None:
    def make(d: Path, variant: int):
        data = d / "data"
        data.mkdir(parents=True)
        for k in range(TRAIN_STACKS):
            index = variant * TRAIN_STACKS + k
            stack = phantom.make_phantom(*TRAIN_STACK_SHAPE, seed=seed, index=index)
            imgstack.save_stack(stack, data / f"stack_{k:03d}.imts")
        (d / "train.json").write_text(json.dumps(train_config(data)))
        (d / "probe.json").write_text(json.dumps(probe_config(data)))

    d = repeated_setup(run, work, make)
    memory_probe(run, d)
    steps = {"plain": [], "refresh": []}
    n = [0]

    def send(_):
        out = d / f"run{n[0]}"
        n[0] += 1
        ok, dt = run.request(["train", "--config", str(d / "train.json"), "--out", str(out)])
        if ok:
            run.cycle_s.append(dt)
            with tr.paused():
                check_train_output(run, out, steps)
        return dt

    timed_loop(seconds, 1, ("train",), send)
    samples = TRAIN_EPOCHS * TRAIN_STEPS_PER_EPOCH * TRAIN_BATCH
    if run.cycle_s:
        per_s = samples / statistics.median(run.cycle_s)
        run.figures["train_samples_per_s"] = (per_s, "samples/s")
    for kind, name in (("plain", "train_step_ms_p50"), ("refresh", "train_refresh_step_ms_p50")):
        if steps[kind]:
            run.figures[name] = (statistics.median(steps[kind]), "ms")


def check_train_output(run: Run, out: Path, steps: dict) -> None:
    with open(out / "train_log.csv") as fh:
        rows = list(csv.DictReader(fh))
    step_rows = [r for r in rows if r["train_loss"]]
    val_rows = [r for r in rows if r["val_loss"]]
    total = TRAIN_EPOCHS * TRAIN_STEPS_PER_EPOCH
    run.check(
        [int(r["step"]) for r in step_rows] == list(range(1, total + 1))
        and len(val_rows) == TRAIN_EPOCHS,
        "train: log does not hold every step and validation row",
    )
    losses = [float(r["train_loss"]) for r in step_rows] + [float(r["val_loss"]) for r in val_rows]
    run.check(all(math.isfinite(x) for x in losses), "train: non-finite loss in log")
    for r in step_rows:
        refresh = (int(r["step"]) - 1) % TRAIN_HESSIAN_EVERY == 0
        steps["refresh" if refresh else "plain"].append(float(r["wall_ms"]))
    if val_rows:
        run.figures["train_val_loss_end"] = (float(val_rows[-1]["val_loss"]), "loss")
    try:
        params, cfg, _ = network.load_checkpoint(out / "best.ckpt")
        network.verify_checkpoint(params, cfg)
        ok = True
    except (ImtError, OSError) as exc:
        ok = False
        run.notes.append(f"best.ckpt: {exc!r}")
    run.check(ok, "train: best.ckpt does not load or verify")


PROBE_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
sys.path.insert(0, {src!r})
from imt.cli import main
sys.exit(main({argv!r}))
"""


def memory_probe(run: Run, d: Path) -> None:
    """One default-config refresh step at patch 64, in a capped child.

    It counts as a request: today it fails with MemoryError (the default
    config does not fit), and the failure stays visible in the error count.
    """
    src = str(Path(sys.modules["imt"].__file__).parent.parent)
    argv = ["train", "--config", str(d / "probe.json"), "--out", str(d / "probe")]
    code = PROBE_CHILD.format(limit=PROBE_AS_LIMIT, src=src, argv=argv)
    env = dict(os.environ, TMPDIR=str(d))
    run.attempted += 1
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=d,
            env=env,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        rc, err = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        rc, err = "timeout", ""
    dt = time.perf_counter() - t0
    if rc == 0:
        outcome = "ok"
    elif isinstance(rc, int) and rc < 0:
        outcome = f"killed by signal {-rc}"
    elif "MemoryError" in err:
        outcome = "MemoryError"
    else:
        outcome = f"exit {rc}"
    if rc != 0:
        run.failed += 1
        run.errors.append(f"default-config probe: {outcome}")
    run.notes.append(
        f"default-config probe (patch 64 refresh step, RLIMIT_AS "
        f"{PROBE_AS_LIMIT / 1024**3:g} GiB): {outcome} after {dt:.1f} s"
    )


# ---------------------------------------------------------------------------
# baseline-eval


def run_baseline_eval(run: Run, seed: int, seconds: float, work: Path, tr) -> None:
    def make(d: Path, variant: int):
        d.mkdir(parents=True)
        for k in range(EVAL_STACKS):
            stack = phantom.make_phantom(*EVAL_SHAPE, seed=seed, index=variant * EVAL_STACKS + k)
            imgstack.save_stack(stack, d / f"clean_{k}.imts")

    d = repeated_setup(run, work, make)
    psnr_noisy, psnr_base = [], []
    n = [0]

    def send(_):
        i = n[0]
        n[0] += 1
        clean = d / f"clean_{i % EVAL_STACKS}.imts"
        noisy, shrunk, report = d / "noisy.imts", d / "shrunk.imts", d / "report.json"
        ok, dt = run.request(
            ["synth", "--clean", str(clean), "--gmap-model", "radial_ramp:1.0",
             "--sigma", str(EVAL_SIGMA), "--seed", str(seed * 1000 + i), "--out", str(noisy)]
        )
        if ok:
            ok, t = run.request(["baseline", "--in", str(noisy), "--out", str(shrunk)],
                                env={"IMT_THREADS": EVAL_THREADS})
            dt += t
        if ok:
            ok, t = run.request(
                ["eval", "--ref", str(clean), "--test", str(shrunk), "--json", str(report)]
            )
            dt += t
        if ok:
            run.cycle_s.append(dt)
            with tr.paused():
                check_baseline_output(run, clean, noisy, shrunk, report, psnr_noisy, psnr_base)
        return dt

    timed_loop(seconds, 1, ("cycle",), send)
    if run.cycle_s:
        voxels = math.prod(EVAL_SHAPE) * len(run.cycle_s)
        run.figures["eval_vox_per_s"] = (voxels / sum(run.cycle_s) / 1e6, "Mvox/s")
    if psnr_base:
        gain = statistics.fmean(psnr_base) - statistics.fmean(psnr_noisy)
        run.figures["baseline_psnr_gain_db"] = (gain, "dB")


def check_baseline_output(run, clean, noisy, shrunk, report, psnr_noisy, psnr_base) -> None:
    noisy_stack = imgstack.load_stack(noisy)
    sigma = baseline.adjusted_sigma(noisy_stack).adjusted
    serial = baseline.wavelet_shrink_denoise(noisy_stack, sigma).data
    run.check(_same_bits(imgstack.load_stack(shrunk).data, serial),
              "baseline: threaded output differs from serial wavelet_shrink_denoise")
    doc = json.loads(report.read_text())
    values = [doc["cases"][0][k] for k in ("psnr", "ssim", "nrmse")]
    finite = all(isinstance(v, float) and math.isfinite(v) for v in values)
    run.check(finite, f"eval: report not finite: {values}")
    if finite:
        psnr_base.append(values[0])
        psnr_noisy.append(metrics.psnr(noisy_stack, imgstack.load_stack(clean)))


WORKLOADS = {"denoise": run_denoise, "train": run_train, "baseline-eval": run_baseline_eval}

# chunk shapes (T, H, W) the network sees per workload, for the per-unit
# micro-benchmark of the traced run, with the config that runs them
UNIT_SHAPES = {
    "denoise": ((8, 64, 64), (8, 100, 100), (4, 64, 64)),
    "train": ((4, 32, 32),),
}


def unit_benchmark(workload: str, seed: int, tr, log) -> None:
    """The per-unit micro-benchmark of a traced run, on the workload's model
    and chunk shapes."""
    shapes = UNIT_SHAPES.get(workload, ())
    if not shapes:
        return
    if workload == "denoise":
        params, cfg = denoise_checkpoint(seed, tr)
    else:
        cfg = network.ModelConfig(**TRAIN_MODEL)
        params = network.init_params(cfg, init_seed=seed)
    time_units(params, cfg, shapes, seed, tr, log)


def time_units(params, cfg, shapes, seed: int, tr, log) -> None:
    """Call the public per-unit network ops of the first cell once per chunk
    shape, at full and half resolution. The tracer records each call as a
    span; the log line reads the durations back from those spans."""
    cell = params.subset("stage1.cell0")
    rng = np.random.Generator(np.random.Philox(key=[seed, 0x756E6974]))
    with tr.primitives_off():
        for t, h, w in shapes:
            chunk = rng.standard_normal((t, h, w)) + 1j * rng.standard_normal((t, h, w))
            chunk = chunk.astype(np.complex64)
            full = network.embed(chunk, params, cfg).values
            half = full[:, :, ::2, ::2]
            ph, pw = (-half.shape[2]) % cfg.window, (-half.shape[3]) % cfg.window
            half = np.pad(half, ((0, 0), (0, 0), (0, ph), (0, pw)), mode="reflect")
            for res, grid in (("full", full), ("half", np.ascontiguousarray(half))):
                first = len(tr.spans)
                for unit in ("slice", "local", "global"):
                    op = getattr(network, f"{unit}_attention")
                    op(grid, params.subset(f"stage1.cell0.{unit}.attn"), cfg)
                network.attention_cell(grid, cell, cfg)
                row = [
                    f"{span.name.removeprefix('network.')} {1e3 * (span.end - span.start):.1f}"
                    for span in tr.spans[first:]
                    if span.parent is None
                ]
                size = f"{grid.shape[2]}x{grid.shape[3]}"
                log(f"unit ms, chunk {t}x{h}x{w} grid {size} ({res}): " + ", ".join(row))
