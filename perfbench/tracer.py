"""Span tracer for the imt benchmark, installed from outside the package.

The tracer replaces public functions of ``imt`` under the names their callers
look them up by (``imt.training.forward_graph``, ``imt.cli.load_stack``, ...)
with wrappers that record one span per call: name, start, end, parent span
and request id. Spans stay in memory until the run writes them out. Autodiff
primitives are too many for spans, so they get counters instead (calls,
seconds, output bytes), bumped by wrapping the primitive table that
``autodiff._apply`` reads at every call.

Nothing under ``src/`` changes, and an untraced run installs no wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np

MB = 1024.0 * 1024.0

# (module, attribute, span name). The same function is wrapped once per
# module that binds it, because each caller resolves its own binding.
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "denoise_stack", "cli.denoise_stack"),
    ("cli", "_shrink_parallel", "baseline.shrink_wall"),
    ("cli", "load_stack", "imgstack.load_stack"),
    ("cli", "save_stack", "imgstack.save_stack"),
    ("cli", "power_normalize", "imgstack.power_normalize"),
    ("cli", "power_denormalize", "imgstack.power_denormalize"),
    ("cli", "make_training_pair", "noisegen.make_training_pair"),
    ("network", "forward", "network.forward"),
    ("network", "forward_graph", "network.forward_graph"),
    ("network", "load_checkpoint", "network.load_checkpoint"),
    ("network", "verify_checkpoint", "network.verify_checkpoint"),
    ("network", "embed", "network.embed"),
    ("network", "slice_attention", "network.slice_attention"),
    ("network", "local_attention", "network.local_attention"),
    ("network", "global_attention", "network.global_attention"),
    ("network", "attention_cell", "network.attention_cell"),
    ("training", "train", "training.train"),
    ("training", "forward", "network.forward"),
    ("training", "forward_graph", "network.forward_graph"),
    ("training", "sophia_step", "training.sophia_step"),
    ("training", "_sample_pair", "training.data"),
    ("training", "_val_loss", "training.val"),
    ("training", "save_checkpoint", "training.checkpoint"),
    ("training", "make_training_pair", "noisegen.make_training_pair"),
    ("training", "kspace_resize", "kspace.kspace_resize"),
    ("baseline", "adjusted_sigma", "baseline.adjusted_sigma"),
    ("baseline", "wavelet_shrink_denoise", "baseline.wavelet_shrink_denoise"),
    ("metrics", "build_report", "metrics.build_report"),
    ("metrics", "psnr", "metrics.psnr"),
    ("metrics", "ssim", "metrics.ssim"),
    ("metrics", "nrmse", "metrics.nrmse"),
    ("metrics", "write_report", "metrics.write_report"),
    ("phantom", "make_phantom", "phantom.make_phantom"),
)

# primitives reported one by one: those with the most self time on train,
# plus batch_norm_eval, which only the denoise path runs; the rest are summed
# under "other"
PRIMITIVES = (
    "matmul",
    "mul",
    "softmax",
    "add",
    "reduce_sum",
    "sigmoid",
    "broadcast_to",
    "reshape",
    "sub",
    "scatter_add",
    "batch_norm_train",
    "reduce_mean",
    "transpose",
    "batch_norm_eval",
)

FILE_SPANS = {"imgstack.load_stack": "bytes_read", "imgstack.save_stack": "bytes_written"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "thread")

    def __init__(self, name, start, parent, request, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.thread = thread

    def as_dict(self, index):
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "thread": self.thread,
        }


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def _base_nbytes(arr, seen: set) -> int:
    if not isinstance(arr, np.ndarray):
        return 0
    base = arr
    while isinstance(base.base, np.ndarray):
        base = base.base
    if id(base) in seen:
        return 0
    seen.add(id(base))
    return base.nbytes


def tape_nbytes(tape) -> int:
    """Bytes of the distinct arrays a tape's records keep alive."""
    seen: set = set()
    total = 0
    for rec in tape.records:
        total += _base_nbytes(rec.out.value, seen)
        for v in rec.inputs:
            total += _base_nbytes(v.value, seen)
        aux = rec.aux if isinstance(rec.aux, (tuple, list)) else (rec.aux,)
        for a in aux:
            total += _base_nbytes(a, seen)
    return total


def matmul_flops(a, b) -> int:
    a, b = np.shape(a), np.shape(b)
    batch = int(np.prod(np.broadcast_shapes(a[:-2], b[:-2]), dtype=np.int64))
    return 2 * batch * a[-2] * a[-1] * b[-1]


class Tracer:
    """Spans, primitive counters and per-step memory of one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.file_bytes = {"bytes_read": 0, "bytes_written": 0}
        self.prims: dict[str, list] = {}  # name -> [calls, seconds, out bytes]
        self.matmul_flops = 0
        self.tape_records = {"plain": [], "refresh": []}
        self.tape_mb = {"plain": [], "refresh": []}
        self.step_peak_mb = {"plain": [], "refresh": []}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._request = None
        self._requests = 0
        self._paused = 0
        self._count_prims = True
        self._backward_calls = weakref.WeakKeyDictionary()  # tape -> calls
        self._step = None  # open training step: {"refresh": bool}
        self._restore: list = []

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if name == "cli.main" and not stack:
            self._requests += 1
            self._request = self._requests
        span = Span(
            name,
            time.perf_counter(),
            stack[-1] if stack else None,
            self._request,
            threading.get_ident(),
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    @contextlib.contextmanager
    def primitives_off(self):
        self._count_prims = False
        try:
            yield
        finally:
            self._count_prims = True

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        byte_key = FILE_SPANS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            tracer._before(name)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if byte_key is not None:
                path = args[0] if byte_key == "bytes_read" else args[1]
                tracer.file_bytes[byte_key] += Path(path).stat().st_size
            tracer._after(name)
            return result

        return wrapper

    def _wrap_backward(self, fn, ad):
        tracer = self

        @functools.wraps(fn)
        def wrapper(out, wrt, create_graph=False, check_finite=True):
            if tracer._paused:
                return fn(out, wrt, create_graph, check_finite)
            tape = ad.current_tape()
            calls = tracer._backward_calls.get(tape, 0)
            tracer._backward_calls[tape] = calls + 1
            if calls == 0:
                name = "autodiff.backward"
                if not create_graph:
                    tracer._record_tape(tape, "plain")
            else:
                name = "autodiff.backward_hvp"
                tracer._record_tape(tape, "refresh")
                if tracer._step is not None:
                    tracer._step["refresh"] = True
            index = tracer._open(name)
            try:
                return fn(out, wrt, create_graph, check_finite)
            finally:
                tracer._close(index)

        return wrapper

    def _record_tape(self, tape, kind: str) -> None:
        self.tape_records[kind].append(len(tape.records))
        self.tape_mb[kind].append(tape_nbytes(tape) / MB)

    def _wrap_primitive(self, name: str, fn):
        tracer = self
        counter = self.prims.setdefault(name, [0, 0.0, 0])

        def forward(*values, **kwargs):
            if not tracer._count_prims or tracer._paused:
                return fn(*values, **kwargs)
            t0 = time.perf_counter()
            out = fn(*values, **kwargs)
            dt = time.perf_counter() - t0
            with tracer._lock:
                counter[0] += 1
                counter[1] += dt
                counter[2] += getattr(out[0], "nbytes", 0)
                if name == "matmul":
                    tracer.matmul_flops += matmul_flops(*values)
            return out

        return forward

    # per-step peak memory: the step opens at its first data sample and
    # closes when the optimizer step returns
    def _before(self, name):
        if name == "training.data" and self._step is None and not self._inside("training.val"):
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            tracemalloc.reset_peak()
            self._step = {"refresh": False}

    def _after(self, name):
        if name == "training.sophia_step" and self._step is not None:
            kind = "refresh" if self._step["refresh"] else "plain"
            self.step_peak_mb[kind].append(tracemalloc.get_traced_memory()[1] / MB)
            self._step = None

    def _inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self._stack())

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        """Wrap the functions in WRAPPED and every autodiff primitive."""
        for mod_name, attr, span in WRAPPED:
            mod = importlib.import_module(f"imt.{mod_name}")
            fn = getattr(mod, attr)
            self._restore.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, span))
        ad = importlib.import_module("imt.autodiff")
        self._restore.append((ad, "backward", ad.backward))
        ad.backward = self._wrap_backward(ad.backward, ad)
        original = dict(ad._FORWARD)
        for name, fn in original.items():
            ad._FORWARD[name] = self._wrap_primitive(name, fn)
        self._restore.append((ad, "_FORWARD", original))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            if attr == "_FORWARD":
                mod._FORWARD.update(value)
            else:
                setattr(mod, attr, value)
        self._restore.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, list[float]]:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        out: dict[str, list[float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.end - span.start
            row[2] += own
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")


class NullTracer:
    """Stands in for the tracer in untraced runs."""

    def paused(self):
        return contextlib.nullcontext()

    def primitives_off(self):
        return contextlib.nullcontext()


def _median(values) -> float:
    return float(np.median(values)) if values else 0.0


def per_layer_metrics(tr: Tracer, traced_cycle_s: float) -> dict:
    """The per-layer metric set of BENCHMARK.json from one traced run.

    A layer the workload never calls reports 0. The per-unit network figures
    come from the micro-benchmark spans (the program itself never calls the
    public per-unit ops).
    """
    tot = tr.totals()

    def incl(name):
        return tot.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return tot.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return tot.get(name, [0, 0.0, 0.0])[0]

    m: dict[str, tuple[float, str]] = {}
    m["network.embed_s"] = (incl("network.embed"), "s")
    units = 0.0
    for unit in ("slice", "local", "global"):
        m[f"network.{unit}_attention_s"] = (incl(f"network.{unit}_attention"), "s")
        units += incl(f"network.{unit}_attention")
    m["network.cell_rest_s"] = (max(incl("network.attention_cell") - units, 0.0), "s")
    m["network.forward_calls"] = (calls("network.forward"), "count")
    m["network.forward_s"] = (incl("network.forward"), "s")
    m["network.forward_graph_s"] = (incl("network.forward_graph"), "s")
    m["network.load_checkpoint_s"] = (incl("network.load_checkpoint"), "s")
    m["network.verify_checkpoint_s"] = (incl("network.verify_checkpoint"), "s")

    other = [0, 0.0, 0]
    for name, (n, sec, nbytes) in tr.prims.items():
        if name in PRIMITIVES:
            continue
        other[0] += n
        other[1] += sec
        other[2] += nbytes
    for name in PRIMITIVES + ("other",):
        n, sec, nbytes = other if name == "other" else tr.prims.get(name, [0, 0.0, 0])
        m[f"autodiff.{name}.calls"] = (n, "count")
        m[f"autodiff.{name}.self_s"] = (sec, "s")
        m[f"autodiff.{name}.out_mb"] = (nbytes / MB, "MB")
    m["autodiff.matmul.gflop"] = (tr.matmul_flops / 1e9, "GFLOP")
    m["autodiff.backward_s"] = (incl("autodiff.backward"), "s")
    m["autodiff.backward_hvp_s"] = (incl("autodiff.backward_hvp"), "s")
    for kind in ("plain", "refresh"):
        m[f"autodiff.tape_records.{kind}"] = (_median(tr.tape_records[kind]), "count")
        m[f"autodiff.tape_mb.{kind}"] = (_median(tr.tape_mb[kind]), "MB")

    m["training.data_s"] = (incl("training.data"), "s")
    m["training.sophia_step_s"] = (incl("training.sophia_step"), "s")
    m["training.val_s"] = (incl("training.val"), "s")
    m["training.checkpoint_s"] = (incl("training.checkpoint"), "s")
    for kind in ("plain", "refresh"):
        m[f"training.step_peak_mb.{kind}"] = (_median(tr.step_peak_mb[kind]), "MB")

    m["noisegen.make_training_pair_s"] = (incl("noisegen.make_training_pair"), "s")
    m["noisegen.make_training_pair_calls"] = (calls("noisegen.make_training_pair"), "count")
    m["kspace.kspace_resize_s"] = (incl("kspace.kspace_resize"), "s")
    m["kspace.kspace_resize_calls"] = (calls("kspace.kspace_resize"), "count")

    m["imgstack.load_stack_s"] = (incl("imgstack.load_stack"), "s")
    m["imgstack.save_stack_s"] = (incl("imgstack.save_stack"), "s")
    m["imgstack.bytes_read"] = (tr.file_bytes["bytes_read"], "bytes")
    m["imgstack.bytes_written"] = (tr.file_bytes["bytes_written"], "bytes")
    m["imgstack.power_normalize_s"] = (incl("imgstack.power_normalize"), "s")

    m["baseline.adjusted_sigma_s"] = (incl("baseline.adjusted_sigma"), "s")
    m["baseline.wavelet_shrink_denoise_s"] = (incl("baseline.wavelet_shrink_denoise"), "s")
    m["baseline.shrink_wall_s"] = (incl("baseline.shrink_wall"), "s")

    for name in ("psnr", "ssim", "nrmse", "write_report"):
        m[f"metrics.{name}_s"] = (incl(f"metrics.{name}"), "s")

    m["cli.denoise_stack_self_s"] = (own("cli.denoise_stack"), "s")
    m["cli.requests"] = (calls("cli.main"), "count")
    m["phantom.make_phantom_s"] = (incl("phantom.make_phantom"), "s")
    m["trace.cycle_s"] = (traced_cycle_s, "s")
    return m
