"""Imaging-transformer denoiser for complex slice stacks.

The forward path is: complex input -> 2-channel split -> patch embedding ->
stage 1 attention block -> stage 2 (full-resolution block in parallel with a
2x-downsampled block, fused by summation) -> pointwise head -> global
residual add -> complex output. Each attention cell mixes three parallel
units: slice attention (across the T slice positions at a fixed spatial
patch), local attention (tokens inside one window), and global attention
(same intra-window position across all windows).

All math runs through the autodiff primitives, so the very same code path is
differentiated during training and dtype-follows its inputs (the gradient
check runs it in float64).
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import container
from .errors import (
    SIZE,
    CheckpointMismatchError,
    FormatError,
    InvalidInputError,
    NumericalFailureError,
    check_fields,
)
from .imgstack import ComplexImageStack

UNITS = ("slice", "local", "global")

_CKPT_MAGIC = b"IMTCKPT1"


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; every tensor shape derives from these."""

    channels: int = 32
    heads: int = 4
    window: int = 8
    patch: int = 1
    cells_per_block: int = 2
    slice_depth: int = 8
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
    mixer_expansion: int = 2

    def __post_init__(self):
        check_fields(self, cells_per_block=(2, 3), bn_momentum="(0, 1]")
        if self.channels % self.heads != 0:
            raise InvalidInputError(
                f"channels ({self.channels}) must be divisible by heads ({self.heads})"
            )

    @property
    def in_features(self) -> int:
        return 2 * self.patch * self.patch


class ParameterSet:
    """Named tensors plus the seed they were drawn from.

    The trainer owns the only mutable instance; forward never writes except
    the running-statistic update in train mode.
    """

    def __init__(self, tensors: dict[str, np.ndarray], init_seed: int):
        for name, t in tensors.items():
            if not np.all(np.isfinite(t)):
                raise InvalidInputError(f"non-finite values in parameter {name!r}")
        self.tensors = dict(tensors)
        self.init_seed = int(init_seed)

    def names(self) -> list[str]:
        return list(self.tensors)

    def trainable_names(self) -> list[str]:
        return [n for n in self.tensors if not n.endswith((".running_mean", ".running_var"))]

    def subset(self, prefix: str) -> dict[str, np.ndarray]:
        """Flat dict of tensors under ``prefix`` with the prefix stripped."""
        out = _subdict(self.tensors, prefix)
        if not out:
            raise InvalidInputError(f"no parameters under prefix {prefix!r}")
        return out

    def copy(self) -> "ParameterSet":
        return ParameterSet({n: t.copy() for n, t in self.tensors.items()}, self.init_seed)

    def astype(self, dtype) -> "ParameterSet":
        return ParameterSet(
            {n: t.astype(dtype) for n, t in self.tensors.items()}, self.init_seed
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterSet):
            return NotImplemented
        return (
            self.init_seed == other.init_seed
            and self.tensors.keys() == other.tensors.keys()
            and all(np.array_equal(self.tensors[n], other.tensors[n]) for n in self.tensors)
        )


class FeatureGrid:
    """T x C x H x W real activations flowing between cells."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        arr = np.asarray(values)
        if arr.ndim != 4:
            raise InvalidInputError(f"feature grid must be 4-D (T,C,H,W), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("non-finite values in feature grid")
        self.values = arr

    @property
    def shape(self):
        return self.values.shape


# ---------------------------------------------------------------------------
# initialization

def _param_table(cfg: ModelConfig) -> dict[str, tuple[tuple[int, ...], object]]:
    """Name -> (shape, init) of every tensor ``cfg`` implies, in draw order.

    ``init`` is the std of a normal draw, or ``np.zeros``/``np.ones``. The
    table holds no arrays, so a checkpoint can be checked against a config
    of any size before anything is allocated.
    """
    c = cfg.channels
    e = cfg.mixer_expansion * c
    f = cfg.in_features
    t = {}
    t["embed.weight"] = ((f, c), 1.0 / math.sqrt(f))
    t["embed.bias"] = ((c,), np.zeros)
    t["embed.pos_bias"] = ((cfg.window, cfg.window, c), 0.02)
    t["embed.slice_bias"] = ((cfg.slice_depth, c), 0.02)

    def cell(prefix):
        for unit in UNITS:
            u = f"{prefix}.{unit}"
            t[f"{u}.bn.gamma"] = ((c,), np.ones)
            t[f"{u}.bn.beta"] = ((c,), np.zeros)
            t[f"{u}.bn.running_mean"] = ((c,), np.zeros)
            t[f"{u}.bn.running_var"] = ((c,), np.ones)
            for w in ("wq", "wk", "wv", "wo"):
                t[f"{u}.attn.{w}"] = ((c, c), 1.0 / math.sqrt(c))
            # no key bias: it adds q·b_k to every score of a row, and
            # softmax cancels a shift shared by a whole row
            for b in ("bq", "bv", "bo"):
                t[f"{u}.attn.{b}"] = ((c,), np.zeros)
            t[f"{u}.mixer.w1"] = ((c, e), 1.0 / math.sqrt(c))
            t[f"{u}.mixer.b1"] = ((e,), np.zeros)
            t[f"{u}.mixer.w2"] = ((e, c), 1.0 / math.sqrt(e))
            t[f"{u}.mixer.b2"] = ((c,), np.zeros)

    for i in range(cfg.cells_per_block):
        cell(f"stage1.cell{i}")
    t["stage2.down.weight"] = ((c, c), 1.0 / math.sqrt(c))
    t["stage2.down.bias"] = ((c,), np.zeros)
    for i in range(cfg.cells_per_block):
        cell(f"stage2.high.cell{i}")
        cell(f"stage2.low.cell{i}")
    t["head.weight"] = ((c, f), np.zeros)
    t["head.bias"] = ((f,), np.zeros)
    return t


def init_params(cfg: ModelConfig, init_seed: int = 0) -> ParameterSet:
    """Deterministic initialization from a counter-based stream.

    Projection weights are scaled by 1/sqrt(fan_in), biases are zero,
    positional tables start near zero, and the head starts at exactly zero so
    a fresh network is the identity map.
    """
    rng = np.random.Generator(np.random.Philox(key=[init_seed, 0]))
    t = {}
    for name, (shape, init) in _param_table(cfg).items():
        if callable(init):
            t[name] = init(shape, dtype=np.float32)
        else:
            t[name] = (rng.standard_normal(shape) * init).astype(np.float32)
    return ParameterSet(t, init_seed)


# ---------------------------------------------------------------------------
# Variable-space building blocks (x layout: B, T, H, W, C)

def _linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


def _heads_split(tok, heads):
    # (..., N, C) -> (..., heads, N, d)
    c = tok.shape[-1]
    return ad.swapaxes(ad.reshape(tok, tok.shape[:-1] + (heads, c // heads)), -3, -2)


def _heads_merge(tok):
    # (..., heads, N, d) -> (..., N, heads*d)
    tok = ad.swapaxes(tok, -3, -2)
    return ad.reshape(tok, tok.shape[:-2] + (tok.shape[-2] * tok.shape[-1],))


def _mha(tok, p, heads, probe=None, probe_key=None):
    """Multi-head scaled-dot-product attention over the trailing token axis."""
    q = _heads_split(_linear(tok, p["wq"], p["bq"]), heads)
    k = _heads_split(ad.matmul(tok, p["wk"]), heads)
    v = _heads_split(_linear(tok, p["wv"], p["bv"]), heads)
    scale = 1.0 / math.sqrt(q.shape[-1])
    if probe is None:
        out = ad.attention(q, k, v, scale)
    else:
        # only a probe holds the whole probability array
        probs = ad.attention_probs(q, k, scale)
        probe[probe_key] = np.asarray(probs.value)
        out = ad.matmul(probs, v)
    return _linear(_heads_merge(out), p["wo"], p["bo"])


# The blocked grid splits H and W into blocks of w, giving the axes
# (B,T,H/w,w,W/w,w,C); an order permutes them so the token group comes last.
# Local attention groups the w*w positions of one window, global attention
# the (H/w)*(W/w) windows at one in-window position.
_LOCAL = (0, 1, 2, 4, 3, 5, 6)  # (B,T,H/w,W/w,w,w,C)
_GLOBAL = (0, 1, 3, 5, 2, 4, 6)  # (B,T,w,w,H/w,W/w,C)
_INVERSE = {order: tuple(int(i) for i in np.argsort(order)) for order in (_LOCAL, _GLOBAL)}


def _blocks(x, w, order):
    """(B,T,H,W,C) -> the blocked grid (B,T,H/w,w,W/w,w,C) permuted by ``order``."""
    b, t, h, wi, c = x.shape
    return ad.transpose(ad.reshape(x, (b, t, h // w, w, wi // w, w, c)), order)


def _unblocks(x, order):
    """Inverse of ``_blocks``: a permuted blocked grid back to (B,T,H,W,C)."""
    x = ad.transpose(x, _INVERSE[order])
    b, t, nh, w, nw, w2, c = x.shape
    return ad.reshape(x, (b, t, nh * w, nw * w2, c))


def _attend_blocked(x, p, cfg, probe=None, key=None, *, order):
    # local or global attention: axes 4 and 5 of the blocked grid form a group
    g = _blocks(x, cfg.window, order)
    b, t, g1, g2, n1, n2, c = g.shape
    out = _mha(ad.reshape(g, (b, t, g1, g2, n1 * n2, c)), p, cfg.heads, probe, key)
    return _unblocks(ad.reshape(out, g.shape), order)


def _attend_slice(x, p, cfg, probe=None, key=None):
    # tokens are the T positions at each fixed (h, w) location
    tok = ad.transpose(x, (0, 2, 3, 1, 4))
    out = _mha(tok, p, cfg.heads, probe, key)
    return ad.transpose(out, (0, 3, 1, 2, 4))


_ATTEND = {
    "slice": _attend_slice,
    "local": functools.partial(_attend_blocked, order=_LOCAL),
    "global": functools.partial(_attend_blocked, order=_GLOBAL),
}


def _bn(x, p, cfg, train, stats=None, key=None):
    # the (C,) vectors broadcast against x inside the norm primitives
    axes = tuple(range(len(x.shape) - 1))
    if train:
        if stats is not None:
            xv = np.asarray(x.value, dtype=np.float64)
            stats[key] = (
                np.mean(xv, axis=axes).astype(np.float32),
                np.var(xv, axis=axes).astype(np.float32),
            )
        return ad.batch_norm_train(x, p["gamma"], p["beta"], axes=axes, eps=cfg.bn_eps)
    return ad.batch_norm_eval(
        x, p["gamma"], p["beta"], p["running_mean"], p["running_var"], eps=cfg.bn_eps
    )


def _mixer(x, p):
    return _linear(ad.silu(_linear(x, p["w1"], p["b1"])), p["w2"], p["b2"])


def _subdict(pv: dict, prefix: str) -> dict:
    cut = len(prefix) + 1
    return {n[cut:]: v for n, v in pv.items() if n.startswith(prefix + ".")}


def _cell(x, pv, cfg, train, stats=None, probe=None, name=""):
    """y = x + sum over units of mixer(attention(batchnorm(x)))."""
    y = x
    for unit in UNITS:
        up = _subdict(pv, unit)
        key = f"{name}.{unit}" if name else unit
        b = _bn(x, _subdict(up, "bn"), cfg, train, stats, key)
        a = _ATTEND[unit](b, _subdict(up, "attn"), cfg, probe, key)
        y = ad.add(y, _mixer(a, _subdict(up, "mixer")))
    return y


def _check_finite(x, layer: str):
    if not np.all(np.isfinite(x.value)):
        raise NumericalFailureError("non-finite activations", where=layer)


def _block(x, pv, cfg, train, stats, probe, prefix):
    """The cells ``{prefix}.cell{i}`` in turn, each output checked finite."""
    for i in range(cfg.cells_per_block):
        name = f"{prefix}.cell{i}"
        x = _cell(x, _subdict(pv, name), cfg, train, stats, probe, name)
        _check_finite(x, name)
    return x


def _patchify(x, p):
    # (B,T,H,W,2) -> (B,T,H/p,W/p,2*p*p)
    x = _blocks(x, p, _LOCAL)
    b, t, hg, wg, p1, p2, two = x.shape
    return ad.reshape(x, (b, t, hg, wg, two * p1 * p2))


def _unpatchify(x, p):
    b, t, hg, wg, f = x.shape
    return _unblocks(ad.reshape(x, (b, t, hg, wg, p, p, f // (p * p))), _LOCAL)


def _pad_to_window(x, w):
    """Reflect-pad grid axes (2, 3) up to multiples of ``w``."""
    h, wi = x.shape[2], x.shape[3]
    ph, pw = (-h) % w, (-wi) % w
    if ph or pw:
        x = ad.reflect_pad2d(x, ((0, ph), (0, pw)), axes=(2, 3))
    return x


def _embed(z, pv, cfg):
    """Token grid (B, T, H', W', C) of a complex (B, T, H, W) Variable.

    Reflect-pads H and W up to window*patch multiples, patchifies, projects,
    and adds the in-window position bias and the per-slice bias.
    """
    b, t, h, w = z.shape
    if t > cfg.slice_depth:
        raise InvalidInputError(f"chunk depth {t} exceeds slice_depth {cfg.slice_depth}")
    wp = cfg.window * cfg.patch
    ph, pw = (-h) % wp, (-w) % wp
    # elements, not bytes; guards index math everywhere downstream
    if (h + ph) * (w + pw) * t * b * cfg.channels > SIZE.stop:
        raise InvalidInputError("dimension overflow after padding")
    if ph or pw:
        z = ad.reflect_pad2d(z, ((0, ph), (0, pw)), axes=(2, 3))
    x = _patchify(ad.complex_split(z, ch_axis=-1), cfg.patch)
    x = _linear(x, pv["embed.weight"], pv["embed.bias"])
    _, _, hg, wg, c = x.shape
    wdw = cfg.window
    pos = ad.reshape(pv["embed.pos_bias"], (1, 1, 1, wdw, 1, wdw, c))
    x = ad.reshape(x, (b, t, hg // wdw, wdw, wg // wdw, wdw, c))
    x = ad.add(x, pos)
    x = ad.reshape(x, (b, t, hg, wg, c))
    sbias = ad.gather(pv["embed.slice_bias"], np.arange(t), axis=0)
    return ad.add(x, ad.reshape(sbias, (1, t, 1, 1, c)))


def forward_graph(
    z: ad.Variable,
    pv: dict[str, ad.Variable],
    cfg: ModelConfig,
    train: bool,
    stats: dict | None = None,
    probe: dict | None = None,
) -> dict:
    """Build the forward computation on Variables.

    ``z`` is complex with shape (B, T, H, W); ``pv`` maps parameter names to
    Variables. Returns the complex output and the 2-channel view of it that
    the losses use. ``stats`` collects per-norm batch statistics in train mode;
    ``probe`` collects attention probabilities by unit name.
    """
    _, _, h, w = z.shape
    x = _embed(z, pv, cfg)
    x2 = ad.complex_split(z, ch_axis=-1)
    hg, wg = x.shape[2], x.shape[3]

    x = _block(x, pv, cfg, train, stats, probe, "stage1")
    high = _block(x, pv, cfg, train, stats, probe, "stage2.high")
    low = ad.subsample2d(x, 2, axes=(2, 3))
    low = _linear(low, pv["stage2.down.weight"], pv["stage2.down.bias"])
    hs, ws = low.shape[2], low.shape[3]
    low = _block(_pad_to_window(low, cfg.window), pv, cfg, train, stats, probe, "stage2.low")
    if low.shape[2] != hs or low.shape[3] != ws:
        low = ad.crop2d(low, 0, 0, hs, ws, axes=(2, 3))
    up = ad.bilinear_resize2d(low, hg, wg, axes=(2, 3))
    fused = ad.add(high, up)

    out2 = _linear(fused, pv["head.weight"], pv["head.bias"])
    out2 = _unpatchify(out2, cfg.patch)
    if out2.shape[2] != h or out2.shape[3] != w:
        out2 = ad.crop2d(out2, 0, 0, h, w, axes=(2, 3))
    pred2 = ad.add(x2, out2)
    output = ad.complex_join(pred2, ch_axis=-1)
    return {"output": output, "pred2": pred2}


def lift_params(
    params: ParameterSet, trainable: bool = False
) -> dict[str, ad.Variable]:
    """Wrap every tensor as a Variable; running stats never require grads."""
    pv = {}
    trainset = set(params.trainable_names()) if trainable else set()
    for name, t in params.tensors.items():
        if name in trainset:
            pv[name] = ad.leaf(t, name=name)
        else:
            pv[name] = ad.constant(t, name=name)
    return pv


def update_running_stats(params: ParameterSet, stats: dict, momentum: float) -> None:
    """Fold batch statistics into the running buffers, in place."""
    m = np.float32(momentum)
    for key, (mean, var) in stats.items():
        rm = f"{key}.bn.running_mean"
        rv = f"{key}.bn.running_var"
        params.tensors[rm] = ((1 - m) * params.tensors[rm] + m * mean).astype(np.float32)
        params.tensors[rv] = ((1 - m) * params.tensors[rv] + m * var).astype(np.float32)


# ---------------------------------------------------------------------------
# public numpy-facing operations

def _chunk_values(chunk) -> np.ndarray:
    if isinstance(chunk, ComplexImageStack):
        return chunk.data
    arr = np.asarray(chunk)
    if arr.ndim != 3 or not np.issubdtype(arr.dtype, np.complexfloating):
        raise InvalidInputError(f"expected a (T,H,W) complex chunk, got {arr.shape} {arr.dtype}")
    return arr


def _train_mode(mode: str) -> bool:
    if mode not in ("train", "eval"):
        raise InvalidInputError(f"mode must be 'train' or 'eval', got {mode!r}")
    return mode == "train"


def forward(chunk, params: ParameterSet, cfg: ModelConfig, mode: str = "eval"):
    """Denoise one chunk of T slices; returns a stack of the same shape.

    mode 'eval' uses running batch-norm statistics and is a pure function of
    (input, params); mode 'train' normalizes with batch statistics and folds
    them into the running buffers.
    """
    train = _train_mode(mode)
    data = _chunk_values(chunk)
    z = ad.constant(data[None])
    stats: dict = {}
    res = forward_graph(z, lift_params(params), cfg, train=train, stats=stats)
    if train:
        update_running_stats(params, stats, cfg.bn_momentum)
    out = np.asarray(res["output"].value)[0]
    return ComplexImageStack(np.ascontiguousarray(out.astype(np.complex64)))


def _grid_in(grid, params: dict, cfg: ModelConfig, windowed: bool = True):
    """A (T,C,H,W) grid as a (1,T,H,W,C) constant, and ``params`` as constants.

    The grid must have ``cfg.channels`` channels and, if ``windowed``, H and W
    padded to multiples of the window.
    """
    vals = grid.values if isinstance(grid, FeatureGrid) else FeatureGrid(grid).values
    _, c, h, w = vals.shape
    if c != cfg.channels:
        raise InvalidInputError(f"grid has {c} channels, config says {cfg.channels}")
    if windowed and (h % cfg.window or w % cfg.window):
        raise InvalidInputError(
            f"grid {h}x{w} not padded to window multiples of {cfg.window}"
        )
    x = ad.constant(np.transpose(vals, (0, 2, 3, 1))[None])
    return x, {k: ad.constant(v) for k, v in params.items()}


def _grid_out(x) -> FeatureGrid:
    """A (1,T,H,W,C) Variable as a (T,C,H,W) grid."""
    grid = np.transpose(np.asarray(x.value)[0], (0, 3, 1, 2))
    return FeatureGrid(np.ascontiguousarray(grid))


def embed(chunk, params: ParameterSet, cfg: ModelConfig) -> FeatureGrid:
    """Patch-embed a complex chunk into a T x C x H' x W' grid.

    Output spatial dims are the padded image dims divided by the patch size.
    """
    data = _chunk_values(chunk)
    return _grid_out(_embed(ad.constant(data[None]), lift_params(params), cfg))


def _unit_op(unit: str):
    def op(grid, unit_params: dict, cfg: ModelConfig, return_probs: bool = False):
        x, pvu = _grid_in(grid, unit_params, cfg, windowed=unit != "slice")
        probe = {} if return_probs else None
        res = _grid_out(_ATTEND[unit](x, pvu, cfg, probe, "probs"))
        if return_probs:
            return res, probe["probs"]
        return res

    op.__name__ = f"{unit}_attention"
    return op


slice_attention = _unit_op("slice")
local_attention = _unit_op("local")
global_attention = _unit_op("global")


def attention_cell(grid, cell_params: dict, cfg: ModelConfig, mode: str = "eval") -> FeatureGrid:
    """One full cell: residual sum of the three unit branches.

    ``cell_params`` is a flat mapping with dotted relative names, e.g.
    ``slice.bn.gamma`` or ``local.attn.wq`` (the layout ``ParameterSet.subset``
    produces for one cell prefix).
    """
    train = _train_mode(mode)
    x, pv = _grid_in(grid, cell_params, cfg)
    return _grid_out(_cell(x, pv, cfg, train))


def cell_output_bound(cell_params: dict, cfg: ModelConfig, input_bound: float = 1.0) -> float:
    """Rigorous sup-norm bound on attention_cell output for ||x||_inf <= b.

    Chains operator infinity-norms: batch-norm amplification is capped by
    2b/sqrt(eps), attention outputs are convex combinations of value
    projections, and |silu(t)| <= |t|.
    """

    def row_norm(w):
        return float(np.max(np.sum(np.abs(w), axis=0)))

    total = input_bound
    for unit in UNITS:
        p = _subdict(cell_params, unit)
        gmax = float(np.max(np.abs(p["bn.gamma"])))
        bmax = float(np.max(np.abs(p["bn.beta"])))
        b1 = gmax * 2.0 * input_bound / math.sqrt(cfg.bn_eps) + bmax
        b2 = row_norm(p["attn.wv"]) * b1 + float(np.max(np.abs(p["attn.bv"])))
        b3 = row_norm(p["attn.wo"]) * b2 + float(np.max(np.abs(p["attn.bo"])))
        b4 = row_norm(p["mixer.w1"]) * b3 + float(np.max(np.abs(p["mixer.b1"])))
        b5 = row_norm(p["mixer.w2"]) * b4 + float(np.max(np.abs(p["mixer.b2"])))
        total += b5
    return total


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(path, params: ParameterSet, cfg: ModelConfig, extra: dict | None = None) -> None:
    """One-file checkpoint: the shared tensor container under the IMTCKPT1 magic."""
    manifest = {"config": asdict(cfg), "init_seed": params.init_seed}
    if extra:
        manifest["extra"] = extra
    container.write(path, _CKPT_MAGIC, manifest, params.tensors)


def load_checkpoint(path) -> tuple[ParameterSet, ModelConfig, dict]:
    """Read a checkpoint; bit-exact inverse of save_checkpoint."""
    manifest, tensors = container.read(path, _CKPT_MAGIC, "checkpoint")
    for key in ("config", "init_seed"):
        if key not in manifest:
            raise FormatError(f"{path}: manifest missing {key!r}", offset=16)
    try:
        cfg = ModelConfig(**manifest["config"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad config in manifest: {exc}", offset=16) from exc
    init_seed = manifest["init_seed"]
    # the seed is a Philox key word
    if type(init_seed) is not int or not 0 <= init_seed < 2**64:
        raise FormatError(f"{path}: init_seed must be an integer in [0, 2**64)", offset=16)
    # files written before the key bias was dropped carry an ``attn.bk`` per
    # unit; softmax cancels it, so it goes unread
    tensors = {n: t for n, t in tensors.items() if not n.endswith(".attn.bk")}
    return ParameterSet(tensors, init_seed), cfg, manifest.get("extra", {})


def verify_checkpoint(params: ParameterSet, cfg: ModelConfig) -> None:
    """Check that a loaded parameter set has exactly the tensors cfg implies.

    A structurally valid file can still carry weights for a different
    architecture; this catches that before inference runs on garbage.
    """
    expected = _param_table(cfg)
    missing = sorted(set(expected) - set(params.tensors))
    if missing:
        raise CheckpointMismatchError(f"checkpoint is missing tensor {missing[0]!r}")
    extra = sorted(set(params.tensors) - set(expected))
    if extra:
        raise CheckpointMismatchError(f"checkpoint has unexpected tensor {extra[0]!r}")
    for name in expected:
        want, got = expected[name][0], params.tensors[name].shape
        if want != got:
            raise CheckpointMismatchError(
                f"checkpoint tensor {name!r} has shape {got}, config implies {want}"
            )
