"""Losses, Sophia optimizer, data augmentation, and the training loop.

The loss surface follows the combined objective: a Charbonnier penalty on the
complex residual plus a perceptual term computed on magnitude images by a
fixed feature extractor. Optimization is Sophia with a Hutchinson diagonal
Hessian estimate refreshed on a fixed cadence; both backward passes run on
one tape per step.

Each loss term has one body, a graph function on two-channel Variables that
computes in its input's dtype: the training loop differentiates it in float32,
and the public loss functions evaluate it in float64.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import container
from .errors import (
    SIZE,
    FormatError,
    InvalidInputError,
    InvalidStateError,
    NumericalFailureError,
    check_fields,
)
from .imgstack import ComplexImageStack, GFactorMap, power_normalize
from .kspace import kspace_resize
from .noisegen import SIGMA_TRAINING_RANGE, GmapModel, NoiseSpec, make_gmap, make_training_pair
from .network import (
    ModelConfig,
    ParameterSet,
    forward,
    forward_graph,
    init_params,
    lift_params,
    save_checkpoint,
    update_running_stats,
)

log = logging.getLogger(__name__)

_FE_MAGIC = b"IMTFEXT1"
# distinct Philox stream tags so extractor weights, validation sampling, and
# training steps never share a key with network init or noise synthesis
_FE_STREAM = 0x66656174
_VAL_STREAM = 0x76616C00

LOG_COLUMNS = ("step", "epoch", "train_loss", "val_loss", "lr", "wall_ms")


@dataclass(frozen=True)
class LossConfig:
    """Weights and reduction mode of the combined objective."""

    epsilon: float = 1e-3
    perceptual_weight: float = 0.1
    charbonnier_reduction: str = "per_element_mean"

    def __post_init__(self):
        reductions = ("per_element_mean", "paper_literal_global")
        check_fields(self, perceptual_weight="[0, inf)", charbonnier_reduction=reductions)


# ---------------------------------------------------------------------------
# fixed feature extractor


class FeatureExtractor:
    """Fixed convolutional feature map for the perceptual loss.

    A stack of 3x3 stride-2 convolutions (zero padding 1) with silu after
    every layer. Weights are either drawn once from a seeded Philox stream
    ('fixed_random') or loaded from a weight file ('external_weights');
    training never updates them.
    """

    KINDS = ("fixed_random", "external_weights")

    def __init__(self, kind="fixed_random", seed=0, channels=(8, 16, 32, 32), weights=None):
        if kind not in self.KINDS:
            raise InvalidInputError(f"unknown feature extractor kind {kind!r}")
        if not channels or any(type(c) is not int or c < 1 for c in channels):
            raise InvalidInputError(f"channels must be positive integers, got {channels!r}")
        channels = tuple(channels)
        self.kind = kind
        self.seed = int(seed)
        self.channels = channels
        if kind == "external_weights":
            if weights is None:
                raise InvalidInputError(
                    "external_weights requires a weight dict; use FeatureExtractor.from_file"
                )
            self.weights = self._check_weights(weights)
        else:
            self.weights = self._draw_weights()

    def _draw_weights(self):
        rng = np.random.Generator(np.random.Philox(key=[self.seed, _FE_STREAM]))
        weights = {}
        cin = 1
        for i, cout in enumerate(self.channels):
            scale = 1.0 / math.sqrt(9 * cin)
            w = rng.standard_normal((3, 3, cin, cout)) * scale
            weights[f"conv{i}.weight"] = w.astype(np.float32)
            weights[f"conv{i}.bias"] = np.zeros((cout,), dtype=np.float32)
            cin = cout
        return weights

    def _check_weights(self, weights):
        cin = 1
        out = {}
        for i, cout in enumerate(self.channels):
            for suffix, shape in ((".weight", (3, 3, cin, cout)), (".bias", (cout,))):
                name = f"conv{i}{suffix}"
                if name not in weights:
                    raise InvalidInputError(f"missing extractor tensor {name!r}")
                t = np.asarray(weights[name], dtype=np.float32)
                if t.shape != shape:
                    raise InvalidInputError(
                        f"extractor tensor {name} has shape {t.shape}, want {shape}"
                    )
                out[name] = t
            cin = cout
        return out

    @property
    def layers(self) -> int:
        return len(self.channels)

    def feature_shape(self, height: int, width: int) -> tuple[int, int, int]:
        """(C_j, H_j, W_j) of the final feature map for an HxW input."""
        h, w = int(height), int(width)
        for _ in self.channels:
            h, w = (h + 1) // 2, (w + 1) // 2
        if h < 1 or w < 1:
            raise InvalidInputError(f"input {height}x{width} collapses before layer {self.layers}")
        return (self.channels[-1], h, w)

    def _phi(self, x: ad.Variable, dtype=np.float32) -> ad.Variable:
        """Feature graph on a (N, H, W, 1) Variable; differentiable in x only."""
        for i in range(self.layers):
            w = self.weights[f"conv{i}.weight"].astype(dtype)
            b = self.weights[f"conv{i}.bias"].astype(dtype)
            x = ad.pad_zero2d(x, ((1, 1), (1, 1)), axes=(1, 2))
            h_out = (x.shape[1] - 1) // 2
            w_out = (x.shape[2] - 1) // 2
            acc = None
            for dy in range(3):
                rows = ad.gather(x, np.arange(dy, dy + 2 * h_out, 2), axis=1)
                for dx in range(3):
                    sub = ad.gather(rows, np.arange(dx, dx + 2 * w_out, 2), axis=2)
                    term = ad.matmul(sub, ad.constant(w[dy, dx]))
                    acc = term if acc is None else ad.add(acc, term)
            x = ad.silu(ad.add(acc, ad.constant(b)))
        return x

    def features(self, mags: np.ndarray) -> np.ndarray:
        """Evaluate the feature map on a batch of magnitude images (N, H, W).

        Runs in the input's float precision, as the loss graphs do.
        """
        a = np.asarray(mags)
        if a.ndim != 3:
            raise InvalidInputError(f"expected (N, H, W) magnitudes, got shape {a.shape}")
        if np.iscomplexobj(a):
            raise InvalidInputError("feature extractor takes magnitude (real) images")
        dtype = np.float64 if a.dtype == np.float64 else np.float32
        self.feature_shape(a.shape[1], a.shape[2])
        return self._phi(ad.constant(a[..., None].astype(dtype)), dtype=dtype).value

    def save(self, path) -> None:
        """Write weights in the shared tensor container (IMTFEXT1 magic)."""
        container.write(path, _FE_MAGIC, {"channels": list(self.channels)}, self.weights)

    @classmethod
    def from_file(cls, path) -> "FeatureExtractor":
        manifest, weights = container.read(path, _FE_MAGIC, "extractor")
        if "channels" not in manifest:
            raise FormatError(f"{path}: manifest missing 'channels'", offset=16)
        try:
            return cls(kind="external_weights", channels=manifest["channels"], weights=weights)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: weights do not fit the manifest: {exc}", offset=16) from exc


# ---------------------------------------------------------------------------
# losses


def _complex_values(x, who: str) -> np.ndarray:
    if isinstance(x, ComplexImageStack):
        return x.data
    a = np.asarray(x)
    if not np.iscomplexobj(a):
        raise InvalidInputError(f"{who} must be complex data, got dtype {a.dtype}")
    return a


def _check_pair(pred, target):
    a = _complex_values(pred, "pred")
    b = _complex_values(target, "target")
    if a.shape != b.shape:
        raise InvalidInputError(f"shape mismatch: pred {a.shape} vs target {b.shape}")
    if a.size == 0:
        raise InvalidInputError(f"empty pair of shape {a.shape}")
    return a, b


def _evaluate(graph, pred, target, *args) -> float:
    """Run a loss graph on a checked complex pair in float64, as constants."""
    a, b = _check_pair(pred, target)
    pred2 = ad.complex_split(ad.constant(a.astype(np.complex128)))
    target2 = ad.complex_split(ad.constant(b.astype(np.complex128))).value
    return float(graph(pred2, target2, *args).value)


def charbonnier_loss(pred, target, cfg: LossConfig = LossConfig()) -> float:
    """Charbonnier penalty on the complex residual, in double precision.

    per_element_mean averages sqrt(|d_i|^2 + eps^2) over voxels; the
    paper_literal_global mode is sqrt(sum |d_i|^2 + eps^2) over the whole
    array. Both reduce to eps at zero residual.
    """
    return _evaluate(_charbonnier_graph, pred, target, cfg)


def perceptual_loss(pred, target, fe: FeatureExtractor) -> float:
    """Mean squared feature distance of magnitude images, normalized per image.

    Leading axes flatten into the image batch; the per-image normalization by
    C_j*H_j*W_j makes this the plain mean over all feature elements.
    """
    return _evaluate(_perceptual_graph, pred, target, fe)


def combined_loss(pred, target, cfg: LossConfig, fe: FeatureExtractor) -> float:
    """Charbonnier term plus perceptual_weight times the perceptual term."""
    return _evaluate(_combined_graph, pred, target, cfg, fe)


def _charbonnier_graph(pred2: ad.Variable, target2: np.ndarray, cfg: LossConfig) -> ad.Variable:
    """Charbonnier on 2-channel Variables, in pred2's dtype."""
    diff = ad.sub(pred2, ad.constant(target2))
    mag2 = ad.reduce_sum(ad.square(diff), axis=-1)
    e = pred2.dtype.type(cfg.epsilon)
    eps2 = ad.constant(e * e)
    if cfg.charbonnier_reduction == "per_element_mean":
        return ad.reduce_mean(ad.sqrt(ad.add(mag2, eps2)))
    return ad.sqrt(ad.add(ad.reduce_sum(mag2), eps2))


def _perceptual_graph(
    pred2: ad.Variable, target2: np.ndarray, fe: FeatureExtractor
) -> ad.Variable:
    if len(pred2.shape) < 3:
        raise InvalidInputError(f"need at least 2 spatial dims, got shape {pred2.shape[:-1]}")
    mag = ad.channel_magnitude(pred2, ch_axis=-1)
    n = int(np.prod(mag.shape[:-2]))
    mag = ad.reshape(mag, (n, mag.shape[-2], mag.shape[-1], 1))
    t = np.sqrt(np.sum(np.square(target2, dtype=np.float64), axis=-1))
    ft = fe.features(t.reshape(n, t.shape[-2], t.shape[-1]).astype(pred2.dtype))
    d = ad.sub(fe._phi(mag, dtype=pred2.dtype), ad.constant(ft))
    return ad.reduce_mean(ad.square(d))


def _combined_graph(
    pred2: ad.Variable, target2: np.ndarray, cfg: LossConfig, fe: FeatureExtractor
) -> ad.Variable:
    out = _charbonnier_graph(pred2, target2, cfg)
    if cfg.perceptual_weight > 0:
        w = ad.constant(pred2.dtype.type(cfg.perceptual_weight))
        out = ad.add(out, ad.mul(w, _perceptual_graph(pred2, target2, fe)))
    return out


# ---------------------------------------------------------------------------
# Sophia optimizer


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the optimizer and the training loop."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.95
    weight_decay: float = 0.1
    epochs: int = 1
    batch: int = 2
    steps_per_epoch: int = 8
    patch_sizes: tuple[int, ...] = (32, 64)
    rho: float = 0.04
    hessian_update_every: int = 10
    seed: int = 0
    val_fraction: float = 0.25
    val_samples: int = 4
    sigma_range: tuple[float, float] = SIGMA_TRAINING_RANGE
    augment: bool = True

    def __post_init__(self):
        # the seed is a Philox key word
        check_fields(
            self, patch_sizes=range(8, SIZE.stop), seed=range(2**32), val_fraction="(0, 1)"
        )
        if not self.patch_sizes:
            raise InvalidInputError("patch_sizes must not be empty")
        if self.sigma_range[0] > self.sigma_range[1]:
            raise InvalidInputError(f"bad sigma_range {self.sigma_range}")


@dataclass
class SophiaState:
    """EMAs of gradient (beta1) and diagonal Hessian estimate (beta2)."""

    m: dict[str, np.ndarray]
    h: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: ParameterSet) -> "SophiaState":
        names = params.trainable_names()
        return cls(
            m={n: np.zeros_like(params.tensors[n]) for n in names},
            h={n: np.zeros_like(params.tensors[n]) for n in names},
        )


def sophia_step(
    params: ParameterSet,
    grads: dict[str, np.ndarray],
    hess_est: dict[str, np.ndarray] | None,
    state: SophiaState,
    cfg: TrainConfig,
) -> ParameterSet:
    """One Sophia update; returns new parameters, mutates ``state``.

    Decoupled weight decay p <- p*(1 - lr*wd), then
    p <- p - lr*clip(m / max(h, 1e-12), +-rho) per coordinate, so no step
    coordinate ever exceeds lr*rho beyond the decay. ``hess_est`` is folded
    into the Hessian EMA when given (refresh steps) and left alone otherwise.
    """
    new = dict(params.tensors)
    keep = 1.0 - cfg.lr * cfg.weight_decay
    for name in params.trainable_names():
        if name not in grads:
            raise InvalidStateError(f"missing gradient for {name!r}")
        if name not in state.m:
            raise InvalidStateError(f"optimizer state missing {name!r}")
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != params.tensors[name].shape:
            raise InvalidStateError(
                f"gradient for {name} has shape {g.shape}, want {params.tensors[name].shape}"
            )
        m = cfg.beta1 * state.m[name].astype(np.float64) + (1.0 - cfg.beta1) * g
        state.m[name] = m.astype(np.float32)
        if hess_est is not None:
            est = np.asarray(hess_est[name], dtype=np.float64)
            h = cfg.beta2 * state.h[name].astype(np.float64) + (1.0 - cfg.beta2) * est
            state.h[name] = h.astype(np.float32)
        denom = np.maximum(state.h[name].astype(np.float64), 1e-12)
        step = cfg.lr * np.clip(m / denom, -cfg.rho, cfg.rho)
        p = params.tensors[name].astype(np.float64) * keep - step
        if not np.all(np.isfinite(p)):
            raise NumericalFailureError("non-finite parameter update", where=name)
        new[name] = p.astype(np.float32)
    state.t += 1
    return ParameterSet(new, params.init_seed)


def _hutchinson(gs: list[ad.Variable], wrt: list[ad.Variable], rng) -> list[np.ndarray]:
    """z * (H z) per tensor of ``wrt``, one Rademacher draw z in ``wrt`` order.

    ``gs`` are the gradients of ``wrt`` from a backward pass run with
    create_graph=True on the still-open tape; the second backward pass
    differentiates sum(g * z) into the Hessian-vector product.
    """
    zs, s = [], None
    for v, g in zip(wrt, gs):
        z = (rng.integers(0, 2, size=v.shape) * 2 - 1).astype(v.value.dtype)
        zs.append(z)
        term = ad.reduce_sum(ad.mul(g, ad.constant(z)))
        s = term if s is None else ad.add(s, term)
    hvs = ad.backward(s, wrt)
    return [z * hv.value for z, hv in zip(zs, hvs)]


def hessian_diag_estimate(build_loss, point: dict[str, np.ndarray], rng) -> dict[str, np.ndarray]:
    """Hutchinson diagonal-Hessian estimate z * H z with Rademacher z.

    ``build_loss`` maps {name: Variable} to a scalar loss Variable; the
    gradient graph is re-recorded so a second backward pass yields the
    Hessian-vector product. One draw per call; deterministic given ``rng``.
    """
    with ad.Tape():
        pv = {n: ad.leaf(np.asarray(v), name=n) for n, v in point.items()}
        wrt = list(pv.values())
        gs = ad.backward(build_loss(pv), wrt, create_graph=True)
        return dict(zip(pv, _hutchinson(gs, wrt, rng)))


# ---------------------------------------------------------------------------
# augmentation


def augment(pair, rng, *, flips=True, intensity=True, resize=True):
    """Apply one random transform draw identically to a (noisy, clean) pair.

    Draw order: horizontal flip, vertical flip, intensity factor u ~ U[0.3, 3]
    (complex scalar multiply), k-space resize ratio ~ U[0.5, 1.5]. Disabled
    transforms consume no draws. A resize that would underflow the minimum
    matrix size is skipped for that pair and logged.
    """
    noisy, clean = pair
    if noisy.shape != clean.shape:
        raise InvalidInputError(f"pair shapes differ: {noisy.shape} vs {clean.shape}")
    n, c = noisy.data, clean.data
    if flips:
        if rng.random() < 0.5:
            n, c = n[:, :, ::-1], c[:, :, ::-1]
        if rng.random() < 0.5:
            n, c = n[:, ::-1, :], c[:, ::-1, :]
    if intensity:
        u = np.float32(0.3 + rng.random() * 2.7)
        n, c = n * u, c * u
    out = (
        ComplexImageStack(np.ascontiguousarray(n)),
        ComplexImageStack(np.ascontiguousarray(c)),
    )
    if resize:
        out = _resize_pair(out, 0.5 + rng.random())
    return out


def _resize_pair(pair, ratio):
    """k-space resize both halves of a pair; a resize that would underflow
    the minimum matrix size leaves the pair as it is and is logged."""
    try:
        return kspace_resize(pair[0], ratio), kspace_resize(pair[1], ratio)
    except InvalidInputError:
        log.warning(
            "resize ratio %.3f underflows %dx%d, skipping resize",
            ratio,
            pair[0].height,
            pair[0].width,
        )
        return pair


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    checkpoint_path: Path
    log_path: Path
    best_val_loss: float
    baseline_val_loss: float
    steps: int


def _materialize(dataset):
    """Pair every clean stack with its g-factor map values at full size."""
    out = []
    for stack, gmodel in dataset:
        if not isinstance(stack, ComplexImageStack):
            raise InvalidInputError("dataset entries must be (ComplexImageStack, GmapModel)")
        if isinstance(gmodel, GFactorMap):
            gvals = gmodel.values
            if gvals.shape != (stack.height, stack.width):
                raise InvalidInputError(
                    f"g-factor map {gvals.shape} does not match stack "
                    f"{(stack.height, stack.width)}"
                )
        else:
            gvals = make_gmap(gmodel, stack.height, stack.width).values
        out.append((stack, gvals))
    return out


def _sample_pair(rng, example, t_depth, patch, sigma_range, augmenting, ratio):
    """Crop, noise, normalize, and optionally augment one training sample.

    Normalization scales both halves by the clean patch's power_normalize
    factor k_n, so the noise component sits at exactly sigma in network
    units. The resize ratio is drawn once per step by the caller (batch
    samples must stay stackable).
    """
    stack, gvals = example
    s0 = int(rng.integers(stack.slices - t_depth + 1))
    y0 = int(rng.integers(stack.height - patch + 1))
    x0 = int(rng.integers(stack.width - patch + 1))
    clean = ComplexImageStack(
        np.ascontiguousarray(stack.data[s0 : s0 + t_depth, y0 : y0 + patch, x0 : x0 + patch])
    )
    sigma = float(rng.uniform(*sigma_range))
    seed = int(rng.integers(2**63))
    gpatch = GFactorMap(np.ascontiguousarray(gvals[y0 : y0 + patch, x0 : x0 + patch]))
    noisy, clean = make_training_pair(clean, NoiseSpec(sigma=sigma, seed=seed), gpatch)
    clean, norm = power_normalize(clean)
    pair = (ComplexImageStack(noisy.data * np.float32(norm.k_n)), clean)
    if augmenting:
        pair = augment(pair, rng, resize=False)
        if ratio is not None:
            pair = _resize_pair(pair, ratio)
    return pair


def _val_loss(params, examples, mcfg, tcfg, lcfg, fe) -> float:
    """Mean combined loss over a fixed, seeded set of validation pairs."""
    total = 0.0
    for k in range(tcfg.val_samples):
        rng = np.random.Generator(np.random.Philox(key=[tcfg.seed, _VAL_STREAM + k]))
        example = examples[k % len(examples)]
        t_depth = min(mcfg.slice_depth, example[0].slices)
        patch = min(min(tcfg.patch_sizes), example[0].height, example[0].width)
        noisy, clean = _sample_pair(
            rng, example, t_depth, patch, tcfg.sigma_range, False, None
        )
        pred = forward(noisy, params, mcfg, mode="eval")
        total += combined_loss(pred, clean, lcfg, fe)
    return total / tcfg.val_samples


def _format_row(step, epoch, train_loss, val_loss, lr, wall_ms) -> str:
    def fmt(x):
        return "" if x is None else repr(float(x))

    return f"{step},{epoch},{fmt(train_loss)},{fmt(val_loss)},{fmt(lr)},{wall_ms}\n"


def train(
    dataset,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    loss_cfg: LossConfig = LossConfig(),
    out_dir=".",
    fe: FeatureExtractor | None = None,
) -> TrainResult:
    """Train from scratch on (clean stack, g-factor model) pairs.

    Per step: sample a batch of patches at one size drawn from patch_sizes,
    synthesize noisy pairs, normalize, augment, run the train-mode forward,
    take the combined loss, backpropagate, and apply a Sophia step (with the
    Hessian EMA refreshed every hessian_update_every steps). Validation runs
    after every epoch on a fixed seeded sample set; the checkpoint with the
    best validation loss is kept. A non-finite loss or update aborts with the
    last good checkpoint on disk and raises NumericalFailureError.

    The CSV log gets one row per step and one validation row per epoch;
    everything except wall_ms is deterministic for a fixed seed on one
    machine.
    """
    examples = _materialize(dataset)
    if len(examples) < 2:
        raise InvalidInputError(f"need at least 2 dataset examples, got {len(examples)}")
    n_val = max(1, round(len(examples) * train_cfg.val_fraction))
    if n_val >= len(examples):
        n_val = len(examples) - 1
    train_examples = examples[: len(examples) - n_val]
    val_examples = examples[len(examples) - n_val :]

    for stack, _ in examples:
        if min(stack.height, stack.width) < 8:
            raise InvalidInputError("dataset stacks must be at least 8x8")

    fe = fe or FeatureExtractor(seed=train_cfg.seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "best.ckpt"
    log_path = out_dir / "train_log.csv"

    params = init_params(model_cfg, init_seed=train_cfg.seed)
    state = SophiaState.init(params)
    trainable = params.trainable_names()

    baseline_val = None
    best_val = math.inf
    total_steps = train_cfg.epochs * train_cfg.steps_per_epoch

    def extra(step, val):
        return {
            "step": step,
            "val_loss": val,
            "baseline_val_loss": baseline_val,
            "train_config": asdict(train_cfg),
            "loss_config": asdict(loss_cfg),
        }

    step = 0
    with open(log_path, "w") as logf:
        logf.write(",".join(LOG_COLUMNS) + "\n")
        try:
            baseline_val = _val_loss(
                params, val_examples, model_cfg, train_cfg, loss_cfg, fe
            )
            if not math.isfinite(baseline_val):
                raise NumericalFailureError(f"baseline validation loss {baseline_val}")
            for epoch in range(1, train_cfg.epochs + 1):
                for _ in range(train_cfg.steps_per_epoch):
                    step += 1
                    t0 = time.perf_counter()
                    rng = np.random.Generator(
                        np.random.Philox(key=[train_cfg.seed, step])
                    )
                    picks = [
                        train_examples[int(rng.integers(len(train_examples)))]
                        for _ in range(train_cfg.batch)
                    ]
                    t_depth = min(
                        model_cfg.slice_depth, min(ex[0].slices for ex in picks)
                    )
                    ps = train_cfg.patch_sizes[int(rng.integers(len(train_cfg.patch_sizes)))]
                    ps = min(ps, *(min(ex[0].height, ex[0].width) for ex in picks))
                    ratio = 0.5 + float(rng.random()) if train_cfg.augment else None
                    pairs = [
                        _sample_pair(
                            rng, ex, t_depth, ps, train_cfg.sigma_range,
                            train_cfg.augment, ratio,
                        )
                        for ex in picks
                    ]
                    z = np.stack([p[0].data for p in pairs])
                    target2 = ad.complex_split(
                        ad.constant(np.stack([p[1].data for p in pairs]))
                    ).value

                    stats: dict = {}
                    refresh = state.t % train_cfg.hessian_update_every == 0
                    with ad.Tape():
                        pv = lift_params(params, trainable=True)
                        outd = forward_graph(
                            ad.constant(z), pv, model_cfg, train=True, stats=stats
                        )
                        loss_v = _combined_graph(outd["pred2"], target2, loss_cfg, fe)
                        train_loss = float(loss_v.value)
                        if not math.isfinite(train_loss):
                            raise NumericalFailureError(
                                f"training loss {train_loss} at step {step}"
                            )
                        wrt = [pv[n] for n in trainable]
                        gvars = ad.backward(loss_v, wrt, create_graph=refresh)
                        grads = {n: g.value for n, g in zip(trainable, gvars)}
                        hess = None
                        if refresh:
                            hess = dict(zip(trainable, _hutchinson(gvars, wrt, rng)))
                    params = sophia_step(params, grads, hess, state, train_cfg)
                    update_running_stats(params, stats, model_cfg.bn_momentum)
                    wall = int(round((time.perf_counter() - t0) * 1000))
                    logf.write(_format_row(step, epoch, train_loss, None, train_cfg.lr, wall))
                    logf.flush()

                t0 = time.perf_counter()
                val = _val_loss(params, val_examples, model_cfg, train_cfg, loss_cfg, fe)
                wall = int(round((time.perf_counter() - t0) * 1000))
                logf.write(_format_row(step, epoch, None, val, train_cfg.lr, wall))
                logf.flush()
                if not math.isfinite(val):
                    raise NumericalFailureError(f"validation loss {val} after step {step}")
                if val < best_val:
                    best_val = val
                    save_checkpoint(ckpt_path, params, model_cfg, extra=extra(step, val))
        except NumericalFailureError as exc:
            if not ckpt_path.exists():
                save_checkpoint(
                    ckpt_path, params, model_cfg, extra=extra(step, None)
                )
            log.error("aborting at step %d: %s (last good checkpoint: %s)", step, exc, ckpt_path)
            raise NumericalFailureError(
                f"training diverged at step {step}; last good checkpoint at {ckpt_path}"
            ) from exc

    return TrainResult(
        checkpoint_path=ckpt_path,
        log_path=log_path,
        best_val_loss=best_val,
        baseline_val_loss=baseline_val,
        steps=total_steps,
    )
