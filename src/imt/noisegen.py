"""Realistic noise synthesis and clean/noisy training pairs.

The recipe: draw iid complex Gaussian noise per slice, shape it with k-space
filters, rescale so the per-component std is back at the requested sigma, then
weight voxelwise by a g-factor map. Sigma lives on the normalized intensity
scale where a clean stack has mean signal power 1600, which makes
20*log10(40/sigma) the stack's relative SNR in dB.

Randomness uses the Philox counter-based generator with a two-word key
(key word 0 = user seed, key word 1 = slice index), so the same seed gives the
same bits on every platform and slices can be generated in parallel without
changing the stream.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, check_fields
from .imgstack import (
    DEFAULT_TARGET_POWER,
    ComplexImageStack,
    GFactorMap,
    mean_signal_power,
)
from .kspace import KspaceFilterSpec, apply_kspace_filters, filter_mask

log = logging.getLogger(__name__)

SIGMA_TRAINING_RANGE = (1.0, 10.0)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise level, k-space shaping, and seed for one synthesis run.

    ``sigma`` is the per-component std of the base complex Gaussian at the
    normalized power scale. The training regime uses sigma in [1, 10]; values
    outside only warn, so tests can probe extremes.
    """

    sigma: float
    filter: KspaceFilterSpec = field(default_factory=KspaceFilterSpec)
    seed: int = 0

    def __post_init__(self):
        # the seed is a Philox key word
        check_fields(self, seed=range(2**64))
        lo, hi = SIGMA_TRAINING_RANGE
        if not (lo <= self.sigma <= hi):
            log.warning(
                "sigma=%g outside the training range [%g, %g]", self.sigma, lo, hi
            )


@dataclass(frozen=True)
class GmapModel:
    """Synthetic g-factor map family standing in for clinical maps.

    kind 'uniform' is all ones; 'radial_ramp' is 1 + alpha * r with r the
    radius normalized so the image corners sit at r = 1; 'file' loads an IMTS
    dtype-1 map from ``path``.
    """

    kind: str = "uniform"
    alpha: float = 0.0
    path: str | None = None

    def __post_init__(self):
        check_fields(self, kind=("uniform", "radial_ramp", "file"), alpha="[0, inf)")
        if self.kind == "file" and not self.path:
            raise InvalidInputError("gmap kind 'file' requires a path")


def make_gmap(model: GmapModel, height: int, width: int) -> GFactorMap:
    """Materialize a GmapModel at the requested dimensions."""
    if model.kind == "file":
        from .imgstack import load_gmap

        gmap = load_gmap(model.path)
        if gmap.shape != (height, width):
            raise InvalidInputError(
                f"g-factor map file is {gmap.shape}, need {(height, width)}"
            )
        return gmap
    if model.kind == "uniform":
        return GFactorMap(np.ones((height, width), dtype=np.float32))
    yy, xx = np.meshgrid(
        np.arange(height, dtype=np.float64) - (height - 1) / 2.0,
        np.arange(width, dtype=np.float64) - (width - 1) / 2.0,
        indexing="ij",
    )
    half_diag = math.hypot((height - 1) / 2.0, (width - 1) / 2.0)
    r = np.hypot(yy, xx) / half_diag
    return GFactorMap((1.0 + model.alpha * r).astype(np.float32))


def _slice_rng(seed: int, slice_index: int) -> np.random.Generator:
    # Philox key words: (seed, slice index). Counter-based, platform-stable.
    return np.random.Generator(np.random.Philox(key=[seed, slice_index]))


def _filter_gain(mask: np.ndarray) -> float:
    """Per-component std gain of filtering white noise with the k-space mask.

    For a real mask M and unitary transforms the output variance is the input
    variance times mean(M^2), identically for real and imaginary parts.
    """
    return math.sqrt(float(np.mean(mask * mask)))


def synth_noise(
    slices: int, height: int, width: int, spec: NoiseSpec, gmap: GFactorMap
) -> ComplexImageStack:
    """Synthesize a g-factor-weighted complex noise stack.

    Deterministic given (shape, spec, gmap): slice s always consumes the
    Philox stream keyed (seed, s) regardless of generation order.
    """
    if gmap.shape != (height, width):
        raise InvalidInputError(f"g-factor map is {gmap.shape}, need {(height, width)}")
    if slices < 1:
        raise InvalidInputError(f"need at least one slice, got {slices}")
    base = np.empty((slices, height, width), dtype=np.complex64)
    for s in range(slices):
        rng = _slice_rng(spec.seed, s)
        re = rng.standard_normal((height, width), dtype=np.float32)
        im = rng.standard_normal((height, width), dtype=np.float32)
        base[s] = re + 1j * im
    base *= np.float32(spec.sigma)
    if not spec.filter.is_all_pass():
        # restore per-component std so "level sigma" means the same strength
        # under every filter choice
        gain = np.float32(_filter_gain(filter_mask(spec.filter, height, width)))
        base = (apply_kspace_filters(base, spec.filter) / gain).astype(np.complex64)
    weighted = base * gmap.values[None, :, :]
    return ComplexImageStack(weighted.astype(np.complex64))


def make_training_pair(
    clean: ComplexImageStack, spec: NoiseSpec, gmap: GFactorMap
) -> tuple[ComplexImageStack, ComplexImageStack]:
    """Build a (noisy, clean) pair with noise drawn at the normalized scale.

    The clean stack is scaled to mean power DEFAULT_TARGET_POWER by k_n,
    noise at level sigma is added there, and the sum is brought back by
    1/k_n; i.e. noisy = clean + noise / k_n. The clean stack is returned
    unchanged.
    """
    p_n = mean_signal_power(clean)
    if p_n == 0.0:
        raise DegenerateInputError("zero-power clean stack: pairing undefined")
    k_n = math.sqrt(DEFAULT_TARGET_POWER / p_n)
    noise = synth_noise(clean.slices, clean.height, clean.width, spec, gmap)
    noisy = clean.data + noise.data * np.float32(1.0 / k_n)
    return ComplexImageStack(noisy), clean


def relative_snr_db(sigma: float) -> float:
    """Relative SNR in dB at the normalized power scale: 20*log10(40/sigma)."""
    if sigma <= 0:
        raise InvalidInputError(f"sigma must be positive, got {sigma}")
    return 20.0 * math.log10(math.sqrt(DEFAULT_TARGET_POWER) / sigma)
