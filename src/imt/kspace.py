"""Unitary centered 2D Fourier transforms and k-space filtering/resizing.

Conventions fixed here and relied on everywhere else:
  - transforms are unitary (1/sqrt(HW) each way), so Parseval holds with no
    extra factors and energy statements are scale-free;
  - after centering, DC sits at index floor(n/2) on each axis;
  - partial Fourier zeroes the high-index side of the phase-encoding axis.

The transforms are backed by scipy's pocketfft, which is mixed-radix with a
Bluestein fallback, so arbitrary (non power-of-two) matrix sizes are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import InvalidInputError, check_fields
from .imgstack import ComplexImageStack


def fft2(image: np.ndarray) -> np.ndarray:
    """Centered unitary 2D DFT over the last two axes (one H x W slice or a
    stack of them; complex in, complex out)."""
    x = np.asarray(image)
    if x.ndim < 2:
        raise InvalidInputError(f"fft2 expects at least 2 dims, got shape {x.shape}")
    ax = (-2, -1)
    k = scipy.fft.fft2(np.fft.ifftshift(x, axes=ax), axes=ax, norm="ortho")
    return np.fft.fftshift(k, axes=ax)


def ifft2(kspace: np.ndarray) -> np.ndarray:
    """Inverse of fft2 (identity round trip to float precision)."""
    x = np.asarray(kspace)
    if x.ndim < 2:
        raise InvalidInputError(f"ifft2 expects at least 2 dims, got shape {x.shape}")
    ax = (-2, -1)
    k = scipy.fft.ifft2(np.fft.ifftshift(x, axes=ax), axes=ax, norm="ortho")
    return np.fft.fftshift(k, axes=ax)


@dataclass(frozen=True)
class KspaceFilterSpec:
    """Filter chain applied to centered k-space before noise is formed.

    resolution_reduction_keep: fraction (0, 1] of central lines kept per axis.
    partial_fourier_fraction: fraction (0.5, 1] of lines kept along the
        phase-encoding axis; the high-index remainder is zeroed.
    gaussian_width_phase / gaussian_width_read: std of Gaussian apodization in
        normalized frequency units (cycle/sample), or None for off.
    axis_phase: which image axis (0 rows, 1 columns) is phase-encoding.
    """

    resolution_reduction_keep: float = 1.0
    partial_fourier_fraction: float = 1.0
    gaussian_width_phase: float | None = None
    gaussian_width_read: float | None = None
    axis_phase: int = 0

    def __post_init__(self):
        check_fields(
            self, resolution_reduction_keep="(0, 1]", partial_fourier_fraction="(0.5, 1]",
            axis_phase=(0, 1),
        )

    def is_all_pass(self) -> bool:
        return (
            self.resolution_reduction_keep == 1.0
            and self.partial_fourier_fraction == 1.0
            and self.gaussian_width_phase is None
            and self.gaussian_width_read is None
        )


def _centered_keep_mask(n: int, keep: int) -> np.ndarray:
    """1-D box mask keeping ``keep`` central samples around index floor(n/2)."""
    mask = np.zeros(n, dtype=np.float64)
    start = n // 2 - keep // 2
    mask[start : start + keep] = 1.0
    return mask


def _normalized_freq(n: int) -> np.ndarray:
    """Per-axis frequency coordinate in cycles/sample, DC at floor(n/2)."""
    return (np.arange(n) - n // 2) / n


def filter_mask(spec: KspaceFilterSpec, height: int, width: int) -> np.ndarray:
    """Real-valued separable H x W k-space mask realizing ``spec``.

    Exposed so tests (and the noise-variance renormalization) can inspect the
    mask rather than infer it from filtered output.
    """
    axis_masks = []
    for axis, n in ((0, height), (1, width)):
        kept = int(math.floor(spec.resolution_reduction_keep * n + 0.5))
        m = _centered_keep_mask(n, max(1, kept))
        if axis == spec.axis_phase and spec.partial_fourier_fraction < 1.0:
            zeroed = int(math.floor((1.0 - spec.partial_fourier_fraction) * n))
            if zeroed > 0:
                m[n - zeroed :] = 0.0
        width_g = spec.gaussian_width_phase if axis == spec.axis_phase else spec.gaussian_width_read
        if width_g is not None:
            f = _normalized_freq(n)
            m = m * np.exp(-(f * f) / (2.0 * width_g * width_g))
        axis_masks.append(m)
    return np.outer(axis_masks[0], axis_masks[1])


def apply_kspace_filters(image: np.ndarray, spec: KspaceFilterSpec) -> np.ndarray:
    """fft2 -> multiply by the separable mask -> ifft2, over the last two axes
    (one H x W slice or a stack of them)."""
    x = np.asarray(image)
    if x.ndim < 2:
        raise InvalidInputError(f"expected at least 2 dims (..., H, W), got shape {x.shape}")
    mask = filter_mask(spec, x.shape[-2], x.shape[-1])
    k = fft2(x)
    return ifft2(k * mask.astype(k.real.dtype))


def _centered_crop_or_pad(k: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Centered spectrum crop/pad keeping DC at floor(n/2) on both grids."""
    in_h, in_w = k.shape[-2:]
    out = np.zeros(k.shape[:-2] + (out_h, out_w), dtype=k.dtype)

    def spans(n_in: int, n_out: int) -> tuple[slice, slice]:
        if n_out <= n_in:
            start = n_in // 2 - n_out // 2
            return slice(start, start + n_out), slice(0, n_out)
        start = n_out // 2 - n_in // 2
        return slice(0, n_in), slice(start, start + n_in)

    src_h, dst_h = spans(in_h, out_h)
    src_w, dst_w = spans(in_w, out_w)
    out[..., dst_h, dst_w] = k[..., src_h, src_w]
    return out


def kspace_resize(stack: ComplexImageStack, ratio: float) -> ComplexImageStack:
    """Resize a stack by cropping (ratio < 1) or zero-padding (ratio > 1) the
    centered spectrum of every slice, with unitary transforms both ways.

    Output dimensions are round-half-up(ratio * {H, W}); a result dimension
    below 4 is rejected.
    """
    if not (0.5 <= ratio <= 1.5):
        raise InvalidInputError(f"resize ratio must be in [0.5, 1.5], got {ratio}")
    out_h = int(math.floor(ratio * stack.height + 0.5))
    out_w = int(math.floor(ratio * stack.width + 0.5))
    if out_h < 4 or out_w < 4:
        raise InvalidInputError(
            f"resize target {out_h}x{out_w} below minimum matrix size 4"
        )
    if (out_h, out_w) == (stack.height, stack.width):
        return stack
    k = _centered_crop_or_pad(fft2(stack.data), out_h, out_w)
    return ComplexImageStack(ifft2(k).astype(np.complex64))
