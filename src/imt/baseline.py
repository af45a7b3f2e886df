"""Wavelet noise estimation and a shrinkage denoiser used as the classical
comparison point.

The estimator is the MAD rule on diagonal detail coefficients of a one-level
orthonormal Haar transform; the stack-level sigma applies the 1.15 middle-slice
adjustment. The denoiser soft-thresholds a 3-level Haar decomposition of the
real and imaginary channels at the universal threshold. An adapter can hand
the same job to an external command instead.
"""

from __future__ import annotations

import logging
import math
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BaselineError, InvalidInputError
from .imgstack import ComplexImageStack, load_stack, save_stack
from .metrics import magnitude_stack

log = logging.getLogger(__name__)

MAD_CONSTANT = 0.6745
SIGMA_ADJUSTMENT = 1.15
SHRINK_LEVELS = 3


# ---------------------------------------------------------------------------
# orthonormal Haar transform


def _haar_step(a: np.ndarray):
    """One analysis level on an even-sized 2-D array; returns (ll, lh, hl, hh)."""
    a00 = a[0::2, 0::2]
    a01 = a[0::2, 1::2]
    a10 = a[1::2, 0::2]
    a11 = a[1::2, 1::2]
    ll = (a00 + a01 + a10 + a11) / 2.0
    lh = (a00 - a01 + a10 - a11) / 2.0
    hl = (a00 + a01 - a10 - a11) / 2.0
    hh = (a00 - a01 - a10 + a11) / 2.0
    return ll, lh, hl, hh


def _haar_step_inverse(ll, lh, hl, hh) -> np.ndarray:
    h, w = ll.shape
    out = np.empty((2 * h, 2 * w), dtype=ll.dtype)
    out[0::2, 0::2] = (ll + lh + hl + hh) / 2.0
    out[0::2, 1::2] = (ll - lh + hl - hh) / 2.0
    out[1::2, 0::2] = (ll + lh - hl - hh) / 2.0
    out[1::2, 1::2] = (ll - lh - hl + hh) / 2.0
    return out


def haar2d_forward(a: np.ndarray, levels: int):
    """Multi-level decomposition; dims must be multiples of 2**levels.

    Returns (ll, details) with details listed deepest level first, each a
    (lh, hl, hh) triple. The transform is orthonormal, so white noise keeps
    its per-coefficient std at every level.
    """
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-D array, got shape {a.shape}")
    step = 2**levels
    if a.shape[0] % step or a.shape[1] % step:
        raise InvalidInputError(f"dims {a.shape} not divisible by {step}")
    details = []
    ll = a
    for _ in range(levels):
        ll, lh, hl, hh = _haar_step(ll)
        details.append((lh, hl, hh))
    details.reverse()
    return ll, details


def haar2d_inverse(ll: np.ndarray, details) -> np.ndarray:
    out = ll
    for lh, hl, hh in details:
        out = _haar_step_inverse(out, lh, hl, hh)
    return out


def soft_threshold(a: np.ndarray, t: float) -> np.ndarray:
    return np.sign(a) * np.maximum(np.abs(a) - t, 0.0)


# ---------------------------------------------------------------------------
# sigma estimation


def wavelet_sigma_estimate(slice_values: np.ndarray) -> float:
    """MAD estimate from one-level Haar diagonal details of a real slice.

    Odd trailing rows/columns are dropped; the detail band rejects smooth
    image content, so the median picks up the noise floor.
    """
    a = np.asarray(slice_values, dtype=np.float64)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-D slice, got shape {a.shape}")
    h, w = a.shape
    if h < 2 or w < 2:
        raise InvalidInputError(f"slice {a.shape} too small for a Haar level")
    a = a[: h - h % 2, : w - w % 2]
    _, _, _, hh = _haar_step(a)
    return float(np.median(np.abs(hh)) / MAD_CONSTANT)


@dataclass(frozen=True)
class SigmaEstimate:
    per_slice: tuple
    middle_index: int
    adjusted: float


def adjusted_sigma(stack) -> SigmaEstimate:
    """Per-slice magnitude-domain estimates plus the adjusted stack sigma.

    The adjusted value is 1.15 times the raw estimate on the middle slice
    (index floor(S/2)) and depends on no other slice.
    """
    mags = magnitude_stack(stack)
    per_slice = tuple(wavelet_sigma_estimate(s) for s in mags)
    mid = mags.shape[0] // 2
    return SigmaEstimate(per_slice, mid, SIGMA_ADJUSTMENT * per_slice[mid])


# ---------------------------------------------------------------------------
# shrinkage denoiser


def _check_sigma(sigma: float) -> None:
    if not (sigma >= 0 and math.isfinite(sigma)):
        raise InvalidInputError(f"sigma must be finite and >= 0, got {sigma}")


def _shrink_channel(a: np.ndarray, threshold: float) -> np.ndarray:
    h, w = a.shape
    step = 2**SHRINK_LEVELS
    ph, pw = (-h) % step, (-w) % step
    padded = np.pad(a, ((0, ph), (0, pw)), mode="symmetric")
    ll, details = haar2d_forward(padded, SHRINK_LEVELS)
    shrunk = [tuple(soft_threshold(band, threshold) for band in triple) for triple in details]
    return haar2d_inverse(ll, shrunk)[:h, :w]


def wavelet_shrink_denoise(stack, sigma: float) -> ComplexImageStack:
    """Soft-threshold all detail bands at sigma * sqrt(2*ln(H*W)).

    Real and imaginary channels are processed independently; the
    approximation band passes through untouched. sigma=0 reduces to a
    round-trip of the transform.
    """
    _check_sigma(sigma)
    if not isinstance(stack, ComplexImageStack):
        stack = ComplexImageStack(np.asarray(stack))
    threshold = sigma * math.sqrt(2.0 * math.log(stack.height * stack.width))
    out = np.empty_like(stack.data)
    for s in range(stack.slices):
        re = _shrink_channel(stack.data[s].real.astype(np.float64), threshold)
        im = _shrink_channel(stack.data[s].imag.astype(np.float64), threshold)
        out[s] = (re + 1j * im).astype(np.complex64)
    return ComplexImageStack(out)


def denoise(stack, sigma: float | None = None) -> ComplexImageStack:
    """Baseline entry point: estimate the adjusted sigma unless given one."""
    if sigma is None:
        sigma = adjusted_sigma(stack).adjusted
    return wavelet_shrink_denoise(stack, sigma)


# ---------------------------------------------------------------------------
# external adapter


def external_denoise(stack, command, sigma: float, timeout: float = 300.0) -> ComplexImageStack:
    """Run a configured external denoiser over IMTS files.

    The command is invoked as `<command...> <input> <output> --sigma <value>`.
    sigma must be finite and >= 0, as for the internal denoiser, and timeout
    finite and > 0 (InvalidInputError otherwise); a non-zero exit, a timeout,
    or an unreadable output file raises BaselineError.
    """
    if not command:
        raise InvalidInputError("external baseline command is empty")
    _check_sigma(sigma)
    if not (timeout > 0 and math.isfinite(timeout)):
        raise InvalidInputError(f"timeout must be finite and > 0, got {timeout}")
    if not isinstance(stack, ComplexImageStack):
        stack = ComplexImageStack(np.asarray(stack))
    with tempfile.TemporaryDirectory(prefix="imt-baseline-") as tmp:
        in_path = Path(tmp) / "input.imts"
        out_path = Path(tmp) / "output.imts"
        save_stack(stack, in_path)
        argv = [*command, str(in_path), str(out_path), "--sigma", repr(float(sigma))]
        try:
            proc = subprocess.run(argv, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BaselineError(f"external baseline timed out after {timeout}s") from exc
        except OSError as exc:
            raise BaselineError(f"external baseline failed to start: {exc}") from exc
        if proc.returncode != 0:
            tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            raise BaselineError(
                f"external baseline exited {proc.returncode}: {' | '.join(tail) or 'no stderr'}"
            )
        try:
            result = load_stack(out_path)
        except Exception as exc:
            raise BaselineError(f"external baseline output unreadable: {exc}") from exc
    if result.shape != stack.shape:
        raise BaselineError(
            f"external baseline returned shape {result.shape}, expected {stack.shape}"
        )
    return result
