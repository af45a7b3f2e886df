"""Complex image stacks: the data model every other module consumes.

A stack is an S x H x W volume of complex64 samples. Reductions (power,
averages) accumulate in float64; storage stays 32-bit per component.

Also home to PowerNorm (pre-network mean-power normalization to a target of
1600), root-sum-of-squares coil combination, repetition averaging, 16-bit
export, and the IMTS binary file format.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .container import atomic_write
from .errors import (
    DegenerateInputError,
    FormatError,
    InvalidInputError,
    InvalidStateError,
    TruncationError,
)

DEFAULT_TARGET_POWER = 1600.0

_MAGIC = b"IMTMRD01"
_DTYPE_COMPLEX = 0
_DTYPE_REAL = 1
_HEADER_LEN = 21  # magic(8) + 3*u32(12) + dtype flag(1)


class ComplexImageStack:
    """Immutable S x H x W complex64 image volume.

    ``data`` is stored slice-major, row-major and made read-only at
    construction so instances are safe to share across threads.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        arr = np.asarray(data)
        if arr.ndim != 3:
            raise InvalidInputError(
                f"stack data must be 3-D (S, H, W), got shape {arr.shape}"
            )
        if arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise InvalidInputError(f"stack dimensions must be >= 1, got {arr.shape}")
        arr = np.ascontiguousarray(arr, dtype=np.complex64)
        if not np.all(np.isfinite(arr.view(np.float32))):
            raise InvalidInputError("stack contains non-finite components")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("ComplexImageStack is immutable")

    @property
    def slices(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def voxels(self) -> int:
        return self.data.size

    def magnitude(self) -> np.ndarray:
        """Voxelwise |x| as float64 (metric/estimation precision)."""
        return magnitudes(self.data)

    def __eq__(self, other) -> bool:
        return isinstance(other, ComplexImageStack) and np.array_equal(
            self.data, other.data
        )

    def __repr__(self) -> str:
        return f"ComplexImageStack(S={self.slices}, H={self.height}, W={self.width})"


def magnitudes(a) -> np.ndarray:
    """np.abs(a.astype(np.complex128)) bit for bit, without its whole-array copy."""
    out = np.empty(a.shape, dtype=np.float64)
    for s in range(a.shape[0]):
        np.abs(a[s].astype(np.complex128), out=out[s])
    return out


class GFactorMap:
    """Immutable H x W map of strictly positive noise-amplification factors."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray):
        arr = np.asarray(values)
        if arr.ndim != 2:
            raise InvalidInputError(f"g-factor map must be 2-D, got shape {arr.shape}")
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("g-factor map contains non-finite values")
        if not np.all(arr > 0):
            raise InvalidInputError("g-factor map values must be strictly positive")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("GFactorMap is immutable")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class PowerNormState:
    """Scaling bookkeeping for one normalized stack.

    Invariant: k_n == sqrt(DEFAULT_TARGET_POWER / source_power) to 1e-6
    relative.
    """

    k_n: float
    source_power: float

    def __post_init__(self):
        if self.source_power <= 0 or not math.isfinite(self.source_power):
            raise InvalidStateError(f"source power must be positive, got {self.source_power}")
        expected = math.sqrt(DEFAULT_TARGET_POWER / self.source_power)
        if abs(self.k_n - expected) > 1e-6 * expected:
            raise InvalidStateError(
                f"inconsistent PowerNormState: k_n={self.k_n}, expected {expected}"
            )


def mean_signal_power(stack: ComplexImageStack) -> float:
    """Mean |x|^2 over all voxels, accumulated in float64."""
    if stack.voxels == 0:
        raise InvalidInputError("empty stack")
    comps = stack.data.view(np.float32).astype(np.float64)
    return float(np.sum(comps * comps) / stack.voxels)


def power_normalize(stack: ComplexImageStack) -> tuple[ComplexImageStack, PowerNormState]:
    """Scale a stack so its mean signal power equals DEFAULT_TARGET_POWER.

    Returns the scaled stack and the state needed to undo the scaling.
    Raises DegenerateInputError for an all-zero stack (the factor is
    undefined there).
    """
    p_n = mean_signal_power(stack)
    if p_n == 0.0:
        raise DegenerateInputError("all-zero stack: power normalization undefined")
    k_n = math.sqrt(DEFAULT_TARGET_POWER / p_n)
    scaled = ComplexImageStack(stack.data * np.float32(k_n))
    return scaled, PowerNormState(k_n=k_n, source_power=p_n)


def power_denormalize(stack: ComplexImageStack, state: PowerNormState) -> ComplexImageStack:
    """Undo power_normalize by multiplying every voxel with 1/k_n."""
    if state.k_n <= 0 or not math.isfinite(state.k_n):
        raise InvalidStateError(f"k_n must be positive and finite, got {state.k_n}")
    return ComplexImageStack(stack.data * np.float32(1.0 / state.k_n))


def coil_combine_rss(coils: list[ComplexImageStack]) -> ComplexImageStack:
    """Root sum of squares over the real and imaginary parts separately.

    Output real part is sqrt(sum_c re_c^2), imaginary part sqrt(sum_c im_c^2),
    so both output components are non-negative.
    """
    if not coils:
        raise InvalidInputError("need at least one coil")
    shape = coils[0].shape
    for i, c in enumerate(coils):
        if c.shape != shape:
            raise InvalidInputError(
                f"coil {i} shape {c.shape} does not match coil 0 shape {shape}"
            )
    re_sq = np.zeros(shape, dtype=np.float64)
    im_sq = np.zeros(shape, dtype=np.float64)
    for c in coils:
        re = c.data.real.astype(np.float64)
        im = c.data.imag.astype(np.float64)
        re_sq += re * re
        im_sq += im * im
    combined = np.sqrt(re_sq) + 1j * np.sqrt(im_sq)
    return ComplexImageStack(combined.astype(np.complex64))


def average_repetitions(reps: list[ComplexImageStack]) -> ComplexImageStack:
    """Voxelwise complex mean of repeated acquisitions."""
    if not reps:
        raise InvalidInputError("need at least one repetition")
    shape = reps[0].shape
    for i, r in enumerate(reps):
        if r.shape != shape:
            raise InvalidInputError(
                f"repetition {i} shape {r.shape} does not match repetition 0 shape {shape}"
            )
    acc = np.zeros(shape, dtype=np.complex128)
    for r in reps:
        acc += r.data
    return ComplexImageStack((acc / len(reps)).astype(np.complex64))


def export_u16(stack: ComplexImageStack) -> np.ndarray:
    """Magnitudes linearly mapped so the stack-wide max becomes 8192.

    Rounds half-up and returns an S x H x W uint16 array. An all-zero stack
    maps to all zeros (no division by zero).
    """
    mag = stack.magnitude()
    peak = float(mag.max())
    if peak == 0.0:
        return np.zeros(stack.shape, dtype=np.uint16)
    scaled = mag * (8192.0 / peak)
    return np.floor(scaled + 0.5).astype(np.uint16)


def write_pgm_slices(stack: ComplexImageStack, out_stem: str | Path) -> list[Path]:
    """Write the 16-bit export as one big-endian P5 PGM file per slice.

    Files are named ``<stem>_s<index>.pgm``; returns the written paths.
    """
    u16 = export_u16(stack)
    stem = Path(out_stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    paths = []
    for s in range(stack.slices):
        path = stem.parent / f"{stem.name}_s{s}.pgm"
        header = f"P5\n{stack.width} {stack.height}\n65535\n".encode("ascii")
        atomic_write(path, header, u16[s].astype(">u2"))
        paths.append(path)
    return paths


def _encode_header(s: int, h: int, w: int, dtype_flag: int) -> bytes:
    return _MAGIC + struct.pack("<IIIB", s, h, w, dtype_flag)


def save_stack(stack: ComplexImageStack, path: str | Path) -> None:
    """Write a stack to an IMTS file (complex payload, dtype flag 0)."""
    header = _encode_header(stack.slices, stack.height, stack.width, _DTYPE_COMPLEX)
    atomic_write(path, header, np.ascontiguousarray(stack.data, dtype="<c8"))


def save_gmap(gmap: GFactorMap, path: str | Path) -> None:
    """Write a g-factor map to an IMTS file (real payload, S=1, dtype flag 1)."""
    header = _encode_header(1, gmap.height, gmap.width, _DTYPE_REAL)
    atomic_write(path, header, np.ascontiguousarray(gmap.values, dtype="<f4"))


def _read_header(raw: bytes, path: Path) -> tuple[int, int, int, int]:
    if len(raw) < _HEADER_LEN:
        raise TruncationError(f"{path}: file shorter than IMTS header", offset=len(raw))
    if raw[:8] != _MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:8]!r}", offset=0)
    s, h, w, flag = struct.unpack("<IIIB", raw[8:_HEADER_LEN])
    if s < 1 or h < 1 or w < 1:
        raise FormatError(f"{path}: zero dimension in header (S={s}, H={h}, W={w})", offset=8)
    if s * h * w > 2**31:
        raise FormatError(f"{path}: header dimensions overflow (S*H*W={s * h * w})", offset=8)
    if flag not in (_DTYPE_COMPLEX, _DTYPE_REAL):
        raise FormatError(f"{path}: unknown dtype flag {flag}", offset=20)
    return s, h, w, flag


def _read_imts(path: Path, flag: int) -> np.ndarray:
    """The (S, H, W) payload of an IMTS file whose dtype flag must be ``flag``.

    The header's sizes are checked against the file length before the payload
    array is allocated; the payload is then read straight into that array.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        s, h, w, found = _read_header(fh.read(_HEADER_LEN), path)
        kind, dtype = ("complex", "<c8") if flag == _DTYPE_COMPLEX else ("real", "<f4")
        if found != flag:
            raise FormatError(
                f"{path}: expected {kind} payload, found dtype flag {found}", offset=20
            )
        if flag == _DTYPE_REAL and s != 1:
            raise FormatError(
                f"{path}: g-factor maps are single-slice, header says S={s}", offset=8
            )
        expected, got = s * h * w * np.dtype(dtype).itemsize, size - _HEADER_LEN
        if got > expected:
            raise FormatError(
                f"{path}: {got - expected} trailing bytes after payload",
                offset=_HEADER_LEN + expected,
            )
        if got == expected:
            data = np.empty((s, h, w), dtype=dtype)
            # a file that shrank since fstat reads short and fails below
            got = fh.readinto(data.reshape(-1).view(np.uint8))
        if got < expected:
            raise TruncationError(
                f"{path}: payload holds {got} bytes, header claims {expected}",
                offset=_HEADER_LEN + got,
            )
    return data


def load_stack(path: str | Path) -> ComplexImageStack:
    """Read an IMTS complex stack; save/load round trips bit-exactly."""
    return ComplexImageStack(_read_imts(Path(path), _DTYPE_COMPLEX))


def load_gmap(path: str | Path) -> GFactorMap:
    """Read an IMTS g-factor map (dtype flag 1, single slice)."""
    return GFactorMap(_read_imts(Path(path), _DTYPE_REAL)[0])
