"""The tensor container shared by checkpoints and extractor weights, and the
atomic write every output file of the package goes through.

Container grammar: an 8-byte magic, the manifest length as a little-endian
u64, a sorted-key UTF-8 JSON manifest, then the payload of little-endian
float32 tensors back to back in name order. The manifest's ``tensors`` key
maps each name to ``{"offset", "shape", "dtype"}`` with the offset relative
to the payload; each file kind adds its own top-level keys.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, TruncationError

_HEADER_LEN = 16  # magic(8) + manifest length(8)


def atomic_write(path, *chunks) -> None:
    """Replace ``path`` with ``chunks`` back to back; readers see the old file
    or the new one.

    Each chunk is a bytes-like object (bytes, a memoryview, a C-contiguous
    array) written as it is, so a large payload is never copied into one
    buffer. The bytes go to a uniquely named sibling opened with mode ``"xb"``
    (so the file mode follows the umask), are fsynced, then renamed over
    ``path``, and the directory is fsynced after the rename. On any error
    before the rename the sibling is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    # the rename itself is durable only once the directory entry is synced
    dirfd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dirfd)
    finally:
        os.close(dirfd)


def write(path, magic: bytes, manifest: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write ``tensors`` as float32 under ``magic`` with ``manifest``'s own keys."""
    entries, blobs, offset = {}, [], 0
    for name in sorted(tensors):
        t = np.ascontiguousarray(tensors[name], dtype="<f4")
        entries[name] = {"offset": offset, "shape": list(t.shape), "dtype": "float32"}
        blobs.append(t)
        offset += t.nbytes
    mbytes = json.dumps({**manifest, "tensors": entries}, sort_keys=True).encode("utf-8")
    atomic_write(path, magic, struct.pack("<Q", len(mbytes)), mbytes, *blobs)


def read(path, magic: bytes, what: str) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse a container file into (manifest, tensors); bit-exact inverse of write.

    ``what`` names the file kind in error messages. Every malformed input
    raises FormatError (TruncationError when the file ends early): a bad
    manifest entry, a negative offset or dimension, overlapping tensor
    ranges, or payload bytes no tensor covers.
    """
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER_LEN:
        raise TruncationError(f"{path}: shorter than {what} header", offset=len(raw))
    if raw[:8] != magic:
        raise FormatError(f"{path}: bad {what} magic {raw[:8]!r}", offset=0)
    (mlen,) = struct.unpack("<Q", raw[8:_HEADER_LEN])
    base = _HEADER_LEN + mlen
    if len(raw) < base:
        raise TruncationError(f"{path}: manifest truncated", offset=len(raw))
    try:
        manifest = json.loads(raw[_HEADER_LEN:base].decode("utf-8"))
    except ValueError as exc:  # undecodable bytes, bad JSON, an int too long to parse
        raise FormatError(f"{path}: unreadable manifest: {exc}", offset=_HEADER_LEN) from exc
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), dict):
        raise FormatError(f"{path}: manifest missing 'tensors'", offset=_HEADER_LEN)
    size = len(raw) - base
    tensors, ranges = {}, []
    for name, entry in manifest["tensors"].items():
        try:
            dtype, shape, start = entry["dtype"], tuple(entry["shape"]), entry["offset"]
        except (KeyError, TypeError) as exc:
            raise FormatError(
                f"{path}: bad manifest entry for tensor {name!r}: {exc!r}", offset=_HEADER_LEN
            ) from exc
        if dtype != "float32":
            raise FormatError(
                f"{path}: tensor {name!r} has unsupported dtype {dtype!r}", offset=_HEADER_LEN
            )
        if any(type(n) is not int or n < 0 for n in (start, *shape)):
            raise FormatError(
                f"{path}: tensor {name!r} needs a non-negative integer offset and shape",
                offset=_HEADER_LEN,
            )
        count = math.prod(shape)
        stop = start + 4 * count
        if stop > size:
            raise TruncationError(f"{path}: payload ends inside tensor {name!r}", offset=len(raw))
        try:  # an empty tensor can still claim a dimension no array may have
            flat = np.frombuffer(raw, dtype="<f4", count=count, offset=base + start)
            tensors[name] = flat.reshape(shape).copy()
        except ValueError as exc:
            raise FormatError(f"{path}: tensor {name!r}: {exc}", offset=_HEADER_LEN) from exc
        ranges.append((start, stop, name))
    end = 0
    for start, stop, name in sorted(ranges):
        if start < end:
            raise FormatError(
                f"{path}: tensor {name!r} overlaps the tensor before it", offset=base + start
            )
        end = stop
    if end != size:
        raise FormatError(f"{path}: {size - end} trailing payload bytes", offset=base + end)
    return manifest, tensors
