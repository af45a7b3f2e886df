import json
import struct

import numpy as np
import pytest

from imt.imgstack import ComplexImageStack
from imt.network import ParameterSet


@pytest.fixture
def rng():
    return np.random.default_rng(20240101)


@pytest.fixture
def small_stack(rng):
    data = (rng.normal(size=(3, 16, 16)) + 1j * rng.normal(size=(3, 16, 16))).astype(
        np.complex64
    )
    return ComplexImageStack(data)


def _rewrite_manifest(valid, out, edit):
    """Copy the tensor-container file ``valid`` to ``out`` with its manifest
    passed through ``edit``; returns ``out``."""
    raw = valid.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16 : 16 + mlen])
    edit(manifest)
    mb = json.dumps(manifest).encode()
    out.write_bytes(raw[:8] + struct.pack("<Q", len(mb)) + mb + raw[16 + mlen :])
    return out


@pytest.fixture(scope="session")
def rewrite_manifest():
    return _rewrite_manifest


def _with_key_bias(params, bias=None):
    """``params`` in the layout checkpoints had before the attention key bias
    was dropped: an ``attn.bk`` after each ``attn.bq``, zero unless ``bias``
    maps a shape to its values."""
    tensors = {}
    for name, t in params.tensors.items():
        tensors[name] = t
        if name.endswith(".attn.bq"):
            bk = np.zeros_like(t) if bias is None else bias(t.shape).astype(np.float32)
            tensors[name[: -len("bq")] + "bk"] = bk
    return ParameterSet(tensors, params.init_seed)


@pytest.fixture(scope="session")
def with_key_bias():
    return _with_key_bias


@pytest.fixture
def corrupt_containers(tmp_path):
    """Malformed copies of a valid tensor-container file.

    Returns ``variants(valid, a, b, **fields)``, which yields (label, path)
    pairs, one per defect a container reader must reject with FormatError:
    the tensor-entry defects below, and each top-level manifest key in
    ``fields`` set to its bad value. ``a`` and ``b`` name two tensors of one
    shape, neither of them stored last.
    """

    def variants(valid, a, b, **fields):
        edits = {
            "trailing payload bytes": lambda m: None,
            "float64 entry": lambda m: m["tensors"][a].update(dtype="float64"),
            "overlapping ranges": lambda m: m["tensors"][b].update(offset=m["tensors"][a]["offset"]),
            "entry without shape": lambda m: m["tensors"][a].pop("shape"),
            "negative offset": lambda m: m["tensors"][a].update(offset=-8),
            "infinite offset": lambda m: m["tensors"][a].update(offset=float("inf")),
            "empty tensor, huge dimension": lambda m: m["tensors"][a].update(shape=[0, 2**61]),
        }
        for key, value in fields.items():
            edits[f"bad {key}"] = lambda m, key=key, value=value: m.update({key: value})
        for i, (label, edit) in enumerate(edits.items()):
            path = _rewrite_manifest(valid, tmp_path / f"corrupt{i}{valid.suffix}", edit)
            if label == "trailing payload bytes":
                path.write_bytes(path.read_bytes() + b"\0" * 4)
            yield label, path

    return variants
