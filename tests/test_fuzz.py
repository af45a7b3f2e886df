"""Every reader of outside input, fed one mutated value at a time.

Each test starts from a valid config or file, changes one value or byte, and
checks that the reader either accepts the result or refuses it with its
documented error; a traceback out of ``imt`` fails the test.
"""

import contextlib
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imt.cli import main
from imt.config import SECTIONS, RunConfig, run_config_from_dict
from imt.errors import ConfigError, FormatError, InvalidInputError
from imt.imgstack import ComplexImageStack, save_stack
from imt.network import ModelConfig, init_params, save_checkpoint
from imt.training import FeatureExtractor

FUZZ = settings(derandomize=True, max_examples=60, deadline=None)

# any value a JSON document can hold, NaN and the infinities included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)

VALID_CONFIG = {
    section: dataclasses.asdict(getattr(run_config_from_dict({}), section))
    for section in SECTIONS
}
CONFIG_KEYS = [(section, key) for section in SECTIONS for key in VALID_CONFIG[section]]

MODEL = ModelConfig(channels=4, heads=2, window=2, slice_depth=2)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid stack, checkpoint and extractor file, and a scratch directory."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(7)
    data = rng.normal(size=(4, 16, 16)) + 1j * rng.normal(size=(4, 16, 16))
    save_stack(ComplexImageStack(data.astype(np.complex64)), root / "stack.imts")
    save_checkpoint(root / "model.ckpt", init_params(MODEL, 3), MODEL)
    FeatureExtractor(seed=1, channels=(2, 3)).save(root / "fe.bin")
    return root


def run(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


def mutated(files, name, rewrite_manifest, data):
    """A copy of ``files/name`` with one manifest value or header byte changed."""
    src, out = files / name, files / f"mutated_{name}"
    if data.draw(st.booleans(), label="header byte"):
        raw = bytearray(src.read_bytes())
        i = data.draw(st.integers(0, 15), label="offset")
        raw[i] ^= data.draw(st.integers(1, 255), label="xor")
        out.write_bytes(bytes(raw))
        return out

    def edit(manifest):
        tensor = data.draw(st.sampled_from(sorted(manifest["tensors"])), label="tensor")
        owners = [manifest, manifest["tensors"][tensor]]
        owners += [manifest["config"]] if "config" in manifest else []
        owner = data.draw(st.sampled_from(owners), label="owner")
        key = data.draw(st.sampled_from(sorted(owner)), label="key")
        owner[key] = data.draw(JSON_VALUES, label="value")

    return rewrite_manifest(src, out, edit)


@FUZZ
@given(where=st.sampled_from(CONFIG_KEYS), value=JSON_VALUES)
def test_config_value(where, value):
    section, key = where
    doc = {s: dict(VALID_CONFIG[s]) for s in SECTIONS}
    doc[section][key] = value
    try:
        assert isinstance(run_config_from_dict(doc), RunConfig)
    except ConfigError:
        pass


@FUZZ
@given(data=st.data())
def test_checkpoint(files, rewrite_manifest, data):
    bad = mutated(files, "model.ckpt", rewrite_manifest, data)
    code = run("denoise", "--model", str(bad), "--in", str(files / "stack.imts"),
               "--out", str(files / "denoised.imts"))
    assert code in (0, 2, 4)


@FUZZ
@given(offset=st.integers(0, 20), xor=st.integers(1, 255))
def test_stack_header_byte(files, offset, xor):
    raw = bytearray((files / "stack.imts").read_bytes())
    raw[offset] ^= xor
    bad = files / "mutated.imts"
    bad.write_bytes(bytes(raw))
    code = run("eval", "--ref", str(files / "stack.imts"), "--test", str(bad),
               "--json", str(files / "report.json"))
    assert code in (0, 2)


@FUZZ
@given(data=st.data())
def test_extractor_weights(files, rewrite_manifest, data):
    bad = mutated(files, "fe.bin", rewrite_manifest, data)
    try:
        FeatureExtractor.from_file(bad)
    except (FormatError, InvalidInputError):
        pass
