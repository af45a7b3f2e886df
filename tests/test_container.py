"""File output: the shared tensor container and the atomic write."""

import hashlib
import os
import stat

import numpy as np
import pytest

from imt.container import atomic_write
from imt.imgstack import GFactorMap, load_stack, save_gmap, save_stack
from imt.metrics import RaterScore, build_report, write_rater_csv, write_report
from imt.network import ModelConfig, init_params, load_checkpoint, save_checkpoint
from imt.phantom import make_phantom
from imt.training import FeatureExtractor

CFG = ModelConfig(channels=8, heads=2, window=4, slice_depth=2)
STACK = make_phantom(2, 16, 16, seed=0)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The pinned hashes are those of the files the writers produced before they
# shared one container module. A file with the same hash is byte-identical to
# one written then, so loading it back bit for bit shows such files still load.


def test_checkpoint_golden_bytes(tmp_path, with_key_bias):
    # files of the pinned hash still carried a zero key bias `attn.bk` per
    # attention unit, so the file is written in that layout; loading drops it
    path = tmp_path / "model.ckpt"
    params = init_params(CFG, 0)
    save_checkpoint(path, with_key_bias(params), CFG)
    assert sha256(path) == "be0fddd78c982a82dc87ecb818ee717e9f1ab2b666ea6adc32a72a2e37a8a927"
    assert load_checkpoint(path) == (params, CFG, {})


def test_extractor_golden_bytes(tmp_path):
    path = tmp_path / "fe.bin"
    fe = FeatureExtractor(seed=0)
    fe.save(path)
    assert sha256(path) == "336f42c1a7baa63b155b40f905ac47786d0434b8220df3be49a5cdcdc3cdf4ce"
    loaded = FeatureExtractor.from_file(path)
    assert loaded.channels == fe.channels
    assert loaded.weights.keys() == fe.weights.keys()
    for name, w in fe.weights.items():
        assert np.array_equal(loaded.weights[name], w)


def test_stack_golden_bytes(tmp_path):
    path = tmp_path / "phantom.imts"
    save_stack(STACK, path)
    assert sha256(path) == "8b15f8c458aba80884510bc679d76f36e2eeab262cf872dcca68e32961bf66d4"
    assert load_stack(path) == STACK


WRITERS = {
    "bytes": lambda p: atomic_write(p, b"new"),
    "stack": lambda p: save_stack(STACK, p),
    "gmap": lambda p: save_gmap(GFactorMap(np.ones((4, 4))), p),
    "checkpoint": lambda p: save_checkpoint(p, init_params(CFG, 0), CFG),
    "extractor": lambda p: FeatureExtractor(seed=0).save(p),
    "report": lambda p: write_report(build_report([("a", STACK, STACK)]), p),
    "rater_csv": lambda p: write_rater_csv([RaterScore("c", "r", 1, 2, 3, 4)], p),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_replace_keeps_target_and_leaves_no_temp(tmp_path, monkeypatch, kind):
    target = tmp_path / "out"
    target.write_bytes(b"old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        WRITERS[kind](target)
    monkeypatch.undo()
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_leftover_temp_file_neither_blocks_nor_is_taken(tmp_path):
    target = tmp_path / "out.imts"
    leftover = tmp_path / "out.imts.tmp"
    leftover.write_bytes(b"bytes of a crashed or concurrent writer")
    save_stack(STACK, target)
    assert load_stack(target) == STACK
    assert leftover.read_bytes() == b"bytes of a crashed or concurrent writer"


def test_written_file_is_synced_before_rename(tmp_path, monkeypatch):
    # the file is synced before the rename, and its directory after it
    calls = []
    fsync, replace = os.fsync, os.replace

    def record_fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        calls.append(f"fsync {kind}")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "replace", lambda a, b: calls.append("replace") or replace(a, b))
    atomic_write(tmp_path / "out", b"x")
    assert calls == ["fsync file", "replace", "fsync dir"]


def test_file_mode_follows_umask(tmp_path):
    old = os.umask(0o027)
    try:
        atomic_write(tmp_path / "out", b"x")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out").stat().st_mode) == 0o666 & ~0o027
