"""End-to-end tests of the command-line interface."""

import json
import shlex
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from imt import metrics, network
from imt.baseline import adjusted_sigma, wavelet_shrink_denoise
from imt.cli import main
from imt.imgstack import ComplexImageStack, load_stack, save_gmap, save_stack
from imt.metrics import RATER_COLUMNS
from imt.network import ModelConfig, init_params, load_checkpoint, save_checkpoint
from imt.noisegen import GFactorMap

SMALL_MODEL = ModelConfig(channels=8, heads=2, window=4, slice_depth=2)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def phantom_dir(work):
    out = work / "stacks"
    assert main(
        ["phantom", "-n", "4", "--slices", "3", "--height", "24", "--width", "24",
         "--seed", "5", "--out-dir", str(out)]
    ) == 0
    return out


@pytest.fixture(scope="module")
def run_config(work):
    path = work / "run.json"
    path.write_text(json.dumps({
        "model": {"channels": 8, "heads": 2, "window": 4, "slice_depth": 2},
        "train": {
            "epochs": 1, "batch": 1, "steps_per_epoch": 2, "patch_sizes": [8],
            "val_samples": 1, "hessian_update_every": 2, "seed": 3,
            "sigma_range": [2.0, 4.0],
        },
        "noise": {"kind": "radial_ramp", "alpha": 1.0},
    }))
    return path


@pytest.fixture(scope="module")
def trained(work, phantom_dir, run_config):
    out = work / "train_out"
    code = main(["train", "--config", str(run_config), "--data", str(phantom_dir),
                 "--out", str(out)])
    assert code == 0
    return out / "best.ckpt"


@pytest.fixture(scope="module")
def noisy_file(work, phantom_dir):
    out = work / "noisy.imts"
    code = main(["synth", "--clean", str(phantom_dir / "phantom_000.imts"),
                 "--gmap-model", "radial_ramp:1.0", "--sigma", "4", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# usage and dispatch


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_is_usage_error():
    assert main(["phantom", "-n", "2"]) == 1


# ---------------------------------------------------------------------------
# phantom


def test_phantom_writes_files(phantom_dir, capsys):
    files = sorted(phantom_dir.glob("*.imts"))
    assert len(files) == 4
    stack = load_stack(files[0])
    assert stack.shape == (3, 24, 24)


def test_phantom_deterministic(work, phantom_dir):
    again = work / "stacks_again"
    assert main(
        ["phantom", "-n", "4", "--slices", "3", "--height", "24", "--width", "24",
         "--seed", "5", "--out-dir", str(again)]
    ) == 0
    for name in ("phantom_000.imts", "phantom_003.imts"):
        assert (again / name).read_bytes() == (phantom_dir / name).read_bytes()


# ---------------------------------------------------------------------------
# synth


def test_synth_prints_snr_and_writes(work, phantom_dir, noisy_file, capsys):
    clean = phantom_dir / "phantom_000.imts"
    out = work / "noisy_again.imts"
    code = main(["synth", "--clean", str(clean), "--gmap-model", "radial_ramp:1.0",
                 "--sigma", "4", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert "relative_snr_db=20.00" in capsys.readouterr().out
    noisy = load_stack(out)
    assert noisy.shape == load_stack(clean).shape
    # same seed, same bytes as the fixture-produced file
    assert out.read_bytes() == noisy_file.read_bytes()


def test_synth_with_gmap_file(work, phantom_dir):
    gpath = work / "g.imts"
    save_gmap(GFactorMap(np.full((24, 24), 1.5, np.float32)), gpath)
    out = work / "noisy_g.imts"
    code = main(["synth", "--clean", str(phantom_dir / "phantom_001.imts"),
                 "--gmap", str(gpath), "--sigma", "2", "--seed", "0", "--out", str(out)])
    assert code == 0


def test_synth_missing_clean_file(work, capsys):
    code = main(["synth", "--clean", str(work / "missing.imts"), "--gmap-model",
                 "uniform", "--sigma", "2", "--seed", "0", "--out", str(work / "x.imts")])
    assert code == 2
    assert not (work / "x.imts").exists()


def test_synth_bad_gmap_model(work, phantom_dir):
    code = main(["synth", "--clean", str(phantom_dir / "phantom_000.imts"),
                 "--gmap-model", "uniform:2.0", "--sigma", "2", "--seed", "0",
                 "--out", str(work / "y.imts")])
    assert code == 2


def test_synth_non_numeric_gmap_alpha(work, phantom_dir, capsys):
    out = work / "z.imts"
    code = main(["synth", "--clean", str(phantom_dir / "phantom_000.imts"),
                 "--gmap-model", "radial_ramp:abc", "--sigma", "2", "--seed", "0",
                 "--out", str(out)])
    assert code == 2
    assert "bad radial_ramp alpha 'abc'" in capsys.readouterr().err
    assert not out.exists()


def test_synth_gmap_dimension_mismatch(work, phantom_dir):
    gpath = work / "small_g.imts"
    save_gmap(GFactorMap(np.ones((8, 8), np.float32)), gpath)
    code = main(["synth", "--clean", str(phantom_dir / "phantom_000.imts"),
                 "--gmap", str(gpath), "--sigma", "2", "--seed", "0",
                 "--out", str(work / "z.imts")])
    assert code == 2


# ---------------------------------------------------------------------------
# train


def test_train_outputs(trained, capsys):
    assert trained.exists()
    assert (trained.parent / "train_log.csv").exists()
    params, cfg, extra = load_checkpoint(trained)
    assert cfg == SMALL_MODEL
    assert "val_loss" in extra


def _train_with(work, phantom_dir, run_config, name, **sections):
    """Train with ``run_config``'s sections replaced by ``sections``; returns
    the exit code and the output directory."""
    doc = {**json.loads(run_config.read_text()), **sections}
    cfg = work / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    out = work / name
    return main(["train", "--config", str(cfg), "--data", str(phantom_dir),
                 "--out", str(out)]), out


def test_train_gmap_dir_of_ones_equals_uniform_noise(work, phantom_dir, run_config):
    gdir = work / "gmaps_ones"
    gdir.mkdir()
    for path in phantom_dir.glob("*.imts"):
        save_gmap(GFactorMap(np.ones((24, 24), np.float32)), gdir / path.name)
    runs = [
        _train_with(work, phantom_dir, run_config, "t_gmap_dir", data={"gmap_dir": str(gdir)}),
        _train_with(work, phantom_dir, run_config, "t_uniform", noise={"kind": "uniform"}),
    ]
    assert [code for code, _ in runs] == [0, 0]
    logs = [
        [row.rsplit(",", 1)[0] for row in (out / "train_log.csv").read_text().splitlines()]
        for _, out in runs
    ]
    assert logs[0] == logs[1]
    assert (runs[0][1] / "best.ckpt").read_bytes() == (runs[1][1] / "best.ckpt").read_bytes()


def test_train_gmap_dir_missing_map_exits_2(work, phantom_dir, run_config, capsys):
    # each stack needs its same-named map; the noise section is no fallback
    gdir = work / "gmaps_empty"
    gdir.mkdir()
    code, out = _train_with(work, phantom_dir, run_config, "t_no_map",
                            data={"gmap_dir": str(gdir)})
    assert code == 2
    assert "phantom_000.imts" in capsys.readouterr().err
    assert not out.exists()


def test_train_without_data_dir(work, run_config):
    code = main(["train", "--config", str(run_config), "--out", str(work / "t2")])
    assert code == 2


def test_train_bad_config(work, phantom_dir):
    bad = work / "bad.json"
    bad.write_text(json.dumps({"model": {"bogus_field": 1}}))
    code = main(["train", "--config", str(bad), "--data", str(phantom_dir),
                 "--out", str(work / "t3")])
    assert code == 2


def test_train_undecodable_config_exits_2(work, phantom_dir, capsys):
    bad = work / "bad_bytes.json"
    bad.write_bytes(b"\xff\xfe{}")
    code = main(["train", "--config", str(bad), "--data", str(phantom_dir),
                 "--out", str(work / "t6")])
    assert code == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("model", "window", 2.5),
        ("model", "channels", 1e300),
        ("model", "heads", True),
        ("model", "bn_eps", float("nan")),
        ("train", "batch", 2**70),
        ("train", "lr", float("inf")),
        ("train", "seed", 1.5),
        ("train", "patch_sizes", [8.7]),
        ("train", "augment", "no"),
        ("noise", "alpha", float("nan")),
        ("data", "train_dir", 5),
    ],
)
def test_train_bad_config_value_exits_2(work, phantom_dir, run_config, capsys,
                                        section, key, value):
    doc = json.loads(run_config.read_text())
    doc.setdefault(section, {})[key] = value
    bad = work / "bad_value.json"
    bad.write_text(json.dumps(doc))
    code = main(["train", "--config", str(bad), "--data", str(phantom_dir),
                 "--out", str(work / "t5")])
    assert code == 2
    assert f"{key} must be" in capsys.readouterr().err


def test_train_overlong_integer_exits_2(work, phantom_dir, capsys):
    # json.loads refuses an int of more than 4300 digits with a plain ValueError
    bad = work / "long_int.json"
    bad.write_text('{"train": {"seed": ' + "1" * 5000 + "}}")
    code = main(["train", "--config", str(bad), "--data", str(phantom_dir),
                 "--out", str(work / "t6")])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_train_default_model_at_patch_8(work, phantom_dir, capsys):
    # the default window of 8 leaves the low branch a 4-wide grid to pad by 4
    cfg = work / "patch8.json"
    cfg.write_text(json.dumps({
        "train": {"epochs": 1, "batch": 1, "steps_per_epoch": 1, "patch_sizes": [8],
                  "val_samples": 1},
    }))
    out = work / "t7"
    code = main(["train", "--config", str(cfg), "--data", str(phantom_dir),
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    rows = (out / "train_log.csv").read_text().splitlines()
    assert len(rows) == 3
    assert load_checkpoint(out / "best.ckpt")[1] == ModelConfig()


def test_train_divergence_exits_3(work, phantom_dir, capsys):
    cfg = work / "diverge.json"
    cfg.write_text(json.dumps({
        "model": {"channels": 8, "heads": 2, "window": 4, "slice_depth": 2},
        "train": {"epochs": 1, "batch": 1, "steps_per_epoch": 1, "patch_sizes": [8],
                  "val_samples": 1, "seed": 3, "sigma_range": [1e30, 1e30]},
    }))
    with np.errstate(all="ignore"):
        code = main(["train", "--config", str(cfg), "--data", str(phantom_dir),
                     "--out", str(work / "t4")])
    assert code == 3
    assert "checkpoint" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# denoise


def test_denoise_preserves_shape(work, noisy_file, trained, capsys):
    out = work / "denoised.imts"
    code = main(["denoise", "--model", str(trained),
                 "--in", str(noisy_file), "--out", str(out)])
    assert code == 0
    assert "wall_time_s=" in capsys.readouterr().out
    assert load_stack(out).shape == (3, 24, 24)


def test_denoise_zero_head_checkpoint_is_identity(work, phantom_dir):
    # a freshly initialized model has a zero head, i.e. it is the identity
    ckpt = work / "fresh.ckpt"
    save_checkpoint(ckpt, init_params(SMALL_MODEL, 0), SMALL_MODEL)
    src = phantom_dir / "phantom_002.imts"
    out = work / "identity.imts"
    assert main(["denoise", "--model", str(ckpt), "--in", str(src), "--out", str(out)]) == 0
    x = load_stack(src).data
    y = load_stack(out).data
    assert float(np.max(np.abs(x - y))) <= 1e-5 * float(np.max(np.abs(x)))


def test_denoise_scale_equivariance(work, phantom_dir, trained):
    src = load_stack(phantom_dir / "phantom_001.imts")
    doubled = work / "doubled.imts"
    save_stack(ComplexImageStack(src.data * 2.0), doubled)
    out_a = work / "den_a.imts"
    out_b = work / "den_b.imts"
    assert main(["denoise", "--model", str(trained),
                 "--in", str(phantom_dir / "phantom_001.imts"), "--out", str(out_a)]) == 0
    assert main(["denoise", "--model", str(trained), "--in", str(doubled),
                 "--out", str(out_b)]) == 0
    a = load_stack(out_a).data
    b = load_stack(out_b).data
    assert float(np.max(np.abs(b - 2.0 * a))) <= 1e-5 * float(np.max(np.abs(b)))


def test_denoise_checkpoint_config_mismatch_exits_4(work, phantom_dir):
    # weights of one architecture filed under another architecture's config
    other = ModelConfig(channels=16, heads=2, window=4, slice_depth=2)
    ckpt = work / "mismatched.ckpt"
    save_checkpoint(ckpt, init_params(SMALL_MODEL, 0), other)
    code = main(["denoise", "--model", str(ckpt),
                 "--in", str(phantom_dir / "phantom_000.imts"),
                 "--out", str(work / "never.imts")])
    assert code == 4
    assert not (work / "never.imts").exists()


@pytest.mark.slow
def test_denoise_256_stack_default_config(tmp_path):
    # global attention spans all 32*32 windows at 256x256: one whole
    # probability array would be 4 GiB for this stack; denoising holds one
    # tile of it at a time and peaks near 400 MiB
    assert main(["phantom", "-n", "1", "--slices", "4", "--height", "256", "--width", "256",
                 "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    cfg = ModelConfig()
    save_checkpoint(tmp_path / "default.ckpt", init_params(cfg, 0), cfg)
    out = tmp_path / "denoised.imts"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code = main(["denoise", "--model", str(tmp_path / "default.ckpt"),
                     "--in", str(tmp_path / "phantom_000.imts"), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0
    assert load_stack(out).shape == (4, 256, 256)
    assert peak < 640 * 2**20


def test_denoise_out_of_memory_exits_6(work, phantom_dir, trained, monkeypatch, capsys):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    monkeypatch.setattr(network, "forward", no_memory)
    out = work / "never_oom.imts"
    code = main(["denoise", "--model", str(trained),
                 "--in", str(phantom_dir / "phantom_000.imts"), "--out", str(out)])
    assert code == 6
    err = capsys.readouterr().err
    assert err.startswith("imt: out of memory") and "MemoryError" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()



def test_denoise_out_of_memory_in_helper_half_exits_6(work, phantom_dir, trained, halves,
                                                      monkeypatch, capsys):
    mixer = network._mixer

    def helper_out_of_memory(x, p):
        if threading.current_thread() in halves.started:
            raise MemoryError("Unable to allocate 8.00 GiB for an array")
        return mixer(x, p)

    monkeypatch.setattr(network, "_mixer", helper_out_of_memory)
    threads = threading.active_count()
    blas = halves.blas_get()
    out = work / "never_oom_helper.imts"
    code = main(["denoise", "--model", str(trained),
                 "--in", str(phantom_dir / "phantom_000.imts"), "--out", str(out)])
    assert code == 6 and halves.started
    err = capsys.readouterr().err
    assert err.startswith("imt: out of memory") and "MemoryError" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()
    assert threading.active_count() == threads
    assert halves.blas_get() == blas

@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t.pop("stage1.cell0.local.attn.wq"),
        lambda t: t.update({"stage1.cell0.local.attn.bias": np.zeros(8, np.float32)}),
    ],
    ids=["missing tensor", "unexpected tensor"],
)
def test_denoise_checkpoint_inventory_mismatch_exits_4(phantom_dir, tmp_path, edit):
    params = init_params(SMALL_MODEL, 0)
    edit(params.tensors)
    ckpt = tmp_path / "inventory.ckpt"
    save_checkpoint(ckpt, params, SMALL_MODEL)
    out = tmp_path / "never.imts"
    assert main(["denoise", "--model", str(ckpt),
                 "--in", str(phantom_dir / "phantom_000.imts"), "--out", str(out)]) == 4
    assert not out.exists()


@pytest.mark.parametrize("bias", [None, lambda shape: np.full(shape, 0.5)],
                         ids=["zero key bias", "nonzero key bias"])
def test_denoise_key_bias_checkpoint(phantom_dir, trained, tmp_path, with_key_bias, bias):
    # checkpoints written before the key bias was dropped carry an `attn.bk`
    # per unit; softmax cancels it, so it is dropped on load and the file
    # denoises to the bytes the same weights give without it
    params, cfg, _ = load_checkpoint(trained)
    old = tmp_path / "with_bk.ckpt"
    save_checkpoint(old, with_key_bias(params, bias), cfg)
    src = str(phantom_dir / "phantom_003.imts")
    outs = [tmp_path / "new.imts", tmp_path / "old.imts"]
    for ckpt, out in zip((trained, old), outs):
        assert main(["denoise", "--model", str(ckpt), "--in", src, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_denoise_corrupt_checkpoint_exits_2(work, phantom_dir, tmp_path, corrupt_containers):
    bad = work / "corrupt.ckpt"
    bad.write_bytes(b"definitely not a checkpoint")
    cases = [("not a checkpoint", bad)]
    valid = tmp_path / "valid.ckpt"
    save_checkpoint(valid, init_params(SMALL_MODEL, 0), SMALL_MODEL)
    cases += corrupt_containers(
        valid, "stage1.cell0.global.attn.bq", "stage1.cell0.global.attn.bo", init_seed="x"
    )
    for label, path in cases:
        code = main(["denoise", "--model", str(path),
                     "--in", str(phantom_dir / "phantom_000.imts"),
                     "--out", str(work / "never2.imts")])
        assert code == 2, label
    assert not (work / "never2.imts").exists()


@pytest.mark.parametrize(
    "key, value, code",
    [
        ("init_seed", 2**70, 2),
        ("window", 2**70, 2),
        ("patch", 2**70, 2),
        ("mixer_expansion", 2**70, 2),
        ("channels", 1e300, 2),
        ("slice_depth", 1e300, 2),
        ("heads", True, 2),
        # in bounds, but the tensors it implies would be terabytes: the
        # shapes are checked without allocating them
        ("window", 2**20, 4),
    ],
)
def test_denoise_bad_manifest_value(work, phantom_dir, tmp_path, rewrite_manifest, capsys,
                                    key, value, code):
    valid = tmp_path / "valid.ckpt"
    save_checkpoint(valid, init_params(SMALL_MODEL, 0), SMALL_MODEL)

    def edit(manifest):
        (manifest if key == "init_seed" else manifest["config"])[key] = value

    bad = rewrite_manifest(valid, tmp_path / "bad.ckpt", edit)
    out = tmp_path / "never.imts"
    assert main(["denoise", "--model", str(bad), "--in", str(phantom_dir / "phantom_000.imts"),
                 "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith("imt: ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# eval


def test_eval_identical_stacks(work, phantom_dir, capsys):
    src = phantom_dir / "phantom_000.imts"
    out = work / "report.json"
    assert main(["eval", "--ref", str(src), "--test", str(src), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cases"][0]["psnr"] == "inf"
    assert doc["cases"][0]["ssim"] == 1.0
    assert doc["cases"][0]["nrmse"] == 0.0
    # round trips through the metrics loader
    report = metrics.load_report(out)
    assert report["cases"][0]["psnr"] == float("inf")


def test_eval_matches_library_calls(work, phantom_dir, noisy_file):
    ref = load_stack(phantom_dir / "phantom_000.imts")
    test = load_stack(noisy_file)
    out = work / "report2.json"
    assert main(["eval", "--ref", str(phantom_dir / "phantom_000.imts"),
                 "--test", str(noisy_file), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cases"][0]["psnr"] == metrics.psnr(test, ref)
    assert doc["cases"][0]["ssim"] == metrics.ssim(test, ref)
    assert doc["cases"][0]["nrmse"] == metrics.nrmse(test, ref)


def test_eval_shape_mismatch_exits_2(work, phantom_dir):
    small = work / "small.imts"
    save_stack(ComplexImageStack(np.ones((1, 8, 8), np.complex64)), small)
    code = main(["eval", "--ref", str(phantom_dir / "phantom_000.imts"),
                 "--test", str(small), "--json", str(work / "never3.json")])
    assert code == 2
    assert not (work / "never3.json").exists()


# ---------------------------------------------------------------------------
# report


def write_scores(path, offsets):
    rows = [",".join(RATER_COLUMNS)]
    base = {"case01": 4, "case02": 3, "case03": 5, "case04": 2}
    for case, score in base.items():
        for rater, off in (("r1", 0), ("r2", offsets.get(case, 0))):
            s = max(1, min(5, score + off))
            rows.append(f"{case},{rater},{s},{s},{s},{s}")
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture(scope="module")
def score_files(work):
    a = write_scores(work / "a.csv", {})
    b = write_scores(work / "b.csv", {"case02": 1, "case04": 1})
    return a, b


def test_report_identical_files(work, score_files, capsys):
    a, _ = score_files
    assert main(["report", "--scores", str(a), str(a)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cases"] == 4
    overall = doc["criteria"]["overall"]
    assert overall["t_test"]["t"] == 0.0
    assert overall["t_test"]["p"] == 1.0
    assert overall["icc"]["value"] == pytest.approx(1.0)
    assert overall["bland_altman"] == {"mean_diff": 0.0, "loa_low": 0.0, "loa_high": 0.0}


def test_report_matches_metric_oracles(work, score_files, capsys):
    a, b = score_files
    json_out = work / "stats.json"
    ba_out = work / "ba.csv"
    code = main(["report", "--scores", str(a), str(b), "--icc", "--ttest",
                 "--bland-altman", str(ba_out), "--json", str(json_out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert json.loads(json_out.read_text()) == doc
    # table mirrors the hand dataset [[4,4],[3,3.5],[5,5],[2,2.5]]
    va = np.array([4.0, 3.0, 5.0, 2.0])
    vb = np.array([4.0, 3.5, 5.0, 2.5])
    t = metrics.paired_t_test(va, vb)
    icc = metrics.icc_two_way_single(np.column_stack([va, vb]))
    overall = doc["criteria"]["overall"]
    assert overall["t_test"]["p"] == pytest.approx(t.p, rel=1e-12)
    assert overall["icc"]["value"] == pytest.approx(icc, rel=1e-12)
    lines = ba_out.read_text().strip().splitlines()
    assert lines[0] == "criterion,case_id,mean,diff"
    assert len(lines) == 1 + 4 * len(metrics.CRITERIA)


def test_report_flag_subsets(score_files, capsys):
    a, b = score_files
    assert main(["report", "--scores", str(a), str(b), "--ttest"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "t_test" in doc["criteria"]["overall"]
    assert "icc" not in doc["criteria"]["overall"]


def test_report_malformed_csv_exits_2(work, score_files, capsys):
    a, _ = score_files
    bad = work / "bad.csv"
    bad.write_text(",".join(RATER_COLUMNS) + "\ncase01,r1,9,1,1\n")
    assert main(["report", "--scores", str(a), str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_report_undecodable_csv_exits_2(work, score_files, capsys):
    a, _ = score_files
    bad = work / "bad_bytes.csv"
    header = ",".join(RATER_COLUMNS).encode()
    bad.write_bytes(header + b"\ncase01,r1,1,1,1,1\ncase02,\xff,1,1,1,1\n")
    assert main(["report", "--scores", str(a), str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_report_missing_column_exits_2(work, score_files, capsys):
    a, _ = score_files
    bad = work / "bad_header.csv"
    bad.write_text("case_id,rater_id,noise,sharpness,detail\ncase01,r1,1,1,1\n")
    assert main(["report", "--scores", str(a), str(bad)]) == 2
    assert "overall" in capsys.readouterr().err


def test_report_different_case_sets_exits_2(work, score_files):
    a, _ = score_files
    other = write_scores(work / "other.csv", {})
    text = other.read_text().replace("case04", "case99")
    other.write_text(text)
    assert main(["report", "--scores", str(a), str(other)]) == 2


# ---------------------------------------------------------------------------
# baseline


def test_baseline_internal(work, noisy_file, capsys):
    out = work / "base.imts"
    assert main(["baseline", "--in", str(noisy_file), "--out", str(out)]) == 0
    assert "sigma=" in capsys.readouterr().out
    assert load_stack(out).shape == (3, 24, 24)


def test_baseline_writes_serial_shrink(work, noisy_file):
    out = work / "base_serial.imts"
    expected = work / "base_expected.imts"
    assert main(["baseline", "--in", str(noisy_file), "--out", str(out)]) == 0
    stack = load_stack(noisy_file)
    save_stack(wavelet_shrink_denoise(stack, adjusted_sigma(stack).adjusted), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_baseline_sigma_zero_is_identity(work, phantom_dir):
    src = phantom_dir / "phantom_000.imts"
    out = work / "base_id.imts"
    assert main(["baseline", "--in", str(src), "--out", str(out), "--sigma", "0"]) == 0
    a = load_stack(src).data
    b = load_stack(out).data
    np.testing.assert_allclose(b, a, rtol=0, atol=1e-5)


def test_baseline_external_command(work, noisy_file, tmp_path):
    script = tmp_path / "copy.py"
    script.write_text("import shutil, sys\nshutil.copyfile(sys.argv[1], sys.argv[2])\n")
    out = work / "base_ext.imts"
    cmd = f"{sys.executable} {script}"
    assert main(["baseline", "--in", str(noisy_file), "--out", str(out),
                 "--sigma", "2", "--command", cmd]) == 0
    assert out.read_bytes() == noisy_file.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["--command", "'unterminated"],
        ["--timeout", "nan"],
        ["--timeout", "inf"],
        ["--timeout", "0"],
        ["--timeout", "-1"],
        ["--sigma", "inf"],
        ["--sigma", "-1"],
    ],
)
def test_baseline_bad_argument_exits_2(work, noisy_file, capsys, args):
    out = work / "never_arg.imts"
    no_op = f"{shlex.quote(sys.executable)} -c pass"
    code = main(["baseline", "--in", str(noisy_file), "--out", str(out),
                 "--command", no_op, *args])
    assert code == 2
    assert capsys.readouterr().err.startswith("imt: ")
    assert not out.exists()


def test_baseline_external_failure_exits_5(work, noisy_file, tmp_path, capsys):
    script = tmp_path / "fail.py"
    script.write_text("import sys\nsys.exit(9)\n")
    code = main(["baseline", "--in", str(noisy_file),
                 "--out", str(work / "never5.imts"),
                 "--command", f"{sys.executable} {script}"])
    assert code == 5
    assert not (work / "never5.imts").exists()
