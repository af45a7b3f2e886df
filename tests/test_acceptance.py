"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines
as they complete. The training-efficacy criterion retrains a small model from
scratch and dominates the runtime (a few minutes; everything else is seconds).
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from imt import autodiff as ad
from imt import baseline, metrics
from imt.cli import denoise_stack
from imt.imgstack import (
    ComplexImageStack,
    GFactorMap,
    average_repetitions,
    export_u16,
    load_stack,
    mean_signal_power,
    power_denormalize,
    power_normalize,
    save_stack,
)
from imt.kspace import fft2, ifft2
from imt.network import (
    ModelConfig,
    forward,
    forward_graph,
    global_attention,
    init_params,
    lift_params,
    load_checkpoint,
    save_checkpoint,
    slice_attention,
)
from imt.noisegen import (
    GmapModel,
    NoiseSpec,
    make_gmap,
    make_training_pair,
    relative_snr_db,
    synth_noise,
)
from imt.phantom import make_phantom
from imt.training import (
    FeatureExtractor,
    LossConfig,
    TrainConfig,
    _combined_graph,
    charbonnier_loss,
    combined_loss,
    perceptual_loss,
    train,
)


@contextmanager
def criterion(label, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n{label} FAIL: {description}")
        raise
    print(f"\n{label} PASS: {description} ({time.perf_counter() - start:.1f}s)")


def random_stack(rng, s, h, w, scale=30.0):
    data = (rng.normal(size=(s, h, w)) + 1j * rng.normal(size=(s, h, w))) * scale
    return ComplexImageStack(data.astype(np.complex64))


def test_ac01_power_normalization():
    with criterion("AC-1", "power normalization to 1600 and round trip"):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = int(rng.integers(1, 5))
            h = int(rng.integers(8, 25))
            w = int(rng.integers(8, 25))
            stack = random_stack(rng, s, h, w, scale=float(rng.uniform(0.5, 200.0)))
            normalized, state = power_normalize(stack)
            assert abs(mean_signal_power(normalized) - 1600.0) <= 1e-4 * 1600.0
            back = power_denormalize(normalized, state)
            tol = 1e-6 * float(np.max(np.abs(stack.data)))
            assert float(np.max(np.abs(back.data - stack.data))) <= tol


def test_ac02_snr_mapping():
    with criterion("AC-2", "sigma to relative SNR anchors 32.04/26.02/20.00/16.48 dB"):
        for sigma, want in ((1, 32.04), (2, 26.02), (4, 20.00), (6, 16.48)):
            assert abs(relative_snr_db(sigma) - want) <= 0.05


def test_ac03_noise_realism():
    with criterion("AC-3", "synthesized noise matches sigma and tracks the gmap"):
        sigma = 3.0
        uniform = GFactorMap(np.ones((64, 64), np.float32))
        noise = synth_noise(8, 64, 64, NoiseSpec(sigma=sigma, seed=11), uniform)
        comps = np.concatenate([noise.data.real.ravel(), noise.data.imag.ravel()])
        assert comps.size >= 32768
        assert abs(float(np.std(comps)) - sigma) <= 0.02 * sigma

        # radial ramp: annulus-pooled std tracks sigma * rms(g) within 5%
        gmap = make_gmap(GmapModel(kind="radial_ramp", alpha=1.0), 64, 64)
        noise = synth_noise(16, 64, 64, NoiseSpec(sigma=sigma, seed=12), gmap)
        yy, xx = np.meshgrid(np.arange(64) - 31.5, np.arange(64) - 31.5, indexing="ij")
        r = np.hypot(yy, xx)
        edges = np.quantile(r.ravel(), np.linspace(0.0, 1.0, 6))
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (r >= lo) & (r <= hi)
            vals = np.concatenate(
                [noise.data.real[:, mask].ravel(), noise.data.imag[:, mask].ravel()]
            )
            expected = sigma * float(np.sqrt(np.mean(gmap.values[mask] ** 2)))
            assert abs(float(np.std(vals)) / expected - 1.0) <= 0.05


def test_ac04_fft_suite():
    with criterion("AC-4", "FFT inverse, Parseval, linearity on 16x16 and 17x23"):
        rng = np.random.default_rng(4)
        for h, w in ((16, 16), (17, 23)):
            a = (rng.normal(size=(h, w)) + 1j * rng.normal(size=(h, w))).astype(np.complex64)
            b = (rng.normal(size=(h, w)) + 1j * rng.normal(size=(h, w))).astype(np.complex64)
            scale = float(np.max(np.abs(a)))
            assert float(np.max(np.abs(ifft2(fft2(a)) - a))) <= 1e-5 * scale
            ea = float(np.sum(np.abs(a) ** 2))
            ek = float(np.sum(np.abs(fft2(a)) ** 2))
            assert abs(ek - ea) <= 1e-4 * ea
            combo = fft2(2.0 * a + 3.0 * b)
            lin = combo - (2.0 * fft2(a) + 3.0 * fft2(b))
            assert float(np.max(np.abs(lin))) <= 1e-5 * max(float(np.max(np.abs(combo))), 1.0)


def test_ac05_gradient_check():
    with criterion("AC-5", "full-model combined-loss gradients vs central differences"):
        cfg = ModelConfig(channels=16, heads=2, window=4, slice_depth=2)
        params = init_params(cfg, 0)
        rng = np.random.Generator(np.random.Philox(key=[5, 0]))
        # move off the zero-head init so every gradient path is live
        point = {}
        for name in params.trainable_names():
            base = params.tensors[name].astype(np.float64)
            point[name] = base + rng.normal(0.0, 0.02, base.shape)
        fixed = {
            name: params.tensors[name].astype(np.float64)
            for name in params.tensors
            if name not in point
        }
        zdata = (
            (rng.normal(size=(1, 2, 16, 16)) + 1j * rng.normal(size=(1, 2, 16, 16))) * 40.0
        ).astype(np.complex128)
        noisy_target = zdata + rng.normal(size=zdata.shape) + 1j * rng.normal(size=zdata.shape)
        target2 = np.stack([noisy_target.real, noisy_target.imag], axis=-1)
        loss_cfg = LossConfig()
        fe = FeatureExtractor(seed=0)

        def f(vars_):
            pv = {k: ad.constant(v) for k, v in fixed.items()}
            pv.update(vars_)
            res = forward_graph(ad.constant(zdata), pv, cfg, train=True, stats={})
            return _combined_graph(res["pred2"], target2, loss_cfg, fe)

        err = ad.finite_difference_check(f, point, samples=200, rng=rng)
        assert err < 1e-4

        # negative control: a corrupted analytic gradient must be flagged
        others = {k: v for k, v in point.items() if k != "head.bias"}

        def g(vars_):
            pv = {k: ad.constant(v) for k, v in fixed.items()}
            pv.update({k: ad.constant(v) for k, v in others.items()})
            pv.update(vars_)
            res = forward_graph(ad.constant(zdata), pv, cfg, train=True, stats={})
            return _combined_graph(res["pred2"], target2, loss_cfg, fe)

        with ad.Tape():
            v = ad.leaf(point["head.bias"], name="head.bias")
            (grad,) = ad.backward(g({"head.bias": v}), [v])
        corrupted = np.asarray(grad.value) + 1.0
        bad = ad.finite_difference_check(
            g,
            {"head.bias": point["head.bias"]},
            samples=4,
            rng=np.random.Generator(np.random.Philox(key=[5, 1])),
            analytic={"head.bias": corrupted},
        )
        assert bad > 1e-2


def test_ac06_architecture_invariants():
    with criterion("AC-6", "attention normalization, permutation equivariance, identity, scaling"):
        cfg = ModelConfig(channels=8, heads=2, window=4, slice_depth=4)
        rng = np.random.default_rng(6)
        params = init_params(cfg, 3)
        for name in params.trainable_names():
            params.tensors[name] += rng.normal(0.0, 0.05, params.tensors[name].shape).astype(
                np.float32
            )

        # attention rows are probability distributions
        z = (rng.normal(size=(1, 4, 16, 16)) + 1j * rng.normal(size=(1, 4, 16, 16))) * 30.0
        probe = {}
        with ad.no_recording():
            forward_graph(
                ad.constant(z.astype(np.complex64)),
                lift_params(params),
                cfg,
                train=False,
                probe=probe,
            )
        assert probe
        for probs in probe.values():
            assert float(probs.min()) >= 0.0
            assert float(np.abs(probs.sum(axis=-1) - 1.0).max()) <= 1e-6

        # window permutation equivariance (swap the two window columns)
        attn = init_params(cfg, 5).subset("stage1.cell0.global.attn")
        grid = rng.normal(size=(2, 8, 8, 8)).astype(np.float32)
        base = global_attention(grid, attn, cfg).values
        swapped = np.concatenate([grid[..., 4:], grid[..., :4]], axis=-1)
        out_sw = global_attention(swapped, attn, cfg).values
        want = np.concatenate([base[..., 4:], base[..., :4]], axis=-1)
        assert float(np.max(np.abs(out_sw - want))) <= 1e-6

        # slice permutation equivariance
        sattn = init_params(cfg, 8).subset("stage1.cell0.slice.attn")
        sgrid = rng.normal(size=(4, 8, 4, 4)).astype(np.float32)
        perm = np.array([2, 0, 3, 1])
        sbase = slice_attention(sgrid, sattn, cfg).values
        sperm = slice_attention(sgrid[perm], sattn, cfg).values
        assert float(np.max(np.abs(sperm - sbase[perm]))) <= 1e-6

        # zero-head checkpoint is the exact identity
        fresh = init_params(cfg, 0)
        chunk = ComplexImageStack(
            ((rng.normal(size=(4, 16, 16)) + 1j * rng.normal(size=(4, 16, 16))) * 30.0).astype(
                np.complex64
            )
        )
        out = forward(chunk, fresh, cfg)
        np.testing.assert_array_equal(out.data, chunk.data)

        # pipeline scale equivariance through normalize/denoise/denormalize
        stack = make_phantom(6, 32, 32, seed=60)
        doubled = ComplexImageStack(stack.data * 2.0)
        a = denoise_stack(stack, params, cfg)
        b = denoise_stack(doubled, params, cfg)
        tol = 1e-5 * float(np.max(np.abs(b.data)))
        assert float(np.max(np.abs(b.data - 2.0 * a.data))) <= tol


@pytest.mark.slow
def test_ac07_training_efficacy(tmp_path):
    with criterion("AC-7", "trained model beats noisy by 2 dB and wavelet baseline by 0.5 dB"):
        gmodel = GmapModel(kind="radial_ramp", alpha=1.0)
        train_stacks = [make_phantom(8, 64, 64, seed=700, index=k) for k in range(32)]
        held_out = [make_phantom(8, 64, 64, seed=701, index=k) for k in range(8)]
        dataset = [(s, gmodel) for s in train_stacks]

        model_cfg = ModelConfig(channels=16, heads=2, window=8, slice_depth=4)
        train_cfg = TrainConfig(
            lr=0.01,
            weight_decay=0.01,
            rho=0.04,
            epochs=3,
            batch=2,
            steps_per_epoch=100,
            patch_sizes=(32,),
            val_samples=4,
            hessian_update_every=10,
            seed=1,
            sigma_range=(2.0, 6.0),
        )
        t0 = time.perf_counter()
        result = train(dataset, model_cfg, train_cfg, LossConfig(), out_dir=tmp_path)
        train_minutes = (time.perf_counter() - t0) / 60.0
        assert train_minutes <= 30.0
        params, cfg, _ = load_checkpoint(result.checkpoint_path)

        gmap = make_gmap(gmodel, 64, 64)
        psnr_noisy, psnr_base, psnr_ours = [], [], []
        for k, clean in enumerate(held_out):
            noisy, _ = make_training_pair(clean, NoiseSpec(sigma=4.0, seed=9000 + k), gmap)
            ours = denoise_stack(noisy, params, cfg)
            shrunk = baseline.denoise(noisy)
            psnr_noisy.append(metrics.psnr(noisy, clean))
            psnr_base.append(metrics.psnr(shrunk, clean))
            psnr_ours.append(metrics.psnr(ours, clean))
        mean_noisy = float(np.mean(psnr_noisy))
        mean_base = float(np.mean(psnr_base))
        mean_ours = float(np.mean(psnr_ours))
        print(
            f"\nAC-7 detail: noisy {mean_noisy:.2f} dB, baseline {mean_base:.2f} dB, "
            f"ours {mean_ours:.2f} dB (train {train_minutes:.1f} min)"
        )
        assert mean_ours >= mean_noisy + 2.0
        assert mean_ours >= mean_base + 0.5


def test_ac08_loss_anchors():
    with criterion("AC-8", "loss epsilon anchor, phase invariance, additivity"):
        rng = np.random.default_rng(8)
        fe = FeatureExtractor(seed=0)
        cfg = LossConfig()
        x = ComplexImageStack(
            ((rng.normal(size=(2, 16, 16)) + 1j * rng.normal(size=(2, 16, 16))) * 20.0).astype(
                np.complex64
            )
        )
        # identity loss equals epsilon to final float rounding (sqrt of the
        # rounded square of 1e-3 lands 2 ulp above 1e-3)
        assert abs(combined_loss(x, x, cfg, fe) - cfg.epsilon) <= 5e-19

        # the perceptual term cannot see a global phase rotation
        assert perceptual_loss(x.data * np.complex64(1j), x.data, fe) == 0.0
        rotated = (x.data.astype(np.complex128) * np.exp(0.7j)).astype(np.complex64)
        assert perceptual_loss(rotated, x.data, fe) < 1e-12

        y = ComplexImageStack((x.data + rng.normal(0, 2, x.shape)).astype(np.complex64))
        total = combined_loss(y, x, cfg, fe)
        parts = charbonnier_loss(y, x, cfg) + 0.1 * perceptual_loss(y, x, fe)
        assert abs(total - parts) <= 1e-9


def test_ac09_sigma_estimator():
    with criterion("AC-9", "wavelet sigma estimates within 10% and the 1.15 rule"):
        rng = np.random.default_rng(9)
        for sigma in (2.0, 5.0):
            est = baseline.wavelet_sigma_estimate(rng.normal(0.0, sigma, (128, 128)))
            assert abs(est - sigma) <= 0.10 * sigma
        stack = random_stack(rng, 5, 64, 64, scale=3.0)
        result = baseline.adjusted_sigma(stack)
        mags = metrics.magnitude_stack(stack)
        assert result.middle_index == 2
        assert result.adjusted == 1.15 * baseline.wavelet_sigma_estimate(mags[2])


def test_ac10_metrics_oracles():
    with criterion("AC-10", "PSNR/SSIM/NRMSE/t-test/ICC hand oracles"):
        ref = np.array([[[0.0, 4.0], [8.0, 12.0]]])
        assert abs(metrics.psnr(ref + 1.0, ref) - 22.279) <= 1e-3

        rng = np.random.default_rng(10)
        a = random_stack(rng, 2, 32, 32)
        assert metrics.ssim(a, a) == 1.0

        m = metrics.magnitude_stack(a) + 1.0
        assert abs(metrics.nrmse(1.1 * m, m) - 0.1) <= 1e-9

        t = metrics.paired_t_test([2.0, 4.0, 5.0, 7.0], [1.0, 2.0, 2.0, 3.0])
        assert abs(t.p - 0.0305) <= 1e-3

        ident = np.array([[4.0, 4.0], [3.0, 3.0], [5.0, 5.0], [2.0, 2.0]])
        assert metrics.icc_two_way_single(ident) == pytest.approx(1.0, abs=1e-12)

        # independent two-way ANOVA oracle
        table = np.array([[4.0, 4.0], [3.0, 3.5], [5.0, 4.0], [2.0, 2.5]])
        n, k = table.shape
        grand = table.mean()
        msr = k * np.sum((table.mean(axis=1) - grand) ** 2) / (n - 1)
        msc = n * np.sum((table.mean(axis=0) - grand) ** 2) / (k - 1)
        sse = np.sum(
            (table - table.mean(axis=1, keepdims=True) - table.mean(axis=0) + grand) ** 2
        )
        mse = sse / ((n - 1) * (k - 1))
        want = (msr - mse) / (msr + (k - 1) * mse + k * (msc - mse) / n)
        assert abs(metrics.icc_two_way_single(table) - want) <= 1e-9


def test_ac11_repetition_averaging():
    with criterion("AC-11", "averaging 4 repetitions halves the residual noise"):
        clean = make_phantom(4, 64, 64, seed=110)
        gmap = GFactorMap(np.ones((64, 64), np.float32))
        reps = [
            make_training_pair(clean, NoiseSpec(sigma=4.0, seed=1100 + r), gmap)[0]
            for r in range(4)
        ]
        avg = average_repetitions(reps)
        single_std = float(
            np.std(
                np.concatenate(
                    [(r.data - clean.data).view(np.float32).ravel() for r in reps]
                )
            )
        )
        avg_std = float(np.std((avg.data - clean.data).view(np.float32).ravel()))
        assert abs(avg_std - single_std / 2.0) <= 0.05 * (single_std / 2.0)


def test_ac12_round_trips(tmp_path):
    with criterion("AC-12", "IMTS and checkpoint round trips, 16-bit export endpoints"):
        rng = np.random.default_rng(12)
        stack = random_stack(rng, 3, 20, 28)
        path = tmp_path / "stack.imts"
        save_stack(stack, path)
        back = load_stack(path)
        assert np.array_equal(back.data, stack.data)
        save_stack(back, tmp_path / "stack2.imts")
        assert (tmp_path / "stack2.imts").read_bytes() == path.read_bytes()

        cfg = ModelConfig(channels=8, heads=2, window=4, slice_depth=2)
        params = init_params(cfg, 4)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, params, cfg)
        loaded, cfg2, _ = load_checkpoint(ckpt)
        assert cfg2 == cfg
        assert loaded == params
        save_checkpoint(tmp_path / "model2.ckpt", loaded, cfg2)
        assert (tmp_path / "model2.ckpt").read_bytes() == ckpt.read_bytes()

        zeroed = stack.data.copy()
        zeroed[0, 0, 0] = 0.0
        u16 = export_u16(ComplexImageStack(zeroed))
        assert u16.dtype == np.uint16
        assert int(u16.max()) == 8192
        assert int(u16.min()) == 0