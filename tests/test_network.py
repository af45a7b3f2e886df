import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from imt import autodiff as ad
from imt import network
from imt.errors import (
    FormatError,
    InvalidInputError,
    NumericalFailureError,
    TruncationError,
)
from imt.imgstack import ComplexImageStack, power_denormalize, power_normalize
from imt.network import (
    FeatureGrid,
    ModelConfig,
    ParameterSet,
    attention_cell,
    cell_output_bound,
    _GLOBAL,
    _LOCAL,
    _blocks,
    _unblocks,
    embed,
    forward,
    forward_graph,
    global_attention,
    init_params,
    lift_params,
    load_checkpoint,
    local_attention,
    save_checkpoint,
    slice_attention,
)


def tiny_cfg(**over):
    base = dict(channels=8, heads=2, window=4, patch=1, slice_depth=4)
    base.update(over)
    return ModelConfig(**base)


def complex_chunk(rng, t, h, w, scale=30.0):
    return (
        (rng.normal(size=(t, h, w)) + 1j * rng.normal(size=(t, h, w))) * scale
    ).astype(np.complex64)


def perturbed(cfg, rng, dtype=np.float32):
    params = init_params(cfg, 2)
    for name in params.trainable_names():
        t = params.tensors[name]
        t += rng.normal(0.0, 0.05, t.shape).astype(np.float32)
    return params.astype(dtype)


def identity_attn(c):
    eye = np.eye(c, dtype=np.float32)
    zero = np.zeros(c, dtype=np.float32)
    return {
        "wq": eye, "bq": zero, "wk": eye,
        "wv": eye, "bv": zero, "wo": eye, "bo": zero,
    }


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert (cfg.channels, cfg.heads, cfg.window, cfg.patch) == (32, 4, 8, 1)
        assert cfg.cells_per_block == 2
        assert cfg.slice_depth == 8

    def test_divisibility(self):
        with pytest.raises(InvalidInputError):
            ModelConfig(channels=10, heads=4)

    def test_cells_per_block_domain(self):
        with pytest.raises(InvalidInputError):
            ModelConfig(cells_per_block=4)
        ModelConfig(cells_per_block=3)


class TestParameterSet:
    def test_shapes_derive_from_config(self):
        cfg = tiny_cfg()
        p = init_params(cfg, 0)
        assert p.tensors["embed.weight"].shape == (2, cfg.channels)
        assert p.tensors["embed.pos_bias"].shape == (4, 4, cfg.channels)
        assert p.tensors["embed.slice_bias"].shape == (4, cfg.channels)
        assert p.tensors["stage1.cell0.local.attn.wq"].shape == (8, 8)
        assert p.tensors["stage1.cell0.local.mixer.w1"].shape == (8, 16)
        assert p.tensors["head.weight"].shape == (8, 2)

    def test_deterministic_init(self):
        a = init_params(tiny_cfg(), 5)
        b = init_params(tiny_cfg(), 5)
        assert a == b
        c = init_params(tiny_cfg(), 6)
        assert a != c

    def test_head_starts_at_zero(self):
        p = init_params(tiny_cfg(), 0)
        assert (p.tensors["head.weight"] == 0).all()
        assert (p.tensors["head.bias"] == 0).all()

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            ParameterSet({"w": np.array([np.inf])}, 0)

    def test_running_stats_not_trainable(self):
        p = init_params(tiny_cfg(), 0)
        assert not any(
            n.endswith((".running_mean", ".running_var")) for n in p.trainable_names()
        )
        assert len(p.trainable_names()) < len(p.names())

    def test_subset(self):
        p = init_params(tiny_cfg(), 0)
        sub = p.subset("stage1.cell0.slice.attn")
        assert set(sub) == {"wq", "bq", "wk", "wv", "bv", "wo", "bo"}
        with pytest.raises(InvalidInputError):
            p.subset("stage9")


class TestEmbed:
    def test_chunk_deeper_than_slice_depth_rejected(self, rng):
        cfg = tiny_cfg(slice_depth=2)
        with pytest.raises(InvalidInputError, match="slice_depth"):
            embed(complex_chunk(rng, 3, 8, 8), init_params(cfg, 0), cfg)

    def test_shape_contract(self, rng):
        cfg = tiny_cfg()
        p = init_params(cfg, 0)
        grid = embed(complex_chunk(rng, 3, 16, 16), p, cfg)
        assert grid.shape == (3, 8, 16, 16)

    def test_patch_reduces_resolution(self, rng):
        cfg = tiny_cfg(patch=2, window=2)
        p = init_params(cfg, 0)
        grid = embed(complex_chunk(rng, 2, 16, 16), p, cfg)
        assert grid.shape == (2, 8, 8, 8)

    def test_zero_input_gives_bias_field(self):
        cfg = tiny_cfg()
        p = init_params(cfg, 1)
        zero = np.zeros((2, 8, 8), dtype=np.complex64)
        grid = embed(zero, p, cfg).values
        # channel content depends only on the bias tables, not on position
        # beyond the positional tables themselves
        expected = (
            p.tensors["embed.bias"][None, :, None, None]
            + np.transpose(p.tensors["embed.pos_bias"], (2, 0, 1))[None]
            .repeat(2, axis=2)[:, :, :8, :8]
            * 0
        )
        # direct check: zero input -> projection contributes nothing
        proj = np.zeros((2, cfg.channels, 8, 8), dtype=np.float32)
        pos = np.transpose(np.tile(p.tensors["embed.pos_bias"], (2, 2, 1)), (2, 0, 1))
        sl = p.tensors["embed.slice_bias"][:2][:, :, None, None]
        manual = proj + p.tensors["embed.bias"][None, :, None, None] + pos[None] + sl
        assert np.allclose(grid, manual, atol=1e-6)

    def test_affine_map_oracle(self, rng):
        cfg = tiny_cfg()
        p = init_params(cfg, 2)
        x = complex_chunk(rng, 2, 16, 16, scale=3.0)
        c = 2.5
        e_x = embed(x, p, cfg).values
        e_cx = embed((c * x).astype(np.complex64), p, cfg).values
        e_0 = embed(np.zeros_like(x), p, cfg).values
        assert np.allclose(e_cx - e_0, c * (e_x - e_0), rtol=1e-5, atol=1e-4)

    def test_overflow_guard(self):
        cfg = tiny_cfg()
        p = init_params(cfg, 0)
        huge = np.zeros((1, 4, 4), dtype=np.complex64)  # fine
        embed(huge, p, cfg)
        with pytest.raises(InvalidInputError):
            # fabricated giant logical size trips the guard before allocation
            class FakeChunk:
                pass

            fake = np.lib.stride_tricks.as_strided(
                np.zeros(1, dtype=np.complex64), shape=(1, 2**16, 2**16), strides=(0, 0, 0)
            )
            embed(fake, p, cfg)


class TestLocalAttention:
    def test_singleton_window_probs(self, rng):
        cfg = tiny_cfg(window=1)
        grid = rng.normal(size=(1, 8, 2, 2)).astype(np.float32)
        out, probs = local_attention(grid, identity_attn(8), cfg, return_probs=True)
        assert probs.shape[-2:] == (1, 1)
        assert np.allclose(probs, 1.0)
        # singleton softmax passes values straight through identity projections
        assert np.allclose(out.values, grid, atol=1e-6)

    def test_identical_tokens_identical_outputs(self, rng):
        cfg = tiny_cfg()
        one = rng.normal(size=(1, 8, 1, 1)).astype(np.float32)
        grid = np.tile(one, (2, 1, 4, 4))
        p = init_params(cfg, 3).subset("stage1.cell0.local.attn")
        out = local_attention(grid, p, cfg).values
        assert np.allclose(out, out[:, :, :1, :1], atol=1e-5)

    def test_windows_independent(self, rng):
        cfg = tiny_cfg(window=4)
        grid = rng.normal(size=(1, 8, 8, 8)).astype(np.float32)
        p = init_params(cfg, 3).subset("stage1.cell0.local.attn")
        base = local_attention(grid, p, cfg).values
        poked = grid.copy()
        poked[:, :, :4, :4] += 1.0  # window (0,0) only
        after = local_attention(poked, p, cfg).values
        assert np.allclose(after[:, :, 4:, 4:], base[:, :, 4:, 4:], atol=1e-6)
        assert not np.allclose(after[:, :, :4, :4], base[:, :, :4, :4], atol=1e-3)

    def test_probability_rows_sum_to_one(self, rng):
        cfg = tiny_cfg()
        grid = (rng.normal(size=(2, 8, 8, 8)) * 5).astype(np.float32)
        p = init_params(cfg, 4).subset("stage1.cell0.local.attn")
        _, probs = local_attention(grid, p, cfg, return_probs=True)
        assert np.abs(probs.sum(axis=-1) - 1.0).max() < 1e-6

    def test_alignment_required(self, rng):
        cfg = tiny_cfg(window=4)
        grid = rng.normal(size=(1, 8, 6, 8)).astype(np.float32)
        with pytest.raises(InvalidInputError):
            local_attention(grid, identity_attn(8), cfg)


class TestBlockedGrid:
    def test_orders_match_index_oracle_and_round_trip(self, rng):
        w, nh, nw = 4, 2, 3
        x = rng.normal(size=(2, 3, nh * w, nw * w, 5)).astype(np.float32)
        # local: (B,T,H/w,W/w,w,w,C); global: (B,T,w,w,H/w,W/w,C)
        i, j, u, v = np.meshgrid(
            np.arange(nh), np.arange(nw), np.arange(w), np.arange(w), indexing="ij"
        )
        local = x[:, :, i * w + u, j * w + v, :]
        u, v, i, j = np.meshgrid(
            np.arange(w), np.arange(w), np.arange(nh), np.arange(nw), indexing="ij"
        )
        glob = x[:, :, i * w + u, j * w + v, :]
        for order, oracle in ((_LOCAL, local), (_GLOBAL, glob)):
            g = _blocks(ad.constant(x), w, order)
            assert g.value.shape == oracle.shape
            assert np.array_equal(g.value, oracle)
            back = _unblocks(g, order).value
            assert back.shape == x.shape
            assert np.array_equal(back, x)

    def test_tape_record_count_pinned(self, rng):
        # a change to the graph must update this count on purpose. 2502 -> 2358:
        # the norms take their (C,) vectors without a reshape, and the softmax,
        # magnitude and norm VJPs let the binary primitives broadcast instead
        # of taping broadcast copies. 2358 -> 2322: attention_probs replaces
        # the score matmul, scale mul and softmax records of each of the 18
        # attention units (-2 per unit); its VJP tapes the ops they did.
        # 2322 -> 2250: the key bias goes, and attention_probs takes k itself
        # (-4 per unit: the bias add, its cotangent's reduce_sum and, net, two
        # transposes of the keys and their cotangents). 2250 -> 2231: a primitive
        # whose inputs are all constants is untaped, so the input chain (the
        # complex split and patchify) and the cotangents of constants go.
        # 2231 -> 2138: linear replaces the matmul and add records of each of
        # the 93 biased projections (-1 each, all in the forward); its VJP
        # tapes the ops they did, so the second-order records stay the same
        cfg = tiny_cfg()
        params = init_params(cfg, 0)
        z = complex_chunk(rng, 2, 6, 10, scale=1.0)[None]  # padded, then cropped
        with ad.Tape() as tape:
            pv = lift_params(params, trainable=True)
            out = forward_graph(ad.constant(z), pv, cfg, train=True)
            loss = ad.reduce_sum(ad.square(out["pred2"]))
            ad.backward(loss, [pv[n] for n in params.trainable_names()], create_graph=True)
            assert len(tape.records) == 2138

    def test_no_bias_add_takes_a_matmul_product(self, rng):
        # every biased projection is one linear record: no add of the forward
        # tape takes a matmul's output (93 did when each was add(matmul))
        cfg = tiny_cfg()
        params = init_params(cfg, 0)
        z = complex_chunk(rng, 2, 6, 10, scale=1.0)[None]
        with ad.Tape() as tape:
            forward_graph(ad.constant(z), lift_params(params, trainable=True), cfg, train=True)
        products = {r.out.nid for r in tape.records if r.name == "matmul"}
        assert not [
            r for r in tape.records if r.name == "add" and products & {v.nid for v in r.inputs}
        ]
        assert [r.name for r in tape.records].count("linear") == 93


class TestGlobalAttention:
    def test_single_window_degenerates(self, rng):
        cfg = tiny_cfg(window=4)
        grid = rng.normal(size=(1, 8, 4, 4)).astype(np.float32)
        out, probs = global_attention(grid, identity_attn(8), cfg, return_probs=True)
        assert probs.shape[-2:] == (1, 1)
        assert np.allclose(probs, 1.0)
        assert np.allclose(out.values, grid, atol=1e-6)

    def test_two_window_hand_oracle(self, rng):
        # groups of exactly 2 tokens; identity projections, single head
        cfg = ModelConfig(channels=4, heads=1, window=2, patch=1, slice_depth=2)
        grid = rng.normal(size=(1, 4, 2, 4)).astype(np.float32)  # 1x2 windows
        out = global_attention(grid, identity_attn(4), cfg).values
        glv = np.transpose(grid[0], (1, 2, 0))  # (2, 4, C)
        for wy in range(2):
            for wx in range(2):
                x1 = glv[wy, wx]  # window 0 token at this intra-window pos
                x2 = glv[wy, 2 + wx]  # window 1 token
                s = np.array(
                    [[x1 @ x1, x1 @ x2], [x2 @ x1, x2 @ x2]], dtype=np.float64
                ) / 2.0
                e = np.exp(s - s.max(axis=1, keepdims=True))
                prob = e / e.sum(axis=1, keepdims=True)
                o1 = prob[0, 0] * x1 + prob[0, 1] * x2
                o2 = prob[1, 0] * x1 + prob[1, 1] * x2
                assert np.allclose(out[0, :, wy, wx], o1, atol=1e-6)
                assert np.allclose(out[0, :, wy, 2 + wx], o2, atol=1e-6)

    def test_window_permutation_equivariance(self, rng):
        cfg = tiny_cfg(window=4)
        grid = rng.normal(size=(2, 8, 8, 8)).astype(np.float32)
        p = init_params(cfg, 5).subset("stage1.cell0.global.attn")
        base = global_attention(grid, p, cfg).values
        # swap the two window columns (windows (y,0) <-> (y,1))
        swapped = np.concatenate([grid[..., 4:], grid[..., :4]], axis=-1)
        out_sw = global_attention(swapped, p, cfg).values
        assert np.allclose(
            out_sw, np.concatenate([base[..., 4:], base[..., :4]], axis=-1), atol=1e-5
        )

    def test_identical_windows_identical_outputs(self, rng):
        cfg = tiny_cfg(window=4)
        tile = rng.normal(size=(1, 8, 4, 4)).astype(np.float32)
        grid = np.tile(tile, (1, 1, 2, 2))
        p = init_params(cfg, 6).subset("stage1.cell0.global.attn")
        out = global_attention(grid, p, cfg).values
        assert np.allclose(out[:, :, :4, :4], out[:, :, 4:, :4], atol=1e-5)
        assert np.allclose(out[:, :, :4, :4], out[:, :, :4, 4:], atol=1e-5)


class TestSliceAttention:
    def test_single_slice_identity_projections(self, rng):
        cfg = ModelConfig(channels=4, heads=1, window=2, patch=1, slice_depth=2)
        grid = rng.normal(size=(1, 4, 4, 4)).astype(np.float32)
        out, probs = slice_attention(grid, identity_attn(4), cfg, return_probs=True)
        assert probs.shape[-2:] == (1, 1)
        assert np.allclose(out.values, grid, atol=1e-6)

    def test_two_slice_hand_oracle(self, rng):
        cfg = ModelConfig(channels=4, heads=1, window=2, patch=1, slice_depth=2)
        grid = rng.normal(size=(2, 4, 2, 2)).astype(np.float32)
        out = slice_attention(grid, identity_attn(4), cfg).values
        for y in range(2):
            for x in range(2):
                x1 = grid[0, :, y, x].astype(np.float64)
                x2 = grid[1, :, y, x].astype(np.float64)
                s = np.array([[x1 @ x1, x1 @ x2], [x2 @ x1, x2 @ x2]]) / 2.0
                e = np.exp(s - s.max(axis=1, keepdims=True))
                prob = e / e.sum(axis=1, keepdims=True)
                assert np.allclose(
                    out[0, :, y, x], prob[0, 0] * x1 + prob[0, 1] * x2, atol=1e-6
                )
                assert np.allclose(
                    out[1, :, y, x], prob[1, 0] * x1 + prob[1, 1] * x2, atol=1e-6
                )

    def test_equal_slices_equal_outputs(self, rng):
        cfg = tiny_cfg()
        one = rng.normal(size=(1, 8, 4, 4)).astype(np.float32)
        grid = np.tile(one, (4, 1, 1, 1))
        p = init_params(cfg, 7).subset("stage1.cell0.slice.attn")
        out = slice_attention(grid, p, cfg).values
        assert np.allclose(out[0], out[1], atol=1e-5)
        assert np.allclose(out[0], out[3], atol=1e-5)

    def test_slice_permutation_equivariance(self, rng):
        cfg = tiny_cfg()
        grid = rng.normal(size=(4, 8, 4, 4)).astype(np.float32)
        p = init_params(cfg, 8).subset("stage1.cell0.slice.attn")
        perm = np.array([2, 0, 3, 1])
        base = slice_attention(grid, p, cfg).values
        out_p = slice_attention(grid[perm], p, cfg).values
        assert np.allclose(out_p, base[perm], atol=1e-5)


class TestAttentionCell:
    def test_zero_weights_identity(self, rng):
        cfg = tiny_cfg()
        p = init_params(cfg, 0)
        sub = p.subset("stage1.cell0")
        for k in sub:
            if not k.endswith(("running_var", "gamma")):
                sub[k] = np.zeros_like(sub[k])
        grid = rng.normal(size=(2, 8, 8, 8)).astype(np.float32)
        out = attention_cell(grid, sub, cfg).values
        assert np.array_equal(out, grid)

    @pytest.mark.parametrize(
        "shape, mode, match",
        [
            ((2, 6, 8, 8), "eval", "channels"),
            ((2, 8, 6, 8), "eval", "window multiples"),
            ((2, 8, 8, 8), "bogus", "mode"),
        ],
    )
    def test_bad_input_rejected(self, rng, shape, mode, match):
        # as forward and the unit operations reject it
        cfg = tiny_cfg()
        p = init_params(cfg, 1).subset("stage1.cell0")
        grid = rng.normal(size=shape).astype(np.float32)
        with pytest.raises(InvalidInputError, match=match):
            attention_cell(grid, p, cfg, mode=mode)

    def test_output_shape(self, rng):
        cfg = tiny_cfg()
        p = init_params(cfg, 1).subset("stage1.cell1")
        grid = rng.normal(size=(3, 8, 8, 12)).astype(np.float32)
        assert attention_cell(grid, p, cfg).shape == (3, 8, 8, 12)

    def test_empirical_output_bound(self, rng):
        cfg = tiny_cfg()
        p = init_params(cfg, 9).subset("stage1.cell0")
        bound = cell_output_bound(p, cfg, input_bound=1.0)
        worst = 0.0
        for _ in range(100):
            grid = rng.uniform(-1, 1, size=(2, 8, 4, 4)).astype(np.float32)
            out = attention_cell(grid, p, cfg).values
            assert np.all(np.isfinite(out))
            worst = max(worst, float(np.abs(out).max()))
        assert worst <= bound


class TestForward:
    # 8x8 halves to a 4-wide low branch that pads 4 more; 4x4 and 3x30 pad
    # past the image on embedding
    @pytest.mark.parametrize(
        "shape", [(2, 16, 16), (4, 32, 48), (1, 8, 8), (2, 5, 20), (1, 4, 4), (1, 3, 30)]
    )
    def test_output_shape_default_config(self, rng, shape):
        cfg = ModelConfig()
        p = init_params(cfg, 0)
        z = complex_chunk(rng, *shape)
        out = forward(z, p, cfg)
        assert out.shape == shape

    def test_eval_deterministic_bitwise(self, rng):
        cfg = tiny_cfg()
        p = init_params(cfg, 1)
        p.tensors["head.weight"][:] = 0.01 * rng.normal(size=(8, 2)).astype(np.float32)
        z = complex_chunk(rng, 2, 16, 16)
        a = forward(z, p, cfg)
        b = forward(z, p, cfg)
        assert np.array_equal(a.data, b.data)

    def test_fresh_net_is_identity(self, rng):
        cfg = tiny_cfg()
        p = init_params(cfg, 123)
        z = complex_chunk(rng, 3, 16, 16)
        out = forward(z, p, cfg)
        assert np.array_equal(out.data, z)

    def test_identity_through_padding(self, rng):
        cfg = tiny_cfg()
        p = init_params(cfg, 3)
        z = complex_chunk(rng, 2, 10, 14)
        out = forward(z, p, cfg)
        assert out.shape == (2, 10, 14)
        assert np.array_equal(out.data, z)

    def test_scale_equivariance_of_pipeline(self, rng):
        cfg = tiny_cfg()
        p = init_params(cfg, 4)
        p.tensors["head.weight"][:] = 0.05 * rng.normal(size=(8, 2)).astype(np.float32)
        # warm the running statistics so eval-mode normalization reflects the
        # normalized activation scale (as it does after any real training)
        warm, _ = power_normalize(ComplexImageStack(complex_chunk(rng, 4, 16, 16)))
        for _ in range(20):
            forward(warm, p, cfg, mode="train")

        def pipeline(stack):
            normed, state = power_normalize(stack)
            den = forward(normed, p, cfg)
            return power_denormalize(den, state)

        z = complex_chunk(rng, 2, 16, 16, scale=5.0)
        base = pipeline(ComplexImageStack(z)).data
        for c in (7.0, 0.01, 1000.0):
            scaled = pipeline(ComplexImageStack((c * z).astype(np.complex64))).data
            err = np.abs(scaled - c * base).max() / np.abs(c * base).max()
            assert err < 1e-5

    def test_train_mode_updates_running_stats(self, rng):
        cfg = tiny_cfg()
        p = init_params(cfg, 5)
        name = "stage1.cell0.slice.bn.running_mean"
        before = p.tensors[name].copy()
        forward(complex_chunk(rng, 2, 16, 16), p, cfg, mode="train")
        after = p.tensors[name]
        assert not np.array_equal(before, after)
        # eval mode never touches the buffers
        snap = after.copy()
        forward(complex_chunk(rng, 2, 16, 16), p, cfg, mode="eval")
        assert np.array_equal(p.tensors[name], snap)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_untaped_under_an_active_tape(self, rng, mode):
        # its inputs and parameters are constants, so nothing reaches the tape
        cfg = tiny_cfg()
        p = init_params(cfg, 0)
        with ad.Tape() as tape:
            forward(complex_chunk(rng, 2, 16, 16), p, cfg, mode=mode)
        assert tape.records == []

    @pytest.mark.parametrize("train", [False, True])
    def test_probe_observes_without_changing_outputs(self, rng, train):
        # a probe records P beside the same ad.attention call, so the outputs
        # keep their bits and a taped run keeps its records
        cfg = tiny_cfg()
        params = init_params(cfg, 2)
        for name in params.trainable_names():
            t = params.tensors[name]
            t += rng.normal(0.0, 0.05, t.shape).astype(np.float32)
        z = ad.constant(complex_chunk(rng, 2, 6, 10, scale=1.0)[None])  # padded, then cropped
        probe, runs = {}, []
        for sink in (None, probe):
            with ad.Tape() as tape:
                pv = lift_params(params, trainable=train)
                res = forward_graph(z, pv, cfg, train=train, stats={}, probe=sink)
            runs.append((res, len(tape.records)))
        (plain, n_plain), (probed, n_probed) = runs
        for key in ("output", "pred2"):
            assert np.array_equal(probed[key].value, plain[key].value)
        assert n_probed == n_plain and (n_plain > 0) == train
        units = {
            f"{block}.cell{i}.{unit}"
            for block in ("stage1", "stage2.high", "stage2.low")
            for i in range(cfg.cells_per_block)
            for unit in ("slice", "local", "global")
        }
        assert set(probe) == units and len(units) == 18
        for p in probe.values():
            assert p.dtype == np.float32 and p.shape[-1] == p.shape[-2]
            assert p.min() >= 0.0 and np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-6

    def test_untaped_peak_holds_no_whole_probabilities(self, rng):
        # window 4 at 64x64 gives global attention 256 tokens, so one whole
        # probability array is (1,4,4,4,2,256,256) float32, 32 MiB; holding
        # one tile at a time the forward peaks near 7 MiB
        cfg = tiny_cfg()
        p = init_params(cfg, 0)
        z = complex_chunk(rng, 4, 64, 64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            forward(z, p, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize(
        "cfg, shape",
        [(tiny_cfg(), (2, 16, 16)), (ModelConfig(), (2, 32, 32))],
        ids=["tiny", "default"],
    )
    def test_untaped_error_tracks_the_taped_forward(self, rng, cfg, shape):
        """The untaped attention moves the last bits: over 12 forwards, the
        float32 output's RMS error against a float64 forward of the same
        weights and input, untaped over taped, has a median of at most 1.25
        and a max of at most 1.6. Measured here: median 1.09 (max 1.24) at the
        tiny config, 1.07 (1.37) at ModelConfig(); 0.98-1.05 (1.08-1.37) on
        four other seeds."""
        ratios = []
        for _ in range(12):
            params = perturbed(cfg, rng)
            z = complex_chunk(rng, *shape, scale=1.0)
            ref = forward_graph(
                ad.constant(z.astype(np.complex128)[None]),
                lift_params(params.astype(np.float64)),
                cfg,
                False,
            )["output"].value
            errs = []
            for trainable in (False, True):  # leaves take the taped branch
                pv = lift_params(params, trainable)
                out = forward_graph(ad.constant(z[None]), pv, cfg, False)["output"].value
                errs.append(np.sqrt(np.mean(np.abs(out - ref) ** 2)))
            ratios.append(errs[0] / errs[1])
        assert np.median(ratios) <= 1.25 and max(ratios) <= 1.6

    def test_chunk_deeper_than_slice_depth_rejected(self, rng):
        cfg = tiny_cfg(slice_depth=2)
        p = init_params(cfg, 0)
        with pytest.raises(InvalidInputError):
            forward(complex_chunk(rng, 3, 16, 16), p, cfg)

    def test_nonfinite_activation_names_layer(self, rng):
        cfg = tiny_cfg()
        p = init_params(cfg, 6)
        p.tensors["stage1.cell0.local.mixer.w2"][:] = 1e38
        p.tensors["stage1.cell0.local.mixer.b1"][:] = 30.0
        with pytest.raises(NumericalFailureError) as exc:
            forward(complex_chunk(rng, 2, 16, 16), p, cfg)
        assert "stage1.cell0" in str(exc.value)

    def test_bad_mode_rejected(self, rng):
        cfg = tiny_cfg()
        with pytest.raises(InvalidInputError):
            forward(complex_chunk(rng, 2, 16, 16), init_params(cfg, 0), cfg, mode="test")


class TestHalves:
    """An untaped cell branch runs as two halves on two threads, same bits."""

    @staticmethod
    def serial(monkeypatch, run):
        """``run()`` with no BLAS thread setter, so every branch runs whole."""
        with monkeypatch.context() as m:
            m.setattr(network, "_blas_threads", lambda: None)
            return run()

    @pytest.mark.parametrize(
        "shape, window, dtype",
        [
            ((1, 8, 8), 4, np.float32),  # T = 1: only slice attention splits
            ((3, 13, 21), 8, np.float32),  # odd H, W; the 8x12 low branch pads to 8x16
            ((8, 8, 12), 4, np.float32),  # the 4x6 low branch pads to 4x8
            ((3, 13, 21), 8, np.float64),
        ],
    )
    def test_forward_equals_serial_bitwise(self, rng, halves, monkeypatch, shape, window, dtype):
        cfg = tiny_cfg(window=window, slice_depth=8)
        params = perturbed(cfg, rng, dtype)
        z = complex_chunk(rng, *shape, scale=1.0).astype(np.result_type(dtype, 1j))

        def run():
            return forward_graph(ad.constant(z[None]), lift_params(params), cfg, False)

        serial = self.serial(monkeypatch, run)
        assert not halves.started
        split = run()
        assert halves.started
        for key in ("output", "pred2"):
            assert split[key].value.dtype == serial[key].value.dtype
            assert np.array_equal(split[key].value, serial[key].value)
        out = forward(z, params, cfg).data
        assert np.array_equal(out, serial["output"].value[0].astype(np.complex64))

    @pytest.mark.parametrize("shape", [(3, 8, 8, 12), (1, 8, 4, 4)])
    def test_attention_cell_equals_serial_bitwise(self, rng, halves, monkeypatch, shape):
        cfg = tiny_cfg()
        sub = perturbed(cfg, rng).subset("stage1.cell1")
        grid = rng.normal(size=shape).astype(np.float32)
        serial = self.serial(monkeypatch, lambda: attention_cell(grid, sub, cfg, mode="eval"))
        assert not halves.started
        out = attention_cell(grid, sub, cfg, mode="eval").values
        assert halves.started
        assert np.array_equal(out, serial.values)

    def test_no_thread_outlives_a_forward(self, rng, halves, monkeypatch):
        cfg = tiny_cfg()
        params = perturbed(cfg, rng)
        z = complex_chunk(rng, 3, 16, 16)
        threads = threading.active_count()
        blas = halves.blas_get()

        def settled():
            return threading.active_count() == threads and halves.blas_get() == blas

        forward(z, params, cfg)
        assert halves.started and settled()
        mixer = network._mixer

        def helper_out_of_memory(x, p):
            if threading.current_thread() in halves.started:
                raise MemoryError("helper half")
            return mixer(x, p)

        monkeypatch.setattr(network, "_mixer", helper_out_of_memory)
        with pytest.raises(MemoryError, match="helper half"):
            forward(z, params, cfg)
        assert settled()

    def test_concurrent_forwards_restore_the_blas_count(self, rng, halves):
        # each forward holds OpenBLAS at one thread while its branches split;
        # a hold that saved and restored the count on its own could read
        # another's 1 and restore it last
        cfg = tiny_cfg()
        params = perturbed(cfg, rng)
        z = complex_chunk(rng, 3, 16, 16)
        prior = halves.blas_get()

        def forwards():
            return [forward(z, params, cfg).data for _ in range(6)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(3) as pool:
                runs = [pool.submit(forwards) for _ in range(3)]
                outs = [out for run in runs for out in run.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert halves.blas_get() == prior == 2
        assert all(np.array_equal(out, outs[0]) for out in outs)

    def test_serial_without_a_blas_setter(self, rng, halves, monkeypatch):
        cfg = tiny_cfg()
        params = perturbed(cfg, rng)
        z = complex_chunk(rng, 3, 16, 16)
        split = forward(z, params, cfg).data
        assert halves.started
        halves.started.clear()
        monkeypatch.setattr(network, "_blas_threads", lambda: None)
        serial = forward(z, params, cfg).data
        assert not halves.started
        assert np.array_equal(serial, split)

    def test_warning_state_reaches_the_helper(self, rng, halves):
        # numpy's errstate lives in a context variable, so a helper outside
        # the caller's context would warn, and here raise, on the overflow
        cfg = tiny_cfg()
        p = init_params(cfg, 6)
        p.tensors["stage1.cell0.local.mixer.w2"][:] = 1e38
        p.tensors["stage1.cell0.local.mixer.b1"][:] = 30.0
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalFailureError) as exc:
                forward(complex_chunk(rng, 2, 16, 16), p, cfg)
        assert halves.started
        assert "stage1.cell0" in str(exc.value)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        cfg = tiny_cfg()
        p = init_params(cfg, 11)
        p.tensors["head.weight"][:] = rng.normal(size=(8, 2)).astype(np.float32)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, p, cfg, extra={"step": 42})
        p2, cfg2, extra = load_checkpoint(path)
        assert p2 == p
        assert cfg2 == cfg
        assert extra == {"step": 42}

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        cfg = tiny_cfg()
        p = init_params(cfg, 0)
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, p, cfg)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(TruncationError):
            load_checkpoint(path)

    @pytest.mark.parametrize("seed", [2**64, 2**70, -1, 1.5, True, "7", None])
    def test_init_seed_must_be_a_philox_key_word(self, tmp_path, rewrite_manifest, seed):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(tiny_cfg(), 0), tiny_cfg())
        rewrite_manifest(path, path, lambda m: m.update(init_seed=2**64 - 1))
        assert load_checkpoint(path)[0].init_seed == 2**64 - 1
        rewrite_manifest(path, path, lambda m: m.update(init_seed=seed))
        with pytest.raises(FormatError, match="init_seed"):
            load_checkpoint(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        import json
        import struct

        cfg = tiny_cfg()
        p = init_params(cfg, 0)
        path = tmp_path / "odd.ckpt"
        save_checkpoint(path, p, cfg)
        raw = path.read_bytes()
        (mlen,) = struct.unpack("<Q", raw[8:16])
        manifest = json.loads(raw[16 : 16 + mlen])
        manifest["config"]["flux_capacitor"] = 1
        mb = json.dumps(manifest).encode()
        path.write_bytes(raw[:8] + struct.pack("<Q", len(mb)) + mb + raw[16 + mlen :])
        with pytest.raises(FormatError):
            load_checkpoint(path)


class TestFeatureGrid:
    def test_rank_enforced(self):
        with pytest.raises(InvalidInputError):
            FeatureGrid(np.zeros((2, 3, 4)))

    def test_finite_enforced(self):
        bad = np.zeros((1, 2, 3, 3), dtype=np.float32)
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            FeatureGrid(bad)
