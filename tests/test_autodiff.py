import contextlib

import numpy as np
import pytest

from imt import autodiff as ad
from imt.errors import InvalidInputError, NumericalFailureError


def charbonnier(pred, target, eps=1e-3):
    diff = ad.sub(pred, target)
    return ad.reduce_mean(ad.sqrt(ad.square(diff) + eps * eps))


class TestBasics:
    def test_quadratic_gradient_exact(self):
        with ad.Tape():
            x = ad.leaf(np.arange(6, dtype=np.float64).reshape(2, 3))
            (g,) = ad.backward(ad.reduce_sum(ad.square(x)), [x])
        assert np.array_equal(g.value, 2 * np.arange(6).reshape(2, 3))

    def test_linear_combination_of_losses(self, rng):
        x0 = rng.normal(size=(4,))

        def grad_of(fn):
            with ad.Tape():
                x = ad.leaf(x0)
                (g,) = ad.backward(fn(x), [x])
            return np.asarray(g.value)

        f = lambda x: ad.reduce_sum(ad.square(x))
        g = lambda x: ad.reduce_sum(ad.sigmoid(x))
        combined = lambda x: 2.0 * f(x) + 3.0 * g(x)
        assert np.allclose(grad_of(combined), 2 * grad_of(f) + 3 * grad_of(g), rtol=1e-12)

    def test_unused_leaf_gets_exact_zero(self):
        with ad.Tape():
            x = ad.leaf(np.ones(3))
            y = ad.leaf(np.ones(4))
            gx, gy = ad.backward(ad.reduce_sum(ad.square(x)), [x, y])
        assert (np.asarray(gy.value) == 0.0).all()
        assert gy.value.shape == (4,)

    def test_backward_requires_scalar(self):
        with ad.Tape():
            x = ad.leaf(np.ones(3))
            y = ad.square(x)
            with pytest.raises(InvalidInputError):
                ad.backward(y, [x])

    def test_backward_requires_tape(self):
        with ad.no_recording():
            x = ad.leaf(np.ones(1))
            y = ad.reduce_sum(x)
        with pytest.raises(InvalidInputError):
            ad.backward(y, [x])

    def test_stop_gradient_blocks(self):
        with ad.Tape() as tape:
            x = ad.leaf(np.ones(3))
            held = ad.stop_gradient(x)
            assert held.stop and not tape.records
            y = ad.reduce_sum(ad.mul(x, held))
            (g,) = ad.backward(y, [x])
        # only the direct factor contributes: d/dx sum(x * const(x)) = x
        assert np.allclose(g.value, np.ones(3))

    def test_constant_inputs_give_untaped_constant(self):
        with ad.Tape() as tape:
            a = ad.constant(np.arange(3.0))
            y = ad.reduce_sum(ad.mul(ad.square(a), a))
            assert y.stop
            assert y.value == 9.0
            assert tape.records == []

    def test_one_leaf_input_is_taped(self):
        with ad.Tape() as tape:
            x = ad.leaf(np.ones(3))
            y = ad.mul(ad.constant(np.arange(3.0)), x)
            assert not y.stop
            assert [r.name for r in tape.records] == ["mul"]
            assert tape.records[0].out is y

    def test_broadcasting_gradients(self, rng):
        a0 = rng.normal(size=(3, 1))
        b0 = rng.normal(size=(3, 4))

        def f(vars_):
            return ad.reduce_sum(ad.square(ad.mul(vars_["a"], vars_["b"])))

        err = ad.finite_difference_check(f, {"a": a0, "b": b0}, samples=15)
        assert err < 1e-6

    def test_repeated_backward_bitwise_identical(self, rng):
        x0 = rng.normal(size=(10,))
        with ad.Tape():
            x = ad.leaf(x0)
            loss = charbonnier(ad.sigmoid(x), ad.constant(np.zeros(10)))
            (g1,) = ad.backward(loss, [x])
            (g2,) = ad.backward(loss, [x])
        assert np.array_equal(g1.value, g2.value)


class TestReplay:
    def test_replay_reproduces_bitwise(self, rng):
        with ad.Tape() as tape:
            x = ad.leaf(rng.normal(size=(6, 6)).astype(np.float32))
            w = ad.leaf(rng.normal(size=(6, 6)).astype(np.float32))
            y = ad.softmax(ad.matmul(x, w), axis=-1)
            loss = ad.reduce_mean(ad.square(y))
            ad.backward(loss, [w], create_graph=True)
        tape.replay()

    def test_replay_detects_mutation(self, rng):
        with ad.Tape() as tape:
            x = ad.leaf(rng.normal(size=(4,)))
            ad.reduce_sum(ad.sigmoid(x))
        # corrupt a recorded output, then replay must flag the record
        tape.records[0].out.value = tape.records[0].out.value + 1.0
        with pytest.raises(NumericalFailureError):
            tape.replay()


class TestFiniteDifference:
    def test_charbonnier_network_style(self, rng):
        w0 = rng.normal(size=(5, 5)) * 0.5
        x0 = rng.normal(size=(7, 5))
        target = rng.normal(size=(7, 5))

        def f(vars_):
            h = ad.silu(ad.matmul(ad.constant(x0), vars_["w"]))
            return charbonnier(h, ad.constant(target))

        assert ad.finite_difference_check(f, {"w": w0}, samples=25) < 1e-6

    def test_composite_with_bn_and_softmax(self, rng):
        pt = {
            "x": rng.normal(size=(6, 3, 4)),
            "gamma": 1.0 + 0.1 * rng.normal(size=(1, 3, 1)),
            "beta": 0.1 * rng.normal(size=(1, 3, 1)),
        }

        def f(vars_):
            y = ad.batch_norm_train(
                vars_["x"], vars_["gamma"], vars_["beta"], axes=(0, 2), eps=1e-5
            )
            p = ad.softmax(y, axis=-1)
            return ad.reduce_mean(ad.mul(ad.silu(y), p))

        assert ad.finite_difference_check(f, pt, samples=40) < 1e-6

    def test_negative_control_detects_corruption(self, rng):
        x0 = rng.normal(size=(8,))

        def f(x):
            return ad.reduce_sum(ad.square(x))

        good = 2 * x0
        bad = good.copy()
        bad[3] += 0.5
        assert ad.finite_difference_check(f, x0, samples=8, analytic=bad) > 1e-2
        assert ad.finite_difference_check(f, x0, samples=8, analytic=good) < 1e-8


class TestSecondOrder:
    def test_hvp_matches_analytic_hessian(self, rng):
        # f = 0.5 x^T A x with symmetric A: Hessian = A
        m = rng.normal(size=(5, 5))
        a = (m + m.T) / 2
        x0 = rng.normal(size=5)
        v = rng.normal(size=5)
        with ad.Tape():
            x = ad.leaf(x0)
            ax = ad.matmul(ad.reshape(x, (1, 5)), ad.constant(a))
            f = 0.5 * ad.reduce_sum(ad.mul(ad.reshape(ax, (5,)), x))
            (g,) = ad.backward(f, [x], create_graph=True)
            s = ad.reduce_sum(ad.mul(g, ad.constant(v)))
            (hv,) = ad.backward(s, [x])
        assert np.allclose(hv.value, a @ v, rtol=1e-10)

    def test_hvp_through_nonlinearity(self, rng):
        # f = sum(sigmoid(x)) -> H = diag(s''), hvp = s'' * v
        x0 = rng.normal(size=6)
        v = rng.normal(size=6)
        with ad.Tape():
            x = ad.leaf(x0)
            (g,) = ad.backward(ad.reduce_sum(ad.sigmoid(x)), [x], create_graph=True)
            s = ad.reduce_sum(ad.mul(g, ad.constant(v)))
            (hv,) = ad.backward(s, [x])
        sig = 1 / (1 + np.exp(-x0))
        d2 = sig * (1 - sig) * (1 - 2 * sig)
        assert np.allclose(hv.value, d2 * v, rtol=1e-8)

    def test_hutchinson_diagonal_unbiased(self, rng):
        # E[z * (Hz)] = diag(H) for Rademacher z; check on a known Hessian
        m = rng.normal(size=(4, 4))
        a = (m + m.T) / 2
        x0 = rng.normal(size=4)
        acc = np.zeros(4)
        n = 400
        for i in range(n):
            z = rng.integers(0, 2, size=4) * 2.0 - 1.0
            with ad.Tape():
                x = ad.leaf(x0)
                ax = ad.matmul(ad.reshape(x, (1, 4)), ad.constant(a))
                f = 0.5 * ad.reduce_sum(ad.mul(ad.reshape(ax, (4,)), x))
                (g,) = ad.backward(f, [x], create_graph=True)
                s = ad.reduce_sum(ad.mul(g, ad.constant(z)))
                (hv,) = ad.backward(s, [x])
            acc += z * np.asarray(hv.value)
        assert np.allclose(acc / n, np.diag(a), atol=0.2)


class TestPrimitives:
    def test_softmax_rows_sum_to_one(self, rng):
        with ad.no_recording():
            p = ad.softmax(ad.constant(rng.normal(size=(3, 7)) * 10), axis=-1)
        assert np.allclose(np.sum(p.value, axis=-1), 1.0)

    def test_softmax_vjp_matches_dense_jacobian(self, rng):
        x0 = rng.normal(size=5)
        g0 = rng.normal(size=5)
        with ad.Tape():
            x = ad.leaf(x0)
            p = ad.softmax(x, axis=-1)
            loss = ad.reduce_sum(ad.mul(p, ad.constant(g0)))
            (got,) = ad.backward(loss, [x])
        s = np.exp(x0 - x0.max())
        s /= s.sum()
        jac = np.diag(s) - np.outer(s, s)
        assert np.allclose(got.value, jac.T @ g0, rtol=1e-10)

    def test_softmax_shift_invariant(self, rng):
        x0 = rng.normal(size=(2, 6))
        with ad.no_recording():
            a = ad.softmax(ad.constant(x0), axis=-1)
            b = ad.softmax(ad.constant(x0 + 100.0), axis=-1)
        assert np.allclose(a.value, b.value, atol=1e-12)

    def test_bn_train_normalizes(self, rng):
        x0 = rng.normal(size=(8, 3, 10)) * 4 + 2
        with ad.no_recording():
            y = ad.batch_norm_train(
                ad.constant(x0),
                ad.constant(np.ones((1, 3, 1))),
                ad.constant(np.zeros((1, 3, 1))),
                axes=(0, 2),
                eps=0.0,
            )
        assert np.allclose(np.mean(y.value, axis=(0, 2)), 0.0, atol=1e-12)
        assert np.allclose(np.var(y.value, axis=(0, 2)), 1.0, atol=1e-10)

    def test_bn_eval_matches_train_given_batch_stats(self, rng):
        x0 = rng.normal(size=(6, 2, 5))
        gamma = rng.normal(size=(1, 2, 1))
        beta = rng.normal(size=(1, 2, 1))
        mu = np.mean(x0, axis=(0, 2), keepdims=True)
        var = np.var(x0, axis=(0, 2), keepdims=True)
        with ad.no_recording():
            yt = ad.batch_norm_train(
                ad.constant(x0), ad.constant(gamma), ad.constant(beta), axes=(0, 2), eps=1e-5
            )
            ye = ad.batch_norm_eval(
                ad.constant(x0),
                ad.constant(gamma),
                ad.constant(beta),
                ad.constant(mu),
                ad.constant(var),
                eps=1e-5,
            )
        assert np.allclose(yt.value, ye.value, rtol=1e-10)

    def test_magnitude_values_and_zero_subgradient(self):
        x0 = np.zeros((3, 2))
        x0[0] = [3.0, 4.0]
        with ad.Tape():
            x = ad.leaf(x0)
            m = ad.channel_magnitude(x, ch_axis=-1)
            (g,) = ad.backward(ad.reduce_sum(m), [x])
        assert np.allclose(m.value, [5.0, 0.0, 0.0])
        assert np.allclose(g.value[0], [0.6, 0.8])
        assert (g.value[1:] == 0).all()

    def test_complex_boundary_round_trip(self, rng):
        z0 = (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))).astype(np.complex64)
        with ad.no_recording():
            ch = ad.complex_split(ad.constant(z0), ch_axis=-1)
            back = ad.complex_join(ch, ch_axis=-1)
        assert ch.value.shape == (2, 3, 2)
        assert np.array_equal(back.value, z0)

    def test_complex_cotangent_convention(self):
        with ad.Tape():
            z = ad.leaf(np.array([1 + 2j], dtype=np.complex128))
            ch = ad.complex_split(z, ch_axis=-1)
            # loss = re + 3*im -> dz = 1 + 3j
            w = ad.constant(np.array([1.0, 3.0]))
            (g,) = ad.backward(ad.reduce_sum(ad.mul(ch, w)), [z])
        assert g.value[0] == pytest.approx(1 + 3j)

    def test_gather_scatter_adjoint(self, rng):
        x0 = rng.normal(size=(5, 4))
        idx = np.array([0, 2, 2, 4])
        y0 = rng.normal(size=(4, 4))
        with ad.Tape():
            x = ad.leaf(x0)
            gx = ad.gather(x, idx, axis=0)
            (adj,) = ad.backward(ad.reduce_sum(ad.mul(gx, ad.constant(y0))), [x])
        lhs = np.sum(x0[idx] * y0)
        rhs = np.sum(x0 * adj.value)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        # duplicated index accumulates
        assert np.allclose(adj.value[2], y0[1] + y0[2])

    def test_reflect_pad_matches_numpy(self, rng):
        x0 = rng.normal(size=(2, 5, 6))
        with ad.no_recording():
            padded = ad.reflect_pad2d(ad.constant(x0), ((2, 1), (3, 2)))
        assert np.allclose(
            padded.value, np.pad(x0, ((0, 0), (2, 1), (3, 2)), mode="reflect")
        )

    def test_reflect_pad_too_large(self):
        with ad.no_recording():
            with pytest.raises(InvalidInputError):
                ad.reflect_pad2d(ad.constant(np.zeros((3, 3))), ((3, 0), (0, 0)))

    def test_pad_crop_inverse(self, rng):
        x0 = rng.normal(size=(4, 6))
        with ad.no_recording():
            padded = ad.reflect_pad2d(ad.constant(x0), ((1, 2), (2, 1)))
            back = ad.crop2d(padded, 1, 2, 4, 6)
        assert np.array_equal(back.value, x0)

    def test_bilinear_upsample_constant_preserved(self):
        with ad.no_recording():
            out = ad.bilinear_resize2d(ad.constant(np.full((1, 4, 4), 3.0)), 8, 8)
        assert np.allclose(out.value, 3.0)

    def test_bilinear_linear_ramp_preserved(self):
        # interior of an upsampled linear ramp stays linear
        ramp = np.arange(8, dtype=np.float64).reshape(1, 1, 8) * np.ones((1, 8, 1))
        with ad.no_recording():
            out = ad.bilinear_resize2d(ad.constant(ramp), 8, 16)
        mid = out.value[0, 0, 2:-2]
        assert np.allclose(np.diff(mid), 0.5)

    def test_subsample_stride(self, rng):
        x0 = rng.normal(size=(6, 8))
        with ad.no_recording():
            out = ad.subsample2d(ad.constant(x0), 2)
        assert np.array_equal(out.value, x0[::2, ::2])

    def test_nonfinite_gradient_names_tensor(self):
        with ad.Tape():
            x = ad.leaf(np.zeros(3), name="weights.w1")
            loss = ad.reduce_sum(ad.sqrt(x))  # d sqrt at 0 -> inf
            with pytest.raises(NumericalFailureError) as exc:
                ad.backward(loss, [x])
        assert "weights.w1" in str(exc.value)

    def test_every_primitive_has_a_derivative(self):
        assert ad.missing_derivatives() == set()
        required = {
            "matmul",
            "softmax",
            "attention_probs",
            "batch_norm_train",
            "batch_norm_eval",
            "sigmoid",
            "complex_split",
            "complex_join",
            "channel_magnitude",
            "gather",
            "scatter_add",
            "reduce_sum",
            "reduce_mean",
        }
        assert required <= ad.registered_primitives()

    def test_float32_graph_stays_float32(self, rng):
        with ad.Tape():
            x = ad.leaf(rng.normal(size=(4, 4)).astype(np.float32))
            w = ad.leaf(rng.normal(size=(4, 4)).astype(np.float32))
            y = ad.silu(ad.matmul(x, w))
            loss = ad.reduce_mean(ad.square(y))
            assert y.value.dtype == np.float32
            assert loss.value.dtype == np.float32
            (g,) = ad.backward(loss, [w])
        assert g.value.dtype == np.float32


def attention_inputs(rng, lead, n, d, dtype):
    """(lead, n, d) queries and keys with score ties and signed zeros; the
    queries are a head-split view, as network._mha passes them."""
    q = rng.normal(size=lead + (n, 2, d)).astype(dtype).swapaxes(-3, -2)[..., 0, :, :]
    k = rng.normal(size=lead + (n, d)).astype(dtype)
    q[..., 0, :] = 0.0  # a row of equal scores
    q[..., -1, :] = -0.0
    k[..., -1, :] = k[..., 0, :]  # every row ties its first and last key
    return q, k


def attention_oracle(q, k, scale):
    """The attention_probs forward written out in numpy."""
    s = np.matmul(q, np.swapaxes(k, -1, -2)) * np.asarray(scale, dtype=q.dtype)
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)


def attention_grads(q0, k0, w0, scale, fused):
    with ad.Tape():
        q, k = ad.leaf(q0), ad.leaf(k0)
        if fused:
            p = ad.attention_probs(q, k, scale)
        else:
            p = ad.softmax(ad.matmul(q, ad.swapaxes(k, -1, -2)) * scale, axis=-1)
        loss = ad.reduce_sum(ad.mul(p, ad.constant(w0)))
        grads = ad.backward(loss, [q, k])
    return p.value, [g.value for g in grads]


class TestAttentionProbs:
    # row widths of slice (4, 8), local (64) and global (1, 169) attention
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n, lead", [(1, (3, 2)), (4, (2, 5)), (8, (3, 7)), (64, (2, 3)), (169, (20,))]
    )
    def test_bitwise_equal_to_composite(self, rng, n, lead, dtype):
        # (20,) at width 169 runs the real tile size with a partial last tile
        q0, k0 = attention_inputs(rng, lead, n, 4, dtype)
        w0 = rng.normal(size=lead + (n, n)).astype(dtype)
        scale = 1.0 / np.sqrt(4)
        p, grads = attention_grads(q0, k0, w0, scale, fused=True)
        p_ref, grads_ref = attention_grads(q0, k0, w0, scale, fused=False)
        assert p.dtype == dtype
        assert np.array_equal(p, attention_oracle(q0, k0, scale))
        assert np.array_equal(p, p_ref)
        for g, g_ref in zip(grads, grads_ref):
            assert g.dtype == dtype and np.array_equal(g, g_ref)

    @pytest.mark.parametrize("n", [1, 4, 8, 64, 169])
    @pytest.mark.parametrize("lead, count", [((5,), 2), ((3, 5), 2), ((3, 5), 10)])
    def test_tiles_with_remainder(self, rng, n, lead, count, monkeypatch):
        # tiles of 2, 2 and 1 matrices along the last leading axis, or of 10
        # and 5 along the first
        monkeypatch.setattr(ad, "_SCORE_TILE", count * n * n + 1)
        q0, k0 = attention_inputs(rng, lead, n, 3, np.float32)
        with ad.no_recording():
            p = ad.attention_probs(ad.constant(q0), ad.constant(k0), 0.5)
        assert np.array_equal(p.value, attention_oracle(q0, k0, 0.5))

    def test_softmax_row_max_matches_np_max(self, rng):
        for n in range(1, 20):
            a = rng.normal(size=(6, 5, n)).astype(np.float32)
            a[0] = 0.0
            a[1, :, -1] = np.inf
            assert np.array_equal(ad._row_max(a), np.max(a, axis=-1, keepdims=True))

    def test_finite_difference_first_order(self, rng):
        w0 = rng.normal(size=(2, 3, 5, 6))
        pt = {"q": rng.normal(size=(2, 3, 5, 4)), "k": rng.normal(size=(2, 3, 6, 4))}

        def f(v):
            p = ad.attention_probs(v["q"], v["k"], 0.7)
            return ad.reduce_sum(ad.mul(p, ad.constant(w0)))

        assert ad.finite_difference_check(f, pt, samples=60) < 1e-6

    def test_finite_difference_second_order(self, rng):
        # differentiates <grad f, u>, the Hessian-vector product Sophia takes
        w0 = rng.normal(size=(3, 4, 5))
        pt = {"q": rng.normal(size=(3, 4, 2)), "k": rng.normal(size=(3, 5, 2))}
        u = {name: rng.normal(size=v.shape) for name, v in pt.items()}

        def grad_dot_u(v):
            with contextlib.ExitStack() as stack:
                if ad.current_tape() is None:  # a finite-difference evaluation
                    stack.enter_context(ad.Tape())
                    v = {name: ad.leaf(x.value) for name, x in v.items()}
                p = ad.attention_probs(v["q"], v["k"], 0.9)
                f = ad.reduce_sum(ad.mul(ad.square(p), ad.constant(w0)))
                gq, gk = ad.backward(f, [v["q"], v["k"]], create_graph=True)
                return ad.add(
                    ad.reduce_sum(ad.mul(gq, ad.constant(u["q"]))),
                    ad.reduce_sum(ad.mul(gk, ad.constant(u["k"]))),
                )

        assert ad.finite_difference_check(grad_dot_u, pt, samples=60) < 1e-5

    def test_replay_bitwise(self, rng):
        q0, k0 = attention_inputs(rng, (3,), 8, 4, np.float32)
        with ad.Tape() as tape:
            q, k = ad.leaf(q0), ad.leaf(k0)
            p = ad.attention_probs(q, k, 0.5)
            loss = ad.reduce_mean(ad.square(p))
            ad.backward(loss, [q, k], create_graph=True)
        assert "attention_probs" in {r.name for r in tape.records}
        tape.replay()

    @pytest.mark.parametrize(
        "q_shape, k_shape",
        [((2, 4, 3), (3, 4, 3)), ((2, 4, 3), (2, 4, 2)), ((2, 4, 3), (4, 3)), ((4, 3), (3,))],
    )
    def test_rejects_mismatched_operands(self, rng, q_shape, k_shape):
        q, k = (ad.constant(rng.normal(size=s)) for s in (q_shape, k_shape))
        with pytest.raises(InvalidInputError):
            ad.attention_probs(q, k, 1.0)


class TestAttention:
    # leading shapes and tile sizes (matrices per tile) that give one tile,
    # several whole tiles and a short last tile; None keeps the real size
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n, lead, count",
        [
            (8, (3, 5), None),  # one tile
            (8, (3, 5), 5),  # three tiles of 5 along the first axis
            (8, (3, 5), 2),  # tiles of 2, 2 and 1 per row of the first axis
            (169, (20,), None),  # the real tile size: tiles of 9, 9 and 2
        ],
    )
    def test_untaped_equals_taped_composite(self, rng, n, lead, count, dtype, monkeypatch):
        if count is not None:
            monkeypatch.setattr(ad, "_SCORE_TILE", count * n * n + 1)
        q0, k0 = attention_inputs(rng, lead, n, 4, dtype)
        # head-split values, a strided view as network._mha passes them
        v0 = rng.normal(size=lead + (n, 2, 3)).astype(dtype).swapaxes(-3, -2)[..., 1, :, :]
        q, k, v = ad.constant(q0), ad.constant(k0), ad.constant(v0)
        out = ad.attention(q, k, v, 0.5)
        ref = ad.matmul(ad.attention_probs(q, k, 0.5), v)
        assert out.stop and out.dtype == dtype and out.shape == lead + (n, 3)
        assert np.array_equal(out.value, ref.value)

    def test_records_only_when_taped(self, rng):
        q0, k0 = attention_inputs(rng, (2,), 8, 4, np.float32)
        v0 = rng.normal(size=(2, 8, 4)).astype(np.float32)
        with ad.Tape() as tape:
            ad.attention(ad.constant(q0), ad.constant(k0), ad.constant(v0), 0.5)
            assert tape.records == []
            q = ad.leaf(q0)
            out = ad.attention(q, ad.constant(k0), ad.constant(v0), 0.5)
            assert [r.name for r in tape.records] == ["attention_probs", "matmul"]
        assert not out.stop and np.array_equal(
            out.value, np.matmul(attention_oracle(q0, k0, 0.5), v0)
        )

    @pytest.mark.parametrize("v_shape", [(2, 5, 3), (2, 4), (3, 4, 3)])
    def test_rejects_mismatched_values(self, rng, v_shape):
        q, k = ad.constant(rng.normal(size=(2, 4, 3))), ad.constant(rng.normal(size=(2, 4, 3)))
        with pytest.raises(InvalidInputError):
            ad.attention(q, k, ad.constant(rng.normal(size=v_shape)), 1.0)
