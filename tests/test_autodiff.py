import contextlib
import tracemalloc

import numpy as np
import pytest

from imt import autodiff as ad
from imt.errors import InvalidInputError, NumericalFailureError


def charbonnier(pred, target, eps=1e-3):
    diff = ad.sub(pred, target)
    return ad.reduce_mean(ad.sqrt(ad.add(ad.square(diff), ad.constant(eps * eps))))


def softmax(x, scale=1.0):
    """softmax(x * scale) over the last axis: attention_probs with identity
    matrices as keys."""
    d = x.shape[-1]
    eye = np.broadcast_to(np.eye(d, dtype=x.dtype), tuple(x.shape[:-2]) + (d, d))
    return ad.attention_probs(x, ad.constant(eye), scale)


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
        combined = lambda x: ad.add(
            ad.mul(ad.constant(2.0), f(x)), ad.mul(ad.constant(3.0), g(x))
        )
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
        # a constant of a leaf's value stops the gradient through it
        with ad.Tape() as tape:
            x = ad.leaf(np.ones(3))
            held = ad.constant(x.value)
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
        # a first-order backward consumes its tape, so each walk gets a fresh
        # tape of the same forward
        x0 = rng.normal(size=(10,))
        grads = []
        for _ in range(2):
            with ad.Tape():
                x = ad.leaf(x0)
                loss = charbonnier(ad.sigmoid(x), ad.constant(np.zeros(10)))
                grads.append(ad.backward(loss, [x])[0].value)
        assert np.array_equal(grads[0], grads[1])

    def test_first_order_backward_consumes_the_tape(self, rng):
        with ad.Tape() as tape:
            x = ad.leaf(rng.normal(size=(4,)))
            loss = ad.reduce_sum(ad.sigmoid(x))
            ad.backward(loss, [x])
            assert tape.records == [] and tape.consumed
            # a second walk would find no records and give zero gradients
            with pytest.raises(InvalidInputError, match="consumed"):
                ad.backward(loss, [x])


class TestReplay:
    def test_replay_reproduces_bitwise(self, rng):
        with ad.Tape() as tape:
            x = ad.leaf(rng.normal(size=(6, 6)).astype(np.float32))
            w = ad.leaf(rng.normal(size=(6, 6)).astype(np.float32))
            y = ad.attention_probs(x, w, 0.5)
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
            p = softmax(y)
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
            f = ad.mul(ad.constant(0.5), ad.reduce_sum(ad.mul(ad.reshape(ax, (5,)), x)))
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

        def f(pv):
            x = pv["x"]
            ax = ad.matmul(ad.reshape(x, (1, 4)), ad.constant(a))
            return ad.mul(ad.constant(0.5), ad.reduce_sum(ad.mul(ad.reshape(ax, (4,)), x)))

        n = 400
        acc = sum(ad.gradients(f, {"x": x0}, ["x"], rng)[2]["x"] for _ in range(n))
        assert np.allclose(acc / n, np.diag(a), atol=0.2)

    def test_gradients_lifts_only_the_named_arrays(self):
        # f = sum(x * y): the named x gets y as its gradient, and the Hessian
        # in x alone is zero; y stays a constant
        point = {"x": np.array([1.0, 2.0]), "y": np.array([3.0, -4.0])}
        f = lambda pv: ad.reduce_sum(ad.mul(pv["x"], pv["y"]))
        loss, grads, hess = ad.gradients(f, point, ["x"], np.random.default_rng(0))
        assert loss == -5.0
        assert list(grads) == ["x"] and np.array_equal(grads["x"], point["y"])
        assert np.array_equal(hess["x"], np.zeros(2))
        assert ad.gradients(f, point, ["x"])[2] is None

    def test_gradients_refuses_a_non_finite_loss(self):
        calls = []

        def f(pv):
            calls.append(ad.current_tape())
            return ad.reduce_sum(ad.div(pv["x"], ad.constant(np.zeros(2))))

        with np.errstate(divide="ignore"), pytest.raises(NumericalFailureError, match="loss"):
            ad.gradients(f, {"x": np.ones(2)}, ["x"], np.random.default_rng(0))
        # the loss was taped, and no backward pass walked the tape
        assert len(calls[0].records) == 2 and not calls[0].consumed


class TestPrimitives:
    def test_softmax_rows_sum_to_one(self, rng):
        p = softmax(ad.constant(rng.normal(size=(3, 7)) * 10))
        assert np.allclose(np.sum(p.value, axis=-1), 1.0)

    def test_softmax_vjp_matches_dense_jacobian(self, rng):
        x0 = rng.normal(size=(1, 5))
        g0 = rng.normal(size=5)
        with ad.Tape():
            x = ad.leaf(x0)
            p = softmax(x, scale=0.5)
            loss = ad.reduce_sum(ad.mul(p, ad.constant(g0)))
            (got,) = ad.backward(loss, [x])
        s = np.exp(0.5 * (x0[0] - x0.max()))
        s /= s.sum()
        jac = np.diag(s) - np.outer(s, s)
        assert np.allclose(got.value[0], 0.5 * jac.T @ g0, rtol=1e-10)

    def test_softmax_shift_invariant(self, rng):
        x0 = rng.normal(size=(2, 6))
        a = softmax(ad.constant(x0))
        b = softmax(ad.constant(x0 + 100.0))
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
            m = ad.channel_magnitude(x)
            (g,) = ad.backward(ad.reduce_sum(m), [x])
        assert np.allclose(m.value, [5.0, 0.0, 0.0])
        assert np.allclose(g.value[0], [0.6, 0.8])
        assert (g.value[1:] == 0).all()

    def test_complex_boundary_round_trip(self, rng):
        z0 = (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))).astype(np.complex64)
        with ad.no_recording():
            ch = ad.complex_split(ad.constant(z0))
            back = ad.complex_join(ch)
        assert ch.value.shape == (2, 3, 2)
        assert np.array_equal(back.value, z0)

    def test_complex_cotangent_convention(self):
        with ad.Tape():
            z = ad.leaf(np.array([1 + 2j], dtype=np.complex128))
            ch = ad.complex_split(z)
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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reflect_pad_any_length_matches_numpy(self, rng, n):
        # pads up to twice the axis keep reflecting, as np.pad does; a size-1
        # axis repeats its one sample
        x0 = rng.normal(size=(n, 3))
        for lo in range(2 * n + 1):
            for hi in range(2 * n + 1):
                got = ad.reflect_pad2d(ad.constant(x0), ((lo, hi), (1, 0)))
                ref = np.pad(x0, ((lo, hi), (1, 0)), mode="reflect")
                assert np.array_equal(got.value, ref), (lo, hi)

    def test_reflect_pad_adjoint_folds_long_pads(self, rng):
        # <pad(x), y> == <x, padᵀ(y)> when the pad wraps the axis twice
        x0 = rng.normal(size=(2, 3))
        with ad.Tape():
            x = ad.leaf(x0)
            padded = ad.reflect_pad2d(x, ((4, 5), (0, 7)))
            y0 = rng.normal(size=padded.shape)
            (adj,) = ad.backward(ad.reduce_sum(ad.mul(padded, ad.constant(y0))), [x])
        assert np.sum(padded.value * y0) == pytest.approx(np.sum(x0 * adj.value), rel=1e-12)

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
        # register takes a forward and its VJP together
        required = {
            "matmul",
            "linear",
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


def attention_grads(q0, k0, w0, scale):
    with ad.Tape():
        q, k = ad.leaf(q0), ad.leaf(k0)
        p = ad.attention_probs(q, k, scale)
        loss = ad.reduce_sum(ad.mul(p, ad.constant(w0)))
        grads = ad.backward(loss, [q, k])
    return p.value, [g.value for g in grads]


def composite_grads_oracle(q, k, g, scale):
    """The gradients of <softmax(q @ kᵀ * scale), g> in numpy, in the order
    of the matmul -> scale mul -> softmax chain's taped VJPs: the softmax's
    s * (g - sum(g * s)), the scale, then the matmul's two products, with
    dk the transpose of dkᵀ."""
    s = attention_oracle(q, k, scale)
    ds = s * (g - np.sum(g * s, axis=-1, keepdims=True))
    ds = ds * np.asarray(scale, dtype=ds.dtype)
    dq = np.matmul(ds, k)
    dk = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), ds), -1, -2)
    return dq, dk


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
        p, grads = attention_grads(q0, k0, w0, scale)
        assert p.dtype == dtype
        assert np.array_equal(p, attention_oracle(q0, k0, scale))
        for g, g_ref in zip(grads, composite_grads_oracle(q0, k0, w0, scale)):
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


def attention_out_oracle(q, k, v, scale):
    """softmax(q @ kᵀ * scale) @ v of the given operands in long double."""
    q, k, v = (np.asarray(x, dtype=np.longdouble) for x in (q, k, v))
    s = np.matmul(q, np.swapaxes(k, -1, -2)) * np.longdouble(scale)
    e = np.exp(s - np.max(s, axis=-1, keepdims=True))
    return np.matmul(e / np.sum(e, axis=-1, keepdims=True), v)


def untaped_error_ratios(draws, scale):
    """Per (q, k, v) draw, the RMS error of the untaped ad.attention over the
    RMS error of the taped composite matmul(attention_probs, v), both against
    the long-double oracle of the same operands."""
    ratios = []
    for q0, k0, v0 in draws:
        q, k, v = ad.constant(q0), ad.constant(k0), ad.constant(v0)
        out = ad.attention(q, k, v, scale)
        taped = ad.matmul(ad.attention_probs(q, k, scale), v)
        assert out.stop and out.dtype == q0.dtype and out.shape == taped.shape
        assert np.isfinite(out.value).all()
        ref = attention_out_oracle(q0, k0, v0, scale)
        err, taped_err = (np.sqrt(np.mean((a.value - ref) ** 2)) for a in (out, taped))
        ratios.append(float(err / taped_err))
    return np.array(ratios)


def skip_without_wide_long_double(dtype):
    if dtype == np.float64 and np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        pytest.skip("a float64 error needs a long double wider than float64")


# The untaped branch may move the last bits, by this much: over 12 draws the
# ratio of its RMS error to the taped composite's, against a long-double
# oracle, has a median of at most 2.5 and a max of at most 4. The max is loose
# because a 2-D draw has 15 outputs, so its ratio is noisy (1.5-2.8 measured).
ATTENTION_MEDIAN_RATIO = 2.5
ATTENTION_MAX_RATIO = 4.0


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
        """Equal within the stated tolerance. Measured ratio medians (max):
        width 8 1.02 (1.26) in float32 and 1.05 (1.21) in float64, at every
        tiling, and width 169 1.80 (1.91) and 1.79 (1.87). OpenBLAS sums the
        product of the transposed tile with the values less exactly than the
        row-major product at 64 and 169 tokens."""
        skip_without_wide_long_double(dtype)
        if count is not None:
            monkeypatch.setattr(ad, "_SCORE_TILE", count * n * n + 1)

        def draws():
            for _ in range(12):
                q0, k0 = attention_inputs(rng, lead, n, 4, dtype)
                # head-split values, a strided view as network._mha passes them
                v0 = rng.normal(size=lead + (n, 2, 3)).astype(dtype).swapaxes(-3, -2)
                yield q0, k0, v0[..., 1, :, :]

        ratios = untaped_error_ratios(draws(), 0.5)
        assert np.median(ratios) <= ATTENTION_MEDIAN_RATIO and ratios.max() <= ATTENTION_MAX_RATIO

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "lead, count, gain",
        [
            ((3, 4), None, 1.0),  # one tile
            ((), None, 1.0),  # a 2-D call, no leading axes
            ((3, 4), 3, 1.0),  # tiles of 3 and 1 per row of the first axis
            ((3, 4), None, 12.0),  # saturated: scale·|q|·|k| above 80
        ],
    )
    def test_untaped_queries_unlike_keys(self, rng, lead, count, gain, dtype, monkeypatch):
        """5 queries, 7 keys, d = 4 and e = 3, within the stated tolerance.
        Measured ratio medians (max) in float32 (float64): one tile 0.99
        (1.26), 0.98 (1.22); 2-D 0.93 (1.53), 1.12 (2.80); tiles of 3 and 1
        the same as one tile; saturated 1.00 (1.03), 1.00 (1.12)."""
        skip_without_wide_long_double(dtype)
        if count is not None:
            monkeypatch.setattr(ad, "_SCORE_TILE", count * 5 * 7 + 1)

        def draws():
            for _ in range(12):
                q0, k0 = (rng.normal(size=lead + (n, 4)).astype(dtype) * gain for n in (5, 7))
                assert gain == 1 or (0.5 * np.abs(q0 @ np.swapaxes(k0, -1, -2))).max() > 80
                yield q0, k0, rng.normal(size=lead + (7, 3)).astype(dtype)

        ratios = untaped_error_ratios(draws(), 0.5)
        assert np.median(ratios) <= ATTENTION_MEDIAN_RATIO and ratios.max() <= ATTENTION_MAX_RATIO

    def test_untaped_peak_is_the_output_and_one_tile(self, rng):
        # 64 groups of 256 tokens, global attention's shape: four score
        # matrices make one 1 MiB tile; a copy of the scaled q would add 1 MiB
        q0, k0, v0 = (rng.normal(size=(64, 256, 16)).astype(np.float32) for _ in range(3))
        q, k, v = ad.constant(q0), ad.constant(k0), ad.constant(v0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = ad.attention(q, k, v, 0.25)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        matrices = ad._SCORE_TILE // (256 * 256)
        tiles = matrices * (256 * 256 + 16 * 256) * 4  # scores and scaled q
        # numpy's ufunc buffers took 100 KiB more
        assert peak <= out.value.nbytes + tiles + 256 * 2**10

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


def linear_inputs(rng, lead, dtype):
    """(lead, 5, 6) activations, a (6, 7) weight and a (7,) bias."""
    return (
        rng.normal(size=lead + (5, 6)).astype(dtype),
        rng.normal(size=(6, 7)).astype(dtype),
        rng.normal(size=7).astype(dtype),
    )


def linear_tape(fn, x0, w0, b0):
    """Forward value, first-order gradients, a Hessian-vector product and the
    tape's records before the HVP walk of ``fn(x, w, b)`` under a loss with
    curvature in every input."""
    with ad.Tape() as tape:
        x, w, b = ad.leaf(x0), ad.leaf(w0), ad.leaf(b0)
        y = fn(x, w, b)
        loss = ad.reduce_sum(ad.mul(ad.sigmoid(y), y))
        gs = ad.backward(loss, [x, w, b], create_graph=True)
        dots = [ad.reduce_sum(ad.mul(g, ad.square(g))) for g in gs]
        s = ad.add(ad.add(dots[0], dots[1]), dots[2])
        records = list(tape.records)  # the HVP walk consumes the tape
        hvp = ad.backward(s, [x, w, b])
    return y.value, [g.value for g in gs + hvp], records


def composite_linear(x, w, b):
    return ad.add(ad.matmul(x, w), b)


class TestLinear:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(2, 3, 4), (2, 2, 3, 2)])
    def test_bitwise_equal_to_composite(self, rng, lead, dtype):
        # 5-D and 6-D activations, as the cell units and the blocked grid give
        x0, w0, b0 = linear_inputs(rng, lead, dtype)
        untaped = ad.linear(ad.constant(x0), ad.constant(w0), ad.constant(b0))
        ref = composite_linear(ad.constant(x0), ad.constant(w0), ad.constant(b0))
        assert untaped.stop and untaped.dtype == dtype
        assert np.array_equal(untaped.value, ref.value)
        y, grads, _ = linear_tape(ad.linear, x0, w0, b0)
        y_ref, grads_ref, _ = linear_tape(composite_linear, x0, w0, b0)
        assert y.dtype == dtype and np.array_equal(y, y_ref)
        for g, g_ref in zip(grads, grads_ref):
            assert g.dtype == dtype and np.array_equal(g, g_ref)

    @pytest.mark.parametrize(
        "dtypes", [(np.float32, np.float32, np.float64), (np.float32, np.float64, np.float32)]
    )
    def test_mixed_dtypes_promote_as_add_does(self, rng, dtypes):
        x0, w0, b0 = (a.astype(t) for a, t in zip(linear_inputs(rng, (2, 3), np.float64), dtypes))
        out = ad.linear(ad.constant(x0), ad.constant(w0), ad.constant(b0))
        ref = composite_linear(ad.constant(x0), ad.constant(w0), ad.constant(b0))
        assert out.dtype == ref.dtype == np.float64
        assert np.array_equal(out.value, ref.value)

    def test_create_graph_tapes_the_composite_records(self, rng):
        # less the one forward record (matmul and add become linear), the
        # tape of a second-order backward holds the same calls in the same order
        x0, w0, b0 = linear_inputs(rng, (3,), np.float32)
        records = linear_tape(ad.linear, x0, w0, b0)[2]
        records_ref = linear_tape(composite_linear, x0, w0, b0)[2]
        summary = lambda recs: [(r.name, r.out.shape) for r in recs]
        assert summary(records_ref[:2]) == [("matmul", (3, 5, 7)), ("add", (3, 5, 7))]
        assert summary(records[:1]) == [("linear", (3, 5, 7))]
        assert summary(records[1:]) == summary(records_ref[2:])

    def test_finite_difference_first_order(self, rng):
        w0 = rng.normal(size=(2, 3, 4, 5))
        pt = {"x": rng.normal(size=(2, 3, 4, 6)), "w": rng.normal(size=(6, 5)), "b": rng.normal(size=5)}

        def f(v):
            y = ad.linear(v["x"], v["w"], v["b"])
            return ad.reduce_sum(ad.mul(ad.silu(y), ad.constant(w0)))

        assert ad.finite_difference_check(f, pt, samples=80) < 1e-6

    def test_finite_difference_second_order(self, rng):
        # differentiates <grad f, u>, the Hessian-vector product Sophia takes
        w0 = rng.normal(size=(3, 4, 5))
        pt = {"x": rng.normal(size=(3, 4, 2)), "w": rng.normal(size=(2, 5)), "b": rng.normal(size=5)}
        u = {name: rng.normal(size=v.shape) for name, v in pt.items()}

        def grad_dot_u(v):
            with contextlib.ExitStack() as stack:
                if ad.current_tape() is None:  # a finite-difference evaluation
                    stack.enter_context(ad.Tape())
                    v = {name: ad.leaf(x.value) for name, x in v.items()}
                y = ad.linear(v["x"], v["w"], v["b"])
                f = ad.reduce_sum(ad.mul(ad.silu(y), ad.constant(w0)))
                gs = ad.backward(f, [v[n] for n in ("x", "w", "b")], create_graph=True)
                dots = [ad.reduce_sum(ad.mul(g, ad.constant(u[n]))) for g, n in zip(gs, "xwb")]
                return ad.add(ad.add(dots[0], dots[1]), dots[2])

        assert ad.finite_difference_check(grad_dot_u, pt, samples=60) < 1e-5

    def test_replay_bitwise(self, rng):
        x0, w0, b0 = linear_inputs(rng, (2,), np.float32)
        tape = ad.Tape()
        tape.records = linear_tape(ad.linear, x0, w0, b0)[2]
        assert tape.records[0].name == "linear"
        tape.replay()

    @pytest.mark.parametrize(
        "x_shape, w_shape, b_shape",
        [((6,), (6, 7), (7,)), ((2, 6), (1, 6, 7), (7,)), ((2, 6), (6, 7), (6,)), ((2, 6), (6, 7), (1, 7))],
    )
    def test_rejects_mismatched_operands(self, rng, x_shape, w_shape, b_shape):
        x, w, b = (ad.constant(rng.normal(size=s)) for s in (x_shape, w_shape, b_shape))
        with pytest.raises(InvalidInputError):
            ad.linear(x, w, b)
