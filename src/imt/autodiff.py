"""Tape-based reverse-mode differentiation over numpy arrays.

Every primitive application with a differentiable input is recorded on the
active Tape; ``backward`` walks the records in reverse and calls each
primitive's registered VJP. VJPs are written in terms of taped primitives
themselves, so gradients can be differentiated again (``create_graph=True``),
which is how the optimizer's Hessian-vector products are produced.

One notion of constant: constants in, untaped constant out. A primitive whose
inputs are all constants returns a constant and records nothing, since no
gradient can reach it, so inference needs no context to run untaped.
``no_recording()`` is for graphs that hold leaves, such as a first-order
backward pass.

Conventions:
  - computation is dtype-preserving: float32 graphs stay float32, and the
    gradient-check tests run everything in float64;
  - a complex node's cotangent is dL/d(re) + 1j * dL/d(im); complex values
    only ever enter through complex_split / complex_join at the graph edge;
  - |z| at z = 0 uses subgradient 0.

Replaying a tape re-executes every recorded forward and must reproduce the
recorded outputs bitwise (all primitives are pure).
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from typing import Callable

import numpy as np
import scipy.special

from .errors import InvalidInputError, NumericalFailureError

_FORWARD: dict[str, Callable] = {}
_VJP: dict[str, Callable] = {}

_ids = itertools.count()
_state = threading.local()


def _tape_stack() -> list:
    if not hasattr(_state, "tapes"):
        _state.tapes = []
    return _state.tapes


def current_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class OpRecord:
    __slots__ = ("name", "inputs", "out", "kwargs", "aux")

    def __init__(self, name, inputs, out, kwargs, aux):
        self.name = name
        self.inputs = inputs
        self.out = out
        self.kwargs = kwargs
        self.aux = aux


class Tape:
    """Recording of one differentiable computation (one training step)."""

    def __init__(self):
        self.records: list[OpRecord] = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False

    def replay(self) -> None:
        """Re-execute every record and verify outputs bitwise.

        Raises NumericalFailureError on the first mismatching record.
        """
        for i, rec in enumerate(self.records):
            vals = tuple(v.value for v in rec.inputs)
            redone, _ = _FORWARD[rec.name](*vals, **rec.kwargs)
            if not np.array_equal(np.asarray(redone), np.asarray(rec.out.value)):
                raise NumericalFailureError(
                    f"tape replay mismatch at record {i}", where=rec.name
                )


class _NoRecord:
    def __enter__(self):
        _tape_stack().append(None)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()
        return False


def no_recording() -> _NoRecord:
    """Context in which primitive applications are computed but not taped."""
    return _NoRecord()


class Variable:
    """A node in the computation graph. ``value`` must not be mutated."""

    __slots__ = ("value", "nid", "stop", "name")

    def __init__(self, value, stop=False, name=None):
        self.value = value
        self.nid = next(_ids)
        self.stop = stop
        self.name = name

    @property
    def shape(self):
        return self.value.shape

    @property
    def dtype(self):
        return self.value.dtype

    def __repr__(self):
        label = f" {self.name!r}" if self.name else ""
        return f"Variable{label}(shape={np.shape(self.value)}, dtype={np.asarray(self.value).dtype})"

    # arithmetic sugar; scalars are lifted at the operand's dtype
    def __add__(self, other):
        return add(self, _lift(other, self))

    def __radd__(self, other):
        return add(_lift(other, self), self)

    def __sub__(self, other):
        return sub(self, _lift(other, self))

    def __rsub__(self, other):
        return sub(_lift(other, self), self)

    def __mul__(self, other):
        return mul(self, _lift(other, self))

    def __rmul__(self, other):
        return mul(_lift(other, self), self)

    def __truediv__(self, other):
        return div(self, _lift(other, self))

    def __rtruediv__(self, other):
        return div(_lift(other, self), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _lift(other, self))


def leaf(value, name: str | None = None) -> Variable:
    """Differentiable input node (parameters, checked inputs)."""
    return Variable(np.asarray(value), stop=False, name=name)


def constant(value, name: str | None = None) -> Variable:
    """Node that blocks gradient flow (targets, masks, run constants)."""
    return Variable(np.asarray(value), stop=True, name=name)


def _lift(x, like: Variable) -> Variable:
    if isinstance(x, Variable):
        return x
    arr = np.asarray(x)
    if arr.dtype != like.value.dtype and np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(like.value.dtype)
    return Variable(arr, stop=True)


def register(name: str, forward: Callable, vjp: Callable) -> None:
    if name in _FORWARD:
        raise ValueError(f"primitive {name!r} registered twice")
    _FORWARD[name] = forward
    _VJP[name] = vjp


def registered_primitives() -> set[str]:
    return set(_FORWARD)


def missing_derivatives() -> set[str]:
    """Primitives with a forward but no registered VJP (must be empty)."""
    return set(_FORWARD) - set(_VJP)


def _apply(name: str, *inputs: Variable, **kwargs) -> Variable:
    value, aux = _FORWARD[name](*[v.value for v in inputs], **kwargs)
    stop = all(v.stop for v in inputs)
    out = Variable(value, stop=stop)
    tape = current_tape()
    if tape is not None and not stop:
        tape.records.append(OpRecord(name, inputs, out, kwargs, aux))
    return out


def backward(
    out: Variable,
    wrt: list[Variable],
    create_graph: bool = False,
    check_finite: bool = True,
) -> list[Variable]:
    """Gradients of a scalar ``out`` with respect to each leaf in ``wrt``.

    Walks the active tape's records in reverse recording order (reverse
    topological order), accumulating cotangents in a fixed order so repeated
    calls are bitwise identical. With ``create_graph`` the gradient
    computation is itself recorded, enabling Hessian-vector products.
    Unreached leaves get exact-zero gradients.
    """
    tape = current_tape()
    if tape is None:
        raise InvalidInputError("backward requires an active tape")
    if np.size(out.value) != 1:
        raise InvalidInputError(
            f"backward differentiates scalars, got shape {np.shape(out.value)}"
        )
    records = list(tape.records)
    grads: dict[int, Variable] = {
        out.nid: constant(np.ones(np.shape(out.value), dtype=out.value.dtype))
    }
    ctx = no_recording() if not create_graph else contextlib.nullcontext()
    with ctx:
        for rec in reversed(records):
            g = grads.pop(rec.out.nid, None)
            if g is None:
                continue
            input_grads = _VJP[rec.name](g, rec)
            for v, ig in zip(rec.inputs, input_grads):
                if ig is None or v.stop:
                    continue
                held = grads.get(v.nid)
                grads[v.nid] = ig if held is None else add(held, ig)
        result = []
        for v in wrt:
            gv = grads.get(v.nid)
            if gv is None:
                gv = constant(np.zeros(np.shape(v.value), dtype=v.value.dtype))
            result.append(gv)
    if check_finite:
        for v, gv in zip(wrt, result):
            if not np.all(np.isfinite(gv.value)):
                raise NumericalFailureError(
                    "non-finite gradient", where=v.name or f"leaf#{v.nid}"
                )
    return result


# ---------------------------------------------------------------------------
# shape alignment helpers (taped, so they stay differentiable)


def sum_to(g: Variable, shape: tuple) -> Variable:
    """Reduce a broadcast cotangent back to ``shape``."""
    gshape = np.shape(g.value)
    if gshape == tuple(shape):
        return g
    extra = len(gshape) - len(shape)
    if extra > 0:
        g = reduce_sum(g, axis=tuple(range(extra)), keepdims=False)
        gshape = np.shape(g.value)
    axes = tuple(i for i, (a, b) in enumerate(zip(gshape, shape)) if b == 1 and a != 1)
    if axes:
        g = reduce_sum(g, axis=axes, keepdims=True)
    if np.shape(g.value) != tuple(shape):
        g = reshape(g, tuple(shape))
    return g


def _restore_reduced(g: Variable, in_shape: tuple, axis, keepdims: bool) -> Variable:
    """Broadcast a reduction cotangent back over the reduced axes."""
    if not keepdims:
        kept = list(in_shape)
        for ax in _norm_axes(axis, len(in_shape)):
            kept[ax] = 1
        g = reshape(g, tuple(kept))
    return broadcast_to(g, in_shape)


def _norm_axes(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


# ---------------------------------------------------------------------------
# primitive definitions

def _fwd_add(a, b):
    return a + b, None


def _vjp_add(g, rec):
    a, b = rec.inputs
    da = None if a.stop else sum_to(g, a.shape)
    db = None if b.stop else sum_to(g, b.shape)
    return da, db


def _fwd_sub(a, b):
    return a - b, None


def _vjp_sub(g, rec):
    a, b = rec.inputs
    da = None if a.stop else sum_to(g, a.shape)
    db = None if b.stop else neg(sum_to(g, b.shape))
    return da, db


def _fwd_neg(a):
    return -a, None


def _vjp_neg(g, rec):
    return (neg(g),)


def _fwd_mul(a, b):
    return a * b, None


def _vjp_mul(g, rec):
    a, b = rec.inputs
    da = None if a.stop else sum_to(mul(g, b), a.shape)
    db = None if b.stop else sum_to(mul(g, a), b.shape)
    return da, db


def _fwd_div(a, b):
    return a / b, None


def _vjp_div(g, rec):
    a, b = rec.inputs
    da = None if a.stop else sum_to(div(g, b), a.shape)
    db = None if b.stop else sum_to(neg(div(mul(g, rec.out), b)), b.shape)
    return da, db


def _fwd_square(a):
    return a**2, None


def _vjp_square(g, rec):
    (a,) = rec.inputs
    return (mul(g, mul(a, _lift(2.0, a))),)


def _fwd_sqrt(a):
    return np.sqrt(a), None


def _vjp_sqrt(g, rec):
    return (div(mul(g, _lift(0.5, g)), rec.out),)


def _fwd_sigmoid(a):
    out = scipy.special.expit(a)
    return np.asarray(out, dtype=a.dtype), None


def _vjp_sigmoid(g, rec):
    o = rec.out
    return (mul(g, mul(o, sub(_lift(1.0, o), o))),)


def _fwd_matmul(a, b):
    return a @ b, None


def _vjp_matmul(g, rec):
    a, b = rec.inputs
    da = None if a.stop else sum_to(matmul(g, swapaxes(b, -1, -2)), a.shape)
    db = None if b.stop else sum_to(matmul(swapaxes(a, -1, -2), g), b.shape)
    return da, db


def _fwd_transpose(a, axes):
    return np.transpose(a, axes), None


def _vjp_transpose(g, rec):
    axes = rec.kwargs["axes"]
    inverse = tuple(np.argsort(axes))
    return (transpose(g, axes=inverse),)


def _fwd_reshape(a, shape):
    return np.reshape(a, shape), None


def _vjp_reshape(g, rec):
    return (reshape(g, rec.inputs[0].shape),)


def _fwd_broadcast_to(a, shape):
    return np.broadcast_to(a, shape).copy(), None


def _vjp_broadcast_to(g, rec):
    return (sum_to(g, rec.inputs[0].shape),)


def _fwd_reduce_sum(a, axis, keepdims):
    return np.sum(a, axis=axis, keepdims=keepdims), None


def _vjp_reduce_sum(g, rec):
    (a,) = rec.inputs
    return (_restore_reduced(g, a.shape, rec.kwargs["axis"], rec.kwargs["keepdims"]),)


def _fwd_reduce_mean(a, axis, keepdims):
    return np.mean(a, axis=axis, keepdims=keepdims), None


def _vjp_reduce_mean(g, rec):
    (a,) = rec.inputs
    axes = _norm_axes(rec.kwargs["axis"], len(a.shape))
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    spread = _restore_reduced(g, a.shape, rec.kwargs["axis"], rec.kwargs["keepdims"])
    return (div(spread, _lift(float(count), spread)),)


def _row_max(a):
    """Max over the last axis, keepdims. Rows up to 16 wide halve with
    np.maximum, 2-4x faster than np.max there; a max is exact, so the bits
    are np.max's. Wider rows gain nothing from halving."""
    if a.shape[-1] > 16:
        return np.max(a, axis=-1, keepdims=True)
    m = a
    while m.shape[-1] > 1:
        n = m.shape[-1]
        h = n // 2
        half = np.maximum(m[..., :h], m[..., h : 2 * h], out=None if m is a else m[..., :h])
        if n % 2:
            np.maximum(half[..., :1], m[..., 2 * h :], out=half[..., :1])
        m = half
    return m


def _softmax_rows(a, out):
    """Softmax over the last axis of ``a`` into ``out``, which may be ``a``:
    subtract the row max, exp, divide by the row sum, all in place."""
    np.subtract(a, _row_max(a), out=out)
    np.exp(out, out=out)
    out /= np.sum(out, axis=-1, keepdims=True)
    return out


def _fwd_softmax(a, axis):
    # in place, so the forward allocates one score-sized array, not three
    out = np.empty_like(a)
    _softmax_rows(np.moveaxis(a, axis, -1), np.moveaxis(out, axis, -1))
    return out, None


def _softmax_vjp(g, s, axis):
    # fused Jacobian-vector form: s * (g - sum(g * s))
    gs = mul(g, s)
    total = reduce_sum(gs, axis=axis, keepdims=True)
    return mul(s, sub(g, total))


def _vjp_softmax(g, rec):
    return (_softmax_vjp(g, rec.out, rec.kwargs["axis"]),)


# Score elements per tile of the attention_probs forward: 2**18 float32 values
# (1 MiB) stay in one core's L2 cache from the matmul through the softmax.
_SCORE_TILE = 2**18


def _tiles(lead, count):
    """Index tuples that cut leading axes ``lead`` into C-order blocks of at
    most ``count`` entries (at least one), each a view of every operand."""
    j, inner = len(lead), 1
    while j and inner * lead[j - 1] <= count:
        j -= 1
        inner *= lead[j]
    if not j:
        yield ()
        return
    step = max(1, count // inner)
    for outer in np.ndindex(*lead[: j - 1]):
        for i in range(0, lead[j - 1], step):
            yield outer + (slice(i, i + step),)


def _prob_tiles(q, k, scale, p=None):
    """Yield ``(idx, tile)`` per leading-axis tile, where ``tile`` holds
    softmax(q[idx] @ k[idx]ᵀ * scale): a view of ``p`` if one is given, else
    of one buffer that every tile reuses. The tiles are views, so each matrix
    product is the one a whole-batch matmul makes."""
    kt = np.swapaxes(k, -1, -2)
    n, m = q.shape[-2], kt.shape[-1]
    dtype = np.result_type(q, kt)
    scale = np.asarray(scale, dtype=dtype)
    buf = None
    for idx in _tiles(q.shape[:-2], _SCORE_TILE // max(n * m, 1)):
        qi = q[idx]
        if p is not None:
            tile = p[idx]
        else:
            if buf is None:
                buf = np.empty(qi.shape[:-1] + (m,), dtype=dtype)
            # only the last tile can be shorter, along its first axis
            tile = buf[: len(qi)]
        np.matmul(qi, kt[idx], out=tile)
        tile *= scale
        _softmax_rows(tile, tile)
        yield idx, tile


def _fwd_attention_probs(q, k, scale):
    # P is the one score-sized allocation; each tile runs the matmul into it,
    # then the scale and the softmax in place
    p = np.empty(q.shape[:-1] + k.shape[-2:-1], dtype=np.result_type(q, k))
    for _ in _prob_tiles(q, k, scale, p):
        pass
    return p, None


def _vjp_attention_probs(g, rec):
    # the taped ops of the matmul -> scale mul -> softmax chain this primitive
    # replaces, in its order, so the gradients keep their bits and a
    # Hessian-vector product can differentiate them again. dk is the
    # transpose of the chain's dkᵀ; the shorter matmul(swapaxes(ds), q)
    # moves the last bits of Hessian-vector products
    q, k = rec.inputs
    ds = _softmax_vjp(g, rec.out, -1)
    ds = mul(ds, _lift(rec.kwargs["scale"], ds))
    dq = None if q.stop else matmul(ds, k)
    dk = None if k.stop else swapaxes(matmul(swapaxes(q, -1, -2), ds), -1, -2)
    return dq, dk


def _fwd_maximum_const(a, threshold):
    return np.maximum(a, threshold), None


def _vjp_maximum_const(g, rec):
    (a,) = rec.inputs
    mask = (a.value >= rec.kwargs["threshold"]).astype(a.value.dtype)
    return (mul(g, constant(mask)),)


def _fwd_gather(a, indices, axis):
    return np.take(a, indices, axis=axis), None


def _vjp_gather(g, rec):
    (a,) = rec.inputs
    return (
        scatter_add(
            g,
            indices=rec.kwargs["indices"],
            axis=rec.kwargs["axis"],
            out_shape=a.shape,
        ),
    )


def _fwd_scatter_add(g, indices, axis, out_shape):
    out = np.zeros(out_shape, dtype=g.dtype)
    moved_out = np.moveaxis(out, axis, 0)
    moved_g = np.moveaxis(g, axis, 0)
    np.add.at(moved_out, indices, moved_g)
    return out, None


def _vjp_scatter_add(g, rec):
    return (gather(g, indices=rec.kwargs["indices"], axis=rec.kwargs["axis"]),)


def _fwd_pad_zero2d(a, pads, axes):
    width = [(0, 0)] * a.ndim
    for (lo, hi), ax in zip(pads, axes):
        width[ax % a.ndim] = (lo, hi)
    return np.pad(a, width, mode="constant"), None


def _vjp_pad_zero2d(g, rec):
    (a,) = rec.inputs
    out = g
    for (lo, _hi), ax in zip(rec.kwargs["pads"], rec.kwargs["axes"]):
        n = a.shape[ax % len(a.shape)]
        out = gather(out, indices=np.arange(lo, lo + n), axis=ax)
    return (out,)


def _fwd_complex_split(z, ch_axis):
    return np.stack([z.real, z.imag], axis=ch_axis), None


def _vjp_complex_split(g, rec):
    return (complex_join(g, ch_axis=rec.kwargs["ch_axis"]),)


def _fwd_complex_join(x, ch_axis):
    re = np.take(x, 0, axis=ch_axis)
    im = np.take(x, 1, axis=ch_axis)
    return re + 1j * im, None


def _vjp_complex_join(g, rec):
    return (complex_split(g, ch_axis=rec.kwargs["ch_axis"]),)


def _fwd_channel_magnitude(x, ch_axis):
    return np.sqrt(np.sum(x * x, axis=ch_axis)), None


def _vjp_channel_magnitude(g, rec):
    (x,) = rec.inputs
    ch_axis = rec.kwargs["ch_axis"] % len(x.shape)
    tiny = float(np.finfo(np.asarray(rec.out.value).dtype).tiny)
    safe = maximum_const(rec.out, threshold=tiny)
    scale = div(g, safe)
    kept = list(x.shape)
    kept[ch_axis] = 1
    return (mul(reshape(scale, tuple(kept)), x),)


def _fwd_batch_norm_train(x, gamma, beta, axes, eps):
    mu = np.mean(x, axis=axes, keepdims=True)
    xc = x - mu
    var = np.mean(xc * xc, axis=axes, keepdims=True)
    xhat = xc / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    out = gamma * xhat + beta
    return out, None


def _vjp_batch_norm_train(g, rec):
    x, gamma, beta = rec.inputs
    axes = rec.kwargs["axes"]
    eps = rec.kwargs["eps"]
    # recomputed with taped ops so the result supports double backward
    mu = reduce_mean(x, axis=axes, keepdims=True)
    xc = sub(x, mu)
    var = reduce_mean(mul(xc, xc), axis=axes, keepdims=True)
    inv = div(_lift(1.0, x), sqrt(var + _lift(eps, x)))
    # full-shape, so the cotangents of its two uses below add before one
    # reduction; reducing each use apart changes the bits of a Hessian-vector
    # product taken through this VJP
    inv = broadcast_to(inv, x.shape)
    xhat = mul(xc, inv)
    dxhat = mul(g, gamma)
    m1 = reduce_mean(dxhat, axis=axes, keepdims=True)
    m2 = reduce_mean(mul(dxhat, xhat), axis=axes, keepdims=True)
    dx = mul(inv, sub(sub(dxhat, m1), mul(xhat, m2)))
    dgamma = sum_to(mul(g, xhat), gamma.shape)
    dbeta = sum_to(g, beta.shape)
    return dx, dgamma, dbeta


def _fwd_batch_norm_eval(x, gamma, beta, rmean, rvar, eps):
    # in place on one fresh array; the bits are (x - rmean) / sd * gamma + beta
    out = x - rmean
    out /= np.sqrt(rvar + np.asarray(eps, dtype=x.dtype))
    out *= gamma
    out += beta
    return out, None


def _vjp_batch_norm_eval(g, rec):
    x, gamma, beta, rmean, rvar = rec.inputs
    eps = rec.kwargs["eps"]
    inv = div(_lift(1.0, x), sqrt(rvar + _lift(eps, x)))
    dx = mul(g, mul(gamma, inv))
    xhat = mul(sub(x, rmean), inv)
    dgamma = sum_to(mul(g, xhat), gamma.shape)
    dbeta = sum_to(g, beta.shape)
    return dx, dgamma, dbeta, None, None


register("add", _fwd_add, _vjp_add)
register("sub", _fwd_sub, _vjp_sub)
register("neg", _fwd_neg, _vjp_neg)
register("mul", _fwd_mul, _vjp_mul)
register("div", _fwd_div, _vjp_div)
register("square", _fwd_square, _vjp_square)
register("sqrt", _fwd_sqrt, _vjp_sqrt)
register("sigmoid", _fwd_sigmoid, _vjp_sigmoid)
register("matmul", _fwd_matmul, _vjp_matmul)
register("transpose", _fwd_transpose, _vjp_transpose)
register("reshape", _fwd_reshape, _vjp_reshape)
register("broadcast_to", _fwd_broadcast_to, _vjp_broadcast_to)
register("reduce_sum", _fwd_reduce_sum, _vjp_reduce_sum)
register("reduce_mean", _fwd_reduce_mean, _vjp_reduce_mean)
register("softmax", _fwd_softmax, _vjp_softmax)
register("attention_probs", _fwd_attention_probs, _vjp_attention_probs)
register("maximum_const", _fwd_maximum_const, _vjp_maximum_const)
register("gather", _fwd_gather, _vjp_gather)
register("scatter_add", _fwd_scatter_add, _vjp_scatter_add)
register("pad_zero2d", _fwd_pad_zero2d, _vjp_pad_zero2d)
register("complex_split", _fwd_complex_split, _vjp_complex_split)
register("complex_join", _fwd_complex_join, _vjp_complex_join)
register("channel_magnitude", _fwd_channel_magnitude, _vjp_channel_magnitude)
register("batch_norm_train", _fwd_batch_norm_train, _vjp_batch_norm_train)
register("batch_norm_eval", _fwd_batch_norm_eval, _vjp_batch_norm_eval)


# ---------------------------------------------------------------------------
# public op wrappers

def add(a, b):
    return _apply("add", a, b)


def sub(a, b):
    return _apply("sub", a, b)


def neg(a):
    return _apply("neg", a)


def mul(a, b):
    return _apply("mul", a, b)


def div(a, b):
    return _apply("div", a, b)


def square(a):
    return _apply("square", a)


def sqrt(a):
    return _apply("sqrt", a)


def sigmoid(a):
    return _apply("sigmoid", a)


def silu(a):
    """x * sigmoid(x): the smooth pointwise nonlinearity used by mixers."""
    return mul(a, sigmoid(a))


def matmul(a, b):
    # 1-D operands have asymmetric numpy semantics the VJP does not cover
    if np.ndim(a.value if isinstance(a, Variable) else a) < 2 or np.ndim(
        b.value if isinstance(b, Variable) else b
    ) < 2:
        raise InvalidInputError("matmul requires operands with at least 2 dims")
    return _apply("matmul", a, b)


def transpose(a, axes):
    return _apply("transpose", a, axes=tuple(axes))


def swapaxes(a, i, j):
    axes = list(range(len(a.shape)))
    axes[i], axes[j] = axes[j], axes[i]
    return transpose(a, axes)


def reshape(a, shape):
    return _apply("reshape", a, shape=tuple(shape))


def broadcast_to(a, shape):
    if np.shape(a.value) == tuple(shape):
        return a
    return _apply("broadcast_to", a, shape=tuple(shape))


def reduce_sum(a, axis=None, keepdims=False):
    return _apply("reduce_sum", a, axis=axis, keepdims=keepdims)


def reduce_mean(a, axis=None, keepdims=False):
    return _apply("reduce_mean", a, axis=axis, keepdims=keepdims)


def softmax(a, axis=-1):
    return _apply("softmax", a, axis=axis)


def attention_probs(q, k, scale):
    """softmax(q @ kᵀ * scale) over the last axis, for (..., N, d) queries
    and (..., M, d) keys with one leading shape: the attention probabilities,
    without the score and scaled-score temporaries."""
    _check_qk(q, k)
    return _apply("attention_probs", q, k, scale=float(scale))


def _check_qk(q, k):
    qs, ks = tuple(q.shape), tuple(k.shape)
    if len(qs) < 2 or len(ks) != len(qs) or ks[:-2] + ks[-1:] != qs[:-2] + qs[-1:]:
        raise InvalidInputError(
            f"attention needs (..., N, d) queries and (..., M, d) keys, got {qs} and {ks}"
        )


def attention(q, k, v, scale):
    """softmax(q @ kᵀ * scale) @ v for (..., N, d) queries, (..., M, d) keys
    and (..., M, e) values with one leading shape.

    Taped, it is ``matmul(attention_probs(q, k, scale), v)``. Untaped (all
    three constants) it multiplies each tile of probabilities by its values
    as the tile is made, so no more than one tile of the probabilities exists
    at a time; the tiles are views, so the output has the same bits.
    """
    if not (q.stop and k.stop and v.stop):
        return matmul(attention_probs(q, k, scale), v)
    _check_qk(q, k)
    qv, vv = q.value, v.value
    if vv.ndim != qv.ndim or vv.shape[:-1] != k.shape[:-1]:
        raise InvalidInputError(f"attention needs (..., M, e) values, got {vv.shape}")
    out = np.empty(qv.shape[:-1] + vv.shape[-1:], dtype=np.result_type(qv, k.value, vv))
    for idx, tile in _prob_tiles(qv, k.value, float(scale)):
        np.matmul(tile, vv[idx], out=out[idx])
    return constant(out)


def stop_gradient(a):
    return constant(a.value)


def maximum_const(a, threshold):
    return _apply("maximum_const", a, threshold=threshold)


def gather(a, indices, axis):
    return _apply("gather", a, indices=np.asarray(indices), axis=axis)


def scatter_add(a, indices, axis, out_shape):
    return _apply(
        "scatter_add", a, indices=np.asarray(indices), axis=axis, out_shape=tuple(out_shape)
    )


def pad_zero2d(a, pads, axes=(-2, -1)):
    return _apply("pad_zero2d", a, pads=tuple(map(tuple, pads)), axes=tuple(axes))


def complex_split(z, ch_axis=-1):
    return _apply("complex_split", z, ch_axis=ch_axis)


def complex_join(x, ch_axis=-1):
    return _apply("complex_join", x, ch_axis=ch_axis)


def channel_magnitude(x, ch_axis=-1):
    return _apply("channel_magnitude", x, ch_axis=ch_axis)


def batch_norm_train(x, gamma, beta, axes, eps=1e-5):
    return _apply("batch_norm_train", x, gamma, beta, axes=tuple(axes), eps=eps)


def batch_norm_eval(x, gamma, beta, rmean, rvar, eps=1e-5):
    return _apply("batch_norm_eval", x, gamma, beta, rmean, rvar, eps=eps)


def reflect_pad2d(a, pads, axes=(-2, -1)):
    """Reflect padding on two axes, built from gathers so its adjoint
    (fold-back of mirrored contributions) is exact."""
    for (lo, hi), axis in zip(pads, axes):
        if not (lo or hi):
            continue
        n = a.shape[axis]
        if lo >= n or hi >= n:
            raise InvalidInputError(f"reflect pad ({lo},{hi}) too large for size-{n} axis")
        idx = np.concatenate(
            [np.arange(lo, 0, -1), np.arange(n), np.arange(n - 2, n - 2 - hi, -1)]
        )
        a = gather(a, idx, axis=axis)
    return a


def crop2d(a, top, left, height, width, axes=(-2, -1)):
    """Offset crop on two axes via gathers."""
    a = gather(a, np.arange(top, top + height), axis=axes[0])
    return gather(a, np.arange(left, left + width), axis=axes[1])


def subsample2d(a, stride=2, axes=(-2, -1)):
    """Every stride-th sample along two axes."""
    a = gather(a, np.arange(0, a.shape[axes[0]], stride), axis=axes[0])
    return gather(a, np.arange(0, a.shape[axes[1]], stride), axis=axes[1])


def bilinear_resize2d(a, out_h, out_w, axes=(-2, -1)):
    """Bilinear resize along two axes (half-pixel centers convention).

    Composed from gathers and constant weights, so it is linear with an exact
    adjoint under differentiation.
    """

    def axis_resize(x, n_out, axis):
        n_in = x.shape[axis]
        if n_in == n_out:
            return x
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        i0 = np.clip(np.floor(src).astype(np.int64), 0, n_in - 1)
        i1 = np.minimum(i0 + 1, n_in - 1)
        frac = np.clip(src - np.floor(src), 0.0, 1.0)
        frac = frac.astype(np.asarray(x.value).dtype)
        shape = [1] * len(x.shape)
        shape[axis % len(x.shape)] = n_out
        w1 = constant(frac.reshape(shape))
        w0 = constant((1.0 - frac).reshape(shape))
        x0 = gather(x, i0, axis=axis)
        x1 = gather(x, i1, axis=axis)
        return add(mul(x0, w0), mul(x1, w1))

    a = axis_resize(a, out_h, axes[0])
    return axis_resize(a, out_w, axes[1])


# ---------------------------------------------------------------------------
# finite-difference verification

def finite_difference_check(
    f,
    point,
    samples: int = 100,
    h: float = 1e-4,
    rng: np.random.Generator | None = None,
    analytic: dict | None = None,
) -> float:
    """Max relative error between central differences and analytic gradients.

    ``point`` is a dict name -> float64 array (a bare array is wrapped as
    {"x": array}); ``f`` receives same-named Variables and returns a scalar
    Variable. Analytic gradients come from ``backward`` unless ``analytic``
    supplies them (the hook used by the negative-control test). Errors are
    normalized by max(|gradient|, 1e-8).
    """
    bare = not isinstance(point, dict)
    point = {"x": point} if bare else dict(point)
    point = {k: np.asarray(v, dtype=np.float64) for k, v in point.items()}
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=[0, 0]))

    def call(values) -> float:
        with no_recording():
            vars_ = {k: constant(v) for k, v in values.items()}
            out = f(vars_["x"] if bare else vars_)
        return float(np.asarray(out.value))

    if analytic is None:
        with Tape():
            vars_ = {k: leaf(v, name=k) for k, v in point.items()}
            out = f(vars_["x"] if bare else vars_)
            names = list(point)
            grads = backward(out, [vars_[k] for k in names])
        analytic = {k: np.asarray(g.value) for k, g in zip(names, grads)}
    elif bare and not isinstance(analytic, dict):
        analytic = {"x": np.asarray(analytic)}

    names = sorted(point)
    total = sum(point[k].size for k in names)
    if samples >= total:
        chosen = np.arange(total)
    else:
        chosen = rng.choice(total, size=samples, replace=False)
    coords = []
    for flat in chosen:
        flat = int(flat)
        for k in names:
            if flat < point[k].size:
                coords.append((k, flat))
                break
            flat -= point[k].size

    worst = 0.0
    for name, idx in coords:
        plus = {k: v.copy() for k, v in point.items()}
        minus = {k: v.copy() for k, v in point.items()}
        plus[name].flat[idx] += h
        minus[name].flat[idx] -= h
        fd = (call(plus) - call(minus)) / (2.0 * h)
        g = float(np.asarray(analytic[name]).flat[idx])
        err = abs(fd - g) / max(abs(g), 1e-8)
        worst = max(worst, err)
    return worst
