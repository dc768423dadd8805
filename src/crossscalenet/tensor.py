"""Dense float64 tensors with reverse-mode automatic differentiation.

The numeric layer is deliberately small: it provides exactly the dense
operations the forecaster needs (batched matmul, pointwise arithmetic,
stable softmax/sigmoid, time-axis resampling, patch extraction, and
three fused ops: scaled dot-product attention in cache-sized tiles, a
scale's whole cross-patch attention built on the same tiles, and the
encoder's MLP with channel mixing) plus a define-by-run gradient tape
that is rebuilt for every forward/backward pass. Arrays are row-major
float64 throughout. Broadcasting is limited to numpy's trailing-extent
rule (missing leading axes and size-1 axes stretch); anything else
raises.

Op protocol: every op computes its output array and a backward rule over
arrays captured as it runs, then returns ``_op(data, inputs, name,
rule)``, which alone checks the output and records it on the active tape.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class NonFiniteError(ArithmeticError):
    """An operation received or produced NaN/Inf values."""


class TapeError(RuntimeError):
    """Invalid use of the gradient tape."""


def _check_finite(arr: np.ndarray, context: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {context}")
    return arr


class Tensor:
    """A dense float64 array, optionally tracked on the active gradient tape.

    ``data`` is a C-contiguous ndarray (shape plus row-major flat buffer).
    ``grad`` is filled in by ``Tape.backward`` for every requires_grad
    tensor on the tape.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Arithmetic sugar; the named functions below are the primary API.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)


# Maps the output gradient to one gradient contribution per input, None
# where an input needs no gradient.
BackwardRule = Callable[[np.ndarray], Sequence[np.ndarray | None]]


_local = threading.local()


def _stack() -> list:
    if not hasattr(_local, "stack"):
        _local.stack = []
    return _local.stack


def active_tape() -> "Tape | None":
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def suspend_tape():
    """Run a block with no active tape (pure inference)."""
    stack = _stack()
    saved, _local.stack = stack, []
    try:
        yield
    finally:
        _local.stack = saved


class Tape:
    """Ordered record of operations for one forward/backward pass.

    Single writer: one pass owns its tape exclusively. Operations are
    appended in execution order, so inputs always precede the op that
    consumes them (topological order by construction). Tensors are keyed
    by ``id()``; the tape holds every tensor it records, so no id is
    reused while it exists.
    """

    def __init__(self):
        self._tensors: dict[int, Tensor] = {}
        self._ops: list[tuple[tuple[int, ...], int, BackwardRule]] = []

    def __enter__(self) -> "Tape":
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = _stack()
        if not stack or stack[-1] is not self:
            raise TapeError("tape context exited out of order")
        stack.pop()
        return False

    def __len__(self) -> int:
        return len(self._ops)

    def record(self, inputs: Sequence[Tensor], output: Tensor, backward: BackwardRule) -> None:
        for t in (*inputs, output):
            self._tensors.setdefault(id(t), t)
        self._ops.append((tuple(id(t) for t in inputs), id(output), backward))

    def backward(self, loss: Tensor) -> None:
        """Reverse-topological gradient accumulation from a scalar loss.

        Gradients sum over fan-out. Stores them on every requires_grad
        tensor recorded on this tape (zeros if the loss does not reach it)
        and returns None.
        """
        if loss.size != 1:
            raise TapeError(f"backward expects a scalar loss, got shape {loss.shape}")
        if self._tensors.get(id(loss)) is not loss:
            raise TapeError("loss tensor is detached from this tape")
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for input_ids, output_id, rule in reversed(self._ops):
            gout = grads.get(output_id)
            if gout is None:
                continue
            for iid, contrib in zip(input_ids, rule(gout)):
                if contrib is None:
                    continue
                acc = grads.get(iid)
                grads[iid] = contrib if acc is None else acc + contrib
        for tid, t in self._tensors.items():
            if t.requires_grad:
                g = grads.get(tid)
                t.grad = np.zeros_like(t.data) if g is None else np.asarray(g)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _op(data: np.ndarray, inputs: Sequence[Tensor], name: str, rule: BackwardRule) -> Tensor:
    """Wrap an op's output and record it when a tape is active and an input needs a gradient.

    Checks the output as ``Tensor()`` does, without its conversions when
    ``data`` is already a C-contiguous float64 array of at least one axis
    (``np.ascontiguousarray`` makes a 0-d array 1-d).
    """
    if not (data.ndim and data.flags.c_contiguous and data.dtype == np.float64):
        data = np.ascontiguousarray(data, dtype=np.float64)
    if not np.isfinite(data).all():
        raise NonFiniteError(f"non-finite values produced by {name}")
    out = Tensor.__new__(Tensor)
    out.data, out.requires_grad, out.grad = data, any(t.requires_grad for t in inputs), None
    tape = active_tape() if out.requires_grad else None
    if tape is not None:
        tape.record(inputs, out, rule)
    return out


# ---------------------------------------------------------------------------
# pointwise arithmetic


def _binary(a, b, fwd, grad_a, grad_b, name: str) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    ad, bd = a.data, b.data
    try:
        data = fwd(ad, bd)
    except ValueError as exc:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from exc

    def rule(g: np.ndarray):
        ga = _unbroadcast(grad_a(g, ad, bd), a.shape) if a.requires_grad else None
        gb = _unbroadcast(grad_b(g, ad, bd), b.shape) if b.requires_grad else None
        return (ga, gb)

    return _op(data, (a, b), name, rule)


def add(a, b) -> Tensor:
    return _binary(a, b, np.add, lambda g, ad, bd: g, lambda g, ad, bd: g, "add")


def sub(a, b) -> Tensor:
    return _binary(a, b, np.subtract, lambda g, ad, bd: g, lambda g, ad, bd: -g, "sub")


def mul(a, b) -> Tensor:
    return _binary(a, b, np.multiply, lambda g, ad, bd: g * bd, lambda g, ad, bd: g * ad, "mul")


def div(a, b) -> Tensor:
    bt = _as_tensor(b)
    if np.any(bt.data == 0.0):
        raise ZeroDivisionError("div: zero divisor")
    return _binary(
        a,
        bt,
        np.divide,
        lambda g, ad, bd: g / bd,
        lambda g, ad, bd: -g * ad / (bd * bd),
        "div",
    )


def matmul(a, b) -> Tensor:
    """Batched matrix product over the last two axes.

    Leading batch extents must match or broadcast from 1 (missing leading
    axes count as 1).
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    try:
        data = np.matmul(ad, bd)
    except ValueError as exc:
        raise ShapeError(f"matmul batch extents do not broadcast: {a.shape} @ {b.shape}") from exc

    def rule(g: np.ndarray):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), a.shape) if a.requires_grad else None
        gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), b.shape) if b.requires_grad else None
        return (ga, gb)

    return _op(data, (a, b), "matmul", rule)


# ---------------------------------------------------------------------------
# nonlinearities


# Rows up to this long take their max by strided pairwise ``np.maximum``:
# numpy's reduction pays a per-row cost that dominates short rows, and the
# passes of the pairwise form cost more on long ones. On an Intel Xeon,
# over (B, L, L) stacks at B = 32 and 73, pairwise took 0.2-0.6 of the
# reduction's time up to L = 64, 0.75-0.9 at L = 72 and 1.35-1.55 at
# L = 84 and 168 (the self-attention rows at lookback 336).
_SHORT_ROW = 64


def _row_max(s: np.ndarray) -> np.ndarray:
    """``s.max(axis=-1, keepdims=True)``: max is exact in any order, so short
    rows halve by strided pairs, an odd last column folding into the first."""
    if s.shape[-1] > _SHORT_ROW:
        return s.max(axis=-1, keepdims=True)
    m = s
    while m.shape[-1] > 1:
        n = m.shape[-1]
        top = np.maximum(m[..., 0 : n - 1 : 2], m[..., 1::2])
        if n % 2:
            np.maximum(top[..., :1], m[..., -1:], out=top[..., :1])
        m = top
    return m


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    """Row-stable softmax along the last axis, in place on ``s`` (max-subtraction)."""
    s -= _row_max(s)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)
    return s


def _softmax_grad(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Input gradient of a softmax with output ``s`` and output gradient ``g``."""
    inner = (g * s).sum(axis=-1, keepdims=True)
    return (g - inner) * s


def softmax_lastdim(x) -> Tensor:
    """Row-stable softmax along the last axis.

    Normalizes one copy of the input in place, so a (B, T, T) input costs
    one extra T x T array.
    """
    x = _as_tensor(x)
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ShapeError("softmax_lastdim: empty last axis")
    s = _softmax_rows(x.data.copy())
    return _op(s, (x,), "softmax_lastdim", lambda g: (_softmax_grad(g, s),))


# Bytes of attention weights per forward tile: half of a 2 MiB per-core
# L2, so the scores stay in cache from their matmul to the one with v.
_TILE_BYTES = 1 << 20


def _attention_tiles(qd, kt, vd, scale: float, batch: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """``softmax_attention``'s forward on arrays: the context and the read-only weights.

    Takes q (..., Tq, D), the contiguous k^T (..., D, Tk) and v (..., Tk,
    Dv), whose batch extents broadcast to ``batch``. Walks the leading batch
    axis in tiles of at most ``_TILE_BYTES`` of weights, each scored,
    scaled, scanned for NaN/Inf, normalized in place and multiplied by v
    while in cache.
    """
    w = np.empty((*batch, qd.shape[-2], kt.shape[-1]))
    context = np.empty((*batch, qd.shape[-2], vd.shape[-1]))
    lead = batch or (1,)  # a 2-d call is one tile
    qb, ktb, vb = (np.broadcast_to(a, (*lead, *a.shape[-2:])) for a in (qd, kt, vd))
    wb, cb = w.reshape(*lead, *w.shape[-2:]), context.reshape(*lead, *context.shape[-2:])
    step = max(1, _TILE_BYTES // max(1, wb[:1].nbytes))
    for lo in range(0, lead[0], step):
        tile = slice(lo, lo + step)
        s = np.matmul(qb[tile], ktb[tile], out=wb[tile])
        s *= scale
        # scores only: exp(-inf) = 0 would hide a -inf score, and finite
        # scores give weights in [0, 1] (each row's max adds exp(0) = 1)
        _check_finite(s, "softmax_attention scores")
        np.matmul(_softmax_rows(s), vb[tile], out=cb[tile])
    w.setflags(write=False)
    return context, w


def _attention_grads(g, qd, kt, vd, w, scale: float, want_q=True, want_k=True, want_v=True):
    """The gradients of ``_attention_tiles``'s context for q, k and v at the
    batch shape (None where not wanted); the caller unbroadcasts them."""
    gq = gk = gv = None
    if want_q or want_k:
        gs = _softmax_grad(np.matmul(g, np.swapaxes(vd, -1, -2)), w) * scale
        if want_q:
            gq = np.matmul(gs, np.swapaxes(kt, -1, -2))
        if want_k:
            gk = np.swapaxes(np.matmul(np.swapaxes(qd, -1, -2), gs), -1, -2)
    if want_v:
        gv = np.matmul(np.swapaxes(w, -1, -2), g)
    return gq, gk, gv


def softmax_attention(q, k, v, scale: float) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention ``softmax(q @ k^T * scale) @ v`` as one tape op.

    Takes q (..., Tq, D), k (..., Tk, D) and v (..., Tk, Dv) with batch
    extents as in ``matmul``. Returns the context (..., Tq, Dv) and the
    (..., Tq, Tk) weights as a read-only ndarray, which the backward rule
    also reads. The forward runs in cache-sized tiles (``_attention_tiles``).
    Values and gradients equal those of the chain ``matmul(q,
    swap_last2(k)) * scale -> softmax_lastdim -> matmul(., v)`` bit for
    bit: each batch matrix takes that chain's numpy calls, in its order.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeError(f"softmax_attention needs >=2-d operands, got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2] or k.shape[-2] < 1:
        raise ShapeError(f"softmax_attention: q {q.shape}, k {k.shape}, v {v.shape} do not align")
    try:
        batch = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    except ValueError as exc:
        raise ShapeError(f"softmax_attention batch extents do not broadcast: {q.shape}, {k.shape}, {v.shape}") from exc
    qd, vd = q.data, v.data
    kt = np.ascontiguousarray(np.swapaxes(k.data, -1, -2))
    context, w = _attention_tiles(qd, kt, vd, scale, batch)

    def rule(g: np.ndarray):
        grads = _attention_grads(g, qd, kt, vd, w, scale, q.requires_grad, k.requires_grad, v.requires_grad)
        return tuple(None if a is None else _unbroadcast(a, t.shape) for a, t in zip(grads, (q, k, v)))

    return _op(context, (q, k, v), "softmax_attention", rule), w


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    s = np.empty_like(xd)
    pos = xd >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    s[~pos] = ex / (1.0 + ex)
    return _op(s, (x,), "sigmoid", lambda g: (g * s * (1.0 - s),))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_tanh(xd: np.ndarray) -> np.ndarray:
    """tanh(c * (x + a * x^3)) of the GELU approximation, in one new array."""
    t = _GELU_A * (xd * xd)
    t *= xd
    t += xd
    t *= _GELU_C
    return np.tanh(t, out=t)


def _gelu_slope(xd: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The GELU's derivative at ``xd``, given its ``_gelu_tanh``."""
    dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * (xd * xd))
    return 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner


def gelu(x) -> Tensor:
    """Smooth GELU (tanh approximation)."""
    x = _as_tensor(x)
    xd = x.data
    t = _gelu_tanh(xd)
    return _op(0.5 * xd * (1.0 + t), (x,), "gelu", lambda g: (g * _gelu_slope(xd, t),))


def encoder_mlp(x, w1, b1, w2, b2, wc, bc) -> Tensor:
    """Temporal MLP then channel mixing with a residual add, as one tape op.

    Takes x (..., D, T), w1 (T, K), b1 (K,), w2 (K, H), b2 (H,), wc
    (D, D) and bc (D,); with ``h = gelu(x @ w1 + b1) @ w2 + b2`` returns
    ``h + (wc^T @ h + bc[:, None])``, (..., D, H). Values and gradients
    equal those of the chain of ``matmul``, ``add``, ``gelu``,
    ``swap_last2`` and ``reshape`` ops bit for bit: the forward makes that
    chain's numpy calls in its order, in place where the chain made a new
    array, and the backward sums h's gradient as the tape would, the
    residual's contribution first. Each array the chain scanned for
    NaN/Inf is scanned, a bias add scanning its matmul's product.
    """
    inputs = tuple(_as_tensor(a) for a in (x, w1, b1, w2, b2, wc, bc))
    x, w1, b1, w2, b2, wc, bc = inputs
    d, k, h_len = x.shape[-2:-1], w1.shape[-1:], w2.shape[-1:]
    if (x.ndim < 2 or w1.shape != (x.shape[-1], *k) or b1.shape != k or w2.shape != (*k, *h_len)
            or b2.shape != h_len or wc.shape != (*d, *d) or bc.shape != d):
        raise ShapeError(
            f"encoder_mlp: x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, w2 {w2.shape}, "
            f"b2 {b2.shape}, wc {wc.shape}, bc {bc.shape} do not align"
        )
    xd, w1d, w2d = x.data, w1.data, w2.data
    hid = np.matmul(xd, w1d)
    hid += b1.data
    t = _gelu_tanh(_check_finite(hid, "encoder_mlp"))
    act = 0.5 * hid
    act *= 1.0 + t
    h = np.matmul(_check_finite(act, "encoder_mlp"), w2d)
    h += b2.data
    wct = np.ascontiguousarray(np.swapaxes(wc.data, -1, -2))
    out = np.matmul(wct, _check_finite(h, "encoder_mlp"))
    out += bc.data.reshape(-1, 1)
    _check_finite(out, "encoder_mlp")
    out += h  # the residual; ``_op`` scans the sum

    def rule(g: np.ndarray):
        gx = gw1 = gb1 = gw2 = gb2 = gwc = gbc = None
        if wc.requires_grad:
            gwc = np.swapaxes(_unbroadcast(np.matmul(g, np.swapaxes(h, -1, -2)), wct.shape), -1, -2)
        if bc.requires_grad:
            gbc = _unbroadcast(g, (*d, 1)).reshape(d)
        if any(a.requires_grad for a in inputs[:5]):  # h needs a gradient
            gh = g + np.matmul(np.swapaxes(wct, -1, -2), g)
            if b2.requires_grad:
                gb2 = _unbroadcast(gh, h_len)
            if w2.requires_grad:
                gw2 = _unbroadcast(np.matmul(np.swapaxes(act, -1, -2), gh), w2.shape)
        if any(a.requires_grad for a in inputs[:3]):  # and so does the hidden layer
            ghid = np.matmul(gh, np.swapaxes(w2d, -1, -2))
            ghid *= _gelu_slope(hid, t)
            if b1.requires_grad:
                gb1 = _unbroadcast(ghid, k)
            if w1.requires_grad:
                gw1 = _unbroadcast(np.matmul(np.swapaxes(xd, -1, -2), ghid), w1.shape)
            if x.requires_grad:
                gx = _unbroadcast(np.matmul(ghid, np.swapaxes(w1d, -1, -2)), x.shape)
        return (gx, gw1, gb1, gw2, gb2, gwc, gbc)

    return _op(out, inputs, "encoder_mlp", rule)


def sqrt(x) -> Tensor:
    """Pointwise square root; differentiable only on strictly positive input."""
    x = _as_tensor(x)
    if np.any(x.data < 0.0):
        raise NonFiniteError("sqrt of negative input")
    r = np.sqrt(x.data)
    return _op(r, (x,), "sqrt", lambda g: (g * 0.5 / r,))


# ---------------------------------------------------------------------------
# reductions and shape ops


def _normalize_axis(axis: int, ndim: int, name: str) -> int:
    if not -ndim <= axis < ndim:
        raise ShapeError(f"{name}: axis {axis} out of range for {ndim}-d tensor")
    return axis % ndim


def mean_axis(x, axis: int) -> Tensor:
    """Arithmetic mean along ``axis``; the axis is removed."""
    x = _as_tensor(x)
    axis = _normalize_axis(axis, x.ndim, "mean_axis")
    n = x.shape[axis]
    return _op(x.data.mean(axis=axis), (x,), "mean_axis",
               lambda g: (np.broadcast_to(np.expand_dims(g / n, axis), x.shape),))


def sum_all(x) -> Tensor:
    x = _as_tensor(x)
    return _op(np.asarray(x.data.sum()), (x,), "sum_all", lambda g: (np.broadcast_to(g, x.shape),))


def mean_all(x) -> Tensor:
    x = _as_tensor(x)
    n = x.size
    return _op(np.asarray(x.data.mean()), (x,), "mean_all", lambda g: (np.broadcast_to(g / n, x.shape),))


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    return _op(x.data.reshape(tuple(shape)), (x,), "reshape", lambda g: (g.reshape(x.shape),))


def swap_last2(x) -> Tensor:
    """Transpose the last two axes."""
    x = _as_tensor(x)
    if x.ndim < 2:
        raise ShapeError("swap_last2 needs a >=2-d tensor")
    return _op(np.swapaxes(x.data, -1, -2), (x,), "swap_last2", lambda g: (np.swapaxes(g, -1, -2),))


def broadcast_to(x, shape: Sequence[int]) -> Tensor:
    """Stretch size-1 (or missing leading) axes up to ``shape``."""
    x = _as_tensor(x)
    shape = tuple(shape)
    try:
        data = np.broadcast_to(x.data, shape)
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {x.shape} to {shape}") from exc
    return _op(np.ascontiguousarray(data), (x,), "broadcast_to", lambda g: (_unbroadcast(g, x.shape),))


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenate along an existing axis."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ShapeError("concat of zero tensors")
    axis = _normalize_axis(axis, ts[0].ndim, "concat")
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as exc:
        raise ShapeError("concat: incompatible shapes") from exc

    def rule(g: np.ndarray):
        pieces = np.split(g, np.cumsum([t.shape[axis] for t in ts])[:-1], axis=axis)
        return tuple(p if t.requires_grad else None for p, t in zip(pieces, ts))

    return _op(data, ts, "concat", rule)


def take_lastdim(x, indices: Sequence[int]) -> Tensor:
    """Select columns along the last axis."""
    x = _as_tensor(x)
    idx = [int(i) for i in indices]
    for i in idx:
        if not -x.shape[-1] <= i < x.shape[-1]:
            raise ShapeError(f"take_lastdim: index {i} out of range for extent {x.shape[-1]}")

    def rule(g: np.ndarray):
        gx = np.zeros(x.shape)
        for pos, col in enumerate(idx):
            gx[..., col] += g[..., pos]
        return (gx,)

    return _op(x.data[..., idx], (x,), "take_lastdim", rule)


# ---------------------------------------------------------------------------
# time-axis linear resampling ops
#
# Each of these is a fixed linear map W along the last axis, so the
# backward rule is exactly g @ W. Moving average and interpolation apply
# out = x @ W.T with an auditable precomputed matrix; window means, whose
# W is almost all zeros, sum strided pairs instead.


def moving_average_matrix(length: int, kernel: int) -> np.ndarray:
    """(T, T) centered moving average with replicate padding: trend = x @ M.T."""
    half = (kernel - 1) // 2
    w = np.zeros((length, length))
    for row in range(length):
        for off in range(-half, half + 1):
            col = min(max(row + off, 0), length - 1)
            w[row, col] += 1.0 / kernel
    return w


@lru_cache(maxsize=None)
def _interp_matrix(length: int, new_len: int) -> np.ndarray:
    w = np.zeros((new_len, length))
    if new_len == 1:
        w[0, :] = 1.0 / length
    elif length == 1:
        w[:, 0] = 1.0
    else:
        scale = (length - 1) / (new_len - 1)
        for row in range(new_len):
            pos = row * scale
            lo = min(int(math.floor(pos)), length - 1)
            frac = pos - lo
            if frac == 0.0 or lo == length - 1:
                w[row, lo] = 1.0
            else:
                w[row, lo] = 1.0 - frac
                w[row, lo + 1] = frac
    w.setflags(write=False)
    return w


def _apply_time_linear(x: Tensor, w: np.ndarray, name: str) -> Tensor:
    return _op(np.matmul(x.data, w.T), (x,), name, lambda g: (np.matmul(g, w),))


def avg_downsample(x, factor: int) -> Tensor:
    """Non-overlapping window means along the last axis.

    A ragged tail window is averaged over its actual length; factor 1 is
    the identity. Pair sums of strided slices halve the window width
    while it is even, any odd rest is summed, and each sum is scaled by
    1/length: for factor 2 that is ``x @ W.T`` exactly, for factor 4 the
    order of an OpenBLAS product; others may differ in the last bits.
    The backward, ``g * (1/length)`` repeated per window, is ``g @ W``.
    """
    x = _as_tensor(x)
    if factor < 1:
        raise ShapeError(f"avg_downsample: factor must be >= 1, got {factor}")
    f = int(factor)
    n, tail = divmod(x.shape[-1], f)
    s, width = x.data[..., : n * f], f
    while width % 2 == 0:
        s, width = s[..., 0::2] + s[..., 1::2], width // 2
    if width > 1:
        s = s.reshape(*s.shape[:-1], n, width).sum(axis=-1)
    if tail:
        s = np.concatenate([s, x.data[..., n * f :].sum(axis=-1, keepdims=True)], axis=-1)
    sizes = np.array([f] * n + [tail] * bool(tail))
    inv = 1.0 / sizes
    return _op(s * inv, (x,), "avg_downsample", lambda g: (np.repeat(g * inv, sizes, axis=-1),))


def moving_average(x, kernel: int) -> Tensor:
    """Centered moving average along the last axis with replicate padding.

    Output length equals input length. Kernel must be odd and at most
    2*length - 1; kernel 1 is the identity.
    """
    x = _as_tensor(x)
    length = x.shape[-1]
    if kernel % 2 == 0:
        raise ShapeError(f"moving_average: kernel must be odd, got {kernel}")
    if kernel < 1 or kernel > 2 * length - 1:
        raise ShapeError(f"moving_average: kernel {kernel} invalid for length {length}")
    return _apply_time_linear(x, moving_average_matrix(length, int(kernel)), "moving_average")


def linear_interp(x, new_len: int) -> Tensor:
    """Piecewise-linear resampling along the last axis, endpoints aligned.

    Output position t samples input position t*(T-1)/(new_len-1);
    new_len 1 returns the mean. Resampling to the same length is the
    identity.
    """
    x = _as_tensor(x)
    if new_len < 1:
        raise ShapeError(f"linear_interp: new_len must be >= 1, got {new_len}")
    return _apply_time_linear(x, _interp_matrix(x.shape[-1], int(new_len)), "linear_interp")


# ---------------------------------------------------------------------------
# patch extraction


def _patches(xd: np.ndarray, p: int) -> np.ndarray:
    """(B, D, T) -> contiguous (B, N, P, D) patches, right-padded by the final time step."""
    b, d, t = xd.shape
    n = -(-t // p)
    if n * p > t:
        xd = np.concatenate([xd, np.repeat(xd[:, :, -1:], n * p - t, axis=2)], axis=2)
    return np.ascontiguousarray(np.swapaxes(xd, 1, 2).reshape(b, n, p, d))


def _patches_grad(g: np.ndarray, t: int) -> np.ndarray:
    """The (B, D, T) gradient of ``_patches`` from its (B, N, P, D) one:
    each padded step's gradient adds to the final time step."""
    b, n, p, d = g.shape
    flat = g.reshape(b, n * p, d)
    gx = np.swapaxes(flat[:, :t, :], 1, 2).copy()
    if n * p > t:
        gx[:, :, -1] += flat[:, t:, :].sum(axis=1)
    return gx


def _unpatch(xd: np.ndarray, t: int) -> np.ndarray:
    """(B, N, P, D) -> (B, D, t), dropping the padding (a view)."""
    b, n, p, d = xd.shape
    return np.swapaxes(xd.reshape(b, n * p, d)[:, :t, :], 1, 2)


def _unpatch_grad(g: np.ndarray, shape: tuple[int, int, int, int]) -> np.ndarray:
    """The (B, N, P, D) gradient of ``_unpatch`` from its (B, D, t) one, zero on the padding."""
    b, n, p, d = shape
    gx = np.zeros((b, n * p, d))
    gx[:, : g.shape[-1], :] = np.swapaxes(g, 1, 2)
    return gx.reshape(shape)


def patchify(x, patch_len: int) -> Tensor:
    """Split channels-first (B, D, T) into (B, N, P, D) patches of P time steps.

    N = ceil(T/P); when P does not divide T the sequence is right-padded
    by replicating the final time step.
    """
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"patchify expects (B, D, T), got {x.shape}")
    if patch_len < 1:
        raise ShapeError(f"patchify: patch_len must be >= 1, got {patch_len}")
    t = x.shape[-1]
    return _op(_patches(x.data, int(patch_len)), (x,), "patchify", lambda g: (_patches_grad(g, t),))


def unpatchify(x, seq_len: int) -> Tensor:
    """Invert ``patchify``: (B, N, P, D) back to (B, D, seq_len), dropping padding."""
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"unpatchify expects (B, N, P, D), got {x.shape}")
    b, n, p, d = x.shape
    if not 1 <= seq_len <= n * p:
        raise ShapeError(f"unpatchify: seq_len {seq_len} invalid for {n}x{p} patches")
    return _op(_unpatch(x.data, seq_len), (x,), "unpatchify", lambda g: (_unpatch_grad(g, x.shape),))


# ---------------------------------------------------------------------------
# cross-patch attention


def _patch_means(patches: np.ndarray) -> np.ndarray:
    """(B, N, P, D) -> (B, N, D) means over P: ``patches.mean(axis=2)`` bit
    for bit on contiguous patches, whose P rows numpy adds in order before
    one divide, without its reduction's per-row cost."""
    acc = patches[:, :, 0].copy()
    for i in range(1, patches.shape[2]):
        acc += patches[:, :, i]
    acc /= patches.shape[2]
    return acc


def _project(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``np.matmul(x, w)`` for an (..., M, D) stack and a (D, E) matrix.

    Runs as one 2-d product over the stack's rows, about twice as fast,
    which gives the batched product's bytes on OpenBLAS (the tests check
    it). One-row matrices keep the batched call: numpy gives them a
    vector-matrix kernel that rounds differently.
    """
    if x.shape[-2] == 1:
        return np.matmul(x, w)
    return np.matmul(x.reshape(-1, x.shape[-1]), w).reshape(*x.shape[:-1], w.shape[-1])


def _attention_path(queries: np.ndarray, keys: np.ndarray, projections, scale: float):
    """One path of ``patched_attention``: project queries, keys and values
    (the values from the queries) and attend. Returns the context, the
    read-only weights and the projected (q, k^T, v) the backward reads."""
    w_query, w_key, w_value = projections
    q, v = _project(queries, w_query), _project(queries, w_value)
    kt = np.ascontiguousarray(np.swapaxes(_project(keys, w_key), -1, -2))
    context, w = _attention_tiles(q, kt, v, scale, queries.shape[:-2])
    return context, w, (q, kt, v)


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient of ``np.matmul(a, w)`` for a (D, E) w, summed over the
    batch as ``matmul``'s rule sums it."""
    return _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), (a.shape[-1], g.shape[-1]))


def patched_attention(
    x, key_patch, key_local, patch_len: int, weights: Sequence
) -> tuple[Tensor, np.ndarray, np.ndarray | None]:
    """Cross-patch attention over channels-first streams as one tape op.

    Takes the input x (B, D, T), the patch path's key stream, the local
    path's key stream or None (no local path), the patch length P and the
    (D, D) projections ``w_query, w_key, w_value`` then, with a local path,
    ``w_local_query, w_local_key, w_local_value``. Either key may be x or
    the other key itself. Returns the context (B, D, T), the (B, N, N)
    patch weights and the (B, N, P, P) local weights (None without a local
    path), both read-only.

    The patch path mean-pools each stream's patches, projects the pooled
    input to queries and values and the pooled key stream to keys, and
    attends across patches; its context broadcasts over each patch's P
    steps. The local path attends among the P steps of each patch, queries
    and values from the input's patches, keys from the local key's.

    Values and gradients equal those of the chain ``patchify`` ->
    ``mean_axis`` and ``matmul`` -> ``softmax_attention`` -> ``reshape``
    -> ``add`` -> ``unpatchify`` (``attention.patch_attention`` and
    ``attention.local_attention``) bit for bit, on OpenBLAS (see
    ``_project``). The forward makes the
    chain's numpy calls but for three layout changes that keep every
    byte: the projections run over rows as one 2-d product
    (``_project``), short softmax rows take their max by pairs
    (``_row_max``) and the patch means add rows in order
    (``_patch_means``). The backward repeats the chain's rules in reverse,
    its input-gradient products also over rows, and sums a stream's
    fan-out in the tape's order. Non-finite values reach the scanned
    scores or the output.
    """
    x, key_patch = _as_tensor(x), _as_tensor(key_patch)
    local = key_local is not None
    key_local = _as_tensor(key_local) if local else None
    ws = tuple(_as_tensor(w) for w in weights)
    if x.ndim != 3:
        raise ShapeError(f"patched_attention expects (B, D, T), got {x.shape}")
    if patch_len < 1:
        raise ShapeError(f"patched_attention: patch_len must be >= 1, got {patch_len}")
    b, d, t = x.shape
    if len(ws) != (6 if local else 3) or any(w.shape != (d, d) for w in ws):
        raise ShapeError(f"patched_attention: projections {[w.shape for w in ws]} for input width {d}")
    # each distinct stream once, the input first, as the chain patchifies them
    streams = list({id(s): s for s in (x, key_patch, key_local) if s is not None}.values())
    for s in streams[1:]:
        if s.shape != x.shape:
            raise ShapeError(f"patched_attention: key {s.shape} and input {x.shape} differ")
    p = int(patch_len)
    patches = {id(s): _patches(s.data, p) for s in streams}
    n = patches[id(x)].shape[1]
    scale = 1.0 / np.sqrt(d)
    wd = [w.data for w in ws]

    px = patches[id(x)]
    pooled_q = _patch_means(px)
    pooled_k = pooled_q if key_patch is x else _patch_means(patches[id(key_patch)])
    context, w_patch, patch_saved = _attention_path(pooled_q, pooled_k, wd[:3], scale)
    context = context.reshape(b, n, 1, d)
    w_local = local_saved = None
    if local:
        flat_q = px.reshape(b * n, p, d)
        flat_k = patches[id(key_local)].reshape(b * n, p, d)
        ctx_local, w_flat, local_saved = _attention_path(flat_q, flat_k, wd[3:], scale)
        ctx_local = ctx_local.reshape(b, n, p, d)
        ctx_local += context
        context = ctx_local
        w_local = w_flat.reshape(b, n, p, p)
    inputs = (*streams, *ws)
    if active_tape() is None or not any(t.requires_grad for t in inputs):
        # no backward: drop the projections before the output copy, as the
        # chain's ops did; kept, they raised the peak RSS of tape-free
        # inference at lookback 336 by about 0.7 MB
        patch_saved = local_saved = None

    def rule(g: np.ndarray):
        # per stream, its patches' gradient contributions in the tape's order
        parts: dict[int, list[np.ndarray]] = {id(s): [] for s in streams}
        gc = _unpatch_grad(g, (b, n, p, d))
        products = []  # (input, output gradient) of each projection, for its weight
        if local:
            gcp = _unbroadcast(gc, (b, n, 1, d)).reshape(b, n, d)
            glq, glk, glv = _attention_grads(gc.reshape(b * n, p, d), *local_saved, w_flat, scale)
            products = [(flat_q, glq), (flat_k, glk), (flat_q, glv)]
            if key_local.requires_grad:
                parts[id(key_local)].append(_project(glk, wd[4].T).reshape(b, n, p, d))
            if x.requires_grad:
                parts[id(x)].append((_project(glv, wd[5].T) + _project(glq, wd[3].T)).reshape(b, n, p, d))
        else:
            gcp = gc.reshape(b, n, d)
        gq, gk, gv = _attention_grads(gcp, *patch_saved, w_patch, scale)
        products = [(pooled_q, gq), (pooled_k, gk), (pooled_q, gv), *products]
        gpk = _project(gk, wd[1].T) if key_patch.requires_grad else None
        if x.requires_grad:
            gpq = _project(gv, wd[2].T)
            if key_patch is x:  # the pooled input feeds q, k and v
                gpq = gpq + gpk
            gpq = gpq + _project(gq, wd[0].T)
            parts[id(x)].append(np.broadcast_to(np.expand_dims(gpq / p, 2), px.shape))
        if key_patch is not x and key_patch.requires_grad:
            parts[id(key_patch)].append(np.broadcast_to(np.expand_dims(gpk / p, 2), px.shape))
        # sum(rest, first) adds left to right, as the tape accumulates
        g_streams = [_patches_grad(sum(parts[id(s)][1:], parts[id(s)][0]), t) if s.requires_grad else None
                     for s in streams]
        g_weights = [_weight_grad(a, ga) if w.requires_grad else None for (a, ga), w in zip(products, ws)]
        return (*g_streams, *g_weights)

    out = _op(_unpatch(context, t), inputs, "patched_attention", rule)
    return out, w_patch, w_local


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Outcome of one tape-vs-central-differences comparison."""

    passed: bool
    max_rel_error: float
    worst_index: tuple[int, ...] | None
    eps: float
    tol: float
    analytic: np.ndarray
    numeric: np.ndarray

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"grad_check {status}: max_rel_error={self.max_rel_error:.3e} (tol {self.tol:g})"


# Relative error is measured against max(|analytic|, |numeric|, floor);
# the floor keeps zero-gradient coordinates from dividing FD noise by ~0.
GRAD_CHECK_SCALE_FLOOR = 1e-3


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor | np.ndarray,
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Compare the tape gradient of a scalar function against central differences.

    ``f`` must be deterministic and scalar-valued. Failures are reported,
    never raised.
    """
    x0 = np.array(x.data if isinstance(x, Tensor) else x, dtype=np.float64)

    with suspend_tape():
        with Tape() as tape:
            xt = Tensor(x0.copy(), requires_grad=True)
            y = f(xt)
            if y.size != 1:
                raise ShapeError(f"grad_check: f must be scalar-valued, got shape {y.shape}")
            tape.backward(y)
        analytic = xt.grad.copy()

        numeric = np.zeros_like(x0)
        perturbed = x0.copy()
        for idx in np.ndindex(x0.shape):
            perturbed[idx] = x0[idx] + eps
            hi = f(Tensor(perturbed)).item()
            perturbed[idx] = x0[idx] - eps
            lo = f(Tensor(perturbed)).item()
            perturbed[idx] = x0[idx]
            numeric[idx] = (hi - lo) / (2.0 * eps)

    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), GRAD_CHECK_SCALE_FLOOR)
    rel = np.abs(analytic - numeric) / scale
    if rel.size == 0:
        return GradCheckReport(True, 0.0, None, eps, tol, analytic, numeric)
    worst = np.unravel_index(int(np.argmax(rel)), rel.shape)
    max_rel = float(rel[worst])
    return GradCheckReport(max_rel <= tol, max_rel, worst, eps, tol, analytic, numeric)
