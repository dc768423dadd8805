"""Dense float64 tensors with reverse-mode automatic differentiation.

The numeric layer is deliberately small: it provides exactly the dense
operations the forecaster needs (batched matmul, pointwise arithmetic,
stable softmax/sigmoid, fused scaled dot-product attention, time-axis
resampling, patch extraction) plus a define-by-run gradient tape that
is rebuilt for every forward/backward pass. Arrays are row-major float64
throughout. Broadcasting is limited to numpy's trailing-extent rule
(missing leading axes and size-1 axes stretch); anything else raises.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class NonFiniteError(ArithmeticError):
    """An operation received or produced NaN/Inf values."""


class TapeError(RuntimeError):
    """Invalid use of the gradient tape."""


def _check_finite(arr: np.ndarray, context: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in {context}")
    return arr


class Tensor:
    """A dense float64 array, optionally tracked on the active gradient tape.

    ``data`` is a C-contiguous ndarray (shape plus row-major flat buffer).
    ``node_id`` is assigned lazily by the tape a tensor first participates
    in; it is only meaningful together with that tape. ``grad`` is filled
    in by ``Tape.backward`` for every requires_grad tensor on the tape.
    """

    __slots__ = ("data", "requires_grad", "node_id", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        _check_finite(arr, "tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node_id: int | None = None
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

    @property
    def flat(self) -> np.ndarray:
        """Row-major flat view of the buffer."""
        return self.data.reshape(-1)

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

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


BackwardRule = Callable[[np.ndarray], Sequence[np.ndarray | None]]


@dataclass
class TapeOp:
    """One recorded operation: input node ids, output node id, backward rule.

    The rule maps the output gradient to per-input gradient contributions
    (aligned with ``input_ids``, None where an input needs no gradient).
    """

    input_ids: tuple[int, ...]
    output_id: int
    backward: BackwardRule


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
    consumes them (topological order by construction).
    """

    def __init__(self):
        self._tensors: list[Tensor] = []
        self._ops: list[TapeOp] = []

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

    def register(self, t: Tensor) -> int:
        nid = t.node_id
        if nid is not None and nid < len(self._tensors) and self._tensors[nid] is t:
            return nid
        nid = len(self._tensors)
        self._tensors.append(t)
        t.node_id = nid
        return nid

    def record(self, inputs: Sequence[Tensor], output: Tensor, backward: BackwardRule) -> None:
        input_ids = tuple(self.register(t) for t in inputs)
        output_id = self.register(output)
        self._ops.append(TapeOp(input_ids, output_id, backward))

    def _owns(self, t: Tensor) -> bool:
        nid = t.node_id
        return nid is not None and nid < len(self._tensors) and self._tensors[nid] is t

    def backward(self, loss: Tensor) -> dict[int, np.ndarray]:
        """Reverse-topological gradient accumulation from a scalar loss.

        Gradients sum over fan-out. Returns the node-id -> gradient map and
        stores gradients on every requires_grad tensor registered on this
        tape (zeros if the loss does not reach it).
        """
        if loss.size != 1:
            raise TapeError(f"backward expects a scalar loss, got shape {loss.shape}")
        if not self._owns(loss):
            raise TapeError("loss tensor is detached from this tape")
        grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
        for op in reversed(self._ops):
            gout = grads.get(op.output_id)
            if gout is None:
                continue
            contribs = op.backward(gout)
            for iid, contrib in zip(op.input_ids, contribs):
                if contrib is None:
                    continue
                acc = grads.get(iid)
                grads[iid] = contrib if acc is None else acc + contrib
        for t in self._tensors:
            if t.requires_grad:
                g = grads.get(t.node_id)
                t.grad = np.zeros_like(t.data) if g is None else np.asarray(g)
        return grads


def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Backward through the active tape (convenience wrapper)."""
    tape = active_tape()
    if tape is None:
        raise TapeError("backward() called with no active tape")
    return tape.backward(loss)


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


def _result(data: np.ndarray, inputs: Sequence[Tensor], context: str) -> tuple[Tensor, "Tape | None"]:
    try:
        out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    except NonFiniteError:
        raise NonFiniteError(f"non-finite values produced by {context}") from None
    tape = active_tape() if out.requires_grad else None
    return out, tape


# ---------------------------------------------------------------------------
# pointwise arithmetic


def _binary(a, b, fwd, grad_a, grad_b, name: str) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    try:
        data = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from exc
    out, tape = _result(data, (a, b), name)
    if tape is not None:
        ad, bd = a.data, b.data
        ash, bsh = a.shape, b.shape
        need_a, need_b = a.requires_grad, b.requires_grad

        def rule(g: np.ndarray):
            ga = _unbroadcast(grad_a(g, ad, bd), ash) if need_a else None
            gb = _unbroadcast(grad_b(g, ad, bd), bsh) if need_b else None
            return (ga, gb)

        tape.record((a, b), out, rule)
    return out


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
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"matmul batch extents do not broadcast: {a.shape} @ {b.shape}") from exc
    out, tape = _result(data, (a, b), "matmul")
    if tape is not None:
        ad, bd = a.data, b.data
        ash, bsh = a.shape, b.shape
        need_a, need_b = a.requires_grad, b.requires_grad

        def rule(g: np.ndarray):
            ga = gb = None
            if need_a:
                ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ash)
            if need_b:
                gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bsh)
            return (ga, gb)

        tape.record((a, b), out, rule)
    return out


# ---------------------------------------------------------------------------
# nonlinearities


def _softmax_rows(s: np.ndarray) -> np.ndarray:
    """Row-stable softmax along the last axis, in place on ``s`` (max-subtraction)."""
    s -= s.max(axis=-1, keepdims=True)
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
    out, tape = _result(s, (x,), "softmax_lastdim")
    if tape is not None:
        tape.record((x,), out, lambda g: (_softmax_grad(g, s),))
    return out


def softmax_attention(q, k, v, scale: float) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention ``softmax(q @ k^T * scale) @ v`` as one tape op.

    Takes q (..., Tq, D), k (..., Tk, D) and v (..., Tk, Dv) with batch
    extents as in ``matmul``. Returns the context (..., Tq, Dv) and the
    (..., Tq, Tk) weights as a read-only ndarray, which the backward rule
    also reads. The scores are built in one array, then scaled and
    normalized in place. Values and gradients equal those of the chain
    ``matmul(q, swap_last2(k)) * scale -> softmax_lastdim -> matmul(., v)``
    bit for bit: the backward runs that chain's numpy calls in its order.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeError(f"softmax_attention needs >=2-d operands, got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2] or k.shape[-2] < 1:
        raise ShapeError(f"softmax_attention: q {q.shape}, k {k.shape}, v {v.shape} do not align")
    try:
        np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    except ValueError as exc:
        raise ShapeError(f"softmax_attention batch extents do not broadcast: {q.shape}, {k.shape}, {v.shape}") from exc
    kt = np.ascontiguousarray(np.swapaxes(k.data, -1, -2))
    w = np.matmul(q.data, kt)
    w *= scale
    # scores before weights: exp(-inf) = 0 would hide a -inf score
    _check_finite(w, "softmax_attention scores")
    _check_finite(_softmax_rows(w), "softmax_attention weights")
    w.setflags(write=False)
    out, tape = _result(np.matmul(w, v.data), (q, k, v), "softmax_attention")
    if tape is not None:
        qd, vd = q.data, v.data
        qsh, ksh, vsh = q.shape, k.shape, v.shape
        need_q, need_k, need_v = q.requires_grad, k.requires_grad, v.requires_grad

        def rule(g: np.ndarray):
            gq = gk = gv = None
            if need_q or need_k:
                gs = _softmax_grad(np.matmul(g, np.swapaxes(vd, -1, -2)), w) * scale
                if need_q:
                    gq = _unbroadcast(np.matmul(gs, np.swapaxes(kt, -1, -2)), qsh)
                if need_k:
                    gk = _unbroadcast(np.swapaxes(np.matmul(np.swapaxes(qd, -1, -2), gs), -1, -2), ksh)
            if need_v:
                gv = _unbroadcast(np.matmul(np.swapaxes(w, -1, -2), g), vsh)
            return (gq, gk, gv)

        tape.record((q, k, v), out, rule)
    return out, w


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    xd = x.data
    s = np.empty_like(xd)
    pos = xd >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    s[~pos] = ex / (1.0 + ex)
    out, tape = _result(s, (x,), "sigmoid")
    if tape is not None:
        tape.record((x,), out, lambda g: (g * s * (1.0 - s),))
    return out


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x) -> Tensor:
    """Smooth GELU (tanh approximation)."""
    x = _as_tensor(x)
    xd = x.data
    sq = xd * xd
    t = np.tanh(_GELU_C * (xd + _GELU_A * sq * xd))
    out, tape = _result(0.5 * xd * (1.0 + t), (x,), "gelu")
    if tape is not None:

        def rule(g: np.ndarray):
            dinner = _GELU_C * (1.0 + 3.0 * _GELU_A * sq)
            return (g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * dinner),)

        tape.record((x,), out, rule)
    return out


def sqrt(x) -> Tensor:
    """Pointwise square root; differentiable only on strictly positive input."""
    x = _as_tensor(x)
    if np.any(x.data < 0.0):
        raise NonFiniteError("sqrt of negative input")
    r = np.sqrt(x.data)
    out, tape = _result(r, (x,), "sqrt")
    if tape is not None:
        tape.record((x,), out, lambda g: (g * 0.5 / r,))
    return out


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
    out, tape = _result(x.data.mean(axis=axis), (x,), "mean_axis")
    if tape is not None:
        shape = x.shape

        def rule(g: np.ndarray):
            return (np.broadcast_to(np.expand_dims(g / n, axis), shape),)

        tape.record((x,), out, rule)
    return out


def sum_all(x) -> Tensor:
    x = _as_tensor(x)
    out, tape = _result(np.asarray(x.data.sum()), (x,), "sum_all")
    if tape is not None:
        shape = x.shape
        tape.record((x,), out, lambda g: (np.broadcast_to(g, shape),))
    return out


def mean_all(x) -> Tensor:
    x = _as_tensor(x)
    n = x.size
    out, tape = _result(np.asarray(x.data.mean()), (x,), "mean_all")
    if tape is not None:
        shape = x.shape
        tape.record((x,), out, lambda g: (np.broadcast_to(g / n, shape),))
    return out


def reshape(x, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(shape)
    out, tape = _result(x.data.reshape(shape), (x,), "reshape")
    if tape is not None:
        orig = x.shape
        tape.record((x,), out, lambda g: (g.reshape(orig),))
    return out


def swap_last2(x) -> Tensor:
    """Transpose the last two axes."""
    x = _as_tensor(x)
    if x.ndim < 2:
        raise ShapeError("swap_last2 needs a >=2-d tensor")
    out, tape = _result(np.swapaxes(x.data, -1, -2), (x,), "swap_last2")
    if tape is not None:
        tape.record((x,), out, lambda g: (np.swapaxes(g, -1, -2),))
    return out


def broadcast_to(x, shape: Sequence[int]) -> Tensor:
    """Stretch size-1 (or missing leading) axes up to ``shape``."""
    x = _as_tensor(x)
    shape = tuple(shape)
    try:
        data = np.broadcast_to(x.data, shape)
    except ValueError as exc:
        raise ShapeError(f"cannot broadcast {x.shape} to {shape}") from exc
    out, tape = _result(np.ascontiguousarray(data), (x,), "broadcast_to")
    if tape is not None:
        orig = x.shape
        tape.record((x,), out, lambda g: (_unbroadcast(g, orig),))
    return out


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
    out, tape = _result(data, ts, "concat")
    if tape is not None:
        extents = [t.shape[axis] for t in ts]
        offsets = np.cumsum(extents)[:-1]
        needs = [t.requires_grad for t in ts]

        def rule(g: np.ndarray):
            pieces = np.split(g, offsets, axis=axis)
            return tuple(p if need else None for p, need in zip(pieces, needs))

        tape.record(ts, out, rule)
    return out


def take_lastdim(x, indices: Sequence[int]) -> Tensor:
    """Select columns along the last axis."""
    x = _as_tensor(x)
    idx = [int(i) for i in indices]
    for i in idx:
        if not -x.shape[-1] <= i < x.shape[-1]:
            raise ShapeError(f"take_lastdim: index {i} out of range for extent {x.shape[-1]}")
    out, tape = _result(x.data[..., idx], (x,), "take_lastdim")
    if tape is not None:
        shape = x.shape

        def rule(g: np.ndarray):
            gx = np.zeros(shape)
            for pos, col in enumerate(idx):
                gx[..., col] += g[..., pos]
            return (gx,)

        tape.record((x,), out, rule)
    return out


# ---------------------------------------------------------------------------
# time-axis linear resampling ops
#
# Each of these is a fixed linear map along the last axis, applied as
# out = x @ W.T with a precomputed coefficient matrix, so the backward
# rule is exactly g @ W. The matrix builders are the auditable part.


@lru_cache(maxsize=None)
def _downsample_matrix(length: int, factor: int) -> np.ndarray:
    out_len = -(-length // factor)
    w = np.zeros((out_len, length))
    for row in range(out_len):
        lo = row * factor
        hi = min(lo + factor, length)
        w[row, lo:hi] = 1.0 / (hi - lo)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=None)
def moving_average_matrix(length: int, kernel: int) -> np.ndarray:
    """(T, T) centered moving average with replicate padding: trend = x @ M.T."""
    half = (kernel - 1) // 2
    w = np.zeros((length, length))
    for row in range(length):
        for off in range(-half, half + 1):
            col = min(max(row + off, 0), length - 1)
            w[row, col] += 1.0 / kernel
    w.setflags(write=False)
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
    data = np.matmul(x.data, w.T)
    out, tape = _result(data, (x,), name)
    if tape is not None:
        tape.record((x,), out, lambda g: (np.matmul(g, w),))
    return out


def avg_downsample(x, factor: int) -> Tensor:
    """Non-overlapping window means along the last axis.

    A ragged tail window is averaged over its actual length. Factor 1 is
    the identity.
    """
    x = _as_tensor(x)
    if factor < 1:
        raise ShapeError(f"avg_downsample: factor must be >= 1, got {factor}")
    return _apply_time_linear(x, _downsample_matrix(x.shape[-1], int(factor)), "avg_downsample")


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


def patchify(x, patch_len: int) -> Tensor:
    """Split (B, T, D) into (B, N, P, D) patches of P time steps.

    N = ceil(T/P); when P does not divide T the sequence is right-padded
    by replicating the final time step.
    """
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"patchify expects (B, T, D), got {x.shape}")
    if patch_len < 1:
        raise ShapeError(f"patchify: patch_len must be >= 1, got {patch_len}")
    b, t, d = x.shape
    p = int(patch_len)
    n = -(-t // p)
    pad = n * p - t
    if pad:
        padded = np.concatenate([x.data, np.repeat(x.data[:, -1:, :], pad, axis=1)], axis=1)
    else:
        padded = x.data
    out, tape = _result(padded.reshape(b, n, p, d), (x,), "patchify")
    if tape is not None:

        def rule(g: np.ndarray):
            flat = g.reshape(b, n * p, d)
            gx = flat[:, :t, :].copy()
            if pad:
                gx[:, -1, :] += flat[:, t:, :].sum(axis=1)
            return (gx,)

        tape.record((x,), out, rule)
    return out


def unpatchify(x, seq_len: int) -> Tensor:
    """Invert ``patchify``: (B, N, P, D) back to (B, seq_len, D), dropping padding."""
    x = _as_tensor(x)
    if x.ndim != 4:
        raise ShapeError(f"unpatchify expects (B, N, P, D), got {x.shape}")
    b, n, p, d = x.shape
    if not 1 <= seq_len <= n * p:
        raise ShapeError(f"unpatchify: seq_len {seq_len} invalid for {n}x{p} patches")
    out, tape = _result(x.data.reshape(b, n * p, d)[:, :seq_len, :], (x,), "unpatchify")
    if tape is not None:

        def rule(g: np.ndarray):
            gx = np.zeros((b, n * p, d))
            gx[:, :seq_len, :] = g
            return (gx.reshape(b, n, p, d),)

        tape.record((x,), out, rule)
    return out


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
