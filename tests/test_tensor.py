"""Tensor op contracts and tape gradients against finite differences."""

import numpy as np
import pytest

from crossscalenet import tensor
from crossscalenet.tensor import (
    GradCheckReport,
    NonFiniteError,
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    add,
    avg_downsample,
    broadcast_to,
    concat,
    div,
    encoder_mlp,
    gelu,
    grad_check,
    linear_interp,
    matmul,
    mean_all,
    mean_axis,
    moving_average,
    mul,
    patched_attention,
    patchify,
    reshape,
    sigmoid,
    softmax_attention,
    softmax_lastdim,
    sqrt,
    sub,
    sum_all,
    swap_last2,
    take_lastdim,
    unpatchify,
)

RNG = np.random.default_rng(0)


def rand(*shape):
    return RNG.uniform(-2.0, 2.0, size=shape)


# ---------------------------------------------------------------------------
# forward contracts


def test_matmul_identity():
    out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0, 4.0], [5.0, 6.0]]))
    assert np.array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])


def test_matmul_hand_expansion():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[11.0]])


def test_matmul_shape_errors():
    with pytest.raises(ShapeError):
        matmul(Tensor(rand(3, 4)), Tensor(rand(3, 4)))
    with pytest.raises(ShapeError):
        matmul(Tensor(rand(4)), Tensor(rand(4, 2)))
    with pytest.raises(ShapeError):
        matmul(Tensor(rand(2, 3, 4)), Tensor(rand(3, 4, 2)))


def test_matmul_batch_broadcast():
    a = rand(3, 2, 4)
    b = rand(4, 5)
    out = matmul(Tensor(a), Tensor(b))
    assert out.shape == (3, 2, 5)
    assert np.allclose(out.data, a @ b)


def test_elementwise_basics():
    assert np.array_equal(add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data, [4.0, 6.0])
    assert np.array_equal(mul(Tensor([1.0, 2.0, 3.0]), 0.0).data, [0.0, 0.0, 0.0])
    assert np.array_equal(sub(Tensor([5.0]), 2.0).data, [3.0])
    assert np.array_equal(div(Tensor([8.0, 4.0]), 2.0).data, [4.0, 2.0])


def test_div_by_zero_errors():
    with pytest.raises(ZeroDivisionError):
        div(Tensor([1.0]), Tensor([0.0]))
    with pytest.raises(ZeroDivisionError):
        div(Tensor([1.0, 2.0]), Tensor([2.0, 0.0]))


def test_broadcast_rejects_incompatible():
    with pytest.raises(ShapeError):
        add(Tensor(rand(3, 2)), Tensor(rand(3,)))


def test_softmax_uniform_and_stability():
    out = softmax_lastdim(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-12)
    big = softmax_lastdim(Tensor([1000.0, 0.0]))
    assert np.all(np.isfinite(big.data))
    assert big.data[0] > 1.0 - 1e-12
    assert big.data[1] < 1e-12


def test_softmax_rows_sum_to_one_and_shift_invariant():
    x = rand(4, 7)
    s = softmax_lastdim(Tensor(x)).data
    assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-9)
    shifted = softmax_lastdim(Tensor(x + 3.7)).data
    assert np.allclose(s, shifted, atol=1e-9)


def _three_array_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def test_softmax_in_place_is_bit_identical_to_three_array_form():
    rng = np.random.default_rng(11)
    extremes = rng.uniform(-700.0, 700.0, size=(4, 9, 9))  # exp underflows on most entries
    extremes[0] = 700.0 - rng.uniform(0.0, 1.0, size=(9, 9))
    extremes[1] = -700.0 + rng.uniform(0.0, 1.0, size=(9, 9))
    for x in (rng.normal(0.0, 4.0, size=(5, 17, 17)), rng.normal(size=(2, 3)), extremes):
        assert np.array_equal(softmax_lastdim(Tensor(x)).data, _three_array_softmax(x))
    report = grad_check(_weighted(softmax_lastdim, _const(3, 4)), rand(2, 3, 4), eps=1e-5, tol=1e-4)
    assert report.passed, str(report)


@pytest.mark.parametrize("length", [1, 2, 3, 16, 17, 64, 65, 168])
def test_softmax_rows_give_the_bytes_of_the_reduction_max_form(length):
    # short rows take their max by strided pairs, long ones by the reduction;
    # either way the softmax must keep the bytes of the s.max(axis=-1) form
    rng = np.random.default_rng(14)
    s = rng.normal(size=(40, 3, length))
    s[1] = 2.5  # every entry ties
    s[2, :, ::2] = 0.0  # ties at +0.0 beside -0.0
    s[2, :, 1::2] = -0.0
    s[3] = -0.0
    s[4, :, -1] = s[4].max() + 1.0  # the max in the odd last column
    s[5, :, ::3] = np.round(s[5, :, ::3])  # repeated values
    expected = s.copy()
    expected -= expected.max(axis=-1, keepdims=True)
    np.exp(expected, out=expected)
    expected /= expected.sum(axis=-1, keepdims=True)
    assert tensor._softmax_rows(s.copy()).tobytes() == expected.tobytes()
    # a row of +0.0 and -0.0 may take either zero as its max; exp erases the sign
    assert np.array_equal(tensor._row_max(s), s.max(axis=-1, keepdims=True))


@pytest.mark.parametrize("shape", [(768, 16, 7), (1536, 8, 7), (73 * 11, 16, 7)])
def test_row_projection_gives_the_bytes_of_the_batched_matmul(shape):
    # one 2-d product over the rows in place of numpy's per-matrix loop: the
    # bytes match on the OpenBLAS these tests run with, which no standard
    # promises; the fused attention op's bit-identity tests rest on it too
    rng = np.random.default_rng(15)
    x, w = rng.normal(size=shape), rng.normal(size=(shape[-1], shape[-1]))
    assert tensor._project(x, w).tobytes() == np.matmul(x, w).tobytes()
    assert tensor._project(x[:, :1], w).tobytes() == np.matmul(x[:, :1], w).tobytes()


def test_patched_attention_shape_errors():
    x = Tensor(rand(2, 3, 8))
    proj = [Tensor(rand(3, 3)) for _ in range(6)]
    patched_attention(x, x, x, 4, proj)
    for args in ([Tensor(rand(3, 8)), x, x, 4, proj], [x, Tensor(rand(2, 3, 7)), x, 4, proj],
                 [x, x, x, 4, proj[:3]], [x, x, None, 1, proj], [x, x, x, 0, proj],
                 [x, x, x, 4, [Tensor(rand(2, 2))] * 6]):
        with pytest.raises(ShapeError):
            patched_attention(*args)


def test_softmax_empty_axis_errors():
    with pytest.raises(ShapeError):
        softmax_lastdim(Tensor(np.zeros((2, 0))))


def _unfused_attention(q, k, v, scale):
    weights = softmax_lastdim(matmul(q, swap_last2(k)) * scale)
    return matmul(weights, v), weights.data


@pytest.mark.parametrize(
    "q_batch,kv_batch",
    [((3,), (3,)), ((2, 3), (2, 3)), ((1,), (5,)), ((), ())],
    ids=["3d", "4d", "q_broadcast", "2d"],
)
def test_softmax_attention_is_bit_identical_to_unfused_chain(q_batch, kv_batch, monkeypatch):
    rng = np.random.default_rng(12)
    # 33 keys: long enough that a matmul against k instead of the same
    # contiguous k^T the forward used rounds differently
    qv, kv, vv = rng.normal(size=(*q_batch, 7, 5)), rng.normal(size=(*kv_batch, 33, 5)), rng.normal(size=(*kv_batch, 33, 4))
    batch = np.broadcast_shapes(q_batch, kv_batch)
    w = Tensor(rng.normal(size=(*batch, 7, 4)))
    scale = 1.0 / np.sqrt(5)
    row_bytes = 8 * 7 * 33 * int(np.prod(batch[1:]))
    # one tile, 1-row tiles, and 2-row tiles (ragged at a leading extent of 3 or 5)
    for tile_bytes in (tensor._TILE_BYTES, row_bytes, 2 * row_bytes + 8):
        monkeypatch.setattr(tensor, "_TILE_BYTES", tile_bytes)
        results = []
        for op in (softmax_attention, _unfused_attention):
            with Tape() as tape:
                q, k, v = (Tensor(a, requires_grad=True) for a in (qv, kv, vv))
                context, weights = op(q, k, v, scale)
                tape.backward(sum_all(mul(context, w)))
            results.append((context.data, weights, q.grad, k.grad, v.grad))
        for fused, chain in zip(*results):
            assert np.array_equal(fused, chain)


def _unfused_encoder(x, w1, b1, w2, b2, wc, bc):
    h = matmul(gelu(matmul(x, w1) + b1), w2) + b2
    return h + (matmul(swap_last2(wc), h) + reshape(bc, (-1, 1)))


@pytest.mark.parametrize("batch", [1, 32])
@pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_const"])
def test_encoder_mlp_is_bit_identical_to_unfused_chain(batch, x_grad):
    rng = np.random.default_rng(13)
    # the acceptance config's scale 1: 7 channels, lookback 96, hidden 16, horizon 16
    shapes = [(batch, 7, 96), (96, 16), (16,), (16, 16), (16,), (7, 7), (7,)]
    values = [rng.normal(size=s) for s in shapes]
    w = Tensor(rng.normal(size=(batch, 7, 16)))
    results = []
    for op in (encoder_mlp, _unfused_encoder):
        with Tape() as tape:
            inputs = [Tensor(v, requires_grad=x_grad or i > 0) for i, v in enumerate(values)]
            out = op(*inputs)
            tape.backward(sum_all(mul(out, w)))
        results.append([out.data] + [t.grad for t in inputs])
    assert (results[0][1] is None) == (results[1][1] is None) == (not x_grad)
    for fused, chain in zip(*results):
        assert fused is None and chain is None or np.array_equal(fused, chain)


def test_encoder_mlp_shape_errors():
    x, w1, b1, w2, b2, wc, bc = (Tensor(np.ones(s)) for s in [(2, 3, 5), (5, 4), (4,), (4, 6), (6,), (3, 3), (3,)])
    encoder_mlp(x, w1, b1, w2, b2, wc, bc)
    for bad in ([Tensor(np.ones(5)), w1, b1, w2, b2, wc, bc], [x, Tensor(np.ones((4, 4))), b1, w2, b2, wc, bc],
                [x, w1, b1, w2, Tensor(np.ones(4)), wc, bc], [x, w1, b1, w2, b2, Tensor(np.ones((2, 2))), bc],
                [x, w1, b1, w2, b2, wc, Tensor(np.ones(2))]):
        with pytest.raises(ShapeError):
            encoder_mlp(*bad)


def test_softmax_attention_weights_are_read_only_rows():
    context, weights = softmax_attention(Tensor(rand(2, 3, 4)), Tensor(rand(2, 6, 4)), Tensor(rand(2, 6, 5)), 0.5)
    assert context.shape == (2, 3, 5) and weights.shape == (2, 3, 6)
    assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        weights[0, 0, 0] = 0.0


def test_softmax_attention_shape_errors():
    with pytest.raises(ShapeError):
        softmax_attention(Tensor(rand(3, 4)), Tensor(rand(5, 3)), Tensor(rand(5, 2)), 1.0)  # D differs
    with pytest.raises(ShapeError):
        softmax_attention(Tensor(rand(3, 4)), Tensor(rand(5, 4)), Tensor(rand(6, 2)), 1.0)  # Tk differs
    with pytest.raises(ShapeError):
        softmax_attention(Tensor(rand(2, 3, 4)), Tensor(rand(3, 5, 4)), Tensor(rand(3, 5, 2)), 1.0)
    with pytest.raises(ShapeError):
        softmax_attention(Tensor(rand(4)), Tensor(rand(5, 4)), Tensor(rand(5, 2)), 1.0)


def test_sigmoid_values_and_symmetry():
    assert sigmoid(Tensor(0.0)).item() == pytest.approx(0.5)
    x = rand(10)
    assert np.allclose(sigmoid(Tensor(-x)).data, 1.0 - sigmoid(Tensor(x)).data, atol=1e-12)
    extreme = sigmoid(Tensor([-1000.0, 1000.0])).data
    assert np.all(np.isfinite(extreme))  # no overflow
    assert np.all((extreme >= 0.0) & (extreme <= 1.0))
    moderate = sigmoid(Tensor(rand(20))).data
    assert np.all((moderate > 0.0) & (moderate < 1.0))


def test_mean_axis_values():
    out = mean_axis(Tensor([[1.0, 3.0], [5.0, 7.0]]), axis=1)
    assert np.array_equal(out.data, [2.0, 6.0])
    const = mean_axis(Tensor(np.full((3, 4), 2.5)), axis=0)
    assert np.allclose(const.data, 2.5)
    with pytest.raises(ShapeError):
        mean_axis(Tensor(rand(2, 2)), axis=2)


def _downsample_matrix(length: int, factor: int) -> np.ndarray:
    """The window-mean map as a dense (ceil(T/f), T) matrix: pooled = x @ W.T."""
    out_len = -(-length // factor)
    w = np.zeros((out_len, length))
    for row in range(out_len):
        lo = row * factor
        hi = min(lo + factor, length)
        w[row, lo:hi] = 1.0 / (hi - lo)
    return w


def _downsample_against_matrix(length: int, factor: int):
    rng = np.random.default_rng(length * 10 + factor)
    x = rng.normal(size=(3, 7, length))
    w = _downsample_matrix(length, factor)
    g = rng.normal(size=(3, 7, w.shape[0]))
    with Tape() as tape:
        xt = Tensor(x, requires_grad=True)
        out = avg_downsample(xt, factor)
        tape.backward(sum_all(mul(out, Tensor(g))))
    assert np.array_equal(xt.grad, g @ w)  # one product per input either way
    return x, out.data, w


@pytest.mark.parametrize("length", [96, 336])
@pytest.mark.parametrize("factor", [2, 4])
def test_avg_downsample_matches_matrix_exactly(length, factor):
    # the model's factors: factor 2 is one pair sum, and factor 4's
    # (x0 + x1) + (x2 + x3) is the order OpenBLAS sums a 4-window in
    x, pooled, w = _downsample_against_matrix(length, factor)
    assert np.array_equal(pooled, x @ w.T)


@pytest.mark.parametrize("length", [97, 99, 101, 5])
@pytest.mark.parametrize("factor", [3, 8])
def test_avg_downsample_matches_matrix_within_4_ulp(length, factor):
    # other summation orders round differently: bound the gap by ulps of
    # the window mean of |x|, which scales the rounding of any order
    x, pooled, w = _downsample_against_matrix(length, factor)
    assert np.all(np.abs(pooled - x @ w.T) <= 4 * np.spacing(np.abs(x) @ w.T))


def test_avg_downsample_rules():
    assert np.array_equal(avg_downsample(Tensor([[1.0, 2.0, 3.0, 4.0]]), 2).data, [[1.5, 3.5]])
    x = rand(2, 7)
    assert np.array_equal(avg_downsample(Tensor(x), 1).data, x)
    # ragged tail averaged over its actual length
    assert np.array_equal(avg_downsample(Tensor([[1.0, 2.0, 3.0]]), 2).data, [[1.5, 3.0]])
    with pytest.raises(ShapeError):
        avg_downsample(Tensor(x), 0)


def test_moving_average_rules():
    const = np.full((2, 9), 4.2)
    assert np.allclose(moving_average(Tensor(const), 5).data, const, atol=1e-12)
    out = moving_average(Tensor([[0.0, 0.0, 3.0, 0.0, 0.0]]), 3)
    assert np.allclose(out.data, [[0.0, 1.0, 1.0, 1.0, 0.0]], atol=1e-12)
    x = rand(3, 6)
    assert np.array_equal(moving_average(Tensor(x), 1).data, x)
    with pytest.raises(ShapeError):
        moving_average(Tensor(x), 4)
    with pytest.raises(ShapeError):
        moving_average(Tensor(x), 13)  # > 2T-1


def test_linear_interp_rules():
    assert np.allclose(linear_interp(Tensor([[0.0, 2.0]]), 3).data, [[0.0, 1.0, 2.0]])
    x = rand(2, 5)
    assert np.array_equal(linear_interp(Tensor(x), 5).data, x)
    assert np.allclose(linear_interp(Tensor([[1.0, 3.0, 5.0]]), 5).data, [[1.0, 2.0, 3.0, 4.0, 5.0]])
    assert np.allclose(linear_interp(Tensor([[2.0, 4.0]]), 1).data, [[3.0]])
    with pytest.raises(ShapeError):
        linear_interp(Tensor(x), 0)


def channels_first(x: np.ndarray) -> np.ndarray:
    """(B, T, D) -> (B, D, T), the layout patchify takes and unpatchify returns."""
    return np.swapaxes(x, 1, 2)


def test_patchify_exact_and_padded():
    x = np.arange(8.0).reshape(1, 4, 2)
    p = patchify(Tensor(channels_first(x)), 2)
    assert p.shape == (1, 2, 2, 2)
    assert np.array_equal(p.data.reshape(1, 4, 2), x)

    x5 = np.arange(10.0).reshape(1, 5, 2)
    p5 = patchify(Tensor(channels_first(x5)), 2)
    assert p5.shape == (1, 3, 2, 2)
    assert np.array_equal(p5.data[0, 2, 0], x5[0, 4])
    assert np.array_equal(p5.data[0, 2, 1], x5[0, 4])  # replicated final step


def test_patchify_roundtrip():
    x = rand(3, 12, 4)
    for p in (1, 2, 3, 4, 6, 12):
        assert np.array_equal(channels_first(unpatchify(patchify(Tensor(channels_first(x)), p), 12).data), x)
    # non-divisible round trip drops the padding
    assert np.array_equal(channels_first(unpatchify(patchify(Tensor(channels_first(x)), 5), 12).data), x)
    with pytest.raises(ShapeError):
        patchify(Tensor(channels_first(x)), 0)


def _patchify_time_major(x, patch_len: int) -> Tensor:
    """The (B, T, D) patchify that the channels-first one replaced, as an oracle."""
    b, t, d = x.shape
    n = -(-t // patch_len)
    pad = n * patch_len - t
    padded = np.concatenate([x.data, np.repeat(x.data[:, -1:, :], pad, axis=1)], axis=1) if pad else x.data

    def rule(g):
        flat = g.reshape(b, n * patch_len, d)
        gx = flat[:, :t, :].copy()
        if pad:
            gx[:, -1, :] += flat[:, t:, :].sum(axis=1)
        return (gx,)

    return tensor._op(padded.reshape(b, n, patch_len, d), (x,), "patchify", rule)


def _unpatchify_time_major(x, seq_len: int) -> Tensor:
    """The (B, N, P, D) -> (B, T, D) unpatchify that the channels-first one replaced."""
    b, n, p, d = x.shape

    def rule(g):
        gx = np.zeros((b, n * p, d))
        gx[:, :seq_len, :] = g
        return (gx.reshape(b, n, p, d),)

    return tensor._op(x.data.reshape(b, n * p, d)[:, :seq_len, :], (x,), "unpatchify", rule)


@pytest.mark.parametrize("seq_len,patch_len", [(12, 4), (13, 4), (100, 16)], ids=["exact", "pad3", "pad12"])
def test_channels_first_patch_ops_match_the_transposed_time_major_chain(seq_len, patch_len):
    # patchify == swap_last2 -> time-major patchify and unpatchify ==
    # time-major unpatchify -> swap_last2, bit for bit in values and in the
    # gradients of a loss that weighs every output element differently
    rng = np.random.default_rng(31)
    x = rng.normal(size=(3, 5, seq_len))  # (B, D, T)
    n = -(-seq_len // patch_len)
    w_patches = rng.normal(size=(3, n, patch_len, 5))
    w_series = rng.normal(size=(3, 5, seq_len))

    def run(patch_op, unpatch_op):
        with Tape() as tape:
            xt = Tensor(x, requires_grad=True)
            patches = patch_op(xt)
            restored = unpatch_op(patches * w_patches)
            tape.backward(sum_all(patches * w_patches) + sum_all(restored * w_series))
        return patches.data, restored.data, xt.grad

    new = run(lambda xt: patchify(xt, patch_len), lambda p: unpatchify(p, seq_len))
    old = run(lambda xt: _patchify_time_major(swap_last2(xt), patch_len),
              lambda p: swap_last2(_unpatchify_time_major(p, seq_len)))
    for a, b in zip(new, old):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_take_and_concat_and_reshape():
    x = rand(2, 3, 4)
    taken = take_lastdim(Tensor(x), [3, 1])
    assert np.array_equal(taken.data, x[..., [3, 1]])
    a, b = rand(2, 3), rand(2, 2)
    cat = concat([Tensor(a), Tensor(b)], axis=1)
    assert np.array_equal(cat.data, np.concatenate([a, b], axis=1))
    r = reshape(Tensor(x), (6, 4))
    assert np.array_equal(r.data, x.reshape(6, 4))
    s = swap_last2(Tensor(x))
    assert np.array_equal(s.data, np.swapaxes(x, -1, -2))


def test_non_finite_input_rejected():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        Tensor([np.inf])
    with pytest.raises(NonFiniteError):
        sqrt(Tensor([-1.0]))


def test_non_finite_op_output_names_the_op():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="mul"):
        mul(Tensor([1e200]), Tensor([1e200]))


def test_encoder_mlp_non_finite_hidden_layer_names_the_op():
    # the first layer overflows; its GELU turns -inf into NaN
    x, w1 = Tensor([[1e200]]), Tensor([[-1e200]])
    ones = [Tensor(np.ones(s)) for s in [(1,), (1, 1), (1,), (1, 1), (1,)]]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError, match="encoder_mlp"):
        encoder_mlp(x, w1, *ones)


@pytest.mark.parametrize("variant", ["self", "dual"])
@pytest.mark.parametrize("where", ["values", "keys"])
def test_patched_attention_rejects_an_overflowing_projection(variant, where):
    # projections are not scanned: an overflowing value reaches the output
    # (inf times a weight), an overflowing key the scanned scores
    key_patch, key_local, p, n_proj = _PATCHED[variant]
    vals = {**_OPERANDS, None: None}
    proj = [vals[f"w{j}"] for j in range(n_proj)]
    if where == "values":
        proj[2] = proj[-1] = Tensor(np.full((2, 2), 1e300))
    else:
        proj[1] = proj[-2] = Tensor(np.full((2, 2), 1e300))
    x = Tensor(np.full((2, 2, 7), 1e10))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
        patched_attention(x, x if key_patch == "x" else vals[key_patch] * 1e10,
                          None if key_local is None else vals[key_local] * 1e10, p, proj)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["pos_inf", "neg_inf"])
def test_softmax_attention_rejects_overflowing_scores(sign):
    # q.k overflows to +inf or -inf in the first key; the second key's
    # score is finite, so after the softmax a -inf score is only a 0 weight
    q = Tensor([[1e200]])
    k = Tensor([[sign * 1e200], [1.0]])
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError, match="softmax_attention"):
        softmax_attention(q, k, Tensor([[1.0], [2.0]]), 1.0)


def test_softmax_attention_rejects_non_finite_score_in_last_tile(monkeypatch):
    # a -inf score is only a 0 weight after the softmax, so only the
    # scores scan of the last tile can catch it
    monkeypatch.setattr(tensor, "_TILE_BYTES", 8 * 2)  # one (1, 2) map per tile
    q = np.ones((3, 1, 1))
    q[2] = 1e200
    k = Tensor(np.broadcast_to([[-1e200], [1.0]], (3, 2, 1)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError, match="softmax_attention"):
        softmax_attention(Tensor(q), k, Tensor(np.ones((3, 2, 1))), 1.0)


def test_softmax_attention_weights_stay_finite_when_row_shift_overflows():
    # finite scores spanning about +-1e308: score - row max overflows to
    # -inf, whose exp is a 0 weight, and the row max still gives weight 1
    q = Tensor([[1.0], [-1.0], [0.5]])
    k = Tensor([[1.5e308], [-1.5e308], [0.0]])
    with np.errstate(over="ignore"):
        context, weights = softmax_attention(q, k, Tensor([[1.0], [2.0], [3.0]]), 1.0)
    assert np.all(np.isfinite(weights)) and np.all((weights >= 0.0) & (weights <= 1.0))
    assert np.array_equal(weights.sum(axis=-1), np.ones(3))
    assert np.array_equal(weights[:2], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert np.all(np.isfinite(context.data))


# ---------------------------------------------------------------------------
# tape mechanics


def test_backward_sum_gives_ones():
    with Tape() as tape:
        x = Tensor(rand(3, 4), requires_grad=True)
        assert tape.backward(sum_all(x)) is None  # gradients land on the tensors
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_sum_of_squares():
    xv = rand(5)
    with Tape() as tape:
        x = Tensor(xv, requires_grad=True)
        tape.backward(sum_all(mul(x, x)))
    assert np.allclose(x.grad, 2.0 * xv, atol=1e-12)


def test_backward_fanout_accumulates():
    with Tape() as tape:
        x = Tensor([2.0], requires_grad=True)
        y = add(mul(x, 3.0), mul(x, 4.0))
        tape.backward(sum_all(y))
    assert np.allclose(x.grad, [7.0])


def test_backward_rejects_nonscalar_and_detached():
    with Tape() as tape:
        x = Tensor(rand(3), requires_grad=True)
        y = mul(x, 2.0)
        with pytest.raises(TapeError):
            tape.backward(y)
    loose = Tensor([1.0], requires_grad=True)
    with pytest.raises(TapeError):
        Tape().backward(loose)


def test_unreached_parameter_gets_zero_grad():
    with Tape() as tape:
        x = Tensor(rand(3), requires_grad=True)
        unused = Tensor(rand(2), requires_grad=True)
        y = sum_all(x)
        _ = mul(unused, 1.0)  # on tape, but not part of the loss
        tape.backward(y)
    assert np.array_equal(unused.grad, np.zeros(2))


def test_tensor_reusable_across_tapes():
    w = Tensor(rand(2, 2), requires_grad=True)
    grads = []
    for _ in range(2):
        with Tape() as tape:
            y = sum_all(matmul(Tensor(np.eye(2)), w))
            tape.backward(y)
        grads.append(w.grad.copy())
    assert np.array_equal(grads[0], grads[1])


# every public op, called once on one input x of the given shape
PROTOCOL_CASES = [
    ("add", lambda x: add(x, 1.0), (2, 3)),
    ("sub", lambda x: sub(1.0, x), (2, 3)),
    ("mul", lambda x: mul(x, 2.0), (2, 3)),
    ("div", lambda x: div(1.0, x), (2, 3)),
    ("matmul", lambda x: matmul(x, np.ones((3, 2))), (2, 3)),
    ("softmax_lastdim", softmax_lastdim, (2, 3)),
    ("softmax_attention", lambda x: softmax_attention(x, x, x, 0.5)[0], (2, 3, 4)),
    ("sigmoid", sigmoid, (2, 3)),
    ("gelu", gelu, (2, 3)),
    ("encoder_mlp",
     lambda x: encoder_mlp(x, *(Tensor(np.ones(s)) for s in [(3, 4), (4,), (4, 2), (2,), (2, 2), (2,)])),
     (2, 3)),
    ("sqrt", sqrt, (2, 3)),
    ("mean_axis", lambda x: mean_axis(x, 0), (2, 3)),
    ("sum_all", sum_all, (2, 3)),
    ("mean_all", mean_all, (2, 3)),
    ("reshape", lambda x: reshape(x, (6,)), (2, 3)),
    ("swap_last2", swap_last2, (2, 3)),
    ("broadcast_to", lambda x: broadcast_to(x, (4, 2, 3)), (2, 3)),
    ("concat", lambda x: concat([x, Tensor(np.ones((2, 3)))], 0), (2, 3)),
    ("take_lastdim", lambda x: take_lastdim(x, [2, 0]), (2, 3)),
    ("patched_attention",
     lambda x: patched_attention(x, x, x, 2, [Tensor(np.eye(2)) for _ in range(6)])[0], (1, 2, 5)),
    ("avg_downsample", lambda x: avg_downsample(x, 2), (2, 6)),
    ("moving_average", lambda x: moving_average(x, 3), (2, 6)),
    ("linear_interp", lambda x: linear_interp(x, 4), (2, 6)),
    ("patchify", lambda x: patchify(x, 2), (1, 2, 5)),
    ("unpatchify", lambda x: unpatchify(x, 5), (1, 3, 2, 2)),
]


@pytest.mark.parametrize("name,fn,shape", PROTOCOL_CASES, ids=[c[0] for c in PROTOCOL_CASES])
def test_op_records_once_only_on_a_tape_with_a_differentiable_input(name, fn, shape, monkeypatch):
    recorded = []
    original = Tape.record

    def record(tape, inputs, output, backward):
        recorded.append(tape)
        original(tape, inputs, output, backward)

    monkeypatch.setattr(Tape, "record", record)
    xv = RNG.uniform(0.5, 2.0, size=shape)
    y = fn(Tensor(xv, requires_grad=True))
    assert y.requires_grad and recorded == []
    with pytest.raises(TapeError):
        Tape().backward(sum_all(y))
    with Tape() as tape:
        fn(Tensor(xv))
        assert len(tape) == 0 and recorded == []
        fn(Tensor(xv, requires_grad=True))
        assert len(tape) == 1 and recorded == [tape]


def test_grad_of_sum_a_times_b_is_b():
    av, bv = rand(4), rand(4)
    with Tape() as tape:
        a = Tensor(av, requires_grad=True)
        tape.backward(sum_all(mul(a, Tensor(bv))))
    assert np.allclose(a.grad, bv, atol=1e-12)


def test_matmul_grad_matches_ones_at_b_transpose():
    # d/da sum(a @ b) = ones(M, N) @ b^T
    av, bv = rand(4, 5), rand(5, 3)
    with Tape() as tape:
        a = Tensor(av, requires_grad=True)
        tape.backward(sum_all(matmul(a, Tensor(bv))))
    assert np.allclose(a.grad, np.ones((4, 3)) @ bv.T, atol=1e-12)


# ---------------------------------------------------------------------------
# gradient checks: every differentiable op against central differences


def _const(*shape) -> Tensor:
    # fixed weights so every f handed to grad_check is deterministic
    return Tensor(rand(*shape))


_A1 = _const(4, 5)
_B1 = _const(5, 3)
_B2 = _const(3, 2)
_V3 = _const(3)
_C23 = _const(2, 3)
_DEN = Tensor(rand(2, 3) + 3.0)
_Q3, _K3, _V3D = _const(2, 3, 4), _const(2, 5, 4), _const(2, 5, 2)
_Q4, _K4, _V4 = _const(2, 2, 3, 4), _const(2, 2, 5, 4), _const(2, 2, 5, 2)


# patched_attention operands: (2, 2, 7) streams "x", "k1" and "k2", patch
# length 3 (so the last patch pads two steps) and six (2, 2) projections
# "w0".."w5". Per variant: the patch key, the local key, the patch length
# and the projection count; a key named "x" is the input itself.
_OPERANDS = {"x": _const(2, 2, 7), "k1": _const(2, 2, 7), "k2": _const(2, 2, 7),
             **{f"w{j}": _const(2, 2) for j in range(6)}}
_PATCHED = {
    "self": ("x", None, 1, 3),
    "patch": ("x", "x", 3, 6),
    "shared": ("k1", "k1", 3, 6),
    "dual": ("k1", "k2", 3, 6),
}


def _patched_with(variant: str, name: str):
    """patched_attention's context as a function of one operand, the others fixed."""
    key_patch, key_local, p, n_proj = _PATCHED[variant]

    def f(v):
        vals = {**_OPERANDS, name: v, None: None}
        return patched_attention(vals["x"], vals[key_patch], vals[key_local], p,
                                 [vals[f"w{j}"] for j in range(n_proj)])[0]

    return f


def _patched_operands(variant: str) -> list[str]:
    key_patch, key_local, _, n_proj = _PATCHED[variant]
    return list(dict.fromkeys(n for n in ("x", key_patch, key_local) if n)) + [f"w{j}" for j in range(n_proj)]


# encoder_mlp operands: x (2, 3, 5), hidden 6, horizon 4, 3 channels
_ENC = [_const(2, 3, 5), _const(5, 6), _const(6), _const(6, 4), _const(4), _const(3, 3), _const(3)]


def _encoder_with(i: int):
    """encoder_mlp as a function of its i-th operand, the others fixed."""
    return lambda x: encoder_mlp(*_ENC[:i], x, *_ENC[i + 1 :])


def _weighted(op, w: Tensor):
    return lambda x: sum_all(mul(op(x), w))


OP_CASES = [
    ("matmul_a", _weighted(lambda x: matmul(x, _B1), _const(4, 3)), (4, 5)),
    ("matmul_b", _weighted(lambda x: matmul(_A1, x), _const(4, 3)), (5, 3)),
    ("matmul_batched", _weighted(lambda x: matmul(x, _B2), _const(2, 4, 2)), (2, 4, 3)),
    ("add_bcast", _weighted(lambda x: add(x, _V3), _const(2, 3)), (2, 3)),
    ("sub", _weighted(lambda x: sub(_C23, x), _const(2, 3)), (2, 3)),
    ("mul", _weighted(lambda x: mul(x, _C23), _const(2, 3)), (2, 3)),
    ("div_num", lambda x: sum_all(div(x, _DEN)), (2, 3)),
    ("div_den", lambda x: sum_all(div(_C23, add(mul(x, 0.1), 3.0))), (2, 3)),
    ("softmax", _weighted(softmax_lastdim, _const(5,)), (5,)),
    ("softmax_sq", lambda x: sum_all(mul(softmax_lastdim(x), softmax_lastdim(x))), (4,)),
    # softmax_attention: scale != 1, T_q != T_k, one operand at a time
    ("softmax_attention_q", _weighted(lambda x: softmax_attention(x, _K3, _V3D, 0.7)[0], _const(2, 3, 2)), (2, 3, 4)),
    ("softmax_attention_k", _weighted(lambda x: softmax_attention(_Q3, x, _V3D, 0.7)[0], _const(2, 3, 2)), (2, 5, 4)),
    ("softmax_attention_v", _weighted(lambda x: softmax_attention(_Q3, _K3, x, 0.7)[0], _const(2, 3, 2)), (2, 5, 2)),
    ("softmax_attention_q4", _weighted(lambda x: softmax_attention(x, _K4, _V4, 1.3)[0], _const(2, 2, 3, 2)), (2, 2, 3, 4)),
    ("softmax_attention_k4", _weighted(lambda x: softmax_attention(_Q4, x, _V4, 1.3)[0], _const(2, 2, 3, 2)), (2, 2, 5, 4)),
    ("softmax_attention_v4", _weighted(lambda x: softmax_attention(_Q4, _K4, x, 1.3)[0], _const(2, 2, 3, 2)), (2, 2, 5, 2)),
    ("sigmoid", _weighted(sigmoid, _const(6,)), (6,)),
    *(
        (f"patched_attention_{variant}_{name}", _weighted(_patched_with(variant, name), _const(2, 2, 7)),
         _OPERANDS[name].shape)
        for variant in _PATCHED for name in _patched_operands(variant)
    ),
    *(
        (f"encoder_mlp_{name}", _weighted(_encoder_with(i), _const(2, 3, 4)), _ENC[i].shape)
        for i, name in enumerate(("x", "w1", "b1", "w2", "b2", "wc", "bc"))
    ),
    ("gelu", _weighted(gelu, _const(7,)), (7,)),
    ("sqrt", lambda x: sum_all(sqrt(add(mul(x, x), 1.0))), (5,)),
    ("mean_axis0", _weighted(lambda x: mean_axis(x, 0), _const(4,)), (3, 4)),
    ("mean_axis1", _weighted(lambda x: mean_axis(x, 1), _const(3,)), (3, 4)),
    ("mean_all", lambda x: mul(mean_all(mul(x, x)), 3.0), (3, 4)),
    ("avg_downsample", _weighted(lambda x: avg_downsample(x, 2), _const(2, 4)), (2, 7)),
    ("avg_downsample_f4_ragged", _weighted(lambda x: avg_downsample(x, 4), _const(2, 3)), (2, 10)),
    ("moving_average", _weighted(lambda x: moving_average(x, 3), _const(2, 6)), (2, 6)),
    ("linear_interp_up", _weighted(lambda x: linear_interp(x, 9), _const(2, 9)), (2, 5)),
    ("linear_interp_down", _weighted(lambda x: linear_interp(x, 3), _const(2, 3)), (2, 5)),
    ("patchify", _weighted(lambda x: patchify(x, 2), _const(1, 3, 2, 2)), (1, 2, 5)),
    ("unpatchify", _weighted(lambda x: unpatchify(x, 5), _const(1, 2, 5)), (1, 3, 2, 2)),
    ("swap_last2", _weighted(swap_last2, _const(4, 3)), (3, 4)),
    ("reshape", _weighted(lambda x: reshape(x, (6,)), _const(6,)), (2, 3)),
    ("broadcast_to", _weighted(lambda x: broadcast_to(x, (4, 3, 2)), _const(4, 3, 2)), (3, 1)),
    ("take_lastdim", _weighted(lambda x: take_lastdim(x, [2, 0, 2]), _const(2, 3)), (2, 4)),
    ("concat", _weighted(lambda x: concat([x, _C23], 0), _const(4, 3)), (2, 3)),
]


@pytest.mark.parametrize("name,fn,shape", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_grad_check_every_op(name, fn, shape):
    report = grad_check(fn, rand(*shape), eps=1e-5, tol=1e-4)
    assert report.passed, str(report)


def test_grad_check_sum_is_exact():
    report = grad_check(sum_all, rand(3, 3))
    assert report.passed
    assert report.max_rel_error < 1e-9


def test_grad_check_softmax_square_tol():
    report = grad_check(
        lambda x: sum_all(mul(softmax_lastdim(x), softmax_lastdim(x))), rand(4), tol=1e-4
    )
    assert report.passed, str(report)


def test_grad_check_negative_control():
    # A deliberately corrupted backward rule must fail the check.
    from crossscalenet.tensor import active_tape

    def broken_double(x: Tensor) -> Tensor:
        out = Tensor(x.data * 2.0, requires_grad=x.requires_grad)
        tape = active_tape()
        if tape is not None and out.requires_grad:
            tape.record((x,), out, lambda g: (g * 0.5,))  # wrong: should be 2.0
        return out

    report = grad_check(lambda x: sum_all(broken_double(x)), rand(4))
    assert not report.passed
    assert isinstance(report, GradCheckReport)


def test_random_op_sweep_passes_grad_check():
    # property: every differentiable op passes at tol 1e-4 for inputs in [-2, 2]
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.uniform(-2.0, 2.0, size=(2, 6))
        w6 = Tensor(rng.uniform(-1, 1, (2, 6)))
        w11 = Tensor(rng.uniform(-1, 1, (2, 11)))
        for fn in (
            lambda t: sum_all(mul(sigmoid(t), sigmoid(t))),
            lambda t: sum_all(mul(gelu(t), w6)),
            lambda t: sum_all(mul(softmax_lastdim(t), w6)),
            lambda t: sum_all(moving_average(mul(t, t), 5)),
            lambda t: sum_all(mul(linear_interp(t, 11), w11)),
        ):
            assert grad_check(fn, x).passed
