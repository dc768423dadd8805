"""Cross-patch attention against a loop-based brute-force oracle."""

import math

import numpy as np
import pytest

from crossscalenet.attention import (
    KEY_SOURCES,
    VARIANTS,
    AttentionRecord,
    AttentionWeights,
    cross_patch_attention,
    local_attention,
    patch_attention,
)
from crossscalenet.tensor import ShapeError, Tape, Tensor, grad_check, mul, patchify, reshape, sum_all, unpatchify

RNG = np.random.default_rng(11)


def make_weights(dim, rng, with_local=True):
    def w():
        return Tensor(rng.normal(0.0, 0.6, size=(dim, dim)))

    if with_local:
        return AttentionWeights(w(), w(), w(), w(), w(), w())
    return AttentionWeights(w(), w(), w())


def channels_first(x: np.ndarray) -> Tensor:
    """(B, T, D) array -> (B, D, T) tensor, the layout attention takes."""
    return Tensor(np.swapaxes(x, 1, 2))


def attend(x, key_forecast, key_seasonal, variant, p, w):
    """``cross_patch_attention`` on (B, T, D) arrays, a key possibly None:
    returns the (B, T, D) context array and the record."""
    keys = (None if k is None else channels_first(k) for k in (key_forecast, key_seasonal))
    ctx, record = cross_patch_attention(channels_first(x), *keys, variant, p, w)
    return np.swapaxes(ctx.data, 1, 2), record


def identity_weights(dim):
    eye = np.eye(dim)
    return AttentionWeights(*(Tensor(eye.copy()) for _ in range(6)))


def unfused_cross_patch_attention(x, key_forecast, key_seasonal, variant, patch_len, weights, scale_index=0):
    """``cross_patch_attention`` as the chain of tape ops the fused op replaces:
    patchify each distinct stream once (the input first), the two paths,
    their sum and unpatchify."""
    b, _, seq_len = x.shape
    streams = {"input": x, "forecast": key_forecast, "seasonal": key_seasonal}
    patch_src, local_src = KEY_SOURCES[variant]
    patch_len = patch_len if local_src else 1
    patches = {src: patchify(streams[src], patch_len)
               for src in dict.fromkeys(s for s in ("input", patch_src, local_src) if s)}
    ctx_patch, attn_patch = patch_attention(patches["input"], patches[patch_src], weights)
    context = reshape(ctx_patch, (b, ctx_patch.shape[1], 1, x.shape[1]))
    if local_src:
        ctx_local, attn_local = local_attention(patches["input"], patches[local_src], weights)
        context = ctx_local + context
    else:
        attn_local = np.broadcast_to(1.0, (b, seq_len, 1, 1))
    record = AttentionRecord(attn_patch, attn_local, scale_index, patch_len, seq_len)
    return unpatchify(context, seq_len), record


# ---------------------------------------------------------------------------
# brute-force oracle: explicit loops, no shared code with the module


def ref_softmax_rows(m):
    out = np.empty_like(m)
    for i in range(m.shape[0]):
        row = m[i] - m[i].max()
        e = np.exp(row)
        out[i] = e / e.sum()
    return out


def ref_patchify(x, p):
    b, t, d = x.shape
    n = math.ceil(t / p)
    out = np.empty((b, n, p, d))
    for bi in range(b):
        for ni in range(n):
            for pi in range(p):
                out[bi, ni, pi] = x[bi, min(ni * p + pi, t - 1)]
    return out


def ref_cross_patch(x, key_forecast, key_seasonal, p, w, variant):
    """Scripted evaluation of the full patch + local attention chain."""
    b, t, d = x.shape
    scale = 1.0 / math.sqrt(d)

    if variant == "self_attention":
        contexts, attns = [], []
        for bi in range(b):
            q = x[bi] @ w["w_query"]
            k = x[bi] @ w["w_key"]
            v = x[bi] @ w["w_value"]
            a = ref_softmax_rows(q @ k.T * scale)
            attns.append(a)
            contexts.append(a @ v)
        return np.stack(contexts), np.stack(attns), None

    patch_key = {"patch_attention": x, "cross_shared_key": key_forecast, "cross_dual_key": key_forecast}[variant]
    local_key = {"patch_attention": x, "cross_shared_key": key_forecast, "cross_dual_key": key_seasonal}[variant]

    xp = ref_patchify(x, p)
    kp_patch = ref_patchify(patch_key, p)
    kp_local = ref_patchify(local_key, p)
    n = xp.shape[1]

    ctx = np.zeros((b, t, d))
    attn_patch = np.empty((b, n, n))
    attn_local = np.empty((b, n, p, p))
    for bi in range(b):
        pooled_q = xp[bi].mean(axis=1)  # (N, D)
        pooled_k = kp_patch[bi].mean(axis=1)
        pooled_v = xp[bi].mean(axis=1)
        qp = pooled_q @ w["w_query"]
        kp = pooled_k @ w["w_key"]
        vp = pooled_v @ w["w_value"]
        a_p = ref_softmax_rows(qp @ kp.T * scale)
        attn_patch[bi] = a_p
        c_p = a_p @ vp  # (N, D)

        for ni in range(n):
            ql = xp[bi, ni] @ w["w_local_query"]
            kl = kp_local[bi, ni] @ w["w_local_key"]
            vl = xp[bi, ni] @ w["w_local_value"]
            a_l = ref_softmax_rows(ql @ kl.T * scale)
            attn_local[bi, ni] = a_l
            c_l = a_l @ vl  # (P, D)
            for pi in range(p):
                pos = ni * p + pi
                if pos < t:
                    ctx[bi, pos] = c_p[ni] + c_l[pi]
    return ctx, attn_patch, attn_local


def weights_as_dict(w: AttentionWeights):
    return {name.split(".")[-1]: t.data for name, t in w.named()}


# ---------------------------------------------------------------------------
# oracle equivalence


@pytest.mark.parametrize("variant", VARIANTS)
def test_matches_brute_force_oracle(variant):
    rng = np.random.default_rng(3)
    b, t, p, d = 2, 6, 2, 3
    x = rng.normal(size=(b, t, d))
    k1 = rng.normal(size=(b, t, d))
    k2 = rng.normal(size=(b, t, d))
    w = make_weights(d, rng)

    ctx, record = attend(x, k1, k2, variant, p, w)
    ref_ctx, ref_ap, ref_al = ref_cross_patch(x, k1, k2, p, weights_as_dict(w), variant)

    assert np.allclose(ctx, ref_ctx, atol=1e-10)
    assert np.allclose(record.patch_weights, ref_ap, atol=1e-10)
    if ref_al is not None:
        assert np.allclose(record.local_weights, ref_al, atol=1e-10)


def test_small_instance_oracle_tight():
    # the desk-size instance: B=1, T=4, P=2, D=1, identity projections
    x = np.array([[[0.5], [-1.0], [2.0], [0.25]]])
    k1 = np.array([[[1.0], [0.0], [-0.5], [1.5]]])
    k2 = np.array([[[0.2], [0.9], [-0.1], [0.4]]])
    w = identity_weights(1)
    ctx, record = attend(x, k1, k2, "cross_dual_key", 2, w)
    ref_ctx, ref_ap, ref_al = ref_cross_patch(x, k1, k2, 2, weights_as_dict(w), "cross_dual_key")
    assert np.allclose(ctx, ref_ctx, atol=1e-10)
    assert np.allclose(record.patch_weights, ref_ap, atol=1e-10)
    assert np.allclose(record.local_weights, ref_al, atol=1e-10)


def test_hand_computed_two_patch_attention():
    # B=1, T=4, P=2, D=1, identity projections; verify A_P against a direct
    # softmax of the pooled outer product.
    x = np.array([[[1.0], [3.0], [-1.0], [1.0]]])  # pooled: [2, 0]
    k = np.array([[[2.0], [2.0], [4.0], [0.0]]])  # pooled: [2, 2]
    w = identity_weights(1)
    _, attn = patch_attention(patchify(channels_first(x), 2), patchify(channels_first(k), 2), w)
    logits = np.array([[4.0, 4.0], [0.0, 0.0]])  # pooled_q[:,None]*pooled_k[None,:]/sqrt(1)
    expect = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert np.allclose(attn[0], expect, atol=1e-12)


# ---------------------------------------------------------------------------
# degenerate contracts


def test_single_patch_attention_is_one():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 2))
    w = make_weights(2, rng)
    key = rng.normal(size=(2, 3, 2))
    _, attn = patch_attention(patchify(channels_first(x), 3), patchify(channels_first(key), 3), w)
    assert attn.shape == (2, 1, 1)
    assert np.allclose(attn, 1.0)


def test_constant_key_gives_uniform_patch_rows():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1, 8, 2))
    const_key = np.ones((1, 8, 2)) * 0.7
    patches, key_patches = (patchify(channels_first(a), 2) for a in (x, const_key))
    _, attn = patch_attention(patches, key_patches, identity_weights(2))
    assert np.allclose(attn, 0.25, atol=1e-12)


def test_local_attention_single_position():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 4, 2))
    w = make_weights(2, rng)
    patches = patchify(channels_first(x), 1)
    ctx, attn = local_attention(patches, patches, w)
    assert np.allclose(attn, 1.0)
    # P=1: context equals the projected values
    v = x.reshape(4, 2) @ w.w_local_value.data
    assert np.allclose(ctx.data.reshape(4, 2), v, atol=1e-12)


def test_constant_key_patch_gives_uniform_local_rows():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 6, 2))
    const_key = np.full((1, 6, 2), -1.3)
    patches, key_patches = (patchify(channels_first(a), 3) for a in (x, const_key))
    _, attn = local_attention(patches, key_patches, identity_weights(2))
    assert np.allclose(attn, 1.0 / 3.0, atol=1e-12)


def test_dual_key_with_equal_keys_collapses_to_shared():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 8, 3))
    k = rng.normal(size=(2, 8, 3))
    w = make_weights(3, rng)
    ctx_d, rec_d = attend(x, k, k, "cross_dual_key", 2, w)
    ctx_s, rec_s = attend(x, k, None, "cross_shared_key", 2, w)
    assert np.array_equal(ctx_d, ctx_s)
    assert np.array_equal(rec_d.patch_weights, rec_s.patch_weights)
    assert np.array_equal(rec_d.local_weights, rec_s.local_weights)


def test_dual_vs_shared_key_differs_only_on_local_path():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1, 8, 2))
    k1 = rng.normal(size=(1, 8, 2))
    k2 = rng.normal(size=(1, 8, 2))
    w = make_weights(2, rng)
    _, rec_d = attend(x, k1, k2, "cross_dual_key", 2, w)
    _, rec_s = attend(x, k1, None, "cross_shared_key", 2, w)
    assert np.allclose(rec_d.patch_weights, rec_s.patch_weights, atol=1e-12)
    assert not np.allclose(rec_d.local_weights, rec_s.local_weights, atol=1e-6)


def test_patch_variant_with_full_length_patch():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(1, 4, 2))
    w = make_weights(2, rng)
    _, record = attend(x, None, None, "patch_attention", 4, w)
    assert record.patch_weights.shape == (1, 1, 1)
    assert np.allclose(record.patch_weights, 1.0)


# ---------------------------------------------------------------------------
# invariants


@pytest.mark.parametrize("variant", VARIANTS)
def test_rows_normalized_all_variants(variant):
    rng = np.random.default_rng(13)
    w = make_weights(4, rng)
    for _ in range(20):
        x = rng.normal(size=(2, 9, 4)) * rng.uniform(0.1, 3.0)
        k1 = rng.normal(size=(2, 9, 4))
        k2 = rng.normal(size=(2, 9, 4))
        _, record = attend(x, k1, k2, variant, 3, w)
        record.validate(tol=1e-6)


def test_positive_key_scaling_keeps_rows_normalized():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(1, 8, 2))
    k1 = rng.normal(size=(1, 8, 2))
    k2 = rng.normal(size=(1, 8, 2))
    w = make_weights(2, rng)
    _, base = attend(x, k1, k2, "cross_dual_key", 2, w)
    _, scaled = attend(x, 3.5 * k1, k2, "cross_dual_key", 2, w)
    scaled.validate(tol=1e-6)
    assert not np.allclose(base.patch_weights, scaled.patch_weights, atol=1e-6)


def test_batch_permutation_equivariance():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(4, 6, 3))
    k1 = rng.normal(size=(4, 6, 3))
    k2 = rng.normal(size=(4, 6, 3))
    w = make_weights(3, rng)
    perm = np.array([2, 0, 3, 1])
    ctx, _ = attend(x, k1, k2, "cross_dual_key", 2, w)
    ctx_p, _ = attend(x[perm], k1[perm], k2[perm], "cross_dual_key", 2, w)
    assert np.allclose(ctx[perm], ctx_p, atol=1e-12)


def same_bytes(a, b) -> bool:
    """Equal shape, dtype and bytes: unlike array_equal, -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def fused_and_unfused(variant, shape, p, x_grad, seed=30):
    """Context, record arrays and every gradient from the fused op and the
    unfused chain on the same (B, T, D) inputs, a weighted sum as the loss."""
    rng = np.random.default_rng(seed)
    x, k1, k2 = (np.swapaxes(rng.normal(size=shape), 1, 2) for _ in range(3))
    w_out = Tensor(rng.normal(size=x.shape))
    runs = []
    for op in (cross_patch_attention, unfused_cross_patch_attention):
        w = make_weights(shape[2], np.random.default_rng(seed + 1))
        for _, t in w.named():
            t.requires_grad = True
        xt = Tensor(x, requires_grad=x_grad)
        keys = [Tensor(k, requires_grad=True) for k in (k1, k2)]
        with Tape() as tape:
            ctx, record = op(xt, *keys, variant, p, w)
            tape.backward(sum_all(mul(ctx, w_out)))
        grads = [t.grad for t in (xt, *keys) if t.requires_grad] + [t.grad for _, t in w.named()]
        runs.append([ctx.data, record.patch_weights, record.local_weights, *grads])
    return runs


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("x_grad", [True, False], ids=["x_grad", "x_const"])
@pytest.mark.parametrize(
    "shape,p",
    [((3, 16, 2), 4), ((2, 21, 3), 4), ((2, 5, 3), 8), ((2, 6, 3), 1), ((32, 48, 7), 16), ((5, 24, 7), 16)],
    ids=["exact", "padded", "one_patch", "one_step", "scale2", "scale3_padded"],
)
def test_fused_op_is_bit_identical_to_unfused_chain(variant, x_grad, shape, p):
    fused, chain = fused_and_unfused(variant, shape, p, x_grad)
    assert len(fused) == len(chain)
    for i, (a, b) in enumerate(zip(fused, chain)):
        assert same_bytes(a, b), f"output {i} differs"


@pytest.mark.parametrize("variant", VARIANTS)
def test_fused_op_input_gradients_pass_grad_check_with_padding(variant):
    # the input-gradient path IG takes: T = 7 is not a multiple of P = 3,
    # so the padded steps' gradients fold into the last time step
    rng = np.random.default_rng(31)
    b, t, p, d = 2, 7, 3, 2
    keys = [channels_first(rng.normal(size=(b, t, d))) for _ in range(2)]
    w = make_weights(d, rng)
    w_out = Tensor(rng.normal(size=(b, d, t)))
    start = np.swapaxes(rng.normal(size=(b, t, d)), 1, 2)
    reads = {"input", *KEY_SOURCES[variant]}
    for i in [i for i, src in enumerate(("input", "forecast", "seasonal")) if src in reads]:
        def f(v, _i=i):
            streams = [Tensor(start), *keys]
            streams[_i] = v
            return sum_all(mul(cross_patch_attention(*streams, variant, p, w)[0], w_out))

        report = grad_check(f, start if i == 0 else keys[i - 1].data, tol=1e-4)
        assert report.passed, f"stream {i}: {report}"


@pytest.mark.parametrize("variant", VARIANTS)
def test_gradients_through_attention(variant):
    rng = np.random.default_rng(16)
    b, t, p, d = 1, 4, 2, 2
    k1 = channels_first(rng.normal(size=(b, t, d)))
    k2 = channels_first(rng.normal(size=(b, t, d)))
    w = make_weights(d, rng)

    def f(x):
        ctx, _ = cross_patch_attention(x, k1, k2, variant, p, w)
        return sum_all(ctx * ctx)

    report = grad_check(f, np.swapaxes(rng.normal(size=(b, t, d)), 1, 2), tol=1e-4)
    assert report.passed, str(report)


def test_gradients_reach_projection_weights():
    rng = np.random.default_rng(17)
    b, t, p, d = 1, 4, 2, 2
    x = channels_first(rng.normal(size=(b, t, d)))
    k1 = channels_first(rng.normal(size=(b, t, d)))
    k2 = channels_first(rng.normal(size=(b, t, d)))

    base = make_weights(d, rng)

    def f_for(name):
        def f(wt):
            kwargs = {n.split(".")[-1]: t for n, t in base.named()}
            kwargs[name] = wt
            ctx, _ = cross_patch_attention(x, k1, k2, "cross_dual_key", p, AttentionWeights(**kwargs), 0)
            return sum_all(ctx * ctx)

        return f

    for name in ("w_query", "w_key", "w_value", "w_local_query", "w_local_key", "w_local_value"):
        report = grad_check(f_for(name), getattr(base, name).data, tol=1e-4)
        assert report.passed, f"{name}: {report}"


@pytest.mark.parametrize("variant", VARIANTS)
def test_records_are_read_only_and_reading_them_keeps_gradients(variant):
    # the record shares its weights with the tape, without a copy
    rng = np.random.default_rng(19)
    x, k1, k2 = (rng.normal(size=(2, 8, 3)) for _ in range(3))

    def gradients(read_records):
        w = make_weights(3, np.random.default_rng(20))
        for _, t in w.named():
            t.requires_grad = True
        xt = Tensor(np.swapaxes(x, 1, 2), requires_grad=True)
        with Tape() as tape:
            ctx, record = cross_patch_attention(xt, channels_first(k1), channels_first(k2), variant, 2, w)
            if read_records:
                record.validate()
                for arr in (record.patch_weights, record.local_weights):
                    with pytest.raises(ValueError):
                        arr[0] = 0.0
                    with pytest.raises(ValueError):
                        arr += 1.0
            tape.backward(sum_all(ctx * ctx))
        return [xt.grad] + [t.grad for _, t in w.named()]

    for untouched, read in zip(gradients(False), gradients(True)):
        assert np.array_equal(untouched, read)


# ---------------------------------------------------------------------------
# argument and error handling


def test_argument_validation():
    rng = np.random.default_rng(21)
    x = channels_first(rng.normal(size=(1, 8, 2)))
    w = make_weights(2, rng)
    with pytest.raises(ValueError, match="unknown variant 'fancy_attention'"):
        cross_patch_attention(x, x, x, "fancy_attention", 2, w)
    with pytest.raises(ValueError, match="patch_len must be >= 1, got 0"):
        cross_patch_attention(x, x, x, "cross_dual_key", 0, w)
    # the input's width is the model dimension: weights of another width
    # fail in the projection
    wide = channels_first(rng.normal(size=(1, 8, 3)))
    for variant in VARIANTS:
        with pytest.raises(ShapeError):
            cross_patch_attention(wide, wide, wide, variant, 2, w)


def test_shape_mismatch_errors():
    rng = np.random.default_rng(18)
    x = channels_first(rng.normal(size=(1, 8, 2)))
    short = channels_first(rng.normal(size=(1, 6, 2)))
    w = make_weights(2, rng)
    with pytest.raises(ShapeError):
        cross_patch_attention(x, short, short, "cross_dual_key", 2, w)
    with pytest.raises(ShapeError):
        cross_patch_attention(x, None, None, "cross_dual_key", 2, w)
    # a missing key is named with the variant that reads it
    with pytest.raises(ShapeError, match="cross_shared_key requires the forecast key"):
        cross_patch_attention(x, None, x, "cross_shared_key", 2, w)
    with pytest.raises(ShapeError, match="cross_dual_key requires the seasonal key"):
        cross_patch_attention(x, x, None, "cross_dual_key", 2, w)


def test_record_validate_catches_corruption():
    bad = AttentionRecord(
        patch_weights=np.array([[[0.9, 0.3], [0.5, 0.5]]]),
        local_weights=np.ones((1, 2, 1, 1)),
        scale_index=2,
        patch_len=1,
        seq_len=2,
    )
    with pytest.raises(ValueError):
        bad.validate()
