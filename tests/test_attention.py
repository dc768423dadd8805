"""Cross-patch attention against a loop-based brute-force oracle."""

import math

import numpy as np
import pytest

from crossscalenet.attention import (
    VARIANTS,
    AttentionConfig,
    AttentionRecord,
    AttentionWeights,
    cross_patch_attention,
    local_attention,
    patch_attention,
)
from crossscalenet.tensor import ShapeError, Tape, Tensor, grad_check, patchify, sum_all

RNG = np.random.default_rng(11)


def make_weights(dim, rng, with_local=True):
    def w():
        return Tensor(rng.normal(0.0, 0.6, size=(dim, dim)))

    if with_local:
        return AttentionWeights(w(), w(), w(), w(), w(), w())
    return AttentionWeights(w(), w(), w())


def identity_weights(dim):
    eye = np.eye(dim)
    return AttentionWeights(*(Tensor(eye.copy()) for _ in range(6)))


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
    cfg = AttentionConfig(patch_len=p, variant=variant, model_dim=d)

    ctx, record = cross_patch_attention(Tensor(x), Tensor(k1), Tensor(k2), cfg, w)
    ref_ctx, ref_ap, ref_al = ref_cross_patch(x, k1, k2, p, weights_as_dict(w), variant)

    assert np.allclose(ctx.data, ref_ctx, atol=1e-10)
    assert np.allclose(record.patch_weights, ref_ap, atol=1e-10)
    if ref_al is not None:
        assert np.allclose(record.local_weights, ref_al, atol=1e-10)


def test_small_instance_oracle_tight():
    # the desk-size instance: B=1, T=4, P=2, D=1, identity projections
    x = np.array([[[0.5], [-1.0], [2.0], [0.25]]])
    k1 = np.array([[[1.0], [0.0], [-0.5], [1.5]]])
    k2 = np.array([[[0.2], [0.9], [-0.1], [0.4]]])
    w = identity_weights(1)
    cfg = AttentionConfig(patch_len=2, variant="cross_dual_key", model_dim=1)
    ctx, record = cross_patch_attention(Tensor(x), Tensor(k1), Tensor(k2), cfg, w)
    ref_ctx, ref_ap, ref_al = ref_cross_patch(x, k1, k2, 2, weights_as_dict(w), "cross_dual_key")
    assert np.allclose(ctx.data, ref_ctx, atol=1e-10)
    assert np.allclose(record.patch_weights, ref_ap, atol=1e-10)
    assert np.allclose(record.local_weights, ref_al, atol=1e-10)


def test_hand_computed_two_patch_attention():
    # B=1, T=4, P=2, D=1, identity projections; verify A_P against a direct
    # softmax of the pooled outer product.
    x = np.array([[[1.0], [3.0], [-1.0], [1.0]]])  # pooled: [2, 0]
    k = np.array([[[2.0], [2.0], [4.0], [0.0]]])  # pooled: [2, 2]
    w = identity_weights(1)
    _, attn = patch_attention(patchify(Tensor(x), 2), patchify(Tensor(k), 2), w)
    logits = np.array([[4.0, 4.0], [0.0, 0.0]])  # pooled_q[:,None]*pooled_k[None,:]/sqrt(1)
    expect = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert np.allclose(attn.data[0], expect, atol=1e-12)


# ---------------------------------------------------------------------------
# degenerate contracts


def test_single_patch_attention_is_one():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 3, 2))
    w = make_weights(2, rng)
    _, attn = patch_attention(patchify(Tensor(x), 3), patchify(Tensor(rng.normal(size=(2, 3, 2))), 3), w)
    assert attn.shape == (2, 1, 1)
    assert np.allclose(attn.data, 1.0)


def test_constant_key_gives_uniform_patch_rows():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(1, 8, 2))
    const_key = np.ones((1, 8, 2)) * 0.7
    _, attn = patch_attention(patchify(Tensor(x), 2), patchify(Tensor(const_key), 2), identity_weights(2))
    assert np.allclose(attn.data, 0.25, atol=1e-12)


def test_local_attention_single_position():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 4, 2))
    w = make_weights(2, rng)
    patches = patchify(Tensor(x), 1)
    ctx, attn = local_attention(patches, patches, w)
    assert np.allclose(attn.data, 1.0)
    # P=1: context equals the projected values
    v = x.reshape(4, 2) @ w.w_local_value.data
    assert np.allclose(ctx.data.reshape(4, 2), v, atol=1e-12)


def test_constant_key_patch_gives_uniform_local_rows():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 6, 2))
    const_key = np.full((1, 6, 2), -1.3)
    _, attn = local_attention(patchify(Tensor(x), 3), patchify(Tensor(const_key), 3), identity_weights(2))
    assert np.allclose(attn.data, 1.0 / 3.0, atol=1e-12)


def test_dual_key_with_equal_keys_collapses_to_shared():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 8, 3))
    k = rng.normal(size=(2, 8, 3))
    w = make_weights(3, rng)
    cfg_dual = AttentionConfig(2, "cross_dual_key", 3)
    cfg_shared = AttentionConfig(2, "cross_shared_key", 3)
    ctx_d, rec_d = cross_patch_attention(Tensor(x), Tensor(k), Tensor(k), cfg_dual, w)
    ctx_s, rec_s = cross_patch_attention(Tensor(x), Tensor(k), None, cfg_shared, w)
    assert np.array_equal(ctx_d.data, ctx_s.data)
    assert np.array_equal(rec_d.patch_weights, rec_s.patch_weights)
    assert np.array_equal(rec_d.local_weights, rec_s.local_weights)


def test_dual_vs_shared_key_differs_only_on_local_path():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(1, 8, 2))
    k1 = rng.normal(size=(1, 8, 2))
    k2 = rng.normal(size=(1, 8, 2))
    w = make_weights(2, rng)
    _, rec_d = cross_patch_attention(Tensor(x), Tensor(k1), Tensor(k2), AttentionConfig(2, "cross_dual_key", 2), w)
    _, rec_s = cross_patch_attention(Tensor(x), Tensor(k1), None, AttentionConfig(2, "cross_shared_key", 2), w)
    assert np.allclose(rec_d.patch_weights, rec_s.patch_weights, atol=1e-12)
    assert not np.allclose(rec_d.local_weights, rec_s.local_weights, atol=1e-6)


def test_patch_variant_with_full_length_patch():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(1, 4, 2))
    w = make_weights(2, rng)
    cfg = AttentionConfig(4, "patch_attention", 2)
    _, record = cross_patch_attention(Tensor(x), None, None, cfg, w)
    assert record.patch_weights.shape == (1, 1, 1)
    assert np.allclose(record.patch_weights, 1.0)


# ---------------------------------------------------------------------------
# invariants


@pytest.mark.parametrize("variant", VARIANTS)
def test_rows_normalized_all_variants(variant):
    rng = np.random.default_rng(13)
    cfg = AttentionConfig(3, variant, 4)
    w = make_weights(4, rng)
    for _ in range(20):
        x = rng.normal(size=(2, 9, 4)) * rng.uniform(0.1, 3.0)
        k1 = rng.normal(size=(2, 9, 4))
        k2 = rng.normal(size=(2, 9, 4))
        _, record = cross_patch_attention(Tensor(x), Tensor(k1), Tensor(k2), cfg, w)
        record.validate(tol=1e-6)


def test_positive_key_scaling_keeps_rows_normalized():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(1, 8, 2))
    k1 = rng.normal(size=(1, 8, 2))
    k2 = rng.normal(size=(1, 8, 2))
    w = make_weights(2, rng)
    cfg = AttentionConfig(2, "cross_dual_key", 2)
    _, base = cross_patch_attention(Tensor(x), Tensor(k1), Tensor(k2), cfg, w)
    _, scaled = cross_patch_attention(Tensor(x), Tensor(3.5 * k1), Tensor(k2), cfg, w)
    scaled.validate(tol=1e-6)
    assert not np.allclose(base.patch_weights, scaled.patch_weights, atol=1e-6)


def test_batch_permutation_equivariance():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(4, 6, 3))
    k1 = rng.normal(size=(4, 6, 3))
    k2 = rng.normal(size=(4, 6, 3))
    w = make_weights(3, rng)
    cfg = AttentionConfig(2, "cross_dual_key", 3)
    perm = np.array([2, 0, 3, 1])
    ctx, _ = cross_patch_attention(Tensor(x), Tensor(k1), Tensor(k2), cfg, w)
    ctx_p, _ = cross_patch_attention(Tensor(x[perm]), Tensor(k1[perm]), Tensor(k2[perm]), cfg, w)
    assert np.allclose(ctx.data[perm], ctx_p.data, atol=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_gradients_through_attention(variant):
    rng = np.random.default_rng(16)
    b, t, p, d = 1, 4, 2, 2
    k1 = Tensor(rng.normal(size=(b, t, d)))
    k2 = Tensor(rng.normal(size=(b, t, d)))
    w = make_weights(d, rng)
    cfg = AttentionConfig(p, variant, d)

    def f(x):
        ctx, _ = cross_patch_attention(x, k1, k2, cfg, w)
        return sum_all(ctx * ctx)

    report = grad_check(f, rng.normal(size=(b, t, d)), tol=1e-4)
    assert report.passed, str(report)


def test_gradients_reach_projection_weights():
    rng = np.random.default_rng(17)
    b, t, p, d = 1, 4, 2, 2
    x = Tensor(rng.normal(size=(b, t, d)))
    k1 = Tensor(rng.normal(size=(b, t, d)))
    k2 = Tensor(rng.normal(size=(b, t, d)))
    cfg = AttentionConfig(p, "cross_dual_key", d)

    base = make_weights(d, rng)

    def f_for(name):
        def f(wt):
            kwargs = {n.split(".")[-1]: t for n, t in base.named()}
            kwargs[name] = wt
            ctx, _ = cross_patch_attention(x, k1, k2, cfg, AttentionWeights(**kwargs), 0)
            return sum_all(ctx * ctx)

        return f

    for name in ("w_query", "w_key", "w_value", "w_local_query", "w_local_key", "w_local_value"):
        report = grad_check(f_for(name), getattr(base, name).data, tol=1e-4)
        assert report.passed, f"{name}: {report}"


# ---------------------------------------------------------------------------
# config and error handling


def test_config_validation():
    with pytest.raises(ValueError):
        AttentionConfig(0, "cross_dual_key", 2)
    with pytest.raises(ValueError):
        AttentionConfig(2, "fancy_attention", 2)
    with pytest.raises(ValueError):
        AttentionConfig(2, "cross_dual_key", 0)


def test_shape_mismatch_errors():
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(1, 8, 2)))
    short = Tensor(rng.normal(size=(1, 6, 2)))
    w = make_weights(2, rng)
    cfg = AttentionConfig(2, "cross_dual_key", 2)
    with pytest.raises(ShapeError):
        cross_patch_attention(x, short, short, cfg, w)
    with pytest.raises(ShapeError):
        cross_patch_attention(x, None, None, cfg, w)


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
