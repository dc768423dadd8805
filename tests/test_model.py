"""Model pipeline: decomposition, encoders, scale wiring, fusion, checkpoints."""

import math
import sys

import numpy as np
import pytest

from crossscalenet.model import (
    CrossScaleNet,
    CrossScaleNetParams,
    ModelConfig,
    decompose,
    encoder_forward,
    init_params,
    load_checkpoint,
    model_forward,
    save_checkpoint,
    scale_forward,
)
import crossscalenet.tensor as tensor_mod
from crossscalenet.tensor import (
    NonFiniteError,
    ShapeError,
    Tape,
    Tensor,
    grad_check,
    mean_all,
    sum_all,
)

from test_attention import ref_cross_patch, weights_as_dict

RNG = np.random.default_rng(23)

SMALL = dict(lookback=16, horizon=4, n_features=2, n_scales=2, patch_len=4,
             decomp_kernel=5, hidden_dim=8)


def small_config(**overrides):
    kw = dict(SMALL)
    kw.update(overrides)
    return ModelConfig(**kw)


def channels_first(x: np.ndarray) -> Tensor:
    """(B, T, D) array -> (B, D, T) tensor, the model's internal layout."""
    return Tensor(np.swapaxes(x, 1, 2))


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_reconstructs_exactly():
    for _ in range(200):
        x = RNG.normal(size=(2, 20, 3)) * RNG.uniform(0.1, 10.0)
        seasonal, trend = decompose(Tensor(x), 5)
        assert np.max(np.abs(seasonal.data + trend.data - x)) < 1e-12


def test_decompose_constant_series():
    x = np.full((1, 12, 2), 3.25)
    seasonal, trend = decompose(Tensor(x), 7)
    assert np.allclose(trend.data, x, atol=1e-12)
    assert np.allclose(seasonal.data, 0.0, atol=1e-12)


def test_decompose_fast_sine_has_tiny_interior_trend():
    # period << kernel: the centered average suppresses the oscillation on
    # interior points (replicate-padded edges keep a boundary bias).
    t = np.arange(120)
    x = np.sin(2 * np.pi * t / 8.0)[None, :, None]
    _, trend = decompose(Tensor(x), 25)
    half = 12
    assert np.max(np.abs(trend.data[:, half:-half, :])) < 0.1


def test_decompose_even_kernel_errors():
    with pytest.raises(ShapeError):
        decompose(Tensor(RNG.normal(size=(1, 10, 1))), 4)


# ---------------------------------------------------------------------------
# encoder


def test_encoder_zero_input_zero_biases_gives_zero():
    cfg = small_config()
    params = init_params(cfg, seed=0)  # biases start at zero
    out = encoder_forward(Tensor(np.swapaxes(np.zeros((2, 16, 2)), 1, 2)), params.seasonal[0])
    assert np.allclose(out.data, 0.0, atol=1e-15)


@pytest.mark.parametrize("seq_len,horizon,dim", [(8, 4, 2), (12, 6, 3), (5, 1, 1), (16, 8, 4)])
def test_encoder_output_shape(seq_len, horizon, dim):
    cfg = ModelConfig(lookback=seq_len, horizon=horizon, n_features=dim, n_scales=1,
                      patch_len=1, decomp_kernel=3, hidden_dim=6)
    params = init_params(cfg, seed=1)
    out = encoder_forward(Tensor(np.swapaxes(RNG.normal(size=(3, seq_len, dim)), 1, 2)), params.trend[0])
    assert out.shape == (3, dim, horizon)  # channels-first


def test_encoder_gradients():
    cfg = ModelConfig(lookback=8, horizon=4, n_features=2, n_scales=1, patch_len=1,
                      decomp_kernel=3, hidden_dim=6)
    params = init_params(cfg, seed=2)
    enc = params.seasonal[0]

    def f(x):
        return sum_all(mul_sq(encoder_forward(x, enc)))

    def mul_sq(t):
        return t * t

    report = grad_check(f, np.swapaxes(RNG.normal(size=(1, 8, 2)), 1, 2), tol=1e-4)
    assert report.passed, str(report)


# ---------------------------------------------------------------------------
# scale wiring


def test_scale_forward_zero_valued_attention_is_identity_path():
    cfg = small_config()
    params = init_params(cfg, seed=3)
    att = params.attention[1]
    att.w_value.data[:] = 0.0
    att.w_local_value.data[:] = 0.0

    x = Tensor(RNG.normal(size=(2, 8, 2)))
    keys = channels_first(RNG.normal(size=(2, 8, 2)))
    y_att, ys_att, yt_att, record = scale_forward(channels_first(x.data), keys, keys, cfg, params, 2)
    assert record is not None

    # reference: the plain no-attention pathway through the same encoders
    seasonal, trend = decompose(x, cfg.decomp_kernel)
    y_ref = (encoder_forward(channels_first(seasonal.data), params.seasonal[1])
             + encoder_forward(channels_first(trend.data), params.trend[1]))
    assert np.allclose(y_att.data, y_ref.data, atol=1e-12)


@pytest.mark.parametrize("seq_len,kernel", [(8, 5), (48, 5), (48, 25), (84, 5), (84, 25),
                                             (168, 5), (168, 25)])
def test_folded_decomposition_matches_explicit_decompose(seq_len, kernel):
    # the fold W_s = W1 - M.T @ W1, W_t = M.T @ W1 against decompose + the
    # unfolded encoders, at the scale lengths of lookbacks 16, 96 and 336
    cfg = ModelConfig(lookback=seq_len, horizon=16, n_features=3, n_scales=1, patch_len=1,
                      decomp_kernel=kernel, hidden_dim=8)
    params = init_params(cfg, seed=seq_len + kernel)
    x = RNG.normal(size=(2, seq_len, 3)) * 3.0
    y, y_seasonal, y_trend, _ = scale_forward(channels_first(x), None, None, cfg, params, 1)

    seasonal, trend = decompose(Tensor(x), kernel)
    ys_ref = encoder_forward(channels_first(seasonal.data), params.seasonal[0]).data
    yt_ref = encoder_forward(channels_first(trend.data), params.trend[0]).data
    assert np.max(np.abs(y_seasonal.data - ys_ref)) < 1e-12
    assert np.max(np.abs(y_trend.data - yt_ref)) < 1e-12
    assert np.max(np.abs(y.data - (ys_ref + yt_ref))) < 1e-12


def test_scale_forward_requires_keys_for_coarse_scales():
    cfg = small_config()
    params = init_params(cfg, seed=4)
    with pytest.raises(ShapeError):
        scale_forward(channels_first(RNG.normal(size=(1, 8, 2))), None, None, cfg, params, 2)


def test_scale_forward_matches_scripted_oracle():
    # full chain at one coarse scale: attention context + residual,
    # decomposition, both encoders, recomputed with loops.
    cfg = small_config(variant="cross_dual_key")
    params = init_params(cfg, seed=5)
    x = RNG.normal(size=(1, 8, 2))
    k1 = RNG.normal(size=(1, 8, 2))
    k2 = RNG.normal(size=(1, 8, 2))

    y, y_seasonal, y_trend, _ = scale_forward(
        channels_first(x), channels_first(k1), channels_first(k2), cfg, params, 2
    )

    ctx, _, _ = ref_cross_patch(x, k1, k2, cfg.patch_len, weights_as_dict(params.attention[1]), "cross_dual_key")
    refined = x + ctx
    trend_ref = ref_moving_average(refined, cfg.decomp_kernel)
    seasonal_ref = refined - trend_ref
    ys_ref = ref_encoder(seasonal_ref, params.seasonal[1])
    yt_ref = ref_encoder(trend_ref, params.trend[1])

    assert np.allclose(np.swapaxes(y_seasonal.data, 1, 2), ys_ref, atol=1e-10)
    assert np.allclose(np.swapaxes(y_trend.data, 1, 2), yt_ref, atol=1e-10)
    assert np.allclose(np.swapaxes(y.data, 1, 2), ys_ref + yt_ref, atol=1e-10)


def ref_moving_average(x, kernel):
    b, t, d = x.shape
    half = (kernel - 1) // 2
    out = np.zeros_like(x)
    for bi in range(b):
        for ti in range(t):
            acc = np.zeros(d)
            for off in range(-half, half + 1):
                acc += x[bi, min(max(ti + off, 0), t - 1)]
            out[bi, ti] = acc / kernel
    return out


def ref_gelu(v):
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * v * (1.0 + np.tanh(c * (v + 0.044715 * v**3)))


def ref_encoder(x, enc):
    b, t, d = x.shape
    horizon = enc.w_time2.shape[1]
    h = np.zeros((b, horizon, d))
    for bi in range(b):
        for di in range(d):
            hidden = ref_gelu(x[bi, :, di] @ enc.w_time1.data + enc.b_time1.data)
            h[bi, :, di] = hidden @ enc.w_time2.data + enc.b_time2.data
    out = np.zeros_like(h)
    for bi in range(b):
        for hi in range(horizon):
            row = h[bi, hi]
            out[bi, hi] = row + row @ enc.w_channel.data + enc.b_channel.data
    return out


def ref_interp(x, new_len):
    # x: (B, T, D) resampled along time, endpoint aligned
    b, t, d = x.shape
    out = np.zeros((b, new_len, d))
    for bi in range(b):
        for row in range(new_len):
            if new_len == 1:
                out[bi, row] = x[bi].mean(axis=0)
                continue
            pos = row * (t - 1) / (new_len - 1)
            lo = min(int(math.floor(pos)), t - 1)
            frac = pos - lo
            if frac == 0.0 or lo == t - 1:
                out[bi, row] = x[bi, lo]
            else:
                out[bi, row] = (1 - frac) * x[bi, lo] + frac * x[bi, lo + 1]
    return out


def ref_downsample(x, factor):
    b, t, d = x.shape
    n = math.ceil(t / factor)
    out = np.zeros((b, n, d))
    for bi in range(b):
        for ni in range(n):
            seg = x[bi, ni * factor : min((ni + 1) * factor, t)]
            out[bi, ni] = seg.mean(axis=0)
    return out


def test_model_forward_matches_scripted_oracle():
    cfg = small_config(instance_norm=False)
    params = init_params(cfg, seed=6)
    model = CrossScaleNet(cfg, params)
    x = RNG.normal(size=(2, 16, 2))
    forecast, _ = model.forward(x)

    # scale 1
    trend1 = ref_moving_average(x, cfg.decomp_kernel)
    y1_seasonal = ref_encoder(x - trend1, params.seasonal[0])
    y1 = y1_seasonal + ref_encoder(trend1, params.trend[0])
    # scale 2
    x2 = ref_downsample(x, 2)
    k1 = ref_interp(y1, x2.shape[1])
    k2 = ref_interp(y1_seasonal, x2.shape[1])
    ctx, _, _ = ref_cross_patch(x2, k1, k2, cfg.patch_len, weights_as_dict(params.attention[1]), cfg.variant)
    refined = x2 + ctx
    trend2 = ref_moving_average(refined, cfg.decomp_kernel)
    y2 = ref_encoder(refined - trend2, params.seasonal[1]) + ref_encoder(trend2, params.trend[1])
    # gates start at logit 0 -> 0.5
    stacked = np.concatenate([0.5 * y1, 0.5 * y2], axis=1)  # (B, 2H, D)
    expect = np.zeros((2, cfg.horizon, 2))
    for bi in range(2):
        for di in range(2):
            expect[bi, :, di] = stacked[bi, :, di] @ params.fusion_weight.data + params.fusion_bias.data

    assert np.allclose(forecast.data, expect, atol=1e-10)


# ---------------------------------------------------------------------------
# model contracts


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(n_scales=0)
    with pytest.raises(ValueError):
        small_config(decomp_kernel=4)
    with pytest.raises(ValueError):
        small_config(variant="bogus")
    with pytest.raises(ValueError):
        # coarsest scale (16 / 2^2 = 4) would not hold one patch of 8
        ModelConfig(lookback=16, horizon=4, n_features=2, n_scales=3, patch_len=8,
                    decomp_kernel=3, hidden_dim=8)
    with pytest.raises(ValueError):
        small_config(decomp_kernel=25)  # > 2*8-1 at the coarsest scale


def test_scale_lengths_strictly_decreasing():
    for t, m in [(96, 3), (96, 4), (17, 3), (16, 2)]:
        cfg = ModelConfig(lookback=t, horizon=4, n_features=2, n_scales=m, patch_len=1,
                          decomp_kernel=3, hidden_dim=4)
        lengths = cfg.scale_lengths
        assert lengths[0] == t
        assert all(a > b for a, b in zip(lengths, lengths[1:]))


def test_forward_shapes_and_record_count():
    for m in (1, 2, 3):
        cfg = ModelConfig(lookback=32, horizon=8, n_features=3, n_scales=m, patch_len=4,
                          decomp_kernel=5, hidden_dim=8)
        model = CrossScaleNet(cfg, seed=7)
        forecast, outputs = model.forward(RNG.normal(size=(4, 32, 3)))
        assert forecast.shape == (4, 8, 3)
        assert len(outputs.records) == m - 1
        assert len(outputs.predictions) == m
        for y in outputs.predictions:
            assert y.shape == (4, 3, 8)  # channels-first


def test_single_scale_model_has_no_attention_params():
    cfg = small_config(n_scales=1)
    model = CrossScaleNet(cfg, seed=8)
    names = [n for n, _ in model.named_parameters()]
    assert not any("attention" in n for n in names)
    assert sum("gate" in n for n in names) == 1


def test_gate_logits_start_at_half_strength():
    cfg = small_config()
    params = init_params(cfg, seed=9)
    for gate in params.gate_logits:
        assert gate.data.shape == (1,)
        assert gate.data[0] == 0.0  # sigmoid(0) = 0.5


def test_nonfinite_input_rejected():
    cfg = small_config()
    model = CrossScaleNet(cfg, seed=10)
    bad = np.zeros((1, 16, 2))
    bad[0, 3, 1] = np.nan
    with pytest.raises(NonFiniteError):
        model.forward(bad)


def test_wrong_input_shape_rejected():
    model = CrossScaleNet(small_config(), seed=11)
    with pytest.raises(ShapeError):
        model.forward(RNG.normal(size=(1, 15, 2)))
    with pytest.raises(ShapeError):
        model.forward(RNG.normal(size=(1, 16, 3)))


def test_instance_norm_shift_equivariance():
    cfg = small_config(instance_norm=True)
    model = CrossScaleNet(cfg, seed=12)
    x = RNG.normal(size=(3, 16, 2))
    shift = np.array([1.7, -42.0])
    base, _ = model.forward(x)
    shifted, _ = model.forward(x + shift)
    assert np.max(np.abs(shifted.data - (base.data + shift))) < 1e-6


def test_instance_norm_scale_equivariance():
    cfg = small_config(instance_norm=True)
    model = CrossScaleNet(cfg, seed=13)
    x = RNG.normal(size=(2, 16, 2))
    base, _ = model.forward(x)
    scaled, _ = model.forward(x * 100.0)
    assert np.max(np.abs(scaled.data - base.data * 100.0)) < 1e-3


def test_variant_parameter_counts():
    counts = {}
    for variant in ("self_attention", "patch_attention", "cross_shared_key", "cross_dual_key"):
        model = CrossScaleNet(small_config(variant=variant), seed=14)
        counts[variant] = model.parameter_count()
    d = SMALL["n_features"]
    # patch variants carry the local projection trio on each coarse scale
    extra = 3 * d * d * (SMALL["n_scales"] - 1)
    assert counts["patch_attention"] == counts["cross_shared_key"] == counts["cross_dual_key"]
    assert counts["cross_dual_key"] == counts["self_attention"] + extra


def test_variant_outputs_shape_identical():
    x = RNG.normal(size=(2, 16, 2))
    shapes = set()
    for variant in ("self_attention", "patch_attention", "cross_shared_key", "cross_dual_key"):
        model = CrossScaleNet(small_config(variant=variant), seed=15)
        forecast, _ = model.forward(x)
        shapes.add(forecast.shape)
    assert shapes == {(2, 4, 2)}


def set_named_param(params: CrossScaleNetParams, name: str, tensor: Tensor) -> None:
    """Swap one named tensor object inside the params structure."""
    parts = name.split(".")
    if parts[0] == "fusion":
        setattr(params, "fusion_weight" if parts[1] == "weight" else "fusion_bias", tensor)
        return
    m = int(parts[0].removeprefix("scale")) - 1
    if parts[1] == "gate":
        params.gate_logits[m] = tensor
    elif parts[1] == "seasonal":
        setattr(params.seasonal[m], parts[2], tensor)
    elif parts[1] == "trend":
        setattr(params.trend[m], parts[2], tensor)
    else:
        setattr(params.attention[m], parts[2], tensor)


def test_model_gradients_pass_grad_check():
    # MSE loss against fixed targets, gradient w.r.t. representative tensors
    cfg = small_config()
    params = init_params(cfg, seed=16)
    x = RNG.normal(size=(1, 16, 2))
    target = Tensor(RNG.normal(size=(1, 4, 2)))

    for name in ("fusion.weight", "scale1.seasonal.w_time1", "scale2.attention.w_local_key",
                 "scale2.gate", "scale1.trend.b_time2", "scale1.trend.w_time1",
                 "scale2.seasonal.w_time1", "scale2.trend.w_time1"):
        start = dict(params.named_tensors())[name].data.copy()

        def f(v, _name=name):
            probe = params.copy()
            set_named_param(probe, _name, v)
            diff = model_forward(Tensor(x), probe, cfg)[0] - target
            return mean_all(diff * diff)

        report = grad_check(f, start, tol=1e-3)
        assert report.passed, f"{name}: {report}"

    # the input path, which integrated gradients differentiate
    def f_input(v):
        diff = model_forward(v, params, cfg)[0] - target
        return mean_all(diff * diff)

    report = grad_check(f_input, x, tol=1e-3)
    assert report.passed, f"input: {report}"


def test_forward_op_counts_at_acceptance_config(monkeypatch):
    # one forward at lookback 96, 7 channels, 3 scales, patch 16: the fold
    # removes the moving averages, the channels-first layout most
    # transposes, and one patchify per attention stream the rest
    limits = {"moving_average": 0, "broadcast_to": 0, "patchify": 6, "swap_last2": 20}
    calls = dict.fromkeys(limits, 0)
    modules = [m for name, m in sys.modules.items() if name.startswith("crossscalenet")]
    for name in limits:
        original = getattr(tensor_mod, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)

    cfg = ModelConfig(lookback=96, horizon=16, n_features=7, n_scales=3, patch_len=16)
    assert cfg.variant == "cross_dual_key"
    with Tape():
        model_forward(Tensor(RNG.normal(size=(2, 96, 7)), requires_grad=True), init_params(cfg, seed=25), cfg)
    for name, limit in limits.items():
        assert calls[name] <= limit, f"{name}: {calls[name]} calls > {limit}"


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_and_validation(tmp_path):
    cfg = small_config()
    model = CrossScaleNet(cfg, seed=19)
    x = RNG.normal(size=(3, 16, 2))
    before = model.predict(x)

    path = tmp_path / "model.ckpt"
    model.save(path, extra={"target_columns": [1]})
    loaded, extra = CrossScaleNet.load(path)
    assert extra == {"target_columns": [1]}
    assert np.array_equal(loaded.predict(x), before)

    # shape validation: a checkpoint written for another config must not load
    other = CrossScaleNet(small_config(hidden_dim=12), seed=20)
    other_path = tmp_path / "other.ckpt"
    other.save(other_path)
    import json
    import zipfile

    with zipfile.ZipFile(other_path) as zf:
        header = json.loads(zf.read("config.json"))
    header["model"]["hidden_dim"] = 8  # now inconsistent with stored buffers
    tampered = tmp_path / "tampered.ckpt"
    with zipfile.ZipFile(other_path) as src, zipfile.ZipFile(tampered, "w") as dst:
        for item in src.infolist():
            payload = src.read(item.filename)
            if item.filename == "config.json":
                payload = json.dumps(header)
            dst.writestr(item, payload)
    with pytest.raises(ValueError):
        load_checkpoint(tampered)


def test_checkpoint_bytes_deterministic(tmp_path):
    model = CrossScaleNet(small_config(), seed=21)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    model.save(p1)
    model.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_params_copy_is_deep():
    params = init_params(small_config(), seed=22)
    clone = params.copy()
    clone.fusion_weight.data[:] = 0.0
    assert not np.allclose(params.fusion_weight.data, 0.0)
