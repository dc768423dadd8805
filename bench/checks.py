"""Correctness checks for the benchmark workloads.

Every check is a pure function of the program's outputs and of
references computed here, apart from the program: a plain-numpy forward
pass written from the equations in the package's module docstrings,
central differences from forward passes, a persistence forecast, forward
differences for integrated-gradients completeness. Each returns a list
of problems; an empty list means the check passed. ``test_checks.py``
feeds every check a wrong output and sees it reject.
"""

from __future__ import annotations

import math

import numpy as np

INSTANCE_NORM_EPS = 1e-5  # the value model.py documents for its instance norm
GELU_C = math.sqrt(2.0 / math.pi)


# ---------------------------------------------------------------------------
# plain-numpy forward pass of CrossScaleNet


def _avg_pool(x: np.ndarray, factor: int) -> np.ndarray:
    """Non-overlapping means along axis 1; a ragged tail averages what it has."""
    t = x.shape[1]
    return np.stack([x[:, lo:lo + factor].mean(axis=1) for lo in range(0, t, factor)], axis=1)


def _moving_average(x: np.ndarray, kernel: int) -> np.ndarray:
    """Centered moving average along axis 1 with replicate padding."""
    half = (kernel - 1) // 2
    t = x.shape[1]
    idx = np.clip(np.arange(t)[:, None] + np.arange(-half, half + 1)[None, :], 0, t - 1)
    return x[:, idx].mean(axis=2)


def _interp(x: np.ndarray, new_len: int) -> np.ndarray:
    """Linear resampling along axis 1, endpoints aligned."""
    t = x.shape[1]
    pos = np.arange(new_len) * (t - 1) / (new_len - 1)
    lo = np.minimum(np.floor(pos).astype(int), t - 2)
    frac = (pos - lo)[None, :, None]
    return (1.0 - frac) * x[:, lo] + frac * x[:, lo + 1]


def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _patchify(x: np.ndarray, p: int) -> np.ndarray:
    b, t, d = x.shape
    n = -(-t // p)
    pad = np.repeat(x[:, -1:], n * p - t, axis=1)
    return np.concatenate([x, pad], axis=1).reshape(b, n, p, d)


def _encoder(component: np.ndarray, enc) -> np.ndarray:
    h = np.swapaxes(component, 1, 2) @ enc.w_time1.data + enc.b_time1.data
    h = 0.5 * h * (1.0 + np.tanh(GELU_C * (h + 0.044715 * h ** 3)))
    h = np.swapaxes(h @ enc.w_time2.data + enc.b_time2.data, 1, 2)  # (B, H, D)
    return h + h @ enc.w_channel.data + enc.b_channel.data


def _attention_context(x, key_forecast, key_seasonal, w, variant: str, p: int) -> np.ndarray:
    scale = 1.0 / math.sqrt(x.shape[2])
    if variant == "self_attention":
        a = _softmax((x @ w.w_query.data) @ np.swapaxes(x @ w.w_key.data, 1, 2) * scale)
        return a @ (x @ w.w_value.data)
    patch_key = {"cross_dual_key": key_forecast, "cross_shared_key": key_forecast,
                 "patch_attention": x}[variant]
    local_key = {"cross_dual_key": key_seasonal, "cross_shared_key": key_forecast,
                 "patch_attention": x}[variant]
    xp = _patchify(x, p)
    pooled_q = xp.mean(axis=2)
    pooled_k = _patchify(patch_key, p).mean(axis=2)
    a_patch = _softmax((pooled_q @ w.w_query.data)
                       @ np.swapaxes(pooled_k @ w.w_key.data, 1, 2) * scale)
    ctx_patch = (a_patch @ (pooled_q @ w.w_value.data))[:, :, None, :]
    kp = _patchify(local_key, p)
    a_local = _softmax((xp @ w.w_local_query.data)
                       @ np.swapaxes(kp @ w.w_local_key.data, 2, 3) * scale)
    ctx = ctx_patch + a_local @ (xp @ w.w_local_value.data)
    b, n, _, d = ctx.shape
    return ctx.reshape(b, n * p, d)[:, : x.shape[1]]


def reference_forecast(model, x: np.ndarray) -> np.ndarray:
    """(B, T, D) -> (B, H, D), from the documented pipeline, in float64 numpy."""
    cfg, prm = model.config, model.params
    x = np.asarray(x, dtype=np.float64)
    if cfg.instance_norm:
        mu = x.mean(axis=1, keepdims=True)
        std = np.sqrt(((x - mu) ** 2).mean(axis=1, keepdims=True) + INSTANCE_NORM_EPS)
        x_in = (x - mu) / std
    else:
        x_in = x

    preds, seasonal_1 = [], None
    for m in range(1, cfg.n_scales + 1):
        xs = _avg_pool(x_in, 2 ** (m - 1))
        if m >= 2:
            t_m = xs.shape[1]
            xs = xs + _attention_context(
                xs, _interp(preds[0], t_m), _interp(seasonal_1, t_m),
                prm.attention[m - 1], cfg.variant, cfg.patch_len)
        trend = _moving_average(xs, cfg.decomp_kernel)
        y_seasonal = _encoder(xs - trend, prm.seasonal[m - 1])
        preds.append(y_seasonal + _encoder(trend, prm.trend[m - 1]))
        if m == 1:
            seasonal_1 = y_seasonal

    gated = [y / (1.0 + np.exp(-g.data[0])) for y, g in zip(preds, prm.gate_logits)]
    stacked = np.concatenate(gated, axis=1)  # (B, M*H, D)
    forecast = np.swapaxes(np.swapaxes(stacked, 1, 2) @ prm.fusion_weight.data
                           + prm.fusion_bias.data, 1, 2)
    return forecast * std + mu if cfg.instance_norm else forecast


# ---------------------------------------------------------------------------
# infer-long336


def check_reference(forecast: np.ndarray, reference: np.ndarray, tol: float = 1e-9) -> list[str]:
    dev = float(np.max(np.abs(forecast - reference)) / max(1.0, np.max(np.abs(reference))))
    return [] if dev <= tol else [f"forecast deviates from the numpy reference by {dev:.3e} (tol {tol:g})"]


def check_single_vs_batch(single: np.ndarray, batch_row: np.ndarray, tol: float = 1e-12) -> list[str]:
    dev = float(np.max(np.abs(single - batch_row)))
    return [] if dev <= tol else [f"single-window forecast differs from its batch row by {dev:.3e}"]


def check_shift(shifted: np.ndarray, base: np.ndarray, shift: np.ndarray, tol: float = 1e-9) -> list[str]:
    """predict(x + c) == predict(x) + c per feature: instance norm removes the shift."""
    dev = float(np.max(np.abs(shifted - (base + shift))))
    return [] if dev <= tol else [f"predict(x + c) - (predict(x) + c) reaches {dev:.3e} (tol {tol:g})"]


def check_attention_rows(records, tol: float = 1e-9) -> list[str]:
    problems = []
    for r in records:
        for name, w in (("patch", r.patch_weights), ("local", r.local_weights)):
            if np.min(w) < 0.0:
                problems.append(f"scale {r.scale_index} {name} attention has a negative weight")
            dev = float(np.max(np.abs(w.sum(axis=-1) - 1.0)))
            if dev > tol:
                problems.append(f"scale {r.scale_index} {name} attention rows miss 1 by {dev:.3e}")
    return problems


# ---------------------------------------------------------------------------
# train-syn1


def window_loss(model, x: np.ndarray, y: np.ndarray, target_columns) -> float:
    """Target-channel MSE from a forward pass, computed here."""
    pred = model.predict(x, batch_size=len(x))[..., target_columns]
    return float(np.mean((pred - y) ** 2))


def central_differences(model, x, y, target_columns, coords, eps: float = 1e-5) -> list[float]:
    """d loss / d parameter at each (name, flat index), from forward passes only."""
    named = dict(model.named_parameters())
    out = []
    for name, index in coords:
        flat = named[name].data.reshape(-1)  # a view: edits reach the model
        saved = flat[index]
        flat[index] = saved + eps
        hi = window_loss(model, x, y, target_columns)
        flat[index] = saved - eps
        lo = window_loss(model, x, y, target_columns)
        flat[index] = saved
        out.append((hi - lo) / (2.0 * eps))
    return out


def check_gradients(analytic, numeric, tol: float = 1e-5, floor: float = 1e-4) -> list[str]:
    problems = []
    for i, (a, n) in enumerate(zip(analytic, numeric)):
        rel = abs(a - n) / max(abs(a), abs(n), floor)
        if rel > tol:
            problems.append(f"gradient coordinate {i}: tape {a:.6e} vs central difference {n:.6e}")
    return problems


def persistence_mse(x: np.ndarray, y: np.ndarray, target_columns) -> float:
    """Repeat the last observed target value over the horizon."""
    last = x[:, -1:, target_columns]
    return float(np.mean((np.broadcast_to(last, y.shape) - y) ** 2))


def check_beats_persistence(val_mse: float, baseline: float) -> list[str]:
    if np.isfinite(val_mse) and val_mse < baseline:
        return []
    return [f"validation MSE {val_mse:.4f} does not beat persistence {baseline:.4f}"]


# ---------------------------------------------------------------------------
# explain-syn1


def check_saliency(saliency, lookback: int) -> list[str]:
    s = np.asarray(saliency, dtype=np.float64)
    problems = []
    if s.shape != (lookback,):
        problems.append(f"saliency has shape {s.shape}, expected ({lookback},)")
    elif np.min(s) < 0.0:
        problems.append("saliency has a negative value")
    elif abs(np.max(s) - 1.0) > 1e-12:
        problems.append(f"saliency peaks at {np.max(s):.6g}, not 1")
    return problems


def check_faithfulness(sufficiency: dict, comprehensiveness: dict) -> list[str]:
    return [f"{name} at ratio {r} is {v}, outside [0, 1]"
            for name, scores in (("sufficiency", sufficiency), ("comprehensiveness", comprehensiveness))
            for r, v in scores.items() if not 0.0 <= v <= 1.0]


def reference_ablation(model, x: np.ndarray, y: np.ndarray, target_columns, channels) -> list[float]:
    """Relative rise of the reference forecast's MSE when a channel is
    replaced by its per-window mean."""
    def mse(windows):
        # in chunks, so the check's memory stays below the program's own peak
        pred = np.concatenate([reference_forecast(model, windows[lo:lo + 64])
                               for lo in range(0, len(windows), 64)])
        return float(np.mean((pred[..., target_columns] - y) ** 2))

    full = mse(x)
    scores = []
    for c in channels:
        ablated = x.copy()
        ablated[:, :, c] = x[:, :, c].mean(axis=1, keepdims=True)
        scores.append((mse(ablated) - full) / max(full, 1e-12))
    return scores


def check_ablation(scores, reference, tol: float = 1e-9) -> list[str]:
    dev = float(np.max(np.abs(np.asarray(scores) - np.asarray(reference))))
    return [] if dev <= tol else [f"feature ablation scores deviate from the numpy reference by {dev:.3e}"]


def check_ig_completeness(ig_sums, forward_gaps, tol: float = 0.02) -> list[str]:
    """Sum of attributions == F(x) - F(baseline), within tol of the gap."""
    problems = []
    for i, (s, gap) in enumerate(zip(ig_sums, forward_gaps)):
        rel = abs(s - gap) / max(abs(gap), 1e-12)
        if rel > tol:
            problems.append(f"IG window {i}: attributions sum to {s:.6g}, forward gap {gap:.6g}")
    return problems
