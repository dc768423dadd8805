"""Each benchmark check accepts the program's real output and rejects a wrong one.

Run with: python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crossscalenet.explain import collect_records, integrated_gradients, target_sum_grad_fn
from crossscalenet.model import CrossScaleNet, ModelConfig
from crossscalenet.tensor import Tape, Tensor
from crossscalenet.train import mse_loss

import checks

SMALL = dict(lookback=32, horizon=4, n_features=3, n_scales=2, patch_len=8, decomp_kernel=5, hidden_dim=8)


@pytest.fixture(params=["cross_dual_key", "self_attention"])
def model(request):
    return CrossScaleNet(ModelConfig(**SMALL, variant=request.param), seed=3)


@pytest.fixture
def windows():
    return np.random.default_rng(0).normal(size=(6, SMALL["lookback"], SMALL["n_features"]))


def test_reference_forward_rejects_a_perturbed_weight(model, windows):
    forecast = model.predict(windows)
    assert checks.check_reference(forecast, checks.reference_forecast(model, windows)) == []
    model.params.fusion_weight.data[0, 0] += 1e-3
    assert checks.check_reference(forecast, checks.reference_forecast(model, windows))


def test_single_vs_batch_rejects_a_shifted_row(model, windows):
    batch = model.predict(windows)
    single = model.predict(windows[2])
    assert checks.check_single_vs_batch(single, batch[2]) == []
    assert checks.check_single_vs_batch(single + 1e-9, batch[2])


def test_shift_rejects_a_forecast_that_ignores_the_shift(model, windows):
    shift = np.array([3.0, -2.0, 0.5])
    base = model.predict(windows)
    assert checks.check_shift(model.predict(windows + shift), base, shift) == []
    assert checks.check_shift(base, base, shift)


def test_attention_rows_reject_unnormalized_and_negative_weights(model, windows):
    records = collect_records(model, windows)
    assert checks.check_attention_rows(records) == []
    records[0].patch_weights[0, 0, 0] += 1e-6
    assert checks.check_attention_rows(records)
    records = collect_records(model, windows)
    w = records[0].patch_weights  # row sums unchanged, one weight negative
    w[0, 0, :2] = [w[0, 0, 0] + w[0, 0, 1] + 0.1, -0.1]
    assert any("negative" in p for p in checks.check_attention_rows(records))


def _probe(model, windows):
    y = np.random.default_rng(1).normal(size=(len(windows), SMALL["horizon"], 1))
    cols = [SMALL["n_features"] - 1]
    coords = [("scale1.seasonal.w_time1", 5), ("scale2.attention.w_query", 1), ("fusion.weight", 2)]
    with Tape() as tape:
        forecast, _ = model.forward(Tensor(windows))
        tape.backward(mse_loss(forecast, y, cols))
    named = dict(model.named_parameters())
    analytic = [float(named[n].grad.reshape(-1)[i]) for n, i in coords]
    return analytic, checks.central_differences(model, windows, y, cols, coords)


def test_gradient_probe_rejects_a_sign_flipped_gradient(model, windows):
    analytic, numeric = _probe(model, windows)
    assert checks.check_gradients(analytic, numeric) == []
    assert checks.check_gradients([-a for a in analytic], numeric)


def test_persistence_check_rejects_a_worse_model(windows):
    y = np.repeat(windows[:, -1:, -1:], SMALL["horizon"], axis=1) + 0.1
    baseline = checks.persistence_mse(windows, y, [SMALL["n_features"] - 1])
    assert baseline == pytest.approx(0.01)
    assert checks.check_beats_persistence(0.005, baseline) == []
    assert checks.check_beats_persistence(0.02, baseline)
    assert checks.check_beats_persistence(float("nan"), baseline)


def test_saliency_check_rejects_bad_shape_sign_and_peak():
    good = np.linspace(0.0, 1.0, 8)
    assert checks.check_saliency(good, 8) == []
    assert checks.check_saliency(good[:7], 8)
    assert checks.check_saliency(good - 0.1, 8)
    assert checks.check_saliency(good * 0.9, 8)


def test_faithfulness_check_rejects_out_of_range_scores():
    assert checks.check_faithfulness({"0.1": 0.2}, {"0.1": 1.0}) == []
    assert checks.check_faithfulness({"0.1": 1.2}, {"0.1": 0.5})
    assert checks.check_faithfulness({"0.1": 0.2}, {"0.1": -0.01})


def test_ablation_check_rejects_swapped_scores(model, windows):
    from crossscalenet.data import make_windows
    from crossscalenet.explain import feature_ablation

    series = np.random.default_rng(2).normal(size=(80, SMALL["n_features"]))
    dataset = make_windows(series, SMALL["lookback"], SMALL["horizon"])
    x, y = dataset.windows("test")
    channels = [0, 1]
    scores = feature_ablation(model, dataset, channels=channels)
    program = [scores[c] for c in channels]
    reference = checks.reference_ablation(model, x, y, dataset.target_columns, channels)
    assert checks.check_ablation(program, reference) == []
    assert checks.check_ablation(program[::-1], reference)


def test_ig_completeness_rejects_a_scaled_attribution(model, windows):
    value_and_grad = target_sum_grad_fn(model, [SMALL["n_features"] - 1])
    x = windows[0]
    baseline = np.broadcast_to(x.mean(axis=0, keepdims=True), x.shape)
    forecasts = model.predict(np.stack([x, baseline]))[..., -1]
    gap = float(forecasts[0].sum() - forecasts[1].sum())
    total = float(integrated_gradients(value_and_grad, x, steps=64).sum())
    assert checks.check_ig_completeness([total], [gap]) == []
    assert checks.check_ig_completeness([1.05 * total], [gap])
