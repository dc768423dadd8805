"""Saliency aggregation oracle, agreement metrics, perturbation battery, IG."""

import math
import tracemalloc

import numpy as np
import pytest

from crossscalenet.attention import VARIANTS, AttentionRecord
from crossscalenet.data import make_windows
from crossscalenet.explain import (
    AgreementScores,
    ExplainReport,
    SaliencyVector,
    aggregate_saliency,
    build_report,
    collect_records,
    comprehensiveness,
    export_report_files,
    feature_ablation,
    ig_attribution_map,
    integrated_gradients,
    model_saliency,
    perturb,
    rank_auc,
    saliency_agreement,
    sufficiency,
    target_sum_grad_fn,
    write_pgm,
)
from crossscalenet.model import CrossScaleNet, ModelConfig
from crossscalenet.synthgen import SaliencyTruth, builtin_spec, generate_dataset, ground_truth_mask
from crossscalenet.tensor import Tape
from crossscalenet.train import TrainConfig, train

RNG = np.random.default_rng(53)

DESK = dict(lookback=32, horizon=8, n_features=7, n_scales=2, patch_len=8,
            decomp_kernel=25, hidden_dim=16)


@pytest.fixture(scope="module")
def trained_setup():
    spec = builtin_spec("SYN1", n_samples=900)
    x, y = generate_dataset(spec)
    ds = make_windows(np.column_stack([x, y]), DESK["lookback"], DESK["horizon"])
    model = CrossScaleNet(ModelConfig(**DESK), seed=0)
    train(model, ds, TrainConfig(epochs=6, seed=1))
    return model, ds


def uniform_record(b=1, n=4, p=4, scale_index=2, seq_len=None):
    seq_len = seq_len or n * p
    return AttentionRecord(
        patch_weights=np.full((b, n, n), 1.0 / n),
        local_weights=np.full((b, n, p, p), 1.0 / p),
        scale_index=scale_index,
        patch_len=p,
        seq_len=seq_len,
    )


# ---------------------------------------------------------------------------
# saliency aggregation


def test_uniform_attention_gives_uniform_saliency():
    s = aggregate_saliency([uniform_record()], lookback=32)
    assert np.allclose(s.values, 1.0, atol=1e-12)


def test_concentrated_patch_mass_peaks_on_that_span():
    n, p, t = 4, 4, 16
    patch = np.zeros((1, n, n))
    patch[:, :, 2] = 1.0  # every query attends key patch 2
    rec = AttentionRecord(patch, np.full((1, n, p, p), 1.0 / p), 2, p, t)
    s = aggregate_saliency([rec], lookback=t)
    span = slice(2 * p, 3 * p)
    assert np.allclose(s.values[span], 1.0, atol=1e-12)
    outside = np.delete(np.arange(t), np.arange(2 * p, 3 * p))
    assert np.all(s.values[outside] < 0.75)


def test_toy_record_chain_matches_hand_computation():
    # N=2, P=2, seq_len 4 -> lookback 8; recompute the whole chain by hand
    patch = np.array([[[0.7, 0.3], [0.4, 0.6]]])          # (1, 2, 2)
    local = np.array([[[[0.9, 0.1], [0.2, 0.8]],
                       [[0.5, 0.5], [0.5, 0.5]]]])        # (1, 2, 2, 2)
    rec = AttentionRecord(patch, local, 2, 2, 4)
    out = aggregate_saliency([rec], lookback=8).values

    patch_mass = patch[0].mean(axis=0)                    # column means: [0.55, 0.45]
    local_mass = local[0].mean(axis=1)                    # (2, 2): [[0.55, 0.45], [0.5, 0.5]]
    combined = np.array([
        patch_mass[0] * local_mass[0, 0], patch_mass[0] * local_mass[0, 1],
        patch_mass[1] * local_mass[1, 0], patch_mass[1] * local_mass[1, 1],
    ])
    # endpoint-aligned linear upsample 4 -> 8: position i maps to i*3/7
    upsampled = np.empty(8)
    for i in range(8):
        pos = i * 3.0 / 7.0
        lo = min(int(math.floor(pos)), 3)
        frac = pos - lo
        upsampled[i] = combined[lo] if frac == 0 or lo == 3 else (1 - frac) * combined[lo] + frac * combined[lo + 1]
    expected = upsampled / upsampled.max()
    assert np.allclose(out, expected, atol=1e-12)


def test_multi_scale_records_averaged():
    r1 = uniform_record(n=4, p=4, scale_index=2)
    patch = np.zeros((1, 2, 2))
    patch[:, :, 0] = 1.0
    r2 = AttentionRecord(patch, np.full((1, 2, 4, 4), 0.25), 3, 4, 8)
    s = aggregate_saliency([r1, r2], lookback=16)
    assert s.values.max() == pytest.approx(1.0)
    assert s.values[0] > s.values[-1]  # scale-3 mass concentrated at the start


def test_empty_records_error_mentions_scales():
    with pytest.raises(ValueError, match="n_scales >= 2"):
        aggregate_saliency([], lookback=16)


def test_batch_order_invariance():
    rng = np.random.default_rng(3)
    logits_p = rng.normal(size=(6, 3, 3))
    logits_l = rng.normal(size=(6, 3, 2, 2))
    softmax = lambda a: np.exp(a) / np.exp(a).sum(axis=-1, keepdims=True)
    patch, local = softmax(logits_p), softmax(logits_l)
    perm = rng.permutation(6)
    s1 = aggregate_saliency([AttentionRecord(patch, local, 2, 2, 6)], 12)
    s2 = aggregate_saliency([AttentionRecord(patch[perm], local[perm], 2, 2, 6)], 12)
    assert np.allclose(s1.values, s2.values, atol=1e-12)


def test_self_attention_records_aggregate_without_special_case():
    cfg = ModelConfig(**{**DESK, "variant": "self_attention"})
    model = CrossScaleNet(cfg, seed=4)
    x = RNG.normal(size=(3, DESK["lookback"], DESK["n_features"]))
    records = collect_records(model, x)
    s = aggregate_saliency(records, DESK["lookback"])
    assert s.values.shape == (DESK["lookback"],)
    assert s.values.max() == pytest.approx(1.0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_collect_records_streams_the_window_mean(variant):
    cfg = ModelConfig(**{**DESK, "n_scales": 3, "patch_len": 4, "decomp_kernel": 5, "variant": variant})
    model = CrossScaleNet(cfg, seed=6)
    x = RNG.normal(size=(20, DESK["lookback"], DESK["n_features"]))
    per_window = [model.forward(x[i : i + 1])[1] for i in range(len(x))]
    for batch_size in (1, 7, 256):  # 7 leaves a ragged last batch of 6
        records = collect_records(model, x, batch_size=batch_size)
        assert [r.scale_index for r in records] == [2, 3]
        for m, record in enumerate(records):
            parts = [rs[m] for rs in per_window]
            patch = np.concatenate([r.patch_weights for r in parts]).mean(axis=0, keepdims=True)
            local = np.concatenate([r.local_weights for r in parts]).mean(axis=0, keepdims=True)
            assert record.patch_weights.shape == patch.shape and record.patch_weights.shape[0] == 1
            assert record.local_weights.shape == local.shape
            np.testing.assert_allclose(record.patch_weights, patch, rtol=0, atol=1e-15)
            np.testing.assert_allclose(record.local_weights, local, rtol=0, atol=1e-15)
            assert (record.patch_len, record.seq_len) == (parts[0].patch_len, parts[0].seq_len)
            record.validate()
    assert collect_records(model, x[:0]) == []


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("variant", ["self_attention", "cross_dual_key"])
def test_inference_memory_is_bounded_by_one_batch(variant):
    cfg = ModelConfig(lookback=96, horizon=16, n_features=7, n_scales=3, patch_len=16, variant=variant)
    model = CrossScaleNet(cfg, seed=7)
    x = RNG.normal(size=(8 * 32, 96, 7))
    model.predict(x[:32], batch_size=32)  # warm-up outside the trace
    calls = {
        "predict": lambda n: model.predict(x[:n], batch_size=32),
        "collect_records": lambda n: collect_records(model, x[:n], batch_size=32),
    }
    for name, call in calls.items():
        one = _traced_peak(lambda: call(32))
        eight = _traced_peak(lambda: call(8 * 32))
        assert eight / one <= 1.2, f"{name}: peak {eight} B over 8 batches vs {one} B over 1"


def test_collect_records_rejects_a_chunk_below_one_window():
    # -1 used to return [] silently
    model = CrossScaleNet(ModelConfig(**DESK), seed=4)
    x = RNG.normal(size=(3, DESK["lookback"], DESK["n_features"]))
    with pytest.raises(ValueError, match="batch_size must be >= 1, got -1"):
        collect_records(model, x, batch_size=-1)


def _long_model(variant: str, lookback: int = 336) -> CrossScaleNet:
    cfg = ModelConfig(lookback=lookback, horizon=16, n_features=7, n_scales=3, patch_len=16,
                      variant=variant)
    return CrossScaleNet(cfg, seed=8)


@pytest.mark.parametrize("variant", ["self_attention", "cross_dual_key"])
def test_default_chunks_match_256_window_chunks_at_lookback_336(variant):
    model = _long_model(variant)
    x = RNG.normal(size=(160, 336, 7))  # 73 + 73 + 14 windows vs one chunk of 160
    assert model.chunk_size() == 73
    assert np.array_equal(model.predict(x), model.predict(x, batch_size=256))
    chunked, whole = collect_records(model, x), collect_records(model, x, batch_size=256)
    assert [r.scale_index for r in chunked] == [r.scale_index for r in whole]
    for a, b in zip(chunked, whole):
        # only the order of the sum over windows differs
        np.testing.assert_allclose(a.patch_weights, b.patch_weights, rtol=0, atol=1e-15)
        np.testing.assert_allclose(a.local_weights, b.local_weights, rtol=0, atol=1e-15)


# Peak at lookback 336 over peak at lookback 96, 256 windows each. Measured:
# dual key 1.17 (predict) and 1.17 (collect_records), self-attention 1.96
# and 1.99. With 256-window chunks at every lookback they read 4.07 and
# 6.80: activations grow with the lookback, self-attention's maps with its
# square.
LONG_PEAK_RATIO = {"cross_dual_key": 1.5, "self_attention": 2.5}


@pytest.mark.parametrize("variant", ["self_attention", "cross_dual_key"])
def test_default_chunk_peak_memory_barely_grows_with_the_lookback(variant):
    peaks = {}
    for lookback in (96, 336):
        model = _long_model(variant, lookback)
        x = RNG.normal(size=(256, lookback, 7))
        model.predict(x[:8])  # warm-up outside the trace
        peaks[lookback] = {
            "predict": _traced_peak(lambda: model.predict(x)),
            "collect_records": _traced_peak(lambda: collect_records(model, x)),
        }
    for name in ("predict", "collect_records"):
        ratio = peaks[336][name] / peaks[96][name]
        assert ratio <= LONG_PEAK_RATIO[variant], f"{name}: lookback 336 peaks at {ratio:.2f}x lookback 96"


# ---------------------------------------------------------------------------
# agreement


def test_agreement_perfect_and_inverted():
    truth = SaliencyTruth(np.array([[1], [1], [0], [0], [0]]))
    perfect = SaliencyVector(truth.temporal.astype(float))
    scores = saliency_agreement(perfect, truth)
    assert scores.precision_at_k == 1.0 and scores.rank_auc == 1.0 and scores.k == 2
    inverted = SaliencyVector(1.0 - truth.temporal.astype(float))
    scores = saliency_agreement(inverted, truth)
    assert scores.precision_at_k == 0.0 and scores.rank_auc == 0.0


def test_agreement_uniform_is_half_auc():
    truth = SaliencyTruth(np.array([[1], [0], [1], [0], [0], [0]]))
    scores = saliency_agreement(SaliencyVector(np.full(6, 0.5)), truth)
    assert scores.rank_auc == pytest.approx(0.5)


def test_rank_auc_tie_convention():
    # one positive tied with one negative, strictly above two others:
    # pairwise wins = 2 full + 0.5 tie out of 3 comparisons
    values = np.array([1.0, 1.0, 0.0, 0.0])
    auc = rank_auc(values, np.array([True, False, False, False]))
    assert auc == pytest.approx((2.0 + 0.5) / 3.0)


def loop_average_ranks(values):
    """Ranks 1..n, ties sharing their average rank, by a walk over the sorted values."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def test_rank_auc_equals_the_tie_loop_bit_for_bit():
    # rounding makes ties common; the vectorized ranks must not move a bit
    rng = np.random.default_rng(54)
    for n in (2, 3, 7, 96, 336):
        for digits in (0, 1, 3):
            values = np.round(rng.normal(size=n), digits)
            positives = np.arange(n) % 3 == 0
            k = int(positives.sum())
            u = loop_average_ranks(values)[positives].sum() - k * (k + 1) / 2.0
            assert rank_auc(values, positives) == float(u / (k * (n - k)))


def test_agreement_rejects_all_zero_truth_and_length_mismatch():
    with pytest.raises(ValueError):
        saliency_agreement(SaliencyVector(np.ones(4)), SaliencyTruth(np.zeros((4, 2))))
    with pytest.raises(ValueError):
        saliency_agreement(SaliencyVector(np.ones(5)), SaliencyTruth(np.ones((4, 2))))


# ---------------------------------------------------------------------------
# perturbation


def test_perturb_identities_and_duality():
    stack = RNG.normal(size=(10, 3))[None]
    full = np.ones(10)
    empty = np.zeros(10)
    assert np.array_equal(perturb(stack, full, "keep"), stack)
    assert np.array_equal(perturb(stack, empty, "remove"), stack)
    mask = (RNG.uniform(size=10) > 0.5).astype(float)
    assert np.array_equal(perturb(stack, mask, "keep"), perturb(stack, 1 - mask, "remove"))


def test_perturb_replaces_with_feature_means():
    window = np.array([[1.0, 10.0], [3.0, 30.0], [5.0, 50.0], [7.0, 70.0]])
    mask = np.array([1.0, 0.0, 0.0, 1.0])
    (kept,) = perturb(window[None], mask, "keep")
    assert np.array_equal(kept[0], window[0])
    assert np.array_equal(kept[3], window[3])
    assert np.allclose(kept[1], window.mean(axis=0))
    assert np.allclose(kept[2], window.mean(axis=0))


def test_perturb_validation():
    window = RNG.normal(size=(4, 2))
    with pytest.raises(ValueError, match=r"needs a \(B, T, F\) stack, got shape \(4, 2\)"):
        perturb(window, np.ones(4), "keep")  # a lone window goes in as window[None]
    with pytest.raises(ValueError):
        perturb(window[None], np.ones(4), "smear")
    stack = RNG.normal(size=(3, 4, 2))
    with pytest.raises(ValueError):
        perturb(stack, np.ones(4), "smear")
    # the mask is one (T,) vector of time steps, nothing that broadcasts to it
    for shape in ((5,), (4, 2), (4, 1), (3, 4, 2)):
        with pytest.raises(ValueError, match="mask shape"):
            perturb(stack, np.ones(shape), "remove")


def test_perturb_stack_matches_single_windows():
    stack = RNG.normal(size=(5, 8, 3))
    mask = (RNG.uniform(size=8) > 0.5).astype(float)
    for mode in ("keep", "remove"):
        batched = perturb(stack, mask, mode)
        for b in range(len(stack)):
            assert np.array_equal(batched[b : b + 1], perturb(stack[b : b + 1], mask, mode))


def test_sufficiency_endpoints(trained_setup):
    model, ds = trained_setup
    saliency = model_saliency(model, ds)
    assert sufficiency(model, ds, saliency, 1.0) == 0.0
    assert comprehensiveness(model, ds, saliency, 1.0) == 1.0


def test_ratio_validation(trained_setup):
    model, ds = trained_setup
    s = SaliencyVector(np.ones(ds.lookback))
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            sufficiency(model, ds, s, bad)
        with pytest.raises(ValueError):
            comprehensiveness(model, ds, s, bad)


def test_metrics_bounded(trained_setup):
    model, ds = trained_setup
    saliency = model_saliency(model, ds)
    for r in (0.1, 0.2, 0.5):
        for value in (sufficiency(model, ds, saliency, r), comprehensiveness(model, ds, saliency, r)):
            assert 0.0 <= value <= 1.0


def test_random_saliency_small_ratio_near_blank_ceiling(trained_setup):
    # keeping a random 10% of positions destroys most of the signal
    model, ds = trained_setup
    random_saliency = SaliencyVector(np.random.default_rng(0).uniform(0.0, 1.0, ds.lookback))
    assert sufficiency(model, ds, random_saliency, 0.1) > 0.5


# ---------------------------------------------------------------------------
# feature ablation


def test_ablation_zero_read_feature_scores_zero():
    cfg = ModelConfig(**DESK)
    model = CrossScaleNet(cfg, seed=5)
    # make every output channel depend only on its own input channel:
    # zero the channel-mixing maps and the attention value projections
    for enc in model.params.seasonal + model.params.trend:
        enc.w_channel.data[:] = 0.0
    for att in model.params.attention:
        if att is not None:
            att.w_value.data[:] = 0.0
            if att.w_local_value is not None:
                att.w_local_value.data[:] = 0.0

    spec = builtin_spec("SYN1", n_samples=400)
    x, y = generate_dataset(spec)
    ds = make_windows(np.column_stack([x, y]), DESK["lookback"], DESK["horizon"])
    scores = feature_ablation(model, ds)
    assert set(scores) == {0, 1, 2, 3, 4, 5}
    for channel, score in scores.items():
        assert score == 0.0, f"channel {channel} leaked: {score}"


def test_ablation_deterministic(trained_setup):
    model, ds = trained_setup
    assert feature_ablation(model, ds) == feature_ablation(model, ds)


# ---------------------------------------------------------------------------
# integrated gradients


def linear_value_and_grad(weights):
    def f(x):
        return float((weights * x).sum()), np.broadcast_to(weights, x.shape).copy()

    return f


def test_ig_zero_at_baseline():
    w = RNG.normal(size=(6, 2))
    f = linear_value_and_grad(w)
    window = np.broadcast_to(RNG.normal(size=(1, 2)), (6, 2)).copy()
    # constant window: baseline (window mean) equals the window itself
    attribution = integrated_gradients(f, window, steps=8)
    assert np.allclose(attribution, 0.0, atol=1e-15)


@pytest.mark.parametrize("steps", [1, 4, 64, 300])
def test_ig_exact_for_linear_model(steps):
    w = RNG.normal(size=(5, 3))
    window = RNG.normal(size=(5, 3))
    baseline = RNG.normal(size=(5, 3))
    attribution = integrated_gradients(linear_value_and_grad(w), window, steps=steps, baseline=baseline)
    assert np.allclose(attribution, w * (window - baseline), atol=1e-12)


def test_ig_completeness_on_trained_model(trained_setup):
    model, ds = trained_setup
    x, _ = ds.windows("test")
    window = x[0]
    f = target_sum_grad_fn(model, ds.target_columns)
    attribution = integrated_gradients(f, window, steps=64)
    baseline = np.broadcast_to(window.mean(axis=0, keepdims=True), window.shape)
    delta = f(window[None])[0] - f(baseline[None])[0]
    assert abs(attribution.sum() - delta) <= 0.02 * max(abs(delta), 1e-9), (
        f"completeness gap {attribution.sum() - delta:.3e} vs delta {delta:.3e}")


def test_stacked_gradient_matches_per_window(trained_setup):
    model, ds = trained_setup
    x, _ = ds.windows("test")
    stack = x[[0, len(x) // 2, len(x) - 1]]
    f = target_sum_grad_fn(model, ds.target_columns)
    total, grads = f(stack)
    assert grads.shape == stack.shape
    singles = [f(window[None]) for window in stack]
    assert abs(total - sum(v for v, _ in singles)) <= 1e-12 * max(1.0, abs(total))
    for k, (_, grad) in enumerate(singles):
        assert grad.shape == (1, *stack.shape[1:])
        assert np.allclose(grads[k], grad[0], rtol=0.0, atol=1e-12)


def test_grad_fn_rejects_a_lone_window(trained_setup):
    model, ds = trained_setup
    x, _ = ds.windows("test")
    f = target_sum_grad_fn(model, ds.target_columns)
    with pytest.raises(ValueError, match=r"expected input \(B, 32, 7\), got \(32, 7\)"):
        f(x[0])


def test_ig_steps_validation():
    with pytest.raises(ValueError):
        integrated_gradients(linear_value_and_grad(np.ones((2, 2))), np.ones((2, 2)), steps=0)


def test_ig_attribution_map_shape(trained_setup):
    model, ds = trained_setup
    amap = ig_attribution_map(model, ds, steps=4, n_windows=3)
    assert amap.shape == (ds.lookback, ds.n_columns)
    assert np.all(amap >= 0)


# ---------------------------------------------------------------------------
# report and exports


def test_build_report_and_files(tmp_path, trained_setup):
    model, ds = trained_setup
    spec = builtin_spec("SYN1", n_samples=900)
    truth = ground_truth_mask(spec, DESK["lookback"])
    report = build_report(model, ds, truth=truth, ig_steps=4, ig_windows=2)

    assert set(report.sufficiency) == {0.1, 0.2, 0.5}
    assert set(report.comprehensiveness) == {0.1, 0.2, 0.5}
    assert report.agreement is not None
    assert len(report.feature_importance_ablation) == 6
    assert len(report.feature_importance_ig) == 6

    files = export_report_files(report, tmp_path)
    names = {p.name for p in files}
    assert names == {"report.json", "saliency_temporal.csv", "saliency_temporal.pgm",
                     "saliency_map.csv", "saliency_map.pgm"}
    import json

    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["agreement"]["k"] == 15
    assert set(payload["sufficiency"]) == {"0.1", "0.2", "0.5"}
    assert len(payload["saliency"]) == DESK["lookback"]


def test_build_report_shares_baselines_and_tapes(monkeypatch, trained_setup):
    model, ds = trained_setup
    calls = {"predict": 0, "backward": 0}
    forwarded = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def forward(self, x):
        forwarded.append(len(x.data))
        return original_forward(self, x)

    original_forward = CrossScaleNet.forward
    monkeypatch.setattr(CrossScaleNet, "predict", counted("predict", CrossScaleNet.predict))
    monkeypatch.setattr(CrossScaleNet, "forward", forward)
    monkeypatch.setattr(Tape, "backward", counted("backward", Tape.backward))
    report = build_report(model, ds)
    monkeypatch.undo()

    # 1 blank + 3 keep + 3 remove + 6 ablated channels; one tape per IG window
    assert calls == {"predict": 13, "backward": 16}
    # the intact test windows go through the model once, for both the
    # attention records and the intact error; IG adds 16 windows x 64 steps
    assert sum(forwarded) == 14 * ds.n_windows("test") + 16 * 64
    for r in report.ratios:
        assert report.sufficiency[r] == sufficiency(model, ds, report.saliency, r)
        assert report.comprehensiveness[r] == comprehensiveness(model, ds, report.saliency, r)
    ablation = feature_ablation(model, ds)
    names = ds.column_names
    assert report.feature_importance_ablation == {names[c]: v for c, v in ablation.items()}


def test_report_without_truth_has_no_agreement(trained_setup):
    model, ds = trained_setup
    report = build_report(model, ds, ratios=(0.5,), ig_steps=2, ig_windows=1)
    assert report.agreement is None
    assert report.to_dict()["agreement"] is None


def test_build_report_names_an_empty_split():
    # without the split check, collect_records of zero windows gives no
    # records and the error blames the scale count instead, and the split
    # scores give NaN under a run of numpy RuntimeWarnings
    data = np.random.default_rng(0).standard_normal((40, 3))
    ds = make_windows(data, 16, 4, split_fractions=(1.0, 0.0, 0.0))
    model = CrossScaleNet(ModelConfig(lookback=16, horizon=4, n_features=3, n_scales=2, patch_len=4,
                                      decomp_kernel=5))
    saliency = SaliencyVector(np.ones(16))
    for run in (lambda: build_report(model, ds),
                lambda: sufficiency(model, ds, saliency, 0.5),
                lambda: comprehensiveness(model, ds, saliency, 0.5),
                lambda: feature_ablation(model, ds)):
        with pytest.raises(ValueError, match="split 'test' is empty"):
            run()


def test_ig_attribution_map_rejects_fewer_than_one_window(trained_setup):
    model, ds = trained_setup
    for n_windows in (0, -1):
        with pytest.raises(ValueError, match=f"n_windows must be >= 1, got {n_windows}"):
            ig_attribution_map(model, ds, steps=2, n_windows=n_windows)


@pytest.mark.parametrize("kwargs, message", [
    ({"ratios": (0.1, 1.5)}, r"ratio must be in \(0, 1\], got 1.5"),
    ({"ig_steps": 0}, "steps must be >= 1, got 0"),
    ({"ig_windows": 0}, "n_windows must be >= 1, got 0"),
    ({"truth": ground_truth_mask(builtin_spec("SYN1"), 96)}, "truth mask lookback 96 != dataset lookback"),
], ids=["ratio", "ig_steps", "ig_windows", "truth"])
def test_build_report_checks_its_arguments_before_any_forward(monkeypatch, trained_setup, kwargs, message):
    # a bad last ratio used to surface only after saliency, IG and ablation had run
    model, ds = trained_setup

    def no_forward(*args, **kwargs):
        raise AssertionError("forward pass before the arguments were checked")

    monkeypatch.setattr(model, "forward", no_forward)
    with pytest.raises(ValueError, match=message):
        build_report(model, ds, **kwargs)


def test_report_rejects_mismatched_truth(trained_setup):
    model, ds = trained_setup
    truth = ground_truth_mask(builtin_spec("SYN1"), 96)  # wrong lookback
    with pytest.raises(ValueError):
        build_report(model, ds, truth=truth, ig_steps=2, ig_windows=1)


def test_pgm_format(tmp_path):
    arr = np.array([[0.0, 0.5], [1.0, 0.25], [0.75, 0.1]])  # (F=3, T=2) layout
    path = write_pgm(tmp_path / "map.pgm", arr)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 3\n255\n")
    pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8).reshape(3, 2)
    assert pixels[1, 0] == 255  # max saliency -> 255
    assert pixels[0, 0] == 0


def test_pgm_all_zero(tmp_path):
    path = write_pgm(tmp_path / "z.pgm", np.zeros((2, 4)))
    pixels = np.frombuffer(path.read_bytes().split(b"255\n", 1)[1], dtype=np.uint8)
    assert np.all(pixels == 0)
