"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Training-backed criteria share one session-scoped cache so each
(dataset, variant, seed) combination trains exactly once. Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from crossscalenet.cli import main as cli_main
from crossscalenet.data import make_windows
from crossscalenet.explain import (
    integrated_gradients,
    model_saliency,
    saliency_agreement,
    sufficiency,
    comprehensiveness,
    feature_ablation,
    ig_attribution_map,
)
from crossscalenet.model import CrossScaleNet, ModelConfig, init_params, model_forward
from crossscalenet.synthgen import builtin_spec, generate_dataset, ground_truth_mask
from crossscalenet.tensor import (
    Tensor,
    grad_check,
    mean_all,
    mul,
    softmax_attention,
    softmax_lastdim,
    sum_all,
)
from crossscalenet.train import TrainConfig, evaluate, train

from test_attention import attend, make_weights, ref_cross_patch, weights_as_dict
from test_model import set_named_param

ACCEPT_SEEDS = (42, 43, 44)
FULL = dict(lookback=96, horizon=16, n_features=7, n_scales=3, patch_len=16)


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}" + (f" :: {detail}" if detail else "")
    print("\n" + line)
    assert passed, line


# ---------------------------------------------------------------------------
# shared trained models


@pytest.fixture(scope="session")
def zoo():
    """Cache of (dataset, variant, seed) -> (model, dataset, test metrics)."""
    cache = {}

    def get(name: str, variant: str, seed: int):
        key = (name, variant, seed)
        if key not in cache:
            spec = builtin_spec(name)
            x, y = generate_dataset(spec)
            ds = make_windows(np.column_stack([x, y]), FULL["lookback"], FULL["horizon"])
            model = CrossScaleNet(ModelConfig(**FULL, variant=variant), seed=seed)
            train(model, ds, TrainConfig(epochs=20, seed=seed))
            cache[key] = (model, ds, evaluate(model, ds, "test"))
        return cache[key]

    return get


def mean_mse(zoo, name, variant, seeds=ACCEPT_SEEDS):
    return float(np.mean([zoo(name, variant, s)[2].mse for s in seeds]))


# ---------------------------------------------------------------------------
# 1. autodiff correctness


def test_criterion_1_autodiff(capfd):
    start = time.time()
    rng = np.random.default_rng(0)

    # every differentiable op at tol 1e-4
    from crossscalenet.tensor import (
        avg_downsample, concat, div, encoder_mlp, gelu, linear_interp, matmul, mean_axis,
        moving_average, patched_attention, patchify, reshape, sigmoid, sqrt, swap_last2,
        take_lastdim, unpatchify, broadcast_to,
    )

    def const(*shape):
        # constants are drawn once so every f handed to grad_check is deterministic
        return Tensor(rng.uniform(-1, 1, shape))

    w23, w43, w25, w29 = const(2, 3), const(4, 3), const(2, 5), const(2, 9)
    w1322, w125 = const(1, 3, 2, 2), const(1, 2, 5)
    w33, v3, c23, v6 = const(3, 3), const(3), const(2, 3), const(6)
    w432, w43b = const(4, 3, 2), const(4, 3)
    w22 = Tensor(w23.data[:, :2].copy())
    encoder = [const(*shape) for shape in [(5, 4), (4,), (4, 6), (6,), (3, 3), (3,)]]
    w236 = const(2, 3, 6)
    op_cases = [
        ("matmul", lambda x: sum_all(mul(matmul(x, w33), w23)), (2, 3)),
        ("add", lambda x: sum_all(mul(x + v3, w23)), (2, 3)),
        ("sub", lambda x: sum_all(mul(c23 - x, w23)), (2, 3)),
        ("mul", lambda x: sum_all(mul(x * c23, w23)), (2, 3)),
        ("div", lambda x: sum_all(div(w23, x * 0.2 + 3.0)), (2, 3)),
        ("softmax", lambda x: sum_all(mul(softmax_lastdim(x), w23)), (2, 3)),
        ("sigmoid", lambda x: sum_all(mul(sigmoid(x), w23)), (2, 3)),
        ("gelu", lambda x: sum_all(mul(gelu(x), w23)), (2, 3)),
        ("sqrt", lambda x: sum_all(sqrt(x * x + 1.0)), (2, 3)),
        ("mean_axis", lambda x: sum_all(mul(mean_axis(x, 0), v3)), (2, 3)),
        ("mean_all", lambda x: mean_all(x * x), (2, 3)),
        ("avg_downsample", lambda x: sum_all(mul(avg_downsample(x, 2), w23)), (2, 5)),
        ("moving_average", lambda x: sum_all(mul(moving_average(x, 3), w25)), (2, 5)),
        ("linear_interp", lambda x: sum_all(mul(linear_interp(x, 9), w29)), (2, 5)),
        ("patchify", lambda x: sum_all(mul(patchify(x, 2), w1322)), (1, 2, 5)),
        ("unpatchify", lambda x: sum_all(mul(unpatchify(x, 5), w125)), (1, 3, 2, 2)),
        ("swap_last2", lambda x: sum_all(mul(swap_last2(x), w43)), (3, 4)),
        ("reshape", lambda x: sum_all(mul(reshape(x, (6,)), v6)), (2, 3)),
        ("broadcast_to", lambda x: sum_all(mul(broadcast_to(x, (4, 3, 2)), w432)), (3, 1)),
        ("take_lastdim", lambda x: sum_all(mul(take_lastdim(x, [2, 0]), w22)), (2, 4)),
        ("concat", lambda x: sum_all(mul(concat([x, c23], 0), w43b)), (2, 3)),
        ("softmax_attention", lambda x: sum_all(mul(softmax_attention(x, x, x, 0.7)[0], w432)), (4, 3, 2)),
        ("encoder_mlp", lambda x: sum_all(mul(encoder_mlp(x, *encoder), w236)), (2, 3, 5)),
    ]
    worst_op = 0.0
    for op_name, fn, shape in op_cases:
        rep = grad_check(fn, rng.uniform(-2, 2, shape), eps=1e-5, tol=1e-4)
        worst_op = max(worst_op, rep.max_rel_error)
        assert rep.passed, f"{op_name}: {rep}"

    # the fused attention of every variant, over its input: 7 steps in
    # patches of 3, so the last patch pads. Its own generator leaves the
    # draws of the model check below as they were.
    fused_rng = np.random.default_rng(1)
    k1, k2, w227 = (Tensor(fused_rng.uniform(-1, 1, (2, 2, 7))) for _ in range(3))
    proj = [Tensor(fused_rng.uniform(-1, 1, (2, 2))) for _ in range(6)]
    patched = {
        "self_attention": lambda x: patched_attention(x, x, None, 1, proj[:3]),
        "patch_attention": lambda x: patched_attention(x, x, x, 3, proj),
        "cross_shared_key": lambda x: patched_attention(x, k1, k1, 3, proj),
        "cross_dual_key": lambda x: patched_attention(x, k1, k2, 3, proj),
    }
    for variant, op in patched.items():
        rep = grad_check(lambda x: sum_all(mul(op(x)[0], w227)), fused_rng.uniform(-2, 2, (2, 2, 7)),
                         eps=1e-5, tol=1e-4)
        worst_op = max(worst_op, rep.max_rel_error)
        assert rep.passed, f"patched_attention[{variant}]: {rep}"

    # full model: every parameter tensor against central differences
    cfg = ModelConfig(lookback=16, horizon=4, n_features=2, n_scales=2, patch_len=4,
                      decomp_kernel=5, hidden_dim=8)
    params = init_params(cfg, seed=1)
    x = rng.uniform(-1, 1, (1, 16, 2))
    target = Tensor(rng.uniform(-1, 1, (1, 4, 2)))
    worst_model = 0.0
    worst_name = ""
    for name, tensor in params.named_tensors():
        start_value = tensor.data.copy()

        def f(v, _name=name):
            probe = params.copy()
            set_named_param(probe, _name, v)
            diff = model_forward(Tensor(x), probe, cfg)[0] - target
            return mean_all(diff * diff)

        rep = grad_check(f, start_value, eps=1e-5, tol=1e-3)
        if rep.max_rel_error > worst_model:
            worst_model, worst_name = rep.max_rel_error, name
        assert rep.passed, f"{name}: {rep}"

    elapsed = time.time() - start
    assert elapsed < 30.0, f"autodiff criterion took {elapsed:.1f}s (budget 30s)"
    with capfd.disabled():
        report("1 autodiff correctness",
               True,
               f"ops max rel err {worst_op:.2e} (<1e-4), model max {worst_model:.2e} "
               f"@ {worst_name} (<1e-3), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. attention oracle equivalence


def test_criterion_2_attention_oracle(capfd):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 4, 1))
    k1 = rng.normal(size=(1, 4, 1))
    k2 = rng.normal(size=(1, 4, 1))
    worst = 0.0
    for variant in ("cross_dual_key", "cross_shared_key", "patch_attention", "self_attention"):
        w = make_weights(1, rng)
        ctx, record = attend(x, k1, k2, variant, 2, w)
        ref_ctx, ref_ap, ref_al = ref_cross_patch(x, k1, k2, 2, weights_as_dict(w), variant)
        dev = np.max(np.abs(ctx - ref_ctx))
        dev = max(dev, np.max(np.abs(record.patch_weights - ref_ap)))
        if ref_al is not None:
            dev = max(dev, np.max(np.abs(record.local_weights - ref_al)))
        worst = max(worst, dev)
        assert dev <= 1e-10, f"{variant}: max deviation {dev:.2e}"
    with capfd.disabled():
        report("2 attention oracle equivalence", True, f"max deviation {worst:.2e} (<=1e-10)")


# ---------------------------------------------------------------------------
# 3. the decomposition the forward pass folds into its encoders


def test_criterion_3_decomposition(capfd):
    from numpy.lib.stride_tricks import sliding_window_view

    from crossscalenet.model import _trend_map

    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(1000):
        t = int(rng.integers(8, 64))
        d = int(rng.integers(1, 5))
        kernel = int(rng.choice([3, 5, 7, 9, 25]))
        kernel = min(kernel, 2 * t - 1)
        if kernel % 2 == 0:
            kernel -= 1
        x = rng.normal(size=(1, t, d)) * rng.uniform(0.1, 100.0)
        # the fold's constant M.T, applied channels-first as trend = x @ M.T
        trend = np.swapaxes(x, 1, 2) @ _trend_map(t, kernel).data
        # centred moving average over the series padded by repeating its ends
        half = kernel // 2
        padded = np.pad(x, ((0, 0), (half, half), (0, 0)), mode="edge")
        reference = sliding_window_view(padded, kernel, axis=1).mean(axis=-1)
        worst = max(worst, float(np.max(np.abs(np.swapaxes(trend, 1, 2) - reference))))
    scale_note = "abs, inputs up to ~100x unit scale"
    assert worst < 1e-12 * 100, f"worst trend error {worst:.2e}"
    with capfd.disabled():
        report("3 decomposition (folded trend map vs moving average)", True,
               f"1000 series, worst {worst:.2e} ({scale_note})")


# ---------------------------------------------------------------------------
# 4. attention normalization across 100 random forwards per variant


def test_criterion_4_attention_normalization(capfd):
    rng = np.random.default_rng(4)
    checked = 0
    for variant in ("self_attention", "patch_attention", "cross_shared_key", "cross_dual_key"):
        w = make_weights(3, rng)
        for _ in range(100):
            t = int(rng.choice([6, 9, 12]))
            x = rng.normal(size=(2, t, 3)) * rng.uniform(0.2, 5.0)
            k1 = rng.normal(size=(2, t, 3))
            k2 = rng.normal(size=(2, t, 3))
            _, record = attend(x, k1, k2, variant, 3, w)
            record.validate(tol=1e-6)
            checked += 1
    with capfd.disabled():
        report("4 attention normalization", True, f"{checked} forwards, all rows within 1e-6")


# ---------------------------------------------------------------------------
# 5-6. ablation directions (trained)


@pytest.mark.slow
def test_criterion_5_syn1_ablation_direction(capfd, zoo):
    start = time.time()
    dual = mean_mse(zoo, "SYN1", "cross_dual_key")
    self_ = mean_mse(zoo, "SYN1", "self_attention")
    elapsed = time.time() - start
    ratio = dual / self_
    passed = dual < 0.5 * self_
    with capfd.disabled():
        report("5 SYN1 ablation direction (dual < 0.5 x self)", passed,
               f"dual {dual:.4f} vs self {self_:.4f} (ratio {ratio:.3f}), "
               f"3 seeds, {elapsed / 60:.1f} min")


@pytest.mark.slow
def test_criterion_6_syn8_ablation_direction(capfd, zoo):
    dual = mean_mse(zoo, "SYN8", "cross_dual_key")
    patch = mean_mse(zoo, "SYN8", "patch_attention")
    passed = dual < patch
    with capfd.disabled():
        report("6 SYN8 ablation direction (dual < patch)", passed,
               f"dual {dual:.4f} vs patch {patch:.4f}, 3 seeds")


# ---------------------------------------------------------------------------
# 7. temporal saliency recovery


@pytest.mark.slow
def test_criterion_7_saliency_recovery(capfd, zoo):
    model, ds, _ = zoo("SYN1", "cross_dual_key", 42)
    truth = ground_truth_mask(builtin_spec("SYN1"), FULL["lookback"])
    scores1 = saliency_agreement(model_saliency(model, ds), truth)
    uniform_baseline = truth.temporal.sum() / FULL["lookback"]

    model5, ds5, _ = zoo("SYN5", "cross_dual_key", 42)
    truth5 = ground_truth_mask(builtin_spec("SYN5"), FULL["lookback"])
    scores5 = saliency_agreement(model_saliency(model5, ds5), truth5)

    ok1 = scores1.rank_auc >= 0.75 and scores1.precision_at_k >= 2.5 * uniform_baseline
    ok5 = scores5.rank_auc >= 0.65
    with capfd.disabled():
        report("7 temporal saliency recovery", ok1 and ok5,
               f"SYN1 auc {scores1.rank_auc:.3f} (>=0.75) p@15 {scores1.precision_at_k:.3f} "
               f"(>= {2.5 * uniform_baseline:.3f}); SYN5 auc {scores5.rank_auc:.3f} (>=0.65)")


# ---------------------------------------------------------------------------
# 8. feature importance


@pytest.mark.slow
def test_criterion_8_feature_importance(capfd, zoo):
    model, ds, _ = zoo("SYN1", "cross_dual_key", 42)
    ablation = feature_ablation(model, ds)  # channels 0..5 (target excluded)
    top2_ablation = set(sorted(ablation, key=ablation.get, reverse=True)[:2])

    amap = ig_attribution_map(model, ds, steps=32, n_windows=8)
    ig_scores = {c: float(amap[:, c].mean()) for c in range(6)}
    top2_ig = set(sorted(ig_scores, key=ig_scores.get, reverse=True)[:2])

    ok_ablation = top2_ablation == {0, 1}
    ok_ig = len(top2_ig & {0, 1}) >= 1
    with capfd.disabled():
        report("8 feature importance", ok_ablation and ok_ig,
               f"ablation top2 {sorted(top2_ablation)} (expect [0, 1]); "
               f"IG top2 {sorted(top2_ig)} (>=1 of [0, 1])")


# ---------------------------------------------------------------------------
# 9. sufficiency/comprehensiveness monotonicity and endpoints


@pytest.mark.slow
def test_criterion_9_metric_monotonicity(capfd, zoo):
    model, ds, _ = zoo("SYN1", "cross_dual_key", 42)
    saliency = model_saliency(model, ds)
    ratios = (0.1, 0.2, 0.5)
    suff = [sufficiency(model, ds, saliency, r) for r in ratios]
    comp = [comprehensiveness(model, ds, saliency, r) for r in ratios]
    slack = 0.05
    mono_suff = all(suff[i + 1] <= suff[i] + slack for i in range(2))
    mono_comp = all(comp[i + 1] >= comp[i] - slack for i in range(2))
    end_suff = sufficiency(model, ds, saliency, 1.0)
    end_comp = comprehensiveness(model, ds, saliency, 1.0)
    passed = mono_suff and mono_comp and end_suff == 0.0 and end_comp == 1.0
    with capfd.disabled():
        report("9 metric monotonicity + endpoints", passed,
               f"suff {['%.3f' % v for v in suff]} (non-increasing), "
               f"comp {['%.3f' % v for v in comp]} (non-decreasing), "
               f"suff(1)={end_suff} comp(1)={end_comp}")


# ---------------------------------------------------------------------------
# 10. integrated-gradients completeness


@pytest.mark.slow
def test_criterion_10_ig_completeness(capfd, zoo):
    from crossscalenet.explain import target_sum_grad_fn

    # exact on a hand-built linear model
    rng = np.random.default_rng(10)
    w = rng.normal(size=(12, 3))

    def linear(x):
        return float((w * x).sum()), np.broadcast_to(w, x.shape).copy()

    window = rng.normal(size=(12, 3))
    base = rng.normal(size=(12, 3))
    for steps in (1, 7, 64):
        attribution = integrated_gradients(linear, window, steps=steps, baseline=base)
        assert np.allclose(attribution, w * (window - base), atol=1e-12)

    # within 2% on the trained model at 64 steps
    model, ds, _ = zoo("SYN1", "cross_dual_key", 42)
    x, _ = ds.windows("test")
    f = target_sum_grad_fn(model, ds.target_columns)
    worst = 0.0
    for i in (0, len(x) // 2, len(x) - 1):
        window = x[i]
        attribution = integrated_gradients(f, window, steps=64)
        baseline = np.broadcast_to(window.mean(axis=0, keepdims=True), window.shape)
        delta = f(window[None])[0] - f(baseline[None])[0]
        gap = abs(attribution.sum() - delta) / max(abs(delta), 1e-9)
        worst = max(worst, gap)
        assert gap <= 0.02, f"window {i}: completeness gap {gap:.4f}"
    with capfd.disabled():
        report("10 IG completeness", True,
               f"linear exact at steps 1/7/64; trained-model gap max {worst:.4%} (<=2%)")


# ---------------------------------------------------------------------------
# 11. end-to-end determinism


@pytest.mark.slow
def test_criterion_11_end_to_end_determinism(capfd, tmp_path):
    def pipeline(root):
        gen = root / "gen"
        trn = root / "train"
        exp = root / "explain"
        fast = ["--lookback", "96", "--horizon", "16", "--scales", "2", "--patch", "16",
                "--hidden", "16", "--epochs", "2", "--batch", "64"]
        assert cli_main(["gen", "--dataset", "SYN1", "--samples", "2000", "--seed", "42",
                         "--out", str(gen)]) == 0
        assert cli_main(["train", "--data", str(gen / "SYN1.csv"), "--seed", "42",
                         *fast, "--out", str(trn)]) == 0
        assert cli_main(["explain", "--checkpoint", str(trn / "model.ckpt"),
                         "--data", str(gen / "SYN1.csv"), "--truth", str(gen / "SYN1_mask.csv"),
                         "--ig-steps", "4", "--ig-windows", "2", "--seed", "42",
                         "--out", str(exp)]) == 0
        return {
            "checkpoint": (trn / "model.ckpt").read_bytes(),
            "metrics": (trn / "metrics.json").read_bytes(),
            "report": (exp / "report.json").read_bytes(),
            "data": (gen / "SYN1.csv").read_bytes(),
        }

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    mismatched = [k for k in first if first[k] != second[k]]
    with capfd.disabled():
        report("11 end-to-end determinism", not mismatched,
               "checkpoints, metrics, reports byte-identical" if not mismatched
               else f"differs: {mismatched}")
