"""Optimizer behavior, training loop contracts, metrics, determinism."""

import numpy as np
import pytest

from crossscalenet.data import make_windows
from crossscalenet.model import CrossScaleNet, ModelConfig
from crossscalenet.synthgen import builtin_spec, generate_dataset
from crossscalenet.tensor import Tensor
from crossscalenet.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    EpochStats,
    Metrics,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    compute_metrics,
    evaluate,
    mse_loss,
    train,
    write_history_csv,
)

RNG = np.random.default_rng(41)

DESK = dict(lookback=32, horizon=8, n_features=7, n_scales=2, patch_len=8,
            decomp_kernel=25, hidden_dim=16)


def desk_dataset(n_samples=400, fractions=(0.7, 0.1, 0.2)):
    spec = builtin_spec("SYN1", n_samples=n_samples)
    x, y = generate_dataset(spec)
    return make_windows(np.column_stack([x, y]), DESK["lookback"], DESK["horizon"],
                        split_fractions=fractions)


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradients_leave_params_unchanged():
    params = [Tensor(RNG.normal(size=(3, 2)), requires_grad=True) for _ in range(2)]
    before = [p.data.copy() for p in params]
    state = AdamState.for_params(params)
    adam_step(params, [np.zeros_like(p.data) for p in params], state, TrainConfig())
    for p, b in zip(params, before):
        assert np.array_equal(p.data, b)


def test_adam_constant_gradient_moves_against_sign():
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = AdamState.for_params([p])
    cfg = TrainConfig(learning_rate=0.01)
    trajectory = [p.data[0]]
    for _ in range(50):
        adam_step([p], [np.array([2.5])], state, cfg)
        trajectory.append(p.data[0])
    diffs = np.diff(trajectory)
    assert np.all(diffs < 0)  # positive gradient drives the value down, monotonically


def test_adam_minimizes_quadratic_bowl():
    w = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    state = AdamState.for_params([w])
    cfg = TrainConfig(learning_rate=0.01)
    for _ in range(500):
        adam_step([w], [2.0 * w.data], state, cfg)  # grad of ||w||^2
    assert np.linalg.norm(w.data) < 1e-3


def test_adam_flat_update_equals_per_tensor_formula():
    shapes = [(3, 2), (5,), (1,), (4, 4)]
    params = [Tensor(RNG.normal(size=s), requires_grad=True) for s in shapes]
    reference = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    state = AdamState.for_params(params)
    cfg = TrainConfig(learning_rate=0.01)
    for step in range(1, 4):
        # a transposed (non-contiguous) gradient, as swap_last2's backward gives
        grads = [RNG.normal(size=s[::-1]).T for s in shapes]
        adam_step(params, grads, state, cfg)
        for i, g in enumerate(grads):
            m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
            v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * g * g
            m_hat = m[i] / (1.0 - ADAM_BETA1**step)
            v_hat = v[i] / (1.0 - ADAM_BETA2**step)
            reference[i] = reference[i] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        for p, r in zip(params, reference):
            assert np.array_equal(p.data, r)


def test_adam_shape_mismatch_errors():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    state = AdamState.for_params([p])
    from crossscalenet.tensor import ShapeError

    with pytest.raises(ShapeError):
        adam_step([p], [np.zeros(3)], state, TrainConfig())


# ---------------------------------------------------------------------------
# metrics


def test_perfect_predictor_scores_zero():
    y = RNG.normal(size=(10, 8, 1))
    m = compute_metrics(y, y)
    assert m.mse == 0.0 and m.mae == 0.0


def test_constant_zero_predictor_on_standardized_target():
    ds = desk_dataset(n_samples=10000)
    _, y = ds.windows("test")
    m = compute_metrics(np.zeros_like(y), y)
    # oracle: mse of the zero predictor is exactly the second moment
    assert m.mse == pytest.approx(float((y**2).mean()), rel=1e-12)
    assert abs(m.mse - 1.0) < 0.1


def test_metrics_nonnegative_random():
    for _ in range(5):
        m = compute_metrics(RNG.normal(size=(4, 3, 1)), RNG.normal(size=(4, 3, 1)))
        assert m.mse >= 0.0 and m.mae >= 0.0


def test_mse_loss_matches_manual():
    pred = Tensor(RNG.normal(size=(2, 4, 3)))
    target = RNG.normal(size=(2, 4, 2))
    loss = mse_loss(pred, target, [0, 2])
    manual = np.mean((pred.data[..., [0, 2]] - target) ** 2)
    assert loss.item() == pytest.approx(manual, rel=1e-12)


def test_evaluate_empty_split_errors():
    ds = desk_dataset(n_samples=80, fractions=(1.0, 0.0, 0.0))
    model = CrossScaleNet(ModelConfig(**DESK), seed=0)
    with pytest.raises(ValueError):
        evaluate(model, ds, "test")


# ---------------------------------------------------------------------------
# training loop


def test_single_batch_overfit():
    # 8 windows, 50 epochs: the model must memorize them
    spec = builtin_spec("SYN1", n_samples=DESK["lookback"] + DESK["horizon"] + 8 - 1 + 15)
    x, y = generate_dataset(spec)
    ds = make_windows(np.column_stack([x, y]), DESK["lookback"], DESK["horizon"],
                      split_fractions=(1.0, 0.0, 0.0))
    assert ds.n_windows("train") == 8
    model = CrossScaleNet(ModelConfig(**DESK), seed=1)
    _, history = train(model, ds, TrainConfig(learning_rate=1e-2, batch_size=8, epochs=50, seed=5))
    assert history[-1].train_mse < 0.05, f"final train mse {history[-1].train_mse:.4f}"


def test_history_length_and_finiteness():
    ds = desk_dataset()
    model = CrossScaleNet(ModelConfig(**DESK), seed=2)
    _, history = train(model, ds, TrainConfig(epochs=3, patience=100, seed=6))
    assert len(history) == 3
    assert [h.epoch for h in history] == [0, 1, 2]
    assert all(np.isfinite(h.train_mse) and np.isfinite(h.val_mse) for h in history)


def test_training_reduces_validation_loss():
    ds = desk_dataset(n_samples=800)
    model = CrossScaleNet(ModelConfig(**DESK), seed=3)
    before = evaluate(model, ds, "val").mse
    train(model, ds, TrainConfig(epochs=5, seed=7))
    after = evaluate(model, ds, "val").mse
    assert after < before


def test_determinism_bit_identical_checkpoints(tmp_path):
    ds = desk_dataset()
    paths = []
    for run in range(2):
        model = CrossScaleNet(ModelConfig(**DESK), seed=4)
        train(model, ds, TrainConfig(epochs=3, seed=8))
        path = tmp_path / f"run{run}.ckpt"
        model.save(path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_divergence_aborts_loudly():
    ds = desk_dataset(n_samples=200)
    model = CrossScaleNet(ModelConfig(**DESK), seed=5)
    with pytest.raises(TrainingDiverged):
        train(model, ds, TrainConfig(learning_rate=1e200, epochs=10, seed=9))


def test_best_validation_params_restored():
    ds = desk_dataset(n_samples=600)
    model = CrossScaleNet(ModelConfig(**DESK), seed=6)
    _, history = train(model, ds, TrainConfig(epochs=6, patience=1000, seed=10))
    best = min(h.val_mse for h in history)
    restored = evaluate(model, ds, "val").mse
    assert restored == pytest.approx(best, rel=1e-9)


def test_checkpoint_roundtrip_preserves_evaluation(tmp_path):
    ds = desk_dataset()
    model = CrossScaleNet(ModelConfig(**DESK), seed=7)
    train(model, ds, TrainConfig(epochs=2, seed=11))
    before = evaluate(model, ds, "test")
    path = tmp_path / "m.ckpt"
    model.save(path)
    loaded, _ = CrossScaleNet.load(path)
    after = evaluate(loaded, ds, "test")
    assert before.mse == after.mse and before.mae == after.mae


def test_history_csv(tmp_path):
    history = [EpochStats(0, 0.5, 0.6), EpochStats(1, 0.4, 0.55)]
    path = write_history_csv(history, tmp_path / "h.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_mse,val_mse"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == 0.5


@pytest.mark.parametrize("rate", [0.0, -1e-3, float("nan"), float("inf"), float("-inf")])
def test_train_config_requires_a_finite_positive_learning_rate(rate):
    # nan <= 0 is false, so NaN used to pass and fail only inside training
    with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
        TrainConfig(learning_rate=rate)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(patience=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
