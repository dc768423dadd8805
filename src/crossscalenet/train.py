"""Optimizer, training loop, and forecasting metrics."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import WindowDataset
from .model import CrossScaleNet, CrossScaleNetParams
from .tensor import NonFiniteError, ShapeError, Tape, Tensor, mean_all, take_lastdim

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during optimization."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    seed: int = 42
    patience: int = 5

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")


@dataclass
class Metrics:
    mse: float
    mae: float


@dataclass
class EpochStats:
    epoch: int
    train_mse: float
    val_mse: float


@dataclass
class AdamState:
    """First/second moment buffers: one flat vector each over all parameter
    tensors, in order, row-major."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        size = sum(p.size for p in params)
        return cls(step=0, m=np.zeros(size), v=np.zeros(size))


def adam_step(
    params: list[Tensor],
    grads: list[np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> AdamState:
    """One bias-corrected adaptive-moment update, in place on the params.

    The moments and the step are computed once over the concatenated
    gradients; each element takes the per-tensor formula's operations in
    its order, so the result is that formula's bit for bit.
    """
    if len(params) != len(grads):
        raise ShapeError("params and grads length mismatch")
    for p, g in zip(params, grads):
        if g.shape != p.data.shape:
            raise ShapeError(f"grad shape {g.shape} != param shape {p.data.shape}")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    correction1 = 1.0 - b1**state.step
    correction2 = 1.0 - b2**state.step
    g = np.concatenate([g.reshape(-1) for g in grads])
    state.m = b1 * state.m + (1.0 - b1) * g
    state.v = b2 * state.v + (1.0 - b2) * g * g
    step = config.learning_rate * (state.m / correction1) / (np.sqrt(state.v / correction2) + ADAM_EPS)
    lo = 0
    for p in params:
        p.data = p.data - step[lo : lo + p.size].reshape(p.shape)
        lo += p.size
    return state


def mse_loss(prediction: Tensor, target: np.ndarray, target_columns: list[int]) -> Tensor:
    """Mean squared error of the target channels of a (B, H, D) forecast."""
    selected = take_lastdim(prediction, target_columns)
    diff = selected - Tensor(target)
    return mean_all(diff * diff)


def compute_metrics(predictions: np.ndarray, targets: np.ndarray) -> Metrics:
    err = np.asarray(predictions) - np.asarray(targets)
    return Metrics(mse=float(np.mean(err**2)), mae=float(np.mean(np.abs(err))))


def evaluate(model: CrossScaleNet, dataset: WindowDataset, split: str) -> Metrics:
    """Normalized-scale MSE/MAE of the target channels over one split."""
    x, y = dataset.windows(split)
    if len(x) == 0:
        raise ValueError(f"split {split!r} is empty")
    preds = model.predict(x)[..., dataset.target_columns]
    return compute_metrics(preds, y)


def train(
    model: CrossScaleNet,
    dataset: WindowDataset,
    config: TrainConfig,
) -> tuple[CrossScaleNetParams, list[EpochStats]]:
    """Minimize target-channel MSE on the train split.

    Shuffles train windows with a seeded generator each epoch, tracks
    validation loss, early-stops after `patience` epochs without
    improvement, and restores the best-validation parameters. Deterministic
    given (model init, config.seed). Raises TrainingDiverged if any batch
    loss is non-finite.
    """
    rng = np.random.default_rng(config.seed)
    x_train, y_train = dataset.windows("train")
    if len(x_train) == 0:
        raise ValueError("train split is empty")
    has_val = dataset.n_windows("val") > 0

    named = model.named_parameters()
    params = [t for _, t in named]
    state = AdamState.for_params(params)
    target_cols = dataset.target_columns

    history: list[EpochStats] = []
    best_val = np.inf
    best_params = model.params.copy()
    epochs_since_best = 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(x_train))
        batch_losses = []
        for lo in range(0, len(order), config.batch_size):
            batch = order[lo : lo + config.batch_size]
            try:
                with Tape() as tape:
                    prediction, _ = model.forward(Tensor(x_train[batch]))
                    loss = mse_loss(prediction, y_train[batch], target_cols)
                    tape.backward(loss)
            except NonFiniteError as exc:
                raise TrainingDiverged(
                    f"numeric blowup at epoch {epoch}, batch {lo // config.batch_size} "
                    f"(lr={config.learning_rate}, batch_size={config.batch_size}): {exc}"
                ) from exc
            # every op checks its output, so a loss that got here is finite
            batch_losses.append(loss.item())
            adam_step(params, [p.grad for p in params], state, config)

        train_mse = float(np.mean(batch_losses))
        val_mse = evaluate(model, dataset, "val").mse if has_val else float("nan")
        history.append(EpochStats(epoch=epoch, train_mse=train_mse, val_mse=val_mse))

        if has_val:
            if val_mse < best_val:
                best_val = val_mse
                best_params = model.params.copy()
                epochs_since_best = 0
            else:
                epochs_since_best += 1
                if epochs_since_best > config.patience:
                    break

    if has_val:
        model.params = best_params
    return model.params, history


def write_history_csv(history: list[EpochStats], path) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_mse", "val_mse"])
        for row in history:
            writer.writerow([row.epoch, f"{row.train_mse:.17g}", f"{row.val_mse:.17g}"])
    return path
