"""Temporal saliency from attention, agreement scoring, and the
perturbation-based faithfulness battery (sufficiency, comprehensiveness,
feature ablation, integrated gradients).

Saliency aggregation: at each scale, the mass received by a key patch
(column mean of the patch attention) is multiplied by the within-patch
mass of each position (column mean of the local attention), giving a
per-position score at that scale's resolution; scores are linearly
upsampled to the lookback length, averaged across scales, and
max-normalized. The product form lets either attention path veto
positions it considers irrelevant.

Perturbations replace values with the per-window feature mean (blanking a
z-scored series with zeros would inject the mean anyway; the window mean
is the distribution-faithful choice). Sufficiency/comprehensiveness are
normalized by the error gap between the intact and fully-blanked input,
pinning r=1 to 0 and 1 respectively.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .attention import AttentionRecord
from .data import WindowDataset
from .model import CrossScaleNet
from .synthgen import SaliencyTruth
from .tensor import Tape, Tensor, linear_interp, suspend_tape, sum_all, take_lastdim
from .train import compute_metrics

logger = logging.getLogger(__name__)

DEFAULT_RATIOS = (0.1, 0.2, 0.5)


@dataclass
class SaliencyVector:
    """Nonnegative per-position importance over the lookback, max-normalized."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError(f"saliency must be a vector, got shape {self.values.shape}")
        if np.any(self.values < 0):
            raise ValueError("saliency values must be nonnegative")


@dataclass
class AgreementScores:
    precision_at_k: float
    rank_auc: float
    k: int


# ---------------------------------------------------------------------------
# attention -> temporal saliency


def aggregate_saliency(records: list[AttentionRecord], lookback: int) -> SaliencyVector:
    """Fuse attention records from scales >= 2 into one lookback-length vector."""
    if not records:
        raise ValueError(
            "saliency aggregation needs attention records from coarse scales; "
            "configure the model with n_scales >= 2"
        )
    acc = np.zeros(lookback)
    for record in records:
        patch_mass = record.patch_weights.mean(axis=(0, 1))  # (N,) mass per key patch
        local_mass = record.local_weights.mean(axis=(0, 2))  # (N, P) mass per key position
        combined = (patch_mass[:, None] * local_mass).reshape(-1)[: record.seq_len]
        acc += linear_interp(Tensor(combined[None, :]), lookback).data[0]
    acc /= len(records)
    peak = acc.max()
    if peak > 0:
        acc = acc / peak
    return SaliencyVector(acc)


def _chunk_passes(model: CrossScaleNet, windows: np.ndarray, batch_size: int | None = None):
    """Tape-free forwards over chunks of ``model.chunk_size(batch_size)`` windows.

    Yields each chunk's forecast array and its records with B = 1, the
    attention summed over the chunk's windows. A chunk's own maps are
    dropped before the next forward, so memory is bounded by one chunk.
    """
    size = model.chunk_size(batch_size)
    for lo in range(0, len(windows), size):
        with suspend_tape():
            forecast, records = model.forward(Tensor(windows[lo : lo + size]))
        sums = [
            replace(r, patch_weights=r.patch_weights.sum(axis=0, keepdims=True),
                    local_weights=r.local_weights.sum(axis=0, keepdims=True))
            for r in records
        ]
        del records
        yield forecast.data, sums


def _mean_records(chunk_sums, n_windows: int) -> list[AttentionRecord]:
    """Per-scale means over all windows from the chunks' summed records, in chunk order."""
    totals: dict[int, AttentionRecord] = {}
    for sums in chunk_sums:
        for part in sums:
            total = totals.setdefault(part.scale_index, part)
            if total is not part:
                total.patch_weights += part.patch_weights
                total.local_weights += part.local_weights
    for total in totals.values():
        total.patch_weights /= n_windows
        total.local_weights /= n_windows
    return [totals[k] for k in sorted(totals)]


def collect_records(
    model: CrossScaleNet,
    windows: np.ndarray,
    batch_size: int | None = None,
) -> list[AttentionRecord]:
    """Forward a stack of windows in chunks and average the attention per scale.

    Chunks hold ``model.chunk_size(batch_size)`` windows, the rule
    ``predict`` uses. Returns one record per scale >= 2 with B = 1: its
    patch and local weights are the mean over all windows. Only a running
    per-scale sum is kept between chunks, so memory is bounded by one
    chunk, not by the number of windows. A mean of row-stochastic matrices
    is row-stochastic, so the records still ``validate()``. No windows give
    no records.
    """
    return _mean_records((sums for _, sums in _chunk_passes(model, windows, batch_size)), len(windows))


def model_saliency(model: CrossScaleNet, dataset: WindowDataset) -> SaliencyVector:
    """Attention saliency over the test windows."""
    x, _ = dataset.windows("test")
    records = collect_records(model, x)
    return aggregate_saliency(records, dataset.lookback)


# ---------------------------------------------------------------------------
# agreement against ground truth


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def rank_auc(values: np.ndarray, positives: np.ndarray) -> float:
    """Probability a random positive outranks a random negative, ties half."""
    positives = np.asarray(positives, dtype=bool)
    k = int(positives.sum())
    n = len(values)
    if k == 0 or k == n:
        raise ValueError("rank_auc needs both positive and negative positions")
    ranks = _average_ranks(np.asarray(values, dtype=np.float64))
    u = ranks[positives].sum() - k * (k + 1) / 2.0
    return float(u / (k * (n - k)))


def saliency_agreement(saliency: SaliencyVector, truth: SaliencyTruth) -> AgreementScores:
    """precision@k (k = number of truly salient steps) and rank-AUC."""
    values = saliency.values
    temporal = truth.temporal
    if len(values) != len(temporal):
        raise ValueError(f"saliency length {len(values)} != truth length {len(temporal)}")
    k = int(temporal.sum())
    if k == 0:
        raise ValueError("ground truth marks no salient steps")
    top_k = np.argsort(-values, kind="mergesort")[:k]
    precision = float(temporal[top_k].sum() / k)
    return AgreementScores(precision_at_k=precision, rank_auc=rank_auc(values, temporal == 1), k=k)


# ---------------------------------------------------------------------------
# perturbations


def perturb(stack: np.ndarray, mask: np.ndarray, mode: str) -> np.ndarray:
    """Mean-replace the masked time steps of every window in a (B, T, F) stack.

    The (T,) mask marks time steps. keep: steps outside the mask are
    replaced by each window's feature mean; remove: steps inside it are
    replaced. keep(mask) and remove(complement) coincide bit-exactly.
    """
    if mode not in ("keep", "remove"):
        raise ValueError(f"mode must be 'keep' or 'remove', got {mode!r}")
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError(f"perturb needs a (B, T, F) stack, got shape {stack.shape}")
    mask = np.asarray(mask)
    if mask.shape != stack.shape[1:2]:
        raise ValueError(f"mask shape {mask.shape} != ({stack.shape[1]},) for stack {stack.shape}")
    inside = (mask != 0)[:, None]
    means = stack.mean(axis=1, keepdims=True)
    if mode == "keep":
        return np.where(inside, stack, means)
    return np.where(inside, means, stack)


def _check_ratio(ratio: float) -> None:
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")


def _check_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _top_ratio_mask(saliency: SaliencyVector, lookback: int, ratio: float) -> np.ndarray:
    _check_ratio(ratio)
    if len(saliency.values) != lookback:
        raise ValueError(f"saliency length {len(saliency.values)} != lookback {lookback}")
    k = math.ceil(ratio * lookback)
    mask = np.zeros(lookback)
    mask[np.argsort(-saliency.values, kind="mergesort")[:k]] = 1.0
    return mask


def _normalized_error_gap(e_perturbed: float, e_full: float, e_blank: float, metric: str) -> float:
    gap = e_blank - e_full
    if gap <= 0:
        logger.warning(
            "%s: blanked-input error (%.6g) <= intact error (%.6g); degenerate model, returning 0",
            metric, e_blank, e_full,
        )
        return 0.0
    return float(np.clip((e_perturbed - e_full) / gap, 0.0, 1.0))


class _SplitErrors:
    """Target-column MSE of the test windows, intact or perturbed.

    The intact and the fully blanked errors are each predicted at most once,
    so one instance shares them across feature ablation, sufficiency and
    comprehensiveness.
    """

    def __init__(self, model: CrossScaleNet, dataset: WindowDataset):
        self.model = model
        self.dataset = dataset
        self.x, self.y = dataset.windows("test")
        if len(self.x) == 0:
            raise ValueError("split 'test' is empty")

    def _error(self, preds: np.ndarray) -> float:
        return compute_metrics(preds[..., self.dataset.target_columns], self.y).mse

    def mse(self, x: np.ndarray) -> float:
        return self._error(self.model.predict(x))

    @cached_property
    def intact(self) -> tuple[list[AttentionRecord], float]:
        """The mean attention records (as ``collect_records`` gives them) and
        the error of the intact windows, from one tape-free pass."""
        passes = list(_chunk_passes(self.model, self.x))
        records = _mean_records((sums for _, sums in passes), len(self.x))
        return records, self._error(np.concatenate([forecast for forecast, _ in passes]))

    @property
    def full(self) -> float:
        return self.intact[1]

    @cached_property
    def blank(self) -> float:
        return self.mse(perturb(self.x, np.ones(self.dataset.lookback), "remove"))

    def masked(self, saliency: SaliencyVector, ratio: float, mode: str) -> float:
        """Normalized error gap with the top-ratio salient positions kept
        (sufficiency) or removed (comprehensiveness)."""
        mask = _top_ratio_mask(saliency, self.dataset.lookback, ratio)
        e_perturbed = self.mse(perturb(self.x, mask, mode))
        metric = "sufficiency" if mode == "keep" else "comprehensiveness"
        return _normalized_error_gap(e_perturbed, self.full, self.blank, metric)

    def ablation(self, channels: list[int]) -> dict[int, float]:
        denom = max(self.full, 1e-12)
        scores: dict[int, float] = {}
        for channel in channels:
            ablated = self.x.copy()
            ablated[:, :, channel] = self.x[:, :, channel].mean(axis=1, keepdims=True)
            scores[channel] = (self.mse(ablated) - self.full) / denom
        return scores


def sufficiency(
    model: CrossScaleNet,
    dataset: WindowDataset,
    saliency: SaliencyVector,
    ratio: float,
) -> float:
    """Error increase on the test windows when keeping only the top-ratio
    salient positions, normalized to [0, 1] by the blank-input error gap.
    Lower is better."""
    return _SplitErrors(model, dataset).masked(saliency, ratio, "keep")


def comprehensiveness(
    model: CrossScaleNet,
    dataset: WindowDataset,
    saliency: SaliencyVector,
    ratio: float,
) -> float:
    """Error increase on the test windows when removing the top-ratio
    salient positions, normalized like sufficiency. Higher is better."""
    return _SplitErrors(model, dataset).masked(saliency, ratio, "remove")


def feature_ablation(
    model: CrossScaleNet,
    dataset: WindowDataset,
    channels: list[int] | None = None,
) -> dict[int, float]:
    """Per-channel importance: relative test-error increase when the channel
    is mean-replaced across the whole window. Target channels are excluded
    from the default candidate set."""
    if channels is None:
        channels = [c for c in range(dataset.n_columns) if c not in dataset.target_columns]
    return _SplitErrors(model, dataset).ablation(channels)


# ---------------------------------------------------------------------------
# integrated gradients

# Path points per tape, which bounds a tape's memory at any step count. Not
# the tape-free chunk rule: a tape also holds the backward's activations,
# so its size needs its own measurement.
_IG_BATCH = 256


def target_sum_grad_fn(model: CrossScaleNet, target_columns: list[int]):
    """Stack -> (sum of target-channel forecasts, input gradient).

    The returned function takes a (K, T, F) stack of windows; a lone window
    goes in as a one-window stack. The value sums over the whole stack and
    the gradient is (K, T, F). One tape serves the whole stack, and row k
    of its gradient is exactly window k's own gradient, because every op of
    the forward pass (instance norm, pooling, attention, the encoders and
    fusion) acts within one window. Only the floating-point summation order
    depends on K.
    """

    def value_and_grad(stack: np.ndarray) -> tuple[float, np.ndarray]:
        with Tape() as tape:
            x = Tensor(np.asarray(stack, dtype=np.float64), requires_grad=True)
            forecast, _ = model.forward(x)
            total = sum_all(take_lastdim(forecast, target_columns))
            tape.backward(total)
        return total.item(), x.grad

    return value_and_grad


def integrated_gradients(
    value_and_grad,
    window: np.ndarray,
    steps: int = 64,
    baseline: np.ndarray | None = None,
) -> np.ndarray:
    """Path-integral attribution from a baseline to the window, (T, F).

    Right-endpoint Riemann approximation of the path integral; exact for
    linear models at any step count. The default baseline holds every
    feature at its window mean. ``value_and_grad`` follows the stack
    contract of ``target_sum_grad_fn``: it maps a (K, T, F) stack of path
    points to (summed value, (K, T, F) gradient). The path goes to it in
    chunks of at most 256 points, so the default 64 steps take one call.
    Stacking is exact for a model whose ops act within one window.
    """
    _check_positive("steps", steps)
    window = np.asarray(window, dtype=np.float64)
    if baseline is None:
        baseline = np.broadcast_to(window.mean(axis=0, keepdims=True), window.shape)
    baseline = np.asarray(baseline, dtype=np.float64)
    if baseline.shape != window.shape:
        raise ValueError(f"baseline shape {baseline.shape} != window shape {window.shape}")
    delta = window - baseline
    alphas = np.arange(1, steps + 1) / steps
    grad_total = np.zeros_like(window)
    for lo in range(0, steps, _IG_BATCH):
        _, grads = value_and_grad(baseline + alphas[lo : lo + _IG_BATCH, None, None] * delta)
        grad_total += grads.sum(axis=0)
    return delta * grad_total / steps


def ig_attribution_map(
    model: CrossScaleNet,
    dataset: WindowDataset,
    steps: int,
    n_windows: int,
) -> np.ndarray:
    """Mean |IG| over a deterministic sample of test windows, shape (T, F)."""
    _check_positive("n_windows", n_windows)
    x, _ = dataset.windows("test")
    if len(x) == 0:
        raise ValueError("split 'test' is empty")
    picks = np.unique(np.linspace(0, len(x) - 1, min(n_windows, len(x)), dtype=int))
    value_and_grad = target_sum_grad_fn(model, dataset.target_columns)
    acc = np.zeros((dataset.lookback, dataset.n_columns))
    for i in picks:
        acc += np.abs(integrated_gradients(value_and_grad, x[i], steps=steps))
    return acc / len(picks)


# ---------------------------------------------------------------------------
# report


@dataclass
class ExplainReport:
    """Everything the explainability battery produces for one model+dataset."""

    lookback: int
    ratios: tuple[float, ...]
    saliency: SaliencyVector
    attribution_map: np.ndarray            # (T, F) mean |IG|
    feature_importance_ablation: dict[str, float]
    feature_importance_ig: dict[str, float]
    sufficiency: dict[float, float]
    comprehensiveness: dict[float, float]
    agreement: AgreementScores | None

    def to_dict(self) -> dict:
        return {
            "lookback": self.lookback,
            "ratios": list(self.ratios),
            "saliency": [float(v) for v in self.saliency.values],
            "saliency_normalization": "max",
            "attribution_map": [[float(v) for v in row] for row in self.attribution_map],
            "feature_importance": {
                "ablation": self.feature_importance_ablation,
                "integrated_gradients": self.feature_importance_ig,
            },
            "sufficiency": {f"{r:g}": v for r, v in self.sufficiency.items()},
            "comprehensiveness": {f"{r:g}": v for r, v in self.comprehensiveness.items()},
            "agreement": asdict(self.agreement) if self.agreement else None,
        }


def build_report(
    model: CrossScaleNet,
    dataset: WindowDataset,
    truth: SaliencyTruth | None = None,
    ratios: tuple[float, ...] = DEFAULT_RATIOS,
    ig_steps: int = 64,
    ig_windows: int = 16,
) -> ExplainReport:
    """The whole battery, scored on the test windows.

    Every argument is checked before the first forward pass, so a bad one
    costs no work.
    """
    for ratio in ratios:
        _check_ratio(ratio)
    _check_positive("steps", ig_steps)
    _check_positive("n_windows", ig_windows)
    if truth is not None and truth.mask.shape[0] != dataset.lookback:
        raise ValueError(f"truth mask lookback {truth.mask.shape[0]} != dataset lookback {dataset.lookback}")
    errors = _SplitErrors(model, dataset)
    # the attention saliency of model_saliency, from the pass that also
    # gives the intact error
    saliency = aggregate_saliency(errors.intact[0], dataset.lookback)
    attribution = ig_attribution_map(model, dataset, steps=ig_steps, n_windows=ig_windows)

    names = dataset.column_names
    candidates = [c for c in range(dataset.n_columns) if c not in dataset.target_columns]
    ablation_scores = errors.ablation(candidates)
    ig_per_channel = attribution.mean(axis=0)

    return ExplainReport(
        lookback=dataset.lookback,
        ratios=tuple(ratios),
        saliency=saliency,
        attribution_map=attribution,
        feature_importance_ablation={names[c]: float(ablation_scores[c]) for c in candidates},
        feature_importance_ig={names[c]: float(ig_per_channel[c]) for c in candidates},
        sufficiency={r: errors.masked(saliency, r, "keep") for r in ratios},
        comprehensiveness={r: errors.masked(saliency, r, "remove") for r in ratios},
        agreement=None if truth is None else saliency_agreement(saliency, truth),
    )


# ---------------------------------------------------------------------------
# exports: CSV and 8-bit grayscale PGM heatmaps


def write_pgm(path, array2d: np.ndarray) -> Path:
    """Binary PGM, linearly scaled so the array maximum maps to 255."""
    arr = np.asarray(array2d, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"PGM export needs a 2-d array, got shape {arr.shape}")
    peak = arr.max()
    pixels = np.zeros(arr.shape, dtype=np.uint8)
    if peak > 0:
        pixels = np.round(255.0 * np.clip(arr, 0.0, None) / peak).astype(np.uint8)
    height, width = arr.shape
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
    return path


def write_saliency_csv(path, values: np.ndarray) -> Path:
    path = Path(path)
    np.savetxt(path, np.asarray(values), fmt="%.17g", delimiter=",")
    return path


def export_report_files(report: ExplainReport, out_dir) -> list[Path]:
    """report.json, temporal saliency (CSV + 1-pixel-tall PGM), and the
    (features x lookback) attribution heatmap (CSV + PGM)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    written = [
        report_path,
        write_saliency_csv(out_dir / "saliency_temporal.csv", report.saliency.values),
        write_pgm(out_dir / "saliency_temporal.pgm", report.saliency.values[None, :]),
        write_saliency_csv(out_dir / "saliency_map.csv", report.attribution_map),
        write_pgm(out_dir / "saliency_map.pgm", report.attribution_map.T),
    ]
    return written
