"""Multi-scale forecasting with cross-patch attention and intrinsic temporal saliency."""

from .attention import AttentionRecord, AttentionWeights, cross_patch_attention
from .data import WindowDataset, dataset_from_csv, make_windows
from .explain import (
    ExplainReport,
    SaliencyVector,
    aggregate_saliency,
    build_report,
    comprehensiveness,
    feature_ablation,
    integrated_gradients,
    saliency_agreement,
    sufficiency,
)
from .model import CrossScaleNet, CrossScaleNetParams, ModelConfig
from .synthgen import SaliencyTruth, SynthSpec, builtin_spec, generate_dataset, ground_truth_mask
from .tensor import GradCheckReport, Tape, Tensor, grad_check
from .train import Metrics, TrainConfig, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "AttentionRecord",
    "AttentionWeights",
    "CrossScaleNet",
    "CrossScaleNetParams",
    "ExplainReport",
    "GradCheckReport",
    "Metrics",
    "ModelConfig",
    "SaliencyTruth",
    "SaliencyVector",
    "SynthSpec",
    "Tape",
    "Tensor",
    "TrainConfig",
    "WindowDataset",
    "aggregate_saliency",
    "build_report",
    "builtin_spec",
    "comprehensiveness",
    "cross_patch_attention",
    "dataset_from_csv",
    "evaluate",
    "feature_ablation",
    "generate_dataset",
    "grad_check",
    "ground_truth_mask",
    "integrated_gradients",
    "make_windows",
    "saliency_agreement",
    "sufficiency",
    "train",
    "__version__",
]
