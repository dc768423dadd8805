"""The multi-scale forecaster: decomposition, encoders, cross-scale attention, fusion.

Pipeline per forward pass: optional per-window instance normalization,
average-pool the input to M temporal scales (factor 2^(m-1), scale 1 is
the original resolution), run scale 1 through trend/seasonal encoders,
then refine every coarser scale's input with cross-patch attention whose
keys are the scale-1 forecast and its seasonal branch (interpolated to
the scale's length). Only the key streams the variant reads
(``attention.KEY_SOURCES``) are built; self-attention is patch attention
over one-step patches with no local path and reads neither. Scale
outputs are gated by learnable sigmoid weights, concatenated along the
horizon, and fused by a per-channel FC into the final forecast.

Layout: the forward pass takes (B, T, D) windows and returns (B, H, D)
forecasts. Between its entry and exit transposes every activation is
channels-first, (B, D, T), since every temporal op acts on the last
axis; attention takes and returns that layout too.

Decomposition fold: trend is x @ M.T for a fixed moving-average matrix
M and feeds only the encoders' first temporal FC, so each scale runs
both encoders on its undecomposed input with first layers
W_s = W1_s - M.T @ W1_s and W_t = M.T @ W1_t (tape matmuls, so
gradients reach W1). ``decompose`` is the explicit reference.
"""

from __future__ import annotations

import copy
import json
import zipfile
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from typing import get_type_hints

import numpy as np

from .attention import (
    KEY_SOURCES,
    VARIANTS,
    AttentionRecord,
    AttentionWeights,
    cross_patch_attention,
)
from .tensor import (
    ShapeError,
    Tensor,
    avg_downsample,
    concat,
    encoder_mlp,
    linear_interp,
    matmul,
    mean_axis,
    moving_average,
    moving_average_matrix,
    reshape,
    sigmoid,
    sqrt,
    suspend_tape,
    swap_last2,
)

INSTANCE_NORM_EPS = 1e-5
# Input cells per tape-free chunk: 256 windows at lookback 96 with 7 columns.
_CHUNK_CELLS = 256 * 96 * 7


@dataclass
class ModelConfig:
    """Architecture hyperparameters."""

    lookback: int
    horizon: int
    n_features: int
    n_scales: int
    patch_len: int
    decomp_kernel: int = 25
    # Modest default width: large enough for the forecasting floor on the
    # synthetic suite, small enough that the attention refinement stays
    # load-bearing (which is what makes its weights readable as saliency).
    hidden_dim: int = 16
    variant: str = "cross_dual_key"
    instance_norm: bool = True

    def __post_init__(self):
        if self.n_scales < 1:
            raise ValueError(f"n_scales must be >= 1, got {self.n_scales}")
        if self.lookback < 1 or self.horizon < 1 or self.n_features < 1 or self.hidden_dim < 1:
            raise ValueError("lookback, horizon, n_features, hidden_dim must all be >= 1")
        if self.patch_len < 1:
            raise ValueError(f"patch_len must be >= 1, got {self.patch_len}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.decomp_kernel % 2 == 0 or self.decomp_kernel < 1:
            raise ValueError(f"decomp_kernel must be odd, got {self.decomp_kernel}")
        coarsest = self.scale_lengths[-1]
        # a variant without a local key attends over one-step patches
        if KEY_SOURCES[self.variant][1] is not None and coarsest < self.patch_len:
            raise ValueError(
                f"coarsest scale length {coarsest} < patch_len {self.patch_len}; "
                f"reduce n_scales or patch_len"
            )
        if self.decomp_kernel > 2 * coarsest - 1:
            raise ValueError(
                f"decomp_kernel {self.decomp_kernel} too large for coarsest scale length {coarsest}"
            )

    @property
    def scale_lengths(self) -> list[int]:
        """Sequence length at each scale, strictly decreasing."""
        return [-(-self.lookback // 2 ** m) for m in range(self.n_scales)]


@dataclass
class EncoderWeights:
    """One component encoder: two temporal FCs then channel mixing."""

    w_time1: Tensor
    b_time1: Tensor
    w_time2: Tensor
    b_time2: Tensor
    w_channel: Tensor
    b_channel: Tensor

    def named(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(prefix + f.name, getattr(self, f.name)) for f in fields(self)]


@dataclass
class CrossScaleNetParams:
    """All learnable tensors: per-scale encoders, attention (scales >= 2), gates, fusion head."""

    seasonal: list[EncoderWeights]
    trend: list[EncoderWeights]
    attention: list[AttentionWeights | None]
    gate_logits: list[Tensor]
    fusion_weight: Tensor
    fusion_bias: Tensor

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        out: list[tuple[str, Tensor]] = []
        for m, (enc_s, enc_t) in enumerate(zip(self.seasonal, self.trend), start=1):
            out += enc_s.named(f"scale{m}.seasonal.")
            out += enc_t.named(f"scale{m}.trend.")
        for m, att in enumerate(self.attention, start=1):
            if att is not None:
                out += att.named(f"scale{m}.attention.")
        for m, gate in enumerate(self.gate_logits, start=1):
            out.append((f"scale{m}.gate", gate))
        out.append(("fusion.weight", self.fusion_weight))
        out.append(("fusion.bias", self.fusion_bias))
        return out

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]

    def copy(self) -> "CrossScaleNetParams":
        """Deep copy: fresh tensors with the same values and requires_grad,
        no gradients; every field is copied, whatever it holds."""
        fresh = {id(t): Tensor(t.data.copy(), requires_grad=t.requires_grad) for t in self.tensors()}
        return copy.deepcopy(self, fresh)


def init_params(config: ModelConfig, seed: int = 0) -> CrossScaleNetParams:
    """Seeded Glorot-normal weights, zero biases, zero gate logits."""
    rng = np.random.default_rng(seed)
    dim = config.n_features

    def weight(fan_in, fan_out):
        std = np.sqrt(2.0 / (fan_in + fan_out))
        return Tensor(rng.normal(0.0, std, size=(fan_in, fan_out)), requires_grad=True)

    def bias(n):
        return Tensor(np.zeros(n), requires_grad=True)

    def encoder(seq_len):
        return EncoderWeights(
            w_time1=weight(seq_len, config.hidden_dim),
            b_time1=bias(config.hidden_dim),
            w_time2=weight(config.hidden_dim, config.horizon),
            b_time2=bias(config.horizon),
            w_channel=weight(dim, dim),
            b_channel=bias(dim),
        )

    def attention_weights():
        has_local = KEY_SOURCES[config.variant][1] is not None
        return AttentionWeights(*(weight(dim, dim) for _ in range(6 if has_local else 3)))

    lengths = config.scale_lengths
    return CrossScaleNetParams(
        seasonal=[encoder(t) for t in lengths],
        trend=[encoder(t) for t in lengths],
        attention=[None] + [attention_weights() for _ in lengths[1:]],
        gate_logits=[Tensor(np.zeros(1), requires_grad=True) for _ in lengths],
        fusion_weight=weight(config.n_scales * config.horizon, config.horizon),
        fusion_bias=bias(config.horizon),
    )


# ---------------------------------------------------------------------------
# forward pieces


def decompose(x: Tensor, kernel: int) -> tuple[Tensor, Tensor]:
    """Split channels-first (B, D, T) into (seasonal, trend); trend is the
    centered moving average along time, seasonal the residual, so
    seasonal + trend == x."""
    trend = moving_average(x, kernel)
    return x - trend, trend


def encoder_forward(component: Tensor, weights: EncoderWeights) -> Tensor:
    """Temporal FC -> GELU -> temporal FC to horizon, then channel mixing
    with a residual add, as one ``encoder_mlp`` tape op. Channels-first:
    (B, D, T) -> (B, D, H)."""
    return encoder_mlp(component, weights.w_time1, weights.b_time1, weights.w_time2,
                       weights.b_time2, weights.w_channel, weights.b_channel)


@lru_cache(maxsize=None)
def _trend_map(length: int, kernel: int) -> Tensor:
    """The constant M.T of the decomposition fold, contiguous and read-only.

    Only M.T is kept: M comes from the uncached builder. The kept array is
    allocated before that scratch M, so it does not end up above it and
    pin the top of the heap (which raised peak RSS by about 1 MB at
    lookback 336).
    """
    trend_map = np.empty((length, length))
    np.copyto(trend_map, moving_average_matrix(length, kernel).T)
    trend_map.setflags(write=False)
    return Tensor(trend_map)


def scale_forward(
    x_scale: Tensor,
    key_forecast: Tensor | None,
    key_seasonal: Tensor | None,
    config: ModelConfig,
    params: CrossScaleNetParams,
    scale_index: int,
) -> tuple[Tensor, Tensor, AttentionRecord | None]:
    """One scale: attention refinement (scales >= 2), then the seasonal and
    trend encoders with the decomposition folded into their first layer.

    Channels-first: the input, the keys and the attention context are
    (B, D, T_m), the prediction and its seasonal branch (B, D, H). A key
    the variant does not read is None; ``cross_patch_attention`` names a
    missing one. Returns (prediction, seasonal branch, record or None).
    """
    record = None
    if scale_index >= 2:
        context, record = cross_patch_attention(
            x_scale, key_forecast, key_seasonal, config.variant, config.patch_len,
            params.attention[scale_index - 1], scale_index=scale_index,
        )
        x_scale = x_scale + context
    trend_map = _trend_map(x_scale.shape[-1], config.decomp_kernel)
    enc_s = params.seasonal[scale_index - 1]
    enc_t = params.trend[scale_index - 1]
    w_seasonal = enc_s.w_time1 - matmul(trend_map, enc_s.w_time1)
    w_trend = matmul(trend_map, enc_t.w_time1)
    y_seasonal = encoder_forward(x_scale, replace(enc_s, w_time1=w_seasonal))
    y_trend = encoder_forward(x_scale, replace(enc_t, w_time1=w_trend))
    return y_seasonal + y_trend, y_seasonal, record


def model_forward(
    x: Tensor | np.ndarray, params: CrossScaleNetParams, config: ModelConfig
) -> tuple[Tensor, list[AttentionRecord]]:
    """Full forward pass: (B, T, D) -> forecast (B, H, D) plus the attention
    record of every scale >= 2, coarser scales last."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.ndim != 3 or x.shape[1] != config.lookback or x.shape[2] != config.n_features:
        raise ShapeError(
            f"expected input (B, {config.lookback}, {config.n_features}), got {x.shape}"
        )

    stats_shape = (x.shape[0], config.n_features, 1)
    x_in = swap_last2(x)  # (B, D, T)
    if config.instance_norm:
        mu = reshape(mean_axis(x_in, 2), stats_shape)
        centered = x_in - mu
        var = reshape(mean_axis(centered * centered, 2), stats_shape)
        std = sqrt(var + INSTANCE_NORM_EPS)
        x_in = centered / std

    y1, y1_seasonal, _ = scale_forward(x_in, None, None, config, params, 1)
    predictions, records = [y1], []

    # resample only the key streams the variant reads
    reads = KEY_SOURCES[config.variant]
    for m, t_m in enumerate(config.scale_lengths[1:], start=2):
        y_m, _, record = scale_forward(
            avg_downsample(x_in, 2 ** (m - 1)),
            linear_interp(y1, t_m) if "forecast" in reads else None,
            linear_interp(y1_seasonal, t_m) if "seasonal" in reads else None,
            config, params, m,
        )
        predictions.append(y_m)
        records.append(record)

    gated = [y * sigmoid(gate) for y, gate in zip(predictions, params.gate_logits)]
    stacked = concat(gated, axis=2) if len(gated) > 1 else gated[0]  # (B, D, M*H)
    forecast = matmul(stacked, params.fusion_weight) + params.fusion_bias  # (B, D, H)

    if config.instance_norm:
        forecast = forecast * std + mu
    return swap_last2(forecast), records


# ---------------------------------------------------------------------------
# model facade


class CrossScaleNet:
    """Config plus parameters, with forward/predict and checkpoint IO."""

    def __init__(self, config: ModelConfig, params: CrossScaleNetParams | None = None, seed: int = 0):
        self.config = config
        self.params = params if params is not None else init_params(config, seed)

    def forward(self, x: Tensor | np.ndarray) -> tuple[Tensor, list[AttentionRecord]]:
        return model_forward(x, self.params, self.config)

    def chunk_size(self, batch_size: int | None = None) -> int:
        """Windows per chunk of a tape-free pass; ``batch_size`` overrides the rule.

        The rule, max(1, min(256, 256 * 96 * 7 // (lookback * n_features))),
        caps a chunk's input cells at those of 256 windows at lookback 96
        with 7 columns, because a chunk's activations grow with its cells.
        With 7 columns, lookback 96 gets 256 windows and lookback 336 gets 73.
        """
        if batch_size is None:
            cells = self.config.lookback * self.config.n_features
            return max(1, min(256, _CHUNK_CELLS // cells))
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        return batch_size

    def predict(self, x: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Tape-free inference in chunks of ``chunk_size(batch_size)`` windows.

        (N, T, D) -> (N, H, D); one (T, D) window gives (H, D). Every op
        acts within one window, so the chunking does not change a forecast.
        """
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 2
        if single:
            x = x[None]
        size = self.chunk_size(batch_size)
        chunks = []
        with suspend_tape():
            # an empty stack still takes one forward, which checks its shape
            for lo in range(0, max(x.shape[0], 1), size):
                # index, not unpack: bound records would keep this chunk's
                # attention maps alive through the next chunk's forward
                chunks.append(self.forward(Tensor(x[lo : lo + size]))[0].data)
        out = np.concatenate(chunks, axis=0)
        return out[0] if single else out

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return self.params.named_tensors()

    def parameter_count(self) -> int:
        return sum(t.size for t in self.params.tensors())

    def save(self, path, extra: dict | None = None) -> None:
        save_checkpoint(path, self.config, self.params, extra)

    @classmethod
    def load(cls, path) -> tuple["CrossScaleNet", dict]:
        config, params, extra = load_checkpoint(path)
        return cls(config, params), extra


# ---------------------------------------------------------------------------
# checkpoint archive: config JSON + raw little-endian float64 buffers
#
# ZIP_STORED entries with a fixed timestamp keep archives byte-identical
# for identical (config, params, extra).

_EPOCH = (1980, 1, 1, 0, 0, 0)


def save_checkpoint(path, config: ModelConfig, params: CrossScaleNetParams, extra: dict | None = None) -> None:
    named = params.named_tensors()
    header = {
        "model": asdict(config),
        "extra": extra or {},
        "tensors": {name: list(t.shape) for name, t in named},
    }
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        info = zipfile.ZipInfo("config.json", date_time=_EPOCH)
        zf.writestr(info, json.dumps(header, sort_keys=True, indent=1))
        for name, t in sorted(named):
            info = zipfile.ZipInfo(f"tensors/{name}", date_time=_EPOCH)
            zf.writestr(info, np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def _read_header(raw: bytes) -> tuple[ModelConfig, dict, dict]:
    """config.json's model config, declared tensor shapes and extra fields.
    A header not shaped as save_checkpoint writes it raises ValueError."""
    header = json.loads(raw)
    parts = ("model", "tensors", "extra")
    if not (isinstance(header, dict) and all(isinstance(header.get(k), dict) for k in parts)):
        raise ValueError("config.json: expected an object with the objects 'model', 'tensors' and 'extra'")
    model, types = header["model"], get_type_hints(ModelConfig)
    if set(model) != set(types):
        raise ValueError(f"config.json: model keys {sorted(model)}, expected {sorted(types)}")
    for key, value in model.items():
        if type(value) is not types[key]:  # exact: JSON true is not the int 1
            raise ValueError(
                f"config.json: model key {key!r}: expected {types[key].__name__}, got {json.dumps(value)}"
            )
    return ModelConfig(**model), header["tensors"], header["extra"]


def load_checkpoint(path) -> tuple[ModelConfig, CrossScaleNetParams, dict]:
    """Config, parameters and extra fields of a checkpoint archive. A corrupt
    archive or a malformed header raises ValueError naming the file."""
    try:
        with zipfile.ZipFile(path, "r") as zf:
            config, declared, extra = _read_header(zf.read("config.json"))
            params = init_params(config, seed=0)
            # lists, as JSON holds them: a declared shape of any other type is just unequal
            expected = {name: list(t.shape) for name, t in params.named_tensors()}
            if expected != declared:
                missing = sorted(set(expected) ^ set(declared))
                mismatched = sorted(
                    n for n in set(expected) & set(declared) if expected[n] != declared[n]
                )
                raise ValueError(
                    f"checkpoint does not match config (missing/extra: {missing}, wrong shape: {mismatched})"
                )
            for name, t in params.named_tensors():
                raw = zf.read(f"tensors/{name}")
                t.data = np.frombuffer(raw, dtype="<f8").reshape(expected[name]).copy()
            return config, params, extra
    except (zipfile.BadZipFile, KeyError) as exc:
        # not a zip archive, or one without config.json or a tensor member
        raise ValueError(f"{path}: corrupt checkpoint archive ({type(exc).__name__}: {exc.args[0]})") from exc
    except ValueError as exc:  # invalid JSON, a malformed header or tensor, an invalid config
        raise ValueError(f"{path}: {exc}") from exc
