"""The multi-scale forecaster: decomposition, encoders, cross-scale attention, fusion.

Pipeline per forward pass: optional per-window instance normalization,
average-pool the input to M temporal scales (factor 2^(m-1), scale 1 is
the original resolution), run scale 1 through trend/seasonal encoders,
then refine every coarser scale's input with cross-patch attention whose
keys are the scale-1 forecast and its seasonal branch (interpolated to
the scale's length). Scale outputs are gated by learnable sigmoid weights,
concatenated along the horizon, and fused by a per-channel FC into the
final forecast.

Layout: the forward pass takes (B, T, D) windows and returns (B, H, D)
forecasts, but keeps activations channels-first, (B, D, T), in between,
since every temporal op acts on the last axis; attention keeps its
(B, T, D) contract. Decomposition fold: trend is x @ M.T for a fixed
moving-average matrix M and feeds only the encoders' first temporal FC,
so each scale runs both encoders on its undecomposed input with first
layers W_s = W1_s - M.T @ W1_s and W_t = M.T @ W1_t (tape matmuls, so
gradients reach W1). ``decompose`` is the explicit reference.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .attention import VARIANTS, AttentionConfig, AttentionRecord, AttentionWeights, cross_patch_attention
from .tensor import (
    NonFiniteError,
    ShapeError,
    Tensor,
    avg_downsample,
    concat,
    gelu,
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
        if coarsest < self.patch_len:
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

    def attention_config(self) -> AttentionConfig:
        return AttentionConfig(self.patch_len, self.variant, self.n_features)


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
        return [(prefix + name, getattr(self, name)) for name in
                ("w_time1", "b_time1", "w_time2", "b_time2", "w_channel", "b_channel")]


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
        def enc_copy(e: EncoderWeights) -> EncoderWeights:
            return EncoderWeights(*(Tensor(t.data.copy(), requires_grad=t.requires_grad)
                                    for _, t in e.named("")))

        def att_copy(a: AttentionWeights | None) -> AttentionWeights | None:
            if a is None:
                return None
            trio = lambda t: None if t is None else Tensor(t.data.copy(), requires_grad=t.requires_grad)
            return AttentionWeights(
                trio(a.w_query), trio(a.w_key), trio(a.w_value),
                trio(a.w_local_query), trio(a.w_local_key), trio(a.w_local_value),
            )

        return CrossScaleNetParams(
            seasonal=[enc_copy(e) for e in self.seasonal],
            trend=[enc_copy(e) for e in self.trend],
            attention=[att_copy(a) for a in self.attention],
            gate_logits=[Tensor(g.data.copy(), requires_grad=g.requires_grad) for g in self.gate_logits],
            fusion_weight=Tensor(self.fusion_weight.data.copy(), requires_grad=True),
            fusion_bias=Tensor(self.fusion_bias.data.copy(), requires_grad=True),
        )


@dataclass
class ScaleOutputs:
    """Per-scale forecasts, channels-first (B, D, H), and the attention
    records captured on the way."""

    predictions: list[Tensor] = field(default_factory=list)
    records: list[AttentionRecord] = field(default_factory=list)


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
        if config.variant == "self_attention":
            return AttentionWeights(weight(dim, dim), weight(dim, dim), weight(dim, dim))
        return AttentionWeights(*(weight(dim, dim) for _ in range(6)))

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
    """Split (B, T, D) into (seasonal, trend); trend is the centered moving
    average along time, seasonal the residual, so seasonal + trend == x."""
    trend = swap_last2(moving_average(swap_last2(x), kernel))
    return x - trend, trend


def encoder_forward(component: Tensor, weights: EncoderWeights) -> Tensor:
    """Temporal FC -> GELU -> temporal FC to horizon, then channel mixing
    with a residual add. Channels-first: (B, D, T) -> (B, D, H)."""
    h = matmul(component, weights.w_time1) + weights.b_time1
    h = gelu(h)
    h = matmul(h, weights.w_time2) + weights.b_time2            # (B, D, H)
    return h + (matmul(swap_last2(weights.w_channel), h) + reshape(weights.b_channel, (-1, 1)))


def scale_forward(
    x_scale: Tensor,
    key_forecast: Tensor | None,
    key_seasonal: Tensor | None,
    config: ModelConfig,
    params: CrossScaleNetParams,
    scale_index: int,
) -> tuple[Tensor, Tensor, Tensor, AttentionRecord | None]:
    """One scale: attention refinement (scales >= 2), then the seasonal and
    trend encoders with the decomposition folded into their first layer.

    Channels-first: the input and keys are (B, D, T_m), the three
    forecasts (B, D, H). Returns (prediction, seasonal branch, trend
    branch, record or None).
    """
    record = None
    if scale_index >= 2:
        if key_forecast is None:
            raise ShapeError(f"scale {scale_index} needs keys from scale 1")
        context, record = cross_patch_attention(
            swap_last2(x_scale),
            swap_last2(key_forecast),
            None if key_seasonal is None else swap_last2(key_seasonal),
            config.attention_config(),
            params.attention[scale_index - 1],
            scale_index=scale_index,
        )
        x_scale = x_scale + swap_last2(context)
    trend_map = Tensor(moving_average_matrix(x_scale.shape[-1], config.decomp_kernel).T)  # M.T
    enc_s = params.seasonal[scale_index - 1]
    enc_t = params.trend[scale_index - 1]
    w_seasonal = enc_s.w_time1 - matmul(trend_map, enc_s.w_time1)
    w_trend = matmul(trend_map, enc_t.w_time1)
    y_seasonal = encoder_forward(x_scale, replace(enc_s, w_time1=w_seasonal))
    y_trend = encoder_forward(x_scale, replace(enc_t, w_time1=w_trend))
    return y_seasonal + y_trend, y_seasonal, y_trend, record


def model_forward(
    x: Tensor | np.ndarray, params: CrossScaleNetParams, config: ModelConfig
) -> tuple[Tensor, ScaleOutputs]:
    """Full forward pass: (B, T, D) -> forecast (B, H, D) plus per-scale outputs."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.ndim != 3 or x.shape[1] != config.lookback or x.shape[2] != config.n_features:
        raise ShapeError(
            f"expected input (B, {config.lookback}, {config.n_features}), got {x.shape}"
        )
    if not np.all(np.isfinite(x.data)):
        raise NonFiniteError("model input contains NaN/Inf")

    stats_shape = (x.shape[0], config.n_features, 1)
    x_in = swap_last2(x)  # (B, D, T)
    if config.instance_norm:
        mu = reshape(mean_axis(x_in, 2), stats_shape)
        centered = x_in - mu
        var = reshape(mean_axis(centered * centered, 2), stats_shape)
        std = sqrt(var + INSTANCE_NORM_EPS)
        x_in = centered / std

    outputs = ScaleOutputs()
    y1, y1_seasonal, _, _ = scale_forward(x_in, None, None, config, params, 1)
    outputs.predictions.append(y1)

    for m, t_m in enumerate(config.scale_lengths[1:], start=2):
        y_m, _, _, record = scale_forward(
            avg_downsample(x_in, 2 ** (m - 1)),
            linear_interp(y1, t_m),
            linear_interp(y1_seasonal, t_m),
            config, params, m,
        )
        outputs.predictions.append(y_m)
        outputs.records.append(record)

    gated = [y * sigmoid(gate) for y, gate in zip(outputs.predictions, params.gate_logits)]
    stacked = concat(gated, axis=2) if len(gated) > 1 else gated[0]  # (B, D, M*H)
    forecast = matmul(stacked, params.fusion_weight) + params.fusion_bias  # (B, D, H)

    if config.instance_norm:
        forecast = forecast * std + mu
    return swap_last2(forecast), outputs


# ---------------------------------------------------------------------------
# model facade


class CrossScaleNet:
    """Config plus parameters, with forward/predict and checkpoint IO."""

    def __init__(self, config: ModelConfig, params: CrossScaleNetParams | None = None, seed: int = 0):
        self.config = config
        self.params = params if params is not None else init_params(config, seed)

    def forward(self, x: Tensor | np.ndarray) -> tuple[Tensor, ScaleOutputs]:
        return model_forward(x, self.params, self.config)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Tape-free batched inference. (N, T, D) -> (N, H, D)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 2
        if single:
            x = x[None]
        chunks = []
        with suspend_tape():
            for lo in range(0, x.shape[0], batch_size):
                # index, not unpack: a bound ScaleOutputs would keep this
                # chunk's per-scale forecasts and attention maps alive
                # through the next chunk's forward
                chunks.append(self.forward(Tensor(x[lo : lo + batch_size]))[0].data)
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


def load_checkpoint(path) -> tuple[ModelConfig, CrossScaleNetParams, dict]:
    try:
        with zipfile.ZipFile(path, "r") as zf:
            header = json.loads(zf.read("config.json"))
            config = ModelConfig(**header["model"])
            params = init_params(config, seed=0)
            expected = {name: tuple(t.shape) for name, t in params.named_tensors()}
            declared = {name: tuple(shape) for name, shape in header["tensors"].items()}
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
            return config, params, dict(header["extra"])
    except (zipfile.BadZipFile, KeyError) as exc:
        # not a zip archive, or one without config.json or a tensor member
        raise ValueError(f"{path}: corrupt checkpoint archive ({type(exc).__name__}: {exc.args[0]})") from exc
