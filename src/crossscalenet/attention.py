"""Cross-patch attention: global patch attention plus within-patch local attention.

The mechanism splits a sequence into patches and runs two attention paths:

* patch attention compares mean-pooled patch summaries across the whole
  sequence (long-range structure), producing one context vector per patch
  that is broadcast over the patch's time steps;
* local attention compares the time steps inside each patch (fine
  structure).

Keys for both paths can come from an external sequence (the coarse-scale
forecast and its seasonal branch, interpolated to this scale's length by
the caller), which is what makes the attention weights readable as
temporal saliency. Queries and values always come from the input stream.
Four variants cover the ablation grid: plain self-attention over the full
sequence, patch attention with internal keys, and the cross-key form with
a shared external key or two distinct external keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    matmul,
    mean_axis,
    patchify,
    reshape,
    softmax_lastdim,
    swap_last2,
    unpatchify,
)

VARIANTS = ("self_attention", "patch_attention", "cross_shared_key", "cross_dual_key")


@dataclass
class AttentionConfig:
    """Patch length, ablation variant, and feature dimension."""

    patch_len: int
    variant: str
    model_dim: int

    def __post_init__(self):
        if self.patch_len < 1:
            raise ValueError(f"patch_len must be >= 1, got {self.patch_len}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.model_dim < 1:
            raise ValueError(f"model_dim must be >= 1, got {self.model_dim}")


@dataclass
class AttentionWeights:
    """Square D x D projections for the two attention paths.

    The local trio is None for the self_attention variant, which uses only
    the primary projections over the full sequence.
    """

    w_query: Tensor
    w_key: Tensor
    w_value: Tensor
    w_local_query: Tensor | None = None
    w_local_key: Tensor | None = None
    w_local_value: Tensor | None = None

    def __post_init__(self):
        dim = self.w_query.shape[-1]
        for name in ("w_query", "w_key", "w_value", "w_local_query", "w_local_key", "w_local_value"):
            t = getattr(self, name)
            if t is None:
                continue
            if t.shape != (dim, dim):
                raise ShapeError(f"{name} must be square of dim {dim}, got {t.shape}")

    @property
    def has_local(self) -> bool:
        return self.w_local_query is not None

    def named(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        out = [
            (prefix + "w_query", self.w_query),
            (prefix + "w_key", self.w_key),
            (prefix + "w_value", self.w_value),
        ]
        if self.has_local:
            out += [
                (prefix + "w_local_query", self.w_local_query),
                (prefix + "w_local_key", self.w_local_key),
                (prefix + "w_local_value", self.w_local_value),
            ]
        return out


@dataclass
class AttentionRecord:
    """Captured attention weights from one forward pass at one scale.

    ``patch_weights`` has shape (B, N, N): rows are query patches, columns
    key patches. ``local_weights`` has shape (B, N, P, P): per patch, rows
    are query positions, columns key positions. The self_attention variant
    stores the full sequence attention as patch_weights with patch_len 1
    and all-ones local_weights, so downstream aggregation needs no special
    case.

    A forward pass returns one row per window. ``explain.collect_records``
    returns B = 1 records holding the mean over all windows; a mean of
    row-stochastic matrices is row-stochastic, so ``validate`` applies to
    both.
    """

    patch_weights: np.ndarray
    local_weights: np.ndarray
    scale_index: int
    patch_len: int
    seq_len: int

    def validate(self, tol: float = 1e-6) -> None:
        for name, w in (("patch_weights", self.patch_weights), ("local_weights", self.local_weights)):
            if np.any(w < -tol) or np.any(w > 1.0 + tol):
                raise ValueError(f"{name}: weights outside [0, 1]")
            rows = w.sum(axis=-1)
            if not np.allclose(rows, 1.0, atol=tol):
                raise ValueError(f"{name}: rows do not sum to 1 (max dev {np.abs(rows - 1).max():.2e})")


def _check_aligned(query: Tensor, key: Tensor, ndim: int, who: str) -> None:
    if query.ndim != ndim or key.ndim != ndim:
        raise ShapeError(f"{who} expects {ndim}-d inputs, got {query.shape} and {key.shape}")
    if query.shape != key.shape:
        raise ShapeError(f"{who}: query {query.shape} and key {key.shape} sources differ")


def patch_attention(
    patches_q: Tensor, patches_k: Tensor, weights: AttentionWeights
) -> tuple[Tensor, Tensor]:
    """Attention across mean-pooled patch summaries.

    Takes (B, N, P, D) query and key patches (see ``patchify``). Both are
    mean-pooled over the patch axis and projected; values ride the pooled
    query stream. Returns one context vector per patch, (B, N, D), and
    the (B, N, N) attention weights.
    """
    _check_aligned(patches_q, patches_k, 4, "patch_attention")
    scale = 1.0 / np.sqrt(patches_q.shape[-1])

    pooled_q = mean_axis(patches_q, 2)  # (B, N, D), also the values
    q = matmul(pooled_q, weights.w_query)
    k = matmul(mean_axis(patches_k, 2), weights.w_key)
    v = matmul(pooled_q, weights.w_value)

    attn = softmax_lastdim(matmul(q, swap_last2(k)) * scale)  # (B, N, N)
    return matmul(attn, v), attn


def local_attention(
    patches_q: Tensor, patches_k: Tensor, weights: AttentionWeights
) -> tuple[Tensor, Tensor]:
    """Attention among the P time steps inside each patch.

    Takes (B, N, P, D) query and key patches; queries and values come from
    the query patches. Returns the local context (B, N, P, D) and the
    (B, N, P, P) attention weights.
    """
    _check_aligned(patches_q, patches_k, 4, "local_attention")
    b, n, p, dim = patches_q.shape
    scale = 1.0 / np.sqrt(dim)

    flat_q = reshape(patches_q, (b * n, p, dim))
    flat_k = reshape(patches_k, (b * n, p, dim))

    q = matmul(flat_q, weights.w_local_query)
    k = matmul(flat_k, weights.w_local_key)
    v = matmul(flat_q, weights.w_local_value)

    attn = softmax_lastdim(matmul(q, swap_last2(k)) * scale)  # (B*N, P, P)
    context = matmul(attn, v)

    return reshape(context, (b, n, p, dim)), reshape(attn, (b, n, p, p))


def _self_attention(x: Tensor, weights: AttentionWeights) -> tuple[Tensor, Tensor]:
    dim = x.shape[-1]
    scale = 1.0 / np.sqrt(dim)
    q = matmul(x, weights.w_query)
    k = matmul(x, weights.w_key)
    v = matmul(x, weights.w_value)
    attn = softmax_lastdim(matmul(q, swap_last2(k)) * scale)  # (B, T, T)
    return matmul(attn, v), attn


def cross_patch_attention(
    x: Tensor,
    key_forecast: Tensor | None,
    key_seasonal: Tensor | None,
    config: AttentionConfig,
    weights: AttentionWeights,
    scale_index: int = 0,
) -> tuple[Tensor, AttentionRecord]:
    """Combined patch + local attention context for one scale.

    Key routing by variant:

    * cross_dual_key: patch path keys on the interpolated forecast,
      local path keys on its seasonal branch;
    * cross_shared_key: both paths key on the forecast;
    * patch_attention: both paths key on the input itself;
    * self_attention: single full-sequence attention, no patching.

    Returns the context at input resolution (B, T, D) and the attention
    record for saliency extraction.
    """
    if x.ndim != 3:
        raise ShapeError(f"cross_patch_attention expects (B, T, D), got {x.shape}")
    b, seq_len, dim = x.shape
    if dim != config.model_dim:
        raise ShapeError(f"input dim {dim} != config.model_dim {config.model_dim}")

    if config.variant == "self_attention":
        context, attn = _self_attention(x, weights)
        record = AttentionRecord(
            patch_weights=attn.data.copy(),
            local_weights=np.ones((b, seq_len, 1, 1)),
            scale_index=scale_index,
            patch_len=1,
            seq_len=seq_len,
        )
        return context, record

    if config.variant == "patch_attention":
        patch_key = local_key = x
    elif config.variant == "cross_shared_key":
        if key_forecast is None:
            raise ShapeError("cross_shared_key requires the forecast key")
        patch_key = local_key = key_forecast
    elif config.variant == "cross_dual_key":
        if key_forecast is None or key_seasonal is None:
            raise ShapeError("cross_dual_key requires both keys")
        patch_key = key_forecast
        local_key = key_seasonal
    else:  # pragma: no cover - AttentionConfig already validates
        raise ValueError(f"unknown variant {config.variant!r}")

    _check_aligned(x, patch_key, 3, "cross_patch_attention")
    _check_aligned(x, local_key, 3, "cross_patch_attention")
    # patchify each distinct stream once; both paths share the query patches
    patches_x = patchify(x, config.patch_len)
    patches_pk = patches_x if patch_key is x else patchify(patch_key, config.patch_len)
    patches_lk = patches_pk if local_key is patch_key else patchify(local_key, config.patch_len)
    ctx_patch, attn_patch = patch_attention(patches_x, patches_pk, weights)
    ctx_local, attn_local = local_attention(patches_x, patches_lk, weights)
    n = patches_x.shape[1]
    # the patch context broadcasts over each patch's P positions
    context = unpatchify(ctx_local + reshape(ctx_patch, (b, n, 1, dim)), seq_len)

    record = AttentionRecord(
        patch_weights=attn_patch.data.copy(),
        local_weights=attn_local.data.copy(),
        scale_index=scale_index,
        patch_len=config.patch_len,
        seq_len=seq_len,
    )
    return context, record
