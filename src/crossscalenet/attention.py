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
``KEY_SOURCES`` maps each of the four ablation variants to the stream each
path keys on: patch attention with internal keys, the cross-key form with
a shared external key or two distinct external keys, and plain
self-attention, which is patch attention over one-step patches with no
local path. Callers build only the key streams a variant reads.

``cross_patch_attention`` runs a scale's attention as one tape op,
``tensor.patched_attention``. ``patch_attention`` and ``local_attention``
are the two paths as chains of single ops: the reference the fused op
equals bit for bit on OpenBLAS.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    matmul,
    mean_axis,
    patched_attention,
    reshape,
    softmax_attention,
)

# variant -> (patch-path key, local-path key): "input" keys on the input
# itself, "forecast" on the scale-1 forecast, "seasonal" on its seasonal
# branch. A variant without a local key attends over one-step patches.
KEY_SOURCES = {
    "self_attention": ("input", None),
    "patch_attention": ("input", "input"),
    "cross_shared_key": ("forecast", "forecast"),
    "cross_dual_key": ("forecast", "seasonal"),
}
VARIANTS = tuple(KEY_SOURCES)


@dataclass
class AttentionWeights:
    """Square D x D projections for the two attention paths.

    The local trio is None for a variant without a local key (see
    ``KEY_SOURCES``), which uses only the patch-path projections.
    """

    w_query: Tensor
    w_key: Tensor
    w_value: Tensor
    w_local_query: Tensor | None = None
    w_local_key: Tensor | None = None
    w_local_value: Tensor | None = None

    def __post_init__(self):
        dim = self.w_query.shape[-1]
        for name, t in self.named():
            if t.shape != (dim, dim):
                raise ShapeError(f"{name} must be square of dim {dim}, got {t.shape}")

    def named(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        """The projections that are set, patch path first."""
        return [(prefix + f.name, getattr(self, f.name)) for f in fields(self)
                if getattr(self, f.name) is not None]


@dataclass
class AttentionRecord:
    """Captured attention weights from one forward pass at one scale.

    ``patch_weights`` has shape (B, N, N): rows are query patches, columns
    key patches. ``local_weights`` has shape (B, N, P, P): per patch, rows
    are query positions, columns key positions. The self_attention variant
    attends over one-step patches with no local path: patch_weights is the
    full (B, T, T) sequence attention, patch_len is 1 and local_weights is
    all ones, so downstream aggregation needs no special case.

    A forward pass returns one row per window, and its arrays are the
    read-only weights the gradient tape also holds, shared without a copy:
    copy them before mutating. ``explain.collect_records`` returns B = 1
    records holding the mean over all windows; a mean of row-stochastic
    matrices is row-stochastic, so ``validate`` applies to both.
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
) -> tuple[Tensor, np.ndarray]:
    """Attention across mean-pooled patch summaries.

    Takes (B, N, P, D) query and key patches (see ``patchify``). Both are
    mean-pooled over the patch axis and projected; values ride the pooled
    query stream. Returns one context vector per patch, (B, N, D), and
    the (B, N, N) attention weights as a read-only ndarray (see
    ``softmax_attention``).
    """
    _check_aligned(patches_q, patches_k, 4, "patch_attention")
    scale = 1.0 / np.sqrt(patches_q.shape[-1])

    pooled_q = mean_axis(patches_q, 2)  # (B, N, D), also the values
    pooled_k = pooled_q if patches_k is patches_q else mean_axis(patches_k, 2)
    q = matmul(pooled_q, weights.w_query)
    k = matmul(pooled_k, weights.w_key)
    v = matmul(pooled_q, weights.w_value)
    return softmax_attention(q, k, v, scale)


def local_attention(
    patches_q: Tensor, patches_k: Tensor, weights: AttentionWeights
) -> tuple[Tensor, np.ndarray]:
    """Attention among the P time steps inside each patch.

    Takes (B, N, P, D) query and key patches; queries and values come from
    the query patches. Returns the local context (B, N, P, D) and the
    (B, N, P, P) attention weights as a read-only ndarray (see
    ``softmax_attention``).
    """
    _check_aligned(patches_q, patches_k, 4, "local_attention")
    b, n, p, dim = patches_q.shape
    scale = 1.0 / np.sqrt(dim)

    flat_q = reshape(patches_q, (b * n, p, dim))
    flat_k = reshape(patches_k, (b * n, p, dim))

    q = matmul(flat_q, weights.w_local_query)
    k = matmul(flat_k, weights.w_local_key)
    v = matmul(flat_q, weights.w_local_value)

    context, attn = softmax_attention(q, k, v, scale)  # attn: (B*N, P, P)
    return reshape(context, (b, n, p, dim)), attn.reshape(b, n, p, p)


def cross_patch_attention(
    x: Tensor,
    key_forecast: Tensor | None,
    key_seasonal: Tensor | None,
    variant: str,
    patch_len: int,
    weights: AttentionWeights,
    scale_index: int = 0,
) -> tuple[Tensor, AttentionRecord]:
    """Combined patch + local attention context for one scale, as one tape op.

    Takes the input and keys channels-first, (B, D, T), like the forward
    pass. The variant's row of ``KEY_SOURCES`` names the stream each path
    keys on; a key it does not read may be None. Without a local key (the
    self_attention variant) the patches are one time step long and carry
    only the patch context, whatever ``patch_len`` says. The input's
    width D is the model dimension: weights of another width raise
    ``ShapeError``.

    Returns the context at input resolution (B, D, T) and the attention
    record for saliency extraction. ``tensor.patched_attention`` computes
    both paths; its values and gradients are those of ``patchify``, then
    ``patch_attention`` and ``local_attention``, their sum and
    ``unpatchify``, bit for bit.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if patch_len < 1:
        raise ValueError(f"patch_len must be >= 1, got {patch_len}")
    if x.ndim != 3:
        raise ShapeError(f"cross_patch_attention expects (B, D, T), got {x.shape}")
    b, _, seq_len = x.shape

    streams = {"input": x, "forecast": key_forecast, "seasonal": key_seasonal}
    patch_src, local_src = KEY_SOURCES[variant]
    for src in filter(None, (patch_src, local_src)):
        if streams[src] is None:
            raise ShapeError(f"{variant} requires the {src} key")
    patch_len = patch_len if local_src else 1
    projections = [t for _, t in weights.named()][: 6 if local_src else 3]
    context, attn_patch, attn_local = patched_attention(
        x, streams[patch_src], streams[local_src] if local_src else None, patch_len, projections
    )
    if not local_src:
        attn_local = np.broadcast_to(1.0, (b, seq_len, 1, 1))  # read-only, like the maps

    record = AttentionRecord(
        patch_weights=attn_patch,
        local_weights=attn_local,
        scale_index=scale_index,
        patch_len=patch_len,
        seq_len=seq_len,
    )
    return context, record
