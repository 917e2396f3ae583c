"""Attention kernels: dense reference paths, a block-streaming masked kernel
with online softmax, and relational cross-attention with the level mask
scaled by a pooled query-key similarity estimate.

All kernels follow the dtype of their inputs (float32 in production, float64
when tests want oracle precision) and are deterministic for fixed inputs.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .layout import LayoutSpec
from .masks import Block, CsamMask, McamMask

# query rows per tile: the streaming kernels hold one tile x keys logits
# buffer at a time instead of a full query x key matrix
_SELF_TILE = 256
_CROSS_TILE = 128


@dataclass(frozen=True)
class AttnConfig:
    """Cross-attention knobs: level-mask strength ``r`` and spatial pooling
    factor ``d``."""

    r: float = 0.5
    d: int = 8

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")


def _as_matrix(name: str, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {x.shape}")
    if x.size and not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _default_scale(k_cols: int) -> float:
    return 1.0 / math.sqrt(k_cols)


def _attend(Q, K, V, scale, return_weights, level_term=None):
    """softmax((Q K^T [+ levels * s * r]) * scale) V with row-max stabilization.

    ``level_term=(levels, s, r)`` adds the relational mask term; with r=0 it
    adds exact zeros, so the result is bit-identical to ``level_term=None``.
    Queries are processed in row tiles through one reused logits buffer (or
    straight into the returned weight matrix), so both paths, and both
    values of ``return_weights``, run the same arithmetic.
    """
    n, L = Q.shape[0], K.shape[0]
    if level_term is None:
        dt = np.result_type(Q, K)
    else:
        levels, s, r = level_term
        dt = np.result_type(Q, K, s)
        term = np.empty((min(_CROSS_TILE, n), L), dtype=dt)
    out = np.empty((n, V.shape[1]), dtype=np.result_type(dt, V))
    weights = np.empty((n if return_weights else min(_CROSS_TILE, n), L), dtype=dt)
    sc = dt.type(scale)
    Kt = K.T
    for q0 in range(0, n, _CROSS_TILE):
        rows = slice(q0, min(q0 + _CROSS_TILE, n))
        m = rows.stop - q0
        logits = weights[rows] if return_weights else weights[:m]
        np.matmul(Q[rows], Kt, out=logits)
        if level_term is not None:
            np.multiply(levels[rows], s[rows], out=term[:m])
            term[:m] *= dt.type(r)
            logits += term[:m]
        logits *= sc
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True)
        np.matmul(logits, V, out=out[rows])
    return (out, weights) if return_weights else out


def standard_attention(Q, K, V, scale: float | None = None, return_weights: bool = False):
    """Unmasked scaled-dot-product attention (baseline for equivalence tests)."""
    Q, K, V = _as_matrix("Q", Q), _as_matrix("K", K), _as_matrix("V", V)
    if Q.shape[1] != K.shape[1] or K.shape[0] != V.shape[0]:
        raise ValueError(f"incompatible shapes Q{Q.shape} K{K.shape} V{V.shape}")
    if K.shape[0] == 0:
        raise ValueError("attention requires at least one key")
    return _attend(Q, K, V, scale if scale is not None else _default_scale(K.shape[1]), return_weights)


def masked_self_attention_naive(
    Q, K, V, mask: CsamMask, scale: float | None = None, return_weights: bool = False
):
    """Dense masked self-attention; masked keys get exactly zero weight.

    Masked logits become -inf, and after row-max subtraction the -inf
    sentinel is clamped to the most-negative finite value so exp underflows
    to an exact 0 without producing NaN.
    """
    Q, K, V = _as_matrix("Q", Q), _as_matrix("K", K), _as_matrix("V", V)
    if not (Q.shape[0] == K.shape[0] == V.shape[0] == mask.n):
        raise ValueError(
            f"Q/K/V must each have {mask.n} rows, got {Q.shape[0]}/{K.shape[0]}/{V.shape[0]}"
        )
    if Q.shape[1] != K.shape[1]:
        raise ValueError(f"Q and K feature dims differ: {Q.shape[1]} vs {K.shape[1]}")
    if not mask.bits.any(axis=1).all():
        raise ValueError("mask has a query row with no admissible key")

    if scale is None:
        scale = _default_scale(K.shape[1])
    logits = (Q @ K.T) * Q.dtype.type(scale)
    logits = np.where(mask.bits, logits, -np.inf)
    logits -= logits.max(axis=1, keepdims=True)
    np.maximum(logits, np.finfo(logits.dtype).min, out=logits)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    out = w @ V
    return (out, w) if return_weights else out


def _validate_blocks(blocks: Sequence[Block], n: int) -> None:
    covered = np.zeros(n, dtype=bool)
    for blk in blocks:
        if blk.q1 > n or blk.k1 > n:
            raise ValueError(f"{blk} exceeds sequence length {n}")
        covered[blk.q0 : blk.q1] = True
    # sweep down the query axis: the blocks live at the current row have
    # pairwise disjoint key ranges, kept sorted by k0, so a new block can
    # only overlap the live block that starts last before its k1
    starts: list[int] = []
    live: list[Block] = []
    expiry: list[tuple[int, int]] = []  # (q1, k0) of the live blocks
    for blk in sorted(blocks, key=lambda b: (b.q0, b.k0)):
        while expiry and expiry[0][0] <= blk.q0:
            i = bisect_left(starts, heapq.heappop(expiry)[1])
            del starts[i], live[i]
        i = bisect_left(starts, blk.k1)
        if i and live[i - 1].k1 > blk.k0:
            raise ValueError(f"overlapping blocks: {live[i - 1]} and {blk}")
        starts.insert(i, blk.k0)
        live.insert(i, blk)
        heapq.heappush(expiry, (blk.q1, blk.k0))
    if not covered.all():
        raise ValueError(f"query row {int(np.flatnonzero(~covered)[0])} covered by no block")


def masked_self_attention_blockwise(Q, K, V, blocks: Sequence[Block], scale: float | None = None):
    """Streaming masked self-attention over a disjoint block cover.

    Keeps a running max and normalizer per query row (online softmax), so the
    result matches the dense masked kernel for any block visit order.  Each
    block is walked in query-row tiles through one reused logits buffer, so
    memory stays O(tile x widest block) whatever the sequence length.
    """
    return _blockwise(Q, K, V, blocks, scale)[0]


def _blockwise(Q, K, V, blocks: Sequence[Block], scale: float | None = None):
    """:func:`masked_self_attention_blockwise` and each query row's log-sum-exp
    of its scaled logits, from which :func:`_blockwise_bwd` recomputes weights."""
    Q, K, V = _as_matrix("Q", Q), _as_matrix("K", K), _as_matrix("V", V)
    n = Q.shape[0]
    if K.shape[0] != n or V.shape[0] != n:
        raise ValueError(f"K/V must have {n} rows, got {K.shape[0]}/{V.shape[0]}")
    if Q.shape[1] != K.shape[1]:
        raise ValueError(f"Q and K feature dims differ: {Q.shape[1]} vs {K.shape[1]}")
    _validate_blocks(blocks, n)
    if scale is None:
        scale = _default_scale(K.shape[1])

    dt = Q.dtype
    sc = dt.type(scale)
    running_max = np.full(n, -np.inf, dtype=dt)
    normalizer = np.zeros(n, dtype=dt)
    acc = np.zeros((n, V.shape[1]), dtype=dt)
    width = max((blk.k1 - blk.k0 for blk in blocks), default=0)
    buf = np.empty(min(_SELF_TILE, n) * width, dtype=np.result_type(Q, K))
    for blk in blocks:
        Kt, Vb = K[blk.k0 : blk.k1].T, V[blk.k0 : blk.k1]
        for q0 in range(blk.q0, blk.q1, _SELF_TILE):
            qs = slice(q0, min(q0 + _SELF_TILE, blk.q1))
            m = qs.stop - q0
            logits = buf[: m * Kt.shape[1]].reshape(m, -1)
            np.matmul(Q[qs], Kt, out=logits)
            logits *= sc
            new_max = np.maximum(running_max[qs], logits.max(axis=1))
            carry = np.exp(running_max[qs] - new_max)
            logits -= new_max[:, None]
            np.exp(logits, out=logits)
            acc[qs] *= carry[:, None]
            acc[qs] += logits @ Vb
            normalizer[qs] = normalizer[qs] * carry + logits.sum(axis=1)
            running_max[qs] = new_max
    return acc / normalizer[:, None], running_max + np.log(normalizer)


def _blockwise_bwd(Q, K, V, out, lse, g, blocks: Sequence[Block], scale: float):
    """Gradients (dQ, dK, dV) of :func:`_blockwise` given ``g`` at its output.

    The FlashAttention backward: walks the same cover in query tiles and
    recomputes each tile's weights P = exp(Q K^T scale - lse) instead of
    keeping them; with D = rowsum(g * out) the gradient of Q K^T is
    P * (g V^T - D) * scale, and ``scale`` is folded into Q and K here."""
    dQ, dK, dV = np.zeros_like(Q), np.zeros_like(K), np.zeros_like(V)
    D = (g * out).sum(axis=1, keepdims=True)
    Qs, Ks = Q * scale, K * scale
    for blk in blocks:
        ks = slice(blk.k0, blk.k1)
        for q0 in range(blk.q0, blk.q1, _SELF_TILE):
            qs = slice(q0, min(q0 + _SELF_TILE, blk.q1))
            P = Qs[qs] @ K[ks].T
            P -= lse[qs, None]
            np.exp(P, out=P)
            dV[ks] += P.T @ g[qs]
            dS = g[qs] @ V[ks].T
            dS -= D[qs]
            dS *= P
            dQ[qs] += dS @ Ks[ks]
            dK[ks] += dS.T @ Qs[qs]
    return dQ, dK, dV


def _patch_edges(extent: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and cell counts of the d-sized patches along one axis;
    the last patch may be ragged."""
    starts = np.arange(0, extent, d)
    counts = np.diff(np.append(starts, extent))
    return starts, counts


def _patch_sum(x: np.ndarray, spec: LayoutSpec, d: int) -> np.ndarray:
    """Sum of the rows of ``x`` over each d x d patch of every frame, as a
    (frames * patches, channels) array in frame-major, row-major patch order.
    A column of ones sums to the token count of each patch."""
    grid = x.reshape(spec.T + spec.n_entities, spec.H, spec.W, x.shape[1])
    sums = np.add.reduceat(grid, _patch_edges(spec.H, d)[0], axis=1)
    sums = np.add.reduceat(sums, _patch_edges(spec.W, d)[0], axis=2)
    return sums.reshape(-1, x.shape[1])


def _patch_repeat(x: np.ndarray, spec: LayoutSpec, d: int) -> np.ndarray:
    """Transpose of :func:`_patch_sum`: each patch row of ``x`` repeated over
    the patch's tokens, as an (n_tokens, channels) array."""
    row_counts, col_counts = _patch_edges(spec.H, d)[1], _patch_edges(spec.W, d)[1]
    grid = x.reshape(spec.T + spec.n_entities, len(row_counts), len(col_counts), x.shape[1])
    full = np.repeat(np.repeat(grid, row_counts, axis=1), col_counts, axis=2)
    return full.reshape(spec.n_tokens, x.shape[1])


def compute_scaling_s(Q, K_text, spec: LayoutSpec, d: int) -> np.ndarray:
    """Position-wise |Q K^T| estimate from spatially average-pooled queries.

    Each frame's H x W query grid is mean-pooled over d x d patches (ragged
    edges average their actual cells), the pooled queries are scored against
    the text keys, and each patch's |similarity| row is repeated over every
    token of the patch.  d=1 reduces to the exact |Q K^T|.
    """
    Q, K_text = _as_matrix("Q", Q), _as_matrix("K_text", K_text)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if Q.shape[0] != spec.n_tokens:
        raise ValueError(f"Q must have {spec.n_tokens} rows (z' layout), got {Q.shape[0]}")
    if Q.shape[1] != K_text.shape[1]:
        raise ValueError(f"Q and K_text feature dims differ: {Q.shape[1]} vs {K_text.shape[1]}")

    cells = _patch_sum(np.ones((Q.shape[0], 1), Q.dtype), spec, d)
    pooled = _patch_sum(Q, spec, d) / cells
    return _patch_repeat(np.abs(pooled @ K_text.T), spec, d)


def relational_cross_attention(
    Q, K, V, mcam: McamMask, s, cfg: AttnConfig, return_weights: bool = False
):
    """Cross-attention with the level mask injected additively as M*s*r.

    The full sum (logits plus the mask term) is scaled by 1/sqrt(d_K); with
    r=0 the additive term vanishes and the kernel is bit-identical to
    :func:`standard_attention`.
    """
    Q, K, V = _as_matrix("Q", Q), _as_matrix("K", K), _as_matrix("V", V)
    s = _as_matrix("s", s)
    levels = mcam.levels
    if Q.shape[0] != levels.shape[0] or s.shape[0] != levels.shape[0]:
        raise ValueError(
            f"Q/s must have {levels.shape[0]} rows, got {Q.shape[0]}/{s.shape[0]}"
        )
    if K.shape[0] != levels.shape[1] or s.shape[1] != levels.shape[1] or V.shape[0] != K.shape[0]:
        raise ValueError(
            f"K/V/s must span {levels.shape[1]} text tokens, got {K.shape[0]}/{V.shape[0]}/{s.shape[1]}"
        )
    if Q.shape[1] != K.shape[1]:
        raise ValueError(f"Q and K feature dims differ: {Q.shape[1]} vs {K.shape[1]}")
    if K.shape[0] == 0:
        raise ValueError("cross-attention requires at least one text token")

    return _attend(Q, K, V, _default_scale(K.shape[1]), return_weights, level_term=(levels, s, cfg.r))
