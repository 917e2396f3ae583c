"""Attention kernels: dense reference paths, a block-streaming masked kernel
and its recomputing backward, and relational cross-attention with the level
mask scaled by a pooled query-key similarity estimate.

The streaming kernel keeps an online softmax for float32, whose output bits
the README loss pins.  Other dtypes fix each query row's softmax stabilizer
before the walk and share the backward's augmented GEMM operands.

All kernels follow the dtype of their inputs (float32 in production, float64
when tests want oracle precision) and are deterministic for fixed inputs.
"""

from __future__ import annotations

import heapq
import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .layout import LayoutSpec
from .masks import Block, CsamMask

# query rows per tile: the streaming kernels hold one tile x keys logits
# buffer at a time instead of a full query x key matrix
_SELF_TILE = 256
_CROSS_TILE = 128
# The backward tiles separately.  The forward's height is frozen: its
# float32 output bits, pinned by the README loss, moved at n=7488 for
# heights of 16-128 rows.  The float64 backward holds two tile x keys
# buffers (P and dS), which at 64 rows and 1872 keys take 1.9 MB and fit a
# 2 MiB L2 where 256 rows take 7.7 MB.  Median ms of one head's backward
# (1 thread, Xeon, 2 MiB L2 per core) by height, for 16/32/48/64/96/128/256:
#   bench_layout(), n=1872:  10-13 / 7-9 / 7-8 / 8 / 8-9 / 9 / 12
#   ROADMAP layout, n=7488:  123-148 / 129-140 / 113-128 / 117-128 /
#                            116-138 / 146 / 159-166
_BWD_TILE = 64


@dataclass(frozen=True)
class AttnConfig:
    """Cross-attention knobs: level-mask strength ``r`` and spatial pooling
    factor ``d``."""

    r: float = 0.5
    d: int = 8

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ValueError(f"r must be finite and >= 0, got {self.r}")
        if not isinstance(self.d, numbers.Integral) or self.d < 1:
            raise ValueError(f"d must be an integer >= 1, got {self.d!r}")


def _as_matrix(name: str, x: np.ndarray, floating: bool = True) -> np.ndarray:
    x = np.asarray(x)
    if floating and not np.issubdtype(x.dtype, np.floating):
        raise ValueError(f"{name} must have a floating dtype, got {x.dtype}")
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {x.shape}")
    if x.size and not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _default_scale(k_cols: int) -> float:
    return 1.0 / math.sqrt(k_cols)


def _attend(Q, K, V, scale, return_weights, level_term=None):
    """softmax((Q K^T [+ level term]) * scale) V with row-max stabilization.

    ``level_term=(table, index, first)`` adds ``table[index[i]]``, the
    relational levels * s * r stored once per distinct row, to every query
    row ``i >= first``; earlier rows have all-zero levels and skip it.
    Queries run in row tiles through one reused logits buffer (or the
    returned weights), so both ``return_weights`` paths run the same arithmetic.
    """
    n, L = Q.shape[0], K.shape[0]
    if level_term is None:
        dt, first = np.result_type(Q, K), n
    else:
        table, index, first = level_term
        dt = np.result_type(Q, K, table)
        term = np.empty((min(_CROSS_TILE, n), L), dtype=table.dtype)
    out = np.empty((n, V.shape[1]), dtype=np.result_type(dt, V))
    weights = np.empty((n if return_weights else min(_CROSS_TILE, n), L), dtype=dt)
    sc = dt.type(scale)
    Kt = K.T
    for q0 in range(0, n, _CROSS_TILE):
        rows = slice(q0, min(q0 + _CROSS_TILE, n))
        m = rows.stop - q0
        logits = weights[rows] if return_weights else weights[:m]
        np.matmul(Q[rows], Kt, out=logits)
        lo = max(q0, first)
        if lo < rows.stop:
            t = term[: rows.stop - lo]
            np.take(table, index[lo : rows.stop], axis=0, out=t, mode="clip")
            logits[lo - q0 :] += t
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

    The result matches the dense masked kernel for any block visit order.
    Each block is walked in query-row tiles through one reused logits
    buffer, so memory stays O(tile x widest block) whatever the sequence
    length.  float32 inputs keep a running max and normalizer per query row
    (online softmax); other dtypes fix each row's softmax stabilizer before
    the walk (see :func:`_blockwise`).
    """
    return _blockwise(Q, K, V, blocks, scale)[0]


def _blockwise(Q, K, V, blocks: Sequence[Block], scale: float | None = None):
    """:func:`masked_self_attention_blockwise` and each query row's log-sum-exp
    of its scaled logits, from which :func:`_blockwise_bwd` recomputes weights.

    float32 runs the online softmax of :func:`_online_blockwise`, only
    because the README loss and the pinned block outputs freeze its bits.
    Every other dtype takes three passes.  First it fixes one stabilizer
    per query row, ``c = scale |q| max|k|`` over the keys of the row's
    blocks: no logit of the row exceeds it, so ``exp`` cannot overflow, and
    the row's true max lies within ``2c`` below it.  A row whose ``2c``
    would reach ``exp``'s subnormal range takes its exact row max instead.
    Then each tile runs GEMM -> ``exp`` -> GEMM on the operands of
    :func:`_folded`, which carry ``-c`` into the logits and the row sum into
    the output, so nothing is rescaled along the way.  Last, one division
    by the row sums.
    """
    Q, K, V = _as_matrix("Q", Q), _as_matrix("K", K), _as_matrix("V", V)
    n = Q.shape[0]
    if K.shape[0] != n or V.shape[0] != n:
        raise ValueError(f"K/V must have {n} rows, got {K.shape[0]}/{V.shape[0]}")
    if Q.shape[1] != K.shape[1]:
        raise ValueError(f"Q and K feature dims differ: {Q.shape[1]} vs {K.shape[1]}")
    _validate_blocks(blocks, n)
    if scale is None:
        scale = _default_scale(K.shape[1])
    dt = np.result_type(Q, K, V)
    if dt == np.float32:
        return _online_blockwise(Q, K, V, blocks, scale)

    Q, K, V = Q.astype(dt, copy=False), K.astype(dt, copy=False), V.astype(dt, copy=False)
    width = max((blk.k1 - blk.k0 for blk in blocks), default=0)
    buf = np.empty(min(_SELF_TILE, n) * width, dtype=dt)
    Qs = Q * scale
    # a norm may overflow, and 0 * inf gives NaN: neither is below the
    # limit, so such rows take the exact route
    with np.errstate(over="ignore", invalid="ignore"):
        key_norm = np.sqrt(np.einsum("ij,ij->i", K, K))
        reach = np.zeros(n, dtype=dt)  # largest |k| over the keys of each row's blocks
        for blk in blocks:
            rows = reach[blk.q0 : blk.q1]
            np.maximum(rows, key_norm[blk.k0 : blk.k1].max(), out=rows)
        c = np.sqrt(np.einsum("ij,ij->i", Qs, Qs)) * reach
    exact = np.flatnonzero(~(2 * c < -np.log(np.finfo(dt).tiny)))
    if exact.size:
        peak = np.full(exact.size, -np.inf, dtype=dt)
        for blk in blocks:
            Kt = K[blk.k0 : blk.k1].T
            lo, hi = np.searchsorted(exact, (blk.q0, blk.q1))
            for t0 in range(lo, hi, _SELF_TILE):
                ts = slice(t0, min(t0 + _SELF_TILE, hi))
                logits = buf[: (ts.stop - t0) * Kt.shape[1]].reshape(ts.stop - t0, -1)
                np.matmul(Qs[exact[ts]], Kt, out=logits)
                np.maximum(peak[ts], logits.max(axis=1), out=peak[ts])
        c[exact] = peak

    Qx, Kx, Vx = _folded(Qs, K, V, c)
    acc = np.zeros((n, Vx.shape[1]), dtype=dt)
    for blk in blocks:
        KxT, Vxb = Kx[blk.k0 : blk.k1].T, Vx[blk.k0 : blk.k1]
        for q0 in range(blk.q0, blk.q1, _SELF_TILE):
            qs = slice(q0, min(q0 + _SELF_TILE, blk.q1))
            P = buf[: (qs.stop - q0) * KxT.shape[1]].reshape(qs.stop - q0, -1)
            np.matmul(Qx[qs], KxT, out=P)
            np.exp(P, out=P)
            acc[qs] += P @ Vxb
    return acc[:, :-1] / acc[:, -1:], c + np.log(acc[:, -1])


def _online_blockwise(Q, K, V, blocks: Sequence[Block], scale: float):
    """:func:`_blockwise` for float32: a running max and normalizer per query
    row, rescaled whenever a tile raises the max."""
    n, dt = Q.shape[0], Q.dtype
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


def _folded(Qs, K, V, shift):
    """The GEMM operands ``[Qs, -shift]``, ``[K, 1]`` and ``[V, 1]`` for
    ``Qs`` = Q scale: their first product is Q K^T scale minus ``shift`` per
    query row, and a weight matrix times ``[V, 1]`` carries its row sums in
    the last column."""
    ones = np.ones((K.shape[0], 1), dtype=K.dtype)
    return np.hstack([Qs, -shift[:, None]]), np.hstack([K, ones]), np.hstack([V, ones])


def _blockwise_bwd(Q, K, V, out, lse, g, blocks: Sequence[Block], scale: float):
    """Gradients (dQ, dK, dV) of :func:`_blockwise` given ``g`` at its output.

    The FlashAttention backward: walks the same cover in query tiles and
    recomputes each tile's weights P = exp(Q K^T scale - lse) instead of
    keeping them; with D = rowsum(g * out) the gradient of Q K^T is
    P * (g V^T - D) * scale, and ``scale`` is folded into Q and K here.
    Both subtractions ride in the GEMMs: ``-lse`` through the operands of
    :func:`_folded`, which the float64 forward shares, and ``-D`` as one
    more column of ``g`` against the ones on V.  P and its gradient dS live
    in two buffers of ``_BWD_TILE`` rows reused by every tile."""
    n, dt = Q.shape[0], Q.dtype
    dQ, dK, dV = np.zeros_like(Q), np.zeros_like(K), np.zeros_like(V)
    Qs, Ks = Q * scale, K * scale
    Qx, Kx, Vx = _folded(Qs, K, V, lse)
    gx = np.hstack([g, -(g * out).sum(axis=1, keepdims=True)])
    width = max((blk.k1 - blk.k0 for blk in blocks), default=0)
    size = min(_BWD_TILE, n) * width
    p_buf, ds_buf = np.empty(size, dtype=dt), np.empty(size, dtype=dt)
    for blk in blocks:
        ks = slice(blk.k0, blk.k1)
        KxT, VxT = Kx[ks].T, Vx[ks].T
        for q0 in range(blk.q0, blk.q1, _BWD_TILE):
            qs = slice(q0, min(q0 + _BWD_TILE, blk.q1))
            m = qs.stop - q0
            P = p_buf[: m * KxT.shape[1]].reshape(m, -1)
            dS = ds_buf[: P.size].reshape(P.shape)
            np.matmul(Qx[qs], KxT, out=P)
            np.exp(P, out=P)
            # (g.T @ P).T rather than P.T @ g: the product's rows run along
            # the long key axis, not along the 8-wide value axis
            dV[ks] += (g[qs].T @ P).T
            np.matmul(gx[qs], VxT, out=dS)
            dS *= P
            dQ[qs] += dS @ Ks[ks]
            dK[ks] += (Qs[qs].T @ dS).T
    return dQ, dK, dV


def _patch_sum(x: np.ndarray, spec: LayoutSpec, d: int) -> np.ndarray:
    """Sum of the rows of ``x`` over each d x d patch of every frame, as a
    (frames * patches, channels) array in frame-major, row-major patch order.
    A column of ones sums to the token count of each patch."""
    grid = x.reshape(spec.T + spec.n_entities, spec.H, spec.W, x.shape[1])
    sums = np.add.reduceat(grid, np.arange(0, spec.H, d), axis=1)
    sums = np.add.reduceat(sums, np.arange(0, spec.W, d), axis=2)
    return sums.reshape(-1, x.shape[1])


def _patch_geometry(spec: LayoutSpec, d: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Token count of every d x d patch in :func:`_patch_sum` order, and each
    token's patch as a row index into it: indexing a patch array with it
    repeats each patch row over the patch's tokens."""
    cells = _patch_sum(np.ones((spec.n_tokens, 1), dtype), spec, d)
    per_row, frames = -(-spec.W // d), spec.T + spec.n_entities
    in_frame = ((np.arange(spec.H) // d)[:, None] * per_row + np.arange(spec.W) // d).ravel()
    return cells, (np.arange(frames)[:, None] * (len(cells) // frames) + in_frame).ravel()


def _pooled_similarity(Q, K_text, spec: LayoutSpec, d: int, cells: np.ndarray) -> np.ndarray:
    """|pooled Q K_text^T| with one row per d x d patch of every frame, in
    :func:`_patch_sum` order; ``cells`` holds each patch's token count."""
    return np.abs((_patch_sum(Q, spec, d) / cells) @ K_text.T)


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

    cells, row_patch = _patch_geometry(spec, d, Q.dtype)
    return _pooled_similarity(Q, K_text, spec, d, cells)[row_patch]


def relational_cross_attention(
    Q, K, V, levels, s, cfg: AttnConfig, return_weights: bool = False
):
    """Cross-attention with the n x L level matrix ``levels`` (for instance
    ``build_mcam(spec).levels``) injected additively as levels*s*r.

    The full sum (logits plus the mask term) is scaled by 1/sqrt(d_K); with
    r=0 the additive term vanishes and the kernel is bit-identical to
    :func:`standard_attention`.
    """
    Q, K, V = _as_matrix("Q", Q), _as_matrix("K", K), _as_matrix("V", V)
    s, levels = _as_matrix("s", s), _as_matrix("levels", levels, floating=False)
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

    table = levels * (s * np.result_type(Q, K, s).type(cfg.r))
    return _attend(Q, K, V, _default_scale(K.shape[1]), return_weights, (table, np.arange(len(Q)), 0))
