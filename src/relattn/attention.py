"""The block's two attentions, as one function per head and direction:
masked self-attention streamed over a block cover (:func:`_blockwise`,
:func:`_self_head_bwd`), and relational cross-attention (:func:`_cross_head`,
:func:`_cross_head_bwd`), whose level term (:func:`_level_term`) and tile
logits (:func:`_cross_logits`) serve both directions.  The block passes
none of them a scale: each takes 1/sqrt(head width) from its keys' width.
Each backward recomputes its weights tile by tile instead of keeping them:
the cross-attention's by its forward's own code, the self-attention's from
its row log-sum-exp over the tiles of the three-pass forward, each filled
key-major (P^T = K Q^T) where that forward fills it query-major.  The dense
reference kernels live in :mod:`relattn.reference`.

Every walk visits the tiles of :func:`_tiles`; cross-attention's span the
whole caption, and every self-attention walk's are :func:`_tile_rows` rows
tall over a block, by the block's width.  Float32 self-attention, whose
output bits the README loss pins, takes each query row's softmax in one
tile of a whole block when its cover visits each row once, as both covers
the block runs do (the layout's own and the plain baseline's full square),
and writes the output over the queries it has read.  Other dtypes, and the
general covers of :func:`masked_self_attention_blockwise`, fix each query
row's softmax stabilizer before the walk and share the backward's folded
GEMM operands (:func:`_folded`) and its 2-D tiles of at most ``_KEY_TILE``
keys, so that every tile of every float64 walk holds about ``_BWD_TILE`` x
``_KEY_TILE`` elements and no buffer grows with the width of a block.

A GEMM's right operand is row-major in every walk and dtype.  OpenBLAS
packs a thin transposed right operand, such as the K^T of a logits tile, far
more slowly than a row-major one: a (512 x 9) @ (9 x 64) float64 GEMM took
35.6 us through a ``.T`` view and 21.5 us from a copy (1 thread, Xeon,
OpenBLAS 0.3.31).  So both self-attention forwards copy K^T once per call,
the cross-attention copies its transposed operands once per head, and the
self-attention backward copies Q^T and g^T once per query tile.  A
transposed left operand costs nothing extra.

All kernels follow the dtype of their inputs (float32 in production, float64
when tests want oracle precision) and are deterministic for fixed inputs.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .layout import LayoutSpec, _check_int
from .masks import Block

# query rows per tile: the streaming kernels hold one tile x keys logits
# buffer at a time instead of a full query x key matrix.  Float32
# cross-attention takes _CROSS_TILE rows (see _attend), every other walk
# _tile_rows.  Each walk but float32's one-pass has one tile shape in both
# directions, the forward's single buffer and the backward's two (P and dS),
# of _BWD_TILE x _KEY_TILE elements (256 KiB of float64): the backward's
# pair fits a 2 MiB L2.  A tile spans at most _KEY_TILE keys, however wide
# its block (the video rows of the ROADMAP layout see all 7488 keys), and as
# many rows as fill the budget over its keys: _BWD_TILE rows over a full key
# chunk, more over a narrower block, so a 144-key block walks 227-row tiles.
# The one-pass walk spans a whole block in those rows: 64 x 7488 at n=7488.
_CROSS_TILE = 128
# Median ms of one head's backward in tiles of one fixed height (1 thread,
# Xeon, 2 MiB L2 per core), for 16/32/48/64/96/128/256 rows:
#   bench_layout(), n=1872:  10-13 / 7-9 / 7-8 / 8 / 8-9 / 9 / 12
#   ROADMAP layout, n=7488:  123-148 / 129-140 / 113-128 / 117-128 /
#                            116-138 / 146 / 159-166
# and of one head's forward at n=7488, 64 rows ran in 50-54 ms, 256 in 57-62.
# Median ms of one head at 64 rows (1 thread, AMD EPYC, 2 MiB L2 per core)
# by key chunk, for 128/256/512/1024/whole block:
#   n=1872, forward:   1.55 / 1.30 / 1.18 / 1.16 / 1.25
#           backward:  2.96 / 2.39 / 2.20 / 2.25 / 2.26
#   n=7488, forward:  19.9 / 17.0 / 16.6 / 16.2 / 17.8
#           backward: 39.0 / 31.5 / 30.7 / 29.8 / 33.3
# Sized by width, bench_layout()'s 144- and 288-key condition blocks take
# 35 tiles per head where 64 rows took 49.  Median ms of one head's
# backward there (1 thread, Xeon, 2 MiB L2 per core, 300 interleaved
# calls), tiles filled query-major / key-major: 64 rows 5.00 / 4.58, rows
# by width 4.68 / 4.40.
_BWD_TILE = 64
_KEY_TILE = 512


@dataclass(frozen=True)
class AttnConfig:
    """Cross-attention knobs: level-mask strength ``r`` and spatial pooling
    factor ``d``."""

    r: float = 0.5
    d: int = 8

    def __post_init__(self):
        if isinstance(self.r, bool):  # a number to math.isfinite, as 1 or 0
            raise ValueError(f"r must be a number, not a bool, got {self.r}")
        if not (math.isfinite(self.r) and self.r >= 0):
            raise ValueError(f"r must be finite and >= 0, got {self.r}")
        _check_int("d", self.d, 1)


def _as_matrix(name: str, x: np.ndarray, floating: bool = True) -> np.ndarray:
    x = np.asarray(x)
    if floating and not np.issubdtype(x.dtype, np.floating):
        raise ValueError(f"{name} must have a floating dtype, got {x.dtype}")
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {x.shape}")
    if x.size and not np.isfinite(x).all():
        raise ValueError(f"{name} contains non-finite entries")
    return x


def _finite_output(out: np.ndarray) -> np.ndarray:
    """``out``, or ``ValueError`` if it holds an inf or NaN, as finite inputs
    give when their products overflow."""
    if not np.isfinite(out).all():
        raise ValueError("non-finite output: the inputs overflow")
    return out


def _default_scale(k_cols: int) -> float:
    return 1.0 / math.sqrt(k_cols)


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


def masked_self_attention_blockwise(Q, K, V, blocks: Sequence[Block]):
    """Streaming masked self-attention over a disjoint block cover.

    The result matches the dense masked kernel for any block visit order.
    Each block is walked in tiles through one reused logits buffer the size
    of the cover's largest tile, whatever the sequence length, at least 64
    rows tall and as tall as fills 32768 logits over at most 512 keys:
    float32 over a cover that visits each query row once takes each row's
    softmax whole in tiles of a whole block; other dtypes and covers fix
    each row's softmax stabilizer before the walk, in tiles of at most 512
    keys (see :func:`_blockwise`).  The caller's arrays are left as they are.
    """
    Q, K, V = _as_matrix("Q", Q), _as_matrix("K", K), _as_matrix("V", V)
    n = Q.shape[0]
    if K.shape[0] != n or V.shape[0] != n:
        raise ValueError(f"K/V must have {n} rows, got {K.shape[0]}/{V.shape[0]}")
    if Q.shape[1] != K.shape[1]:
        raise ValueError(f"Q and K feature dims differ: {Q.shape[1]} vs {K.shape[1]}")
    _validate_blocks(blocks, n)
    # a copy of Q, which _blockwise may overwrite, in the common dtype
    qkv = [Q.astype(np.result_type(Q, K, V), order="C"), K, V]
    return _finite_output(_blockwise(qkv, blocks)[0])


def _blockwise(qkv: list, blocks: Sequence[Block], scale: float | None = None):
    """:func:`masked_self_attention_blockwise` and each query row's log-sum-exp
    of its scaled logits, from which :func:`_folded_bwd` recomputes weights,
    for ``qkv`` = [Q, K, V], which it empties: float32's row-major K^T then
    takes K's place instead of adding to it.

    float32 over a cover that visits each query row once, as both covers
    the block runs do (the layout's own and the plain baseline's full
    square), takes :func:`_one_pass`, only because the README loss and the
    pinned block outputs freeze its bits.  Every other dtype, or a general
    cover of :func:`masked_self_attention_blockwise`, takes three passes
    over the tiles of :func:`_tiles`, at most ``_KEY_TILE`` (512) keys by
    the :func:`_tile_rows` rows that both routes take (64 over 512 keys,
    227 over a 144-key block), the tiles its backward walks too.
    First it fixes one stabilizer per query row, ``c = scale |q| max|k|``
    over the keys of the row's blocks: no logit of the row exceeds it, so
    ``exp`` cannot overflow, and the row's true max lies within ``2c``
    below it.  A row whose ``2c`` would reach ``exp``'s subnormal range
    takes its exact row max instead.  Then each tile runs GEMM -> ``exp``
    -> GEMM on the operands of :func:`_folded`, which carry ``-c`` into the
    logits and the row sum into the output, so nothing is rescaled along
    the way, however a row's keys are split.  Last, one division by the
    row sums.  Its arrays come unchecked, as the block builds them, and
    the float32 route writes its output over ``Q``.  ``scale``, which the
    block never sets, defaults to 1/sqrt(K's width).
    """
    Q, K, V = qkv
    qkv.clear()
    n, scale = Q.shape[0], _default_scale(K.shape[1]) if scale is None else scale
    dt = np.result_type(Q, K, V)
    if dt == np.float32 and sum(b.q1 - b.q0 for b in blocks) == n:
        KT = K.T.copy()
        del K
        return _one_pass(Q, KT, V, blocks, scale)

    Q, K, V = Q.astype(dt, copy=False), K.astype(dt, copy=False), V.astype(dt, copy=False)
    buf = np.empty(_tile_size(blocks, _KEY_TILE), dtype=dt)
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
    Qx, Kx, Vx = _folded(Qs, K, V, c)
    del Qs
    KxT = Kx.T.copy()  # every tile's right operand, row-major
    del Kx
    exact = np.flatnonzero(~(2 * c < -np.log(np.finfo(dt).tiny)))
    if exact.size:
        peak = np.full(exact.size, -np.inf, dtype=dt)
        for blk in blocks:
            lo, hi = np.searchsorted(exact, (blk.q0, blk.q1))
            for ts, ks in _tiles(lo, hi, blk.k0, blk.k1, _tile_rows(blk.k1 - blk.k0), _KEY_TILE):
                logits = _view(buf, ts, ks)
                np.matmul(Qx[exact[ts], :-1], KxT[:-1, ks], out=logits)
                np.maximum(peak[ts], logits.max(axis=1), out=peak[ts])
        c[exact] = peak
        Qx[exact, -1] = -peak

    acc = np.zeros((n, Vx.shape[1]), dtype=dt)
    for blk in blocks:
        for qs, ks in _tiles(blk.q0, blk.q1, blk.k0, blk.k1, _tile_rows(blk.k1 - blk.k0), _KEY_TILE):
            P = _view(buf, qs, ks)
            np.matmul(Qx[qs], KxT[:, ks], out=P)
            np.exp(P, out=P)
            acc[qs] += P @ Vx[ks]
    return acc[:, :-1] / acc[:, -1:], c + np.log(acc[:, -1])


def _one_pass(Q, KT, V, blocks: Sequence[Block], scale: float):
    """:func:`_blockwise` for float32 over a cover that visits each query row
    once, from ``KT`` = K^T row-major, in tiles of :func:`_tile_rows` rows x
    a whole block: a tile holds all of its rows' logits, so each row takes its
    max, sum and log-sum-exp once.  A tile's output goes over the rows of
    ``Q`` its first GEMM has just read (into a new array when V is wider or
    narrower than Q)."""
    n, keys, dt = Q.shape[0], KT.shape[1], Q.dtype
    sc = dt.type(scale)
    out = Q if Q.shape[1] == V.shape[1] else np.empty((n, V.shape[1]), dtype=dt)
    peak, total = np.empty(n, dtype=dt), np.empty(n, dtype=dt)
    buf = np.empty(_tile_size(blocks, keys), dtype=dt)
    for blk in blocks:
        # a key chunk as wide as the keys spans the whole block
        for qs, ks in _tiles(blk.q0, blk.q1, blk.k0, blk.k1, _tile_rows(blk.k1 - blk.k0), keys):
            logits = _view(buf, qs, ks)
            np.matmul(Q[qs], KT[:, ks], out=logits)
            logits *= sc
            peak[qs] = logits.max(axis=1)
            logits -= peak[qs, None]
            np.exp(logits, out=logits)
            total[qs] = logits.sum(axis=1)
            np.matmul(logits, V[ks], out=out[qs])
            out[qs] += 0.0  # -0.0 -> +0.0, as a sum from zeros gives
            out[qs] /= total[qs, None]
    np.log(total, out=total)
    total += peak  # the log-sum-exp
    return out, total


def _tile_size(blocks: Sequence[Block], cols: int) -> int:
    """Elements of the largest tile a walk of ``blocks`` in tiles of at most
    :func:`_tile_rows` queries x ``cols`` keys fills (with ``cols`` = 1, the
    rows of its tallest tile): no tile outgrows its block."""
    return max((min(_tile_rows(b.k1 - b.k0), b.q1 - b.q0) * min(cols, b.k1 - b.k0) for b in blocks), default=0)


def _tile_rows(width: int) -> int:
    """Query rows of a tile over a self-attention block, or of a float64
    tile over a caption, ``width`` keys wide: as many as fill ``_BWD_TILE``
    x ``_KEY_TILE`` logits (256 KiB of float64) over the tile's at most
    ``_KEY_TILE`` keys, so at least ``_BWD_TILE``.  A self-attention block
    wider than ``_KEY_TILE`` takes ``_BWD_TILE`` rows; a caption, whose
    tiles span all of it, keeps its tiles no larger than a short one's until
    it passes ``_KEY_TILE`` tokens."""
    return max(_BWD_TILE, _BWD_TILE * _KEY_TILE // width)


def _tiles(q0: int, q1: int, k0: int, k1: int, rows: int, cols: int):
    """(query slice, key slice) of each tile of at most ``rows`` queries x
    ``cols`` keys of the rectangle [q0, q1) x [k0, k1), key chunks
    innermost."""
    for t0 in range(q0, q1, rows):
        qs = slice(t0, min(t0 + rows, q1))
        for c0 in range(k0, k1, cols):
            yield qs, slice(c0, min(c0 + cols, k1))


def _view(buf: np.ndarray, qs: slice, ks: slice) -> np.ndarray:
    """The front of ``buf`` as a (rows of ``qs``) x (keys of ``ks``) matrix."""
    m, w = qs.stop - qs.start, ks.stop - ks.start
    return buf[: m * w].reshape(m, w)


def _folded(Qs, K, V, shift):
    """The GEMM operands ``[Qs, -shift]``, ``[K, 1]`` and ``[V, 1]`` for
    ``Qs`` = Q scale: their first product is Q K^T scale minus ``shift`` per
    query row, and a weight matrix times ``[V, 1]`` carries its row sums in
    the last column."""
    ones = np.ones((K.shape[0], 1), dtype=K.dtype)
    return np.hstack([Qs, -shift[:, None]]), np.hstack([K, ones]), np.hstack([V, ones])


def _folded_bwd(Qx, Kx, Vx, gx, blocks: Sequence[Block], scale: float):
    """Gradients (dQ, dK, dV) of :func:`_blockwise` from its folded operands
    ``Qx = [Q scale, -lse]``, ``Kx = [K, 1]``, ``Vx = [V, 1]`` and
    ``gx = [g, -D]``, for ``g`` at its output and D = rowsum(g * out).

    The FlashAttention backward: walks the same cover in the forward's
    2-D tiles and recomputes each tile's weights P = exp(Q K^T scale - lse)
    instead of keeping them; the gradient of Q K^T is P * (g V^T - D) *
    scale, and both subtractions ride in the GEMMs.  ``scale`` rides on Q
    into dK, and dQ takes it once at the end.  Each tile is filled key-major,
    P^T = Kx Qx^T and dS^T = Vx gx^T, so that dV += P^T g, dK += dS^T Qs and
    dQ += (dS^T)^T K read row-major right operands, as the two fills do:
    each query tile copies Qx^T and gx^T once into two scratch buffers,
    which its key chunks share.  P^T and dS^T live in two buffers, each the
    size of the cover's largest tile, reused by every tile."""
    dt = Qx.dtype
    Qs, K, g = Qx[:, :-1], Kx[:, :-1], gx[:, :-1]
    dQ, dK, dV = np.zeros_like(Qs), np.zeros_like(K), np.zeros_like(g)
    size, rows = _tile_size(blocks, _KEY_TILE), _tile_size(blocks, 1)
    p_buf, ds_buf = np.empty(size, dtype=dt), np.empty(size, dtype=dt)
    qt_buf, gt_buf = np.empty((Qx.shape[1], rows), dtype=dt), np.empty((gx.shape[1], rows), dtype=dt)
    tile = None
    for blk in blocks:
        for qs, ks in _tiles(blk.q0, blk.q1, blk.k0, blk.k1, _tile_rows(blk.k1 - blk.k0), _KEY_TILE):
            if qs != tile:  # key chunks are innermost: a new query tile
                tile = qs
                QxT, gxT = qt_buf[:, : qs.stop - qs.start], gt_buf[:, : qs.stop - qs.start]
                QxT[...], gxT[...] = Qx[qs].T, gx[qs].T
            Pt, dSt = _view(p_buf, ks, qs), _view(ds_buf, ks, qs)
            np.matmul(Kx[ks], QxT, out=Pt)
            np.exp(Pt, out=Pt)
            dV[ks] += Pt @ g[qs]
            np.matmul(Vx[ks], gxT, out=dSt)
            dSt *= Pt
            dK[ks] += dSt @ Qs[qs]
            dQ[qs] += dSt.T @ K[ks]
    dQ *= scale
    return dQ, dK, dV


def _self_head_bwd(head: list, blocks: Sequence[Block]):
    """One self-attention head's gradients (dq, dk, dv) from ``head`` =
    [q, k, v, a, lse, ga]: its rotated queries and keys, its values, the
    output ``a`` and row log-sum-exp ``lse`` of :func:`_blockwise`, and the
    gradient ``ga`` at ``a``.

    Folds q, k and v as the forward does, but with ``lse`` as the shift,
    and ``ga`` as ``[ga, -D]`` for D = rowsum(ga * a), for :func:`_folded_bwd`.
    Empties ``head``, so that none of its arrays outlives the fold that
    reads it and the tile walk holds only the folded operands."""
    q, k, v, a, lse, ga = head
    head.clear()
    scale = _default_scale(k.shape[1])
    Qx, Kx, Vx = _folded(q * scale, k, v, lse)
    del q, k, v, lse
    Gx = np.hstack([ga, -np.einsum("ij,ij->i", ga, a)[:, None]])
    del a, ga
    return _folded_bwd(Qx, Kx, Vx, Gx, blocks, scale)


def _attend(Q, K, V, scale, level_term=None):
    """softmax((Q K^T [+ level term]) * scale) V with row-max stabilization,
    and each query row's log-sum-exp of its scaled logits, from which
    :func:`_cross_head_bwd` recomputes the weights.  Walks tiles through one
    reused logits buffer, each filled by :func:`_cross_logits` against a
    row-major copy of K^T: float32, whose output bits the README loss pins,
    in ``_CROSS_TILE`` rows; every other dtype in the :func:`_tile_rows`
    rows its backward walks (963 at 34 caption tokens).  One height for both
    cost more: float32 in :func:`_tile_rows` rows raised the largest traced
    forward peak over the benchmark's small layouts from 296-302 to 481-487
    KiB, and float64 in ``_CROSS_TILE`` rows slowed ``loss_and_gradients``
    by 7% at n=1872 and 5% at n=7488 (1 thread, Xeon, OpenBLAS 0.3.31)."""
    n, L = Q.shape[0], K.shape[0]
    dt = np.result_type(Q, K) if level_term is None else np.result_type(Q, K, level_term[0])
    tile, term = (_CROSS_TILE if dt == np.float32 else _tile_rows(L)), None
    KT = K.T.copy()
    if level_term is not None:
        table, _, first = level_term
        term = np.empty((min(tile, n - first), L), dtype=table.dtype)  # rows >= first only
    out = np.empty((n, V.shape[1]), dtype=np.result_type(dt, V))
    peak, total = np.empty(n, dtype=dt), np.empty(n, dtype=dt)
    buf = np.empty((min(tile, n), L), dtype=dt)
    for rows, _ in _tiles(0, n, 0, L, tile, L):
        logits = _cross_logits(buf[: rows.stop - rows.start], Q, KT, rows, level_term, term, scale)
        row_max = logits.max(axis=1, keepdims=True)
        logits -= row_max
        np.exp(logits, out=logits)
        row_sum = logits.sum(axis=1, keepdims=True)
        logits /= row_sum
        np.matmul(logits, V, out=out[rows])
        peak[rows], total[rows] = row_max[:, 0], row_sum[:, 0]
    np.log(total, out=total)
    total += peak  # the log-sum-exp
    return out, total


def _cross_head(qc, kc, vc, plan):
    """One cross-attention head: :func:`_attend` with the level term of
    ``plan``, its output and row log-sum-exp."""
    return _attend(qc, kc, vc, _default_scale(kc.shape[1]), _level_term(qc, kc, plan)[2])


def _cross_logits(logits, Q, KT, rows, level_term, term, scale):
    """(Q[rows] K^T [+ level term]) * scale, the logits of a tile of both
    cross-attention walks, into ``logits``, with ``KT`` = K^T row-major.
    ``level_term=(table, index, first)`` adds ``table[index[i - first]]``,
    the relational levels * s * r stored once per distinct row, to every
    query row ``i >= first``, gathered through the front rows of ``term``;
    earlier rows have all-zero levels."""
    np.matmul(Q[rows], KT, out=logits)
    if level_term is not None:
        table, index, first = level_term
        lo = max(rows.start, first)
        if lo < rows.stop:
            t = term[: rows.stop - lo]
            np.take(table, index[lo - first : rows.stop - first], axis=0, out=t, mode="clip")
            logits[lo - rows.start :] += t
    logits *= logits.dtype.type(scale)
    return logits


def _level_term(qc, kc, plan):
    """A head's pooled queries (the means over the d x d patches of ``plan``
    of the rows the term reaches, ``qc``'s from ``plan.first`` on, so none
    if it reaches none), ``sim`` = pooled kc^T and the level term
    :func:`_cross_logits` reads: the table levels * |sim| * r by patch, each
    reached row's patch, and the first row (``plan.first``)."""
    cells, row_patch, levels = plan.patches
    pooled = _patch_sum(qc[plan.first :], plan.spec, plan.d) / cells
    sim = pooled @ kc.T.copy()
    table = np.abs(sim)
    table *= table.dtype.type(plan.r)
    table *= levels  # level * (s * r), as the dense kernel's levels * s * r
    return pooled, sim, (table, row_patch, plan.first)


def _cross_head_bwd(qc, kc, vc, lse, co, gx, plan):
    """One cross-attention head's gradients w.r.t. its output projection
    ``co`` and its qc, kc and vc, from its queries, keys, values and row
    log-sum-exp ``lse`` and the gradient ``gx`` at the sub-layer's output.
    Overwrites ``qc``.

    Walks tiles of :func:`_tile_rows` rows and recomputes each tile's
    weights P = exp(logits - lse) by the forward's code, and from them its
    output a = P vc, instead of keeping either; with D = rowsum(ga * a) for
    ga = gx co^T, the gradient of the logits before the scale is dS = P *
    (ga vc^T - D).  A condition row's level term levels * |sim| * r has the
    gradient W = dS * sign(sim) * levels * r: each tile adds W^T pooled
    into kc's gradient and writes W kc over its rows of qc, which it no
    longer needs, and after the walk the patch means of those rows flow
    back to every row of their patch.  No buffer spans more than a tile."""
    cells, row_patch, levels = plan.patches
    n, L, first = qc.shape[0], kc.shape[0], plan.first
    scale = _default_scale(kc.shape[1])
    pooled, slope, level_term = _level_term(qc, kc, plan)
    np.sign(slope, out=slope)  # sim, then d table / d sim
    slope *= levels
    slope *= plan.r
    gco, gqc = np.zeros_like(co), np.empty_like(qc)
    gkc, gvc = np.zeros_like(kc), np.zeros_like(vc)
    kcT, vcT, coT = kc.T.copy(), vc.T.copy(), co.T.copy()
    tile = _tile_rows(L)
    p_buf, ds_buf = (np.empty((min(tile, n), L), dtype=qc.dtype) for _ in range(2))
    for rows, _ in _tiles(0, n, 0, L, tile, L):
        m, lo = rows.stop - rows.start, max(rows.start, first)
        P, dS = p_buf[:m], ds_buf[:m]
        _cross_logits(P, qc, kcT, rows, level_term, dS, scale)  # dS serves as the gather's scratch
        P -= lse[rows, None]
        np.exp(P, out=P)
        a = P @ vc
        ga = gx[rows] @ coT
        gco += a.T @ gx[rows]
        gvc += (ga.T @ P).T
        np.matmul(ga, vcT, out=dS)
        dS -= np.einsum("ij,ij->i", ga, a)[:, None]
        dS *= P
        np.matmul(dS, kc, out=gqc[rows])
        gkc += (qc[rows].T @ dS).T
        if lo < rows.stop:  # the tile reaches the term's rows
            patch = row_patch[lo - first : rows.stop - first]
            W = p_buf[: len(patch)]
            np.take(slope, patch, axis=0, out=W, mode="clip")
            W *= dS[lo - rows.start :]
            gkc += (pooled[patch].T @ W).T
            np.matmul(W, kc, out=qc[lo : rows.stop])
    del level_term, slope
    gqc[first:] += (_patch_sum(qc[first:], plan.spec, plan.d) / cells)[row_patch]
    gqc *= scale
    gkc *= scale
    return gco, gqc, gkc, gvc


def _patch_sum(x: np.ndarray, spec: LayoutSpec, d: int) -> np.ndarray:
    """Sum of the rows of ``x``, whole frames of ``spec``, over each d x d
    patch of every frame, as a (frames * patches, channels) array in
    frame-major, row-major patch order.  A column of ones sums to the token
    count of each patch."""
    grid = x.reshape(len(x) // spec.hw, spec.H, spec.W, x.shape[1])
    sums = np.add.reduceat(grid, np.arange(0, spec.H, d), axis=1)
    sums = np.add.reduceat(sums, np.arange(0, spec.W, d), axis=2)
    return sums.reshape(-1, x.shape[1])


class _Plan(NamedTuple):
    """What the block derives from the layout alone, built once per call by
    :func:`_layout_plan`; ``d`` and ``r`` are the level term's, and ``first``
    is the first row that it reaches."""

    spec: LayoutSpec
    d: int
    r: float
    blocks: tuple[Block, ...]
    rot: tuple[np.ndarray, np.ndarray]
    patches: tuple[np.ndarray, np.ndarray, np.ndarray]
    first: int


def _layout_plan(spec: LayoutSpec, cfg: AttnConfig, blocks, rot, entity_levels) -> _Plan:
    """The plan of ``spec`` with the cover ``blocks`` and the rotary table
    ``rot`` (cos, sin), whose dtype the level term's patches share.  The
    term reaches the rows [first, n): the condition rows, and none at r=0 or
    with all-zero levels, as it adds zeros there.  Over the frames of those
    rows alone, the plan holds the token count of each d x d patch in
    :func:`_patch_sum` order, each row's patch as a row index into it, and
    each patch's row of ``entity_levels``."""
    d = cfg.d
    first = spec.n_video_tokens if cfg.r and entity_levels.any() else spec.n_tokens
    cells = _patch_sum(np.ones((spec.n_tokens - first, 1), rot[0].dtype), spec, d)
    per_row = -(-spec.W // d)
    per_frame = -(-spec.H // d) * per_row
    in_frame = ((np.arange(spec.H) // d)[:, None] * per_row + np.arange(spec.W) // d).ravel()
    row_patch = (np.arange(0, len(cells), per_frame)[:, None] + in_frame).ravel()
    levels = np.repeat(entity_levels[first // spec.hw - spec.T :], per_frame, axis=0)  # the frames from first
    return _Plan(spec, d, cfg.r, blocks, rot, (cells, row_patch, levels), first)
