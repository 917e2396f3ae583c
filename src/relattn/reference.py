"""Executable spec: the dense reference paths that the block does not run.

Plain dense forms of what the block computes: attention over full score
matrices, the n x L pooled similarity ``s`` and the cross-attention that adds
the n x L level term, the block cover of any boolean mask, each token's
branch id and the pairwise correlation level rule.  ``relctl check``,
``relctl bench`` and the tests hold the streaming kernels of
:mod:`relattn.attention` and the layout-derived masks of :mod:`relattn.masks`
against them.  No module that ``block_forward`` runs imports this one.
"""

from __future__ import annotations

import numpy as np

from .attention import AttnConfig, _as_matrix, _attend, _default_scale, _finite_output, _patch_sum
from .layout import SUBJECT_KINDS, LayoutSpec, _check_int
from .masks import Block, CsamMask


def standard_attention(Q, K, V, *, return_weights: bool = False):
    """Unmasked scaled-dot-product attention (baseline for equivalence tests)."""
    Q, K, V = _as_matrix("Q", Q), _as_matrix("K", K), _as_matrix("V", V)
    if Q.shape[1] != K.shape[1] or K.shape[0] != V.shape[0]:
        raise ValueError(f"incompatible shapes Q{Q.shape} K{K.shape} V{V.shape}")
    if K.shape[0] == 0:
        raise ValueError("attention requires at least one key")
    scale = _default_scale(K.shape[1])
    out = _finite_output(_attend(Q, K, V, scale)[0])
    return (out, _weights(Q, K, scale)) if return_weights else out


def _weights(Q, K, scale: float, additive=None) -> np.ndarray:
    """Dense softmax weights of ``(Q K^T [+ additive]) * scale``, stabilized
    and normalized per row as the streaming cross-attention kernel does."""
    logits = Q @ K.T
    if additive is not None:
        logits = logits + additive
    logits *= logits.dtype.type(scale)
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def masked_self_attention_naive(Q, K, V, mask: CsamMask, *, return_weights: bool = False):
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

    scale = _default_scale(K.shape[1])
    logits = (Q @ K.T) * Q.dtype.type(scale)
    logits = np.where(mask.bits, logits, -np.inf)
    logits -= logits.max(axis=1, keepdims=True)
    np.maximum(logits, np.finfo(logits.dtype).min, out=logits)
    w = np.exp(logits)
    w /= w.sum(axis=1, keepdims=True)
    out = _finite_output(w @ V)
    return (out, w) if return_weights else out


def compute_scaling_s(Q, K_text, spec: LayoutSpec, d: int) -> np.ndarray:
    """Position-wise |Q K^T| estimate from spatially average-pooled queries.

    Each frame's H x W query grid is mean-pooled over d x d patches (ragged
    edges average their actual cells), the pooled queries are scored against
    the text keys, and each patch's |similarity| row is repeated over every
    token of the patch.  d=1 reduces to the exact |Q K^T|.
    """
    Q, K_text = _as_matrix("Q", Q), _as_matrix("K_text", K_text)
    _check_int("d", d, 1)
    if Q.shape[0] != spec.n_tokens:
        raise ValueError(f"Q must have {spec.n_tokens} rows (z' layout), got {Q.shape[0]}")
    if Q.shape[1] != K_text.shape[1]:
        raise ValueError(f"Q and K_text feature dims differ: {Q.shape[1]} vs {K_text.shape[1]}")

    cells = _patch_sum(np.ones((spec.n_tokens, 1), Q.dtype), spec, d)
    s = _finite_output(np.abs((_patch_sum(Q, spec, d) / cells) @ K_text.T))
    frames, rows, cols = spec.T + spec.n_entities, -(-spec.H // d), -(-spec.W // d)
    frame, i, j = np.indices((frames, spec.H, spec.W)).reshape(3, -1)  # of each token
    return s.reshape(frames, rows, cols, K_text.shape[0])[frame, i // d, j // d]


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
    scale = _default_scale(K.shape[1])
    out = _finite_output(_attend(Q, K, V, scale, (table, np.arange(len(Q)), 0))[0])
    return (out, _weights(Q, K, scale, table)) if return_weights else out


def decompose_blocks(mask: np.ndarray) -> list[Block]:
    """Exact disjoint rectangular cover of a boolean mask.

    Each row is split into maximal contiguous column runs; adjacent rows with
    identical run sets merge into one row band.  The result reproduces the
    mask bit-for-bit (verified before returning; all-False rows are simply
    uncovered).  This is the general routine for any mask, and the oracle
    that :func:`~relattn.masks.build_csam`'s derived cover is tested against.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
    n_rows, n_cols = mask.shape

    def runs_of(row: np.ndarray) -> tuple[tuple[int, int], ...]:
        padded = np.diff(np.concatenate(([0], row.astype(np.int8), [0])))
        starts = np.flatnonzero(padded == 1)
        ends = np.flatnonzero(padded == -1)
        return tuple(zip(starts.tolist(), ends.tolist()))

    blocks: list[Block] = []
    q = 0
    while q < n_rows:
        runs = runs_of(mask[q])
        q_end = q + 1
        while q_end < n_rows and runs_of(mask[q_end]) == runs:
            q_end += 1
        blocks.extend(Block(q0=q, q1=q_end, k0=k0, k1=k1) for k0, k1 in runs)
        q = q_end

    rebuilt = np.zeros_like(mask)
    for blk in blocks:
        if rebuilt[blk.q0 : blk.q1, blk.k0 : blk.k1].any():
            raise ValueError(f"internal error: block cover overlaps at {blk}")
        rebuilt[blk.q0 : blk.q1, blk.k0 : blk.k1] = True
    if not np.array_equal(rebuilt, mask):
        raise ValueError("mask is not representable by the computed block cover")
    return blocks


def branch_index_per_token(spec: LayoutSpec) -> np.ndarray:
    """Integer branch id per token; video tokens get -1.

    Condition branches are numbered by first appearance, so ids are
    contiguous over [0, n_branches).
    """
    ids = np.full(spec.n_tokens, -1, dtype=np.int32)
    order: dict[str, int] = {}
    for e in range(spec.n_entities):
        label = spec.branch_labels[e]
        bid = order.setdefault(label, len(order))
        start, end = spec.entity_range(e)
        ids[start:end] = bid
    return ids


def text_level_of(spec: LayoutSpec, visual_flat: int, text_idx: int) -> int:
    """Correlation level between one visual token and one caption token.

    +1 when the token's entity span contains the caption index, or both sit
    in the same subject group; -1 between subject tokens and caption tokens
    of a different subject group; 0 otherwise (video rows are always 0).
    """
    if not 0 <= text_idx < spec.text_len:
        raise IndexError(f"text index {text_idx} outside [0, {spec.text_len})")
    if not 0 <= visual_flat < spec.n_tokens:
        raise IndexError(f"flat index {visual_flat} outside [0, {spec.n_tokens})")
    frame = visual_flat // spec.hw
    if frame < spec.T:
        return 0
    ent = spec.entities[frame - spec.T]

    def _contains(span: tuple[int, int] | None) -> bool:
        return span is not None and span[0] <= text_idx < span[1]

    if ent.kind in SUBJECT_KINDS:
        for g, members in enumerate(spec.groups):
            if any(_contains(spec.entities[m].span) for m in members):
                return 1 if g == ent.group else -1
        return 0
    return 1 if _contains(ent.span) else 0
