"""Structured attention masks over the concatenated token sequence.

Self-attention: video queries see everything; condition queries see only
their own branch (one background/object entity, or one whole subject group).
The mask is carried as its exact rectangular-block cover, derived from the
layout, so kernels can stream it; the dense boolean form is built only when
something asks for it.

Cross-attention: a {-1, 0, +1} level per (visual token, caption token) pair,
encoding weak/neutral/strong correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from .layout import LayoutSpec, SUBJECT_KINDS


@dataclass(frozen=True)
class Block:
    """Rectangular query x key range, half-open on both axes."""

    q0: int
    q1: int
    k0: int
    k1: int

    def __post_init__(self):
        if not (self.q0 < self.q1 and self.k0 < self.k1):
            raise ValueError(f"block ranges must be non-empty, got {self}")
        if self.q0 < 0 or self.k0 < 0:
            raise ValueError(f"block ranges must be non-negative, got {self}")


class CsamMask:
    """Self-attention mask (row = query) as a disjoint block cover.

    ``bits``, the dense boolean matrix, is materialized from the cover on
    first access; the streaming kernel never needs it.
    """

    __slots__ = ("n", "blocks", "_bits")

    def __init__(self, n: int, blocks: Sequence[Block]):
        self.n = n
        self.blocks = tuple(blocks)
        self._bits = None

    @property
    def bits(self) -> np.ndarray:
        if self._bits is None:
            self._bits = materialize_blocks(self.blocks, self.n)
        return self._bits

    def __repr__(self) -> str:
        return f"CsamMask(n={self.n}, blocks={self.blocks!r})"


@dataclass(frozen=True)
class McamMask:
    """Signed-byte level matrix, (visual tokens) x (caption tokens)."""

    levels: np.ndarray


def build_csam(spec: LayoutSpec) -> CsamMask:
    """Mask that is True iff the query is a video token or query and key
    share a condition branch, as its exact block cover.

    The cover follows from the layout: one ``[0, n_video) x [0, n)`` video
    block, then one square block per condition branch.  A branch is a run of
    consecutive entities with the same label (a subject group is
    contiguous), so the blocks come out in token order, exactly as
    :func:`decompose_blocks` would find them in the dense mask.
    """
    n, start = spec.n_tokens, spec.n_video_tokens
    blocks = [Block(0, start, 0, n)]
    for _, run in groupby(spec.branch_labels):
        end = start + sum(1 for _ in run) * spec.hw
        blocks.append(Block(start, end, start, end))
        start = end
    return CsamMask(n, blocks)


def decompose_blocks(mask: np.ndarray) -> list[Block]:
    """Exact disjoint rectangular cover of a boolean mask.

    Each row is split into maximal contiguous column runs; adjacent rows with
    identical run sets merge into one row band.  The result reproduces the
    mask bit-for-bit (verified before returning; all-False rows are simply
    uncovered).  This is the general routine for any mask, and the oracle
    that :func:`build_csam`'s derived cover is tested against.
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


def materialize_blocks(blocks: tuple[Block, ...] | list[Block], n: int) -> np.ndarray:
    """Dense boolean matrix covered by ``blocks`` (n x n)."""
    bits = np.zeros((n, n), dtype=bool)
    for blk in blocks:
        bits[blk.q0 : blk.q1, blk.k0 : blk.k1] = True
    return bits


def build_mcam(spec: LayoutSpec) -> McamMask:
    """Level matrix over (visual token, caption token) pairs.

    Matches the pairwise level rule exactly: +1 inside the own entity span or
    the own subject group's spans, -1 against other subject groups' spans,
    0 everywhere else (video rows are all zero).
    """
    levels = np.zeros((spec.n_tokens, spec.text_len), dtype=np.int8)
    if spec.text_len == 0:
        return McamMask(levels=levels)

    group_span = np.zeros((spec.n_groups, spec.text_len), dtype=bool)
    for g, members in enumerate(spec.groups):
        for m in members:
            span = spec.entities[m].span
            if span is not None:
                group_span[g, span[0] : span[1]] = True
    any_group = group_span.any(axis=0)

    group_of = {m: g for g, members in enumerate(spec.groups) for m in members}
    for e, ent in enumerate(spec.entities):
        row = np.zeros(spec.text_len, dtype=np.int8)
        if ent.kind in SUBJECT_KINDS:
            own = group_span[group_of[e]]
            row[any_group & ~own] = -1
            row[own] = 1
        elif ent.span is not None:
            row[ent.span[0] : ent.span[1]] = 1
        start, end = spec.entity_range(e)
        levels[start:end] = row
    return McamMask(levels=levels)


def _write_int_grid_csv(path: str | Path, grid: np.ndarray) -> None:
    # header + LF endings, fixed for byte-stability
    lines = [",".join(f"c{i}" for i in range(grid.shape[1]))]
    lines.extend(",".join(str(int(v)) for v in row) for row in grid)
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("ascii"))


def write_csam_csv(path: str | Path, mask: CsamMask) -> None:
    _write_int_grid_csv(path, mask.bits.astype(np.int8))


def write_mcam_csv(path: str | Path, mask: McamMask) -> None:
    _write_int_grid_csv(path, mask.levels)


def _write_pgm(path: str | Path, gray: np.ndarray) -> None:
    h, w = gray.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    Path(path).write_bytes(header + gray.astype(np.uint8).tobytes())


def write_csam_pgm(path: str | Path, mask: CsamMask) -> None:
    _write_pgm(path, np.where(mask.bits, 255, 0))


def write_mcam_pgm(path: str | Path, mask: McamMask) -> None:
    levels = mask.levels
    if levels.shape[1] == 0:
        raise ValueError("cannot render an image with zero caption tokens")
    gray = np.full(levels.shape, 128, dtype=np.uint8)
    gray[levels == -1] = 0
    gray[levels == 1] = 255
    _write_pgm(path, gray)
