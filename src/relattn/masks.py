"""Structured attention masks over the concatenated token sequence.

Self-attention: video queries see everything; condition queries see only
their own branch (one background/object entity, or one whole subject group).
The mask is carried as its exact rectangular-block cover, derived from the
layout, so kernels can stream it; the dense boolean form is built from the
cover only when something asks for it (the exporters, the dense reference
kernel).  The general cover of any dense mask, which the derived one is
tested against, is :func:`relattn.reference.decompose_blocks`.

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
            self._bits = np.zeros((self.n, self.n), dtype=bool)
            for blk in self.blocks:
                self._bits[blk.q0 : blk.q1, blk.k0 : blk.k1] = True
        return self._bits

    def __repr__(self) -> str:
        return f"CsamMask(n={self.n}, blocks={self.blocks!r})"


class McamMask:
    """Signed-byte level matrix, (visual tokens) x (caption tokens), as one
    level row per entity (``entity_levels``, entities x caption tokens).

    Video rows are all zero and an entity's ``hw`` tokens share its row, so
    ``levels``, the dense matrix, is materialized on first access; the block
    never needs it.
    """

    __slots__ = ("entity_levels", "_n_video", "_hw", "_levels")

    def __init__(self, entity_levels: np.ndarray, n_video: int, hw: int):
        self.entity_levels, self._n_video, self._hw = entity_levels, n_video, hw
        self._levels = None

    @property
    def levels(self) -> np.ndarray:
        if self._levels is None:
            rows = np.repeat(self.entity_levels, self._hw, axis=0)
            self._levels = np.pad(rows, ((self._n_video, 0), (0, 0)))
        return self._levels


def build_csam(spec: LayoutSpec) -> CsamMask:
    """Mask that is True iff the query is a video token or query and key
    share a condition branch, as its exact block cover.

    The cover follows from the layout: one ``[0, n_video) x [0, n)`` video
    block, then one square block per condition branch.  A branch is a run of
    consecutive entities with the same label (a subject group is
    contiguous), so the blocks come out in token order, exactly as
    :func:`relattn.reference.decompose_blocks` finds them in the dense mask.
    """
    n, start = spec.n_tokens, spec.n_video_tokens
    blocks = [Block(0, start, 0, n)]
    for _, run in groupby(spec.branch_labels):
        end = start + sum(1 for _ in run) * spec.hw
        blocks.append(Block(start, end, start, end))
        start = end
    return CsamMask(n, blocks)


def build_mcam(spec: LayoutSpec) -> McamMask:
    """Level matrix over (visual token, caption token) pairs, kept as one row per entity.

    Matches the pairwise level rule exactly: +1 inside the own entity span or
    the own subject group's spans, -1 against other subject groups' spans,
    0 everywhere else (video rows are all zero).
    """
    rows = np.zeros((spec.n_entities, spec.text_len), dtype=np.int8)
    group_span = np.zeros((spec.n_groups, spec.text_len), dtype=bool)
    for g, members in enumerate(spec.groups):
        for m in members:
            span = spec.entities[m].span
            if span is not None:
                group_span[g, span[0] : span[1]] = True
    any_group = group_span.any(axis=0)

    for e, ent in enumerate(spec.entities):
        if ent.kind in SUBJECT_KINDS:
            own = group_span[ent.group]
            rows[e, any_group & ~own] = -1
            rows[e, own] = 1
        elif ent.span is not None:
            rows[e, ent.span[0] : ent.span[1]] = 1
    return McamMask(rows, spec.n_video_tokens, spec.hw)


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
