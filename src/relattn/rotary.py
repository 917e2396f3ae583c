"""Relational 3D rotary positions.

Video tokens keep the standard raster ``(i, j, k)`` triple (frame, width,
height).  Condition frames are stacked past the video along the temporal
axis: every background/object entity gets its own ``i``, while the face and
attributes of one subject group share a single ``i`` and are pushed apart by
diagonal ``(W*m, H*m)`` offsets in the spatial plane.  The rotation itself is
the usual interleaved-pair construction, applied independently per axis
sub-band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .layout import SUBJECT_KINDS, LayoutSpec


@dataclass(frozen=True)
class Position3:
    i: int
    j: int
    k: int


@dataclass(frozen=True)
class RotaryConfig:
    """Per-head rotary parameters.

    ``split`` gives the channel widths for the (i, j, k) sub-bands; each must
    be even and >= 2 and they must sum to ``head_dim``.  Pairs are interleaved:
    channels (2m, 2m+1) inside a band rotate together.
    """

    head_dim: int
    split: tuple[int, int, int]
    base: float = 10000.0

    def __post_init__(self):
        if sum(self.split) != self.head_dim:
            raise ValueError(f"split {self.split} must sum to head_dim {self.head_dim}")
        for d in self.split:
            if d < 2 or d % 2 != 0:
                raise ValueError(f"each sub-band width must be even and >= 2, got {self.split}")
        if self.base <= 0:
            raise ValueError("base must be positive")


def default_split(head_dim: int) -> tuple[int, int, int]:
    """Largest even split with d_i >= d_j = d_k summing to head_dim."""
    if head_dim < 6 or head_dim % 2 != 0:
        raise ValueError(f"head_dim must be an even integer >= 6, got {head_dim}")
    dj = (head_dim // 3) // 2 * 2
    dj = max(dj, 2)
    return head_dim - 2 * dj, dj, dj


def default_config(head_dim: int, base: float = 10000.0) -> RotaryConfig:
    return RotaryConfig(head_dim=head_dim, split=default_split(head_dim), base=base)


def _position_array(spec: LayoutSpec) -> np.ndarray:
    """(n, 3) int64 array of the (i, j, k) triple of every token.

    Each frame of the concatenated sequence (the video frames, then one per
    entity) adds its (i, dj, dk) offset to the raster (0, col, row) grid.
    """
    offsets = [(frame, 0, 0) for frame in range(spec.T)]
    group_of = {m: g for g, members in enumerate(spec.groups) for m in members}
    member_of = {m: n for members in spec.groups for n, m in enumerate(members)}
    bgobj_ordinal = 0
    for e, ent in enumerate(spec.entities):
        if ent.kind in SUBJECT_KINDS:
            m = member_of[e]
            offsets.append((group_of[e] + spec.T + spec.n_bgobj, spec.W * m, spec.H * m))
        else:
            offsets.append((bgobj_ordinal + spec.T, 0, 0))
            bgobj_ordinal += 1
    row, col = np.divmod(np.arange(spec.H * spec.W, dtype=np.int64), spec.W)
    grid = np.stack([np.zeros_like(col), col, row], axis=1)
    return (np.array(offsets, dtype=np.int64)[:, None, :] + grid).reshape(-1, 3)


def assign_positions(spec: LayoutSpec) -> list[Position3]:
    """One position triple per token of the concatenated sequence.

    Triples are pairwise distinct across the whole sequence: condition
    branches live at dedicated temporal indices and group members are
    separated by the diagonal spatial offsets.
    """
    return [Position3(i, j, k) for i, j, k in _position_array(spec).tolist()]


def positions_as_array(positions: Sequence[Position3]) -> np.ndarray:
    """(n, 3) int64 array of (i, j, k) rows."""
    return np.array([(p.i, p.j, p.k) for p in positions], dtype=np.int64)


def _band_angles(coord: np.ndarray, d_axis: int, base: float) -> np.ndarray:
    """(n, d_axis/2) angles theta_m * coord with theta_m = base^(-2m/d_axis)."""
    m = np.arange(d_axis // 2, dtype=np.float64)
    theta = base ** (-2.0 * m / d_axis)
    return coord[:, None] * theta[None, :]


def _rotary_table(pos: np.ndarray, cfg: RotaryConfig, dtype) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the per-band angles of each (i, j, k) row of ``pos``,
    each (n, head_dim/2) in ``dtype``.  Rotating by (cos, -sin) applies the
    inverse rotation, bit-exactly, since sin(-a) == -sin(a)."""
    pos = pos.astype(np.float64)
    angles = np.concatenate(
        [_band_angles(pos[:, axis], d_axis, cfg.base) for axis, d_axis in enumerate(cfg.split)],
        axis=1,
    )
    return np.cos(angles).astype(dtype, copy=False), np.sin(angles).astype(dtype, copy=False)


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate the interleaved channel pairs of each row of ``x``."""
    even = x[:, 0::2]
    odd = x[:, 1::2]
    out = np.empty_like(x)
    out[:, 0::2] = even * cos - odd * sin
    out[:, 1::2] = even * sin + odd * cos
    return out


def apply_rotary(
    x: np.ndarray,
    positions: Sequence[Position3],
    cfg: RotaryConfig,
    inverse: bool = False,
) -> np.ndarray:
    """Rotate each row of ``x`` by its position's per-band angles.

    Row norms are preserved (pure rotation); ``inverse=True`` applies the
    transpose rotation, which undoes the forward one.  Computation follows
    the dtype of ``x``.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != cfg.head_dim:
        raise ValueError(f"x must be (tokens, {cfg.head_dim}), got {x.shape}")
    if x.shape[0] != len(positions):
        raise ValueError(f"{x.shape[0]} rows but {len(positions)} positions")
    cos, sin = _rotary_table(positions_as_array(positions), cfg, x.dtype)
    return _rotate(x, cos, -sin if inverse else sin)
