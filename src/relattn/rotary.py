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

import numpy as np

from .layout import SUBJECT_KINDS, LayoutSpec, _check_int

# theta_m = ROTARY_BASE^(-2m/d_axis) in every axis sub-band
ROTARY_BASE = 10000.0


def default_split(head_dim: int) -> tuple[int, int, int]:
    """Channel widths of the (i, j, k) sub-bands of a head: the largest even
    split with d_i >= d_j = d_k summing to ``head_dim``.  Pairs are
    interleaved: channels (2m, 2m+1) inside a band rotate together."""
    _check_int("head_dim", head_dim, 6)
    if head_dim % 2 != 0:
        raise ValueError(f"head_dim must be an even integer >= 6, got {head_dim}")
    dj = (head_dim // 3) // 2 * 2
    return head_dim - 2 * dj, dj, dj


def position_array(spec: LayoutSpec) -> np.ndarray:
    """(n, 3) int64 array of the (i, j, k) triple of every token.

    Each frame of the concatenated sequence (the video frames, then one per
    entity) adds its (i, dj, dk) offset to the raster (0, col, row) grid.
    Background/object entities come first, so entity ``e`` of them sits at
    ``i = T + e``; member ``m`` of subject group ``g`` sits at
    ``i = T + n_bgobj + g``, shifted by ``(W*m, H*m)``.  Triples are pairwise
    distinct across the whole sequence.
    """
    offsets = [(frame, 0, 0) for frame in range(spec.T)]
    for e, ent in enumerate(spec.entities):
        if ent.kind in SUBJECT_KINDS:
            m = e - spec.groups[ent.group][0]
            offsets.append((ent.group + spec.T + spec.n_bgobj, spec.W * m, spec.H * m))
        else:
            offsets.append((e + spec.T, 0, 0))
    row, col = np.divmod(np.arange(spec.H * spec.W, dtype=np.int64), spec.W)
    grid = np.stack([np.zeros_like(col), col, row], axis=1)
    return (np.array(offsets, dtype=np.int64)[:, None, :] + grid).reshape(-1, 3)


def _band_angles(coord: np.ndarray, d_axis: int) -> np.ndarray:
    """(n, d_axis/2) angles theta_m * coord with theta_m = ROTARY_BASE^(-2m/d_axis)."""
    m = np.arange(d_axis // 2, dtype=np.float64)
    theta = ROTARY_BASE ** (-2.0 * m / d_axis)
    return coord[:, None] * theta[None, :]


def rotary_table(pos: np.ndarray, head_dim: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the per-band angles of each finite (i, j, k) row of
    ``pos``, over the bands of :func:`default_split`, each (n, head_dim/2) in
    ``dtype``.  Rotating by (cos, -sin) applies the inverse rotation,
    bit-exactly, since sin(-a) == -sin(a)."""
    pos = np.asarray(pos, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3 or not np.isfinite(pos).all():
        raise ValueError(f"pos must be finite (i, j, k) rows, got shape {pos.shape}")
    angles = np.concatenate(
        [_band_angles(pos[:, axis], d_axis) for axis, d_axis in enumerate(default_split(head_dim))],
        axis=1,
    )
    return np.cos(angles).astype(dtype, copy=False), np.sin(angles).astype(dtype, copy=False)


def rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate the interleaved channel pairs of each row of ``x`` by its row
    of the :func:`rotary_table`.  Row norms are preserved (pure rotation);
    ``rotate(x, cos, -sin)`` undoes ``rotate(x, cos, sin)``.  Computation
    follows the dtypes of ``x`` and the table."""
    if x.shape != (cos.shape[0], 2 * cos.shape[1]):
        raise ValueError(f"x must be {cos.shape[0]} rows of {2 * cos.shape[1]} channels, got {x.shape}")
    even = x[:, 0::2]
    odd = x[:, 1::2]
    out = np.empty_like(x)
    out[:, 0::2] = even * cos - odd * sin
    out[:, 1::2] = even * sin + odd * cos
    return out
