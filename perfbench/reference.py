"""Independent float64 reference of the relational block.

Written from the paper's equations and the package README conventions, not
from the package: it reads the raw layout document (a dict with ``T``,
``H``, ``W``, ``text_len`` and ``entities``), the weight arrays and the
inputs, and imports nothing from ``relattn``.

Conventions reproduced here:

- positions: video token (frame f, row y, col x) -> (f, x, y); background
  and object entities take temporal index ``T + ordinal`` among them; the
  m-th member of subject group g takes ``T + n_bgobj + g`` and is shifted by
  ``(W*m, H*m)`` in the spatial plane;
- rotary: interleaved pairs (2p, 2p+1), default split (d_i, d_j, d_k) with
  d_j = d_k the largest even number <= head_dim/3, base 10000;
- CSAM: a video query sees every key, a condition query sees only the keys
  of its own branch (one background/object entity, or one whole group);
- MCAM: +1 inside the own entity span (or any span of the own group), -1 on
  spans of other subject groups, 0 elsewhere and on every video row;
- pooled ``s``: per frame, mean over ``d x d`` spatial patches (ragged edge
  patches average their actual cells), ``|Q_pool K^T|`` repeated over the
  patch;
- cross-attention scales the full sum ``(Q K^T + M s r) / sqrt(d_K)``;
- LayerNorm without affine, eps 1e-6; tanh-approximated GELU.
"""

from __future__ import annotations

import math

import numpy as np

SUBJECT_KINDS = ("face", "attribute")
LN_EPS = 1e-6
ROTARY_BASE = 10000.0


# ---------------------------------------------------------------------------
# layout rules


def n_tokens(doc: dict) -> int:
    return (doc["T"] + len(doc["entities"])) * doc["H"] * doc["W"]


def branch_ids(doc: dict) -> np.ndarray:
    """Branch id per token: -1 for video, else one id per bg/obj entity or
    per subject group."""
    hw = doc["H"] * doc["W"]
    ids = np.full(n_tokens(doc), -1, dtype=np.int64)
    keys: dict = {}
    for e, ent in enumerate(doc["entities"]):
        key = ("group", ent["group"]) if ent["kind"] in SUBJECT_KINDS else ("entity", e)
        start = (doc["T"] + e) * hw
        ids[start : start + hw] = keys.setdefault(key, len(keys))
    return ids


def positions(doc: dict) -> np.ndarray:
    """(n, 3) int array of (i, j, k) per token."""
    T, H, W = doc["T"], doc["H"], doc["W"]
    rows, cols = np.divmod(np.arange(H * W), W)
    n_bgobj = sum(1 for ent in doc["entities"] if ent["kind"] not in SUBJECT_KINDS)
    out = [np.stack([np.full(H * W, f), cols, rows], axis=1) for f in range(T)]
    bgobj = 0
    members: dict[int, int] = {}
    for ent in doc["entities"]:
        if ent["kind"] in SUBJECT_KINDS:
            m = members.get(ent["group"], 0)
            members[ent["group"]] = m + 1
            i, dj, dk = T + n_bgobj + ent["group"], W * m, H * m
        else:
            i, dj, dk = T + bgobj, 0, 0
            bgobj += 1
        out.append(np.stack([np.full(H * W, i), cols + dj, rows + dk], axis=1))
    return np.concatenate(out).astype(np.int64)


def csam_bits(doc: dict) -> np.ndarray:
    """Dense n x n self-attention mask (query rows)."""
    b = branch_ids(doc)
    return (b[:, None] < 0) | (b[:, None] == b[None, :])


def _span_mask(span, text_len: int) -> np.ndarray:
    m = np.zeros(text_len, dtype=bool)
    if span is not None:
        m[span[0] : span[1]] = True
    return m


def entity_levels(doc: dict) -> np.ndarray:
    """(n_entities, text_len) level row of each condition entity."""
    L = doc["text_len"]
    ents = doc["entities"]
    group_span: dict[int, np.ndarray] = {}
    for ent in ents:
        if ent["kind"] in SUBJECT_KINDS:
            g = ent["group"]
            group_span[g] = group_span.get(g, np.zeros(L, dtype=bool)) | _span_mask(ent.get("span"), L)
    out = np.zeros((len(ents), L), dtype=np.int8)
    for e, ent in enumerate(ents):
        if ent["kind"] in SUBJECT_KINDS:
            for g, span in group_span.items():
                if g != ent["group"]:
                    out[e, span] = -1
            out[e, group_span[ent["group"]]] = 1
        else:
            out[e, _span_mask(ent.get("span"), L)] = 1
    return out


def mcam_levels(doc: dict, rows: np.ndarray | None = None) -> np.ndarray:
    """(rows, text_len) level matrix; all rows by default."""
    hw = doc["H"] * doc["W"]
    rows = np.arange(n_tokens(doc)) if rows is None else np.asarray(rows)
    per_entity = np.concatenate(
        [np.zeros((1, doc["text_len"]), dtype=np.int8), entity_levels(doc)]
    )
    ent = np.maximum(rows // hw - doc["T"], -1) + 1  # 0 = video
    return per_entity[ent]


def patch_ids(doc: dict, d: int) -> np.ndarray:
    """Pooling patch id per token: (frame, row // d, col // d) flattened."""
    H, W = doc["H"], doc["W"]
    frame, offset = np.divmod(np.arange(n_tokens(doc)), H * W)
    row, col = np.divmod(offset, W)
    ph, pw = -(-H // d), -(-W // d)
    return (frame * ph + row // d) * pw + col // d


def patch_rows(doc: dict, d: int, frame: int, prow: int, pcol: int) -> np.ndarray:
    """Flat indices of one whole pooling patch."""
    H, W = doc["H"], doc["W"]
    rr = np.arange(prow * d, min((prow + 1) * d, H))
    cc = np.arange(pcol * d, min((pcol + 1) * d, W))
    return (frame * H * W + rr[:, None] * W + cc[None, :]).ravel()


# ---------------------------------------------------------------------------
# numerics


def default_split(head_dim: int) -> tuple[int, int, int]:
    dj = max((head_dim // 3) // 2 * 2, 2)
    return head_dim - 2 * dj, dj, dj


def rotate(x: np.ndarray, pos: np.ndarray, base: float = ROTARY_BASE) -> np.ndarray:
    """Interleaved-pair rotary over the (i, j, k) sub-bands."""
    x = np.asarray(x, dtype=np.float64)
    angles = []
    for axis, width in enumerate(default_split(x.shape[1])):
        theta = base ** (-2.0 * np.arange(width // 2) / width)
        angles.append(pos[:, axis : axis + 1].astype(np.float64) * theta[None, :])
    ang = np.concatenate(angles, axis=1)
    c, s = np.cos(ang), np.sin(ang)
    a, b = x[:, 0::2], x[:, 1::2]
    out = np.empty_like(x)
    out[:, 0::2] = a * c - b * s
    out[:, 1::2] = a * s + b * c
    return out


def attention(Q, K, V, bits=None, additive=None, scale=None) -> np.ndarray:
    """softmax((Q K^T + additive) * scale) V over admissible keys, float64."""
    Q, K, V = (np.asarray(a, dtype=np.float64) for a in (Q, K, V))
    scale = 1.0 / math.sqrt(K.shape[1]) if scale is None else scale
    logits = Q @ K.T
    if additive is not None:
        logits = logits + additive
    logits = logits * scale
    if bits is not None:
        logits = np.where(bits, logits, -np.inf)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (p / p.sum(axis=1, keepdims=True)) @ V


def pooled_s(Q_rows, rows, K_text, doc: dict, d: int) -> np.ndarray:
    """Scaling matrix ``s`` for ``rows``; ``Q_rows`` holds their queries and
    ``rows`` must be a union of whole pooling patches."""
    Q_rows = np.asarray(Q_rows, dtype=np.float64)
    pid = patch_ids(doc, d)[np.asarray(rows)]
    uniq, inv, counts = np.unique(pid, return_inverse=True, return_counts=True)
    sums = np.zeros((len(uniq), Q_rows.shape[1]))
    np.add.at(sums, inv, Q_rows)
    whole = np.bincount(patch_ids(doc, d))[uniq]
    if not np.array_equal(counts, whole):
        raise ValueError("rows must cover whole pooling patches")
    sim = np.abs((sums / counts[:, None]) @ np.asarray(K_text, dtype=np.float64).T)
    return sim[inv]


def scaling_s(Q, K_text, doc: dict, d: int) -> np.ndarray:
    return pooled_s(Q, np.arange(n_tokens(doc)), K_text, doc, d)


def layer_norm(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS)


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


# ---------------------------------------------------------------------------
# the block


def block_rows(doc: dict, w: dict, x, text, r: float, d: int, rows=None) -> np.ndarray:
    """Block output for ``rows`` (default: all), in O(rows * n).

    ``w`` maps wq/wk/wv/wo/cq/ck/cv/co/w1/b1/w2/b2 to arrays shaped as in
    the package's ``BlockWeights``; ``rows`` must be a union of whole pooling
    patches when the caption is not empty.
    """
    w = {k: np.asarray(v, dtype=np.float64) for k, v in w.items()}
    x = np.asarray(x, dtype=np.float64)
    text = np.asarray(text, dtype=np.float64)
    rows = np.arange(x.shape[0]) if rows is None else np.asarray(rows)
    pos = positions(doc)
    bid = branch_ids(doc)
    heads, _, D = w["wq"].shape
    scale = 1.0 / math.sqrt(D)

    u = layer_norm(x)
    bits = (bid[rows, None] < 0) | (bid[rows, None] == bid[None, :])
    sa = np.zeros((len(rows), x.shape[1]))
    for h in range(heads):
        q = rotate(u[rows] @ w["wq"][h], pos[rows])
        k = rotate(u @ w["wk"][h], pos)
        sa += attention(q, k, u @ w["wv"][h], bits=bits, scale=scale) @ w["wo"][h]
    x1 = x[rows] + sa

    x2 = x1
    if doc["text_len"] > 0:
        u2 = layer_norm(x1)
        levels = mcam_levels(doc, rows).astype(np.float64)
        for h in range(heads):
            qc = u2 @ w["cq"][h]
            kc = text @ w["ck"][h]
            s = pooled_s(qc, rows, kc, doc, d)
            x2 = x2 + attention(qc, kc, text @ w["cv"][h], additive=levels * s * r, scale=scale) @ w["co"][h]

    u3 = layer_norm(x2)
    return x2 + gelu(u3 @ w["w1"] + w["b1"]) @ w["w2"] + w["b2"]


def fm_loss(pred, target) -> float:
    diff = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    return float(np.mean(diff * diff))
