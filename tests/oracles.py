"""Independent brute-force oracles.

Everything here re-derives results from the raw layout fields with its own
code path (python loops, float64): no reuse of the package's indexing,
masking, pooling, or softmax helpers.  The oracles are intentionally slow
and obvious.
"""

from __future__ import annotations

import math

import numpy as np

SUBJECT = ("face", "attribute")


def _token_entity(spec, flat):
    """None for video tokens, else the entity ordinal."""
    hw = spec.H * spec.W
    frame = flat // hw
    return None if frame < spec.T else frame - spec.T


def _branch_keys(spec):
    """Hashable branch key per token: video, one bg/obj entity, or one group."""
    hw = spec.H * spec.W
    n = (spec.T + len(spec.entities)) * hw
    keys = []
    for flat in range(n):
        e = _token_entity(spec, flat)
        if e is None:
            keys.append("video")
        else:
            ent = spec.entities[e]
            keys.append(("group", ent.group) if ent.kind in SUBJECT else ("entity", e))
    return keys


def csam_oracle(spec) -> np.ndarray:
    """Rule-by-rule exhaustive mask: True iff the query is a video token, or
    query and key are the same token's branch (bg/obj entity, or one whole
    subject group)."""
    keys = _branch_keys(spec)
    n = len(keys)
    bits = np.zeros((n, n), dtype=bool)
    for q in range(n):
        for k in range(n):
            bits[q, k] = keys[q] == "video" or keys[q] == keys[k]
    return bits


def mcam_oracle(spec) -> np.ndarray:
    """Exhaustive per-pair level matrix."""
    hw = spec.H * spec.W
    n = (spec.T + len(spec.entities)) * hw
    levels = np.zeros((n, spec.text_len), dtype=np.int8)

    def in_span(ent, t):
        return ent.span is not None and ent.span[0] <= t < ent.span[1]

    for flat in range(n):
        e = _token_entity(spec, flat)
        if e is None:
            continue
        ent = spec.entities[e]
        for t in range(spec.text_len):
            if ent.kind in SUBJECT:
                same = any(
                    o.kind in SUBJECT and o.group == ent.group and in_span(o, t)
                    for o in spec.entities
                )
                other = any(
                    o.kind in SUBJECT and o.group != ent.group and in_span(o, t)
                    for o in spec.entities
                )
                levels[flat, t] = 1 if same else (-1 if other else 0)
            else:
                levels[flat, t] = 1 if in_span(ent, t) else 0
    return levels


def positions_oracle(spec) -> list[tuple[int, int, int]]:
    """Direct per-token transcription of the condition position rule."""
    hw = spec.H * spec.W
    n_bgobj = sum(1 for e in spec.entities if e.kind not in SUBJECT)
    triples = []
    for frame in range(spec.T):
        for row in range(spec.H):
            for col in range(spec.W):
                triples.append((frame, col, row))
    bgobj_seen = 0
    group_seen: dict[int, int] = {}
    for ent in spec.entities:
        if ent.kind in SUBJECT:
            m = group_seen.get(ent.group, 0)
            group_seen[ent.group] = m + 1
            i = ent.group + spec.T + n_bgobj
            for row in range(spec.H):
                for col in range(spec.W):
                    triples.append((i, col + spec.W * m, row + spec.H * m))
        else:
            i = bgobj_seen + spec.T
            bgobj_seen += 1
            for row in range(spec.H):
                for col in range(spec.W):
                    triples.append((i, col, row))
    return triples


def attention_oracle(Q, K, V, bits=None, additive=None, scale=None) -> np.ndarray:
    """Row-by-row float64 attention with explicit exp/sum loops.

    ``bits`` restricts admissible keys; ``additive`` is added to raw scores
    before scaling.  Both default to the unmasked/plain case.
    """
    Q = np.asarray(Q, dtype=np.float64)
    K = np.asarray(K, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if scale is None:
        scale = 1.0 / math.sqrt(K.shape[1])
    out = np.zeros((Q.shape[0], V.shape[1]))
    for qi in range(Q.shape[0]):
        admissible = [
            ki for ki in range(K.shape[0]) if bits is None or bits[qi, ki]
        ]
        logits = []
        for ki in admissible:
            raw = sum(Q[qi, c] * K[ki, c] for c in range(Q.shape[1]))
            if additive is not None:
                raw += additive[qi, ki]
            logits.append(raw * scale)
        peak = max(logits)
        expd = [math.exp(l - peak) for l in logits]
        total = sum(expd)
        for w, ki in zip(expd, admissible):
            for c in range(V.shape[1]):
                out[qi, c] += (w / total) * V[ki, c]
    return out


def scaling_oracle(Q, K_text, spec, d) -> np.ndarray:
    """Stepwise float64 pooling -> |similarity| -> repetition."""
    Q = np.asarray(Q, dtype=np.float64)
    K_text = np.asarray(K_text, dtype=np.float64)
    hw = spec.H * spec.W
    frames = spec.T + len(spec.entities)
    n_text, chans = K_text.shape
    ph = math.ceil(spec.H / d)
    pw = math.ceil(spec.W / d)

    pooled = np.zeros((frames, ph, pw, chans))
    for f in range(frames):
        for pr in range(ph):
            for pc in range(pw):
                cells = [
                    Q[f * hw + r * spec.W + c]
                    for r in range(pr * d, min((pr + 1) * d, spec.H))
                    for c in range(pc * d, min((pc + 1) * d, spec.W))
                ]
                pooled[f, pr, pc] = sum(cells) / len(cells)

    sim = np.zeros((frames, ph, pw, n_text))
    for f in range(frames):
        for pr in range(ph):
            for pc in range(pw):
                for t in range(n_text):
                    sim[f, pr, pc, t] = abs(
                        sum(pooled[f, pr, pc, c] * K_text[t, c] for c in range(chans))
                    )

    s = np.zeros((frames * hw, n_text))
    for f in range(frames):
        for r in range(spec.H):
            for c in range(spec.W):
                s[f * hw + r * spec.W + c] = sim[f, r // d, c // d]
    return s


def fm_loss_oracle(pred, v) -> float:
    """Hand-summed mean squared error."""
    pred = np.asarray(pred, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    total = 0.0
    for i in range(pred.shape[0]):
        for j in range(pred.shape[1]):
            diff = pred[i, j] - v[i, j]
            total += diff * diff
    return total / (pred.shape[0] * pred.shape[1])


def csam_oracle_vectorized(spec) -> np.ndarray:
    """csam_oracle's rule, compared with numpy over the same per-token branch
    keys: for layouts too large for the double loop."""
    keys = _branch_keys(spec)
    ids = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    branch = np.array([ids[key] for key in keys])
    video = np.array([key == "video" for key in keys])
    return video[:, None] | (branch[:, None] == branch[None, :])


def masked_attention_grads_oracle(Q, K, V, bits, g, scale=None):
    """(dQ, dK, dV) of sum(g * masked attention(Q, K, V)) in float64, one
    query row at a time through the softmax Jacobian diag(w) - w w^T over
    the row's admissible keys, applied as (diag(w) - w w^T) x = w (x - w.x)
    so that a row of n keys costs O(n), not an n x n matrix."""
    Q, K, V, g = (np.asarray(a, dtype=np.float64) for a in (Q, K, V, g))
    if scale is None:
        scale = 1.0 / math.sqrt(K.shape[1])
    dQ, dK, dV = np.zeros_like(Q), np.zeros_like(K), np.zeros_like(V)
    for qi in range(Q.shape[0]):
        keys = np.flatnonzero(bits[qi])
        logits = (K[keys] @ Q[qi]) * scale
        w = np.exp(logits - logits.max())
        w /= w.sum()
        x = V[keys] @ g[qi]
        dlogits = w * (x - w @ x) * scale
        dV[keys] += np.outer(w, g[qi])
        dQ[qi] += dlogits @ K[keys]
        dK[keys] += np.outer(dlogits, Q[qi])
    return dQ, dK, dV


def cross_attention_grads_oracle(qc, kc, vc, co, g, spec, levels, r, d, scale):
    """(gco, gqc, gkc, gvc) of sum(g * (cross-attention(qc, kc, vc) @ co)) in
    float64, one query row at a time through the explicit softmax Jacobian
    and dense weights.  Row i's logits are (qc_i . kc_j + levels_ij *
    |pooled_i . kc_j| * r) * scale, where pooled_i is the mean of qc over
    the d x d patch of token i's frame; ``levels`` is the dense n x L level
    matrix."""
    qc, kc, vc, co, g = (np.asarray(a, dtype=np.float64) for a in (qc, kc, vc, co, g))
    hw = spec.H * spec.W
    members: dict[tuple[int, int, int], list[int]] = {}
    patch_of = []
    for flat in range(qc.shape[0]):
        frame, cell = divmod(flat, hw)
        row, col = divmod(cell, spec.W)
        key = (frame, row // d, col // d)
        members.setdefault(key, []).append(flat)
        patch_of.append(key)
    pooled = {key: qc[rows].mean(axis=0) for key, rows in members.items()}
    gco, gqc = np.zeros_like(co), np.zeros_like(qc)
    gkc, gvc = np.zeros_like(kc), np.zeros_like(vc)
    for i in range(qc.shape[0]):
        p = pooled[patch_of[i]]
        sim = kc @ p
        logits = (kc @ qc[i] + levels[i] * np.abs(sim) * r) * scale
        w = np.exp(logits - logits.max())
        w /= w.sum()
        gco += np.outer(w @ vc, g[i])
        ga = co @ g[i]
        gvc += np.outer(w, ga)
        dlogits = (np.diag(w) - np.outer(w, w)) @ (vc @ ga) * scale
        gqc[i] += dlogits @ kc
        gkc += np.outer(dlogits, qc[i])
        # through |pooled . kc_j|: every token of the patch moves pooled
        dsim = dlogits * levels[i] * r * np.sign(sim)
        gkc += np.outer(dsim, p)
        rows = members[patch_of[i]]
        gqc[rows] += (dsim @ kc) / len(rows)
    return gco, gqc, gkc, gvc
