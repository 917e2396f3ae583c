"""Seeded layout documents for the benchmark workloads.

Every generator returns a plain layout document (a dict that serialises to
the JSON ``relctl`` reads).  What sets the cost and memory of a forward --
frame count, grid area, number of condition entities, caption length -- is
fixed per *slot*; the seed draws everything else (grid shape of that area,
which kinds the entities are, where the spans lie, spanless entities, empty
spans), so two seeds give different documents of the same size.  Entity
order and the fixed layouts come from the package's own ``relattn.corpus``:
a layout is only an input, so this keeps the reference independent.
"""

from __future__ import annotations

import itertools
import json

from relattn.corpus import bench_layout, make_spec
from relattn.layout import to_json

MAX_ATTRS = 3


def kinds_of(bg: int, objs: int, groups: tuple[int, ...]) -> list[tuple[str, int | None]]:
    """(kind, group) of each entity, in ``make_spec``'s order."""
    return [(e.kind, e.group) for e in make_spec(1, 1, 1, bg=bg, objs=objs, groups=groups, no_spans=True).entities]


def make_doc(T, H, W, kinds, spans, text_len) -> dict:
    ents = []
    for (kind, group), span in zip(kinds, spans):
        node: dict = {"kind": kind}
        if group is not None:
            node["group"] = group
        if span is not None:
            node["span"] = list(span)
        ents.append(node)
    return {"T": T, "H": H, "W": W, "text_len": text_len, "entities": ents}


def random_spans(rng, n: int, text_len: int, span_p: float, max_len: int):
    """Non-overlapping spans in declaration order inside a caption of
    exactly ``text_len`` tokens; some entities get none, a few an empty one."""
    lens = [
        None if rng.random() >= span_p else 0 if rng.random() < 0.05 else int(rng.integers(1, max_len + 1))
        for _ in range(n)
    ]
    while sum(length or 0 for length in lens) > text_len:
        longest = max(range(n), key=lambda i: lens[i] or 0)
        lens[longest] -= 1
    placed = [i for i in range(n) if lens[i] is not None]
    gaps = rng.multinomial(text_len - sum(lens[i] for i in placed), [1.0 / (len(placed) + 1)] * (len(placed) + 1))
    spans: list = [None] * n
    cursor = int(gaps[0])
    for i, gap in zip(placed, gaps[1:]):
        spans[i] = (cursor, cursor + lens[i])
        cursor += lens[i] + int(gap)
    return spans


# ---------------------------------------------------------------------------
# forward-small: tens to a few hundred tokens


# (T, H*W, entities, caption tokens) per slot; n_tokens = (T + entities) * H*W.
# A caption of 0 tokens is empty; None draws its length (text-to-video slot).
# The count is odd so that the median op falls inside one slot's times.
SMALL_SLOTS = (
    (2, 48, 0, None), (2, 12, 1, 8), (1, 16, 2, 10), (1, 12, 6, 0), (1, 24, 3, 12),
    (2, 20, 4, 16), (3, 16, 5, 20), (1, 36, 3, 12), (1, 12, 12, 40), (1, 20, 7, 28),
    (2, 30, 4, 16), (2, 24, 6, 0), (1, 20, 10, 36), (2, 36, 5, 20), (1, 16, 16, 56),
    (2, 30, 8, 0), (3, 48, 4, 16), (2, 42, 6, 24), (1, 30, 12, 44), (2, 48, 8, 30),
    (1, 24, 20, 64),
)


def _compositions() -> dict[int, list[tuple[int, int, tuple[int, ...]]]]:
    """All (bg, objs, attribute counts per group) with 0-1 background, 0-3
    objects, 0-4 groups of 0-3 attributes, keyed by entity count."""
    out: dict[int, list] = {}
    for bg, objs, n_groups in itertools.product((0, 1), range(4), range(5)):
        for groups in itertools.product(range(MAX_ATTRS + 1), repeat=n_groups):
            n = bg + objs + sum(1 + a for a in groups)
            out.setdefault(n, []).append((bg, objs, groups))
    return out


COMPOSITIONS = _compositions()


def small_doc(rng, slot) -> dict:
    T, hw, n_ent, text_len = slot
    shapes = [(h, hw // h) for h in range(1, hw + 1) if hw % h == 0]
    H, W = shapes[int(rng.integers(len(shapes)))]
    options = COMPOSITIONS[n_ent]
    kinds = kinds_of(*options[int(rng.integers(len(options)))])
    if text_len is None:
        text_len = int(rng.integers(1, 81))
    return make_doc(T, H, W, kinds, random_spans(rng, len(kinds), text_len, span_p=0.75, max_len=4), text_len)


# ---------------------------------------------------------------------------
# forward-large: 5.7-8.7k tokens


# (T, H, W, bg, objs, groups, caption tokens); slot 0 has the shape of the
# ROADMAP baseline layout, which is the first op of every run.  An odd number
# of slots of distinct cost puts the median op inside one slot's cluster of
# times (the ROADMAP-sized one) instead of between two clusters; slot 1 is
# small enough (about 0.7x slot 0's time) that the two clusters stay apart.
LARGE_SLOTS = (
    (2, 24, 24, 1, 2, (1, 1, 1, 1), 44),  # 7488 tokens
    (3, 20, 26, 1, 1, (2, 0, 1), 36),  # 5720
    (4, 24, 26, 0, 3, (3, 2), 40),  # 8736
)


def roadmap_doc() -> dict:
    """The ROADMAP baseline layout, make_spec(2, 24, 24, bg=1, objs=2, groups=(1, 1, 1, 1))."""
    return json.loads(to_json(make_spec(2, 24, 24, bg=1, objs=2, groups=(1, 1, 1, 1))))


def large_doc(rng, slot) -> dict:
    T, H, W, bg, objs, groups, text_len = slot
    kinds = kinds_of(bg, objs, groups)
    return make_doc(T, H, W, kinds, random_spans(rng, len(kinds), text_len, span_p=0.85, max_len=6), text_len)


# ---------------------------------------------------------------------------
# sample-reuse and train-step: one layout per run


REUSE_SPAN_LENS = (16, 18, 20, 22, 24, 24, 24, 26, 28, 30, 32)  # sums to 264
REUSE_GAPS = (2, 3, 3, 4, 4, 4, 4, 5, 5, 6, 8)  # sums to 48


def reuse_doc(rng) -> dict:
    """Shape of make_spec(2, 12, 12, bg=1, objs=2, groups=(1, 1, 1, 1),
    span_len=24, gap=4): n = 1872, a 312-token caption; the seed permutes
    span lengths and gaps."""
    kinds = kinds_of(1, 2, (1, 1, 1, 1))
    lens = rng.permutation(REUSE_SPAN_LENS)
    gaps = rng.permutation(REUSE_GAPS)
    spans, cursor = [], 0
    for length, gap in zip(lens, gaps):
        spans.append((cursor, cursor + int(length)))
        cursor += int(length) + int(gap)
    return make_doc(2, 12, 12, kinds, spans, cursor)


def train_doc() -> dict:
    """The package's ``bench_layout()``: n = 1872, a 34-token caption."""
    return json.loads(to_json(bench_layout()))
