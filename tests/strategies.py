"""Hypothesis strategies over valid layouts."""

from __future__ import annotations

from hypothesis import strategies as st

from relattn.layout import Entity, LayoutSpec


@st.composite
def layout_specs(draw, max_frames: int = 3, max_side: int = 4) -> LayoutSpec:
    """Valid layouts: optional background, 0-3 objects, 0-4 subject groups of
    a face and 0-3 attributes, ragged grids, and spans that are missing,
    empty or 1-3 caption tokens long, laid out in a random order with gaps."""
    T = draw(st.integers(1, max_frames))
    H = draw(st.integers(1, max_side))
    W = draw(st.integers(1, max_side))
    kinds: list[tuple[str, int | None]] = [("background", None)] * draw(st.integers(0, 1))
    kinds += [("object", None)] * draw(st.integers(0, 3))
    for g in range(draw(st.integers(0, 4))):
        kinds.append(("face", g))
        kinds += [("attribute", g)] * draw(st.integers(0, 3))

    lengths = [draw(st.none() | st.integers(0, 3)) for _ in kinds]
    spans: list[tuple[int, int] | None] = [None] * len(kinds)
    cursor = 0
    for e in draw(st.permutations(range(len(kinds)))):
        cursor += draw(st.integers(0, 2))
        if lengths[e] is not None:
            spans[e] = (cursor, cursor + lengths[e])
            cursor += lengths[e]
    text_len = cursor + draw(st.integers(0, 2))
    entities = tuple(Entity(kind=k, group=g, span=s) for (k, g), s in zip(kinds, spans))
    return LayoutSpec(T=T, H=H, W=W, entities=entities, text_len=text_len)
