"""The CSAM block cover derived from the layout against the dense oracle,
and the structure checks of ``relctl check`` against mutated masks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given

from relattn import masks, reference
from relattn.checks import check_layout
from relattn.corpus import bench_layout, builtin_corpus, corpus_layout, make_spec
from relattn.masks import Block, CsamMask, McamMask, build_csam, build_mcam
from relattn.reference import decompose_blocks

from oracles import csam_oracle, csam_oracle_vectorized
from strategies import layout_specs

ROADMAP_LAYOUT = make_spec(2, 24, 24, bg=1, objs=2, groups=(1, 1, 1, 1))


def test_derived_cover_matches_oracle_on_corpus_and_bench():
    for name, spec in builtin_corpus() + [("bench", bench_layout())]:
        assert build_csam(spec).blocks == tuple(decompose_blocks(csam_oracle(spec))), name


def test_derived_cover_matches_oracle_on_roadmap_layout():
    spec = ROADMAP_LAYOUT
    assert spec.n_tokens == 7488
    mask = build_csam(spec)
    assert mask.blocks == tuple(decompose_blocks(csam_oracle_vectorized(spec)))
    assert len(mask.blocks) == 1 + spec.n_branches


@given(layout_specs())
def test_derived_cover_matches_oracle_on_generated_layouts(spec):
    mask = build_csam(spec)
    oracle = csam_oracle(spec)
    assert mask.blocks == tuple(decompose_blocks(oracle))
    np.testing.assert_array_equal(mask.bits, oracle)


def _verdicts(name, spec):
    return {r.name: r.passed for r in check_layout(name, spec)}


def _merged_branches(right):
    # merging the last two condition branches keeps every other structural
    # property of the mask; only the branch rule tells them apart
    *head, a, b = right.blocks
    return CsamMask(right.n, (*head, Block(a.q0, b.q1, a.k0, b.k1)))


def _split_video(right):
    # the video block as two row bands: the same bits, but not the cover
    # the branch rule gives
    video, *rest = right.blocks
    mid = video.q1 // 2
    return CsamMask(right.n, (Block(0, mid, 0, right.n), Block(mid, video.q1, 0, right.n), *rest))


@pytest.mark.parametrize("mutate", [_merged_branches, _split_video], ids=["merged-branches", "split-video"])
def test_csam_structure_check_catches_a_wrong_cover(monkeypatch, mutate):
    spec = corpus_layout("showcase")
    right = build_csam(spec)
    assert _verdicts("showcase", spec)["csam-structure[showcase]"]
    monkeypatch.setattr(masks, "build_csam", lambda _: mutate(right))
    assert not _verdicts("showcase", spec)["csam-structure[showcase]"]


@pytest.mark.parametrize(
    "entity, token, level, check",
    [
        # the background at the object's span: 0 -> +1
        (0, 3, 1, "text-levels"),
        # group 0's attribute at group 1's face span: -1 -> 0, where group
        # 0's face keeps -1
        (3, 12, 0, "mcam-group-symmetry"),
    ],
)
def test_level_checks_catch_a_wrong_level(monkeypatch, entity, token, level, check):
    spec = corpus_layout("showcase")
    assert spec.groups[0] == (2, 3) and spec.entities[4].span == (12, 14)
    rows = build_mcam(spec).entity_levels.copy()
    assert rows[entity, token] != level
    rows[entity, token] = level
    assert _verdicts("showcase", spec)[f"{check}[showcase]"]
    monkeypatch.setattr(masks, "build_mcam", lambda _: McamMask(rows, spec.n_video_tokens, spec.hw))
    assert not _verdicts("showcase", spec)[f"{check}[showcase]"]


def test_check_layout_asks_the_level_oracle_once_per_frame_and_runs_one_dense_kernel():
    spec = make_spec(2, 24, 24, bg=1, objs=2, groups=(1, 1, 1, 1), span_len=24, gap=4)
    assert (spec.n_tokens, spec.text_len) == (7488, 312)
    with (
        mock.patch.object(reference, "text_level_of", wraps=reference.text_level_of) as levels,
        mock.patch.object(
            reference, "masked_self_attention_naive", wraps=reference.masked_self_attention_naive
        ) as naive,
    ):
        assert all(r.passed for r in check_layout("roadmap", spec))
    assert levels.call_count <= (spec.T + spec.n_entities) * spec.text_len
    assert naive.call_count == 1  # weight-rows-normalized and block-naive-equivalence
