"""The CSAM block cover derived from the layout against the dense oracle."""

import numpy as np
from hypothesis import given

from relattn import masks
from relattn.checks import check_layout
from relattn.corpus import bench_layout, builtin_corpus, corpus_layout, make_spec
from relattn.masks import Block, CsamMask, build_csam
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


def test_csam_structure_check_catches_a_wrong_cover(monkeypatch):
    spec = corpus_layout("showcase")
    right = build_csam(spec)
    # merging the last two condition branches keeps every other structural
    # property of the mask; only the branch rule tells them apart
    *head, a, b = right.blocks
    wrong = CsamMask(right.n, (*head, Block(a.q0, b.q1, a.k0, b.k1)))
    assert dict((r.name, r.passed) for r in check_layout("showcase", spec))["csam-structure[showcase]"]
    monkeypatch.setattr(masks, "build_csam", lambda _: wrong)
    assert not dict((r.name, r.passed) for r in check_layout("showcase", spec))["csam-structure[showcase]"]
