"""The cross-attention level term read per patch and per entity: the block
against the public dense kernel, the memory it saves, the masks it accepts,
and the effect of r on the attention mass the paper's claim rests on."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relattn import attention, block
from relattn.attention import AttnConfig
from relattn.block import block_forward, init_weights, loss_and_gradients, plain_block_forward
from relattn.corpus import corpus_layout, make_spec
from relattn.masks import Block, CsamMask, McamMask, build_csam, build_mcam
from relattn.reference import compute_scaling_s, relational_cross_attention

from strategies import layout_specs

MIB = 1024.0 * 1024.0


def _problem(spec, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    weights = init_weights(rng, 6, 5, n_heads=2, head_dim=6, dtype=dtype)
    x = rng.standard_normal((spec.n_tokens, 6)).astype(dtype)
    text = rng.standard_normal((spec.text_len, 5)).astype(dtype)
    return weights, x, text


def _cross_calls(fn, *args):
    """Run ``fn`` and record (qc, kc, vc, output) of every cross-attention
    kernel call the block makes."""
    calls = []
    attend = attention._attend

    def recording(Q, K, V, scale, level_term):
        out, lse = attend(Q, K, V, scale, level_term)
        calls.append((Q, K, V, out))
        return out, lse

    with mock.patch.object(attention, "_attend", recording):
        fn(*args)
    return calls


@given(layout_specs(), st.sampled_from([1, 2, 3, 8]), st.sampled_from([0.0, 0.5]))
def test_block_cross_attention_equals_the_dense_kernel(spec, d, r):
    if spec.text_len == 0:
        return
    cfg = AttnConfig(r=r, d=d)
    mcam = build_mcam(spec)
    for dtype in (np.float32, np.float64):
        weights, x, text = _problem(spec, 0, dtype)
        if dtype == np.float32:
            calls = _cross_calls(block_forward, weights, x, text, spec, cfg)
        else:  # the taped path of training
            target = np.zeros_like(x)
            calls = _cross_calls(loss_and_gradients, weights, x, text, spec, cfg, target)
        assert len(calls) == weights.n_heads
        for qc, kc, vc, out in calls:
            s = compute_scaling_s(qc, kc, spec, d)
            want = relational_cross_attention(qc, kc, vc, mcam.levels, s, cfg)
            assert out.dtype == want.dtype == dtype
            np.testing.assert_array_equal(out, want)


def test_long_caption_forward_holds_no_n_by_caption_array(traced_peak_mib):
    spec = make_spec(1, 12, 12, bg=1, objs=2, groups=(1, 1, 1, 1), text_len=2048)
    weights, x, text = _problem(spec, 1)
    csam, mcam = build_csam(spec), build_mcam(spec)
    dense_mib = spec.n_tokens * spec.text_len * 4 / MIB  # one n x L float32 array: 13.5 MiB
    assert traced_peak_mib(block_forward, weights, x, text, spec, AttnConfig(), csam, mcam) < dense_mib


def test_build_mcam_keeps_entity_rows_only():
    spec = corpus_layout("showcase")
    mcam = build_mcam(spec)
    assert mcam._levels is None
    assert mcam.entity_levels.shape == (spec.n_entities, spec.text_len)
    weights, x, text = _problem(spec, 2)
    block_forward(weights, x, text, spec, AttnConfig(), mcam=mcam)
    assert mcam._levels is None
    levels = mcam.levels
    assert levels is mcam.levels and levels.shape == (spec.n_tokens, spec.text_len)


@pytest.mark.parametrize(
    "spec, r, entry",
    [
        (corpus_layout("showcase"), 0.0, block_forward),
        (corpus_layout("showcase"), 0.5, plain_block_forward),
        (corpus_layout("showcase"), 0.0, loss_and_gradients),
        (make_spec(1, 2, 3, bg=1, objs=1, no_spans=True, text_len=5), 0.5, loss_and_gradients),
    ],
    ids=["r=0", "plain", "r=0-backward", "zero-levels-backward"],
)
def test_a_level_term_that_reaches_no_row_pools_no_row(spec, r, entry):
    # the term covers the rows [plan.first, n) alone: at r=0, in the plain
    # block and with an all-zero MCAM it reaches none, so no head pools a
    # query row or scores a patch, in the forward or the backward
    assert spec.text_len and (r == 0 or entry is plain_block_forward or not build_mcam(spec).entity_levels.any())
    weights, x, text = _problem(spec, 5, np.float64)
    level_term, terms = attention._level_term, []

    def recording(qc, kc, plan):
        out = level_term(qc, kc, plan)
        terms.append(out)
        return out

    args = (weights, x, text, spec, AttnConfig(r=r))
    with mock.patch.object(attention, "_level_term", recording):
        entry(*args, np.zeros_like(x)) if entry is loss_and_gradients else entry(*args)
    assert len(terms) == weights.n_heads * (2 if entry is loss_and_gradients else 1)
    for pooled, sim, (table, row_patch, first) in terms:
        assert first == spec.n_tokens
        assert pooled.shape[0] == sim.shape[0] == table.shape[0] == row_patch.size == 0


SHOWCASE = corpus_layout("showcase")


def _levels_with(level, dtype):
    """The showcase layout's level rows in ``dtype``, one entry set to ``level``."""
    rows = build_mcam(SHOWCASE).entity_levels.astype(dtype)
    rows[2, 3] = level
    return McamMask(rows, SHOWCASE.n_video_tokens, SHOWCASE.hw)


# (argument, mask) pairs, none of them the showcase layout's own mask
FOREIGN_MASKS = {
    "entity-count": ("mcam", build_mcam(make_spec(2, 4, 4, objs=1, groups=(1, 1, 1), no_spans=True, text_len=19))),
    "caption-length": ("mcam", build_mcam(make_spec(2, 4, 4, bg=1, objs=1, groups=(1, 1), no_spans=True, text_len=18))),
    # the plan's int8 table truncated 0.5 to 0 and wrapped 300 to 44
    "level-0.5": ("mcam", _levels_with(0.5, np.float64)),
    "level-2": ("mcam", _levels_with(2, np.int8)),
    "level-300": ("mcam", _levels_with(300, np.int16)),
    # a valid rule of levels, but not this layout's: it lifts every caption token
    "all-plus-one": ("mcam", McamMask(np.ones((6, 19), np.int8), SHOWCASE.n_video_tokens, SHOWCASE.hw)),
    # the layout's own blocks, over another token count
    "token-count": ("csam", CsamMask(5, build_csam(SHOWCASE).blocks)),
    "cover-of-another-layout": ("csam", build_csam(make_spec(1, 1, 2, bg=1))),
    # a valid cover at r=0.5 that lets the condition rows see every branch
    "full-cover": ("csam", CsamMask(SHOWCASE.n_tokens, (Block(0, SHOWCASE.n_tokens, 0, SHOWCASE.n_tokens),))),
}


@pytest.mark.parametrize("case", FOREIGN_MASKS)
def test_block_rejects_a_mask_of_another_layout(case):
    spec = SHOWCASE
    assert (spec.n_entities, spec.text_len) == (6, 19)
    arg, mask = FOREIGN_MASKS[case]
    weights, x, text = _problem(spec, 3)
    with mock.patch.object(block, "rotary_table") as rotary:
        with pytest.raises(ValueError, match=f"^{arg} must be the layout's own mask"):
            block_forward(weights, x, text, spec, AttnConfig(), **{arg: mask})
    rotary.assert_not_called()  # rejected before any compute


def test_block_accepts_the_layout_s_own_masks_in_any_block_order():
    spec = SHOWCASE
    weights, x, text = _problem(spec, 3)
    csam, mcam = build_csam(spec), build_mcam(spec)
    shuffled = CsamMask(csam.n, csam.blocks[::-1])
    want = block_forward(weights, x, text, spec, AttnConfig())
    assert block_forward(weights, x, text, spec, AttnConfig(), shuffled, mcam).tobytes() == want.tobytes()


@pytest.mark.parametrize("arg", ["csam", "mcam"])
def test_block_rejects_a_mask_of_the_wrong_type(arg):
    # a cover's blocks or an entity-level array passed as the mask itself
    spec = corpus_layout("showcase")
    weights, x, text = _problem(spec, 3)
    wrong = {"csam": build_csam(spec).blocks, "mcam": build_mcam(spec).entity_levels}[arg]
    with mock.patch.object(block, "rotary_table") as rotary, mock.patch.object(block, "build_csam") as csam:
        with pytest.raises(TypeError, match=f"{arg} must be a {arg.capitalize()}Mask or None, got"):
            block_forward(weights, x, text, spec, AttnConfig(), **{arg: wrong})
    rotary.assert_not_called()  # rejected before any compute
    csam.assert_not_called()


@given(layout_specs(), st.sampled_from([1, 2, 8]), st.integers(0, 2**32 - 1))
def test_level_mass_moves_monotonically_in_r(spec, d, seed):
    """For fixed Q, K and s >= 0 each row's weight mass on +1 caption tokens
    is non-decreasing in r and its mass on -1 tokens non-increasing."""
    if spec.text_len == 0:
        return
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((spec.n_tokens, 4))
    K = rng.standard_normal((spec.text_len, 4))
    V = rng.standard_normal((spec.text_len, 2))
    mcam = build_mcam(spec)
    s = compute_scaling_s(Q, K, spec, d)
    up, down = mcam.levels == 1, mcam.levels == -1
    masses = []
    for r in (0.0, 0.25, 0.5, 1.0):
        _, w = relational_cross_attention(Q, K, V, mcam.levels, s, AttnConfig(r=r, d=d), return_weights=True)
        masses.append(((w * up).sum(axis=1), (w * down).sum(axis=1)))
    for (up0, down0), (up1, down1) in zip(masses, masses[1:]):
        assert (up1 >= up0 - 1e-12).all()
        assert (down1 <= down0 + 1e-12).all()


def test_block_rejects_non_finite_text():
    spec = corpus_layout("showcase")
    weights, x, text = _problem(spec, 4, np.float64)
    text[3, 1] = np.nan
    with pytest.raises(ValueError, match="text contains non-finite"):
        block_forward(weights, x, text, spec, AttnConfig())
    with pytest.raises(ValueError, match="text contains non-finite"):
        loss_and_gradients(weights, x, text, spec, AttnConfig(), np.zeros_like(x))
