"""Streaming kernels at sizes that span many row tiles, the block-cover
overlap sweep, and the memory the plan-cold forward needs."""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relattn import attention
from relattn.attention import AttnConfig, masked_self_attention_blockwise
from relattn.block import block_forward, init_weights
from relattn.corpus import bench_layout, make_spec
from relattn.masks import Block, build_csam, build_mcam
from relattn.reference import (
    compute_scaling_s,
    masked_self_attention_naive,
    relational_cross_attention,
    standard_attention,
)

from oracles import attention_oracle

ROADMAP_LAYOUT = make_spec(2, 24, 24, bg=1, objs=2, groups=(1, 1, 1, 1))


def rnd(shape, seed, dtype=np.float32):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


# --- block-cover validation --------------------------------------------------


def _qkv(n):
    return rnd((n, 2), 1), rnd((n, 2), 2), rnd((n, 2), 3)


@pytest.mark.parametrize(
    "cover",
    [
        # partial overlap next to a disjoint block
        [Block(0, 4, 0, 4), Block(2, 6, 2, 6), Block(6, 8, 0, 8)],
        # a cross: neither block holds a corner of the other
        [Block(0, 8, 3, 5), Block(3, 5, 0, 8)],
        # nested
        [Block(0, 8, 0, 8), Block(2, 3, 2, 3)],
        # overlaps only the live block that starts first in k
        [Block(0, 8, 0, 5), Block(0, 8, 6, 8), Block(4, 5, 4, 6)],
        # overlaps a block that started on an earlier row
        [Block(0, 2, 0, 2), Block(0, 2, 2, 8), Block(1, 8, 7, 8), Block(2, 8, 0, 7)],
    ],
)
def test_overlap_rejected_in_any_visit_order(cover):
    Q, K, V = _qkv(8)
    for order in permutations(cover):
        with pytest.raises(ValueError, match="overlapping"):
            masked_self_attention_blockwise(Q, K, V, list(order))


def test_disjoint_cover_accepted_in_any_visit_order():
    cover = [Block(0, 2, 0, 2), Block(0, 2, 2, 8), Block(2, 8, 7, 8), Block(2, 8, 0, 7)]
    Q, K, V = _qkv(8)
    ref = masked_self_attention_blockwise(Q, K, V, cover)
    np.testing.assert_allclose(ref, standard_attention(Q, K, V), atol=1e-6)
    for order in permutations(cover):
        np.testing.assert_allclose(masked_self_attention_blockwise(Q, K, V, list(order)), ref, atol=1e-6)


@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(1, 4), st.integers(0, 7), st.integers(1, 4)),
        min_size=1,
        max_size=8,
    )
)
def test_overlap_detection_matches_pairwise_scan(raw):
    blocks = [Block(q, q + h, k, k + w) for q, h, k, w in raw]
    pairwise = any(
        a.q0 < b.q1 and b.q0 < a.q1 and a.k0 < b.k1 and b.k0 < a.k1 for a, b in combinations(blocks, 2)
    )
    Q, K, V = _qkv(12)
    try:
        masked_self_attention_blockwise(Q, K, V, blocks)
        rejected = False
    except ValueError as exc:
        rejected = "overlapping" in str(exc)
    assert rejected == pairwise


# --- kernels across many tiles -----------------------------------------------


@pytest.fixture(scope="module")
def bench():
    spec = bench_layout()
    assert spec.n_tokens > 4 * attention._tile_size(build_csam(spec).blocks, 1)  # the tallest tile's rows
    assert spec.n_tokens > 4 * attention._CROSS_TILE
    n, L = spec.n_tokens, spec.text_len
    return spec, rnd((n, 8), 11), rnd((n, 8), 12), rnd((n, 8), 13), rnd((L, 8), 14), rnd((L, 8), 15)


def test_blockwise_matches_naive_across_tiles(bench):
    spec, Q, K, V, _, _ = bench
    csam = build_csam(spec)
    ref = masked_self_attention_naive(Q, K, V, csam)
    out = masked_self_attention_blockwise(Q, K, V, csam.blocks)
    assert np.max(np.abs(out - ref)) / np.max(np.abs(ref)) <= 1e-5


def test_blockwise_matches_naive_with_one_row_tiles():
    # the video block is 257 rows tall and 514 keys wide, 4 tiles of
    # _tile_rows(514) = 64 rows and one more row, so its float32 walk ends
    # in a tile of one row
    spec = make_spec(1, 1, 257, bg=1)
    csam = build_csam(spec)
    assert 1 in {(b.q1 - b.q0) % attention._tile_rows(b.k1 - b.k0) for b in csam.blocks}
    Q, K, V = (rnd((spec.n_tokens, 8), seed) for seed in (41, 42, 43))
    ref = masked_self_attention_naive(Q, K, V, csam)
    np.testing.assert_allclose(masked_self_attention_blockwise(Q, K, V, csam.blocks), ref, rtol=0, atol=1e-5)


def test_float32_blockwise_takes_each_row_s_softmax_over_all_its_keys():
    # 32 queries over 128 keys: a key chunk as wide as the query count split
    # the block into four, and each chunk's softmax overwrote the last
    Q, K, V = rnd((32, 8), 44), rnd((128, 8), 45), rnd((128, 8), 46)
    blocks = [Block(0, 32, 0, 128)]
    want, _ = attention._blockwise([a.astype(np.float64) for a in (Q, K, V)], blocks)
    got, _ = attention._blockwise([Q, K, V], blocks)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def test_r0_bit_identical_across_tiles(bench):
    spec, Q, _, _, Kt, Vt = bench
    s = compute_scaling_s(Q, Kt, spec, 8)
    rel0 = relational_cross_attention(Q, Kt, Vt, build_mcam(spec).levels, s, AttnConfig(r=0.0))
    np.testing.assert_array_equal(rel0, standard_attention(Q, Kt, Vt))


def test_relational_matches_oracle_across_tiles(bench):
    spec, Q, _, _, Kt, Vt = bench
    s = compute_scaling_s(Q, Kt, spec, 8)
    mcam, cfg = build_mcam(spec), AttnConfig(r=0.5)
    out = relational_cross_attention(Q, Kt, Vt, mcam.levels, s, cfg)
    rows = np.arange(0, spec.n_tokens, 37)  # rows from every tile
    additive = mcam.levels[rows].astype(np.float64) * s[rows] * cfg.r
    want = attention_oracle(Q[rows], Kt, Vt, additive=additive)
    assert np.max(np.abs(out[rows] - want)) <= 1e-5


def test_return_weights_leaves_output_unchanged_across_tiles(bench):
    spec, Q, _, _, Kt, Vt = bench
    s = compute_scaling_s(Q, Kt, spec, 8)
    mcam, cfg = build_mcam(spec), AttnConfig(r=0.5)
    out, w = relational_cross_attention(Q, Kt, Vt, mcam.levels, s, cfg, return_weights=True)
    np.testing.assert_array_equal(out, relational_cross_attention(Q, Kt, Vt, mcam.levels, s, cfg))
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-5
    out, w = standard_attention(Q, Kt, Vt, return_weights=True)
    np.testing.assert_array_equal(out, standard_attention(Q, Kt, Vt))


# --- memory of the plan-cold path --------------------------------------------


def test_build_csam_memory_is_independent_of_n_squared(traced_peak_mib):
    assert traced_peak_mib(build_csam, ROADMAP_LAYOUT) < 1.0


def test_block_forward_never_holds_an_n_by_n_array(traced_peak_mib):
    spec = ROADMAP_LAYOUT
    rng = np.random.default_rng(0)
    weights = init_weights(rng, 16, 12)
    x = rng.standard_normal((spec.n_tokens, 16)).astype(np.float32)
    text = rng.standard_normal((spec.text_len, 12)).astype(np.float32)
    # the dense n x n bool mask alone would be spec.n_tokens**2 bytes = 53.5 MiB;
    # a forward holding one tile of min(256, block rows) x block width peaks at 9.6
    assert traced_peak_mib(block_forward, weights, x, text, spec, AttnConfig()) < 16.0


def test_block_forward_of_many_small_branches_holds_no_full_height_tile(traced_peak_mib):
    # 48 video rows and 7 condition branches of 48-144 rows: with a tile of
    # 256 rows over the widest block, whatever the block's height, it took 0.86 MiB
    spec = make_spec(1, 6, 8, bg=1, objs=3, groups=(2, 2, 1))
    assert (spec.n_tokens, spec.n_video_tokens) == (624, 48)
    rng = np.random.default_rng(0)
    weights = init_weights(rng, 16, 12)
    x = rng.standard_normal((spec.n_tokens, 16)).astype(np.float32)
    text = rng.standard_normal((spec.text_len, 12)).astype(np.float32)
    assert traced_peak_mib(block_forward, weights, x, text, spec, AttnConfig()) < 0.5


def test_block_forward_holds_one_head_at_a_time(traced_peak_mib):
    # a forward that held the normalized input and the residual sum beside
    # each head's q, k, v and separate output, with a running max and
    # normalizer per row, peaked at 0.34 MiB at n=624 and 9.58 MiB at
    # n=7488; one that drops the input once the last head is projected,
    # starts the sum from the first head's projection and writes each
    # head's output over its queries at 0.28 and 8.84, and 2.24 at n=1872;
    # one whose float32 self-attention tiles take _tile_rows rows instead of
    # 256 peaks at 0.28, 0.87 and 3.35
    small = make_spec(1, 6, 8, bg=1, objs=3, groups=(2, 2, 1))
    for spec, bound in ((small, 0.30), (bench_layout(), 1.0), (ROADMAP_LAYOUT, 4.0)):
        rng = np.random.default_rng(0)
        weights = init_weights(rng, 16, 12)
        x = rng.standard_normal((spec.n_tokens, 16)).astype(np.float32)
        text = rng.standard_normal((spec.text_len, 12)).astype(np.float32)
        assert traced_peak_mib(block_forward, weights, x, text, spec, AttnConfig()) < bound


def _short_wide_cover(n, height):
    """Blocks ``height`` rows tall and as wide as the sequence."""
    return [Block(q, min(q + height, n), 0, n) for q in range(0, n, height)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_blockwise_tiles_are_no_taller_than_their_blocks(traced_peak_mib, dtype):
    n = 1024
    cover = _short_wide_cover(n, 6)
    Q, K, V = (rnd((n, 2), seed, dtype) for seed in (21, 22, 23))
    full_tile_mib = attention._tile_rows(n) * n * np.dtype(dtype).itemsize / 2**20
    assert traced_peak_mib(masked_self_attention_blockwise, Q, K, V, cover) < full_tile_mib


def test_blockwise_backward_tiles_are_no_taller_than_their_blocks(traced_peak_mib):
    # blocks 6 rows tall and two key chunks wide: each tile is at most
    # min(_BWD_TILE, block rows) x min(_KEY_TILE, block width), so the walk
    # holds no more than over the same mask cut into _KEY_TILE-wide blocks,
    # and less than one full _BWD_TILE x _KEY_TILE tile
    chunk = attention._KEY_TILE
    n = 2 * chunk
    cover = _short_wide_cover(n, 6)
    cut = [Block(b.q0, b.q1, k, k + chunk) for b in cover for k in range(0, n, chunk)]
    Q, K, V, g = (rnd((n, 2), seed, np.float64) for seed in (24, 25, 26, 27))
    out, lse = attention._blockwise([Q * np.sqrt(0.5), K, V], cover)  # Q K^T * 0.5
    # the operands folded as the training backward folds them
    gx = np.hstack([g, -np.einsum("ij,ij->i", g, out)[:, None]])
    folded = (*attention._folded(Q * 0.5, K, V, lse), gx)
    # numpy keeps a few hundred bytes of caches from a first call, which
    # would tip the comparison by whichever side ran first
    attention._folded_bwd(*folded, cover)
    peak = traced_peak_mib(attention._folded_bwd, *folded, cover)
    assert peak <= traced_peak_mib(attention._folded_bwd, *folded, cut)
    assert peak < attention._BWD_TILE * chunk * 8 / 2**20


def test_blockwise_backward_tiles_of_narrow_blocks_stay_within_the_budget(traced_peak_mib):
    # blocks 8 keys wide and 2048 rows tall: a tile over 8 keys may take
    # 4096 rows, so each block is one tile of 32 times _BWD_TILE rows, and
    # the walk's two tile buffers with its gradients stay below two tiles
    # of _BWD_TILE x _KEY_TILE float64
    n, width = 2048, 8
    assert attention._tile_rows(width) >= n > 16 * attention._BWD_TILE
    cover = [Block(0, n, k, k + width) for k in range(0, 8 * width, width)]
    Q, K, V, g = (rnd((n, 2), seed, np.float64) for seed in (28, 29, 30, 31))
    out, lse = attention._blockwise([Q * np.sqrt(0.5), K, V], cover)  # Q K^T * 0.5
    gx = np.hstack([g, -np.einsum("ij,ij->i", g, out)[:, None]])
    folded = (*attention._folded(Q * 0.5, K, V, lse), gx)
    peak = traced_peak_mib(attention._folded_bwd, *folded, cover)
    assert peak < 2 * attention._BWD_TILE * attention._KEY_TILE * 8 / 2**20
