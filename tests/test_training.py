"""Training runs on the inference kernel: the float64 streaming forward and
the recomputing self-attention backward against dense oracles, on general
covers and through the block."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relattn import attention
from relattn.attention import AttnConfig, _blockwise, _blockwise_bwd, masked_self_attention_naive
from relattn.block import (
    block_forward,
    fm_loss,
    grad_check,
    init_weights,
    loss_and_gradients,
    plain_block_forward,
)
from relattn.corpus import bench_layout, corpus_layout, make_spec
from relattn.masks import Block, CsamMask, build_csam, decompose_blocks

from oracles import csam_oracle, masked_attention_grads_oracle
from strategies import layout_specs

ROADMAP_LAYOUT = make_spec(2, 24, 24, bg=1, objs=2, groups=(1, 1, 1, 1))
MIB = 1024.0 * 1024.0


@st.composite
def general_covers(draw):
    """A random mask with no empty row and its decompose_blocks cover, in
    which a query row may span several blocks (derived covers never do)."""
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bits = rng.random((n, n)) < draw(st.sampled_from([0.2, 0.5, 0.8]))
    bits[np.arange(n), rng.integers(0, n, n)] = True
    return bits, decompose_blocks(bits)


def _qkvg(n, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, dim)) for dim in (4, 4, 3, 3)]


def _dense_forward(Q, K, V, bits, blocks, scale):
    """Masked scaled logits (-inf where masked), the dense kernel's output
    and each row's log-sum-exp."""
    logits = np.where(bits, (Q @ K.T) * scale, -np.inf)
    peak = logits.max(axis=1)
    lse = peak + np.log(np.exp(logits - peak[:, None]).sum(axis=1))
    return logits, masked_self_attention_naive(Q, K, V, CsamMask(len(Q), blocks), scale), lse


def test_dense_grads_oracle_matches_central_differences():
    rng = np.random.default_rng(0)
    bits = rng.random((6, 6)) < 0.5
    bits[np.arange(6), np.arange(6)] = True
    Q, K, V, g = _qkvg(6, 1)
    mask = CsamMask(6, decompose_blocks(bits))
    grads = masked_attention_grads_oracle(Q, K, V, bits, g)
    eps = 1e-6
    for arr, grad in zip((Q, K, V), grads):
        for idx in np.ndindex(arr.shape):
            keep = arr[idx]
            arr[idx] = keep + eps
            hi = float((g * masked_self_attention_naive(Q, K, V, mask)).sum())
            arr[idx] = keep - eps
            lo = float((g * masked_self_attention_naive(Q, K, V, mask)).sum())
            arr[idx] = keep
            assert abs((hi - lo) / (2 * eps) - grad[idx]) < 1e-8


@given(general_covers(), st.sampled_from([1, 2, 3, 256]), st.integers(0, 1000))
def test_blockwise_backward_matches_dense_oracle_on_general_covers(cover, tile, seed):
    # rows that span several blocks combine their log-sum-exp across blocks;
    # small tiles split every block into several query tiles, in the forward
    # and in the backward, which has its own tile height
    bits, blocks = cover
    n = bits.shape[0]
    Q, K, V, g = _qkvg(n, seed)
    scale = 0.7
    want = masked_attention_grads_oracle(Q, K, V, bits, g, scale)
    _, want_out, want_lse = _dense_forward(Q, K, V, bits, blocks, scale)
    with mock.patch.object(attention, "_SELF_TILE", tile), mock.patch.object(
        attention, "_BWD_TILE", tile
    ):
        for order in (blocks, blocks[::-1]):
            out, lse = _blockwise(Q, K, V, order, scale)
            np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
            np.testing.assert_allclose(lse, want_lse, rtol=0, atol=1e-12)
            for got, ref in zip(_blockwise_bwd(Q, K, V, out, lse, g, order, scale), want):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


@given(general_covers(), st.sampled_from([1, 2, 3, 256]), st.integers(0, 1000))
def test_float64_forward_matches_dense_oracle_on_both_stabilizer_routes(cover, tile, seed):
    # unit and x30 rows keep scale |q| max|k| as their stabilizer; at x1e3
    # and x1e5 that bound would push a row's largest weight below the normal
    # range of float64, so those rows take their exact row max instead
    bits, blocks = cover
    n = bits.shape[0]
    Q, K, V, _ = _qkvg(n, seed)
    Q *= np.random.default_rng(seed).choice([1.0, 30.0, 1e3, 1e5], size=(n, 1))
    scale = 0.7
    logits, want_out, want_lse = _dense_forward(Q, K, V, bits, blocks, scale)
    # float64 logits carry an absolute error of a few ulps of their size
    size = np.abs(np.where(bits, logits, 0.0)).max(axis=1)
    tol = 1e-12 + 1e-14 * size
    with mock.patch.object(attention, "_SELF_TILE", tile):
        for order in (blocks, blocks[::-1]):
            out, lse = _blockwise(Q, K, V, order, scale)
            assert np.isfinite(out).all() and np.isfinite(lse).all()
            assert (np.abs(out - want_out) <= tol[:, None]).all()
            assert (np.abs(lse - want_lse) <= tol).all()


def test_float64_forward_takes_the_exact_route_when_a_norm_overflows():
    # |k|^2 overflows to inf, and times the zero query row gives NaN
    Q, K, V = np.zeros((3, 2)), np.ones((3, 2)), np.eye(3)[:, :2].copy()
    Q[1], K[0, 0] = 1e-200, 1e160
    blocks = [Block(0, 3, 0, 3)]
    out, lse = _blockwise(Q, K, V, blocks, 1.0)
    _, want_out, want_lse = _dense_forward(Q, K, V, np.ones((3, 3), bool), blocks, 1.0)
    np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-15)
    np.testing.assert_allclose(lse, want_lse, rtol=0, atol=1e-15)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
    reason="long double is no wider than float64 here",
)
@pytest.mark.parametrize("factor", [1.0, 30.0, 1e3])
def test_float64_forward_matches_long_double_oracle(factor):
    spec = bench_layout()
    n, blocks = spec.n_tokens, build_csam(spec).blocks
    rng = np.random.default_rng(21)
    Q, K, V = (rng.standard_normal((n, 8)) for _ in range(3))
    Q *= factor
    out, lse = _blockwise(Q, K, V, blocks)
    wide = np.longdouble
    Ql, Kl, Vl = Q.astype(wide), K.astype(wide), V.astype(wide)
    for i in range(0, n, 23):  # rows of every block and every tile
        keys = np.concatenate([np.arange(b.k0, b.k1) for b in blocks if b.q0 <= i < b.q1])
        logits = (Kl[keys] @ Ql[i]) * wide(1 / np.sqrt(8))
        peak = logits.max()
        w = np.exp(logits - peak)
        assert np.abs(out[i] - (w / w.sum()) @ Vl[keys]).max() <= 1e-12
        assert abs(lse[i] - (peak + np.log(w.sum()))) <= 1e-12 * max(1.0, abs(float(peak)))


def test_blockwise_backward_matches_dense_oracle_at_the_shipped_tile():
    # every block is taller and wider than _BWD_TILE and no height is a
    # multiple of it: full and partial tiles of the folded -lse and -D
    # columns accumulate into the same key rows
    spec = make_spec(1, 9, 9, bg=1, objs=1, groups=(1,))
    blocks = build_csam(spec).blocks
    tile = attention._BWD_TILE
    assert all(b.q1 - b.q0 > tile and b.k1 - b.k0 > tile for b in blocks)
    assert all((b.q1 - b.q0) % tile for b in blocks)
    n = spec.n_tokens
    Q, K, V, g = _qkvg(n, 11)
    scale = 0.5
    want = masked_attention_grads_oracle(Q, K, V, csam_oracle(spec), g, scale)
    out, lse = _blockwise(Q, K, V, blocks, scale)
    for got, ref in zip(_blockwise_bwd(Q, K, V, out, lse, g, blocks, scale), want):
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


def _problem(spec, seed, channels=16, text_channels=12, **shape):
    rng = np.random.default_rng(seed)
    w = init_weights(rng, channels, text_channels, dtype=np.float64, **shape)
    x = rng.standard_normal((spec.n_tokens, channels))
    text = rng.standard_normal((spec.text_len, text_channels))
    return w, x, text, rng.standard_normal(x.shape)


@given(layout_specs())
def test_grad_check_on_generated_layouts(spec):
    w, x, text, target = _problem(spec, 0, 6, 4, n_heads=2, head_dim=6, hidden=8)
    report = grad_check(
        w, x, text, spec, AttnConfig(d=2), target, max_coords=24, check_inputs=True
    )
    assert report.max_rel_error <= 1e-3


def test_training_loss_is_the_float64_forward_loss():
    for spec in (corpus_layout("showcase"), bench_layout()):
        w, x, text, target = _problem(spec, 3)
        cfg = AttnConfig()
        loss = loss_and_gradients(w, x, text, spec, cfg, target)[0]
        assert loss == fm_loss(block_forward(w, x, text, spec, cfg), target)


def test_plain_block_is_the_full_cover_without_level_term():
    spec = corpus_layout("showcase")
    w, x, text, _ = _problem(spec, 4)
    n = spec.n_tokens
    full = CsamMask(n, (Block(0, n, 0, n),))
    plain = plain_block_forward(w, x, text, spec, AttnConfig())
    np.testing.assert_array_equal(
        plain, block_forward(w, x, text, spec, AttnConfig(r=0.0), csam=full)
    )
    # unmasked: condition rows see the video tokens
    bumped = x.copy()
    bumped[: spec.n_video_tokens] += np.random.default_rng(5).standard_normal(
        (spec.n_video_tokens, x.shape[1])
    )
    moved = plain_block_forward(w, bumped, text, spec, AttnConfig()) - plain
    assert np.abs(moved[spec.n_video_tokens :]).max() > 1e-3


def _training_peak_mib(spec) -> float:
    w, x, text, target = _problem(spec, 0)
    tracemalloc.start()
    try:
        loss_and_gradients(w, x, text, spec, AttnConfig(), target)
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def test_training_memory_stays_below_dense_weights():
    # the dense taped path held n x n float64 weights per head: 140.6 MiB
    # at n=1872 and about 2.3 GiB on the ROADMAP layout (n=7488); a
    # backward of 256-row tiles with fresh P and dS per tile peaked at 16.3
    # and 77.8 MiB, one of _BWD_TILE rows through two reused buffers at
    # 11.1 and 43.9 MiB
    assert bench_layout().n_tokens == 1872
    peak = _training_peak_mib(bench_layout())
    assert peak < 32.0
    assert peak < 14.0
    assert ROADMAP_LAYOUT.n_tokens == 7488
    peak = _training_peak_mib(ROADMAP_LAYOUT)
    assert peak < 128.0
    assert peak < 64.0
