"""Training runs on the inference kernel: the float64 streaming forward and
the recomputing self-attention backward against dense oracles, on general
covers and through the block."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relattn import attention
from relattn.attention import AttnConfig, _blockwise, _folded, _folded_bwd
from relattn.block import (
    _backward,
    _forward,
    _prepare,
    block_forward,
    fm_loss,
    grad_check,
    init_weights,
    loss_and_gradients,
    plain_block_forward,
)
from relattn.corpus import bench_layout, corpus_layout, make_spec
from relattn.masks import Block, CsamMask, build_csam, build_mcam
from relattn.reference import compute_scaling_s, decompose_blocks, masked_self_attention_naive

from oracles import (
    attention_oracle,
    cross_attention_grads_oracle,
    csam_oracle,
    masked_attention_grads_oracle,
    mcam_oracle,
    scaling_oracle,
)
from strategies import layout_specs

ROADMAP_LAYOUT = make_spec(2, 24, 24, bg=1, objs=2, groups=(1, 1, 1, 1))


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


def _logsumexp(logits):
    """Each row's log-sum-exp, -inf entries contributing nothing."""
    peak = logits.max(axis=1)
    return peak + np.log(np.exp(logits - peak[:, None]).sum(axis=1))


def _streamed_grads(Q, K, V, out, lse, g, blocks, scale):
    """(dQ, dK, dV) as training takes them: the operands folded as
    ``block._backward`` folds them, walked by ``_folded_bwd``."""
    Qx, Kx, Vx = _folded(Q * scale, K, V, lse)
    gx = np.hstack([g, -np.einsum("ij,ij->i", g, out)[:, None]])
    return _folded_bwd(Qx, Kx, Vx, gx, blocks, scale)


def _dense_forward(Q, K, V, bits, scale):
    """Masked scaled logits (-inf where masked), the attention oracle's
    output and each row's log-sum-exp."""
    logits = np.where(bits, (Q @ K.T) * scale, -np.inf)
    return logits, attention_oracle(Q, K, V, bits=bits, scale=scale), _logsumexp(logits)


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


@given(
    general_covers(), st.sampled_from([1, 2, 3, 256]), st.sampled_from([1, 2, 3, 512]), st.integers(0, 1000)
)
def test_blockwise_backward_matches_dense_oracle_on_general_covers(cover, tile, keys, seed):
    # rows that span several blocks combine their log-sum-exp across blocks;
    # small tiles split every block into several query tiles, in the forward
    # and in the backward, whose tile height would otherwise follow the
    # block's width, and small key chunks split every block into several
    # tiles along its keys too
    bits, blocks = cover
    n = bits.shape[0]
    Q, K, V, g = _qkvg(n, seed)
    scale = 0.7
    want = masked_attention_grads_oracle(Q, K, V, bits, g, scale)
    _, want_out, want_lse = _dense_forward(Q, K, V, bits, scale)
    with mock.patch.object(attention, "_tile_rows", lambda width: tile), mock.patch.object(
        attention, "_KEY_TILE", keys
    ):
        for order in (blocks, blocks[::-1]):
            out, lse = _blockwise([Q, K, V], order, scale)
            np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
            np.testing.assert_allclose(lse, want_lse, rtol=0, atol=1e-12)
            for got, ref in zip(_streamed_grads(Q, K, V, out, lse, g, order, scale), want):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)


@given(
    general_covers(), st.sampled_from([1, 2, 3, 256]), st.sampled_from([1, 2, 3, 512]), st.integers(0, 1000)
)
def test_float64_forward_matches_dense_oracle_on_both_stabilizer_routes(cover, tile, keys, seed):
    # unit and x30 rows keep scale |q| max|k| as their stabilizer; at x1e3
    # and x1e5 that bound would push a row's largest weight below the normal
    # range of float64, so those rows take their exact row max instead
    bits, blocks = cover
    n = bits.shape[0]
    Q, K, V, _ = _qkvg(n, seed)
    Q *= np.random.default_rng(seed).choice([1.0, 30.0, 1e3, 1e5], size=(n, 1))
    scale = 0.7
    logits, want_out, want_lse = _dense_forward(Q, K, V, bits, scale)
    # float64 logits carry an absolute error of a few ulps of their size
    size = np.abs(np.where(bits, logits, 0.0)).max(axis=1)
    tol = 1e-12 + 1e-14 * size
    # the float64 route walks tiles of _tile_rows rows x _KEY_TILE keys in
    # both of its tiled passes, the exact route's peak scan included
    with mock.patch.object(attention, "_tile_rows", lambda width: tile), mock.patch.object(
        attention, "_KEY_TILE", keys
    ):
        for order in (blocks, blocks[::-1]):
            out, lse = _blockwise([Q, K, V], order, scale)
            assert np.isfinite(out).all() and np.isfinite(lse).all()
            assert (np.abs(out - want_out) <= tol[:, None]).all()
            assert (np.abs(lse - want_lse) <= tol).all()


def test_float64_forward_takes_the_exact_route_when_a_norm_overflows():
    # |k|^2 overflows to inf, and times the zero query row gives NaN
    Q, K, V = np.zeros((3, 2)), np.ones((3, 2)), np.eye(3)[:, :2].copy()
    Q[1], K[0, 0] = 1e-200, 1e160
    blocks = [Block(0, 3, 0, 3)]
    out, lse = _blockwise([Q, K, V], blocks, 1.0)
    _, want_out, want_lse = _dense_forward(Q, K, V, np.ones((3, 3), bool), 1.0)
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
    out, lse = _blockwise([Q, K, V], blocks)
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
    # bench_layout()'s cover: the video rows' 288 x 1872 block splits into
    # 64-row tiles and 512-key chunks, both with a partial last one, each
    # 288 x 288 branch into 113-row tiles with a partial last one, and each
    # 144 x 144 branch, taller than _BWD_TILE, is one tile: full and partial
    # tiles of the folded -lse and -D columns accumulate into the same rows
    spec = bench_layout()
    blocks = build_csam(spec).blocks
    shapes = {(b.q1 - b.q0, b.k1 - b.k0, attention._tile_rows(b.k1 - b.k0)) for b in blocks}
    assert shapes == {(288, 1872, 64), (288, 288, 113), (144, 144, 227)}
    assert 1872 % attention._KEY_TILE
    n = spec.n_tokens
    Q, K, V, g = _qkvg(n, 11)
    scale = 0.5
    want = masked_attention_grads_oracle(Q, K, V, csam_oracle(spec), g, scale)
    out, lse = _blockwise([Q, K, V], blocks, scale)
    for got, ref in zip(_streamed_grads(Q, K, V, out, lse, g, blocks, scale), want):
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


def _cross_head(d):
    """One cross-attention head on a layout of 20 video rows: tiles of 3 and
    7 rows straddle the first condition row, and patch runs of d tokens
    along a 5-token grid row split across tiles; at d=8 the patch is wider
    than the 4x5 frame, so one ragged patch takes rows from every row tile
    of its frame."""
    spec = make_spec(1, 4, 5, bg=1, objs=1, groups=(2,), span_len=3, gap=1)
    assert spec.n_video_tokens % 3 and spec.n_video_tokens % 7
    cfg = AttnConfig(r=0.8, d=d)
    w, x, text, _ = _problem(spec, 8)
    _, _, _, plan = _prepare(w, x, text, spec, cfg, dtype=np.float64)
    rng = np.random.default_rng(9)
    qc, kc, vc = (rng.standard_normal((m, w.head_dim)) for m in (spec.n_tokens, spec.text_len, spec.text_len))
    levels = mcam_oracle(spec)
    additive = levels * scaling_oracle(qc, kc, spec, d) * cfg.r
    return spec, cfg, w, plan, (qc, kc, vc), levels, additive, rng.standard_normal(x.shape)


@pytest.mark.parametrize("tile", [1, 3, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_streamed_cross_forward_matches_dense_oracle(tile, d):
    spec, cfg, w, plan, (qc, kc, vc), _, additive, _ = _cross_head(d)
    scale = 1 / np.sqrt(w.head_dim)
    level_term = attention._level_term(qc, kc, plan)[2]
    # float64, which walks _tile_rows rows (float32 walks _CROSS_TILE)
    with mock.patch.object(attention, "_tile_rows", lambda L: tile):
        out, lse = attention._attend(qc, kc, vc, scale, level_term)
    want = attention_oracle(qc, kc, vc, additive=additive, scale=scale)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(lse, _logsumexp((qc @ kc.T + additive) * scale), rtol=0, atol=1e-12)


@pytest.mark.parametrize("tile", [1, 3, 7])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_streamed_cross_backward_matches_dense_oracle(tile, d):
    spec, cfg, w, plan, (qc, kc, vc), levels, additive, gx = _cross_head(d)
    co = w.co[0]
    scale = 1 / np.sqrt(w.head_dim)
    lse = _logsumexp((qc @ kc.T + additive) * scale)
    want = cross_attention_grads_oracle(qc, kc, vc, co, gx, spec, levels, cfg.r, d, scale)
    with mock.patch.object(attention, "_tile_rows", lambda L: tile):
        got = attention._cross_head_bwd(qc, kc, vc, lse, co, gx, plan)
    for g, ref in zip(got, want):
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12)


def test_grad_check_with_a_caption_longer_than_one_cross_tile():
    spec = make_spec(1, 6, 6, bg=1, objs=2, groups=(1, 1, 1, 1), span_len=24, gap=4)
    assert spec.text_len == 312 and spec.n_tokens > 2 * attention._tile_rows(spec.text_len)
    w, x, text, target = _problem(spec, 5, 6, 4, n_heads=2, head_dim=6, hidden=8)
    report = grad_check(w, x, text, spec, AttnConfig(d=2), target, max_coords=24, check_inputs=True)
    assert report.max_rel_error <= 1e-3


def test_training_loss_is_the_float64_forward_loss():
    for spec in (corpus_layout("showcase"), bench_layout()):
        w, x, text, target = _problem(spec, 3)
        cfg = AttnConfig()
        loss = loss_and_gradients(w, x, text, spec, cfg, target)[0]
        assert loss == fm_loss(block_forward(w, x, text, spec, cfg), target)


def test_float32_backward_follows_the_float64_gradients():
    # the taped forward and its backward run in the inputs' dtype; the
    # cross-attention backward's tile buffers were float64 whatever the
    # dtype, and a float32 backward raised TypeError
    spec, cfg = bench_layout(), AttnConfig()
    w, x, text, target = _problem(spec, 7)
    _, want, want_gx, want_gtext = loss_and_gradients(w, x, text, spec, cfg, target)
    w32, x32, text32, plan = _prepare(w, x, text, spec, cfg, dtype=np.float32)
    tape: dict = {}
    y = _forward(w32, x32, text32, plan, tape)
    gy = (y - target.astype(np.float32)) * np.float32(2 / y.size)
    got, gx, gtext = _backward(w32, tape, plan, gy)
    got.update(z_tokens=gx, text=gtext)
    want.update(z_tokens=want_gx, text=want_gtext)
    for name, ref in want.items():
        assert got[name].dtype == np.float32, name
        assert np.abs(got[name] - ref).max() <= 1e-5 * np.abs(ref).max(), name


@pytest.mark.parametrize(
    "spec", [corpus_layout("showcase"), bench_layout(), make_spec(1, 2, 2, objs=1, no_spans=True)]
)
def test_taping_leaves_the_forward_output_unchanged(spec):
    cfg = AttnConfig()
    w, x, text, _ = _problem(spec, 6)
    w, x, text, plan = _prepare(w, x, text, spec, cfg, dtype=np.float64)
    tape: dict = {}
    taped = _forward(w, x, text, plan, tape)
    assert taped.tobytes() == _forward(w, x, text, plan).tobytes()
    # one entry per sub-layer, each written by its forward and popped whole
    # by its mirror in the backward
    assert set(tape) == {"self", "cross", "mlp"}
    # each cross-attention head tapes only the log-sum-exp of each row's
    # scaled logits, level term included: the backward rebuilds its keys and
    # values from the taped caption
    taped_text, u2, _, lses = tape["cross"]
    assert taped_text is text and len(lses) == (w.n_heads if spec.text_len else 0)
    levels = build_mcam(spec).levels
    for h, lse in enumerate(lses):
        qc, kc = u2 @ w.cq[h], text @ w.ck[h]
        s = compute_scaling_s(qc, kc, spec, cfg.d)
        want = _logsumexp((qc @ kc.T + levels * s * cfg.r) / np.sqrt(w.head_dim))
        np.testing.assert_allclose(lse, want, rtol=0, atol=1e-12)
    _backward(w, tape, plan, np.ones_like(taped))
    assert tape == {}


def test_plain_block_is_the_full_cover_without_level_term():
    spec = corpus_layout("showcase")
    w, x, text, _ = _problem(spec, 4)
    n = spec.n_tokens
    plain = plain_block_forward(w, x, text, spec, AttnConfig())
    w64, x64, text64, plan = _prepare(w, x, text, spec, AttnConfig(r=0.0))
    full = plan._replace(blocks=(Block(0, n, 0, n),))
    assert plain.tobytes() == _forward(w64, x64, text64, full).tobytes()
    # unmasked: condition rows see the video tokens
    bumped = x.copy()
    bumped[: spec.n_video_tokens] += np.random.default_rng(5).standard_normal(
        (spec.n_video_tokens, x.shape[1])
    )
    moved = plain_block_forward(w, bumped, text, spec, AttnConfig()) - plain
    assert np.abs(moved[spec.n_video_tokens :]).max() > 1e-3


def test_training_memory_stays_below_dense_weights(traced_peak_mib):
    # the dense taped path held n x n float64 weights per head: 140.6 MiB
    # at n=1872 and about 2.3 GiB on the ROADMAP layout (n=7488); a
    # backward of 256-row tiles with fresh P and dS per tile peaked at 16.3
    # and 77.8 MiB, one of _BWD_TILE rows through two reused buffers at
    # 11.1 and 43.9 MiB, one that also drops each tape entry once used,
    # after a float64 forward of _BWD_TILE rows, at 6.0 and 23.9 MiB, one
    # whose tape leaves out the projections, the GELU and the
    # cross-attention outputs for the backward to rebuild, with GELU, the
    # residual stream and the output gradient in place, at 4.56 and 17.9
    # MiB, and one that also walks 2-D tiles of at most _KEY_TILE keys,
    # streams the cross-attention backward from a row log-sum-exp and the
    # MLP backward in row chunks at 2.54 and 9.16 MiB, and one that rebuilds
    # the cross-attention keys and values and drops each cross head's
    # gradients before the next at 2.41 and 9.15 MiB
    assert bench_layout().n_tokens == 1872
    assert _training_peak(traced_peak_mib, bench_layout()) < 2.55
    assert ROADMAP_LAYOUT.n_tokens == 7488
    assert _training_peak(traced_peak_mib, ROADMAP_LAYOUT) < 10.1


def test_training_memory_does_not_grow_with_the_caption(traced_peak_mib):
    # a 312-token caption, the length sample-reuse samples with: taping
    # each head's dense n x L cross-attention weights peaked at 19.6 MiB at
    # n=1872 and 77.8 MiB at n=7488; streamed from a row log-sum-exp, at
    # 2.71 and 9.26 MiB, and with rebuilt keys and values and each cross
    # head's gradients dropped before the next, at 2.61 and 9.18 MiB
    short = bench_layout()
    long = make_spec(2, 12, 12, bg=1, objs=2, groups=(1, 1, 1, 1), span_len=24, gap=4)
    large = make_spec(2, 24, 24, bg=1, objs=2, groups=(1, 1, 1, 1), span_len=24, gap=4)
    assert (short.text_len, long.text_len, large.text_len) == (34, 312, 312)
    assert long.n_tokens == short.n_tokens == 1872 and large.n_tokens == 7488
    peak = _training_peak(traced_peak_mib, long)
    assert peak < 2.75
    assert peak <= 1.1 * _training_peak(traced_peak_mib, short)
    assert _training_peak(traced_peak_mib, large) < 10.3


def _training_peak(traced_peak_mib, spec):
    w, x, text, target = _problem(spec, 0)
    return traced_peak_mib(loss_and_gradients, w, x, text, spec, AttnConfig(), target)
