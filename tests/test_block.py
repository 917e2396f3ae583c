import math
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from relattn import attention, block, checks
from relattn.attention import AttnConfig, masked_self_attention_blockwise
from relattn.block import (
    BlockWeights,
    _gelu,
    _layer_norm_bwd,
    block_forward,
    demo_fit,
    flow_interpolate,
    fm_loss,
    grad_check,
    init_weights,
    loss_and_gradients,
    plain_block_forward,
    sample_time_logit_normal,
)
from relattn.corpus import make_spec
from relattn.masks import build_csam, build_mcam
from relattn.reference import decompose_blocks

from oracles import fm_loss_oracle
from strategies import layout_specs


# --- flow matching -----------------------------------------------------------


def test_interpolation_endpoints_exact():
    rng = np.random.default_rng(0)
    z, z0 = rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
    zt, v = flow_interpolate(z, z0, 0.0)
    np.testing.assert_array_equal(zt, z0)
    np.testing.assert_array_equal(v, z - z0)
    zt, _ = flow_interpolate(z, z0, 1.0)
    np.testing.assert_array_equal(zt, z)


def test_velocity_is_difference():
    rng = np.random.default_rng(1)
    z0 = rng.standard_normal((3, 3))
    z = 2.0 * z0
    for t in (0.25, 0.5, 0.9):
        _, v = flow_interpolate(z, z0, t)
        np.testing.assert_allclose(v, z0, atol=1e-12)


def test_interpolation_validates():
    z = np.zeros((2, 2))
    with pytest.raises(ValueError):
        flow_interpolate(z, np.zeros((3, 2)), 0.5)
    with pytest.raises(ValueError):
        flow_interpolate(z, z, 1.5)
    with pytest.raises(ValueError):
        flow_interpolate(z, z, -0.1)
    bad = z.copy()
    bad[0, 1] = np.inf  # its velocity would be inf
    for args in ((bad, z, 0.5), (z, bad, 0.5), (np.zeros((0, 2)), np.zeros((0, 2)), 0.5)):
        with pytest.raises(ValueError, match="finite"):
            flow_interpolate(*args)


def test_fm_loss_values():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((3, 4))
    assert fm_loss(v, v) == 0.0
    assert abs(fm_loss(v + 1.0, v) - 1.0) < 1e-12
    pred = rng.standard_normal((2, 2))
    tgt = rng.standard_normal((2, 2))
    assert abs(fm_loss(pred, tgt) - fm_loss_oracle(pred, tgt)) < 1e-7
    with pytest.raises(ValueError):
        fm_loss(np.zeros((2, 2)), np.zeros((2, 3)))
    nan = v.copy()
    nan[1, 2] = np.nan
    # an empty mean and a NaN entry each gave a silent NaN loss
    for args in ((np.zeros((0, 4)), np.zeros((0, 4))), (nan, v), (v, nan)):
        with pytest.raises(ValueError, match="finite"):
            fm_loss(*args)


@given(st.integers(0, 2**31 - 1))
def test_fm_loss_symmetric_nonnegative(seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    assert fm_loss(a, b) >= 0.0
    assert fm_loss(a, b) == fm_loss(b, a)


def test_logit_normal_time_in_unit_interval():
    rng = np.random.default_rng(3)
    ts = [sample_time_logit_normal(rng) for _ in range(200)]
    assert all(0.0 < t < 1.0 for t in ts)
    assert 0.2 < np.mean(ts) < 0.8


# --- block forward -----------------------------------------------------------


@pytest.fixture(scope="module")
def setup():
    spec = make_spec(1, 2, 3, bg=1, groups=(1,))
    rng = np.random.default_rng(4)
    weights = init_weights(rng, channels=12, text_channels=8, n_heads=2, head_dim=8, hidden=16)
    x = rng.standard_normal((spec.n_tokens, 12)).astype(np.float32)
    text = rng.standard_normal((spec.text_len, 8)).astype(np.float32)
    return spec, weights, x, text


def test_zero_weights_identity(setup):
    spec, weights, x, text = setup
    zero = BlockWeights(**{k: np.zeros_like(v) for k, v in weights.arrays().items()})
    out = block_forward(zero, x, text, spec, AttnConfig())
    np.testing.assert_array_equal(out, x)


def test_forward_shape_and_determinism(setup):
    spec, weights, x, text = setup
    cfg = AttnConfig()
    a = block_forward(weights, x, text, spec, cfg)
    b = block_forward(weights, x, text, spec, cfg)
    assert a.shape == x.shape
    assert np.isfinite(a).all()
    np.testing.assert_array_equal(a, b)


def test_relational_off_equals_plain_block(setup):
    # the plain block is the forward over the layout's r=0 plan, its cover
    # swapped for the one block of an all-true mask
    spec, weights, x, text = setup
    n = spec.n_tokens
    w, xp, tp, plan = block._prepare(weights, x, text, spec, AttnConfig(r=0.0))
    full = plan._replace(blocks=tuple(decompose_blocks(np.ones((n, n), dtype=bool))))
    plain = plain_block_forward(weights, x, text, spec, AttnConfig())
    assert plain.tobytes() == block._forward(w, xp, tp, full).tobytes()


def test_block_branch_isolation(setup):
    spec, weights, x, text = setup
    cfg = AttnConfig()
    base = block_forward(weights, x, text, spec, cfg)
    bumped = x.copy()
    rng = np.random.default_rng(5)
    bumped[: spec.n_video_tokens] += rng.standard_normal(
        (spec.n_video_tokens, 12)
    ).astype(np.float32)
    out = block_forward(weights, bumped, text, spec, cfg)
    cond = slice(spec.n_video_tokens, spec.n_tokens)
    assert np.max(np.abs(out[cond] - base[cond])) <= 1e-6
    assert np.max(np.abs(out[: spec.n_video_tokens] - base[: spec.n_video_tokens])) > 1e-3


def test_forward_without_text():
    spec = make_spec(1, 2, 2, objs=1, no_spans=True)
    assert spec.text_len == 0
    rng = np.random.default_rng(6)
    weights = init_weights(rng, channels=8, text_channels=4, head_dim=8, hidden=8)
    x = rng.standard_normal((spec.n_tokens, 8)).astype(np.float32)
    out = block_forward(weights, x, np.zeros((0, 4), dtype=np.float32), spec, AttnConfig())
    assert out.shape == x.shape


def test_forward_validates(setup):
    spec, weights, x, text = setup
    with pytest.raises(ValueError):
        block_forward(weights, x[:-1], text, spec, AttnConfig())
    with pytest.raises(ValueError):
        block_forward(weights, x, text[:-1], spec, AttnConfig())
    with pytest.raises(ValueError, match="text must have 8 channels, got 7"):
        block_forward(weights, x, text[:, :-1], spec, AttnConfig())


@pytest.mark.parametrize("forward", [block_forward, plain_block_forward])
@pytest.mark.parametrize("arg", ["z_tokens", "text"])
def test_forward_rejects_integer_inputs(setup, forward, arg):
    spec, weights, x, text = setup
    args = {"z_tokens": x, "text": text}
    args[arg] = np.round(args[arg]).astype(np.int64)
    with pytest.raises(ValueError, match=f"{arg} must have a floating dtype, got int64"):
        forward(weights, args["z_tokens"], args["text"], spec, AttnConfig())


def test_float64_caption_runs_in_the_latents_dtype(setup):
    spec, weights, x, text = setup
    wide = text.astype(np.float64)
    out = block_forward(weights, x, wide, spec, AttnConfig())
    assert out.tobytes() == block_forward(weights, x, text, spec, AttnConfig()).tobytes()


def test_weights_of_mixed_dtypes_run_in_the_latents_dtype(setup):
    # a float64 w1 beside a float32 wq was left uncast, and the output came
    # back float64
    spec, weights, x, text = setup
    mixed = BlockWeights(**{**weights.arrays(), "w1": weights.w1.astype(np.float64)})
    out = block_forward(mixed, x, text, spec, AttnConfig())
    assert out.dtype == np.float32
    assert out.tobytes() == block_forward(weights, x, text, spec, AttnConfig()).tobytes()
    narrow = BlockWeights(**{**weights.astype(np.float64).arrays(), "co": weights.co})
    _, grads, gx, gtext = loss_and_gradients(narrow, x, text, spec, AttnConfig(), np.zeros_like(x))
    assert {g.dtype for g in (*grads.values(), gx, gtext)} == {np.dtype(np.float64)}


# one wrong shape per array, for h=2 heads, C=12 channels, Ct=8 text
# channels, D=8 head_dim and F=16 hidden units
@pytest.mark.parametrize(
    "name, shape",
    [
        ("wq", (2, 12)), ("wk", (2, 12, 9)), ("wv", (2, 13, 8)), ("wo", (2, 8, 13)),
        ("cq", (3, 12, 8)), ("ck", (2, 8, 9)), ("cv", (2, 9, 8)), ("co", (2, 8, 11)),
        ("w1", (13, 16)), ("b1", (1,)), ("w2", (16, 13)), ("b2", (1,)),
    ],
)
def test_weights_reject_a_mis_shaped_array(setup, name, shape):
    arrays = setup[1].arrays()
    arrays[name] = np.zeros(shape, dtype=np.float32)
    with pytest.raises(ValueError, match=rf"^{name} has shape"):
        BlockWeights(**arrays)


@pytest.mark.parametrize("name", ["wq", "ck", "w1", "b2"])
def test_weights_reject_a_non_array_field(setup, name):
    # a list field died on its missing .ndim or .shape with AttributeError
    arrays = setup[1].arrays()
    arrays[name] = arrays[name].tolist()
    with pytest.raises(ValueError, match=rf"^{name} must be a numpy array, got list"):
        BlockWeights(**arrays)


def test_weights_reject_zero_channels():
    # zero channels built, and the block then returned an (n, 0) array
    # through "Mean of empty slice" and a grad check a NaN loss
    with pytest.raises(ValueError, match="at least one channel, got 0"):
        init_weights(np.random.default_rng(0), 0, 12)


def test_r_changes_output(setup):
    spec, weights, x, text = setup
    a = block_forward(weights, x, text, spec, AttnConfig(r=0.0))
    b = block_forward(weights, x, text, spec, AttnConfig(r=0.5))
    assert np.max(np.abs(a - b)) > 1e-6


def test_production_forward_matches_differentiable_path(setup):
    spec, weights, x, text = setup
    cfg = AttnConfig()
    prod = block_forward(weights, x, text, spec, cfg)
    target = np.zeros_like(x, dtype=np.float64)
    # the taped float64 forward drives loss_and_gradients; reconcile via loss
    loss, _, _, _ = loss_and_gradients(weights, x, text, spec, cfg, target)
    assert abs(loss - fm_loss(prod, target.astype(np.float32))) < 1e-5


@given(layout_specs(), st.sampled_from([1, 2, 8]))
def test_block_invariants_on_generated_layouts(spec, d):
    cfg = AttnConfig(d=d)
    rng = np.random.default_rng(19)
    weights = init_weights(rng, channels=6, text_channels=5, head_dim=6, hidden=8, dtype=np.float64)
    x = rng.standard_normal((spec.n_tokens, 6))
    text = rng.standard_normal((spec.text_len, 5))
    bumped = x.copy()
    bumped[: spec.n_video_tokens] += rng.standard_normal((spec.n_video_tokens, 6))
    cond = slice(spec.n_video_tokens, None)
    masks = build_csam(spec), build_mcam(spec)
    for dtype in (np.float32, np.float64):
        w, xd, bd, td = weights.astype(dtype), x.astype(dtype), bumped.astype(dtype), text.astype(dtype)
        y = block_forward(w, xd, td, spec, cfg)
        # a condition row reads its own branch only, through row-wise GEMMs
        assert block_forward(w, bd, td, spec, cfg)[cond].tobytes() == y[cond].tobytes()
        assert block_forward(w, xd, td, spec, cfg, *masks).tobytes() == y.tobytes()
    target = rng.standard_normal(x.shape)
    loss = loss_and_gradients(weights, x, text, spec, cfg, target)[0]
    assert loss == fm_loss(block_forward(weights, x, text, spec, cfg), target)


@given(layout_specs(), st.sampled_from([1, 2, 8]))
def test_video_rows_see_the_condition_rows_on_generated_layouts(spec, d):
    # video omniscience through the whole block: every video query attends
    # to every condition key, so moving the condition rows moves them all
    assume(spec.n_entities > 0)
    cfg = AttnConfig(d=d)
    rng = np.random.default_rng(20)
    weights = init_weights(rng, channels=6, text_channels=5, head_dim=6, hidden=8, dtype=np.float64)
    x = rng.standard_normal((spec.n_tokens, 6))
    text = rng.standard_normal((spec.text_len, 5))
    bumped = x.copy()
    bumped[spec.n_video_tokens :] += rng.standard_normal((spec.n_tokens - spec.n_video_tokens, 6))
    video = slice(0, spec.n_video_tokens)
    for dtype in (np.float32, np.float64):
        w, xd, bd, td = weights.astype(dtype), x.astype(dtype), bumped.astype(dtype), text.astype(dtype)
        moved = block_forward(w, bd, td, spec, cfg)[video] - block_forward(w, xd, td, spec, cfg)[video]
        assert np.abs(moved).max(axis=1).min() > 1e-3


@given(layout_specs(), st.sampled_from([1, 2, 8]))
def test_r0_equals_the_block_without_level_term_on_generated_layouts(spec, d):
    # r=0 identity: a level term of levels * |sim| * 0 adds nothing, bit for bit
    cfg = AttnConfig(r=0.0, d=d)
    rng = np.random.default_rng(21)
    weights = init_weights(rng, channels=6, text_channels=5, head_dim=6, hidden=8, dtype=np.float64)
    x = rng.standard_normal((spec.n_tokens, 6))
    text = rng.standard_normal((spec.text_len, 5))
    attend, dropped = attention._attend, []

    def without_level_term(Q, K, V, level_term):
        dropped.append(level_term)
        table, index, _ = level_term  # no table rows, reaching no row: standard_attention's term
        return attend(Q, K, V, (table[:0], index[:0], len(Q)))

    for dtype in (np.float32, np.float64):
        w, xd, td = weights.astype(dtype), x.astype(dtype), text.astype(dtype)
        y = block_forward(w, xd, td, spec, cfg)
        dropped.clear()
        with mock.patch.object(attention, "_attend", without_level_term):
            plain = block_forward(w, xd, td, spec, cfg)
        assert [term is not None for term in dropped] == [True] * (weights.n_heads if spec.text_len else 0)
        # the plan's term starts past the last row, so it reaches none
        assert all(term[2] == spec.n_tokens for term in dropped)
        assert plain.tobytes() == y.tobytes()


@pytest.mark.parametrize("entry", ["block_forward", "loss_and_gradients", "grad_check"])
def test_each_entry_point_builds_one_plan(entry):
    spec = make_spec(1, 2, 3, bg=1, groups=(1,))
    rng = np.random.default_rng(20)
    weights = init_weights(rng, channels=6, text_channels=4, hidden=8, dtype=np.float64)
    x = rng.standard_normal((spec.n_tokens, 6))
    text = rng.standard_normal((spec.text_len, 4))
    args = (weights, x, text, spec, AttnConfig(d=2))
    with ExitStack() as stack:
        calls = {
            name: stack.enter_context(mock.patch.object(block, name, wraps=getattr(block, name)))
            for name in ("build_csam", "build_mcam", "rotary_table")
        }
        if entry == "block_forward":
            block_forward(*args)
        elif entry == "loss_and_gradients":
            loss_and_gradients(*args, np.zeros_like(x))
        else:
            grad_check(*args, np.zeros_like(x), max_coords=4)
    assert {name: m.call_count for name, m in calls.items()} == dict.fromkeys(calls, 1)


# --- gradient checking -------------------------------------------------------


def test_check_global_grad_check_passes_at_every_seed():
    # a step of 1e-3 crossed a kink of |pooled Q K^T| at seeds 14 and 41
    results = {seed: next(r for r in checks.check_global(seed) if r.name == "grad-check") for seed in range(60)}
    assert {seed: r.error for seed, r in results.items() if not r.passed} == {}


def test_grad_check_full_block():
    spec = make_spec(1, 1, 3, groups=(0,))  # 6 visual tokens
    rng = np.random.default_rng(7)
    weights = init_weights(rng, channels=10, text_channels=6, dtype=np.float64)
    x = rng.standard_normal((spec.n_tokens, 10))
    text = rng.standard_normal((spec.text_len, 6))
    target = rng.standard_normal(x.shape)
    report = grad_check(
        weights, x, text, spec, AttnConfig(d=2), target, epsilon=1e-3, max_coords=250, seed=8
    )
    assert report.max_rel_error < 1e-3
    assert report.n_coords == 250


def test_grad_check_linear_subpath():
    # zero value/output projections silence both attention sub-layers, so the
    # loss is exactly quadratic in w2/b2 and central differences are exact
    spec = make_spec(1, 1, 2, objs=1)
    rng = np.random.default_rng(9)
    weights = init_weights(rng, channels=6, text_channels=4, dtype=np.float64)
    weights.wv[:] = 0.0
    weights.wo[:] = 0.0
    weights.cv[:] = 0.0
    weights.co[:] = 0.0
    x = rng.standard_normal((spec.n_tokens, 6))
    text = rng.standard_normal((spec.text_len, 4))
    target = rng.standard_normal(x.shape)
    report = grad_check(
        weights, x, text, spec, AttnConfig(), target, arrays=["w2", "b2"], max_coords=90
    )
    assert report.max_rel_error < 1e-7


def test_grad_check_dead_path_is_zero_everywhere():
    # with the loss restricted to condition rows, video-token inputs feed
    # only mask-blocked paths: analytic and numeric gradients must both vanish
    spec = make_spec(1, 2, 2, bg=1, groups=(0,))
    rng = np.random.default_rng(10)
    weights = init_weights(rng, channels=8, text_channels=4, dtype=np.float64)
    x = rng.standard_normal((spec.n_tokens, 8))
    text = rng.standard_normal((spec.text_len, 4))
    target = rng.standard_normal(x.shape)
    cond_rows = np.arange(spec.n_video_tokens, spec.n_tokens)
    report = grad_check(
        weights,
        x,
        text,
        spec,
        AttnConfig(),
        target,
        arrays=["z_tokens"],
        loss_rows=cond_rows,
        check_inputs=True,
        max_coords=120,
        seed=11,
    )
    video_coords = [r for r in report.records if r.index < spec.n_video_tokens * 8]
    assert video_coords
    for rec in video_coords:
        assert abs(rec.analytic) <= 1e-8
        assert abs(rec.numeric) <= 1e-8
    # condition-input coordinates stay live and correct
    cond_coords = [r for r in report.records if r.index >= spec.n_video_tokens * 8]
    assert cond_coords
    assert max(r.rel_error for r in cond_coords) < 1e-3


def test_grad_check_epsilon_range():
    spec = make_spec(1, 1, 2)
    rng = np.random.default_rng(12)
    weights = init_weights(rng, channels=6, text_channels=4, dtype=np.float64)
    x = rng.standard_normal((spec.n_tokens, 6))
    text = np.zeros((0, 4))
    target = np.zeros_like(x)
    with pytest.raises(ValueError):
        grad_check(weights, x, text, spec, AttnConfig(), target, epsilon=1e-6)
    with pytest.raises(ValueError):
        grad_check(weights, x, text, spec, AttnConfig(), target, epsilon=0.5)
    with pytest.raises(ValueError):
        grad_check(weights, x, text, spec, AttnConfig(), target, arrays=["nope"])
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_coords"):
            grad_check(weights, x, text, spec, AttnConfig(), target, max_coords=bad)
    with pytest.raises(ValueError, match="arrays"):
        grad_check(weights, x, text, spec, AttnConfig(), target, arrays=[])


@pytest.mark.parametrize(
    "arrays, check_inputs",
    [(["nope"], False), (["z_tokens"], False), (["wq", "nope"], True), (["b2", "b2"], False)],
)
def test_grad_check_rejects_unknown_names_before_the_forward(arrays, check_inputs):
    # a repeated name checked every coordinate of its array twice
    spec, weights, x, text = _small_problem()
    with mock.patch.object(block, "_forward", wraps=block._forward) as forward:
        with pytest.raises(ValueError, match="unknown array name|each once"):
            grad_check(
                weights, x, text, spec, AttnConfig(), np.zeros_like(x),
                arrays=arrays, check_inputs=check_inputs,
            )
    assert forward.call_count == 0


@pytest.mark.parametrize(
    "fn, kwargs, match",
    [
        (grad_check, {"max_coords": 2.5}, "max_coords"),
        (grad_check, {"max_coords": True}, "max_coords"),
        (demo_fit, {"steps": -1}, "steps"),
    ],
    ids=["fractional-max_coords", "boolean-max_coords", "negative-steps"],
)
def test_bad_counts_are_rejected_before_the_forward(fn, kwargs, match):
    # a fractional or boolean max_coords raised numpy's TypeError after the
    # analytic pass, and steps=-1 returned one loss, not steps + 1
    spec, weights, x, text = _small_problem()
    args = (weights, x, text, spec, AttnConfig(), np.zeros_like(x)) if fn is grad_check else (spec,)
    with mock.patch.object(block, "_forward", wraps=block._forward) as forward:
        with pytest.raises(ValueError, match=match):
            fn(*args, **kwargs)
    assert forward.call_count == 0


@pytest.mark.parametrize(
    "rows",
    [np.array([], dtype=int), np.array([0.5]), np.array([4]), np.array([-1]), np.array([1, 1])],
    ids=["empty", "fractional", "past-end", "negative", "repeated"],
)
def test_loss_rows_must_select_existing_rows(rows):
    spec = make_spec(1, 1, 2, bg=1)
    rng = np.random.default_rng(13)
    weights = init_weights(rng, channels=6, text_channels=4, dtype=np.float64)
    x = rng.standard_normal((spec.n_tokens, 6))
    text = rng.standard_normal((spec.text_len, 4))
    assert spec.n_tokens == 4
    with pytest.raises(ValueError, match="loss_rows"):
        loss_and_gradients(weights, x, text, spec, AttnConfig(), np.zeros_like(x), loss_rows=rows)


def _small_problem():
    spec = make_spec(1, 1, 2, bg=1)
    rng = np.random.default_rng(14)
    weights = init_weights(rng, channels=6, text_channels=4, dtype=np.float64)
    x = rng.standard_normal((spec.n_tokens, 6))
    text = rng.standard_normal((spec.text_len, 4))
    return spec, weights, x, text


def _bad_target(kind, x):
    if kind == "column":  # would broadcast over every channel
        return np.zeros((x.shape[0], 1))
    if kind == "channels":
        return np.zeros(x.shape[1])
    if kind == "one-row":
        return np.zeros((1, x.shape[1]))
    target = np.zeros_like(x)
    target[1, 2] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return target


@pytest.mark.parametrize("fn", [loss_and_gradients, grad_check])
@pytest.mark.parametrize("kind", ["column", "channels", "one-row", "nan", "inf", "-inf"])
def test_bad_target_is_rejected(fn, kind):
    spec, weights, x, text = _small_problem()
    shape = kind in ("column", "channels", "one-row")
    what = r"target must be \(4, 6\)" if shape else "target contains non-finite entries"
    with pytest.raises(ValueError, match=what):
        fn(weights, x, text, spec, AttnConfig(), _bad_target(kind, x))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_z_tokens_rejected_by_name(setup, bad):
    spec, weights, x, text = setup
    x = x.copy()
    x[-1, 3] = bad
    with pytest.raises(ValueError, match="z_tokens contains non-finite entries"):
        block_forward(weights, x, text, spec, AttnConfig())
    spec, weights, x, text = _small_problem()
    x[0, 0] = bad
    with pytest.raises(ValueError, match="z_tokens contains non-finite entries"):
        loss_and_gradients(weights, x, text, spec, AttnConfig(), np.zeros_like(x))


@pytest.mark.parametrize("fn", [loss_and_gradients, grad_check])
def test_overflowing_loss_is_rejected_before_the_backward(fn):
    # the output stays finite, near 3e300, but its square overflows
    spec = make_spec(1, 2, 3, bg=1, groups=(1,))
    rng = np.random.default_rng(18)
    weights = init_weights(rng, channels=6, text_channels=5, dtype=np.float64)
    weights.w2[...] = 1e300
    x = rng.standard_normal((spec.n_tokens, 6))
    text = rng.standard_normal((spec.text_len, 5))
    assert np.isfinite(block_forward(weights, x, text, spec, AttnConfig())).all()
    with pytest.raises(ValueError, match="non-finite loss"):
        fn(weights, x, text, spec, AttnConfig(), np.zeros_like(x))


@pytest.mark.parametrize("forward", [block_forward, plain_block_forward])
def test_overflowing_forward_is_rejected(setup, forward):
    # finite float32 weights whose products overflow: both entry points keep
    # the kernels' one rule for a non-finite output, and its message
    spec, weights, x, text = setup
    big = BlockWeights(**{k: v * np.float32(1e30) for k, v in weights.arrays().items()})
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite output: the inputs overflow"):
        forward(big, x, text, spec, AttnConfig())


@pytest.mark.parametrize(
    "spec, tiles",
    [
        (make_spec(1, 1, 43, objs=2), (True, False)),
        (make_spec(1, 1, 257, bg=1), (False, True)),
        (make_spec(1, 1, 641, text_len=4), (True, True)),
    ],
)
def test_float32_forward_with_one_row_tiles_matches_float64(spec, tiles):
    # a walk's last tile holds one row: the float32 cross-attention's when
    # n = 1 mod _CROSS_TILE, and the self-attention's over a block of
    # 1 mod _tile_rows(block width) rows
    cross = spec.text_len > 0 and spec.n_tokens % attention._CROSS_TILE == 1
    ends = {(b.q1 - b.q0) % attention._tile_rows(b.k1 - b.k0) for b in build_csam(spec).blocks}
    assert (cross, 1 in ends) == tiles
    rng = np.random.default_rng(19)
    w = init_weights(rng, 16, 12)
    x = rng.standard_normal((spec.n_tokens, 16)).astype(np.float32)
    text = rng.standard_normal((spec.text_len, 12)).astype(np.float32)
    w64, x64, t64 = w.astype(np.float64), x.astype(np.float64), text.astype(np.float64)
    want = block_forward(w64, x64, t64, spec, AttnConfig())
    got = block_forward(w, x, text, spec, AttnConfig())
    assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


@pytest.mark.parametrize("entry", [block_forward, loss_and_gradients])
def test_a_block_without_heads_is_rejected(entry):
    spec, _, x, text = _small_problem()
    args = (x, text, spec, AttnConfig(), np.zeros_like(x))[: 4 if entry is block_forward else 5]
    with pytest.raises(ValueError, match="at least one head"):
        entry(init_weights(np.random.default_rng(0), 6, 4, n_heads=0, dtype=np.float64), *args)


def test_residual_sum_turns_negative_zeros_positive(setup):
    # a GEMM may sum signed zeros into -0.0: the first residual sum is still
    # zeros + sum_h a_h wo[h] + x, in that order, so x's -0.0 become +0.0
    spec, weights, x, text = setup
    cfg = AttnConfig()
    w = weights.copy()
    w.wo[...] = -0.0
    x = x.copy()
    x[::3, ::2] = -0.0
    inputs, layer_norm = [], block._layer_norm

    def spy(v):
        inputs.append(v.copy())
        return layer_norm(v)

    with mock.patch.object(block, "_layer_norm", spy):
        y = block_forward(w, x, text, spec, cfg)
    w, x, text, plan = block._prepare(w, x, text, spec, cfg)
    u = layer_norm(x)[0]
    x1 = np.zeros_like(x)
    for h in range(w.n_heads):
        x1 += masked_self_attention_blockwise(*block._self_qkv(w, h, u, plan.rot), plan.blocks) @ w.wo[h]
    x1 += x
    assert not np.signbit(x1[::3, ::2]).any()
    assert inputs[1].tobytes() == x1.tobytes()  # the cross-attention's input
    # the rest of the block reads x1 only
    assert y.tobytes() == block_forward(w, x + 0.0, text, spec, cfg).tobytes()


@pytest.mark.parametrize(
    "entry", ["block_forward32", "block_forward64", "plain_block_forward", "loss_and_gradients", "grad_check"]
)
def test_entry_points_leave_their_inputs_unchanged(entry):
    # read-only inputs make a stray in-place write raise instead of
    # corrupting the caller's arrays; the copies catch any other change
    spec = make_spec(1, 2, 3, bg=1, groups=(1,))
    rng = np.random.default_rng(15)
    dtype = np.float32 if entry == "block_forward32" else np.float64
    weights = init_weights(rng, channels=6, text_channels=4, hidden=8, dtype=dtype)
    x = rng.standard_normal((spec.n_tokens, 6)).astype(dtype)
    text = rng.standard_normal((spec.text_len, 4)).astype(dtype)
    target = rng.standard_normal(x.shape)
    inputs = {"z_tokens": x, "text": text, "target": target, **weights.arrays()}
    before = {name: arr.copy() for name, arr in inputs.items()}
    for arr in inputs.values():
        arr.flags.writeable = False
    cfg = AttnConfig(d=2)
    if entry.startswith("block_forward"):
        block_forward(weights, x, text, spec, cfg)
    elif entry == "plain_block_forward":
        plain_block_forward(weights, x, text, spec, cfg)
    elif entry == "loss_and_gradients":
        loss_and_gradients(weights, x, text, spec, cfg, target)
        loss_and_gradients(weights, x, text, spec, cfg, target, loss_rows=np.array([0, 3]))
    else:
        for name in ("z_tokens", "text", "w1"):
            report = grad_check(
                weights, x, text, spec, cfg, target, max_coords=4, arrays=[name], check_inputs=True
            )
            assert report.max_rel_error <= 1e-3
    for name, arr in inputs.items():
        assert arr.tobytes() == before[name].tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_is_the_closed_form_bit_for_bit(dtype):
    rng = np.random.default_rng(16)
    x = np.concatenate([
        np.zeros(16),
        -np.abs(rng.standard_normal(1024)),
        rng.standard_normal(1024) * 3.0,
        rng.uniform(-1e4, 1e4, 1024),
        [1e4, -1e4, 1e-30, -1e-30],
    ]).astype(dtype).reshape(-1, 4)
    keep = x.copy()
    want = 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))
    got = _gelu(x)
    assert got.dtype == dtype and got.tobytes() == want.tobytes()
    assert x.tobytes() == keep.tobytes()
    # in place, as the untaped forward runs it over the MLP pre-activation
    assert _gelu(x, out=x) is x and x.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_backward_is_the_closed_form_bit_for_bit(dtype):
    rng = np.random.default_rng(17)
    gy, y = (rng.standard_normal((64, 12)).astype(dtype) for _ in range(2))
    inv = rng.uniform(0.5, 2.0, (64, 1)).astype(dtype)
    # the row means are GEMMs against a column of 1/C, in place as in the
    # closed form, and within a few ulps of numpy's means
    col = np.full((12, 1), 1 / 12, dtype=dtype)
    want = inv * (gy - gy @ col - y * ((gy * y) @ col))
    got = _layer_norm_bwd(gy.copy(), y, inv)
    assert got.tobytes() == want.tobytes()
    means = inv * (gy - gy.mean(axis=1, keepdims=True) - y * (gy * y).mean(axis=1, keepdims=True))
    assert np.abs(got - means).max() <= 16 * np.finfo(dtype).eps * np.abs(means).max()


def test_grad_check_multiple_seeds():
    spec = make_spec(1, 2, 2, groups=(1,))
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        weights = init_weights(rng, channels=8, text_channels=6, dtype=np.float64)
        x = rng.standard_normal((spec.n_tokens, 8))
        text = rng.standard_normal((spec.text_len, 6))
        target = rng.standard_normal(x.shape)
        report = grad_check(
            weights, x, text, spec, AttnConfig(), target, max_coords=60, seed=seed
        )
        assert report.max_rel_error < 1e-3, seed


# --- demo trainer ------------------------------------------------------------


def test_demo_fit_reduces_loss_quickly():
    spec = make_spec(1, 2, 2, groups=(0,))
    losses = demo_fit(spec, seed=0, steps=40)
    assert losses[-1] < losses[0] * 0.5
    assert len(losses) == 41


def test_weights_validation():
    rng = np.random.default_rng(13)
    w = init_weights(rng, channels=6, text_channels=4)
    bad = w.arrays()
    bad["wq"] = np.full_like(bad["wq"], np.nan)
    with pytest.raises(ValueError):
        BlockWeights(**bad)


def test_grad_check_pooling_ragged_on_both_axes_across_frames():
    # d=2 over a 3 x 5 grid leaves ragged patches on both axes, and the
    # background, face and attribute frames each pool separately
    spec = make_spec(2, 3, 5, bg=1, groups=(1,))
    rng = np.random.default_rng(14)
    weights = init_weights(rng, channels=8, text_channels=6, dtype=np.float64)
    x = rng.standard_normal((spec.n_tokens, 8))
    text = rng.standard_normal((spec.text_len, 6))
    target = rng.standard_normal(x.shape)
    report = grad_check(
        weights,
        x,
        text,
        spec,
        AttnConfig(d=2),
        target,
        arrays=["cq", "ck", "z_tokens", "text"],
        check_inputs=True,
        max_coords=200,
        seed=15,
    )
    assert report.n_coords == 200
    assert report.max_rel_error < 1e-3
