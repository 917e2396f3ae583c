import numpy as np
import pytest
from hypothesis import given, strategies as st

from relattn.attention import AttnConfig, masked_self_attention_blockwise
from relattn.corpus import make_spec
from relattn.masks import Block, CsamMask, build_csam, build_mcam
from relattn.reference import (
    compute_scaling_s,
    decompose_blocks,
    masked_self_attention_naive,
    relational_cross_attention,
    standard_attention,
)

from oracles import attention_oracle, scaling_oracle


def rnd(shape, seed=0, dtype=np.float32):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def full_mask(n):
    bits = np.ones((n, n), dtype=bool)
    return CsamMask(n=n, blocks=tuple(decompose_blocks(bits)))


# --- standard attention ------------------------------------------------------


def test_standard_single_pair_returns_value_row():
    Q, K, V = rnd((1, 4), 1), rnd((1, 4), 2), rnd((1, 3), 3)
    np.testing.assert_array_equal(standard_attention(Q, K, V), V)


def test_standard_logit_shift_invariance():
    # appending a constant column to Q and a ones column to K shifts every
    # logit of a row by the same constant; weights must not move.  Q2 is
    # widened by sqrt(5 / 4), so that its default scale 1/sqrt(5) acts as Q's
    Q, K, V = rnd((3, 4), 1), rnd((5, 4), 2), rnd((5, 2), 3)
    _, w = standard_attention(Q, K, V, return_weights=True)
    Q2 = np.hstack([Q, np.full((3, 1), 7.0, dtype=np.float32)]) * np.float32(np.sqrt(5 / 4))
    K2 = np.hstack([K, np.ones((5, 1), dtype=np.float32)])
    _, w2 = standard_attention(Q2, K2, V, return_weights=True)
    assert np.max(np.abs(w - w2)) < 1e-6
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-6


def test_standard_matches_oracle():
    Q, K, V = rnd((3, 3), 4), rnd((3, 3), 5), rnd((3, 3), 6)
    out = standard_attention(Q, K, V)
    ref = attention_oracle(Q, K, V)
    assert np.max(np.abs(out - ref)) < 1e-6


def test_standard_validates():
    with pytest.raises(ValueError):
        standard_attention(rnd((2, 3)), rnd((2, 4)), rnd((2, 3)))
    with pytest.raises(ValueError):
        standard_attention(rnd((2, 3)), rnd((0, 3)), rnd((0, 3)))


# --- dense masked kernel -----------------------------------------------------


def test_naive_single_token():
    mask = full_mask(1)
    V = rnd((1, 5), 7)
    out = masked_self_attention_naive(rnd((1, 4), 8), rnd((1, 4), 9), V, mask)
    np.testing.assert_array_equal(out, V)


def test_naive_uniform_weights_give_column_mean():
    n = 6
    Q = np.ones((n, 4), dtype=np.float32)
    K = np.ones((n, 4), dtype=np.float32)
    V = rnd((n, 3), 10)
    out = masked_self_attention_naive(Q, K, V, full_mask(n))
    np.testing.assert_allclose(out, np.tile(V.mean(axis=0), (n, 1)), atol=1e-6)


def test_naive_matches_oracle_two_branch():
    spec = make_spec(1, 1, 2, bg=1, groups=(0,))  # 6 tokens, video + 2 branches
    assert spec.n_tokens == 6
    mask = build_csam(spec)
    Q, K, V = rnd((6, 4), 11), rnd((6, 4), 12), rnd((6, 3), 13)
    out = masked_self_attention_naive(Q, K, V, mask)
    ref = attention_oracle(Q, K, V, bits=mask.bits)
    assert np.max(np.abs(out - ref)) / np.max(np.abs(ref)) < 1e-5


def test_naive_masked_weights_exactly_zero():
    spec = make_spec(1, 2, 2, bg=1, objs=1)
    mask = build_csam(spec)
    _, w = masked_self_attention_naive(
        rnd((mask.n, 4), 14), rnd((mask.n, 4), 15), rnd((mask.n, 2), 16), mask, return_weights=True
    )
    assert (w[~mask.bits] == 0.0).all()
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-6


def test_naive_validates():
    mask = full_mask(2)
    with pytest.raises(ValueError):
        masked_self_attention_naive(rnd((3, 4)), rnd((2, 4)), rnd((2, 4)), mask)
    bad = rnd((2, 4)).copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        masked_self_attention_naive(bad, rnd((2, 4)), rnd((2, 4)), mask)
    empty_row = np.ones((2, 2), dtype=bool)
    empty_row[1] = False
    with pytest.raises(ValueError, match="no admissible key"):
        masked_self_attention_naive(
            rnd((2, 4)), rnd((2, 4)), rnd((2, 4)), CsamMask(2, decompose_blocks(empty_row))
        )


# --- blockwise kernel --------------------------------------------------------


def test_blockwise_single_cover_equals_unmasked():
    n = 7
    Q, K, V = rnd((n, 4), 17), rnd((n, 4), 18), rnd((n, 3), 19)
    out = masked_self_attention_blockwise(Q, K, V, [Block(0, n, 0, n)])
    ref = standard_attention(Q, K, V)
    assert np.max(np.abs(out - ref)) < 1e-6


def test_blockwise_matches_naive_on_csam():
    spec = make_spec(1, 1, 5, groups=(0,))  # 10 tokens
    mask = build_csam(spec)
    Q, K, V = rnd((mask.n, 8), 20), rnd((mask.n, 8), 21), rnd((mask.n, 4), 22)
    out = masked_self_attention_blockwise(Q, K, V, mask.blocks)
    ref = masked_self_attention_naive(Q, K, V, mask)
    assert np.max(np.abs(out - ref)) / np.max(np.abs(ref)) < 1e-5


def test_blockwise_order_invariant():
    spec = make_spec(2, 2, 2, bg=1, objs=2, groups=(1,))
    mask = build_csam(spec)
    Q, K, V = rnd((mask.n, 8), 23), rnd((mask.n, 8), 24), rnd((mask.n, 4), 25)
    a = masked_self_attention_blockwise(Q, K, V, mask.blocks)
    for perm_seed in range(3):
        order = np.random.default_rng(perm_seed).permutation(len(mask.blocks))
        b = masked_self_attention_blockwise(Q, K, V, [mask.blocks[i] for i in order])
        assert np.max(np.abs(a - b)) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cover", ["derived", "split"])
def test_blockwise_leaves_its_inputs_as_they_are(dtype, cover):
    spec = make_spec(1, 2, 3, bg=1, groups=(1,))
    n = spec.n_tokens
    blocks = build_csam(spec).blocks
    if cover == "split":  # no row sees key 5, so each row lies in two blocks
        bits = np.ones((n, n), dtype=bool)
        bits[:, 5] = False
        blocks = tuple(decompose_blocks(bits))
        assert sum(b.q1 - b.q0 for b in blocks) == 2 * n
    Q, K, V = rnd((n, 4), 31, dtype), rnd((n, 4), 32, dtype), rnd((n, 4), 33, dtype)
    before = [a.tobytes() for a in (Q, K, V)]
    out = masked_self_attention_blockwise(Q, K, V, blocks)
    assert [a.tobytes() for a in (Q, K, V)] == before
    ref = masked_self_attention_naive(Q, K, V, CsamMask(n, blocks))
    assert np.max(np.abs(out - ref)) < 1e-6
    # one array as queries, keys and values: no output overwrites the keys
    X = Q.copy()
    out = masked_self_attention_blockwise(X, X, X, blocks)
    assert X.tobytes() == before[0]
    assert out.tobytes() == masked_self_attention_blockwise(Q, Q.copy(), Q.copy(), blocks).tobytes()


def test_blockwise_rejects_overlap_and_gap():
    n = 4
    Q = K = V = rnd((n, 2), 26)
    with pytest.raises(ValueError, match="overlapping"):
        masked_self_attention_blockwise(Q, K, V, [Block(0, 4, 0, 4), Block(1, 2, 1, 2)])
    with pytest.raises(ValueError, match="covered by no block"):
        masked_self_attention_blockwise(Q, K, V, [Block(0, 2, 0, 4)])
    with pytest.raises(ValueError, match="exceeds"):
        masked_self_attention_blockwise(Q, K, V, [Block(0, 5, 0, 4)])


# --- behavioral isolation ----------------------------------------------------


def test_branch_isolation_and_video_omniscience():
    spec = make_spec(2, 3, 3, bg=1, groups=(1, 1))
    mask = build_csam(spec)
    n = mask.n
    rng = np.random.default_rng(27)
    Q, K, V = (rng.standard_normal((n, 8)).astype(np.float32) for _ in range(3))
    base = masked_self_attention_naive(Q, K, V, mask)
    nv = spec.n_video_tokens

    K2, V2 = K.copy(), V.copy()
    K2[:nv] = rng.standard_normal((nv, 8)).astype(np.float32)
    V2[:nv] = rng.standard_normal((nv, 8)).astype(np.float32)
    out = masked_self_attention_naive(Q, K2, V2, mask)
    assert np.max(np.abs(out[nv:] - base[nv:])) <= 1e-6
    assert np.max(np.abs(out[:nv] - base[:nv])) > 1e-3

    g0 = slice(*spec.entity_range(1))  # face of group 0
    g1_rows = slice(spec.entity_range(3)[0], spec.entity_range(4)[1])
    K3, V3 = K.copy(), V.copy()
    K3[g0] += 1.0
    V3[g0] += 1.0
    out3 = masked_self_attention_naive(Q, K3, V3, mask)
    assert np.max(np.abs(out3[g1_rows] - base[g1_rows])) <= 1e-6


# --- scaling matrix ----------------------------------------------------------


def test_scaling_d1_exact():
    spec = make_spec(1, 3, 3, objs=1)
    Q, Kt = rnd((spec.n_tokens, 6), 28), rnd((4, 6), 29)
    np.testing.assert_array_equal(compute_scaling_s(Q, Kt, spec, 1), np.abs(Q @ Kt.T))


def test_scaling_patch_constant():
    spec = make_spec(1, 4, 4, bg=1)
    rng = np.random.default_rng(30)
    per_frame = rng.standard_normal((spec.T + spec.n_entities, 6))
    Q = np.repeat(per_frame, spec.hw, axis=0)
    Kt = rng.standard_normal((5, 6))
    s = compute_scaling_s(Q, Kt, spec, 2)
    assert np.max(np.abs(s - np.abs(Q @ Kt.T))) < 1e-6


def test_scaling_matches_stepwise_oracle():
    spec = make_spec(1, 4, 4, groups=(0,))
    Q, Kt = rnd((spec.n_tokens, 6), 31), rnd((3, 6), 32)
    s = compute_scaling_s(Q, Kt, spec, 2)
    ref = scaling_oracle(Q, Kt, spec, 2)
    assert np.max(np.abs(s.astype(np.float64) - ref)) < 1e-6
    assert (s >= 0).all()


def test_scaling_ragged_matches_oracle():
    spec = make_spec(1, 5, 7, bg=1)
    Q, Kt = rnd((spec.n_tokens, 4), 33), rnd((6, 4), 34)
    for d in (2, 3, 8):
        s = compute_scaling_s(Q, Kt, spec, d)
        ref = scaling_oracle(Q, Kt, spec, d)
        assert np.max(np.abs(s.astype(np.float64) - ref)) < 1e-6, d


def test_scaling_validates():
    spec = make_spec(1, 2, 2)
    with pytest.raises(ValueError):
        compute_scaling_s(rnd((spec.n_tokens, 4)), rnd((2, 4)), spec, 0)
    with pytest.raises(ValueError):
        compute_scaling_s(rnd((spec.n_tokens + 1, 4)), rnd((2, 4)), spec, 2)
    with pytest.raises(ValueError):
        compute_scaling_s(rnd((spec.n_tokens, 4)), rnd((2, 5)), spec, 2)
    # AttnConfig's rule: True was taken as 1, and 2.5 raised numpy's TypeError
    for d in (True, 2.5):
        with pytest.raises(ValueError, match="d must be an integer >= 1"):
            compute_scaling_s(rnd((spec.n_tokens, 4)), rnd((2, 4)), spec, d)


# --- relational cross-attention ----------------------------------------------


@pytest.fixture()
def cross_setup():
    spec = make_spec(1, 2, 2, groups=(1,))  # 12 visual tokens, 2 entities
    mcam = build_mcam(spec)
    rng = np.random.default_rng(35)
    Q = rng.standard_normal((spec.n_tokens, 8)).astype(np.float32)
    Kt = rng.standard_normal((spec.text_len, 8)).astype(np.float32)
    Vt = rng.standard_normal((spec.text_len, 8)).astype(np.float32)
    s = compute_scaling_s(Q, Kt, spec, 2)
    return spec, mcam, Q, Kt, Vt, s


def test_r_zero_bit_identical(cross_setup):
    spec, mcam, Q, Kt, Vt, s = cross_setup
    out = relational_cross_attention(Q, Kt, Vt, mcam.levels, s, AttnConfig(r=0.0))
    np.testing.assert_array_equal(out, standard_attention(Q, Kt, Vt))


def test_zero_mask_identical(cross_setup):
    spec, mcam, Q, Kt, Vt, s = cross_setup
    zero = np.zeros_like(mcam.levels)
    out = relational_cross_attention(Q, Kt, Vt, zero, s, AttnConfig(r=0.5))
    np.testing.assert_array_equal(out, standard_attention(Q, Kt, Vt))


def test_relational_matches_oracle():
    # 4 visual x 3 text with all three levels present
    levels = np.array([[1, 0, -1], [0, 0, 0], [-1, 1, 0], [0, -1, 1]], dtype=np.int8)
    rng = np.random.default_rng(36)
    Q = rng.standard_normal((4, 5)).astype(np.float32)
    Kt = rng.standard_normal((3, 5)).astype(np.float32)
    Vt = rng.standard_normal((3, 4)).astype(np.float32)
    s = np.abs(rng.standard_normal((4, 3))).astype(np.float32)
    cfg = AttnConfig(r=0.5)
    out = relational_cross_attention(Q, Kt, Vt, levels, s, cfg)
    ref = attention_oracle(Q, Kt, Vt, additive=levels.astype(np.float64) * s * 0.5)
    assert np.max(np.abs(out - ref)) / np.max(np.abs(ref)) < 1e-5


def test_level_raise_strictly_increases_weight(cross_setup):
    spec, mcam, Q, Kt, Vt, s = cross_setup
    cfg = AttnConfig(r=0.5)
    rng = np.random.default_rng(37)
    for _ in range(50):
        qi = int(rng.integers(0, spec.n_tokens))
        ti = int(rng.integers(0, spec.text_len))
        lv = int(mcam.levels[qi, ti])
        if lv == 1 or s[qi, ti] <= 0:
            continue
        bumped = mcam.levels.copy()
        bumped[qi, ti] = lv + 1
        _, w0 = relational_cross_attention(Q, Kt, Vt, mcam.levels, s, cfg, return_weights=True)
        _, w1 = relational_cross_attention(Q, Kt, Vt, bumped, s, cfg, return_weights=True)
        assert w1[qi, ti] > w0[qi, ti]


def test_relational_validates(cross_setup):
    spec, mcam, Q, Kt, Vt, s = cross_setup
    cfg = AttnConfig()
    with pytest.raises(ValueError):
        relational_cross_attention(Q[:-1], Kt, Vt, mcam.levels, s, cfg)
    with pytest.raises(ValueError):
        relational_cross_attention(Q, Kt[:-1], Vt[:-1], mcam.levels, s[:, :-1], cfg)
    bad_s = s.copy()
    bad_s[0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        relational_cross_attention(Q, Kt, Vt, mcam.levels, bad_s, cfg)


def test_attn_config_defaults_and_validation():
    cfg = AttnConfig()
    assert cfg.r == 0.5 and cfg.d == 8
    with pytest.raises(ValueError):
        AttnConfig(r=-0.1)
    with pytest.raises(ValueError):
        AttnConfig(d=0)
    for r in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            AttnConfig(r=r)
    for d in (2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="integer"):
            AttnConfig(d=d)
    assert AttnConfig(r=np.float32(0.25), d=np.int64(4)).d == 4


@pytest.mark.parametrize("d", [True, False])
def test_attn_config_rejects_a_boolean_d(d):
    # bool is an Integral, so d=True would pass as d=1
    with pytest.raises(ValueError, match="integer"):
        AttnConfig(d=d)


@pytest.mark.parametrize("r", [True, False])
def test_attn_config_rejects_a_boolean_r(r):
    # bool is a number, so r=True would pass as r=1
    with pytest.raises(ValueError, match="r must be a number, not a bool"):
        AttnConfig(r=r)


@given(st.integers(0, 2**31 - 1), st.integers(1, 5), st.integers(1, 5))
def test_weight_rows_sum_to_one(seed, nq, nk):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((nq, 4)).astype(np.float32)
    K = rng.standard_normal((nk, 4)).astype(np.float32)
    V = rng.standard_normal((nk, 3)).astype(np.float32)
    _, w = standard_attention(Q, K, V, return_weights=True)
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-6


@given(st.integers(0, 2**31 - 1))
def test_softmax_shift_invariance(seed):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((2, 4)).astype(np.float32)
    K = rng.standard_normal((3, 4)).astype(np.float32)
    V = rng.standard_normal((3, 3)).astype(np.float32)
    _, w = standard_attention(Q, K, V, return_weights=True)
    # adding a per-row constant via the additive path leaves weights unchanged
    ones = np.ones((2, 3), dtype=np.int8)
    s_const = np.full((2, 3), 3.7, dtype=np.float32)
    _, w2 = relational_cross_attention(
        Q, K, V, ones, s_const, AttnConfig(r=1.0), return_weights=True
    )
    assert np.max(np.abs(w - w2)) < 1e-6


# --- one finite-input contract -------------------------------------------------

FINITE_SPEC = make_spec(1, 2, 3, bg=1, groups=(1,))
_N, _L = FINITE_SPEC.n_tokens, FINITE_SPEC.text_len
# kernel -> (rows of each array argument, call on those arrays)
FINITE_KERNELS = {
    "standard_attention": (
        {"Q": _N, "K": _L, "V": _L},
        lambda a: standard_attention(a["Q"], a["K"], a["V"]),
    ),
    "relational_cross_attention": (
        {"Q": _N, "K": _L, "V": _L, "s": _N},
        lambda a: relational_cross_attention(
            a["Q"], a["K"], a["V"], build_mcam(FINITE_SPEC).levels, a["s"], AttnConfig()
        ),
    ),
    "masked_self_attention_blockwise": (
        {"Q": _N, "K": _N, "V": _N},
        lambda a: masked_self_attention_blockwise(
            a["Q"], a["K"], a["V"], build_csam(FINITE_SPEC).blocks
        ),
    ),
    "masked_self_attention_naive": (
        {"Q": _N, "K": _N, "V": _N},
        lambda a: masked_self_attention_naive(a["Q"], a["K"], a["V"], build_csam(FINITE_SPEC)),
    ),
    "compute_scaling_s": (
        {"Q": _N, "K_text": _L},
        lambda a: compute_scaling_s(a["Q"], a["K_text"], FINITE_SPEC, 2),
    ),
}


@pytest.mark.parametrize(
    "kernel, arg", [(k, arg) for k, (rows, _) in FINITE_KERNELS.items() for arg in rows]
)
def test_non_finite_input_rejected(kernel, arg):
    rows, call = FINITE_KERNELS[kernel]
    args = {
        name: rnd((n, _L if name == "s" else 4), seed)
        for seed, (name, n) in enumerate(rows.items())
    }
    assert np.isfinite(call(args)).all()
    args[arg][0, 0] = np.nan
    with pytest.raises(ValueError, match=f"{arg} contains non-finite"):
        call(args)


@pytest.mark.parametrize("dtype, big", [(np.float64, 1e200), (np.float32, 1e30)])
@pytest.mark.parametrize("kernel", FINITE_KERNELS)
def test_overflowing_input_rejected(kernel, dtype, big):
    # finite inputs whose products overflow gave inf or NaN with only a
    # RuntimeWarning, which the suite turns into an error, hence errstate
    rows, call = FINITE_KERNELS[kernel]
    args = {
        name: rnd((n, _L if name == "s" else 4), seed, dtype) * dtype(big)
        for seed, (name, n) in enumerate(rows.items())
    }
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite output"):
        call(args)


@pytest.mark.parametrize(
    "kernel, arg", [(k, arg) for k, (rows, _) in FINITE_KERNELS.items() for arg in rows]
)
def test_integer_input_rejected(kernel, arg):
    rows, call = FINITE_KERNELS[kernel]
    args = {
        name: rnd((n, _L if name == "s" else 4), seed)
        for seed, (name, n) in enumerate(rows.items())
    }
    args[arg] = np.round(args[arg]).astype(np.int32)
    with pytest.raises(ValueError, match=f"{arg} must have a floating dtype, got int32"):
        call(args)
