import numpy as np
import pytest
from hypothesis import given, strategies as st

from relattn.corpus import builtin_corpus, make_spec
from relattn.rotary import default_split, position_array, rotary_table, rotate

from oracles import positions_oracle


def rotated(x, pos, head_dim):
    """``x`` rotated by the ``head_dim`` table of the (i, j, k) rows of
    ``pos``, in the dtype of ``x``."""
    return rotate(x, *rotary_table(np.asarray(pos), head_dim, x.dtype))


def test_assign_positions_examples():
    spec = make_spec(2, 4, 4, bg=1, objs=1, groups=(1,))
    pos = position_array(spec).tolist()
    nv = spec.n_video_tokens
    hw = spec.hw
    assert pos[nv] == [2, 0, 0]  # background (row 0, col 0)
    assert pos[nv + hw] == [3, 0, 0]  # object
    assert pos[nv + 2 * hw + 1 * 4 + 2] == [4, 2, 1]  # face (row 1, col 2)
    assert pos[nv + 3 * hw + 1 * 4 + 2] == [4, 6, 5]  # its attribute
    assert pos[1 * hw + 3 * 4 + 3] == [1, 3, 3]  # video frame 1 row 3 col 3


def test_positions_match_oracle_and_unique():
    for name, spec in builtin_corpus():
        got = [tuple(p) for p in position_array(spec).tolist()]
        assert got == positions_oracle(spec), name
        assert len(set(got)) == spec.n_tokens, name


def test_default_split():
    assert default_split(8) == (4, 2, 2)
    assert default_split(12) == (4, 4, 4)
    assert default_split(16) == (8, 4, 4)
    assert default_split(6) == (2, 2, 2)
    with pytest.raises(ValueError):
        default_split(4)
    with pytest.raises(ValueError):
        default_split(7)
    for bad in (8.0, True, "8"):  # the split of 8.0 would be (4.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            default_split(bad)


def test_zero_position_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 8)).astype(np.float32)
    out = rotated(x, [(0, 0, 0)] * 3, 8)
    np.testing.assert_array_equal(out, x)


def test_norm_preserved():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 16)).astype(np.float32)
    pos = rng.integers(0, 30, (20, 3))
    out = rotated(x, pos, 16)
    n0 = np.linalg.norm(x, axis=1)
    n1 = np.linalg.norm(out, axis=1)
    assert np.max(np.abs(n1 - n0) / n0) < 1e-6


def test_inverse_round_trip():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 8))
    cos, sin = rotary_table(rng.integers(0, 9, (5, 3)), 8, x.dtype)
    back = rotate(rotate(x, cos, sin), cos, -sin)
    assert np.max(np.abs(back - x)) < 1e-12


def test_relative_shift_invariance():
    # rotated dot products depend only on per-axis coordinate differences:
    # brute-force over a 3x3x3 grid of common offsets
    for seed in range(5):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((1, 16))
        k = rng.standard_normal((1, 16))
        p1, p2 = (2, 5, 1), (7, 0, 4)
        ref = None
        for di in range(3):
            for dj in range(3):
                for dk in range(3):
                    a = (p1[0] + di, p1[1] + dj, p1[2] + dk)
                    b = (p2[0] + di, p2[1] + dj, p2[2] + dk)
                    dot = (rotated(q, [a], 16) @ rotated(k, [b], 16).T).item()
                    if ref is None:
                        ref = dot
                    else:
                        assert abs(dot - ref) / max(abs(ref), 1e-9) < 1e-5


def test_shape_validation():
    with pytest.raises(ValueError):
        rotated(np.zeros((2, 6)), [(0, 0, 0)] * 2, 8)
    with pytest.raises(ValueError):
        rotated(np.zeros((2, 8)), [(0, 0, 0)], 8)
    for pos in ([(0, 0)] * 2, [0, 0, 0], [(0, 0, np.nan)] * 2, [(np.inf, 0, 0)] * 2):
        with pytest.raises(ValueError):
            rotary_table(np.asarray(pos), 8, np.float64)


def test_positions_as_array():
    arr = position_array(make_spec(1, 1, 2, objs=1))
    assert arr.dtype == np.int64
    np.testing.assert_array_equal(arr, [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]])


@given(
    st.integers(0, 2),
    st.lists(st.integers(0, 50), min_size=3, max_size=3),
    st.integers(0, 2**31 - 1),
)
def test_isometry_property(dim_choice, coords, seed):
    head_dim = (8, 12, 16)[dim_choice]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, head_dim))
    out = rotated(x, [coords], head_dim)
    assert abs(np.linalg.norm(out) - np.linalg.norm(x)) < 1e-9 * max(1.0, np.linalg.norm(x))
