import numpy as np
import pytest
from hypothesis import given, strategies as st

from relattn.corpus import builtin_corpus, make_spec
from relattn.masks import (
    Block,
    build_csam,
    build_mcam,
    write_csam_csv,
    write_csam_pgm,
    write_mcam_csv,
    write_mcam_pgm,
)
from relattn.reference import decompose_blocks, text_level_of

from oracles import csam_oracle, mcam_oracle


@pytest.fixture(scope="module")
def showcase():
    return make_spec(2, 4, 4, bg=1, objs=1, groups=(1, 1))


def test_csam_video_rows_all_true(showcase):
    bits = build_csam(showcase).bits
    assert bits[: showcase.n_video_tokens].all()


def test_csam_condition_rows_blocked_from_video(showcase):
    bits = build_csam(showcase).bits
    assert not bits[showcase.n_video_tokens :, : showcase.n_video_tokens].any()


def test_csam_group_is_one_branch(showcase):
    bits = build_csam(showcase).bits
    face = showcase.entity_range(2)[0]
    attr = showcase.entity_range(3)[0]
    other_face = showcase.entity_range(4)[0]
    bg = showcase.entity_range(0)[0]
    assert bits[face, attr] and bits[attr, face]
    assert not bits[face, other_face]
    assert not bits[bg, face]
    assert not bits[bg, 0]  # background query x video key


def test_csam_reflexive_and_asymmetric(showcase):
    bits = build_csam(showcase).bits
    assert bits.diagonal().all()
    nv = showcase.n_video_tokens
    assert bits[0, nv] and not bits[nv, 0]


def test_csam_matches_oracle_showcase(showcase):
    np.testing.assert_array_equal(build_csam(showcase).bits, csam_oracle(showcase))


def test_mcam_matches_oracle_showcase(showcase):
    np.testing.assert_array_equal(build_mcam(showcase).levels, mcam_oracle(showcase))


def test_mcam_examples(showcase):
    levels = build_mcam(showcase).levels
    obj = showcase.entity_range(1)[0]
    obj_span = showcase.entities[1].span
    assert levels[obj, obj_span[0]] == 1
    attr_g1 = showcase.entity_range(5)[0]
    face_g0_span = showcase.entities[2].span
    assert levels[attr_g1, face_g0_span[0]] == -1
    bg = showcase.entity_range(0)[0]
    assert levels[bg, showcase.text_len - 1] == 0  # past every span
    assert not levels[: showcase.n_video_tokens].any()


def test_mcam_equals_pairwise_rule(showcase):
    levels = build_mcam(showcase).levels
    for v in range(showcase.n_tokens):
        for t in range(showcase.text_len):
            assert levels[v, t] == text_level_of(showcase, v, t)


def test_mcam_group_rows_identical_on_other_group_columns(showcase):
    levels = build_mcam(showcase).levels
    for g, members in enumerate(showcase.groups):
        cols = np.zeros(showcase.text_len, dtype=bool)
        for g2, members2 in enumerate(showcase.groups):
            if g2 != g:
                for m in members2:
                    span = showcase.entities[m].span
                    if span:
                        cols[span[0] : span[1]] = True
        rows = np.concatenate(
            [levels[slice(*showcase.entity_range(m))][:, cols] for m in members]
        )
        assert (rows == rows[0]).all()


def test_masks_match_oracles_across_corpus():
    for name, spec in builtin_corpus():
        np.testing.assert_array_equal(build_csam(spec).bits, csam_oracle(spec), err_msg=name)
        np.testing.assert_array_equal(build_mcam(spec).levels, mcam_oracle(spec), err_msg=name)


def test_pure_t2v_mask_is_all_true():
    spec = make_spec(2, 2, 2)
    mask = build_csam(spec)
    assert mask.bits.all()
    assert mask.blocks == (Block(0, 8, 0, 8),)


def test_block_decomposition_expected():
    # frozen expectation, cross-checked against the dense oracle
    spec = make_spec(2, 4, 4, bg=1, groups=(1,))
    mask = build_csam(spec)
    assert mask.blocks == (
        Block(q0=0, q1=32, k0=0, k1=80),
        Block(q0=32, q1=48, k0=32, k1=48),
        Block(q0=48, q1=80, k0=48, k1=80),
    )
    np.testing.assert_array_equal(mask.bits, csam_oracle(spec))


def test_all_true_mask_single_block():
    blocks = decompose_blocks(np.ones((4, 4), dtype=bool))
    assert blocks == [Block(0, 4, 0, 4)]


def test_identity_mask_singleton_blocks():
    blocks = decompose_blocks(np.eye(5, dtype=bool))
    assert blocks == [Block(i, i + 1, i, i + 1) for i in range(5)]


def test_all_false_rows_stay_uncovered():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    blocks = decompose_blocks(mask)
    assert blocks == [Block(1, 2, 1, 2)]


def test_block_validation():
    with pytest.raises(ValueError):
        Block(2, 2, 0, 1)
    with pytest.raises(ValueError):
        Block(-1, 2, 0, 1)


@given(st.integers(0, 2**31 - 1), st.integers(1, 12), st.integers(1, 12))
def test_decompose_reproduces_any_mask(seed, rows, cols):
    rng = np.random.default_rng(seed)
    mask = rng.random((rows, cols)) < 0.4
    blocks = decompose_blocks(mask)
    rebuilt = np.zeros_like(mask)
    for b in blocks:
        assert not rebuilt[b.q0 : b.q1, b.k0 : b.k1].any()  # disjoint
        rebuilt[b.q0 : b.q1, b.k0 : b.k1] = True
    np.testing.assert_array_equal(rebuilt, mask)


def test_adjacent_rows_with_same_runs_merge():
    mask = np.zeros((4, 6), dtype=bool)
    mask[0:3, 1:4] = True
    mask[3, 4:6] = True
    blocks = decompose_blocks(mask)
    assert blocks == [Block(0, 3, 1, 4), Block(3, 4, 4, 6)]


def test_csv_exports(tmp_path, showcase):
    csam = build_csam(showcase)
    mcam = build_mcam(showcase)
    p1, p2 = tmp_path / "csam.csv", tmp_path / "mcam.csv"
    write_csam_csv(p1, csam)
    write_mcam_csv(p2, mcam)
    lines = p1.read_bytes().decode().splitlines()
    assert lines[0].startswith("c0,c1")
    grid = np.array([[int(v) for v in row.split(",")] for row in lines[1:]])
    np.testing.assert_array_equal(grid.astype(bool), csam.bits)
    rows = p2.read_bytes().decode().splitlines()[1:]
    grid = np.array([[int(v) for v in row.split(",")] for row in rows])
    np.testing.assert_array_equal(grid, mcam.levels)
    assert b"\r" not in p1.read_bytes()


def test_pgm_exports(tmp_path, showcase):
    csam = build_csam(showcase)
    mcam = build_mcam(showcase)
    p1, p2 = tmp_path / "csam.pgm", tmp_path / "mcam.pgm"
    write_csam_pgm(p1, csam)
    write_mcam_pgm(p2, mcam)
    raw = p1.read_bytes()
    header = f"P5\n{csam.n} {csam.n}\n255\n".encode()
    assert raw.startswith(header)
    pixels = np.frombuffer(raw[len(header) :], dtype=np.uint8).reshape(csam.n, csam.n)
    assert set(np.unique(pixels)) <= {0, 255}
    np.testing.assert_array_equal(pixels == 255, csam.bits)
    raw2 = p2.read_bytes()
    body = raw2.split(b"\n", 3)[3]
    vals = set(np.unique(np.frombuffer(body, dtype=np.uint8)))
    assert vals <= {0, 128, 255}
    assert len(raw2) == len(f"P5\n{showcase.text_len} {csam.n}\n255\n") + csam.n * showcase.text_len


def test_exports_byte_stable(tmp_path, showcase):
    csam = build_csam(showcase)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csam_csv(a, csam)
    write_csam_csv(b, build_csam(showcase))
    assert a.read_bytes() == b.read_bytes()
