"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single `ACCEPTANCE <n> <name>: PASS` line on success (use
``pytest -sv tests/test_acceptance.py`` to watch them).
"""

import time

import numpy as np
import pytest

from relattn.attention import AttnConfig, masked_self_attention_blockwise
from relattn.block import demo_fit, flow_interpolate, fm_loss, grad_check, init_weights
from relattn.cli import main
from relattn.corpus import builtin_corpus, corpus_layout, make_spec
from relattn.layout import to_json
from relattn.masks import build_csam, build_mcam
from relattn.reference import (
    compute_scaling_s,
    masked_self_attention_naive,
    relational_cross_attention,
    standard_attention,
)
from relattn.rotary import position_array, rotary_table, rotate

from oracles import csam_oracle, fm_loss_oracle, mcam_oracle, positions_oracle

CORPUS = builtin_corpus()


def _report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_01_mask_oracle_equivalence():
    t0 = time.perf_counter()
    for name, spec in CORPUS:
        np.testing.assert_array_equal(build_csam(spec).bits, csam_oracle(spec), err_msg=name)
        np.testing.assert_array_equal(build_mcam(spec).levels, mcam_oracle(spec), err_msg=name)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"mask oracle sweep took {elapsed:.1f}s"
    _report(1, "mask-oracle-equivalence")


def test_02_position_rule_exhaustive():
    for name, spec in CORPUS:
        got = [tuple(p) for p in position_array(spec).tolist()]
        assert got == positions_oracle(spec), name
        assert len(set(got)) == spec.n_tokens, name
    _report(2, "position-rule-exhaustive")


def test_03_branch_isolation():
    layouts = [(n, s) for n, s in CORPUS if s.n_entities]
    rng = np.random.default_rng(303)
    for trial in range(20):
        name, spec = layouts[trial % len(layouts)]
        mask = build_csam(spec)
        n, nv = spec.n_tokens, spec.n_video_tokens
        Q, K, V = (rng.standard_normal((n, 8)).astype(np.float32) for _ in range(3))
        base = masked_self_attention_naive(Q, K, V, mask)

        K2, V2 = K.copy(), V.copy()
        K2[:nv] = rng.standard_normal((nv, 8)).astype(np.float32)
        V2[:nv] = rng.standard_normal((nv, 8)).astype(np.float32)
        out = masked_self_attention_naive(Q, K2, V2, mask)
        assert np.max(np.abs(out[nv:] - base[nv:])) <= 1e-6, name
        assert np.max(np.abs(out[:nv] - base[:nv])) > 1e-3, name

        if spec.n_branches >= 2:
            first = slice(*spec.entity_range(0))
            if spec.groups and spec.entities[0].kind == "face":
                g0 = spec.groups[0]
                first = slice(
                    spec.entity_range(g0[0])[0], spec.entity_range(g0[-1])[1]
                )
            K3, V3 = K.copy(), V.copy()
            K3[first] += 1.0
            V3[first] += 1.0
            out3 = masked_self_attention_naive(Q, K3, V3, mask)
            rest = np.ones(n, dtype=bool)
            rest[:nv] = False
            rest[first] = False
            assert np.max(np.abs(out3[rest] - base[rest])) <= 1e-6, name
    _report(3, "branch-isolation")


def test_04_block_streaming_equivalence():
    for name, spec in CORPUS:
        mask = build_csam(spec)
        n = spec.n_tokens
        for seed in range(5):
            rng = np.random.default_rng(hash((name, seed)) % 2**32)
            Q, K, V = (rng.standard_normal((n, 8)).astype(np.float32) for _ in range(3))
            ref = masked_self_attention_naive(Q, K, V, mask)
            out = masked_self_attention_blockwise(Q, K, V, mask.blocks)
            rel = np.max(np.abs(out - ref)) / max(np.max(np.abs(ref)), 1e-30)
            assert rel <= 1e-5, (name, seed, rel)
            perm = [mask.blocks[i] for i in rng.permutation(len(mask.blocks))]
            out2 = masked_self_attention_blockwise(Q, K, V, perm)
            assert np.max(np.abs(out2 - out)) <= 1e-6, (name, seed)
    _report(4, "block-streaming-equivalence")


def test_05_scaling_matrix_correctness():
    from oracles import scaling_oracle

    rng = np.random.default_rng(505)
    for trial in range(6):
        spec = make_spec(
            int(rng.integers(1, 3)),
            int(rng.integers(2, 6)),
            int(rng.integers(2, 7)),
            bg=int(rng.integers(0, 2)),
            groups=(int(rng.integers(0, 3)),),
        )
        d = int(rng.integers(1, 9))
        Q = rng.standard_normal((spec.n_tokens, 6))
        Kt = rng.standard_normal((5, 6))
        s = compute_scaling_s(Q, Kt, spec, d)
        assert np.max(np.abs(s - scaling_oracle(Q, Kt, spec, d))) < 1e-6, (trial, d)

        np.testing.assert_array_equal(
            compute_scaling_s(Q, Kt, spec, 1), np.abs(Q @ Kt.T)
        )
        per_frame = rng.standard_normal((spec.T + spec.n_entities, 6))
        Qc = np.repeat(per_frame, spec.hw, axis=0)
        for dd in (2, max(spec.H, spec.W)):
            sc = compute_scaling_s(Qc, Kt, spec, dd)
            assert np.max(np.abs(sc - np.abs(Qc @ Kt.T))) < 1e-6, (trial, dd)
    _report(5, "scaling-matrix-correctness")


def test_06_level_mask_behavior():
    spec = corpus_layout("showcase")
    mcam = build_mcam(spec)
    rng = np.random.default_rng(606)
    n, L = spec.n_tokens, spec.text_len
    Q = rng.standard_normal((n, 8)).astype(np.float32)
    Kt = rng.standard_normal((L, 8)).astype(np.float32)
    Vt = rng.standard_normal((L, 8)).astype(np.float32)
    s = compute_scaling_s(Q, Kt, spec, 8)

    out0 = relational_cross_attention(Q, Kt, Vt, mcam.levels, s, AttnConfig(r=0.0))
    np.testing.assert_array_equal(out0, standard_attention(Q, Kt, Vt))

    cfg = AttnConfig(r=0.5)
    _, w_base = relational_cross_attention(Q, Kt, Vt, mcam.levels, s, cfg, return_weights=True)
    trials = 0
    while trials < 100:
        qi = int(rng.integers(0, n))
        ti = int(rng.integers(0, L))
        lv = int(mcam.levels[qi, ti])
        if lv == 1 or s[qi, ti] <= 0.0:
            continue
        bumped = mcam.levels.copy()
        bumped[qi, ti] = lv + 1
        _, w_new = relational_cross_attention(Q, Kt, Vt, bumped, s, cfg, return_weights=True)
        assert w_new[qi, ti] > w_base[qi, ti], (qi, ti, lv)
        trials += 1
    _report(6, "level-mask-behavior")


def test_07_rotary_properties():
    for seed in range(5):
        rng = np.random.default_rng(700 + seed)
        x = rng.standard_normal((24, 16))
        out = rotate(x, *rotary_table(rng.integers(0, 40, (24, 3)), 16, x.dtype))
        norms = np.linalg.norm(x, axis=1)
        assert np.max(np.abs(np.linalg.norm(out, axis=1) - norms) / norms) <= 1e-6

        q = rng.standard_normal((1, 16))
        k = rng.standard_normal((1, 16))
        base = (int(rng.integers(0, 10)), int(rng.integers(0, 10)), int(rng.integers(0, 10)))
        other = (int(rng.integers(0, 10)), int(rng.integers(0, 10)), int(rng.integers(0, 10)))
        ref = None
        for di in range(3):
            for dj in range(3):
                for dk in range(3):
                    a = np.array([[base[0] + di, base[1] + dj, base[2] + dk]])
                    b = np.array([[other[0] + di, other[1] + dj, other[2] + dk]])
                    qa = rotate(q, *rotary_table(a, 16, q.dtype))
                    kb = rotate(k, *rotary_table(b, 16, k.dtype))
                    dot = (qa @ kb.T).item()
                    if ref is None:
                        ref = dot
                    else:
                        assert abs(dot - ref) / max(abs(ref), 1e-9) <= 1e-5
    _report(7, "rotary-properties")


def test_08_flow_matching_and_gradients():
    rng = np.random.default_rng(808)
    z, z0 = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
    zt, v = flow_interpolate(z, z0, 0.0)
    np.testing.assert_array_equal(zt, z0)
    zt, _ = flow_interpolate(z, z0, 1.0)
    np.testing.assert_array_equal(zt, z)
    np.testing.assert_array_equal(v, z - z0)

    pred, tgt = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    assert abs(fm_loss(pred, tgt) - fm_loss_oracle(pred, tgt)) < 1e-7

    spec = make_spec(1, 1, 3, groups=(0,))  # 6 visual tokens, 4 text tokens below
    assert spec.n_tokens == 6
    for seed in range(5):
        srng = np.random.default_rng(8080 + seed)
        weights = init_weights(srng, channels=10, text_channels=6, dtype=np.float64)
        x = srng.standard_normal((spec.n_tokens, 10))
        text = srng.standard_normal((spec.text_len, 6))
        target = srng.standard_normal(x.shape)
        report = grad_check(
            weights, x, text, spec, AttnConfig(d=2), target,
            epsilon=1e-3, max_coords=120, seed=seed,
        )
        assert report.max_rel_error < 1e-3, (seed, report.worst)
    _report(8, "flow-matching-and-gradients")


def test_09_demo_fit_smoke():
    t0 = time.perf_counter()
    spec = make_spec(2, 4, 4, bg=1, groups=(1,))
    losses = demo_fit(spec, seed=0, steps=200)
    elapsed = time.perf_counter() - t0
    assert losses[-1] <= 0.5 * losses[0], (losses[0], losses[-1])
    assert elapsed < 120.0, f"demo fit took {elapsed:.1f}s"
    _report(9, "demo-fit-smoke")


def test_10_cli_determinism(tmp_path, capsys):
    spec_path = tmp_path / "layout.json"
    spec_path.write_text(to_json(corpus_layout("showcase")))
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert main(["masks", str(spec_path), "-o", str(out1)]) == 0
    assert main(["masks", str(spec_path), "-o", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    capsys.readouterr()
    assert main(["forward", str(spec_path), "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["forward", str(spec_path), "--seed", "11"]) == 0
    second = capsys.readouterr().out
    assert first == second
    _report(10, "cli-determinism")
