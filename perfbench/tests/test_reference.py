"""Cross-checks of the benchmark's float64 reference against the brute-force
oracles in ``tests/oracles.py`` and against the package on tiny layouts.

Run from the repository root: ``python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import oracles  # noqa: E402
import reference as ref  # noqa: E402
import relattn  # noqa: E402
from layouts import small_doc, SMALL_SLOTS  # noqa: E402


def _doc(T, H, W, ents, text_len):
    return {"T": T, "H": H, "W": W, "text_len": text_len, "entities": ents}


HAND_DOCS = [
    _doc(1, 2, 2, [], 4),
    _doc(2, 4, 4, [
        {"kind": "background", "span": [0, 2]},
        {"kind": "object", "span": [3, 5]},
        {"kind": "face", "group": 0, "span": [6, 8]},
        {"kind": "attribute", "group": 0, "span": [9, 11]},
        {"kind": "face", "group": 1, "span": [12, 14]},
        {"kind": "attribute", "group": 1, "span": [15, 17]},
    ], 19),
    _doc(1, 5, 7, [
        {"kind": "object"},
        {"kind": "face", "group": 0, "span": [2, 2]},
        {"kind": "attribute", "group": 0},
        {"kind": "attribute", "group": 0, "span": [0, 2]},
        {"kind": "face", "group": 1, "span": [4, 9]},
    ], 10),
    _doc(2, 3, 3, [{"kind": "background"}, {"kind": "face", "group": 0}], 0),
]


def _docs():
    rng = np.random.default_rng(5)
    generated = [small_doc(rng, slot) for slot in SMALL_SLOTS[:8]]
    return HAND_DOCS + [d for d in generated if ref.n_tokens(d) <= 160]


def _spec(doc):
    return relattn.parse_spec(json.dumps(doc))


@pytest.mark.parametrize("doc", _docs())
def test_layout_rules_match_oracles(doc):
    spec = _spec(doc)
    assert ref.positions(doc).tolist() == [list(t) for t in oracles.positions_oracle(spec)]
    assert np.array_equal(ref.csam_bits(doc), oracles.csam_oracle(spec))
    assert np.array_equal(ref.mcam_levels(doc), oracles.mcam_oracle(spec))


@pytest.mark.parametrize("doc", _docs())
def test_scaling_matches_oracle(doc):
    if doc["text_len"] == 0:
        pytest.skip("no caption")
    rng = np.random.default_rng(1)
    Q = rng.standard_normal((ref.n_tokens(doc), 6))
    K = rng.standard_normal((doc["text_len"], 6))
    for d in (1, 2, 3, 8):
        np.testing.assert_allclose(
            ref.scaling_s(Q, K, doc, d), oracles.scaling_oracle(Q, K, _spec(doc), d), rtol=1e-12, atol=1e-12
        )


def test_attention_matches_oracle():
    rng = np.random.default_rng(2)
    doc = HAND_DOCS[1]
    n = ref.n_tokens(doc)
    Q, K, V = (rng.standard_normal((n, 6)) for _ in range(3))
    bits = ref.csam_bits(doc)
    np.testing.assert_allclose(
        ref.attention(Q, K, V, bits=bits), oracles.attention_oracle(Q, K, V, bits=bits), rtol=1e-10, atol=1e-12
    )
    Kt, Vt = rng.standard_normal((7, 6)), rng.standard_normal((7, 5))
    add = rng.standard_normal((n, 7))
    np.testing.assert_allclose(
        ref.attention(Q, Kt, Vt, additive=add, scale=0.3),
        oracles.attention_oracle(Q, Kt, Vt, additive=add, scale=0.3),
        rtol=1e-10,
        atol=1e-12,
    )


@pytest.mark.parametrize("doc", _docs())
def test_block_matches_package_float64(doc):
    spec = _spec(doc)
    rng = np.random.default_rng(3)
    w = relattn.init_weights(rng, 16, 12, 2, 8, 32, dtype=np.float64)
    x = rng.standard_normal((spec.n_tokens, 16))
    text = rng.standard_normal((spec.text_len, 12))
    for r, d in ((0.5, 8), (1.0, 2), (0.0, 1)):
        want = relattn.block_forward(w, x, text, spec, relattn.AttnConfig(r=r, d=d))
        got = ref.block_rows(doc, w.arrays(), x, text, r, d)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)
        rows = ref.patch_rows(doc, d, frame=spec.T + spec.n_entities - 1, prow=0, pcol=0)
        np.testing.assert_allclose(ref.block_rows(doc, w.arrays(), x, text, r, d, rows), want[rows], rtol=1e-10, atol=1e-10)


def test_partial_patch_is_refused():
    doc = HAND_DOCS[1]
    rng = np.random.default_rng(4)
    rows = ref.patch_rows(doc, 2, 0, 0, 0)[:-1]
    with pytest.raises(ValueError):
        ref.pooled_s(rng.standard_normal((len(rows), 4)), rows, rng.standard_normal((3, 4)), doc, 2)
