"""Runtime invariant battery behind ``relctl check``.

Per layout, on the forms the block runs: the branch partition, the entity
level rows against the pairwise level rule, unique positions, the cover
against the branch rule as rectangles and the level rows' group symmetry;
then the streaming self-attention against the dense kernel, block order,
branch isolation and video omniscience, and the cross-attention's r=0
identity, exact Eq. 5 and level monotonicity.  Once: rotary, flow matching,
the block's branch isolation and a gradient check.  The test suite holds
the dense masks against its own independent oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention, block, masks, reference, rotary
from .attention import AttnConfig
from .corpus import make_spec
from .layout import LayoutSpec


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    error: float | None = None
    detail: str = ""


def _result(name: str, err: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=bool(err <= tol), error=float(err), detail=detail)


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(b))), 1e-30)
    return float(np.max(np.abs(a - b))) / denom


def check_layout(name: str, spec: LayoutSpec, seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    n = spec.n_tokens

    branch = reference.branch_index_per_token(spec)
    ids = np.unique(branch)
    ok = np.array_equal(ids, np.arange(-1, spec.n_branches)) and (branch[: spec.n_video_tokens] == -1).all()
    out.append(
        CheckResult(
            f"branch-partition[{name}]",
            bool(ok),
            detail=f"{len(ids) - 1} condition branches",
        )
    )

    mcam = masks.build_mcam(spec)
    # the oracle reads only a token's frame: one token per frame covers every
    # pair, and the video frames must come out all zero
    frames = spec.T + spec.n_entities
    oracle = [reference.text_level_of(spec, f * spec.hw, t) for f in range(frames) for t in range(spec.text_len)]
    ok = np.array_equal(
        np.reshape(oracle, (frames, spec.text_len)), np.pad(mcam.entity_levels, ((spec.T, 0), (0, 0)))
    )
    out.append(CheckResult(f"text-levels[{name}]", ok))

    positions = rotary.position_array(spec)
    out.append(
        CheckResult(
            f"positions-unique[{name}]",
            positions.shape == (n, 3) and len(np.unique(positions, axis=0)) == n,
        )
    )

    csam = masks.build_csam(spec)
    # the branch rule as rectangles: the video rows over every key, then one
    # square per run of equal branch ids, n_branches of them
    edges = [*(np.flatnonzero(np.diff(branch)) + 1).tolist(), n]
    squares = tuple(masks.Block(a, b, a, b) for a, b in zip(edges, edges[1:]))
    ok = csam.blocks == (masks.Block(0, spec.n_video_tokens, 0, n), *squares)
    ok &= len(squares) == spec.n_branches
    out.append(CheckResult(f"csam-structure[{name}]", ok, detail=f"{len(csam.blocks)} blocks"))

    ok = True
    for g, members in enumerate(spec.groups):
        other = np.zeros(spec.text_len, dtype=bool)  # the other groups' spans
        for span in [spec.entities[m].span for g2, ms in enumerate(spec.groups) if g2 != g for m in ms]:
            if span is not None:
                other[span[0] : span[1]] = True
        rows = mcam.entity_levels[list(members)][:, other]
        ok &= bool((rows == rows[:1]).all())
    out.append(CheckResult(f"mcam-group-symmetry[{name}]", ok))

    out.extend(_kernel_checks(name, spec, csam, mcam, seed))
    return out


def _kernel_checks(name, spec, csam, mcam, seed) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    n, dim = spec.n_tokens, 8
    Q = rng.standard_normal((n, dim)).astype(np.float32)
    K = rng.standard_normal((n, dim)).astype(np.float32)
    V = rng.standard_normal((n, dim)).astype(np.float32)
    out: list[CheckResult] = []

    ref, w = reference.masked_self_attention_naive(Q, K, V, csam, return_weights=True)
    out.append(
        _result(
            f"weight-rows-normalized[{name}]",
            float(np.max(np.abs(w.sum(axis=1) - 1.0))),
            1e-6,
        )
    )

    stream = attention.masked_self_attention_blockwise(Q, K, V, csam.blocks)
    out.append(_result(f"block-naive-equivalence[{name}]", _rel(stream, ref), 1e-5))

    perm = list(csam.blocks)[::-1]
    stream2 = attention.masked_self_attention_blockwise(Q, K, V, perm)
    out.append(_result(f"block-order-invariance[{name}]", _rel(stream2, stream), 1e-6))

    if spec.n_entities:
        cond = slice(spec.n_video_tokens, n)
        K2, V2 = K.copy(), V.copy()
        K2[: spec.n_video_tokens] += rng.standard_normal((spec.n_video_tokens, dim)).astype(np.float32)
        V2[: spec.n_video_tokens] += 1.0
        alt = attention.masked_self_attention_blockwise(Q, K2, V2, csam.blocks)
        out.append(
            _result(
                f"branch-isolation[{name}]",
                float(np.max(np.abs(alt[cond] - stream[cond]))),
                1e-6,
            )
        )
        K3, V3 = K.copy(), V.copy()
        K3[cond] += rng.standard_normal((n - spec.n_video_tokens, dim)).astype(np.float32)
        V3[cond] += 1.0
        alt3 = attention.masked_self_attention_blockwise(Q, K3, V3, csam.blocks)
        moved = float(np.max(np.abs(alt3[: spec.n_video_tokens] - stream[: spec.n_video_tokens])))
        out.append(
            CheckResult(
                f"video-omniscience[{name}]", moved > 1e-3, error=moved, detail="expects > 1e-3"
            )
        )

    if spec.text_len:
        L = spec.text_len
        Kt = rng.standard_normal((L, dim)).astype(np.float32)
        Vt = rng.standard_normal((L, dim)).astype(np.float32)
        cfg = AttnConfig()
        s = reference.compute_scaling_s(Q, Kt, spec, cfg.d)

        rel0 = reference.relational_cross_attention(Q, Kt, Vt, mcam.levels, s, AttnConfig(r=0.0, d=cfg.d))
        std = reference.standard_attention(Q, Kt, Vt)
        identical = bool(np.array_equal(rel0, std))
        out.append(
            CheckResult(
                f"r0-bit-identity[{name}]",
                identical,
                error=0.0 if identical else float(np.max(np.abs(rel0 - std))),
            )
        )

        s1 = reference.compute_scaling_s(Q, Kt, spec, 1)
        out.append(
            _result(
                f"eq5-d1-exact[{name}]",
                float(np.max(np.abs(s1 - np.abs(Q @ Kt.T)))),
                0.0,
            )
        )

        # float64 here: averaging equal values is only exact up to summation
        # rounding, and the 1e-6 bound is meant for the algorithm, not fp32
        patch_const = np.repeat(
            rng.standard_normal(((spec.T + spec.n_entities), dim)), spec.hw, axis=0
        )
        s_const = reference.compute_scaling_s(patch_const, Kt.astype(np.float64), spec, max(spec.H, spec.W))
        out.append(
            _result(
                f"eq5-patch-const[{name}]",
                float(np.max(np.abs(s_const - np.abs(patch_const @ Kt.astype(np.float64).T)))),
                1e-6,
            )
        )

        # bump one neutral-level coordinate to +1: its weight must strictly
        # rise (needs >= 2 text tokens, else the single weight is pinned at 1)
        if L >= 2:
            _, w0 = reference.relational_cross_attention(Q, Kt, Vt, mcam.levels, s, cfg, return_weights=True)
            q_idx, t_idx = 0, int(np.argmax(s[0]))
            bumped = mcam.levels.copy()
            bumped[q_idx, t_idx] = 1
            _, w1 = reference.relational_cross_attention(Q, Kt, Vt, bumped, s, cfg, return_weights=True)
            rose = bool(w1[q_idx, t_idx] > w0[q_idx, t_idx] and s[q_idx, t_idx] > 0)
            out.append(
                CheckResult(
                    f"mcam-monotonicity[{name}]",
                    rose,
                    error=float(w1[q_idx, t_idx] - w0[q_idx, t_idx]),
                )
            )
    return out


def check_global(seed: int = 0) -> list[CheckResult]:
    out: list[CheckResult] = []
    rng = np.random.default_rng(seed)

    pos = rng.integers(0, 9, (32, 3))
    x = rng.standard_normal((32, 16)).astype(np.float32)
    rx = rotary.rotate(x, *rotary.rotary_table(pos, 16, x.dtype))
    norms = np.linalg.norm(x, axis=1)
    out.append(
        _result(
            "rotary-isometry",
            float(np.max(np.abs(np.linalg.norm(rx, axis=1) - norms) / norms)),
            1e-6,
        )
    )

    # one shared (di, dj, dk) shift of both positions, over a 3x3x3 grid
    q = np.repeat(rng.standard_normal((1, 16)), 27, axis=0)
    k = np.repeat(rng.standard_normal((1, 16)), 27, axis=0)
    shifts = np.indices((3, 3, 3)).reshape(3, -1).T
    qa = rotary.rotate(q, *rotary.rotary_table(shifts + (1, 2, 3), 16, q.dtype))
    kb = rotary.rotate(k, *rotary.rotary_table(shifts + (4, 1, 5), 16, k.dtype))
    dots = (qa * kb).sum(axis=1)
    spread = (dots.max() - dots.min()) / max(abs(dots[0]), 1e-9)
    out.append(_result("rotary-shift-invariance", spread, 1e-5))

    z = rng.standard_normal((4, 3))
    z0 = rng.standard_normal((4, 3))
    zt0, _ = block.flow_interpolate(z, z0, 0.0)
    zt1, v = block.flow_interpolate(z, z0, 1.0)
    ok = np.array_equal(zt0, z0) and np.array_equal(zt1, z) and np.array_equal(v, z - z0)
    out.append(CheckResult("flow-endpoints", bool(ok)))

    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    ok = (
        block.fm_loss(a, b) == block.fm_loss(b, a)
        and block.fm_loss(a, b) >= 0
        and block.fm_loss(a, a) == 0.0
        and abs(block.fm_loss(b + 1.0, b) - 1.0) < 1e-12
    )
    out.append(CheckResult("fm-loss-properties", bool(ok)))

    spec = make_spec(1, 2, 2, bg=1, groups=(1,))
    weights = block.init_weights(rng, channels=12, text_channels=8, dtype=np.float64)
    x = rng.standard_normal((spec.n_tokens, 12))
    text = rng.standard_normal((spec.text_len, 8))
    acfg = AttnConfig()
    base = block.block_forward(weights, x, text, spec, acfg)
    bumped = x.copy()
    bumped[: spec.n_video_tokens] += rng.standard_normal((spec.n_video_tokens, 12))
    alt = block.block_forward(weights, bumped, text, spec, acfg)
    cond = slice(spec.n_video_tokens, spec.n_tokens)
    out.append(
        _result(
            "block-branch-isolation",
            float(np.max(np.abs(alt[cond] - base[cond]))),
            1e-6,
        )
    )

    target = rng.standard_normal(x.shape)
    report = block.grad_check(weights, x, text, spec, acfg, target, max_coords=80, seed=seed)
    out.append(_result("grad-check", report.max_rel_error, 1e-3, detail=f"{report.n_coords} coords"))
    return out


def run_checks(layouts: list[tuple[str, LayoutSpec]], seed: int = 0) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name, spec in layouts:
        results.extend(check_layout(name, spec, seed=seed))
    results.extend(check_global(seed=seed))
    return results
