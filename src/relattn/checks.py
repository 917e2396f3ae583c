"""Runtime invariant battery behind ``relctl check``.

Every structural and numeric invariant of the engine, measured with explicit
errors.  The test suite carries its own independent oracles; the checks here
are the self-contained subset a deployment can run against any layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention, block, layout, masks, rotary
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

    ok = all(
        layout.flat_of(spec, layout.address_of(spec, f)) == f for f in range(n)
    )
    out.append(CheckResult(f"address-bijection[{name}]", ok))

    labels = {layout.branch_of(spec, f) for f in range(n)}
    expected = spec.n_branches + (1 if spec.T > 0 else 0)
    out.append(
        CheckResult(
            f"branch-partition[{name}]",
            len(labels) == expected and "video" in labels,
            detail=f"{len(labels) - 1} condition branches",
        )
    )

    mcam = masks.build_mcam(spec)
    ok = bool(np.isin(mcam.levels, (-1, 0, 1)).all())
    ok &= not mcam.levels[: spec.n_video_tokens].any()
    if spec.text_len:
        pairwise = np.array(
            [
                [layout.text_level_of(spec, v, t) for t in range(spec.text_len)]
                for v in range(n)
            ],
            dtype=np.int8,
        )
        ok &= bool(np.array_equal(pairwise, mcam.levels))
    out.append(CheckResult(f"text-levels[{name}]", ok))

    positions = rotary._position_array(spec)
    out.append(
        CheckResult(
            f"positions-unique[{name}]",
            positions.shape == (n, 3) and len(np.unique(positions, axis=0)) == n,
        )
    )

    csam = masks.build_csam(spec)
    bits = csam.bits
    ok = bool(bits[: spec.n_video_tokens].all())
    ok &= not bits[spec.n_video_tokens :, : spec.n_video_tokens].any()
    ok &= bool(bits.diagonal().all())
    if spec.n_entities:
        ok &= bool(bits[0, spec.n_video_tokens]) and not bits[spec.n_video_tokens, 0]
    # the cover is derived from the layout and ``bits`` materialized from it,
    # so compare against the branch rule computed from the token branch ids
    branch = layout.branch_index_per_token(spec)
    rule = (branch[:, None] < 0) | (branch[:, None] == branch[None, :])
    ok &= bool(np.array_equal(bits, rule))
    out.append(CheckResult(f"csam-structure[{name}]", ok, detail=f"{len(csam.blocks)} blocks"))

    ok = True
    for g, members in enumerate(spec.groups):
        other = np.zeros(spec.text_len, dtype=bool)
        for g2, members2 in enumerate(spec.groups):
            if g2 == g:
                continue
            for m in members2:
                span = spec.entities[m].span
                if span is not None:
                    other[span[0] : span[1]] = True
        rows = [mcam.levels[slice(*spec.entity_range(m))][:, other] for m in members]
        first = rows[0][0] if rows[0].size else None
        ok &= all(bool(np.array_equal(r, np.broadcast_to(first, r.shape))) for r in rows if r.size)
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

    ref, w = attention.masked_self_attention_naive(Q, K, V, csam, return_weights=True)
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
        alt = attention.masked_self_attention_naive(Q, K2, V2, csam)
        out.append(
            _result(
                f"branch-isolation[{name}]",
                float(np.max(np.abs(alt[cond] - ref[cond]))),
                1e-6,
            )
        )
        K3, V3 = K.copy(), V.copy()
        K3[cond] += rng.standard_normal((n - spec.n_video_tokens, dim)).astype(np.float32)
        V3[cond] += 1.0
        alt3 = attention.masked_self_attention_naive(Q, K3, V3, csam)
        moved = float(np.max(np.abs(alt3[: spec.n_video_tokens] - ref[: spec.n_video_tokens])))
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
        s = attention.compute_scaling_s(Q, Kt, spec, cfg.d)

        rel0 = attention.relational_cross_attention(Q, Kt, Vt, mcam, s, AttnConfig(r=0.0, d=cfg.d))
        std = attention.standard_attention(Q, Kt, Vt)
        identical = bool(np.array_equal(rel0, std))
        out.append(
            CheckResult(
                f"r0-bit-identity[{name}]",
                identical,
                error=0.0 if identical else float(np.max(np.abs(rel0 - std))),
            )
        )

        s1 = attention.compute_scaling_s(Q, Kt, spec, 1)
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
        s_const = attention.compute_scaling_s(patch_const, Kt.astype(np.float64), spec, max(spec.H, spec.W))
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
            _, w0 = attention.relational_cross_attention(Q, Kt, Vt, mcam, s, cfg, return_weights=True)
            q_idx, t_idx = 0, int(np.argmax(s[0]))
            bumped = mcam.levels.copy()
            bumped[q_idx, t_idx] = 1
            _, w1 = attention.relational_cross_attention(
                Q, Kt, Vt, masks.McamMask(levels=bumped), s, cfg, return_weights=True
            )
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
    cfg = rotary.default_config(16)

    pos = rng.integers(0, 9, (32, 3))
    x = rng.standard_normal((32, 16)).astype(np.float32)
    rx = rotary._rotate(x, *rotary._rotary_table(pos, cfg, x.dtype))
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
    qa = rotary._rotate(q, *rotary._rotary_table(shifts + (1, 2, 3), cfg, q.dtype))
    kb = rotary._rotate(k, *rotary._rotary_table(shifts + (4, 1, 5), cfg, k.dtype))
    dots = (qa * kb).sum(axis=1)
    spread = (dots.max() - dots.min()) / max(abs(dots[0]), 1e-9)
    out.append(_result("rotary-shift-invariance", spread, 1e-5))

    z = rng.standard_normal((4, 3))
    z0 = rng.standard_normal((4, 3))
    zt0, _ = block.flow_interpolate(block.FlowSample(z=z, z0=z0, t=0.0))
    zt1, v = block.flow_interpolate(block.FlowSample(z=z, z0=z0, t=1.0))
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
