"""Toy relational transformer block with a flow-matching objective.

One block = pre-norm masked self-attention (rotary positions, block-streaming
kernel) -> pre-norm relational cross-attention (level mask with pooled
scaling) -> pre-norm pointwise MLP, each followed by a residual add.  One
forward, on one kernel per attention, serves the production block, the plain
baseline and the taped path; its hand-derived backward supports
finite-difference verification and the demo trainer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .attention import (
    AttnConfig,
    _attend,
    _blockwise,
    _blockwise_bwd,
    _default_scale,
    _patch_geometry,
    _patch_sum,
    _pooled_similarity,
)
from .layout import LayoutSpec
from .masks import Block, CsamMask, McamMask, build_csam, build_mcam
from .rotary import default_config, position_array, rotary_table, rotate

_LN_EPS = 1e-6


# ---------------------------------------------------------------------------
# flow matching


@dataclass(frozen=True)
class FlowSample:
    """Data latent, noise latent, and an interpolation time in [0, 1]."""

    z: np.ndarray
    z0: np.ndarray
    t: float


def flow_interpolate(sample: FlowSample) -> tuple[np.ndarray, np.ndarray]:
    """Linear path point z_t = (1-t) z0 + t z and its velocity v = z - z0."""
    z, z0 = np.asarray(sample.z), np.asarray(sample.z0)
    if z.shape != z0.shape:
        raise ValueError(f"z and z0 shapes differ: {z.shape} vs {z0.shape}")
    if not 0.0 <= sample.t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {sample.t}")
    t = sample.t
    if t == 0.0:
        z_t = z0.copy()
    elif t == 1.0:
        z_t = z.copy()
    else:
        z_t = (1.0 - t) * z0 + t * z
    return z_t, z - z0


def fm_loss(pred: np.ndarray, v_t: np.ndarray) -> float:
    """Mean squared error between predicted and ground-truth velocity."""
    pred, v_t = np.asarray(pred), np.asarray(v_t)
    if pred.shape != v_t.shape:
        raise ValueError(f"shapes differ: {pred.shape} vs {v_t.shape}")
    d = pred - v_t
    return float(np.mean(d * d))


def sample_time_logit_normal(rng: np.random.Generator, mean: float = 0.0, scale: float = 1.0) -> float:
    """Draw t in (0, 1) as sigmoid of a normal variate."""
    return float(1.0 / (1.0 + math.exp(-(mean + scale * rng.standard_normal()))))


# ---------------------------------------------------------------------------
# weights


@dataclass
class BlockWeights:
    """Per-head projections for both attention sub-layers plus the MLP.

    Shapes (h = heads, C = token channels, Ct = text channels, D = head_dim,
    F = hidden width): wq/wk/wv (h, C, D), wo (h, D, C), cq (h, C, D),
    ck/cv (h, Ct, D), co (h, D, C), w1 (C, F), b1 (F,), w2 (F, C), b2 (C,).
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    cq: np.ndarray
    ck: np.ndarray
    cv: np.ndarray
    co: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    n_heads: int = field(init=False)
    head_dim: int = field(init=False)

    def __post_init__(self):
        h, _, d = self.wq.shape
        self.n_heads = h
        self.head_dim = d
        shapes = {
            "wq": self.wq.shape, "wk": self.wk.shape, "wv": self.wv.shape,
            "cq": self.cq.shape, "ck": self.ck.shape, "cv": self.cv.shape,
        }
        for name, shape in shapes.items():
            if shape[0] != h or shape[2] != d:
                raise ValueError(f"{name} has shape {shape}, expected ({h}, *, {d})")
        if self.wo.shape[:2] != (h, d) or self.co.shape[:2] != (h, d):
            raise ValueError("wo/co must be (heads, head_dim, channels)")
        for name, arr in self.arrays().items():
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def channels(self) -> int:
        return self.wq.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            name: getattr(self, name)
            for name in ("wq", "wk", "wv", "wo", "cq", "ck", "cv", "co", "w1", "b1", "w2", "b2")
        }

    def astype(self, dtype) -> "BlockWeights":
        return BlockWeights(**{k: v.astype(dtype) for k, v in self.arrays().items()})

    def copy(self) -> "BlockWeights":
        return BlockWeights(**{k: v.copy() for k, v in self.arrays().items()})


def init_weights(
    rng: np.random.Generator,
    channels: int,
    text_channels: int,
    n_heads: int = 2,
    head_dim: int = 8,
    hidden: int | None = None,
    dtype=np.float32,
) -> BlockWeights:
    """Gaussian initialization scaled by 1/sqrt(fan_in); zero biases."""
    hidden = hidden if hidden is not None else 2 * channels

    def mat(*shape):
        return (rng.standard_normal(shape) / math.sqrt(shape[-2])).astype(dtype)

    return BlockWeights(
        wq=mat(n_heads, channels, head_dim),
        wk=mat(n_heads, channels, head_dim),
        wv=mat(n_heads, channels, head_dim),
        wo=mat(n_heads, head_dim, channels),
        cq=mat(n_heads, channels, head_dim),
        ck=mat(n_heads, text_channels, head_dim),
        cv=mat(n_heads, text_channels, head_dim),
        co=mat(n_heads, head_dim, channels),
        w1=mat(channels, hidden),
        b1=np.zeros(hidden, dtype=dtype),
        w2=mat(hidden, channels),
        b2=np.zeros(channels, dtype=dtype),
    )


# ---------------------------------------------------------------------------
# small differentiable pieces

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + _GELU_A * x * x * x)))


def _gelu_grad(x):
    t = np.tanh(_GELU_C * (x + _GELU_A * x * x * x))
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)


def _layer_norm(x):
    mu = x.mean(axis=1, keepdims=True)
    d = x - mu
    inv = 1.0 / np.sqrt((d * d).mean(axis=1, keepdims=True) + _LN_EPS)
    return d * inv, inv


def _layer_norm_bwd(gy, y, inv):
    return inv * (gy - gy.mean(axis=1, keepdims=True) - y * (gy * y).mean(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# forward


def _prepare(weights, z_tokens, text, spec, cfg, mcam, dtype=None):
    """Validated inputs, weights in the inputs' dtype, the rotary table and
    the patch geometry of the level term, which every head shares: each
    patch's cell count, each token's patch and each patch's level row."""
    rows = mcam.entity_levels
    if rows.shape != (spec.n_entities, spec.text_len):
        raise ValueError(
            f"mcam levels are {rows.shape[0]} entities x {rows.shape[1]} caption tokens, "
            f"the layout's {spec.n_entities} x {spec.text_len}"
        )
    x = np.asarray(z_tokens, dtype=dtype)
    text = np.asarray(text, dtype=dtype)
    for name, arr in (("z_tokens", x), ("text", text)):
        if not np.issubdtype(arr.dtype, np.floating):
            raise ValueError(f"{name} must have a floating dtype, got {arr.dtype}")
    if x.ndim != 2 or x.shape != (spec.n_tokens, weights.channels):
        raise ValueError(
            f"z_tokens must be ({spec.n_tokens}, {weights.channels}), got {x.shape}"
        )
    if text.ndim != 2 or text.shape[0] != spec.text_len:
        raise ValueError(f"text must have {spec.text_len} rows, got {text.shape}")
    if text.shape[0] and text.shape[1] != weights.ck.shape[1]:
        raise ValueError(f"text must have {weights.ck.shape[1]} channels, got {text.shape[1]}")
    if not np.isfinite(text).all():
        raise ValueError("text contains non-finite entries")
    w = weights if weights.wq.dtype == x.dtype else weights.astype(x.dtype)
    rot = rotary_table(position_array(spec), default_config(w.head_dim), x.dtype)
    cells, row_patch = _patch_geometry(spec, cfg.d, x.dtype)
    per_frame = len(cells) // (spec.T + spec.n_entities)
    levels = np.zeros((len(cells), spec.text_len), dtype=np.int8)  # all zero in the video frames
    levels[spec.T * per_frame :] = np.repeat(rows, per_frame, axis=0)
    return w, x, text, rot, (cells, row_patch, levels)


def _forward(w: BlockWeights, x, text, spec, cfg, rot, blocks, patches, tape=None):
    """LN -> self-attention -> LN -> cross-attention -> LN -> MLP, each
    sub-layer added back to its input.

    Self-attention streams over the block cover ``blocks``; cross-attention
    reads its level term from a table with one row per d x d patch, and the
    video rows, whose level is zero, skip it.  A ``tape`` dict records every
    intermediate :func:`_backward` needs: per head the self-attention inputs,
    output and row log-sum-exp, and the dense cross-attention weights.
    """
    cos, sin = rot
    u, inv = _layer_norm(x)
    sa = np.zeros_like(x)
    self_tape = []
    for h in range(w.n_heads):
        q = rotate(u @ w.wq[h], cos, sin)
        k = rotate(u @ w.wk[h], cos, sin)
        v = u @ w.wv[h]
        a, lse = _blockwise(q, k, v, blocks)
        if tape is not None:
            self_tape.append((q, k, v, a, lse))
        sa += a @ w.wo[h]
    x1 = x + sa

    cross_tape = []
    if text.shape[0] > 0:
        cells, row_patch, levels = patches
        scale = _default_scale(w.head_dim)
        u2, inv2 = _layer_norm(x1)
        ca = np.zeros_like(x1)
        for h in range(w.n_heads):
            qc = u2 @ w.cq[h]
            kc = text @ w.ck[h]
            vc = text @ w.cv[h]
            table = _pooled_similarity(qc, kc, spec, cfg.d, cells)
            table *= table.dtype.type(cfg.r)
            table *= levels  # level * (s * r), as the dense kernel's levels * s * r
            level_term = (table, row_patch, spec.n_video_tokens)
            if tape is None:
                a = _attend(qc, kc, vc, scale, False, level_term)
            else:
                a, att = _attend(qc, kc, vc, scale, True, level_term)
                cross_tape.append((qc, kc, vc, att, a))
            ca += a @ w.co[h]
        x2 = x1 + ca
    else:
        u2 = inv2 = None
        x2 = x1

    u3, inv3 = _layer_norm(x2)
    h1 = u3 @ w.w1 + w.b1
    act = _gelu(h1)
    y = x2 + act @ w.w2 + w.b2
    if tape is not None:
        tape.update(
            text=text, u=u, inv=inv, self=self_tape, u2=u2, inv2=inv2,
            cross=cross_tape, u3=u3, inv3=inv3, h1=h1, act=act,
        )
    return y


def block_forward(
    weights: BlockWeights,
    z_tokens: np.ndarray,
    text: np.ndarray,
    spec: LayoutSpec,
    cfg: AttnConfig,
    csam: CsamMask | None = None,
    mcam: McamMask | None = None,
) -> np.ndarray:
    """Run the relational block over the concatenated token sequence.

    Computation follows the dtype of ``z_tokens``; the self-attention uses
    the block-streaming kernel over the mask's block cover.
    """
    csam = csam if csam is not None else build_csam(spec)
    mcam = mcam if mcam is not None else build_mcam(spec)
    w, x, text, rot, patches = _prepare(weights, z_tokens, text, spec, cfg, mcam)
    y = _forward(w, x, text, spec, cfg, rot, csam.blocks, patches)
    if not np.isfinite(y).all():
        raise ValueError("block produced non-finite output")
    return y


def plain_block_forward(
    weights: BlockWeights,
    z_tokens: np.ndarray,
    text: np.ndarray,
    spec: LayoutSpec,
    cfg: AttnConfig,
) -> np.ndarray:
    """Non-relational baseline: the same block with one full-square cover
    (every query sees every key) and no level-mask term (r=0)."""
    full = CsamMask(spec.n_tokens, (Block(0, spec.n_tokens, 0, spec.n_tokens),))
    return block_forward(weights, z_tokens, text, spec, replace(cfg, r=0.0), full)


# ---------------------------------------------------------------------------
# hand-derived backward of the taped forward (float64)


def _backward(w: BlockWeights, tape, spec, cfg, rot, blocks, patches, gy):
    """Gradients of a scalar loss w.r.t. every weight array and both inputs,
    given the loss gradient at the block output."""
    g = {name: np.zeros_like(arr) for name, arr in w.arrays().items()}
    text = tape["text"]
    scale = _default_scale(w.head_dim)

    # mlp
    u3, inv3, h1, act = tape["u3"], tape["inv3"], tape["h1"], tape["act"]
    g["w2"] += act.T @ gy
    g["b2"] += gy.sum(axis=0)
    gh1 = (gy @ w.w2.T) * _gelu_grad(h1)
    g["w1"] += u3.T @ gh1
    g["b1"] += gh1.sum(axis=0)
    gx2 = gy + _layer_norm_bwd(gh1 @ w.w1.T, u3, inv3)

    # cross-attention
    gtext = np.zeros_like(text)
    if text.shape[0] > 0:
        u2, inv2 = tape["u2"], tape["inv2"]
        cells, row_patch, levels = patches
        gu2 = np.zeros_like(u2)
        for h in range(w.n_heads):
            qc, kc, vc, att, a = tape["cross"][h]
            g["co"][h] += a.T @ gx2
            ga = gx2 @ w.co[h].T
            gatt = ga @ vc.T
            gvc = att.T @ ga
            glog = att * (gatt - (gatt * att).sum(axis=1, keepdims=True)) * scale
            gqc = glog @ kc
            gkc = glog.T @ qc
            # scaling-matrix path: the term is levels * |pooled kc^T| * r per
            # patch, pooled = patch mean of qc, and levels is constant on a patch
            pooled = _patch_sum(qc, spec, cfg.d) / cells
            sim = pooled @ kc.T
            gsim = np.sign(sim) * levels * cfg.r * _patch_sum(glog, spec, cfg.d)
            gkc += gsim.T @ pooled
            gqc += ((gsim @ kc) / cells)[row_patch]

            g["cq"][h] += u2.T @ gqc
            g["ck"][h] += text.T @ gkc
            g["cv"][h] += text.T @ gvc
            gu2 += gqc @ w.cq[h].T
            gtext += gkc @ w.ck[h].T + gvc @ w.cv[h].T
        gx1 = gx2 + _layer_norm_bwd(gu2, u2, inv2)
    else:
        gx1 = gx2

    # self-attention
    cos, sin = rot
    u, inv = tape["u"], tape["inv"]
    gu = np.zeros_like(u)
    for h in range(w.n_heads):
        q, k, v, a, lse = tape["self"][h]
        g["wo"][h] += a.T @ gx1
        gq, gk, gv = _blockwise_bwd(q, k, v, a, lse, gx1 @ w.wo[h].T, blocks, scale)
        gq, gk = rotate(gq, cos, -sin), rotate(gk, cos, -sin)
        g["wq"][h] += u.T @ gq
        g["wk"][h] += u.T @ gk
        g["wv"][h] += u.T @ gv
        gu += gq @ w.wq[h].T + gk @ w.wk[h].T + gv @ w.wv[h].T
    gx = gx1 + _layer_norm_bwd(gu, u, inv)
    return g, gx, gtext


def _row_loss(y, target, loss_rows):
    """Mean squared error over ``loss_rows`` (all rows when None), with the
    rows and their differences for the output gradient."""
    rows = np.arange(y.shape[0]) if loss_rows is None else np.asarray(loss_rows)
    diff = y[rows] - target[rows]
    return float(np.mean(diff * diff)), rows, diff


def loss_and_gradients(
    weights: BlockWeights,
    z_tokens: np.ndarray,
    text: np.ndarray,
    spec: LayoutSpec,
    cfg: AttnConfig,
    target: np.ndarray,
    loss_rows: np.ndarray | None = None,
):
    """Flow-matching loss and its analytic gradients (float64 throughout).

    ``loss_rows``, when given, restricts the mean-squared error to those
    output rows; the default is the full :func:`fm_loss`.
    """
    w, x, text, rot, patches = _prepare(weights, z_tokens, text, spec, cfg, build_mcam(spec), np.float64)
    target = np.asarray(target, dtype=np.float64)
    blocks = build_csam(spec).blocks
    tape: dict = {}
    y = _forward(w, x, text, spec, cfg, rot, blocks, patches, tape)
    loss, rows, diff = _row_loss(y, target, loss_rows)
    gy = np.zeros_like(y)
    gy[rows] = 2.0 * diff / diff.size
    grads, gx, gtext = _backward(w, tape, spec, cfg, rot, blocks, patches, gy)
    return loss, grads, gx, gtext


@dataclass(frozen=True)
class GradCheckRecord:
    array: str
    index: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_error: float
    n_coords: int
    records: tuple[GradCheckRecord, ...]

    @property
    def worst(self) -> GradCheckRecord:
        return max(self.records, key=lambda r: r.rel_error)


def grad_check(
    weights: BlockWeights,
    z_tokens: np.ndarray,
    text: np.ndarray,
    spec: LayoutSpec,
    cfg: AttnConfig,
    target: np.ndarray,
    epsilon: float = 1e-3,
    max_coords: int = 10000,
    seed: int = 0,
    arrays: list[str] | None = None,
    loss_rows: np.ndarray | None = None,
    check_inputs: bool = False,
) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    Samples up to ``max_coords`` coordinates (uniformly across the selected
    weight arrays, plus the two input tensors when ``check_inputs``) and
    evaluates the loss at +/- epsilon in float64.  The error metric is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-3); the floor turns
    near-zero gradients into an absolute comparison.
    """
    if not 1e-5 <= epsilon <= 1e-2:
        raise ValueError(f"epsilon must lie in [1e-5, 1e-2], got {epsilon}")
    w, x, text, rot, patches = _prepare(
        weights.astype(np.float64), z_tokens, text, spec, cfg, build_mcam(spec), np.float64
    )
    target = np.asarray(target, dtype=np.float64)
    blocks = build_csam(spec).blocks

    def taped_loss() -> float:
        y = _forward(w, x, text, spec, cfg, rot, blocks, patches)
        return _row_loss(y, target, loss_rows)[0]

    loss, grads, gx, gtext = loss_and_gradients(w, x, text, spec, cfg, target, loss_rows)
    if not math.isfinite(loss) or any(not np.isfinite(v).all() for v in grads.values()):
        raise ValueError("non-finite loss or gradient")

    tensors: dict[str, np.ndarray] = dict(w.arrays())
    analytic: dict[str, np.ndarray] = dict(grads)
    if check_inputs:
        tensors["z_tokens"], analytic["z_tokens"] = x, gx
        tensors["text"], analytic["text"] = text, gtext
    names = arrays if arrays is not None else list(tensors)
    unknown = [n for n in names if n not in tensors]
    if unknown:
        raise ValueError(f"unknown array name(s) {unknown}")

    coords = [(n, i) for n in names for i in range(tensors[n].size)]
    rng = np.random.default_rng(seed)
    if len(coords) > max_coords:
        picked = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[i] for i in sorted(picked)]

    records = []
    for name, idx in coords:
        tensor = tensors[name]
        multi = np.unravel_index(idx, tensor.shape)
        keep = tensor[multi]
        tensor[multi] = keep + epsilon
        lo_hi = taped_loss()
        tensor[multi] = keep - epsilon
        lo_lo = taped_loss()
        tensor[multi] = keep
        numeric = (lo_hi - lo_lo) / (2.0 * epsilon)
        a = float(analytic[name].reshape(-1)[idx])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
        records.append(GradCheckRecord(name, int(idx), a, float(numeric), float(rel)))

    return GradCheckReport(
        max_rel_error=max(r.rel_error for r in records),
        n_coords=len(records),
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# demo trainer


def demo_fit(
    spec: LayoutSpec,
    seed: int = 0,
    steps: int = 200,
    lr: float = 1e-2,
    channels: int = 16,
    text_channels: int = 12,
    n_heads: int = 2,
    head_dim: int = 8,
    hidden: int = 32,
    cfg: AttnConfig | None = None,
) -> list[float]:
    """Adam-fit one block to a fixed synthetic velocity target; returns the
    per-step loss trace (length steps + 1, starting at the untrained loss)."""
    cfg = cfg if cfg is not None else AttnConfig()
    rng = np.random.default_rng(seed)
    w = init_weights(rng, channels, text_channels, n_heads, head_dim, hidden, dtype=np.float64)

    z = rng.standard_normal((spec.n_tokens, channels))
    z0 = rng.standard_normal((spec.n_tokens, channels))
    text = rng.standard_normal((spec.text_len, text_channels))
    t = sample_time_logit_normal(rng)
    z_t, v_t = flow_interpolate(FlowSample(z=z, z0=z0, t=t))

    m = {k: np.zeros_like(v) for k, v in w.arrays().items()}
    u = {k: np.zeros_like(v) for k, v in w.arrays().items()}
    b1, b2, eps = 0.9, 0.999, 1e-8
    losses = []
    for step in range(1, steps + 1):
        loss, grads, _, _ = loss_and_gradients(w, z_t, text, spec, cfg, v_t)
        losses.append(loss)
        for name, arr in w.arrays().items():
            gr = grads[name]
            m[name] = b1 * m[name] + (1 - b1) * gr
            u[name] = b2 * u[name] + (1 - b2) * gr * gr
            mhat = m[name] / (1 - b1**step)
            uhat = u[name] / (1 - b2**step)
            arr -= lr * mhat / (np.sqrt(uhat) + eps)
    losses.append(loss_and_gradients(w, z_t, text, spec, cfg, v_t)[0])
    return losses
