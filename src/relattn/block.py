"""Toy relational transformer block with a flow-matching objective.

One block = pre-norm masked self-attention (rotary positions) -> pre-norm
relational cross-attention (level mask with pooled scaling) -> pre-norm
pointwise MLP, each followed by a residual add.  Here live the projections,
the residual stream and the MLP, around the kernels of :mod:`relattn.attention`.
One forward serves the production block, the plain baseline and the taped
path; its hand-derived backward supports finite-difference checks and training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .attention import (
    AttnConfig,
    _as_matrix,
    _blockwise,
    _cross_head,
    _cross_head_bwd,
    _finite_output,
    _layout_plan,
    _self_head_bwd,
)
from .layout import LayoutSpec, _check_int
from .masks import Block, CsamMask, McamMask, build_csam, build_mcam
from .rotary import position_array, rotary_table, rotate

_LN_EPS = 1e-6
# rows per chunk of the MLP backward, which rebuilds the pre-activation
_MLP_ROWS = 512


# ---------------------------------------------------------------------------
# flow matching


def _finite(name: str, x) -> np.ndarray:
    """``x`` as a non-empty array of finite numbers, or ``ValueError``: an
    empty mean is NaN, and a NaN or inf entry would pass on silently."""
    x = np.asarray(x)
    if x.size == 0 or not np.isfinite(x).all():
        raise ValueError(f"{name} must be a non-empty array of finite numbers, got shape {x.shape}")
    return x


def flow_interpolate(z: np.ndarray, z0: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear path point z_t = (1-t) z0 + t z, for data ``z``, noise ``z0``
    and a time ``t`` in [0, 1], and its velocity v = z - z0."""
    z, z0 = _finite("z", z), _finite("z0", z0)
    if z.shape != z0.shape:
        raise ValueError(f"z and z0 shapes differ: {z.shape} vs {z0.shape}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return (1.0 - t) * z0 + t * z, z - z0


def fm_loss(pred: np.ndarray, v_t: np.ndarray) -> float:
    """Mean squared error between predicted and ground-truth velocity."""
    pred, v_t = _finite("pred", pred), _finite("v_t", v_t)
    if pred.shape != v_t.shape:
        raise ValueError(f"shapes differ: {pred.shape} vs {v_t.shape}")
    d = pred - v_t
    return float(np.mean(d * d))


def sample_time_logit_normal(rng: np.random.Generator) -> float:
    """Draw t in (0, 1) as the sigmoid of a standard normal variate."""
    return float(1.0 / (1.0 + math.exp(-rng.standard_normal())))


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
        for name, arr in self.arrays().items():
            if not isinstance(arr, np.ndarray):
                raise ValueError(f"{name} must be a numpy array, got {type(arr).__name__}")
        if self.wq.ndim != 3:
            raise ValueError(f"wq has shape {self.wq.shape}, expected (heads, channels, head_dim)")
        h, c, d = self.wq.shape
        if h < 1:
            raise ValueError(f"a block needs at least one head, got {h}")
        if c < 1:
            raise ValueError(f"a block needs at least one channel, got {c}")
        self.n_heads = h
        self.head_dim = d
        ct = self.ck.shape[1] if self.ck.ndim == 3 else None  # None matches no shape
        f = self.w1.shape[1] if self.w1.ndim == 2 else None
        expected = {
            "wq": (h, c, d), "wk": (h, c, d), "wv": (h, c, d), "wo": (h, d, c),
            "cq": (h, c, d), "ck": (h, ct, d), "cv": (h, ct, d), "co": (h, d, c),
            "w1": (c, f), "b1": (f,), "w2": (f, c), "b2": (c,),
        }
        for name, arr in self.arrays().items():
            if arr.shape != expected[name]:
                raise ValueError(f"{name} has shape {arr.shape}, expected {expected[name]}")
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


def _gelu(x, out=None):
    """0.5 x (1 + tanh(c (x + a x^3))) through two buffers, in the operation
    order of that expression, so its bits match the closed form's.  ``out``
    (which may be ``x`` itself) takes the result in place of a new array."""
    t = x * _GELU_A
    t *= x
    t *= x
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    t += 1.0
    out = np.multiply(x, 0.5, out=out)
    out *= t
    return out


def _gelu_grad(x):
    """d gelu / dx = 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3a x^2), with
    t = tanh(c x (1 + a x^2)), computed in place in two temporaries as
    (1 + t) (0.5 + 0.5 c x (1 + 3a x^2) (1 - t))."""
    poly = x * x
    t = poly * _GELU_A
    t += 1.0
    t *= x
    t *= _GELU_C
    np.tanh(t, out=t)
    np.subtract(1.0, t, out=t)  # 1 - t
    poly *= 3.0 * _GELU_A
    poly += 1.0
    poly *= x
    poly *= 0.5 * _GELU_C
    poly *= t
    poly += 0.5
    np.subtract(2.0, t, out=t)  # 1 + t
    poly *= t
    return poly


def _layer_norm(x):
    mu = x.mean(axis=1, keepdims=True)
    d = x - mu
    inv = 1.0 / np.sqrt((d * d).mean(axis=1, keepdims=True) + _LN_EPS)
    return d * inv, inv


def _layer_norm_bwd(gy, y, inv):
    """inv (gy - mean(gy) - y mean(gy y)) per row, written over ``gy``.  The
    row means are GEMMs against a column of 1/C, which numpy runs faster
    than a ``mean`` along C-wide rows."""
    col = np.full((gy.shape[1], 1), 1.0 / gy.shape[1], dtype=gy.dtype)
    t = gy * y
    m = t @ col
    gy -= gy @ col
    np.multiply(y, m, out=t)
    gy -= t
    gy *= inv
    return gy


# ---------------------------------------------------------------------------
# forward


def _prepare(weights, z_tokens, text, spec, cfg, csam=None, mcam=None, dtype=None):
    """Validated inputs, weights in the inputs' dtype, and the plan of the
    layout's own masks, which the forward and the backward read.  A caller's
    ``csam`` or ``mcam`` is only compared with the mask built from ``spec``,
    never used in its place."""
    for name, mask, kind in (("csam", csam, CsamMask), ("mcam", mcam, McamMask)):
        if mask is not None and not isinstance(mask, kind):
            raise TypeError(f"{name} must be a {kind.__name__} or None, got {type(mask).__name__}")
    own_csam, own_mcam = build_csam(spec), build_mcam(spec)
    if csam is not None and (csam.n != own_csam.n or set(csam.blocks) != set(own_csam.blocks)):
        raise ValueError("csam must be the layout's own mask, build_csam(spec), or None")
    if mcam is not None and not np.array_equal(mcam.entity_levels, own_mcam.entity_levels):
        raise ValueError("mcam must be the layout's own mask, build_mcam(spec), or None")
    x = _as_matrix("z_tokens", np.asarray(z_tokens, dtype=dtype))
    text = _as_matrix("text", np.asarray(text, dtype=dtype))
    if text.dtype != x.dtype:  # and again in the latents' dtype, which may overflow
        text = _as_matrix("text", text.astype(x.dtype))
    if x.shape != (spec.n_tokens, weights.channels):
        raise ValueError(f"z_tokens must be ({spec.n_tokens}, {weights.channels}), got {x.shape}")
    if text.shape[0] != spec.text_len:
        raise ValueError(f"text must have {spec.text_len} rows, got {text.shape}")
    if text.shape[0] and text.shape[1] != weights.ck.shape[1]:
        raise ValueError(f"text must have {weights.ck.shape[1]} channels, got {text.shape[1]}")
    w = weights if all(a.dtype == x.dtype for a in weights.arrays().values()) else weights.astype(x.dtype)
    rot = rotary_table(position_array(spec), w.head_dim, x.dtype)
    return w, x, text, _layout_plan(spec, cfg, own_csam.blocks, rot, own_mcam.entity_levels)


def _self_qkv(w: BlockWeights, h, u, rot) -> list:
    """Head ``h``'s rotated self-attention queries and keys, and its values."""
    cos, sin = rot
    return [rotate(u @ w.wq[h], cos, sin), rotate(u @ w.wk[h], cos, sin), u @ w.wv[h]]


def _head_sum(total, h, a, proj):
    """``total`` + head ``h``'s output ``a`` @ ``proj[h]``; head 0 starts the
    sum, its -0.0 turned to +0.0 as a sum from zeros gives, bit for bit."""
    if h == 0:
        total = a @ proj[0]
        total += 0.0
    else:
        total += a @ proj[h]
    return total


def _forward(w: BlockWeights, x, text, plan, tape=None):
    """LN -> self-attention -> LN -> cross-attention -> LN -> MLP, each
    sub-layer added back to its input.  Given a ``tape`` dict, each sub-layer
    records one entry of what its mirror in :func:`_backward` cannot cheaply
    rebuild, none of it n x caption length or wider than a head."""
    x = _self_layer(w, x, plan, tape)
    x = _cross_layer(w, x, text, plan, tape)
    return _mlp_layer(w, x, tape)


def _self_layer(w: BlockWeights, x, plan, tape=None):
    """x + the self-attention of LN(x), each head streamed over the plan's
    block cover (:func:`_blockwise`).  Untaped, it holds one head's working
    set: its q, k and v, handed over in a list the kernel empties (the
    float32 kernel writes the output over q and holds K^T in k's place), the
    residual sum and the normalized input ``u`` only until the last head is
    projected.  Tapes ``u``, its scale and each head's output and lse."""
    u, inv = _layer_norm(x)
    sa, heads = None, []
    if tape is not None:
        tape["self"] = (u, inv, heads)
    del inv
    for h in range(w.n_heads):
        qkv = _self_qkv(w, h, u, plan.rot)
        if h == w.n_heads - 1:
            del u
        a, lse = _blockwise(qkv, plan.blocks)  # empties qkv
        if tape is not None:
            heads.append((a, lse))
        sa = _head_sum(sa, h, a, w.wo)
        del a, lse
    sa += x  # x + sa, bit for bit
    return sa


def _cross_layer(w: BlockWeights, x, text, plan, tape=None):
    """x + the relational cross-attention of LN(x) over ``text``, each head
    with the plan's level term (:func:`_cross_head`); x itself without a
    caption.  Tapes ``text``, LN(x) ``u2`` with its scale and each head's row
    log-sum-exp, from which the backward rebuilds all else."""
    u2 = inv2 = ca = None
    lses = []
    if text.shape[0] > 0:
        u2, inv2 = _layer_norm(x)
        for h in range(w.n_heads):
            qc, kc, vc = u2 @ w.cq[h], text @ w.ck[h], text @ w.cv[h]
            a, lse = _cross_head(qc, kc, vc, plan)
            if tape is not None:
                lses.append(lse)
            ca = _head_sum(ca, h, a, w.co)
        del qc, kc, vc, a, lse
        ca += x
    if tape is not None:
        tape["cross"] = (text, u2, inv2, lses)
    return x if ca is None else ca


def _mlp_layer(w: BlockWeights, x, tape=None):
    """x + the MLP of LN(x), its GELU written over the pre-activation it
    reads.  Tapes the normalized input ``u3`` and its ``inv3`` scale."""
    u3, inv3 = _layer_norm(x)
    h1 = u3 @ w.w1
    h1 += w.b1
    if tape is not None:
        tape["mlp"] = (u3, inv3)
    del u3, inv3
    y = _gelu(h1, out=h1) @ w.w2
    y += x
    y += w.b2
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
    the block-streaming kernel over the layout's block cover.  The masks are
    the layout's own, ``build_csam(spec)`` and ``build_mcam(spec)``: a
    ``csam`` or ``mcam`` passed in must equal that mask (the same token
    count and set of blocks, the same entity level rows), or ``ValueError``
    names it before any compute, so passing one never changes the output.
    """
    return _finite_output(_forward(*_prepare(weights, z_tokens, text, spec, cfg, csam, mcam)))


def plain_block_forward(
    weights: BlockWeights,
    z_tokens: np.ndarray,
    text: np.ndarray,
    spec: LayoutSpec,
    cfg: AttnConfig,
) -> np.ndarray:
    """Non-relational baseline: the same block with one full-square cover
    (every query sees every key) and no level-mask term (r=0)."""
    w, x, text, plan = _prepare(weights, z_tokens, text, spec, replace(cfg, r=0.0))
    n = spec.n_tokens
    return _finite_output(_forward(w, x, text, plan._replace(blocks=(Block(0, n, 0, n),))))


# ---------------------------------------------------------------------------
# hand-derived backward of the taped forward (float64)


def _backward(w: BlockWeights, tape, plan, gy):
    """Gradients of a scalar loss w.r.t. every weight array and both inputs,
    given the loss gradient ``gy`` at the block output, which becomes ``gx``,
    the gradient at the residual stream, updated in place past each
    sub-layer.  Each sub-layer's mirror, the last first, pops its forward's
    tape entry whole and rebuilds what the forward left off it by the
    forward's own operations, so the walk back holds only the tape still
    ahead of it and leaves the tape empty.  A weight that enters a GEMM
    transposed is copied row-major where it is used, which BLAS multiplies
    faster than a ``.T`` view."""
    g = {name: np.zeros_like(arr) for name, arr in w.arrays().items()}
    _mlp_layer_bwd(w, tape, g, gy)
    gtext = _cross_layer_bwd(w, tape, plan, g, gy)
    _self_layer_bwd(w, tape, plan, g, gy)
    return g, gy, gtext


def _mlp_layer_bwd(w: BlockWeights, tape, g, gx):
    """:func:`_mlp_layer`'s weight gradients into ``g``, and ``gx`` carried
    past it.  Rebuilds the pre-activation and GELU from ``u3``, a chunk of
    ``_MLP_ROWS`` rows at a time."""
    u3, inv3 = tape.pop("mlp")
    g["b2"] += gx.sum(axis=0)
    for r0 in range(0, len(gx), _MLP_ROWS):
        rows = slice(r0, r0 + _MLP_ROWS)
        h1 = u3[rows] @ w.w1
        h1 += w.b1
        gh1 = gx[rows] @ w.w2.T.copy()
        gh1 *= _gelu_grad(h1)
        g["w2"] += _gelu(h1, out=h1).T @ gx[rows]
        g["w1"] += u3[rows].T @ gh1
        g["b1"] += gh1.sum(axis=0)
        gx[rows] += _layer_norm_bwd(gh1 @ w.w1.T.copy(), u3[rows], inv3[rows])


def _cross_layer_bwd(w: BlockWeights, tape, plan, g, gx):
    """:func:`_cross_layer`'s weight gradients into ``g``, ``gx`` carried past
    it, and the gradient at ``text``.  Rebuilds each head's queries, keys and
    values by the forward's GEMMs, and its weights and output tile by tile
    from the taped row log-sum-exp (:func:`_cross_head_bwd`)."""
    text, u2, inv2, lses = tape.pop("cross")
    gtext = np.zeros_like(text)
    if text.shape[0] > 0:
        gu2 = np.zeros_like(u2)
        for h in range(w.n_heads):
            qkv = u2 @ w.cq[h], text @ w.ck[h], text @ w.cv[h]
            gco, gqc, gkc, gvc = _cross_head_bwd(*qkv, lses.pop(0), w.co[h], gx, plan)
            del qkv
            g["co"][h] += gco
            g["cq"][h] += u2.T @ gqc
            g["ck"][h] += text.T @ gkc
            g["cv"][h] += text.T @ gvc
            gu2 += gqc @ w.cq[h].T.copy()
            gtext += gkc @ w.ck[h].T.copy() + gvc @ w.cv[h].T.copy()
            del gco, gqc, gkc, gvc
        gx += _layer_norm_bwd(gu2, u2, inv2)
    return gtext


def _self_layer_bwd(w: BlockWeights, tape, plan, g, gx):
    """:func:`_self_layer`'s weight gradients into ``g``, and ``gx`` carried
    past it.  Rebuilds each head's rotated queries, keys and values from
    ``u`` by :func:`_self_qkv`, which :func:`_self_head_bwd` takes with the
    taped output, row log-sum-exp and the gradient at that output.  Here stay
    the output projections, the un-rotation and the weight gradients."""
    cos, sin = plan.rot
    u, inv, heads = tape.pop("self")
    gu = np.zeros_like(u)
    for h in range(w.n_heads):
        a, lse = heads.pop(0)
        g["wo"][h] += a.T @ gx
        head = [*_self_qkv(w, h, u, plan.rot), a, lse, gx @ w.wo[h].T.copy()]
        del a, lse  # head holds them alone, and _self_head_bwd empties it
        gq, gk, gv = _self_head_bwd(head, plan.blocks)
        gq, gk = rotate(gq, cos, -sin), rotate(gk, cos, -sin)
        g["wq"][h] += u.T @ gq
        g["wk"][h] += u.T @ gk
        g["wv"][h] += u.T @ gv
        gu += gq @ w.wq[h].T.copy() + gk @ w.wk[h].T.copy() + gv @ w.wv[h].T.copy()
        del gq, gk, gv
    gx += _layer_norm_bwd(gu, u, inv)


def _as_target(target, shape):
    """``target`` as a finite float64 array of the output's ``shape``: numpy
    would broadcast an (n, 1) target over every channel."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != shape:
        raise ValueError(f"target must be {shape}, got {target.shape}")
    return _as_matrix("target", target)


def _row_loss(y, target, loss_rows):
    """Mean squared error over ``loss_rows`` (all rows when None), with the
    rows (None for all) and their differences for the output gradient."""
    rows, n = None, y.shape[0]
    if loss_rows is not None:
        rows = np.asarray(loss_rows)
        # an empty selection would average nothing into NaN, numpy indexing
        # would wrap a negative row to the end, and the output gradient keeps
        # one copy of a repeated row where the loss counts each
        ok = rows.size and np.issubdtype(rows.dtype, np.integer) and rows.min() >= 0 and rows.max() < n
        if not (ok and np.unique(rows).size == rows.size):
            raise ValueError(f"loss_rows must be a non-empty array of distinct integer rows in [0, {n})")
        y, target = y[rows], target[rows]
    with np.errstate(over="ignore"):  # a loss past the dtype's range is inf
        diff = y - target
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
    output rows, a non-empty array of distinct integer rows in [0, n); the
    default is the full :func:`fm_loss`.  A non-finite loss raises
    ``ValueError`` before the backward runs.
    """
    w, x, text, plan = _prepare(weights, z_tokens, text, spec, cfg, dtype=np.float64)
    return _loss_and_grads(w, x, text, plan, _as_target(target, x.shape), loss_rows)


def _loss_and_grads(w, x, text, plan, target, loss_rows):
    """:func:`loss_and_gradients` on validated float64 inputs and their plan."""
    tape: dict = {}
    y = _forward(w, x, text, plan, tape)
    loss, rows, diff = _row_loss(y, target, loss_rows)
    if not math.isfinite(loss):
        raise ValueError(f"non-finite loss {loss}")
    del y  # the backward does not need it
    diff *= 2.0
    diff /= diff.size  # 2 diff / diff.size, the gradient of the mean
    if rows is None:
        gy = diff
    else:
        gy = np.zeros_like(x)
        gy[rows] = diff
    grads, gx, gtext = _backward(w, tape, plan, gy)
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
    epsilon: float = 1e-4,
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

    The default step is 1e-4: the level term reads |pooled Q K^T|, so the
    loss has a kink where such a similarity with a non-zero level crosses
    zero, and a step across one bends the central difference.  On seeds
    0-299 of ``relctl check``'s block problem 1e-3 failed 8 and 1e-4 none.
    """
    if not 1e-5 <= epsilon <= 1e-2:
        raise ValueError(f"epsilon must lie in [1e-5, 1e-2], got {epsilon}")
    _check_int("max_coords", max_coords, 1)
    if arrays is not None and (not arrays or len(set(arrays)) < len(arrays)):
        raise ValueError(f"arrays must name at least one array, each once, got {arrays}")
    known = [*weights.arrays(), *(("z_tokens", "text") if check_inputs else ())]
    names = arrays if arrays is not None else known
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ValueError(f"unknown array name(s) {unknown}")
    w, x, text, plan = _prepare(weights.astype(np.float64), z_tokens, text, spec, cfg, dtype=np.float64)
    # the steps below perturb x and text in place: _prepare's asarray may
    # have handed back the caller's own arrays
    x, text = x.copy(), text.copy()
    target = _as_target(target, x.shape)

    def taped_loss() -> float:
        return _row_loss(_forward(w, x, text, plan), target, loss_rows)[0]

    loss, grads, gx, gtext = _loss_and_grads(w, x, text, plan, target, loss_rows)
    if any(not np.isfinite(v).all() for v in grads.values()):
        raise ValueError("non-finite gradient")

    tensors: dict[str, np.ndarray] = dict(w.arrays())
    analytic: dict[str, np.ndarray] = dict(grads)
    if check_inputs:
        tensors["z_tokens"], analytic["z_tokens"] = x, gx
        tensors["text"], analytic["text"] = text, gtext

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


def _toy_problem(spec: LayoutSpec, rng: np.random.Generator, dtype):
    """The toy model that :func:`demo_fit` and ``relctl forward`` run: its
    weights (16 channels, a 12-channel caption, 2 heads of 8 channels, an
    MLP 32 wide), a caption, a flow time t and the path point and velocity
    of a data and a noise latent at t, all drawn from ``rng``."""
    w = init_weights(rng, 16, 12, 2, 8, 32, dtype=dtype)
    z, z0 = (rng.standard_normal((spec.n_tokens, w.channels)).astype(dtype) for _ in range(2))
    text = rng.standard_normal((spec.text_len, w.ck.shape[1])).astype(dtype)
    t = sample_time_logit_normal(rng)
    return w, text, t, *flow_interpolate(z, z0, t)


def demo_fit(spec: LayoutSpec, seed: int = 0, steps: int = 200) -> list[float]:
    """Adam-fit the toy model (:func:`_toy_problem`, float64) at the default
    :class:`AttnConfig` with learning rate 1e-2 to a fixed synthetic velocity
    target; returns the per-step loss trace (length steps + 1, starting at
    the untrained loss)."""
    _check_int("steps", steps, 0)
    cfg, lr = AttnConfig(), 1e-2
    w, text, _, z_t, v_t = _toy_problem(spec, np.random.default_rng(seed), np.float64)

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
