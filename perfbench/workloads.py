"""The four benchmark workloads: input generation, the timed op, and the
output checks (run outside the timed region).

A workload is driven in rounds.  ``setup`` builds the weights and round 0;
``round(r)`` prepares the inputs of round ``r`` (never timed); ``run(op)``
is the timed op; ``check(op, out)`` returns the list of failed checks.  All
inputs come from ``np.random.default_rng([seed, stream, ...])`` so the same
seed gives the same inputs however many rounds a run reaches.
"""

from __future__ import annotations

import json
import math

import numpy as np

import layouts
import reference as ref

# the `relctl forward` model shape
CHANNELS, TEXT_CHANNELS, HEADS, HEAD_DIM, HIDDEN = 16, 12, 2, 8, 32
R, D = 0.5, 8

# float32 package output against the float64 reference: |got - want| <= ATOL + RTOL |want|
ATOL, RTOL = 5e-5, 5e-5
ISOLATION_TOL = 1e-6  # as in `relctl forward`
LOSS_RTOL_F32 = 1e-5
LOSS_RTOL_F64 = 1e-9
GRAD_EPS, GRAD_TOL = 1e-4, 1e-3
REUSE_STEPS = 8


class Op:
    def __init__(self, tokens: int, **fields):
        self.tokens = tokens
        self.__dict__.update(fields)


def _flow_inputs(rng, n: int, text_len: int, dtype):
    z = rng.standard_normal((n, CHANNELS)).astype(dtype)
    z0 = rng.standard_normal((n, CHANNELS)).astype(dtype)
    text = rng.standard_normal((text_len, TEXT_CHANNELS)).astype(dtype)
    t = 1.0 / (1.0 + math.exp(-rng.standard_normal()))
    return (1.0 - t) * z0 + t * z, z - z0, text


def _compare(got, want, what: str) -> list[str]:
    err = np.abs(np.asarray(got, dtype=np.float64) - want) / (ATOL + RTOL * np.abs(want))
    worst = float(err.max()) if err.size else 0.0
    return [] if worst <= 1.0 else [f"{what}: error {worst:.2f}x tolerance"]


def _seeded_patches(rng, doc: dict, n_frames: int, count: int) -> np.ndarray:
    """Rows of ``count`` whole pooling patches: one in the video, one in a
    condition frame (when there is one), the rest anywhere."""
    ph, pw = -(-doc["H"] // D), -(-doc["W"] // D)
    T = doc["T"]
    frames = [int(rng.integers(T))]
    if n_frames > T:
        frames.append(int(rng.integers(T, n_frames)))
    while len(frames) < count:
        frames.append(int(rng.integers(n_frames)))
    rows = [ref.patch_rows(doc, D, f, int(rng.integers(ph)), int(rng.integers(pw))) for f in frames]
    return np.unique(np.concatenate(rows))


def _isolation(api, w, x, out, text, spec, cfg, rng, **masks) -> list[str]:
    """Condition rows must not move when only the video rows change."""
    nv = spec.n_video_tokens
    if spec.n_tokens == nv:
        return []
    bumped = x.copy()
    bumped[:nv] += rng.standard_normal((nv, x.shape[1])).astype(x.dtype)
    alt = api.block_forward(w, bumped, text, spec, cfg, **masks)
    resid = float(np.max(np.abs(alt[nv:] - out[nv:])))
    return [] if resid <= ISOLATION_TOL else [f"branch isolation: condition rows moved by {resid:.3e}"]


def _forward_model(api, rng):
    """float32 weights of the `relctl forward` shape, their float64 copy for
    the reference, and the attention config."""
    weights = api.init_weights(rng, CHANNELS, TEXT_CHANNELS, HEADS, HEAD_DIM, HIDDEN)
    return weights, {k: v.astype(np.float64) for k, v in weights.arrays().items()}, api.AttnConfig(r=R, d=D)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, *stream) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def setup(self, api) -> None:
        raise NotImplementedError

    def _make_round(self, r: int) -> list[Op]:
        raise NotImplementedError

    peak_rounds = 1  # rounds whose ops the peak-memory pass runs again

    def round(self, r: int) -> list[Op]:
        """Inputs of round ``r``; round 0 is made in set-up."""
        if r == 0:
            self.kept = []
        ops = self.round0 if r == 0 else self._make_round(r)
        if r < self.peak_rounds:
            self.kept += ops
        return ops

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        raise NotImplementedError

    def peak_ops(self) -> list[Op]:
        return self.kept


class Forward(Workload):
    """Each op parses one distinct layout document and runs one float32
    ``block_forward`` without masks, then ``fm_loss``."""

    slots: tuple = ()

    def setup(self, api) -> None:
        self.api = api
        self.weights, self.w64, self.cfg = _forward_model(api, self.rng(0))
        self.seen: set[str] = set()
        self.round0 = self._make_round(0)

    def doc(self, rng, r: int, i: int, slot) -> dict:
        raise NotImplementedError

    def _make_round(self, r: int) -> list[Op]:
        rng = self.rng(1, r)
        ops = []
        for i, slot in enumerate(self.slots):
            for _ in range(100):  # documents of a run are distinct while the slot's variety lasts
                doc = self.doc(rng, r, i, slot)
                text = json.dumps(doc)
                if text not in self.seen:
                    break
            self.seen.add(text)
            n = ref.n_tokens(doc)
            z_t, v_t, emb = _flow_inputs(rng, n, doc["text_len"], np.float32)
            ops.append(
                Op(n, doc=doc, text=text, z_t=z_t, v_t=v_t, emb=emb, check_rng=self.rng(2, r, i),
                   isolation=i == r % len(self.slots))
            )
        return ops

    def run(self, op: Op):
        api = self.api
        spec = api.parse_spec(op.text)
        pred = api.block_forward(self.weights, op.z_t, op.emb, spec, self.cfg)
        return spec, pred, api.fm_loss(pred, op.v_t)

    def _check_common(self, op, spec, pred, loss) -> list[str]:
        if pred.shape != (op.tokens, CHANNELS) or not np.isfinite(pred).all():
            return ["output has the wrong shape or is not finite"]
        want = ref.fm_loss(pred, op.v_t)
        if abs(loss - want) > LOSS_RTOL_F32 * max(1.0, want):
            return [f"fm_loss {loss!r} != {want!r}"]
        return []


class ForwardSmall(Forward):
    name = "forward-small"
    slots = layouts.SMALL_SLOTS
    peak_rounds = 4  # the peak is the largest of many small ones: take it over more layouts

    def doc(self, rng, r, i, slot):
        return layouts.small_doc(rng, slot)

    def check(self, op, out):
        spec, pred, loss = out
        errors = self._check_common(op, spec, pred, loss)
        if not errors:
            want = ref.block_rows(op.doc, self.w64, op.z_t, op.emb, R, D)
            errors += _compare(pred, want, "all rows vs reference")
        return errors


class ForwardLarge(Forward):
    name = "forward-large"
    slots = layouts.LARGE_SLOTS

    def doc(self, rng, r, i, slot):
        if r == 0 and i == 0:
            return layouts.roadmap_doc()
        return layouts.large_doc(rng, slot)

    def check(self, op, out):
        spec, pred, loss = out
        errors = self._check_common(op, spec, pred, loss)
        if errors:
            return errors
        rng = op.check_rng
        rows = _seeded_patches(rng, op.doc, spec.T + spec.n_entities, 3)
        want = ref.block_rows(op.doc, self.w64, op.z_t, op.emb, R, D, rows)
        errors += _compare(pred[rows], want, "patch rows vs reference")
        if op.isolation:  # one op per round, rotating over the slots: it costs a second forward
            errors += _isolation(self.api, self.weights, op.z_t, pred, op.emb, spec, self.cfg, rng)
        return errors


class SampleReuse(Workload):
    """One layout, masks built once in set-up; each op is one Euler flow
    trajectory of REUSE_STEPS float32 forwards with the masks passed in."""

    name = "sample-reuse"

    def setup(self, api) -> None:
        self.api = api
        self.weights, self.w64, self.cfg = _forward_model(api, self.rng(0))
        rng = self.rng(3)
        self.doc = layouts.reuse_doc(rng)
        self.spec = api.parse_spec(json.dumps(self.doc))
        self.emb = rng.standard_normal((self.doc["text_len"], TEXT_CHANNELS)).astype(np.float32)
        self.csam = api.build_csam(self.spec)
        self.mcam = api.build_mcam(self.spec)
        self.round0 = self._make_round(0)

    def _make_round(self, r: int) -> list[Op]:
        rng = self.rng(1, r)
        z0 = rng.standard_normal((self.spec.n_tokens, CHANNELS)).astype(np.float32)
        return [Op(self.spec.n_tokens * REUSE_STEPS, z0=z0, check_rng=self.rng(2, r))]

    def run(self, op: Op):
        api, dt = self.api, np.float32(1.0 / REUSE_STEPS)
        x, xs, ys = op.z0, [], []
        for _ in range(REUSE_STEPS):
            y = api.block_forward(self.weights, x, self.emb, self.spec, self.cfg, self.csam, self.mcam)
            xs.append(x)
            ys.append(y)
            x = x + dt * y
        return xs, ys

    def check(self, op, out):
        xs, ys = out
        rng = op.check_rng
        errors = []
        frames = self.spec.T + self.spec.n_entities
        for k, (x, y) in enumerate(zip(xs, ys)):
            if not np.isfinite(y).all():
                return [f"step {k}: output not finite"]
            rows = _seeded_patches(rng, self.doc, frames, 2)
            want = ref.block_rows(self.doc, self.w64, x, self.emb, R, D, rows)
            errors += _compare(y[rows], want, f"step {k} patch rows vs reference")
        k = int(rng.integers(REUSE_STEPS))
        api = self.api
        inside = api.block_forward(self.weights, xs[k], self.emb, self.spec, self.cfg)
        if not np.array_equal(inside, ys[k]):
            errors.append(f"step {k}: masks passed in differ from masks built inside")
        errors += _isolation(
            api, self.weights, xs[k], ys[k], self.emb, self.spec, self.cfg, rng, csam=self.csam, mcam=self.mcam
        )
        return errors


class TrainStep(Workload):
    """``bench_layout()``; each op is one float64 ``loss_and_gradients``
    followed by an Adam update, as ``demo_fit`` does."""

    name = "train-step"
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8

    def setup(self, api) -> None:
        self.api = api
        self.doc = layouts.train_doc()
        self.spec = api.parse_spec(json.dumps(self.doc))
        self.cfg = api.AttnConfig(r=R, d=D)
        self.weights = api.init_weights(
            self.rng(0), CHANNELS, TEXT_CHANNELS, HEADS, HEAD_DIM, HIDDEN, dtype=np.float64
        )
        self.m = {k: np.zeros_like(v) for k, v in self.weights.arrays().items()}
        self.u = {k: np.zeros_like(v) for k, v in self.weights.arrays().items()}
        self.step = 0
        self.round0 = self._make_round(0)

    def _make_round(self, r: int) -> list[Op]:
        rng = self.rng(1, r)
        z_t, v_t, emb = _flow_inputs(rng, self.spec.n_tokens, self.spec.text_len, np.float64)
        before = self.weights.copy()
        return [Op(self.spec.n_tokens, z_t=z_t, v_t=v_t, emb=emb, before=before, check_rng=self.rng(2, r))]

    def run(self, op: Op):
        loss, grads, _, _ = self.api.loss_and_gradients(self.weights, op.z_t, op.emb, self.spec, self.cfg, op.v_t)
        self.step += 1
        for name, arr in self.weights.arrays().items():
            g = grads[name]
            self.m[name] = self.b1 * self.m[name] + (1 - self.b1) * g
            self.u[name] = self.b2 * self.u[name] + (1 - self.b2) * g * g
            mhat = self.m[name] / (1 - self.b1**self.step)
            uhat = self.u[name] / (1 - self.b2**self.step)
            arr -= self.lr * mhat / (np.sqrt(uhat) + self.eps)
        return loss, grads

    def _ref_loss(self, w: dict, op: Op) -> float:
        return ref.fm_loss(ref.block_rows(self.doc, w, op.z_t, op.emb, R, D), op.v_t)

    def check(self, op, out):
        loss, grads = out
        if not math.isfinite(loss) or any(not np.isfinite(g).all() for g in grads.values()):
            return ["loss or gradient not finite"]
        api = self.api
        w = op.before.arrays()
        errors = []
        for what, want in (
            ("fm_loss of block_forward", api.fm_loss(api.block_forward(op.before, op.z_t, op.emb, self.spec, self.cfg), op.v_t)),
            ("reference loss", self._ref_loss(w, op)),
        ):
            if abs(loss - want) > LOSS_RTOL_F64 * max(1.0, want):
                errors.append(f"loss {loss!r} != {what} {want!r}")
        # central differences of the reference loss along one seeded
        # coordinate and one seeded unit direction through every weight
        rng = op.check_rng
        names = list(w)
        ends = np.cumsum([w[k].size for k in names])
        flat = int(rng.integers(ends[-1]))
        a = int(np.searchsorted(ends, flat, side="right"))
        coord = {k: np.zeros_like(v) for k, v in w.items()}
        coord[names[a]].flat[flat - ends[a] + w[names[a]].size] = 1.0
        direction = {k: rng.standard_normal(v.shape) for k, v in w.items()}
        norm = math.sqrt(sum(float(np.vdot(v, v)) for v in direction.values()))
        direction = {k: v / norm for k, v in direction.items()}  # unit length keeps the step small
        for what, step in ((f"{names[a]}[{flat - ends[a] + w[names[a]].size}]", coord), ("a random direction", direction)):
            lo_hi = [self._ref_loss({k: w[k] + sign * GRAD_EPS * step[k] for k in w}, op) for sign in (1.0, -1.0)]
            numeric = (lo_hi[0] - lo_hi[1]) / (2.0 * GRAD_EPS)
            analytic = float(sum(np.vdot(grads[k], step[k]) for k in w))
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
            if rel > GRAD_TOL:
                errors.append(f"d loss along {what}: analytic {analytic:.6e} vs central {numeric:.6e}")
        return errors


WORKLOADS = {cls.name: cls for cls in (ForwardLarge, ForwardSmall, SampleReuse, TrainStep)}
