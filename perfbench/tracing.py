"""Span tracing of the relattn layers, from outside the package.

Each public function is wrapped under the module attribute the package
looks it up by at call time, so ``block_forward`` calls the wrapper.  Spans
(name, start, end, parent span, op id) stay in memory and are written out
when the run ends.  A name that no longer exists is skipped and simply
records no calls.
"""

from __future__ import annotations

import functools
import json
import statistics
import tracemalloc
from time import perf_counter

MIB = 1024.0 * 1024.0

# (owner, attribute, layer name); owner "api" is the benchmark's own call table
TARGETS = (
    ("api", "parse_spec", "layout.parse_spec"),
    ("api", "block_forward", "block.forward"),
    ("api", "loss_and_gradients", "block.train"),
    ("block", "build_csam", "masks.build_csam"),
    ("block", "build_mcam", "masks.build_mcam"),
    ("block", "assign_positions", "rotary.assign_positions"),
    ("block", "apply_rotary", "rotary.apply_rotary"),
    ("block", "masked_self_attention_blockwise", "attention.self_attn"),
    ("block", "compute_scaling_s", "attention.scaling_s"),
    ("block", "relational_cross_attention", "attention.cross_attn"),
    ("masks", "decompose_blocks", "masks.decompose_blocks"),
)

# per-layer metric -> layer whose per-op inclusive time it reports
TIMED = {
    "layout.parse_spec_ms": "layout.parse_spec",
    "masks.build_csam_ms": "masks.build_csam",
    "masks.decompose_blocks_ms": "masks.decompose_blocks",
    "masks.build_mcam_ms": "masks.build_mcam",
    "rotary.assign_positions_ms": "rotary.assign_positions",
    "rotary.apply_rotary_ms": "rotary.apply_rotary",
    "attention.self_attn_ms": "attention.self_attn",
    "attention.scaling_s_ms": "attention.scaling_s",
    "attention.cross_attn_ms": "attention.cross_attn",
}
# per-layer metric -> layer whose per-op self time it reports
SELF_TIMED = {"block.forward_self_ms": "block.forward", "block.train_self_ms": "block.train"}


def _csam_note(args, kwargs, out):
    return {"blocks": len(out.blocks)}


def _self_attn_note(args, kwargs, out):
    q, _, v = args[:3]
    blocks = kwargs.get("blocks", args[3] if len(args) > 3 else ())
    area = sum((b.q1 - b.q0) * (b.k1 - b.k0) for b in blocks)
    # Q K^T and P V: two multiply-adds per covered score per channel
    return {
        "blocks": len(blocks),
        "fraction": area / float(q.shape[0]) ** 2,
        "flop": 2.0 * area * (q.shape[1] + v.shape[1]),
    }


NOTES = {"masks.build_csam": _csam_note, "attention.self_attn": _self_attn_note}


def traced_peak_mib(fn, *args, **kwargs) -> float:
    """tracemalloc peak of one standalone call, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return (tracemalloc.get_traced_memory()[1] - base) / MIB
    finally:
        tracemalloc.stop()


class Tracer:
    def __init__(self, owners: dict):
        self.owners = owners  # owner name -> object holding the attributes
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.notes: dict[int, dict] = {}
        self.first_call: dict[str, tuple] = {}
        self.peaks: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op = None

    def _wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op])
            self.first_call.setdefault(name, (args, kwargs))
            self._stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx][1:3] = [start, end]
            if note is not None:
                self.notes[idx] = note(args, kwargs, out)
            return out

        return traced

    def begin(self, op_id: int) -> None:
        """Install the wrappers for one op."""
        self._op = op_id
        self.first_call = {}
        for owner, attr, name in TARGETS:
            obj = self.owners[owner]
            if hasattr(obj, attr):
                fn = getattr(obj, attr)
                self._saved.append((obj, attr, fn))
                setattr(obj, attr, self._wrap(name, fn))

    def end(self) -> None:
        """Restore the originals, then measure per-layer peaks by calling
        each function once more, standalone, on this op's own inputs."""
        originals = {}
        for obj, attr, fn in reversed(self._saved):
            setattr(obj, attr, fn)
            originals[attr] = fn
        self._saved = []
        for name, attr in (("masks.build_csam", "build_csam"), ("attention.self_attn", "masked_self_attention_blockwise")):
            if name in self.first_call and attr in originals:
                args, kwargs = self.first_call[name]
                self.peaks.setdefault(name, []).append(traced_peak_mib(originals[attr], *args, **kwargs))
        self.first_call = {}

    # -- reporting ------------------------------------------------------

    def per_op(self, scales: dict[int, float]) -> dict[str, list[float]]:
        """Per-layer value of each traced op, in op order; each op's times
        are multiplied by its entry in ``scales`` (op id -> factor)."""
        op_ids = list(scales)
        by_op = {op: [] for op in op_ids}
        for idx, span in enumerate(self.spans):
            if span[4] in by_op:
                by_op[span[4]].append(idx)
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, list[float]] = {m: [] for m in (*TIMED, *SELF_TIMED, "masks.csam_blocks", "attention.score_fraction", "attention.self_attn_gflop")}
        for op in op_ids:
            incl: dict[str, float] = {}
            self_t: dict[str, float] = {}
            csam_blocks = attn_blocks = fraction = None
            flop = 0.0
            for idx in by_op[op]:
                name, start, end = self.spans[idx][:3]
                incl[name] = incl.get(name, 0.0) + (end - start)
                self_t[name] = self_t.get(name, 0.0) + (end - start) - child_time[idx]
                note = self.notes.get(idx, {})
                if name == "masks.build_csam" and csam_blocks is None:
                    csam_blocks = note["blocks"]
                if name == "attention.self_attn":
                    attn_blocks = note["blocks"] if attn_blocks is None else attn_blocks
                    fraction = note["fraction"] if fraction is None else fraction
                    flop += note["flop"]
            for metric, layer in TIMED.items():
                out[metric].append(incl.get(layer, 0.0) * 1e3 * scales[op])
            for metric, layer in SELF_TIMED.items():
                out[metric].append(self_t.get(layer, 0.0) * 1e3 * scales[op])
            out["masks.csam_blocks"].append(float(csam_blocks if csam_blocks is not None else attn_blocks or 0))
            out["attention.score_fraction"].append(fraction or 0.0)
            out["attention.self_attn_gflop"].append(flop / 1e9)
        return out

    def metrics(self, scales: dict[int, float]) -> dict[str, float]:
        per_op = self.per_op(scales)
        out = {m: statistics.median(v) if v else 0.0 for m, v in per_op.items()}
        out["masks.build_csam_peak_mib"] = max(self.peaks.get("masks.build_csam", [0.0]))
        out["attention.self_attn_peak_mib"] = max(self.peaks.get("attention.self_attn", [0.0]))
        return out

    def calls(self) -> dict[str, int]:
        counts = {name: 0 for _, _, name in TARGETS}
        for span in self.spans:
            counts[span[0]] += 1
        return counts

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                rec = {"id": idx, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                rec.update(self.notes.get(idx, {}))
                fh.write(json.dumps(rec) + "\n")
