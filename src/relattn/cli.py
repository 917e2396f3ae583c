"""relctl: build and export masks and positions, run the invariant battery,
micro-benchmark the kernels, and run one seeded block forward.

Exit code is 0 iff every check passed, 1 if a check failed, and 2 if the
arguments, the layout file or a ``forward`` config whose products overflow
are refused, with one ``relctl`` line on stderr.  Timing goes to stderr for
``masks`` and ``forward`` so their stdout and file outputs stay byte-stable;
``check`` and ``bench`` print timings as part of their results.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .attention import AttnConfig, masked_self_attention_blockwise
from .block import _toy_problem, block_forward, fm_loss
from .checks import CheckResult, run_checks
from .corpus import builtin_corpus
from .layout import LayoutError, LayoutSpec, parse_spec
from .masks import build_csam, build_mcam, write_csam_csv, write_csam_pgm, write_mcam_csv, write_mcam_pgm
from .reference import masked_self_attention_naive
from .rotary import position_array


@dataclass
class RunReport:
    command: str
    wall_time: float = 0.0
    checks: list[CheckResult] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self, with_timing: bool) -> str:
        doc = {
            "command": self.command,
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "passed": bool(c.passed),
                    "error": None if c.error is None else float(c.error),
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "artifacts": self.artifacts,
            "values": self.values,
        }
        if with_timing:
            doc["wall_time_s"] = round(self.wall_time, 6)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _refuse(message: str) -> SystemExit:
    """Print ``message`` as one line on stderr and return the exit, with
    code 2, that refuses the input; the exit's text is the message."""
    print(message, file=sys.stderr)
    refusal = SystemExit(message)
    refusal.code = 2
    return refusal


def _load_spec(path: str) -> LayoutSpec:
    try:
        return parse_spec(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise _refuse(f"relctl: cannot read {path}: {exc}")
    except LayoutError as exc:
        raise _refuse(f"relctl: invalid layout {path}: {exc}")


def cmd_masks(args) -> RunReport:
    t0 = time.perf_counter()
    spec = _load_spec(args.spec)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _refuse(f"relctl: cannot write to {args.out}: {exc}")
    report = RunReport(command="masks")

    csam = build_csam(spec)
    mcam = build_mcam(spec)
    positions = position_array(spec)

    write_csam_csv(out_dir / "csam.csv", csam)
    write_csam_pgm(out_dir / "csam.pgm", csam)
    report.artifacts += [str(out_dir / "csam.csv"), str(out_dir / "csam.pgm")]
    if spec.text_len > 0:
        write_mcam_csv(out_dir / "mcam.csv", mcam)
        write_mcam_pgm(out_dir / "mcam.pgm", mcam)
        report.artifacts += [str(out_dir / "mcam.csv"), str(out_dir / "mcam.pgm")]

    pos_lines = ["flat,i,j,k"]
    pos_lines += [f"{f},{i},{j},{k}" for f, (i, j, k) in enumerate(positions.tolist())]
    (out_dir / "positions.csv").write_bytes(("\n".join(pos_lines) + "\n").encode("ascii"))
    blk_lines = ["q0,q1,k0,k1"] + [f"{b.q0},{b.q1},{b.k0},{b.k1}" for b in csam.blocks]
    (out_dir / "blocks.csv").write_bytes(("\n".join(blk_lines) + "\n").encode("ascii"))
    report.artifacts += [str(out_dir / "positions.csv"), str(out_dir / "blocks.csv")]

    print(
        f"layout: T={spec.T} H={spec.H} W={spec.W} entities={spec.n_entities} "
        f"branches={spec.n_branches} text_len={spec.text_len} tokens={spec.n_tokens}"
    )
    if spec.text_len == 0:
        print("mcam: skipped (text_len=0)")
    for a in report.artifacts:
        print(f"wrote {a}")
    report.wall_time = time.perf_counter() - t0
    print(f"wall {report.wall_time:.3f} s", file=sys.stderr)
    return report


def cmd_check(args) -> RunReport:
    t0 = time.perf_counter()
    if args.corpus:
        layouts = builtin_corpus()
    else:
        layouts = [(Path(args.spec).stem, _load_spec(args.spec))]
    report = RunReport(command="check")
    report.checks = run_checks(layouts, seed=args.seed)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        err = "" if c.error is None else f" err={c.error:.3e}"
        extra = f" ({c.detail})" if c.detail else ""
        print(f"{status} {c.name}{err}{extra}")
    report.wall_time = time.perf_counter() - t0
    n_fail = sum(not c.passed for c in report.checks)
    verdict = "all passed" if n_fail == 0 else f"{n_fail} FAILED"
    print(f"relctl check: {len(report.checks)} checks, {verdict} ({report.wall_time:.2f} s)")
    return report


def cmd_bench(args) -> RunReport:
    t0 = time.perf_counter()
    spec = _load_spec(args.spec)
    report = RunReport(command="bench")
    rng = np.random.default_rng(args.seed)
    csam = build_csam(spec)
    n = spec.n_tokens
    Q = rng.standard_normal((n, args.head_dim)).astype(np.float32)
    K = rng.standard_normal((n, args.head_dim)).astype(np.float32)
    V = rng.standard_normal((n, args.head_dim)).astype(np.float32)

    ref = masked_self_attention_naive(Q, K, V, csam)
    stream = masked_self_attention_blockwise(Q, K, V, csam.blocks)
    rel = float(np.max(np.abs(stream - ref))) / max(float(np.max(np.abs(ref))), 1e-30)
    report.checks.append(
        CheckResult(name="bench-equivalence", passed=rel <= 1e-5, error=rel)
    )
    print(f"n={n} blocks={len(csam.blocks)} head_dim={args.head_dim}")
    print(f"equivalence max rel err {rel:.3e} (tolerance 1e-5)")
    if not report.ok:
        print("relctl bench: aborted, kernels disagree")
        report.wall_time = time.perf_counter() - t0
        return report

    if args.reps > 0:
        def clock(fn):
            times = []
            for _ in range(args.reps):
                t = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t)
            return times

        naive_t = clock(lambda: masked_self_attention_naive(Q, K, V, csam))
        stream_t = clock(lambda: masked_self_attention_blockwise(Q, K, V, csam.blocks))
        ratio = min(stream_t) / min(naive_t)
        report.values = {
            "naive_mean_s": sum(naive_t) / len(naive_t),
            "naive_min_s": min(naive_t),
            "blockwise_mean_s": sum(stream_t) / len(stream_t),
            "blockwise_min_s": min(stream_t),
            "speedup_ratio": ratio,
        }
        print(f"naive:     mean {report.values['naive_mean_s']:.6f} s  min {report.values['naive_min_s']:.6f} s")
        print(f"blockwise: mean {report.values['blockwise_mean_s']:.6f} s  min {report.values['blockwise_min_s']:.6f} s")
        print(f"speedup ratio (blockwise/naive, min): {ratio:.3f}")
    else:
        print("timing: skipped (reps=0)")
    report.wall_time = time.perf_counter() - t0
    return report


def cmd_forward(args) -> RunReport:
    t0 = time.perf_counter()
    spec = _load_spec(args.spec)
    report = RunReport(command="forward")
    cfg = AttnConfig(r=args.r, d=args.d)
    rng = np.random.default_rng(args.seed)
    weights, text, t, z_t, v_t = _toy_problem(spec, rng, np.float32)
    bumped = z_t.copy()
    bumped[: spec.n_video_tokens] += rng.standard_normal((spec.n_video_tokens, weights.channels)).astype(np.float32)
    # an overflow is refused by block_forward's output check, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        pred = block_forward(weights, z_t, text, spec, cfg)
        alt = block_forward(weights, bumped, text, spec, cfg)
    loss = fm_loss(pred, v_t)
    cond = slice(spec.n_video_tokens, spec.n_tokens)
    cond_resid = float(np.max(np.abs(alt[cond] - pred[cond]))) if spec.n_entities else 0.0
    video_shift = float(np.max(np.abs(alt[: spec.n_video_tokens] - pred[: spec.n_video_tokens])))

    report.values = {
        "seed": args.seed,
        "r": args.r,
        "d": args.d,
        "t": f"{t:.10e}",
        "loss": f"{loss:.10e}",
        "condition_row_residual": f"{cond_resid:.3e}",
        "video_row_shift": f"{video_shift:.3e}",
    }
    report.checks.append(
        CheckResult(
            name="forward-branch-isolation",
            passed=cond_resid <= 1e-6,
            error=cond_resid,
        )
    )
    print(f"seed={args.seed} r={args.r} d={args.d} t={t:.10e}")
    print(f"loss={loss:.10e}")
    print(f"condition-row residual under video perturbation: {cond_resid:.3e}")
    print(f"video-row shift under video perturbation: {video_shift:.3e}")
    report.wall_time = time.perf_counter() - t0
    print(f"wall {report.wall_time:.3f} s", file=sys.stderr)
    return report


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="relctl", description=__doc__)
    p.add_argument("--version", action="version", version=f"relctl {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("masks", help="export masks, positions, and blocks for a layout")
    m.add_argument("spec", help="layout JSON document")
    m.add_argument("-o", "--out", required=True, help="output directory")
    m.set_defaults(fn=cmd_masks)

    c = sub.add_parser("check", help="run the invariant battery")
    c.add_argument("spec", nargs="?", help="layout JSON document")
    c.add_argument("--corpus", action="store_true", help="use the built-in 25-layout corpus")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=cmd_check)

    b = sub.add_parser("bench", help="time naive vs blockwise self-attention")
    b.add_argument("spec", help="layout JSON document")
    b.add_argument("--head-dim", type=int, default=64)
    b.add_argument("--reps", type=int, default=20)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(fn=cmd_bench)

    f = sub.add_parser("forward", help="one seeded block forward with flow-matching loss")
    f.add_argument("spec", help="layout JSON document")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--r", type=float, default=AttnConfig.r, help="level-mask strength")
    f.add_argument("--d", type=int, default=AttnConfig.d, help="spatial pooling factor")
    f.set_defaults(fn=cmd_forward)

    for s in (m, c, b, f):
        s.add_argument("--json", dest="json_path", default=None, help="write a JSON report")
    return p


def _argument_error(args) -> str | None:
    """Why the parsed arguments cannot run, or None."""
    if args.command == "check" and bool(args.spec) == bool(args.corpus):
        return "pass exactly one of <spec.json> or --corpus"
    if getattr(args, "seed", 0) < 0:
        return f"--seed must be >= 0, got {args.seed}"
    if args.command == "bench" and args.head_dim < 1:
        return f"--head-dim must be >= 1, got {args.head_dim}"
    if args.command == "bench" and args.reps < 0:
        return f"--reps must be >= 0, got {args.reps}"
    if args.command == "forward":
        try:
            AttnConfig(r=args.r, d=args.d)
        except ValueError as exc:
            return str(exc)
    return None


def _report_path(path: str) -> Path:
    """The ``--json`` target, refused before any work runs when it names a
    directory or its directory does not exist."""
    target = Path(path)
    if not target.parent.is_dir():
        raise _refuse(f"relctl: cannot write {path}: no directory {target.parent}")
    if target.is_dir():
        raise _refuse(f"relctl: cannot write {path}: it is a directory")
    return target


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    error = _argument_error(args)
    if error:
        print(f"relctl {args.command}: {error}", file=sys.stderr)
        return 2
    report_path = _report_path(args.json_path) if args.json_path else None
    try:
        report: RunReport = args.fn(args)
    except ValueError as exc:  # inputs the kernels refuse, as a --r whose products overflow
        print(f"relctl {args.command}: {exc}", file=sys.stderr)
        return 2
    if report_path:
        # timing is a measurement, not a deterministic artifact: only the
        # bench/check reports carry it
        with_timing = report.command in ("bench", "check")
        try:
            report_path.write_text(report.to_json(with_timing), encoding="utf-8")
        except OSError as exc:
            raise _refuse(f"relctl: cannot write {report_path}: {exc}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
