"""Benchmark of the relational block, end to end (``--trace 0``) and layer by
layer (``--trace 1``).

    python3 perfbench/run.py --workload forward-large --seed 1 --seconds 15 --trace 0

Run from the repository root.  It imports ``relattn`` from ``src/`` of the
checkout it sits in, runs one workload as a closed loop (one op at a time,
one process) for ``--seconds`` of wall time in whole rounds, checks every
op, scales every time it reports to one fixed host speed (``host_gauge_ms``),
and prints one JSON object as the last line of standard output.  The
full report (environment, sample counts, per-layer call counts) goes to
``perfbench/results/``, and traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import math
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPS = 31  # each about 0.05-0.1 s
# Every time is scaled to a host on which host_gauge_ms() reads this; it is
# about what the gauge reads at the faster of the two speeds the host runs at
# (see README, "Steadiness on a shared host").
GAUGE_REF_MS = 0.75
# Ops of a round that take longer than this in all get readings between them,
# so a time is scaled by readings close to it; shorter ops (forward-small)
# keep running back to back, as a 32 MB copy between them would cool the caches.
GAUGE_EVERY_S = 0.25
# single-threaded BLAS: at most nproc, and the steadiest under contention
THREAD_CAP = "1"

END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "tokens_per_s": "tokens/s", "peak_mib": "MiB"}
PER_LAYER_UNITS = {
    "layout.parse_spec_ms": "ms",
    "masks.build_csam_ms": "ms",
    "masks.decompose_blocks_ms": "ms",
    "masks.build_csam_peak_mib": "MiB",
    "masks.build_mcam_ms": "ms",
    "masks.csam_blocks": "count",
    "rotary.assign_positions_ms": "ms",
    "rotary.apply_rotary_ms": "ms",
    "attention.self_attn_ms": "ms",
    "attention.self_attn_peak_mib": "MiB",
    "attention.score_fraction": "ratio",
    "attention.self_attn_gflop": "GFLOP",
    "attention.scaling_s_ms": "ms",
    "attention.cross_attn_ms": "ms",
    "block.forward_self_ms": "ms",
    "block.train_self_ms": "ms",
    "trace.overhead_pct": "%",
}


def fresh_import():
    """(Re-)import the package from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "relattn" or m.startswith("relattn.")]:
        del sys.modules[name]
    relattn = importlib.import_module("relattn")
    block = importlib.import_module("relattn.block")
    masks = importlib.import_module("relattn.masks")
    api = argparse.Namespace(
        parse_spec=relattn.parse_spec,
        block_forward=relattn.block_forward,
        fm_loss=relattn.fm_loss,
        loss_and_gradients=block.loss_and_gradients,
        build_csam=relattn.build_csam,
        build_mcam=relattn.build_mcam,
        init_weights=relattn.init_weights,
        AttnConfig=relattn.AttnConfig,
    )
    return api, {"api": api, "block": block, "masks": masks}


def openblas_threads() -> int | None:
    """Effective OpenBLAS thread count, read back from numpy's bundled
    scipy-openblas; None where numpy ships another BLAS."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": openblas_threads(),
        "RELATTN_THREADS": os.environ.get("RELATTN_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def percentile_summary(ms: list[float]) -> dict:
    """Median and, once at least ten samples lie beyond it, the p90/p99."""
    out = {"n": len(ms), "p50": statistics.median(ms) if ms else None}
    qs = statistics.quantiles(ms, n=100) if len(ms) >= 2 else []
    for p in (90, 99):
        if len(ms) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = qs[p - 1]
    return out


@functools.cache
def _copy_buffers():
    import numpy as np

    return np.ones(2_000_000), np.ones(2_000_000)  # both written, so no copy meets a fresh page


def host_gauge_ms() -> float:
    """The host's speed at this moment: the geometric mean of the median
    times of a fixed pure-Python loop and of a 16 MB memory copy.  When the
    host slows, interpreted code slows more than memory traffic does, and the
    workloads mix both.  It is benchmark code, so no change to the package
    moves it."""
    import numpy as np

    src, dst = _copy_buffers()
    loop, copy = [], []
    for _ in range(45):
        t0 = perf_counter()
        acc = 0
        for i in range(5000):
            acc += i
        loop.append(perf_counter() - t0)
    for _ in range(9):
        t0 = perf_counter()
        np.copyto(dst, src)
        copy.append(perf_counter() - t0)
    return math.sqrt(statistics.median(loop) * statistics.median(copy)) * 1e3


def scale(*gauge_ms: float) -> float:
    """Factor that turns a time taken while the gauge read ``gauge_ms`` (the
    mean of the readings given) into the time on a host whose gauge reads
    GAUGE_REF_MS."""
    return GAUGE_REF_MS / (sum(gauge_ms) / len(gauge_ms))


def measure(wl, seconds: float, tracer=None):
    """Closed loop over whole rounds until ``seconds`` of wall time have
    passed.  Each round runs its ops back to back, with a reading of the
    host gauge before the first, after the last, and between two ops once
    GAUGE_EVERY_S has passed since the last reading; then it checks them.
    Each op record keeps the mean of the two readings around it.  With a
    tracer, even rounds run untraced and odd rounds traced, and the loop
    ends after a traced round."""
    records = []
    start = perf_counter()
    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        done, pending = [], []
        before, since = host_gauge_ms(), perf_counter()
        for op in wl.round(r):
            if pending and perf_counter() - since >= GAUGE_EVERY_S:
                after = host_gauge_ms()
                for rec in pending:
                    rec["gauge_ms"] = (before + after) / 2.0
                pending, before, since = [], after, perf_counter()
            op_id = len(records) + len(done)
            rec = {"id": op_id, "round": r, "traced": traced, "tokens": op.tokens, "ms": None, "errors": []}
            out = None
            try:
                if traced:
                    tracer.begin(op_id)
                try:
                    t0 = perf_counter()
                    out = wl.run(op)
                    rec["ms"] = (perf_counter() - t0) * 1e3
                finally:
                    if traced:
                        tracer.end()
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                rec["errors"].append(f"{type(exc).__name__}: {exc}")
            done.append((op, rec, out))
            pending.append(rec)
        after = host_gauge_ms()
        for rec in pending:
            rec["gauge_ms"] = (before + after) / 2.0
        for op, rec, out in done:
            if not rec["errors"]:
                try:
                    rec["errors"] = wl.check(op, out)
                except Exception as exc:
                    rec["errors"].append(f"{type(exc).__name__}: {exc}")
            records.append(rec)
        r += 1
        if perf_counter() - start >= seconds and (tracer is None or r % 2 == 0):
            return records


def peak_mib(wl) -> float:
    """Largest tracemalloc peak of one op, on ops run apart from the timed ones."""
    from tracing import traced_peak_mib

    return max(traced_peak_mib(wl.run, op) for op in wl.peak_ops())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "relattn" / "__init__.py").is_file():
        print(f"relattn sources not found under {SRC}", file=sys.stderr)
        return 2
    # before numpy first loads: relattn applies the cap only if it is imported first
    os.environ["RELATTN_THREADS"] = THREAD_CAP
    sys.path[:0] = [str(SRC), str(HERE)]
    import relattn

    if not Path(relattn.__file__).resolve().is_relative_to(SRC):
        print(f"imported relattn from {relattn.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)

    setup_times, setup_gauges = [], [host_gauge_ms()]
    for _ in range(SETUP_REPS if not args.trace else 1):
        t0 = perf_counter()
        api, owners = fresh_import()
        wl.setup(api)
        setup_times.append(perf_counter() - t0)
        setup_gauges.append(host_gauge_ms())
    setup_scaled = [t * scale(g0, g1) for t, g0, g1 in zip(setup_times, setup_gauges, setup_gauges[1:])]

    tracer = Tracer(owners) if args.trace else None
    records = measure(wl, args.seconds, tracer)
    failed = sum(1 for rec in records if rec["errors"])
    good = [rec for rec in records if not rec["errors"]]
    for rec in good:
        rec["scaled_ms"] = rec["ms"] * scale(rec["gauge_ms"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "attempted": len(records),
        "failed": failed,
        "gauge_ms": statistics.median(rec["gauge_ms"] for rec in records),
        "errors": sorted({e for rec in records for e in rec["errors"]})[:20],
        "ops": [[rec["round"], rec["traced"], rec["tokens"], rec["ms"], rec["gauge_ms"]] for rec in records],
    }

    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        plain = [rec["scaled_ms"] for rec in good if not rec["traced"]]
        traced = [rec for rec in good if rec["traced"]]
        values = tracer.metrics({rec["id"]: scale(rec["gauge_ms"]) for rec in traced})
        traced_ms = [rec["scaled_ms"] for rec in traced]
        values["trace.overhead_pct"] = (
            (statistics.median(traced_ms) / statistics.median(plain) - 1.0) * 100.0 if plain and traced_ms else 0.0
        )
        units = PER_LAYER_UNITS
        report["op_ms_untraced"] = percentile_summary(plain)
        report["op_ms_traced"] = percentile_summary(traced_ms)
        report["calls"] = tracer.calls()
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        ms = [rec["scaled_ms"] for rec in good]
        values = {
            "setup_s": statistics.median(setup_scaled),
            "op_ms_p50": statistics.median(ms) if ms else 0.0,
            "tokens_per_s": sum(rec["tokens"] for rec in good) / (sum(ms) / 1e3) if ms else 0.0,
            "peak_mib": peak_mib(wl),
        }
        units = END_TO_END_UNITS
        report["op_ms"] = percentile_summary(ms)
        report["op_ms_wall"] = percentile_summary([rec["ms"] for rec in good])
        report["setup_s_samples"] = setup_scaled
        report["setup_s_wall"] = statistics.median(setup_times)
        report["setup_gauges_ms"] = setup_gauges

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report["metrics"] = metrics
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    env = report["environment"]
    print(
        f"{args.workload} seed={args.seed}: {len(records)} ops, {failed} failed; "
        f"numpy {env['numpy']}, {env['blas']}, blas_threads={env['blas_threads']}, nproc={env['nproc']}"
    )
    for err in report["errors"]:
        print(f"  check failed: {err}")
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
