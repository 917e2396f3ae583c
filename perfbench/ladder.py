"""Figures for the ROADMAP size ladder, for continuity with its baseline table.

    python3 perfbench/ladder.py

For the showcase layout (n=128), ``bench_layout()`` (n=1872) and
``make_spec(2, 24, 24, bg=1, objs=2, groups=(1, 1, 1, 1))`` (n=7488) it
prints, as a markdown table, the median wall time over REPS calls of a float32
``block_forward`` without and with the masks passed in, of ``build_csam``,
and the tracemalloc peak of one ``block_forward`` without masks.  Inputs
and weights use the ``relctl forward`` model shape and a fixed seed.
"""

from __future__ import annotations

import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REPS = 7


def median_ms(fn) -> float:
    times = []
    for _ in range(REPS):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main() -> int:
    os.environ["RELATTN_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import relattn  # before numpy, so that the thread cap applies
    import numpy as np
    from relattn.corpus import bench_layout, corpus_layout, make_spec

    from tracing import traced_peak_mib
    from workloads import CHANNELS, HEAD_DIM, HEADS, HIDDEN, TEXT_CHANNELS

    ladder = [
        ("showcase", corpus_layout("showcase")),
        ("`bench_layout()`", bench_layout()),
        ("`make_spec(2,24,24,bg=1,objs=2,groups=(1,1,1,1))`", make_spec(2, 24, 24, bg=1, objs=2, groups=(1, 1, 1, 1))),
    ]
    rng = np.random.default_rng(7)
    w = relattn.init_weights(rng, CHANNELS, TEXT_CHANNELS, HEADS, HEAD_DIM, HIDDEN)
    cfg = relattn.AttnConfig()
    print("| layout | n tokens | `block_forward` | same, masks passed in | `build_csam` | peak traced mem |")
    print("|---|---|---|---|---|---|")
    for name, spec in ladder:
        x = rng.standard_normal((spec.n_tokens, CHANNELS)).astype(np.float32)
        text = rng.standard_normal((spec.text_len, TEXT_CHANNELS)).astype(np.float32)
        csam, mcam = relattn.build_csam(spec), relattn.build_mcam(spec)
        cold = median_ms(lambda: relattn.block_forward(w, x, text, spec, cfg))
        warm = median_ms(lambda: relattn.block_forward(w, x, text, spec, cfg, csam, mcam))
        build = median_ms(lambda: relattn.build_csam(spec))
        peak = traced_peak_mib(relattn.block_forward, w, x, text, spec, cfg)
        print(f"| {name} | {spec.n_tokens} | {cold:.1f} ms | {warm:.1f} ms | {build:.1f} ms | {peak:.1f} MiB |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
