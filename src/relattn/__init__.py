"""Relational attention engine for multi-subject conditioning at desk scale.

Grouped rotary position assignment, a causal self-attention mask with an
exact rectangular-block cover, a multilevel cross-attention mask with
position-wise dynamic scaling, block-streaming kernels, and a toy relational
transformer block trained with a flow-matching objective.  The dense
reference paths that the checks, ``relctl bench`` and the tests hold those
against live in :mod:`relattn.reference`, the package's executable spec,
which ``import relattn`` does not load: import them from there.
"""

import os
import sys


def _apply_thread_cap() -> None:
    # RELATTN_THREADS caps BLAS/kernel parallelism; must land in the
    # environment before numpy first loads, hence before any submodule import
    cap = os.environ.get("RELATTN_THREADS")
    if cap:
        unset = [
            var
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
            if var not in os.environ
        ]
        for var in unset:
            os.environ[var] = cap
        # a re-import finds the variables already set, so this warns once;
        # stderr only, so the byte-stable stdout of `masks`/`forward` stays so
        if unset and "numpy" in sys.modules:
            print(
                f"relattn: RELATTN_THREADS={cap} has no effect: numpy was imported "
                f"before relattn, so its BLAS has already chosen its thread count",
                file=sys.stderr,
            )


_apply_thread_cap()

__version__ = "0.1.0"

from .attention import AttnConfig, masked_self_attention_blockwise  # noqa: E402
from .block import (  # noqa: E402
    BlockWeights,
    block_forward,
    demo_fit,
    flow_interpolate,
    fm_loss,
    grad_check,
    init_weights,
    plain_block_forward,
)
from .layout import (  # noqa: E402
    Entity,
    LayoutError,
    LayoutInvariantError,
    LayoutSchemaError,
    LayoutSpec,
    LayoutSyntaxError,
    parse_spec,
    to_json,
)
from .masks import Block, CsamMask, McamMask, build_csam, build_mcam  # noqa: E402
from .rotary import (  # noqa: E402
    default_split,
    position_array,
    rotary_table,
    rotate,
)

__all__ = [
    "AttnConfig",
    "Block",
    "BlockWeights",
    "CsamMask",
    "Entity",
    "LayoutError",
    "LayoutInvariantError",
    "LayoutSchemaError",
    "LayoutSpec",
    "LayoutSyntaxError",
    "McamMask",
    "block_forward",
    "build_csam",
    "build_mcam",
    "default_split",
    "demo_fit",
    "flow_interpolate",
    "fm_loss",
    "grad_check",
    "init_weights",
    "masked_self_attention_blockwise",
    "parse_spec",
    "plain_block_forward",
    "position_array",
    "rotary_table",
    "rotate",
    "to_json",
]
