"""Relational attention engine for multi-subject conditioning at desk scale.

Grouped rotary position assignment, a causal self-attention mask with an
exact rectangular-block cover, a multilevel cross-attention mask with
position-wise dynamic scaling, reference and block-streaming kernels, and a
toy relational transformer block trained with a flow-matching objective.
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

from .attention import (  # noqa: E402
    AttnConfig,
    compute_scaling_s,
    masked_self_attention_blockwise,
    masked_self_attention_naive,
    relational_cross_attention,
    standard_attention,
)
from .block import (  # noqa: E402
    BlockWeights,
    FlowSample,
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
    TokenAddress,
    address_of,
    branch_of,
    entity_of,
    flat_of,
    parse_spec,
    text_level_of,
    to_json,
)
from .masks import (  # noqa: E402
    Block,
    CsamMask,
    McamMask,
    build_csam,
    build_mcam,
    decompose_blocks,
    materialize_blocks,
)
from .rotary import (  # noqa: E402
    RotaryConfig,
    default_config,
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
    "FlowSample",
    "LayoutError",
    "LayoutInvariantError",
    "LayoutSchemaError",
    "LayoutSpec",
    "LayoutSyntaxError",
    "McamMask",
    "RotaryConfig",
    "TokenAddress",
    "address_of",
    "block_forward",
    "branch_of",
    "build_csam",
    "build_mcam",
    "compute_scaling_s",
    "decompose_blocks",
    "default_config",
    "default_split",
    "demo_fit",
    "entity_of",
    "flat_of",
    "flow_interpolate",
    "fm_loss",
    "grad_check",
    "init_weights",
    "masked_self_attention_blockwise",
    "masked_self_attention_naive",
    "materialize_blocks",
    "parse_spec",
    "plain_block_forward",
    "position_array",
    "relational_cross_attention",
    "rotary_table",
    "rotate",
    "standard_attention",
    "text_level_of",
    "to_json",
]
