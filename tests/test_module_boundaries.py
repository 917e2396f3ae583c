"""The dense reference paths live in ``relattn.reference`` and nowhere else.

The modules the block runs must not reach back into the reference module,
so that everything ``block_forward`` and ``loss_and_gradients`` execute can
be read without it.  Within them, the layout plan is built in one place,
and the pooling format of the level term and each attention head's work
stay in ``relattn.attention``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relattn
from relattn import reference

PRODUCTION = ("attention", "block", "masks", "layout", "rotary", "corpus")
MOVED = (
    "standard_attention",
    "masked_self_attention_naive",
    "compute_scaling_s",
    "relational_cross_attention",
    "decompose_blocks",
    "text_level_of",
    "branch_index_per_token",
)
DELETED = (
    "TokenAddress",
    "address_of",
    "flat_of",
    "entity_of",
    "branch_of",
    "materialize_blocks",
    "RotaryConfig",
    "default_config",
    "FlowSample",
)
SRC = Path(relattn.__file__).parent


def _imports_and_definitions(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Absolute names of the modules a package module imports, and every
    name it binds by ``def``, ``class``, assignment or import."""
    modules, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level <= 1
            base = ".".join(filter(None, ["relattn" if node.level else "", node.module]))
            modules.add(base)
            # a submodule imported by name: ``from . import reference``
            modules.update(f"{base}.{alias.name}" for alias in node.names)
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return modules, names


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_modules_do_not_depend_on_the_reference(module):
    modules, names = _imports_and_definitions(ast.parse((SRC / f"{module}.py").read_text()))
    assert "relattn.reference" not in modules
    assert not names & set(MOVED)


def test_moved_functions_are_exported_from_the_reference():
    for name in MOVED:
        assert getattr(reference, name).__module__ == "relattn.reference"
        assert name not in relattn.__all__ and not hasattr(relattn, name)
    assert len(relattn.__all__) == 27


def test_importing_the_package_leaves_the_reference_unloaded():
    code = "import sys, relattn\nprint(sorted(m for m in sys.modules if m.startswith('relattn.')))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "relattn.reference" not in run.stdout
    assert "relattn.block" in run.stdout


def test_deleted_names_are_gone():
    for name in DELETED:
        assert name not in relattn.__all__
        assert not hasattr(relattn, name)


def test_block_builds_the_plan_in_one_function():
    tree = ast.parse((SRC / "block.py").read_text())
    callers: dict[str, set[str]] = {}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    callers.setdefault(node.func.id, set()).add(fn.name)
    for name in ("build_csam", "build_mcam", "rotary_table", "_layout_plan"):
        assert callers.get(name) == {"_prepare"}, name


def test_block_leaves_the_pooling_format_to_attention():
    tree = ast.parse((SRC / "block.py").read_text())
    _, names = _imports_and_definitions(tree)
    assert not names & {"_patch_sum", "_patch_geometry"}
    # the plan's patches are read by attention's level term alone
    assert not any(isinstance(node, ast.Attribute) and node.attr == "patches" for node in ast.walk(tree))


def test_block_leaves_each_head_s_attention_to_attention():
    # the folded operands, the level-term tuple and the attention scale are
    # attention's: block calls one function per head and direction
    tree = ast.parse((SRC / "block.py").read_text())
    _, names = _imports_and_definitions(tree)
    assert not names & {"_folded", "_folded_bwd", "_default_scale", "_attend", "_level_term"}
    from_attention = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "attention"
        for alias in node.names
    }
    assert from_attention == {
        "AttnConfig",
        "_as_matrix",
        "_blockwise",
        "_cross_head",
        "_cross_head_bwd",
        "_finite_output",
        "_layout_plan",
        "_self_head_bwd",
    }


@pytest.mark.parametrize("module", ["attention", "reference"])
def test_no_kernel_takes_a_scale(module):
    # each kernel works out 1/sqrt(d_K) from its own keys' width
    tree = ast.parse((SRC / f"{module}.py").read_text())
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            args = fn.args
            names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
            assert "scale" not in names, fn.name


def test_the_cross_attention_kernel_always_takes_a_level_term():
    # the term that reaches no row, not a None, stands for no term
    tree = ast.parse((SRC / "attention.py").read_text())
    (attend,) = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name == "_attend"]
    assert attend.args.args[-1].arg == "level_term"
    assert not attend.args.defaults and not attend.args.kwonlyargs
