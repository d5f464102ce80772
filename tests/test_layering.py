"""Import layering of the package, read from its source with ``ast``.

The production modules never reach the test-side modules (``reference``,
``oracle``) and define none of the helpers kept there, ``pqtree`` stays
below the constructions that use it, and every import sits at module
level, so the graph read here is the whole graph.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import robinspace

PACKAGE = Path(robinspace.__file__).resolve().parent
TEST_SIDE = {"reference", "oracle"}
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
PRODUCTION = [name for name in MODULES if name not in TEST_SIDE]


def _tree(name: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def _imported(name: str) -> set[str]:
    """Package modules that ``name`` imports, anywhere in its source."""
    out = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("robinspace.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "robinspace":
                continue
            parts = module.split(".")[1:] if node.level == 0 else module.split(".")
            if parts and parts[0]:
                out.add(parts[0])
            else:  # ``from . import a, b``
                out.update(alias.name for alias in node.names)
    return out & set(MODULES)


def test_layering_sees_every_module():
    assert {"core", "pqtree", "copoints", "reference", "oracle"} <= set(MODULES)
    assert _imported("reference") >= {"core", "copoints", "mmodtree", "pqtree"}
    assert _defined("reference") >= TEST_ONLY_NAMES


@pytest.mark.parametrize("name", PRODUCTION)
def test_production_module_imports_no_test_side_module(name):
    assert not _imported(name) & TEST_SIDE


# test-only helpers that live beside the oracles
TEST_ONLY_NAMES = {"quotient", "is_mmodule", "violating_triple_loop", "parse_matrix_all_tokens"}


def _defined(name: str) -> set[str]:
    """Functions and classes defined at module level in ``name``."""
    return {
        node.name
        for node in _tree(name).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


@pytest.mark.parametrize("name", PRODUCTION)
def test_production_module_defines_no_test_only_name(name):
    assert not _defined(name) & TEST_ONLY_NAMES


def test_pqtree_sits_below_the_constructions():
    assert not _imported("pqtree") & {"copoints", "mmodtree"}


@pytest.mark.parametrize("name", PRODUCTION)
def test_production_module_imports_only_at_module_level(name):
    tree = _tree(name)
    top = {id(node) for node in tree.body}
    nested = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert not nested, f"{name}.py imports inside a block at lines {nested}"
