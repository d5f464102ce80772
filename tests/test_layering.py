"""Import layering of the package, read from its source with ``ast``.

The package holds the production modules alone: the reference
constructions and the brute oracles are ``tests/reference.py`` and
``tests/oracle.py``, no package module imports a module of ``tests/`` or
defines a helper kept there, and neither of the two reaches the command
line.  Every public function and class of the package is named by the
package outside its own definition, by ``scripts/`` or by the
benchmark, or is one of the few in ``UNREFERENCED_PUBLIC``.  ``pqtree``
stays below the constructions that use it, and every import but the
known ones in ``NESTED_IMPORTS`` sits at module level; the graph is read
from the whole source, nested imports included.
``copoints`` builds its tree through ``pqtree.node`` with no normalizing
pass or delta-graph search, one spine reading serves construction and
translation, one slot rule places a block in a Q-spine, and one apex
rule says when a conical apex falls apart.  ``tree`` and ``translate``
take their trees from one helper.  No production function calls itself,
the tree queries walk their tree once, the tree documents are read and
drawn through ``core.fold`` alone, ``refine`` imports only ``core``,
and no library module touches the recursion limit.  The library never reaches
the command line's modules (``cli``, ``formats``, ``generator``,
``bench``), the file formats reach none of the others, and the generator
feeds only the commands and the bench.
Every package name the benchmark reaches for still resolves.
"""

from __future__ import annotations

import ast
import importlib
import runpy
from fnmatch import fnmatch
from pathlib import Path

import pytest

import robinspace

PACKAGE = Path(robinspace.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
# top-level names under pytest, which puts ``tests/`` on ``sys.path``
TEST_MODULES = {path.stem for path in TESTS.glob("*.py")}
# the package and the reference constructions and oracles beside it
SOURCES = [*MODULES, "reference", "oracle"]


def _tree(name: str) -> ast.Module:
    """Source of package module ``name``, else of ``tests/<name>.py``."""
    path = (PACKAGE if name in MODULES else TESTS) / f"{name}.py"
    return ast.parse(path.read_text(encoding="utf-8"))


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


def _absolute(name: str) -> set[str]:
    """First names of the absolute imports in ``name``'s source."""
    out = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_layering_sees_every_module():
    # a test-only module shipped in the package fails here
    assert set(MODULES) == {
        "__init__", "bench", "cli", "copoints", "core", "dendrogram", "formats",
        "generator", "mmodtree", "pqtree", "refine", "translate",
    }
    assert TEST_MODULES >= {"reference", "oracle", "doc_reference", "refine_reference", "conftest"}
    assert _imported("reference") >= {"core", "copoints", "mmodtree", "pqtree"}
    assert _defined("reference") | _defined("oracle") >= TEST_ONLY_NAMES


@pytest.mark.parametrize("name", MODULES)
def test_production_module_imports_no_test_side_module(name):
    # such an import passes under pytest and breaks the installed package
    assert not _absolute(name) & TEST_MODULES


@pytest.mark.parametrize("name", ["reference", "oracle"])
def test_test_side_reaches_no_command_line(name):
    assert "cli" not in _imported(name)


# test-only helpers that live beside the oracles
TEST_ONLY_NAMES = {
    "quotient",
    "is_mmodule",
    "violating_triple_loop",
    "first_defect_loop",
    "parse_matrix_all_tokens",
    "mmodule_tree_from_dendrogram",
    "_from_dendrogram",
    "stable_partition",
    "components_below",
    "diameter_and_pair",
    "delta_graph_components",
    "_components",
    "ascending_split",
    "leaf_set",
    "generate_matrix_reference",
    "enumerate_orders",
    "_orders",
    "TooManyOrders",
    "subdominant_distance",
    "NotALeaf",
    "clusters",
    "is_mmodule_via_tree",
    "serialize_matrix",
}


def _defined(name: str) -> set[str]:
    """Functions and classes defined at module level in ``name``."""
    return {
        node.name
        for node in _tree(name).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


@pytest.mark.parametrize("name", MODULES)
def test_production_module_defines_no_test_only_name(name):
    assert not _defined(name) & TEST_ONLY_NAMES


LIBRARY = ["core", "refine", "copoints", "pqtree", "mmodtree", "dendrogram", "translate"]
COMMAND_LINE = {"cli", "formats", "generator", "bench"}


@pytest.mark.parametrize("name", LIBRARY)
def test_library_module_imports_no_command_line_module(name):
    assert not _imported(name) & COMMAND_LINE


def test_formats_import_no_command_generator_or_bench():
    assert not _imported("formats") & {"cli", "generator", "bench"}


def test_only_the_commands_and_the_bench_import_the_generator():
    assert {name for name in MODULES if "generator" in _imported(name)} == {"cli", "bench"}


def test_pqtree_sits_below_the_constructions():
    assert not _imported("pqtree") & {"copoints", "mmodtree"}


def test_mmodule_tree_has_one_production_path():
    # built from the PQ-tree; the dendrogram carving lives in ``tests/reference.py``
    assert not _imported("mmodtree") & {"dendrogram", "refine"}


def test_refine_reads_trees_through_core_alone():
    assert _imported("refine") == {"core"}


def _called(name: str, function: str | None = None) -> set[str]:
    """Names that module ``name``, or its top-level ``function``, calls,
    bare (``f(...)``) or as an attribute (``m.f(...)``)."""
    scope = _tree(name)
    if function is not None:
        scope = next(node for node in scope.body if getattr(node, "name", None) == function)
    out = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                out.add(func.id)
            elif isinstance(func, ast.Attribute):
                out.add(func.attr)
    return out


def test_pq_tree_is_built_in_normal_form():
    # every node goes through ``pqtree.node``: no re-normalizing pass, the
    # diameter is read off the tree instead of scanned, and ``node`` merges
    # an apex that falls apart at delta, so no delta-graph is searched
    assert "node" in _called("copoints")
    assert not _called("copoints") & {
        "normalize",
        "diameter_and_pair",
        "delta_graph_components",
        "leaf_points",
    }


def test_one_slot_rule_for_construction_and_translation():
    # a block at uniform distance goes into a Q-spine by
    # ``copoints.admissible_hole`` alone
    assert "admissible_hole" in _called("copoints") & _called("translate")
    assert "admissible_hole" in _called("reference")
    assert not any("find_bipartition" in _defined(name) for name in SOURCES)


def test_one_apex_rule_for_construction_and_translation():
    # a conical apex falls apart at its distance by ``pqtree.falls_apart``
    # alone: ``node`` splices by it, the PQ→mmodule fold dissolves by it,
    # and no root reading of a top weight stands beside it
    assert "falls_apart" in _called("pqtree", "node") & _called("mmodtree", "_to_mmodule")
    assert "node" in _called("translate", "_to_pq")
    assert not any("tree_delta_star" in _defined(name) for name in SOURCES)


def test_one_spine_reading_for_construction_and_translation():
    # a subtree is read as a linear spine by ``copoints.spine_children`` alone
    assert "spine_children" in _called("copoints") & _called("translate")
    assert not any("_spine_children" in _defined(name) for name in SOURCES)


def test_tree_and_translate_serve_one_recognized_tree():
    # both take the verified PQ-tree, and the mmodule tree read off it, from
    # one helper; translate holds the document against them and runs no
    # translator on it and no check of one of its orders
    tree, translate = _called("cli", "cmd_tree"), _called("cli", "cmd_translate")
    assert "_served" in tree & translate
    assert "recognize_validated" in _called("cli", "_served")
    assert "recognize_validated" not in tree | translate
    assert not translate & {"mmodule_to_pq_tree", "pq_to_mmodule_tree", "violating_triple"}


WALKERS = {"fold", "iter_nodes", "leaf_points", "leaf_set"}


@pytest.mark.parametrize(
    "module, function, walker",
    [
        ("refine", "_pivot_forest", "fold"),
        ("reference", "is_mmodule_via_tree", "fold"),
        ("core", "leaf_points", "iter_nodes"),
    ],
)
def test_tree_queries_walk_the_tree_once(module, function, walker):
    # one pass over the tree, not a leaf set per child per level or a
    # second walk of the subtrees the first one measured
    called = _called(module, function)
    assert walker in called
    assert not called & WALKERS - {walker}


def test_tree_documents_are_read_and_drawn_through_fold():
    # the writer, the reader and both renderings are each a ``core.fold``,
    # and no ``formats`` function keeps a walk of its own
    for function in ("tree_to_doc", "doc_to_tree", "ascii_tree", "dot_tree"):
        assert "fold" in _called("formats", function), function
    loops = [node.lineno for node in ast.walk(_tree("formats")) if isinstance(node, ast.While)]
    assert not loops, f"formats.py has while loops at lines {loops}"


# Imports inside a function, per module: ``cli`` loads ``bench``, and the
# ``statistics`` module under it, for the ``bench`` command alone.  None may
# join the list unnoticed.
NESTED_IMPORTS = {"cli": {"bench"}}


@pytest.mark.parametrize("name", MODULES)
def test_production_module_imports_only_at_module_level(name):
    tree = _tree(name)
    top = {id(node) for node in tree.body}
    nested = {
        node.lineno: {alias.name for alias in node.names}
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    }
    names = set().union(*nested.values())
    assert names == NESTED_IMPORTS.get(name, set()), f"{name}.py imports inside a block: {nested}"


# Production functions that call themselves by name: none, since every
# tree walk is a ``core.fold``, ``core.iter_nodes`` or an explicit stack;
# none may join the list unnoticed.
SELF_CALLING: set[str] = set()


def _self_calling(scope: ast.AST, prefix: str) -> set[str]:
    """Qualified names of the functions under ``scope`` that call their own name."""
    out = set()
    for node in ast.iter_child_nodes(scope):
        name = prefix
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            if not isinstance(node, ast.ClassDef) and any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == node.name
                for call in ast.walk(node)
            ):
                out.add(name)
        out |= _self_calling(node, name)
    return out


def test_self_calling_functions_are_the_known_ones():
    found = set().union(*(_self_calling(_tree(name), name) for name in MODULES))
    assert found == SELF_CALLING


def _named(name: str) -> set[str]:
    """Every bare name and attribute name in ``name``'s source."""
    out = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


@pytest.mark.parametrize("name", [name for name in MODULES if name != "cli"])
def test_library_leaves_the_recursion_limit_alone(name):
    # only the CLI lifts it, scoped, for json's recursive C encoder and decoder
    assert "setrecursionlimit" not in _named(name)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_names() -> set[tuple[str, str]]:
    """(module, name) pairs the benchmark looks up in the package: the
    tracer's ``TRACED`` and the ``rs.<module>.<name>`` calls of the
    workloads, read from its source."""
    names = set(runpy.run_path(str(PERFBENCH / "tracing.py"))["TRACED"])
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in ast.walk(workloads):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id == "rs"
        ):
            names.add((node.func.value.attr, node.func.attr))
    return names


def test_benchmark_names_resolve():
    # fails, for one, if ``refine.stable_trees`` leaves while traced
    names = _benchmark_names()
    assert {module for module, _ in names} >= {"cli", "copoints", "translate"}
    missing = [
        f"{module}.{name}"
        for module, name in sorted(names)
        if not hasattr(importlib.import_module(f"robinspace.{module}"), name)
    ]
    assert not missing


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# Public package names that neither the package outside their own
# definition, nor ``scripts/``, nor the benchmark names, each with its
# reason; none may join the list unnoticed.
UNREFERENCED_PUBLIC = {
    "pqtree.equivalent": "the order-set comparison, kept beside normal_form (ROADMAP item 9)",
    "cli.cmd_*": "main looks each command up by name",
}


def _references(tree: ast.AST, bare: bool) -> set[str]:
    """Names ``tree`` refers to as an attribute (``m.f``) or imports by
    name (``from m import f``), and with ``bare`` its bare names too."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif bare and isinstance(node, ast.Name):
            out.add(node.id)
    return out


def _unreferenced_public() -> set[str]:
    """``module.name`` of each public top-level function or class of the
    package that no other top-level statement of the package refers to
    (a bare name counts in its own module alone, where it is no other
    module's local), no script under ``scripts/`` and no benchmark name."""
    outside = {name for _, name in _benchmark_names()}
    for path in SCRIPTS.glob("*.py"):
        outside |= _references(ast.parse(path.read_text(encoding="utf-8")), bare=False)
    found = set()
    for module in MODULES:
        body = _tree(module).body
        named = outside.union(
            *(_references(_tree(other), bare=False) for other in MODULES if other != module)
        )
        for i, node in enumerate(body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            rest = body[:i] + body[i + 1 :]
            if node.name not in named.union(*(_references(top, bare=True) for top in rest)):
                found.add(f"{module}.{node.name}")
    return found


def test_package_ships_only_what_is_referenced():
    # a helper only the tests call belongs beside the oracles, in ``tests/``
    found = _unreferenced_public()
    listed = {name for name in found if any(fnmatch(name, entry) for entry in UNREFERENCED_PUBLIC)}
    assert sorted(found - listed) == []
    # and every entry of the list still names something unreferenced
    assert all(any(fnmatch(name, entry) for name in found) for entry in UNREFERENCED_PUBLIC)
