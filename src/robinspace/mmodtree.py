"""Mmodule trees: the modular-decomposition analogue for dissimilarities.

A set M is an mmodule when every outside point sees all of M at one
distance.  The family of mmodules of a Robinson space is laminar enough
to fit in a single tree with two kinds of internal nodes:

* ``Cup`` — the proper mmodules below it are exactly its children's
  leaf sets (partition case, arity >= 3);
* ``Cap`` — every union of a proper subset of its children's leaf sets
  is an mmodule (copartition case, arity >= 2).

Arity-2 internal nodes are always represented as ``Cap`` (both readings
coincide there).

Construction reads the tree off the PQ-tree of the copoint construction
(``copoints.pq_tree2``): P-nodes become plain copartition nodes,
non-conical Q-nodes union nodes, and conical Q-nodes special
copartition nodes.  The paper's other route, carving maximal mmodules
out of the single-linkage dendrogram, is kept for the tests as
``mmodule_tree_from_dendrogram`` in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from . import pqtree as pq
from .copoints import pq_tree2
from .core import DissimilarityMatrix, Leaf, fold


@dataclass(frozen=True)
class Cup:
    children: tuple["MModuleTree", ...]


@dataclass(frozen=True)
class Cap:
    """Copartition node.

    When ``special`` is set, all distances between points of distinct
    children equal that weight and ``children[large_child]`` is the one
    child whose diameter exceeds it.
    """

    children: tuple["MModuleTree", ...]
    special: int | None = None
    large_child: int | None = None


MModuleTree = Union[Leaf, Cup, Cap]


def mmodule_tree(matrix: DissimilarityMatrix, subset: Iterable[int]) -> MModuleTree:
    """Build the mmodule tree of the given points.

    The PQ-tree of the copoint construction, translated.  An empty
    subset raises ``core.SubsetTooSmall``, and a point that is no int
    index of the matrix, or appears twice, ``core.BadSubsetPoint``.  The
    input is assumed Robinson: the copoint construction is total, so a
    non-Robinson input still gets a tree over its points, which carries
    no guarantee.
    """
    return pq_to_mmodule_tree(matrix, pq_tree2(matrix, subset))


def pq_to_mmodule_tree(matrix: DissimilarityMatrix, tree: pq.PQTree) -> MModuleTree:
    """Mmodule tree of the space whose PQ-tree is given.

    P-nodes become plain copartition nodes and non-conical Q-nodes
    become union nodes, each child converted in place.  A conical Q-node
    becomes a special copartition node: its non-apex children fuse into
    the large child, and the apex stays one child, unless its points
    fall apart at the apex distance (``pqtree.falls_apart``, the rule by
    which ``pqtree.node`` splices it), when it dissolves into its
    children.
    """
    return fold(tree, lambda t, kids: _to_mmodule(matrix, t, tuple(kids)))


def _to_mmodule(matrix: DissimilarityMatrix, tree: pq.PQTree, kids: tuple) -> MModuleTree:
    # the mmodule tree of ``tree`` from those of its children
    if isinstance(tree, Leaf):
        return tree
    if isinstance(tree, pq.P):
        return Cap(kids)
    hit = pq.conical_apex(matrix, tree.children)
    if hit is None:
        return Cup(kids)
    delta, apex = hit
    rest = kids[:apex] + kids[apex + 1 :]
    # an arity-2 fusion is a copartition, like every arity-2 node
    base = Cap(rest) if len(rest) == 2 else Cup(rest)
    split = pq.falls_apart(matrix, tree.children[apex], delta)
    small = kids[apex].children if split else (kids[apex],)
    return Cap((base, *small), special=delta, large_child=0)


def normal_form(tree: MModuleTree) -> MModuleTree:
    """Children sorted by smallest leaf, ``large_child`` following its
    child and ``special`` kept: over distinct leaves, two trees have one
    normal form exactly when they differ only in child order."""
    return fold(tree, _normal_node)[1]


def _normal_node(tree: MModuleTree, kids: list[tuple[int, MModuleTree]]) -> tuple:
    # (smallest leaf, normal form) of ``tree`` from those of its children
    if isinstance(tree, Leaf):
        return tree.point, tree
    order = sorted(range(len(kids)), key=lambda i: kids[i][0])
    children = tuple(kids[i][1] for i in order)
    if isinstance(tree, Cup):
        return kids[order[0]][0], Cup(children)
    large = None if tree.large_child is None else order.index(tree.large_child)
    return kids[order[0]][0], Cap(children, tree.special, large)
