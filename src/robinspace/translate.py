"""Rebuilding either tree of a Robinson space from the other.

The two shapes carry the same information in different coordinates: a
P-node groups points exactly like a plain copartition node, a
non-conical Q-node like a union node, and a conical Q-node like a
special copartition node.  Going from PQ to mmodule shape only drops
child orders; ``mmodtree`` builds its trees that way, so
``pq_to_mmodule_tree`` lives there and is re-exported here.  Coming
back the orders are recovered from the dissimilarity itself — union
nodes are laid out along a compatible order of their quotient, and the
small children of a special node are reinserted into the large child's
Q-spine at the slot located by ``find_bipartition``.
Both directions are one ``core.fold``, which visits each node once.
"""

from __future__ import annotations

from typing import Sequence

from . import mmodtree as mm
from . import pqtree as pq
from .copoints import pq_tree2
from .core import DissimilarityMatrix, Leaf, NotRobinson, first_leaf, fold, leaf_points
from .mmodtree import pq_to_mmodule_tree  # noqa: F401  (re-exported)


class NoBipartition(NotRobinson):
    """A special node's small children fit nowhere in the large spine."""


def mmodule_to_pq_tree(
    matrix: DissimilarityMatrix, tree: mm.MModuleTree
) -> pq.PQTree:
    """PQ-tree of the space whose mmodule tree is given.

    Union children, mutually in flat position, are sequenced by running
    the recognizer on one representative apiece; a wrong claim of
    flatness surfaces there as ``NotRobinson``.  A special copartition
    node rebuilds the conical Q-node it came from: the large child's
    spine is cut once and the remaining children, wrapped in a P-node
    when there are several, take the gap.
    """
    return fold(tree, lambda t, kids: _to_pq(matrix, t, kids))


def _to_pq(matrix: DissimilarityMatrix, tree: mm.MModuleTree, kids: list) -> pq.PQTree:
    # the PQ-tree of ``tree`` from the PQ-trees of its children
    if isinstance(tree, Leaf):
        return tree
    if isinstance(tree, mm.Cup):
        return pq.Q(tuple(kids[i] for i in _union_order(matrix, tree.children)))
    if tree.special is None:
        return pq.P(tuple(kids))
    gammas = _spine_children(kids[tree.large_child])
    j = find_bipartition(matrix, tree.special, gammas)
    small = [c for i, c in enumerate(kids) if i != tree.large_child]
    filler = small[0] if len(small) == 1 else pq.P(tuple(small))
    return pq.Q((*gammas[:j], filler, *gammas[j:]))


def _union_order(matrix: DissimilarityMatrix, children: tuple[mm.MModuleTree, ...]) -> list[int]:
    """Child positions along a compatible order of one representative apiece."""
    reps = [first_leaf(b) for b in children]
    rank = {x: i for i, x in enumerate(pq.canonical_order(pq_tree2(matrix, reps)))}
    return sorted(range(len(reps)), key=lambda i: rank[reps[i]])


def _spine_children(spine: pq.PQTree) -> tuple[pq.PQTree, ...]:
    if isinstance(spine, pq.Q):
        return spine.children
    # a two-point large child has a P root; either reading of it works
    if isinstance(spine, pq.P) and len(spine.children) == 2:
        return spine.children
    raise NotRobinson("large child of a special node has no linear spine")


def find_bipartition(
    matrix: DissimilarityMatrix, delta: int, children: Sequence[pq.PQTree]
) -> int:
    """How many spine children stay left of the reattachment slot.

    ``children`` is the child sequence of a Q-spine whose diameter
    exceeds ``delta`` while everything outside sits at exactly
    ``delta`` from it.  The slot is pinned in one sweep: the last child
    still strictly farther than ``delta`` from the final one bounds the
    search, and the first gap of at least ``delta`` after it is the
    cut.  Distances are taken between facing ends of adjacent children,
    so both returned sides satisfy the cross-distance bound.
    """
    rows = matrix.rows
    ell = len(children)
    if ell < 2:
        raise NoBipartition("a spine has at least two children")
    pts = [leaf_points(c) for c in children]
    head_last = pts[-1][0]
    far = -1
    for i in range(ell - 1):
        if rows[pts[i][-1]][head_last] > delta:
            far = i
    if far < 0:
        raise NoBipartition("no spine child clears the reattachment weight")
    for i in range(far, ell - 1):
        if rows[pts[i][-1]][pts[i + 1][0]] >= delta:
            return i + 1
    raise NoBipartition("no wide enough gap after the far block")
