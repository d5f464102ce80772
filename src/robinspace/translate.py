"""Rebuilding either tree of a Robinson space from the other.

The two shapes carry the same information in different coordinates: a
P-node groups points exactly like a plain copartition node, a
non-conical Q-node like a union node, and a conical Q-node like a
special copartition node.  Going from PQ to mmodule shape only drops
child orders; ``mmodtree`` builds its trees that way, so
``pq_to_mmodule_tree`` lives there and is re-exported here.  Coming
back the orders are recovered from the dissimilarity itself — union
nodes are laid out along a compatible order of their quotient, and the
small children of a special node go back into the large child's
spine, read by ``copoints.spine_children``, at the slot
``copoints.admissible_hole`` finds: the one spine reading and the one
slot rule the copoint construction uses too.  Both directions are one
``core.fold``, which visits each node once.
"""

from __future__ import annotations

from . import mmodtree as mm
from . import pqtree as pq
from .copoints import admissible_hole, pq_tree2, spine_children
from .core import DissimilarityMatrix, Leaf, NotRobinson, first_leaf, fold
from .mmodtree import pq_to_mmodule_tree  # noqa: F401  (re-exported)


def mmodule_to_pq_tree(
    matrix: DissimilarityMatrix, tree: mm.MModuleTree
) -> pq.PQTree:
    """PQ-tree of the space whose mmodule tree is given.

    Union children, mutually in flat position, are sequenced by running
    the recognizer on one representative apiece; a wrong claim of
    flatness gives a tree whose order the matrix refutes.  A special
    copartition node rebuilds the conical Q-node it came from: the large
    child's spine is cut once and the remaining children, under one
    P-node built by ``pq.node`` when there are several, take the gap, or
    ``NotRobinson`` is raised when the large child has no such spine.
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
    # a special node claims a spine with a slot at its weight
    gammas = spine_children(kids[tree.large_child])
    j = None if gammas is None else admissible_hole(matrix, tree.special, gammas)
    if j is None:
        raise NotRobinson("a special node's large child has no spine with a slot at its weight")
    small = [c for i, c in enumerate(kids) if i != tree.large_child]
    return pq.Q((*gammas[:j], pq.node(matrix, pq.P, small), *gammas[j:]))


def _union_order(matrix: DissimilarityMatrix, children: tuple[mm.MModuleTree, ...]) -> list[int]:
    """Child positions along a compatible order of one representative apiece."""
    reps = [first_leaf(b) for b in children]
    rank = {x: i for i, x in enumerate(pq.canonical_order(pq_tree2(matrix, reps)))}
    return sorted(range(len(reps)), key=lambda i: rank[reps[i]])
