"""PQ-trees over dissimilarity spaces.

A PQ-tree compactly represents the whole family of compatible orders of
a Robinson space: P-node children may be permuted arbitrarily, Q-node
children may only be read left-to-right or right-to-left.  Arity-2
internal nodes are always P (the two conventions agree there); Q-nodes
have arity at least 3.  ``node`` is the one rule that keeps a tree in
that normal form: the copoint construction builds every node through it,
and ``normalize`` folds it over a tree assembled any other way.

Beyond the order bookkeeping (counting, enumeration, equivalence), this
module reads boundary weights off internal nodes: a Q-node is *conical*
when one interior child sits at a single distance from all the others
(``conical_apex``).  That is what lets the translation routines move
between PQ-trees and mmodule trees without touching the matrix more than
O(1) times per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from typing import Iterator, Sequence, Union

from .core import DissimilarityMatrix, Leaf, RobinsonError
from .core import first_leaf, fold, iter_nodes, leaf_points


class TooManyOrders(RobinsonError):
    def __init__(self, count: int, cap: int) -> None:
        super().__init__(f"tree represents {count} orders, cap is {cap}")
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class P:
    children: tuple["PQTree", ...]


@dataclass(frozen=True)
class Q:
    children: tuple["PQTree", ...]


PQTree = Union[Leaf, P, Q]
Order = tuple[int, ...]


def canonical_order(tree: PQTree) -> Order:
    """Left-to-right leaf sequence of the tree as stored."""
    return tuple(leaf_points(tree))


def count_orders(tree: PQTree) -> int:
    total = 1
    for node in iter_nodes(tree):
        if isinstance(node, P):
            total *= factorial(len(node.children))
        elif isinstance(node, Q):
            total *= 2
    return total


def enumerate_orders(tree: PQTree, cap: int = 10_000) -> Iterator[Order]:
    """All represented orders, each exactly once.

    The count is checked against ``cap`` before anything is produced, so
    an oversized tree fails fast instead of mid-stream.
    """
    total = count_orders(tree)
    if total > cap:
        raise TooManyOrders(total, cap)
    return iter(fold(tree, _orders))


def _orders(node: PQTree, per_child: list[list[Order]]) -> list[Order]:
    if isinstance(node, Leaf):
        return [(node.point,)]
    out: list[Order] = []
    if isinstance(node, P):
        for perm in permutations(range(len(per_child))):
            for parts in product(*(per_child[i] for i in perm)):
                out.append(sum(parts, ()))
    else:
        for parts in product(*per_child):
            out.append(sum(parts, ()))
        for parts in product(*reversed(per_child)):
            out.append(sum(parts, ()))
    return out


def normal_form(tree: PQTree) -> PQTree:
    """Canonical representative of the equivalence class of the tree.

    P children are sorted by smallest leaf; each Q is oriented so the
    sequence of child keys is lexicographically least.  Arity-1 nodes
    collapse and arity-2 Q becomes P, so mildly ill-formed inputs
    canonicalize instead of comparing unequal for cosmetic reasons.
    """
    return fold(tree, _normal_node)[1]


def _normal_node(tree: PQTree, kids: list[tuple[int, PQTree]]) -> tuple[int, PQTree]:
    # (smallest leaf, normal form) of ``tree`` from those of its children
    if isinstance(tree, Leaf):
        return tree.point, tree
    if len(kids) == 1:
        return kids[0]
    keys = [key for key, _ in kids]
    if isinstance(tree, P) or len(kids) == 2:
        kids.sort(key=lambda kc: kc[0])
        return min(keys), P(tuple(c for _, c in kids))
    if keys > keys[::-1]:
        kids.reverse()
    return min(keys), Q(tuple(c for _, c in kids))


def equivalent(t1: PQTree, t2: PQTree) -> bool:
    """True iff the two trees represent exactly the same set of orders."""

    def shape(tree: PQTree) -> list:
        # preorder of (type, point or arity) fixes a tree; unlike the
        # dataclass ``==`` it needs no recursion on deep trees
        return [
            (type(t), t.point if isinstance(t, Leaf) else len(t.children))
            for t in iter_nodes(normal_form(tree))
        ]

    return shape(t1) == shape(t2)


def conical_apex(
    matrix: DissimilarityMatrix, children: tuple[PQTree, ...]
) -> tuple[int, int] | None:
    """Return (delta, apex index) for a conical Q-child sequence, else None.

    Only four distances per candidate are inspected; on the PQ-tree of
    a Robinson space this is equivalent to checking the apex against
    every sibling.  The first candidate that passes is the apex.
    """
    rows = matrix.rows
    reps = [first_leaf(c) for c in children]
    k = len(reps)
    for i in range(1, k - 1):
        v = rows[reps[0]][reps[i]]
        if (
            v == rows[reps[i - 1]][reps[i]]
            and v == rows[reps[i]][reps[i + 1]]
            and v == rows[reps[i]][reps[k - 1]]
        ):
            return v, i
    return None


def tree_delta_star(
    matrix: DissimilarityMatrix, tree: PQTree
) -> tuple[int | None, int | None]:
    """(top weight, apex index) read off the root in O(arity).

    P roots expose the top weight as their uniform cross distance; Q
    roots only when conical.  Leaves and non-conical Q roots give
    (None, None).
    """
    if isinstance(tree, Leaf):
        return (None, None)
    if isinstance(tree, P):
        a = first_leaf(tree.children[0])
        b = first_leaf(tree.children[1])
        return (matrix.rows[a][b], None)
    hit = conical_apex(matrix, tree.children)
    if hit is None:
        return (None, None)
    return hit


def node(
    matrix: DissimilarityMatrix, kind: type[P] | type[Q], kids: Sequence[PQTree]
) -> PQTree:
    """A ``kind`` node (P or Q) over children already in normal form,
    itself in normal form.

    Normal form: no unary node, no arity-2 Q, and no P child inside a P
    parent at the same cross-child distance.  So a unary node collapses
    to its child, an arity-2 Q becomes a P, and a P child at the new
    node's own cross distance is spliced in.  One level of splicing is
    enough, because a normal P child has no P child at its own weight.
    The merge matters when ties make a construction emit nested P-nodes
    at one weight; the merged node represents the full set of orders the
    space admits.
    """
    if len(kids) == 1:
        return kids[0]
    if kind is Q and len(kids) > 2:
        return Q(tuple(kids))
    rows = matrix.rows
    delta = rows[first_leaf(kids[0])][first_leaf(kids[1])]
    out: list[PQTree] = []
    for c in kids:
        if isinstance(c, P) and rows[first_leaf(c.children[0])][first_leaf(c.children[1])] == delta:
            out.extend(c.children)
        else:
            out.append(c)
    return P(tuple(out))


def normalize(matrix: DissimilarityMatrix, tree: PQTree) -> PQTree:
    """The tree rebuilt bottom-up through ``node``, the normal-form rule.

    ``copoints.pq_tree2`` already builds through ``node``, so this is for
    trees assembled any other way; a tree in normal form comes back equal.
    """
    return fold(
        tree, lambda t, kids: t if isinstance(t, Leaf) else node(matrix, type(t), kids)
    )
