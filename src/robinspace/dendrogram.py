"""Single-linkage dendrograms as vertex-weighted trees.

The dendrogram of the subdominant ultrametric is built by Prim's sweep over
the minimum spanning tree (Gower & Ross, 1969): points are visited in order
of their current best distance to the visited set, ties toward the smaller
index, and each new point is inserted along the first-child chain at the
level of its connecting weight.  The sweep is compacted: it keeps only the
unvisited points, in ascending order, beside their best distances, and
shrinks both by one each step, so a k-point subset costs about k^2/2 entry
visits, each in C or in one list comprehension.  Weights strictly increase
from leaves to root, and the subdominant distance of two points is the
weight of their lowest common ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .core import DissimilarityMatrix, Leaf, SubsetTooSmall, checked_subset


@dataclass
class Internal:
    """Internal node at ``weight``, the scaled merge height of its children."""

    weight: int
    children: list = field(default_factory=list)


Tree = Leaf | Internal


def _insert(u: int, rho: int, tree: Tree) -> Tree:
    leaf = Leaf(u)
    if isinstance(tree, Leaf) or tree.weight < rho:
        return Internal(rho, [leaf, tree])
    node = tree
    while node.weight > rho:
        child = node.children[0]
        if isinstance(child, Leaf) or child.weight < rho:
            node.children[0] = Internal(rho, [leaf, child])
            return tree
        node = child
    node.children.insert(0, leaf)
    return tree


def build_dendrogram(matrix: DissimilarityMatrix, subset: Iterable[int]) -> Tree:
    """Dendrogram of the subdominant ultrametric on ``subset``.

    Visits points by Prim's rule starting from the smallest index: the next
    point is the unvisited one nearest to the visited set, ties toward the
    smaller index, and it is inserted at the level of that distance.  The
    unvisited points are kept in ascending order beside their best
    distances, so each step runs over live entries only, in C (``min``,
    ``index``) and one list comprehension (the merge with the new point's
    row).  A row equal to the last row merged, a twin's, would lower no
    distance, so its merge is skipped.  The C compare that finds this
    stops at the first entry that differs, so it reads at most one row
    per step, each entry at a small fraction of the merge's cost, and
    the sweep stays quadratic.  Child order records insertion history
    and is not part of the contract.  A subset point that is no int index
    of the matrix, or appears twice, raises ``core.BadSubsetPoint``.
    """
    pts = checked_subset(matrix, subset)
    if not pts:
        raise SubsetTooSmall("cannot build a dendrogram on no points")
    rows = matrix.rows
    tree: Tree = Leaf(pts[0])
    rem = pts[1:]
    merged = rows[pts[0]]
    dist = list(_gather(merged, rem))
    while rem:
        best_d = min(dist)
        # index() finds the first minimum: the smallest such point
        i = dist.index(best_d)
        u = rem.pop(i)
        del dist[i]
        tree = _insert(u, best_d, tree)
        if rows[u] != merged:  # a twin of the last row merged lowers nothing
            merged = rows[u]
            dist = [a if a < b else b for a, b in zip(dist, _gather(merged, rem))]
    return tree


def _gather(row: Sequence[int], pts: list[int]) -> Sequence[int]:
    """``row``'s entries at ``pts``, gathered in C at the same cost from a
    tuple row or a list row (a row's own ``__getitem__``, called once per
    entry, takes twice as long on a tuple).  ``itemgetter`` of one index
    returns the bare entry, so one point gets a tuple of its own."""
    return itemgetter(*pts)(row) if len(pts) > 1 else tuple(row[x] for x in pts)
