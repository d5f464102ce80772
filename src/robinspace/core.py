"""Exact dissimilarity matrices and the order/connectivity primitives.

All weights are plain Python ints (decimal inputs are scaled on parsing, see
``robinspace.cli``), so every comparison in the package is exact.  Points are
0-based indices into one shared matrix; subsets are sequences of indices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence


class RobinsonError(Exception):
    """Base class for structured errors raised by this package."""


class EmptyMatrix(RobinsonError):
    pass


class AsymmetricInput(RobinsonError):
    def __init__(self, i: int, j: int) -> None:
        super().__init__(f"matrix not symmetric at ({i}, {j})")
        self.indices = (i, j)


class NonzeroDiagonal(RobinsonError):
    def __init__(self, i: int) -> None:
        super().__init__(f"nonzero diagonal entry at index {i}")
        self.index = i


class SubsetTooSmall(RobinsonError):
    pass


class NotRobinson(RobinsonError):
    """The input admits no compatible order (detected structurally)."""


@dataclass(frozen=True)
class Leaf:
    """The one leaf type of every tree in the package (PQ, mmodule, dendrogram)."""

    point: int


# Tree walkers shared by all three tree kinds: an internal node is anything
# with ``.children``.  Iterative, because trees can be chains of depth n.


def iter_nodes(tree) -> Iterator:
    """Every node, parents before children, children left to right."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, Leaf):
            stack.extend(reversed(node.children))


def fold(tree, combine: Callable[[Any, list], Any], children=operator.attrgetter("children")):
    """``combine(node, child_values)`` bottom-up, the values in child order;
    returns the root's.  A ``Leaf`` has no children, any other node
    ``children(node)``.  Reversed preorder, children pushed in order, is
    the left-to-right postorder a recursive walk would combine in."""
    nodes, stack = [], [tree]
    while stack:
        node = stack.pop()
        kids = () if isinstance(node, Leaf) else children(node)
        nodes.append((node, len(kids)))
        stack.extend(kids)
    done: list = []  # values of finished subtrees, last child on top
    for node, k in reversed(nodes):
        cut = len(done) - k
        done[cut:] = [combine(node, done[cut:])]
    return done[0]


def leaf_points(tree) -> list[int]:
    """Leaf points left to right."""
    out: list[int] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node.point)
        else:
            stack.extend(reversed(node.children))
    return out


def leaf_set(tree) -> frozenset[int]:
    return frozenset(leaf_points(tree))


def first_leaf(tree) -> int:
    """Point of the leftmost leaf."""
    while not isinstance(tree, Leaf):
        tree = tree.children[0]
    return tree.point


def last_leaf(tree) -> int:
    """Point of the rightmost leaf."""
    while not isinstance(tree, Leaf):
        tree = tree.children[-1]
    return tree.point


@dataclass
class DissimilarityMatrix:
    """Symmetric matrix of exact nonnegative weights with zero diagonal.

    ``rows[i][j]`` is the scaled integer weight; ``scale`` is the power of
    ten the original decimal values were multiplied by (1 when the input was
    integral).  Algorithms only ever touch the integers; ``scale`` matters
    for serialization alone.
    """

    rows: list[list[int]]
    scale: int = 1

    @property
    def n(self) -> int:
        return len(self.rows)

    def dist(self, x: int, y: int) -> int:
        return self.rows[x][y]


def validate(matrix: DissimilarityMatrix) -> None:
    """Check shape, symmetry and zero diagonal; raise on the first defect."""
    rows = matrix.rows
    if not rows:
        raise EmptyMatrix("matrix has no rows")
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise AsymmetricInput(i, len(row))
    # every row equal to its column, compared in C; the index loop below
    # runs only to name the first defect
    if all(map(operator.eq, map(tuple, rows), zip(*rows))) and not any(
        map(operator.getitem, rows, range(n))
    ):
        return
    for i in range(n):
        if rows[i][i] != 0:
            raise NonzeroDiagonal(i)
        ri = rows[i]
        for j in range(i + 1, n):
            if ri[j] != rows[j][i]:
                raise AsymmetricInput(i, j)


def intern_weights(matrix: DissimilarityMatrix) -> None:
    """Share one int object per distinct weight, in place.

    Weights above the interpreter's small-int range are otherwise one heap
    object per entry, which quadruples the footprint of a large matrix and
    drags every scan through cold memory.
    """
    cache: dict[int, int] = {}
    for row in matrix.rows:
        row[:] = [cache.setdefault(v, v) for v in row]


def is_compatible_order(matrix: DissimilarityMatrix, order: Sequence[int]) -> bool:
    """True iff distances never decrease moving away from the diagonal.

    The public predicate validates ``matrix`` first and raises on the first
    defect, since ``violating_triple`` is exact only on a valid matrix;
    production callers hold a validated matrix and call that directly.
    """
    validate(matrix)
    return violating_triple(matrix, order) is None


def violating_triple(
    matrix: DissimilarityMatrix, order: Sequence[int]
) -> tuple[int, int, int] | None:
    """A triple x, y, z in order with d(x,z) < max(d(x,y), d(y,z)), or None.

    Precondition: ``matrix`` passes ``validate`` and ``order`` lists
    distinct points; the check reads columns as rows, so it is exact only
    on a symmetric matrix.  Every production caller has such a matrix.

    Checking each entry against its two inner neighbours is equivalent to
    the all-triples condition d(x,z) >= max(d(x,y), d(y,z)) for x < y < z
    along the order: each point's row, read along the order, must be
    non-increasing left of the point and non-decreasing right of it.
    ``zip`` over the rows taken in order yields every column read along
    the order, which by symmetry is that point's row, and timsort confirms
    a sorted run in one C pass.  Only when a row fails does the index loop
    run, to name the first triple in its order (the one
    ``reference.violating_triple_loop`` names); the neighbour that is
    larger names the triple.
    """
    rows = matrix.rows
    at: list[int | None] = [None] * len(rows)
    for a, x in enumerate(order):
        at[x] = a
    for a, seen in zip(at, zip(*map(rows.__getitem__, order))):
        if a is None:
            continue
        left, right = seen[:a], seen[a + 1 :]
        if list(right) != sorted(right) or list(left) != sorted(left, reverse=True):
            break
    else:
        return None
    m = len(order)
    for a in range(m):
        ra = rows[order[a]]
        for b in range(a + 2, m):
            v = ra[order[b]]
            if v < ra[order[b - 1]]:
                return order[a], order[b - 1], order[b]
            if v < rows[order[a + 1]][order[b]]:
                return order[a], order[a + 1], order[b]
    return None


def _components(rows: list[list[int]], pts: list[int], adjacent) -> list[tuple[int, ...]]:
    # BFS from increasing start indices; pts must be sorted.
    k = len(pts)
    seen = [False] * k
    comps = []
    for s in range(k):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        frontier = [s]
        while frontier:
            nxt = []
            for a in frontier:
                ra = rows[pts[a]]
                for b in range(k):
                    if not seen[b] and adjacent(ra[pts[b]]):
                        seen[b] = True
                        comp.append(b)
                        nxt.append(b)
            frontier = nxt
        comps.append(tuple(sorted(pts[i] for i in comp)))
    return comps


def delta_graph_components(
    matrix: DissimilarityMatrix, subset: Iterable[int], delta: int
) -> list[tuple[int, ...]]:
    """Connected components of the graph whose edges are pairs at distance != delta."""
    pts = sorted(subset)
    return _components(matrix.rows, pts, lambda v: v != delta)


def components_below(
    matrix: DissimilarityMatrix, subset: Iterable[int], bound: int
) -> list[tuple[int, ...]]:
    """Connected components of the graph whose edges are pairs at distance < bound."""
    return _components(matrix.rows, sorted(subset), lambda v: v < bound)


def diameter_and_pair(
    matrix: DissimilarityMatrix, subset: Iterable[int]
) -> tuple[int, int, int]:
    """Largest distance on subset with its lexicographically least witness pair."""
    pts = sorted(subset)
    if len(pts) < 2:
        raise SubsetTooSmall("diameter needs at least two points")
    rows = matrix.rows
    best = -1
    bx = by = -1
    for a in range(len(pts)):
        ra = rows[pts[a]]
        for b in range(a + 1, len(pts)):
            v = ra[pts[b]]
            if v > best:
                best = v
                bx, by = pts[a], pts[b]
    return best, bx, by
