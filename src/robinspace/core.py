"""Exact dissimilarity matrices, the compatible-order check and the tree walkers.

All weights are plain Python ints (decimal inputs are scaled on parsing, see
``robinspace.formats``), so every comparison in the package is exact.  Points are
0-based indices into one shared matrix; subsets are sequences of indices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import compress, count, islice
from typing import Any, Callable, Iterable, Iterator, Sequence


class RobinsonError(Exception):
    """Base class for structured errors raised by this package."""


class EmptyMatrix(RobinsonError):
    pass


class AsymmetricInput(RobinsonError):
    def __init__(self, i: int, j: int) -> None:
        super().__init__(f"matrix not symmetric at ({i}, {j})")
        self.indices = (i, j)


class RaggedMatrix(RobinsonError):
    def __init__(self, i: int, length: int, n: int) -> None:
        super().__init__(f"matrix row {i} has length {length}, but the matrix has {n} rows")
        self.row = i


class NonzeroDiagonal(RobinsonError):
    def __init__(self, i: int) -> None:
        super().__init__(f"nonzero diagonal entry at index {i}")
        self.index = i


class SubsetTooSmall(RobinsonError):
    pass


class BadSubsetPoint(RobinsonError):
    def __init__(self, point: object, why: str) -> None:
        super().__init__(f"subset point {point!r} {why}")
        self.point = point


class NotRobinson(RobinsonError):
    """No compatible order: the refusal names a violating triple or the failed step."""


@dataclass(frozen=True)
class Leaf:
    """The one leaf type of every tree in the package (PQ, mmodule, dendrogram)."""

    point: int


# Tree walkers shared by all three tree kinds: an internal node is anything
# with ``.children``.  Iterative, because trees can be chains of depth n.
# The node types' dataclass-generated ``==``, ``hash`` and ``repr`` recurse
# once per level instead, so compare deep trees with ``first_difference``
# or ``pqtree.equivalent``.


def iter_nodes(tree) -> Iterator:
    """Every node, parents before children, children left to right."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, Leaf):
            stack.extend(reversed(node.children))


_LEAVE = object()  # on ``fold``'s stack, above the (node, start) of a node to leave


def fold(tree, combine: Callable[[Any, list], Any], children=operator.attrgetter("children")):
    """``combine(node, child_values)`` bottom-up, the values in child order;
    returns the root's.  One depth-first walk in a recursive walk's order:
    ``children(node)`` when it enters a node (preorder, left to right),
    ``combine`` when it leaves it (postorder); a ``Leaf`` or a childless
    node is left as soon as it is entered.  So ``children`` may check a
    node on the way down, and the first error raised is a recursive walk's.
    Tree documents are read and drawn through it: ``formats`` has no walk."""
    done: list = []  # values of the subtrees left under open nodes, last on top
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is _LEAVE:
            node, start = stack.pop()
            values = done[start:]
            del done[start:]
            done.append(combine(node, values))
        elif isinstance(node, Leaf) or not (kids := children(node)):
            done.append(combine(node, []))
        else:
            stack += (node, len(done)), _LEAVE
            stack.extend(reversed(kids))
    return done[0]


def first_difference(t1, t2) -> tuple | None:
    """The first pair of nodes in preorder whose type or fields differ,
    children by their count; None for equal trees.  Unlike the dataclass
    ``==`` it needs no recursion on deep trees, and a preorder of arities
    fixes a tree, so shapes that agree until one ends end together."""
    return next(((a, b) for a, b in zip(iter_nodes(t1), iter_nodes(t2)) if _shape(a) != _shape(b)), None)


def _shape(node) -> tuple:
    fields = vars(node).copy()
    if "children" in fields:
        fields["children"] = len(fields["children"])
    return type(node), fields


def leaf_points(tree) -> list[int]:
    """Leaf points left to right."""
    return [node.point for node in iter_nodes(tree) if isinstance(node, Leaf)]


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

    Rows are read-only sequences of ints: no code in the package writes
    into a row.  Tuples are what ``generator.generate_matrix`` and
    ``intern_weights`` build, and every read in the package takes them at
    least as fast as lists, while the cyclic collector skips a tuple of
    ints; ``formats.parse_matrix`` fills its rows by writes and returns lists.
    Equal rows may be one object (a generated point's copies share its row).
    """

    rows: list[Sequence[int]]
    scale: int = 1

    @property
    def n(self) -> int:
        return len(self.rows)


def checked_subset(matrix: DissimilarityMatrix, subset: Iterable[int]) -> list[int]:
    """The points of ``subset`` ascending; ``BadSubsetPoint`` names the
    first one that is not an int (``bool`` is not), then the first one
    out of range or repeated.  Past the sort, two passes in C: a count of
    the exact ints and a set of the points; the scans that name a bad
    point run only when one fails.  The copoint construction calls this
    once per copoint partition, so the passes are the cheapest found."""
    pts = list(subset)
    if operator.countOf(map(type, pts), int) != len(pts):
        raise BadSubsetPoint(next(x for x in pts if type(x) is not int), "is not an int")
    pts.sort()
    n = len(matrix.rows)
    if pts and not 0 <= pts[0] <= pts[-1] < n:
        raise BadSubsetPoint(pts[0] if pts[0] < 0 else pts[-1], f"is outside 0..{n - 1}")
    if len(set(pts)) != len(pts):
        twice = next(compress(pts, map(operator.eq, pts, islice(pts, 1, None))))
        raise BadSubsetPoint(twice, "appears twice")
    return pts


def validate(matrix: DissimilarityMatrix) -> None:
    """Check shape, symmetry and zero diagonal; raise on the first defect.

    The first defect is the one a walk over the rows meets first, reading
    each row's diagonal entry before its entries right of the diagonal
    (``first_defect_loop`` in ``tests/reference.py``).  Every scan is in C:
    the first nonzero diagonal entry k, the first row r unequal to its
    column, and in that row the first entry unequal to the column, which
    lies right of the diagonal because every earlier row equals its
    column.  A nonzero diagonal wins when k <= r.
    """
    rows = matrix.rows
    if not rows:
        raise EmptyMatrix("matrix has no rows")
    n = len(rows)
    for i, row in enumerate(rows):
        if len(row) != n:
            raise RaggedMatrix(i, len(row), n)
    k = next(compress(count(), map(operator.getitem, rows, range(n))), n)
    r = next(compress(count(), map(operator.ne, map(tuple, rows), zip(*rows))), n)
    if k < n and k <= r:
        raise NonzeroDiagonal(k)
    if r < n:
        column = map(operator.itemgetter(r), rows)
        raise AsymmetricInput(r, next(compress(count(), map(operator.ne, rows[r], column))))


def intern_weights(matrix: DissimilarityMatrix) -> None:
    """Share one int object per distinct weight, in place.

    Weights above the interpreter's small-int range are otherwise one heap
    object per entry, which quadruples the footprint of a large matrix and
    drags every scan through cold memory.  Rows are read-only, so each is
    replaced by a tuple of the shared ints, one row at a time; a row object
    met again gets the tuple built for it, so rows that were one object
    stay one.  Keying by ``id`` is safe: the old rows are all alive when
    the walk begins, so no two of them share one.
    """
    cache: dict[int, int] = {}
    built: dict[int, tuple[int, ...]] = {}  # id of an old row -> its tuple
    rows = matrix.rows
    for i, row in enumerate(rows):
        new = built.get(id(row))
        if new is None:
            new = built[id(row)] = tuple([cache.setdefault(v, v) for v in row])
        rows[i] = new


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
    a sorted run in one C pass.

    The triple named is the first one ``violating_triple_loop`` in
    ``tests/reference.py`` meets: it visits pairs of positions (a, b) in
    order and checks the row rule, d(a, b-1) <= d(a, b), before the column
    rule, d(a+1, b) <= d(a, b).  So the row of the point at position p fails
    with key (p, b, 0) at its first descent right of the diagonal and
    with key (a, p, 1) at its first ascent left of it; the smallest key
    over all failing rows is the loop's first failure.  Each failing row's
    key is found by C scans while its column is at hand, so the pass over
    every row, which an acceptance pays anyway, is the whole cost.
    """
    rows = matrix.rows
    m = len(order)
    at: list[int | None] = [None] * len(rows)
    for a, x in enumerate(order):
        at[x] = a
    best = (m, 0, 0)  # the smallest failure key so far; sorts after every real key
    for p, seen in zip(at, zip(*map(rows.__getitem__, order))):
        if p is None:
            continue
        left, right = seen[:p], seen[p + 1 :]
        if list(left) != sorted(left, reverse=True):
            # a row's ascent key beats its descent keys; scan up to best's a only
            stop = best[0] + 1
            rises = map(operator.lt, islice(left, stop), islice(left, 1, stop + 1))
            a = next(compress(count(), rises), m)
            best = min(best, (a, p, 1))
        elif p <= best[0] and list(right) != sorted(right):
            # left half sorted: the first descent right of p, if p can still win
            falls = map(operator.lt, islice(right, 1, None), right)
            best = min(best, (p, next(compress(count(p + 2), falls)), 0))
    a, b, kind = best
    if a == m:
        return None
    return order[a], (order[b - 1] if kind == 0 else order[a + 1]), order[b]
