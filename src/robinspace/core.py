"""Exact dissimilarity matrices and the order/connectivity primitives.

All weights are plain Python ints (decimal inputs are scaled on parsing, see
``robinspace.cli``), so every comparison in the package is exact.  Points are
0-based indices into one shared matrix; subsets are sequences of indices.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence


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


class NotAnMModulePartition(RobinsonError):
    """A quotient was requested over a class that is not an mmodule.

    The witness (z, x, y) has x, y in one class and d(z,x) != d(z,y).
    """

    def __init__(self, z: int, x: int, y: int) -> None:
        super().__init__(f"point {z} separates {x} and {y}")
        self.witness = (z, x, y)


class NotRobinson(RobinsonError):
    """The input admits no compatible order (detected structurally)."""


# Expensive self-audits in the tree builders (re-deriving component
# partitions, re-checking mmodule-ness of intermediate classes).  Off by
# default so benchmarks measure the algorithms, not the audits.  Audits
# only assert: they never change a return value or which exception is
# raised (tests/test_debug_checks.py runs the tree tests with them on).
debug_checks = False


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
    """True iff distances never decrease moving away from the diagonal."""
    return violating_triple(matrix, order) is None


def violating_triple(
    matrix: DissimilarityMatrix, order: Sequence[int]
) -> tuple[int, int, int] | None:
    """A triple x, y, z in order with d(x,z) < max(d(x,y), d(y,z)), or None.

    Checking each entry against its two inner neighbours is equivalent to the
    all-triples condition d(x,z) >= max(d(x,y), d(y,z)) for x < y < z along
    the order, and keeps the test quadratic; the neighbour that is larger
    names the triple.
    """
    rows = matrix.rows
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


def delta_star(matrix: DissimilarityMatrix, subset: Iterable[int]) -> int:
    """Largest edge of a minimum spanning tree on ``subset``.

    Equivalently the smallest delta whose at-most-delta graph is connected,
    and the root weight of the dendrogram.  Prim's algorithm grown from the
    smallest index, ties resolved toward smaller indices.
    """
    pts = sorted(subset)
    if len(pts) < 2:
        raise SubsetTooSmall("delta_star needs at least two points")
    rows = matrix.rows
    k = len(pts)
    row0 = rows[pts[0]]
    dist = [row0[x] for x in pts]
    visited = [False] * k
    visited[0] = True
    result = 0
    for _ in range(k - 1):
        best = -1
        best_d = None
        for i in range(k):
            if not visited[i] and (best_d is None or dist[i] < best_d):
                best_d = dist[i]
                best = i
        visited[best] = True
        if best_d > result:
            result = best_d
        ru = rows[pts[best]]
        for i in range(k):
            if not visited[i]:
                v = ru[pts[i]]
                if v < dist[i]:
                    dist[i] = v
    return result


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


def rho_components(matrix: DissimilarityMatrix, subset: Iterable[int]) -> list[tuple[int, ...]]:
    """Components of the strictly-below-delta-star graph on ``subset``."""
    pts = sorted(subset)
    if len(pts) == 1:
        return [tuple(pts)]
    rho = delta_star(matrix, pts)
    return _components(matrix.rows, pts, lambda v: v < rho)


def is_mmodule(
    matrix: DissimilarityMatrix, subset: Iterable[int], candidate: Iterable[int]
) -> bool:
    """True iff every point of subset outside candidate sees one distance on it."""
    cand = list(candidate)
    if not cand:
        return True
    inside = set(cand)
    rows = matrix.rows
    first = cand[0]
    for z in subset:
        if z in inside:
            continue
        rz = rows[z]
        want = rz[first]
        for x in cand:
            if rz[x] != want:
                return False
    return True


def quotient(
    matrix: DissimilarityMatrix, partition: Sequence[Sequence[int]]
) -> DissimilarityMatrix:
    """Quotient space over a partition into mmodules, one point per class.

    Class i of the result stands for partition[i].  Raises
    NotAnMModulePartition with a witness when any cross-class distance is
    ambiguous.
    """
    rows = matrix.rows
    parts = [list(p) for p in partition]
    ground: list[int] = [x for p in parts for x in p]
    for pi, part in enumerate(parts):
        if len(part) < 2:
            continue
        x0 = part[0]
        inside = set(part)
        for z in ground:
            if z in inside:
                continue
            rz = rows[z]
            want = rz[x0]
            for x in part[1:]:
                if rz[x] != want:
                    raise NotAnMModulePartition(z, x0, x)
    m = len(parts)
    reps = [p[0] for p in parts]
    out = [[rows[reps[i]][reps[j]] if i != j else 0 for j in range(m)] for i in range(m)]
    return DissimilarityMatrix(out, matrix.scale)


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


def ensure_recursion_headroom(n: int) -> None:
    """Lift the interpreter recursion limit for tree builders on n points."""
    need = 4 * n + 2000
    if sys.getrecursionlimit() < need:
        sys.setrecursionlimit(need)
