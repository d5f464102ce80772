"""Brute-force reference implementations.

Everything here is definitional and deliberately slow: permutation scans,
subset scans, closure to fixpoint.  None of it shares code with the real
algorithms, so agreement between the two routes is evidence of correctness
rather than a tautology.  ``enumerate_orders`` lists the orders a PQ-tree
represents, by permutations and products, so a tree can be held against
``brute_compatible_orders``.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterable, Iterator

from robinspace.core import DissimilarityMatrix, Leaf, RobinsonError, fold
from robinspace.pqtree import P, PQTree, count_orders

Order = tuple[int, ...]


class InstanceTooLarge(RobinsonError):
    def __init__(self, what: str, size: int, cap: int) -> None:
        super().__init__(f"{what}: {size} points exceeds the cap of {cap}")


class TooManyOrders(RobinsonError):
    def __init__(self, count: int, cap: int) -> None:
        super().__init__(f"tree represents {count} orders, cap is {cap}")
        self.count = count
        self.cap = cap


def enumerate_orders(tree: PQTree, cap: int = 10_000) -> Iterator[Order]:
    """All orders the PQ-tree represents, each exactly once.

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


def brute_compatible_orders(
    matrix: DissimilarityMatrix, subset: Iterable[int]
) -> list[tuple[int, ...]]:
    """All compatible orders of the subset, lexicographically.

    Extends prefixes point by point and abandons a prefix as soon as some
    triple (a, b, x) with x appended last violates d(a,x) >= max(d(a,b), d(b,x));
    such a violation survives in every extension, so pruning stays exhaustive.
    """
    pts = sorted(subset)
    if len(pts) > 9:
        raise InstanceTooLarge("brute_compatible_orders", len(pts), 9)
    rows = matrix.rows
    out: list[tuple[int, ...]] = []
    order: list[int] = []
    used = [False] * len(pts)

    def extend() -> None:
        if len(order) == len(pts):
            out.append(tuple(order))
            return
        m = len(order)
        for i, x in enumerate(pts):
            if used[i]:
                continue
            ok = True
            for a in range(m):
                ra = rows[order[a]]
                va = ra[x]
                for b in range(a + 1, m):
                    if va < ra[order[b]] or va < rows[order[b]][x]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                used[i] = True
                order.append(x)
                extend()
                order.pop()
                used[i] = False

    extend()
    return out


def brute_mmodules(
    matrix: DissimilarityMatrix, subset: Iterable[int]
) -> list[tuple[int, ...]]:
    """Every subset of ``subset`` (empty set included) that is an mmodule.

    Enumerated in increasing bitmask order over the sorted points.
    """
    pts = sorted(subset)
    k = len(pts)
    if k > 14:
        raise InstanceTooLarge("brute_mmodules", k, 14)
    rows = matrix.rows
    out: list[tuple[int, ...]] = []
    for mask in range(1 << k):
        members = [pts[i] for i in range(k) if mask >> i & 1]
        ok = True
        for i in range(k):
            if mask >> i & 1:
                continue
            rz = rows[pts[i]]
            it = iter(members)
            first = next(it, None)
            if first is None:
                break
            want = rz[first]
            for x in it:
                if rz[x] != want:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(members))
    return out


def brute_subdominant(
    matrix: DissimilarityMatrix, subset: Iterable[int]
) -> DissimilarityMatrix:
    """Subdominant ultrametric on the subset, reindexed by sorted position.

    Iterates d(x,y) <- min over z of max(d(x,z), d(z,y)) until nothing
    changes; the fixpoint is the largest ultrametric below the input.
    """
    pts = sorted(subset)
    k = len(pts)
    if k > 256:
        raise InstanceTooLarge("brute_subdominant", k, 256)
    rows = matrix.rows
    d = [[rows[x][y] for y in pts] for x in pts]
    changed = True
    while changed:
        changed = False
        for z in range(k):
            dz = d[z]
            for i in range(k):
                di = d[i]
                viz = di[z]
                for j in range(k):
                    if i == j:
                        continue
                    v = viz if viz > dz[j] else dz[j]
                    if v < di[j]:
                        di[j] = v
                        changed = True
    return DissimilarityMatrix(d, matrix.scale)


def brute_copoints(
    matrix: DissimilarityMatrix, subset: Iterable[int], p: int
) -> list[tuple[int, ...]]:
    """{p} together with the inclusion-maximal mmodules of subset avoiding p.

    Sorted by smallest member.
    """
    pts = sorted(subset)
    if len(pts) > 14:
        raise InstanceTooLarge("brute_copoints", len(pts), 14)
    pos = {x: i for i, x in enumerate(pts)}
    masks = []
    for m in brute_mmodules(matrix, pts):
        if m and p not in m:
            bits = 0
            for x in m:
                bits |= 1 << pos[x]
            masks.append(bits)
    masks.sort(key=lambda b: -bin(b).count("1"))
    maximal: list[int] = []
    for b in masks:
        if not any(b & big == b for big in maximal):
            maximal.append(b)
    out = [tuple(pts[i] for i in range(len(pts)) if b >> i & 1) for b in maximal]
    out.append((p,))
    out.sort(key=lambda s: s[0])
    return out
