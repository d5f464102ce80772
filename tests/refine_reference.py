"""The partition-refinement loops as they stood before the single engine.

Kept verbatim beside the oracles so the engine in ``robinspace.refine`` can
be held to exactly their output: the same classes in the same order, and
trees carved to the same shapes.  ``copoint_partition`` and
``stable_trees`` compose the old loops the way the old module did.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from robinspace.core import DissimilarityMatrix
from robinspace.dendrogram import Internal, Leaf, Tree, leaves


def refine_by_pivot(
    matrix: DissimilarityMatrix, q: int, cls: Sequence[int]
) -> list[tuple[int, ...]]:
    """Split one class by distance to q: classes by increasing distance,
    input order preserved within each class."""
    rq = matrix.rows[q]
    buckets: dict[int, list[int]] = {}
    for x in cls:
        buckets.setdefault(rq[x], []).append(x)
    return [tuple(buckets[w]) for w in sorted(buckets)]


def stable_partition(
    matrix: DissimilarityMatrix, partition: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Refine the initial classes to the maximal mmodules they contain.

    Each class is refined by every point outside it until no pivot splits
    anything; when a class splits, its sibling parts join the front of the
    pivot queue before the leftover pivots.
    """
    classes = [list(c) for c in partition]
    rows = matrix.rows
    seq: list[tuple[list[int], deque[int]]] = []
    for i, cls in enumerate(classes):
        zq: deque[int] = deque()
        for j, other in enumerate(classes):
            if j != i:
                zq.extend(other)
        seq.append((list(cls), zq))
    _refine_seq(rows, seq)
    return [tuple(pts) for pts, _ in seq]


def _refine_seq(
    rows: list[list[int]],
    seq: list[tuple[list[int], deque[int]]],
    center: int | None = None,
) -> None:
    """Run the split loop over an ordered class list, in place.

    Splits replace their class in position, so two points in different
    classes never change relative order.  Without a center, parts are
    laid out by increasing distance to the pivot.  With one, a pivot
    from a later class splits its class radially: parts within
    d(pivot, center) of the pivot sit between center and pivot, nearest
    the center last; parts beyond d(pivot, center) are on the far side
    of the center, nearest first.
    """
    pos: dict[int, int] = {}

    def reindex() -> None:
        pos.clear()
        for where, (pts, _) in enumerate(seq):
            for x in pts:
                pos[x] = where

    reindex()
    k = 0
    while k < len(seq):
        pts, zq = seq[k]
        if len(pts) == 1 or not zq:
            k += 1
            continue
        q = zq.popleft()
        rq = rows[q]
        buckets: dict[int, list[int]] = {}
        for x in pts:
            buckets.setdefault(rq[x], []).append(x)
        if len(buckets) == 1:
            continue
        if center is None or pos[q] < k:
            weights = sorted(buckets)
        else:
            s = rq[center]
            weights = sorted((w for w in buckets if w <= s), reverse=True)
            weights += sorted(w for w in buckets if w > s)
        parts = [buckets[w] for w in weights]
        repl: list[tuple[list[int], deque[int]]] = []
        for i, part in enumerate(parts):
            z2: deque[int] = deque()
            for j, sibling in enumerate(parts):
                if j != i:
                    z2.extend(sibling)
            z2.extend(zq)
            repl.append((part, z2))
        seq[k : k + 1] = repl
        reindex()


def copoint_partition(
    matrix: DissimilarityMatrix, p: int, subset: Iterable[int]
) -> list[tuple[int, ...]]:
    """[{p}, C1, ..., Ck]: the copoints attached to p, nearest first.

    The class order is the point of this op: it must be a proximity
    order valid for every compatible order, which is what the radial
    split rule in the refinement loop buys (plain ascending distance is
    wrong as soon as a pivot beyond the class has the far side of p in
    hand).
    """
    rest = sorted(x for x in subset if x != p)
    if not rest:
        return [(p,)]
    rows = matrix.rows
    first = refine_by_pivot(matrix, p, rest)
    seq: list[tuple[list[int], deque[int]]] = []
    for i, cls in enumerate(first):
        zq: deque[int] = deque()
        for j, other in enumerate(first):
            if j != i:
                zq.extend(other)
        seq.append((list(cls), zq))
    _refine_seq(rows, seq, center=p)
    return [(p,)] + [tuple(pts) for pts, _ in seq]


def _scan_reach(rq: list[int], tree: Tree, info: dict[int, tuple[int, int]]) -> tuple[int, int]:
    # Bottom-up (lo, hi) of d(q, leaf) per node, iteratively.
    stack: list[tuple[Tree, bool]] = [(tree, False)]
    while stack:
        node, done = stack.pop()
        if isinstance(node, Leaf):
            v = rq[node.point]
            info[id(node)] = (v, v)
        elif not done:
            stack.append((node, True))
            for child in node.children:
                stack.append((child, False))
        else:
            lo = hi = None
            for child in node.children:
                clo, chi = info[id(child)]
                lo = clo if lo is None or clo < lo else lo
                hi = chi if hi is None or chi > hi else hi
            info[id(node)] = (lo, hi)
    return info[id(tree)]


def _pivot_forest(rows: list[list[int]], q: int, tree: Tree) -> list[Tree]:
    rq = rows[q]
    info: dict[int, tuple[int, int]] = {}
    lo, hi = _scan_reach(rq, tree, info)
    if lo == hi:
        return [tree]
    out: list[Tree] = []

    def split(node: Internal) -> None:
        joined: dict[int, list[Tree]] = {}
        for child in node.children:
            clo, chi = info[id(child)]
            if clo == chi:
                joined.setdefault(clo, []).append(child)
            else:
                # a Leaf always has lo == hi, so this child is Internal
                split(child)
        for w in sorted(joined):
            grp = joined[w]
            out.append(grp[0] if len(grp) == 1 else Internal(node.weight, grp))

    assert isinstance(tree, Internal)
    split(tree)
    return out


def stable_trees(matrix: DissimilarityMatrix, trees: Sequence[Tree]) -> list[Tree]:
    """Tree-shaped stable partition: same classes as stable_partition, but
    every output class arrives as a tree carved out of the inputs."""
    leaf_sets = [leaves(t) for t in trees]
    rows = matrix.rows
    out: list[Tree] = []
    for i, t in enumerate(trees):
        zq: deque[int] = deque()
        for j, other in enumerate(leaf_sets):
            if j != i:
                zq.extend(other)
        out.extend(_refine_tree(rows, t, zq))
    return out


def _refine_tree(rows: list[list[int]], tree: Tree, zq: deque[int]) -> list[Tree]:
    out: list[Tree] = []
    work: list[tuple[Tree, deque[int]]] = [(tree, zq)]
    while work:
        t, pivots = work.pop()
        while True:
            if not pivots or isinstance(t, Leaf):
                out.append(t)
                break
            q = pivots.popleft()
            forest = _pivot_forest(rows, q, t)
            if len(forest) == 1:
                t = forest[0]
                continue
            forest_leaves = [leaves(s) for s in forest]
            items = []
            for i, sub in enumerate(forest):
                z2: deque[int] = deque()
                for j, other in enumerate(forest_leaves):
                    if j != i:
                        z2.extend(other)
                z2.extend(pivots)
                items.append((sub, z2))
            work.extend(reversed(items))
            break
    return out
