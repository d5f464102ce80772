"""Partition refinement by pivots, on point classes and on trees.

One engine (``_refine``) runs every refinement: the copoint partition at
a point, which the copoint construction splits on, and the stable
partition carved out of trees (``stable_trees``), which only the
dendrogram carving in ``tests/reference.py`` calls; it stays here because
the benchmark's tracer names it as ``refine.stable_trees``.  Its carve is
one ``core.fold``, so the module imports only ``core``.  The stable
partition of point classes is that file's ``stable_partition``.
A class is a list of points with a FIFO queue of pivots from outside it.
Classes are refined in order, each until it is a single point or its
queue runs out.  The first queued pivot that sees the class at two
distances splits it in place, and the pivots in front of it are dropped.
Each part inherits a queue of its sibling parts' points followed by the
pivots its class had left, and the first part is refined next.  No
part gets a copy of that queue: a split builds one list, its parts'
points in layout order then the pivots left after the splitting one,
and each part's queue is that list read without its own slice.  Callers
differ only in how the parts are laid out: distance buckets for point
classes, carved subtrees for tree classes.

The ordered-output discipline is fixed deliberately: pivot queues are FIFO,
splits happen in place so class positions never cross, and copoint
partitions lay the parts of a split out radially around the attachment
point.  The universal proximity order of copoint partitions depends on
exactly this discipline, so it is pinned here and property-tested rather
than left to taste.

Most pivots split nothing, so ``_next_split`` skips them in bulk: one
``operator.itemgetter`` over a window of queued pivots reads each point's
distances to all of them, and the points' tuples are compared in C; the
window widens 4, 16, 64, ... pivots, so a split near the front stays
cheap.  A class of identical rows (twins) is split by no pivot at all,
so once the scan has read a sixteenth of a row per point, one C compare
of the rows themselves may confirm the class without reading the rest
of its queue.  The scan reads d(q, x) as ``rows[x][q]``, so it relies on
the symmetry that ``DissimilarityMatrix`` guarantees.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import compress, count
from operator import itemgetter, ne
from typing import Callable, Iterable, Sequence

from .core import DissimilarityMatrix, Leaf, RobinsonError, checked_subset, fold, leaf_points


class NotAPartition(RobinsonError):
    pass


# split(payload, points, pivot, earlier) -> the parts as (payload, points)
# pairs in layout order; ``earlier`` holds the points of the final classes,
# which all precede the class being split.
Split = Callable[[object, list[int], int, set[int]], list[tuple[object, list[int]]]]


def _refine(
    rows: Sequence[Sequence[int]],
    parts: list[tuple[object, list[int]]],
    tail: list[int],
    split: Split,
) -> list:
    """Refine ordered (payload, points) classes, each first queued with its
    siblings' points then ``tail``; return the final payloads in order."""
    out: list = []
    earlier: set[int] = set()
    work: list[tuple[object, list[int], list[int], int, int]] = []
    _push(work, parts, tail)
    while work:
        payload, pts, queue, a, b = work.pop()
        # a single point never splits
        at = _next_split(rows, pts, queue, a, b) if len(pts) > 1 else len(queue)
        if at == len(queue):
            out.append(payload)
            earlier.update(pts)
        else:
            tails = (queue[at + 1 : a], queue[b:]) if at < a else (queue[at + 1 :],)
            _push(work, split(payload, pts, queue[at], earlier), *tails)
    return out


def _push(work: list, parts: list[tuple[object, list[int]]], *tails: list[int]) -> None:
    # One list per split: the parts' points in layout order, then the
    # pivots left.  Each part's queue is that list without its own slice
    # [a, b).  Stacked in reverse so the first part pops first.
    ext: list[int] = []
    for _, pts in parts:
        ext += pts
    b = len(ext)
    for tail in tails:
        ext += tail
    for payload, pts in reversed(parts):
        a = b - len(pts)
        work.append((payload, pts, ext, a, b))
        b = a


def _next_split(
    rows: Sequence[Sequence[int]], pts: list[int], queue: list[int], a: int = 0, b: int = 0
) -> int:
    """Index in ``queue`` of the first pivot that sees ``pts`` at two
    distances, or ``len(queue)`` when none does.

    The pivots are ``queue`` without its slice [a, b), which holds the
    class's own points when the queue is shared by the parts of a split;
    a plain list of pivots has no gap.  The windows count pivots, not
    list positions, so a window may straddle the gap, and the scan is
    the one a copy of the pivots without the gap would get.

    No pivot splits a class of identical rows.  So once the scan has
    read a sixteenth of a row per point without a split, one compare of
    the rows themselves may end it.  The compare runs at most once, and
    reads at most a whole row per point: at most 16 times what the scan
    has read, but each entry in C at about a fourteenth of the scan's
    cost (CPython 3.11), so the call stays O(|pts| |queue|).  Rows that
    differ leave the scan to go on as if nothing had been compared.
    """
    gap = b - a
    end = len(queue) - gap  # pivots, counted without the gap
    lead = rows[pts[0]]
    others = [rows[x] for x in pts[1:]]
    twins_at = len(lead) // 16  # pivots scanned before the row compare
    lo, width = 0, 4
    while lo < end:
        hi = min(lo + width, end)
        if lo < twins_at < hi:
            hi = twins_at
        if hi <= a:
            window = queue[lo:hi]
        elif lo >= a:
            window = queue[lo + gap : hi + gap]
        else:
            window = queue[lo:a] + queue[b : hi + gap]
        get = itemgetter(*window)
        ref = get(lead)
        seen = list(map(get, others))
        if seen.count(ref) != len(seen):
            at = lo
            if hi - lo > 1:  # tuples, not one pivot's bare values
                at += min(next(compress(count(), map(ne, ref, got))) for got in seen if got != ref)
            return at if at < a else at + gap
        lo, width = hi, width * 4
        if twins_at <= lo < end:
            if others.count(lead) == len(others):
                return len(queue)
            twins_at = end
    return len(queue)


def _buckets(rq: Sequence[int], pts: Iterable[int]) -> dict[int, list[int]]:
    """Points grouped by distance, input order kept inside each group."""
    out: dict[int, list[int]] = {}
    for x in pts:
        out.setdefault(rq[x], []).append(x)
    return out


def _split_points(rows: Sequence[Sequence[int]], center: int) -> Split:
    """Parts of a point class by distance to the pivot, around ``center``.

    A pivot in an earlier class lays the parts out by increasing
    distance.  Any other pivot splits radially: parts within
    d(pivot, center) of the pivot sit between center and pivot, nearest
    the center last; parts beyond d(pivot, center) are on the far side
    of the center, nearest first.
    """

    def split(_payload, pts: list[int], q: int, earlier: set[int]):
        rq = rows[q]
        buckets = _buckets(rq, pts)
        if q in earlier:
            weights = sorted(buckets)
        else:
            s = rq[center]
            weights = sorted((w for w in buckets if w <= s), reverse=True)
            weights += sorted(w for w in buckets if w > s)
        return [(buckets[w], buckets[w]) for w in weights]

    return split


def _check_partition(classes: list[list[int]]) -> None:
    seen: set[int] = set()
    for cls in classes:
        if not cls:
            raise NotAPartition("empty class")
        for x in cls:
            if x in seen:
                raise NotAPartition(f"point {x} appears in two classes")
            seen.add(x)


def copoint_partition(
    matrix: DissimilarityMatrix, p: int, subset: Iterable[int]
) -> list[tuple[int, ...]]:
    """[{p}, C1, ..., Ck]: the copoints attached to p, nearest first, each ascending.

    The class order is the point of this op: it must be a proximity
    order valid for every compatible order, which is what the radial
    split rule in the refinement loop buys (plain ascending distance is
    wrong as soon as a pivot beyond the class has the far side of p in
    hand).  The first pivot is p itself, whose radial layout around
    itself is plain ascending distance.  ``subset`` may hold p or not.  A
    subset point, or p, that is no int index of the matrix, or a subset
    point that appears twice, raises ``core.BadSubsetPoint``.
    """
    if type(p) is not int or not 0 <= p < len(matrix.rows):
        checked_subset(matrix, (p,))  # raises, naming p
    rest = checked_subset(matrix, subset)
    if p in rest:
        rest.remove(p)
    if not rest:
        return [(p,)]
    rows = matrix.rows
    final = _refine(rows, [(rest, rest)], [p], _split_points(rows, center=p))
    return [(p,)] + [tuple(c) for c in final]


def _pivot_forest(rows: Sequence[Sequence[int]], q: int, tree) -> list:
    """Split a tree into the finest forest where d(q, .) is constant per tree.

    q is not a leaf of the tree.  Subtrees whose points all sit at one
    distance from q survive whole; constant-distance siblings merge into a
    join carrying their parent's weight; everything else splits further.
    One fold, bottom up: a node at two distances adds its joins, by
    increasing distance, after what its children split into.
    """
    rq = rows[q]
    out: list = []

    def carve(node, spans: list[tuple[int, int]]) -> tuple[int, int]:
        # (lo, hi) of d(q, leaf) over the node
        if isinstance(node, Leaf):
            return rq[node.point], rq[node.point]
        lo, hi = min(s[0] for s in spans), max(s[1] for s in spans)
        if lo < hi:
            joined: dict[int, list] = {}
            for child, (clo, chi) in zip(node.children, spans):
                if clo == chi:
                    joined.setdefault(clo, []).append(child)
            for w in sorted(joined):
                grp = joined[w]
                out.append(grp[0] if len(grp) == 1 else replace(node, children=grp))
        return lo, hi

    lo, hi = fold(tree, carve)
    return out if lo < hi else [tree]


def stable_trees(matrix: DissimilarityMatrix, trees: Sequence) -> list:
    """Tree-shaped stable partition: the classes of ``stable_partition``
    in ``tests/reference.py``, each carved out of the input trees.
    The carve runs only for a pivot already known to split its tree."""
    leaf_sets = [leaf_points(t) for t in trees]
    _check_partition(leaf_sets)
    rows = matrix.rows

    def split(tree, _pts, q: int, _earlier):
        return [(sub, leaf_points(sub)) for sub in _pivot_forest(rows, q, tree)]

    return _refine(rows, list(zip(trees, leaf_sets)), [], split)
