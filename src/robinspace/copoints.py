"""Recognition by copoints: split a space at one point's copoints and
reassemble the PQ-tree around that point.

The copoints attached at p (maximal mmodules avoiding p) arrive from
the stable-partition engine already sorted by proximity to p.  Walking
them from far to near, ``next_frontier`` decides which copoints are
forced left or right of p in every compatible order, and where the
last *frontier* sits — the deepest initial segment [{p}, C1, ..., Ci]
that is again an mmodule, hence a node of the PQ-tree.  When only C_k
lies beyond it, p's subtree joins the PQ-tree of C_k: beside it, under
its conical apex, or at its ``admissible_hole``.  Every node is built
through ``pqtree.node``, so each subtree is in normal form as soon as it
exists, and that rule merges p's subtree into a P-node at its distance.

The construction is total: it returns a tree over the points of any
valid matrix.  ``recognize_robinson`` wraps it in a verdict: validate,
construct, then verify the canonical order, which alone decides, so
every refusal carries a violating triple.  ``recognize_validated`` is
the same verdict without the validation, for matrices valid already.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import getitem, ne
from typing import Generator, Iterable, Sequence

from . import core
from . import pqtree as pq
from . import refine
from .core import DissimilarityMatrix, first_leaf, last_leaf
from .pqtree import Order, PQTree


def next_frontier(
    matrix: DissimilarityMatrix, p: int, copoints: Sequence[Sequence[int]]
) -> tuple[list[Sequence[int]], int, list[Sequence[int]]]:
    """Partition the far copoints onto the two sides of p.

    Returns (L, i, R): copoints C_{i+1}..C_k distributed left (far to
    near) and right (near to far) of p, with C_i the nearest frontier
    (i = 0 when the first copoint already fails).  Sides are forced by
    comparing d(C_j, C_l) against d(p, C_l): closer pairs share a side,
    farther pairs take opposite sides, equality leaves j undecided for
    now.  Every decision sides copoints below all those sided before,
    so L and R are read off the final sides in order.
    """
    k = len(copoints)
    rows = matrix.rows
    reps = [c[0] for c in copoints]
    dp = [rows[p][r] for r in reps]

    side: list[str | None] = [None] * (k + 1)
    side[k] = "R"
    i = k
    l = k
    while l >= i:
        rl = reps[l - 1]
        w = dp[l - 1]
        sl = side[l]
        other = "R" if sl == "L" else "L"
        for j in range(i - 1, 0, -1):
            v = rows[reps[j - 1]][rl]
            if v == w:
                continue
            near = v < w
            side[j] = sl if near else other
            # the undecided run C_{j+1}..C_{i-1} takes the side opposite j
            for x in range(i - 1, j, -1):
                side[x] = other if near else sl
            i = j
        l -= 1
    return (
        [copoints[t - 1] for t in range(k, i - 1, -1) if side[t] == "L"],
        i - 1,
        [copoints[t - 1] for t in range(i, k + 1) if side[t] == "R"],
    )


def admissible_hole(
    matrix: DissimilarityMatrix, delta: int, children: Sequence[PQTree]
) -> int | None:
    """Slot for a block at uniform distance delta in a Q-spine.

    ``children`` is the child sequence of a spine whose diameter exceeds
    ``delta``; the block goes between children[j-1] and children[j] for
    the j returned.  The last child still strictly farther than ``delta``
    from the final one bounds the search, and the first gap of at least
    ``delta`` after it is the slot.  Distances are taken between the
    facing ends of adjacent children.  ``None`` when no child is that
    far or no gap that wide, which a Robinson space never shows.  The
    copoint construction, the translation of a special node and
    ``delta_pq_tree`` in ``tests/reference.py`` place their block here.
    """
    rows = matrix.rows
    firsts = [first_leaf(c) for c in children]
    lasts = [last_leaf(c) for c in children]
    far = [i for i in range(len(children) - 1) if rows[lasts[i]][firsts[-1]] > delta]
    if not far:
        return None
    for i in range(far[-1], len(children) - 1):
        if rows[lasts[i]][firsts[i + 1]] >= delta:
            return i + 1
    return None


def spine_children(spine: PQTree) -> tuple[PQTree, ...] | None:
    """Children of a tree read as a linear spine: a Q-node's, or either
    reading of a two-child P-node's; any other tree has none, ``None``."""
    if isinstance(spine, pq.Q) or (isinstance(spine, pq.P) and len(spine.children) == 2):
        return spine.children
    return None


def pq_tree2(matrix: DissimilarityMatrix, subset: Iterable[int]) -> PQTree:
    """PQ-tree of the subset, built from the copoints at its smallest point.

    A subset point that is no int index of the matrix, or appears
    twice, raises ``core.BadSubsetPoint``.

    Every node is built through ``pq.node``, so the tree comes out in
    normal form as it is assembled.  The subset is a ``_class_tree``
    generator and each subproblem a ``copoints_to_pq_tree`` one, on one
    explicit stack, so no depth of tree meets the recursion limit.
    """
    pts = core.checked_subset(matrix, subset)
    if not pts:
        raise core.SubsetTooSmall("need at least one point")
    stack = [_class_tree(matrix, pts)]
    tree = None  # sent to the generator on top: the tree it waits for
    while True:
        try:
            stack.append(copoints_to_pq_tree(matrix, *stack[-1].send(tree)))
            tree = None
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            tree = done.value


def _class_tree(
    matrix: DissimilarityMatrix, pts: Sequence[int]
) -> Generator[tuple[int, list[tuple[int, ...]]], PQTree, PQTree]:
    """The PQ-tree of ``pts`` (ascending), as the copoints at ``pts[0]``
    build it: yields the one subproblem ``(p, the copoints at p)`` it
    needs, if any, like ``copoints_to_pq_tree``.

    A point at one distance δ from every point after it has one copoint,
    the points after it, and the construction hangs it off their tree at
    δ.  So the leading run of such points (``_constant_run``) is hung
    directly, without a copoint partition each.  When the run takes all
    of ``pts``, its last points that are pairwise at one distance are
    one P-node, their leaves in descending order, which is the node that
    hanging them one by one would build; so a class whose pairs are all
    at 0 is one P-node.
    """
    rows = matrix.rows
    last = len(pts) - 1
    run = _constant_run(rows, pts)
    if run < last:
        tree = yield pts[run], refine.copoint_partition(matrix, pts[run], pts[run:])[1:]
    elif last == 0:
        tree = pq.Leaf(pts[0])
    else:
        delta = rows[pts[last - 1]][pts[last]]
        while run and rows[pts[run - 1]][pts[run]] == delta:
            run -= 1
        tree = pq.P(tuple(map(pq.Leaf, reversed(pts[run:]))))
    # each earlier point at its one distance from the points after it
    for k in reversed(range(run)):
        tree = _hang(matrix, pq.Leaf(pts[k]), tree, rows[pts[k]][pts[k + 1]])
    return tree


def _constant_run(rows: Sequence[Sequence[int]], pts: Sequence[int]) -> int:
    """How many leading points of ``pts`` are each at one distance from
    all the points after them; ``len(pts) - 1`` when every point is.

    Each row is read over the points after it, up to its first entry
    that differs from the first.  The copoint partition at a point reads
    that point's row over the whole class as its first pivot.  So the
    run reads no more than the partitions it saves, plus at most one row
    of the partition at the point that ends it, which reads that row too.
    """
    for k in range(len(pts) - 1):
        row = rows[pts[k]]
        later = map(getitem, repeat(row), pts[k + 1 :])
        if any(map(ne, later, repeat(next(later)))):
            return k
    return len(pts) - 1


def copoints_to_pq_tree(
    matrix: DissimilarityMatrix, p: int, copoints: Sequence[Sequence[int]]
) -> Generator[tuple[int, Sequence[Sequence[int]]], PQTree, PQTree]:
    """Assemble the PQ-tree of {p} ∪ copoints, in normal form; at least
    one copoint, each ascending.

    Yields each subproblem ``(p', copoints')`` whose tree it needs, is sent
    that tree, and returns its own.  Only ``pq_tree2`` drives it: ``yield
    from`` itself would nest the frames again.  A one-point copoint is a
    leaf; a larger one is a ``_class_tree``, which hangs the leading
    points that are each at one distance from all later points without
    a copoint partition, and builds a copoint whose points are pairwise
    at one distance as one P-node, the node that a copoint partition per
    point would build, and partitions none.
    """
    k = len(copoints)
    left, i, right = next_frontier(matrix, p, copoints)
    t_p = (yield p, copoints[:i]) if i > 0 else pq.Leaf(p)
    if i < k - 1:
        kids = []
        for c in (*left, *right):
            kids.append(pq.Leaf(c[0]) if len(c) == 1 else (yield from _class_tree(matrix, c)))
        kids.insert(len(left), t_p)
        return pq.node(matrix, pq.Q, kids)
    ck = copoints[-1]
    alpha = pq.Leaf(ck[0]) if len(ck) == 1 else (yield from _class_tree(matrix, ck))
    return _hang(matrix, t_p, alpha, matrix.rows[p][ck[0]])


def _hang(matrix: DissimilarityMatrix, t_p: PQTree, alpha: PQTree, delta: int) -> PQTree:
    """p's tree ``t_p`` joined to ``alpha``, the PQ-tree of C_k, the only
    copoint beyond p's last frontier, at distance ``delta``: beside it,
    under its conical apex, or at its admissible hole.

    The two ends of a compatible order of C_k are a diametral pair; on
    non-Robinson input a wrong diameter only changes the construction,
    and the order check still refuses.
    """
    wide = matrix.rows[first_leaf(alpha)][last_leaf(alpha)] > delta
    spine = spine_children(alpha) if wide else None
    if spine is not None:
        hit = pq.conical_apex(matrix, spine)
        if hit is not None and hit[0] == delta:
            # ``node`` splices the apex when it falls apart at delta
            # (``pq.falls_apart``), the one apex rule
            a = hit[1]
            apex = pq.node(matrix, pq.P, (spine[a], t_p))
            return pq.node(matrix, pq.Q, (*spine[:a], apex, *spine[a + 1 :]))
        j = admissible_hole(matrix, delta, spine)
        if j is not None:
            return pq.node(matrix, pq.Q, (*spine[:j], t_p, *spine[j:]))
    # ``node`` splices a P-node alpha whose children sit delta apart.  A
    # wide alpha lands here only with no spine or slot, as no Robinson
    # space has; the tree still spans the points, and the check refuses.
    return pq.node(matrix, pq.P, (alpha, t_p))


@dataclass(frozen=True)
class RecognitionResult:
    accepted: bool
    tree: PQTree | None = None
    witness: Order | None = None
    reason: str | None = None
    violation: tuple[int, int, int] | None = None


def recognize_robinson(matrix: DissimilarityMatrix) -> RecognitionResult:
    """Construct-then-verify wrapper; refusal is a value, never a lie.

    A returned witness always passes the order check, and the order of
    the total construction is compatible on Robinson input, so a refusal,
    which always names a violating triple, is trustworthy too.
    """
    core.validate(matrix)
    return recognize_validated(matrix)


def recognize_validated(matrix: DissimilarityMatrix) -> RecognitionResult:
    """``recognize_robinson`` on a matrix already known to pass
    ``core.validate`` (a parsed file), without checking it again."""
    tree = pq_tree2(matrix, range(matrix.n))
    order = pq.canonical_order(tree)
    violation = core.violating_triple(matrix, order)
    if violation is None:
        return RecognitionResult(True, tree=tree, witness=order)
    return RecognitionResult(
        False, reason="constructed order fails verification", violation=violation
    )
