"""Recognition by copoints: split a space at one point's copoints and
reassemble the PQ-tree around that point.

The copoints attached at p (maximal mmodules avoiding p) arrive from
the stable-partition engine already sorted by proximity to p.  Walking
them from far to near, ``next_frontier`` decides which copoints are
forced left or right of p in every compatible order, and where the
last *frontier* sits — the deepest initial segment [{p}, C1, ..., Ci]
that is again an mmodule, hence a node of the PQ-tree.  The remaining
single-copoint case inserts p's subtree into the PQ-tree of that
copoint, guided by the cone structure of its root and by its diameter,
read off the two ends of that tree's order.  Every node is built through
``pqtree.node``, so each subtree is in normal form as soon as it exists
and no pass re-normalizes it.

``recognize_robinson`` wraps the construction in a verdict: validate,
construct, then verify the canonical order, so a bogus tree can never
slip through on non-Robinson input.  ``recognize_validated`` is the same
verdict without the validation, for matrices that are valid already.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Iterable, Sequence

from . import core
from . import pqtree as pq
from . import refine
from .core import DissimilarityMatrix, NotRobinson, first_leaf, last_leaf, leaf_points
from .pqtree import Order, PQTree


class SideConflict(NotRobinson):
    """A copoint was pinned to both sides of p at once."""


class NoAdmissibleHole(NotRobinson):
    """No insertion slot for a new apex preserves the Robinson property."""


def next_frontier(
    matrix: DissimilarityMatrix, p: int, copoints: Sequence[Sequence[int]]
) -> tuple[list[Sequence[int]], int, list[Sequence[int]]]:
    """Partition the far copoints onto the two sides of p.

    Returns (L, i, R): copoints C_{i+1}..C_k distributed left (far to
    near) and right (near to far) of p, with C_i the nearest frontier
    (i = 0 when the first copoint already fails).  Sides are forced by
    comparing d(C_j, C_l) against d(p, C_l): closer pairs share a side,
    farther pairs take opposite sides, equality leaves j undecided for
    now.  L and R are persistent cons cells so prepends and bulk
    re-sidings cost what they look like.
    """
    k = len(copoints)
    rows = matrix.rows
    reps = [c[0] for c in copoints]
    dp = [rows[p][r] for r in reps]

    side: list[str | None] = [None] * (k + 1)

    def assign(idx: int, s: str) -> None:
        if side[idx] is not None:
            raise SideConflict(f"copoint {idx} pinned to both sides of {p}")
        side[idx] = s

    def block(lo: int, hi: int, cell, s: str):
        # prepend C_lo..C_hi (1-based, inclusive-exclusive on hi) keeping order
        for x in range(hi - 1, lo - 1, -1):
            assign(x, s)
            cell = (x, cell)
        return cell

    left = None
    right = (k, None)
    side[k] = "R"
    i = k
    l = k
    while l >= i:
        rl = reps[l - 1]
        w = dp[l - 1]
        sl = side[l]
        for j in range(i - 1, 0, -1):
            v = rows[reps[j - 1]][rl]
            if v == w:
                continue
            same = v < w
            if (same and sl == "L") or (not same and sl == "R"):
                assign(j, "L")
                left = (j, left)
                right = block(j + 1, i, right, "R")
                i = j
            else:
                assign(j, "R")
                right = (j, right)
                left = block(j + 1, i, left, "L")
                i = j
        l -= 1

    def to_list(cell) -> list[int]:
        out = []
        while cell is not None:
            out.append(cell[0])
            cell = cell[1]
        return out

    lefts = to_list(left)
    lefts.reverse()
    return (
        [copoints[t - 1] for t in lefts],
        i - 1,
        [copoints[t - 1] for t in to_list(right)],
    )


def admissible_hole(
    matrix: DissimilarityMatrix, delta: int, children: Sequence[PQTree]
) -> int:
    """Insertion slot for a new apex at uniform distance delta.

    Returns j such that inserting between children[j-1] and children[j]
    keeps the row monotone: everything from j rightward stays within
    delta of the far end, and the gap jumped spans at least delta.
    """
    rows = matrix.rows
    reps = [first_leaf(c) for c in children]
    last = reps[-1]
    for j in range(1, len(reps)):
        if rows[reps[j]][last] <= delta and rows[reps[j - 1]][reps[j]] >= delta:
            return j
    raise NoAdmissibleHole("no admissible gap along the spine")


def pq_tree2(matrix: DissimilarityMatrix, subset: Iterable[int]) -> PQTree:
    """PQ-tree of the subset, built from the copoints at its smallest point.

    Every node is built through ``pq.node``, so the tree comes out in
    normal form as it is assembled.  Each subproblem is a
    ``copoints_to_pq_tree`` generator on one explicit stack, so no depth
    of tree meets the recursion limit.
    """
    pts = sorted(subset)
    if not pts:
        raise core.SubsetTooSmall("need at least one point")
    stack = [copoints_to_pq_tree(matrix, *_split(matrix, pts))]
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


def _split(matrix: DissimilarityMatrix, pts: list[int]) -> tuple[int, list[list[int]]]:
    """(p, the copoints attached at p) for p the smallest of ``pts``."""
    return pts[0], [list(c) for c in refine.copoint_partition(matrix, pts[0], pts)[1:]]


def copoints_to_pq_tree(
    matrix: DissimilarityMatrix, p: int, copoints: Sequence[Sequence[int]]
) -> Generator[tuple[int, Sequence[Sequence[int]]], PQTree, PQTree]:
    """Assemble the PQ-tree of {p} ∪ copoints, in normal form.

    Yields each subproblem ``(p', copoints')`` whose tree it needs, is sent
    that tree, and returns its own.  Only ``pq_tree2`` drives it: ``yield
    from`` would nest the frames again.  A one-point copoint is a leaf.
    """
    k = len(copoints)
    if k == 0:
        return pq.Leaf(p)
    left, i, right = next_frontier(matrix, p, copoints)
    t_p = (yield p, copoints[:i]) if i > 0 else pq.Leaf(p)
    if i < k - 1:
        kids = []
        for c in (*left, *right):
            kids.append(pq.Leaf(c[0]) if len(c) == 1 else (yield _split(matrix, sorted(c))))
        kids.insert(len(left), t_p)
        return pq.node(matrix, pq.Q, kids)

    # Only C_k lies beyond the last frontier: hang p's tree off the
    # PQ-tree of C_k according to how far C_k spreads past delta.  The
    # two ends of a compatible order of C_k are a diametral pair; on
    # non-Robinson input a wrong diameter only changes the construction,
    # and the order check still refuses.
    ck = sorted(copoints[-1])
    alpha = pq.Leaf(ck[0]) if len(ck) == 1 else (yield _split(matrix, ck))
    rows = matrix.rows
    delta = rows[p][ck[0]]
    dia = rows[first_leaf(alpha)][last_leaf(alpha)]

    if isinstance(alpha, pq.Leaf):
        return pq.node(matrix, pq.P, (alpha, t_p))
    if isinstance(alpha, pq.P):
        if dia == delta:
            return pq.node(matrix, pq.P, (*alpha.children, t_p))
        if dia < delta:
            return pq.node(matrix, pq.P, (alpha, t_p))
        if len(alpha.children) == 2:
            b1, b2 = alpha.children
            return pq.node(matrix, pq.Q, (b1, t_p, b2))
        raise NotRobinson("wide P-node cannot absorb an attachment point")
    if dia <= delta:
        return pq.node(matrix, pq.P, (alpha, t_p))

    hit = pq.conical_apex(matrix, alpha.children)
    if hit is not None and hit[0] == delta:
        _, apex = hit
        apex_child = alpha.children[apex]
        apex_pts = leaf_points(apex_child)
        split = len(core.delta_graph_components(matrix, apex_pts, delta)) > 1
        kids = list(alpha.children)
        if split:
            if not isinstance(apex_child, pq.P):
                raise NotRobinson("split apex is not a P-node")
            kids[apex] = pq.node(matrix, pq.P, (*apex_child.children, t_p))
        else:
            kids[apex] = pq.node(matrix, pq.P, (apex_child, t_p))
        return pq.node(matrix, pq.Q, kids)

    j = admissible_hole(matrix, delta, alpha.children)
    kids = list(alpha.children)
    kids.insert(j, t_p)
    return pq.node(matrix, pq.Q, kids)


@dataclass(frozen=True)
class RecognitionResult:
    accepted: bool
    tree: PQTree | None = None
    witness: Order | None = None
    reason: str | None = None
    violation: tuple[int, int, int] | None = None


def recognize_robinson(matrix: DissimilarityMatrix) -> RecognitionResult:
    """Construct-then-verify wrapper; refusal is a value, never a lie.

    A returned witness always passes the order check.  On Robinson
    input construction cannot fail, so a refusal is trustworthy too.
    """
    core.validate(matrix)
    return recognize_validated(matrix)


def recognize_validated(matrix: DissimilarityMatrix) -> RecognitionResult:
    """``recognize_robinson`` on a matrix already known to pass
    ``core.validate`` (a parsed file), without checking it again."""
    try:
        tree = pq_tree2(matrix, range(matrix.n))
    except NotRobinson as exc:
        return RecognitionResult(False, reason=f"structural: {exc}")
    order = pq.canonical_order(tree)
    violation = core.violating_triple(matrix, order)
    if violation is None:
        return RecognitionResult(True, tree=tree, witness=order)
    return RecognitionResult(
        False, reason="constructed order fails verification", violation=violation
    )
