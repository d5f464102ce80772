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
from .core import DissimilarityMatrix, NotRobinson, first_leaf, last_leaf
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
    now.  Every decision sides copoints below all those sided before,
    so L and R are read off the final sides in order.
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
            assign(j, sl if near else other)
            # the undecided run C_{j+1}..C_{i-1} takes the side opposite j
            for x in range(i - 1, j, -1):
                assign(x, other if near else sl)
            i = j
        l -= 1
    return (
        [copoints[t - 1] for t in range(k, i - 1, -1) if side[t] == "L"],
        i - 1,
        [copoints[t - 1] for t in range(i, k + 1) if side[t] == "R"],
    )


def admissible_hole(
    matrix: DissimilarityMatrix, delta: int, children: Sequence[PQTree]
) -> int:
    """Slot for a block at uniform distance delta in a Q-spine.

    ``children`` is the child sequence of a spine whose diameter exceeds
    ``delta``; the block goes between children[j-1] and children[j] for
    the j returned.  The last child still strictly farther than ``delta``
    from the final one bounds the search, and the first gap of at least
    ``delta`` after it is the slot.  Distances are taken between the
    facing ends of adjacent children.  The copoint construction, the
    translation of a special node and ``reference.delta_pq_tree`` all
    place their block here.
    """
    rows = matrix.rows
    firsts = [first_leaf(c) for c in children]
    lasts = [last_leaf(c) for c in children]
    far = [i for i in range(len(children) - 1) if rows[lasts[i]][firsts[-1]] > delta]
    if not far:
        raise NoAdmissibleHole("no spine child clears the reattachment weight")
    for i in range(far[-1], len(children) - 1):
        if rows[lasts[i]][firsts[i + 1]] >= delta:
            return i + 1
    raise NoAdmissibleHole("no wide enough gap after the far block")


def spine_children(spine: PQTree) -> tuple[PQTree, ...]:
    """Children of a tree read as a linear spine: a Q-node's, or either
    reading of a two-child P-node's; any other tree has none."""
    if isinstance(spine, pq.Q) or (isinstance(spine, pq.P) and len(spine.children) == 2):
        return spine.children
    raise NotRobinson("a wide subtree has no linear spine")


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
    # PQ-tree of C_k.  The two ends of a compatible order of C_k are a
    # diametral pair; on non-Robinson input a wrong diameter only changes
    # the construction, and the order check still refuses.
    ck = sorted(copoints[-1])
    alpha = pq.Leaf(ck[0]) if len(ck) == 1 else (yield _split(matrix, ck))
    delta = matrix.rows[p][ck[0]]
    if matrix.rows[first_leaf(alpha)][last_leaf(alpha)] <= delta:
        # ``node`` splices a P-node alpha whose children sit delta apart
        return pq.node(matrix, pq.P, (alpha, t_p))
    kids = list(spine_children(alpha))
    hit = pq.conical_apex(matrix, kids)
    if hit is not None and hit[0] == delta:
        # the apex points fall apart at delta exactly when the apex is a
        # P-node at delta, which ``node`` splices
        apex = hit[1]
        kids[apex] = pq.node(matrix, pq.P, (kids[apex], t_p))
    else:
        kids.insert(admissible_hole(matrix, delta, kids), t_p)
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
