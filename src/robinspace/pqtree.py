"""PQ-trees over dissimilarity spaces.

A PQ-tree compactly represents the whole family of compatible orders of
a Robinson space: P-node children may be permuted arbitrarily, Q-node
children may only be read left-to-right or right-to-left.  Arity-2
internal nodes are always P (the two conventions agree there); Q-nodes
have arity at least 3.

Beyond the order bookkeeping (counting, enumeration, membership,
equivalence), this module classifies internal nodes by their boundary
weight: a Q-node is *conical* when one interior child sits at a single
distance from all the others, and that child is further a *split* node
when its own points fall apart at that distance.  The classification is
what lets the translation routines move between PQ-trees and mmodule
trees without touching the matrix more than O(1) times per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from typing import Iterable, Iterator, Union

from . import core
from .core import DissimilarityMatrix, NotRobinson, RobinsonError


class TooManyOrders(RobinsonError):
    def __init__(self, count: int, cap: int) -> None:
        super().__init__(f"tree represents {count} orders, cap is {cap}")
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class Leaf:
    point: int


@dataclass(frozen=True)
class P:
    children: tuple["PQTree", ...]


@dataclass(frozen=True)
class Q:
    children: tuple["PQTree", ...]


PQTree = Union[Leaf, P, Q]
Order = tuple[int, ...]


def pnode(*children: PQTree) -> P:
    return P(tuple(children))


def qnode(*children: PQTree) -> Q:
    return Q(tuple(children))


def leaf_points(tree: PQTree) -> list[int]:
    out: list[int] = []
    stack: list[PQTree] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            out.append(node.point)
        else:
            stack.extend(reversed(node.children))
    return out


def leaf_set(tree: PQTree) -> frozenset[int]:
    return frozenset(leaf_points(tree))


def iter_nodes(tree: PQTree) -> Iterator[PQTree]:
    stack: list[PQTree] = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, Leaf):
            stack.extend(reversed(node.children))


def canonical_order(tree: PQTree) -> Order:
    """Left-to-right leaf sequence of the tree as stored."""
    return tuple(leaf_points(tree))


def count_orders(tree: PQTree) -> int:
    total = 1
    for node in iter_nodes(tree):
        if isinstance(node, P):
            total *= factorial(len(node.children))
        elif isinstance(node, Q):
            total *= 2
    return total


def enumerate_orders(tree: PQTree, cap: int = 10_000) -> Iterator[Order]:
    """All represented orders, each exactly once.

    The count is checked against ``cap`` before anything is produced, so
    an oversized tree fails fast instead of mid-stream.
    """
    total = count_orders(tree)
    if total > cap:
        raise TooManyOrders(total, cap)
    return iter(_orders(tree))


def _orders(node: PQTree) -> list[Order]:
    if isinstance(node, Leaf):
        return [(node.point,)]
    per_child = [_orders(c) for c in node.children]
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


def represents_order(tree: PQTree, order: Iterable[int]) -> bool:
    """Top-down membership test: every node's leaves must occupy a
    contiguous stretch of the order, and Q-nodes must keep (or exactly
    reverse) their child sequence."""
    seq = tuple(order)
    pts = leaf_points(tree)
    if sorted(seq) != sorted(pts):
        return False
    pos = {p: i for i, p in enumerate(seq)}

    def span(node: PQTree) -> tuple[int, int, int] | None:
        if isinstance(node, Leaf):
            i = pos[node.point]
            return (i, i, 1)
        spans = []
        for child in node.children:
            s = span(child)
            if s is None:
                return None
            spans.append(s)
        lo = min(s[0] for s in spans)
        hi = max(s[1] for s in spans)
        size = sum(s[2] for s in spans)
        if hi - lo + 1 != size:
            return None
        if isinstance(node, Q):
            fwd = all(
                spans[t + 1][0] == spans[t][1] + 1 for t in range(len(spans) - 1)
            )
            bwd = fwd or all(
                spans[t][0] == spans[t + 1][1] + 1 for t in range(len(spans) - 1)
            )
            if not bwd:
                return None
        return (lo, hi, size)

    return span(tree) is not None


def normal_form(tree: PQTree) -> PQTree:
    """Canonical representative of the equivalence class of the tree.

    P children are sorted by smallest leaf; each Q is oriented so the
    sequence of child keys is lexicographically least.  Arity-1 nodes
    collapse and arity-2 Q becomes P, so mildly ill-formed inputs
    canonicalize instead of comparing unequal for cosmetic reasons.
    """
    if isinstance(tree, Leaf):
        return tree
    kids = [normal_form(c) for c in tree.children]
    if len(kids) == 1:
        return kids[0]
    keys = [min(leaf_points(c)) for c in kids]
    if isinstance(tree, P) or len(kids) == 2:
        paired = sorted(zip(keys, kids), key=lambda kc: kc[0])
        return P(tuple(c for _, c in paired))
    if tuple(keys) > tuple(reversed(keys)):
        kids.reverse()
    return Q(tuple(kids))


def equivalent(t1: PQTree, t2: PQTree) -> bool:
    """True iff the two trees represent exactly the same set of orders."""
    return normal_form(t1) == normal_form(t2)


@dataclass(frozen=True)
class NodeClassification:
    """Boundary-weight facts about one internal node.

    ``delta`` is the uniform cross-child distance for a P-node, or the
    apex distance for a conical Q-node (None for a non-conical Q).
    ``apex`` is the index of the conical child; ``split`` says whether
    that child's points disconnect at distance ``delta``.
    """

    delta: int | None
    apex: int | None
    split: bool


def _first_leaf(tree: PQTree) -> int:
    node = tree
    while not isinstance(node, Leaf):
        node = node.children[0]
    return node.point


def conical_apex(
    matrix: DissimilarityMatrix, children: tuple[PQTree, ...]
) -> tuple[int, int] | None:
    """Return (delta, apex index) for a conical Q-child sequence, else None.

    Only four distances per candidate are inspected; on the PQ-tree of
    a Robinson space this is equivalent to checking the apex against
    every sibling.  The first candidate that passes is the apex.
    """
    rows = matrix.rows
    reps = [_first_leaf(c) for c in children]
    k = len(reps)
    for i in range(1, k - 1):
        v = rows[reps[0]][reps[i]]
        if (
            v == rows[reps[i - 1]][reps[i]]
            and v == rows[reps[i]][reps[i + 1]]
            and v == rows[reps[i]][reps[k - 1]]
        ):
            return v, i
    return None


def classify(
    matrix: DissimilarityMatrix, tree: PQTree
) -> dict[PQTree, NodeClassification]:
    """Classification of every internal node, keyed by the node itself.

    Within one PQ-tree all subtrees are distinct (each point occurs
    once), so nodes are usable as dictionary keys.
    """
    out: dict[PQTree, NodeClassification] = {}
    rows = matrix.rows
    for node in iter_nodes(tree):
        if isinstance(node, Leaf):
            continue
        if isinstance(node, P):
            a = _first_leaf(node.children[0])
            b = _first_leaf(node.children[1])
            out[node] = NodeClassification(rows[a][b], None, False)
            continue
        hit = conical_apex(matrix, node.children)
        if hit is None:
            out[node] = NodeClassification(None, None, False)
            continue
        delta, apex = hit
        apex_pts = leaf_points(node.children[apex])
        split = len(core.delta_graph_components(matrix, apex_pts, delta)) > 1
        out[node] = NodeClassification(delta, apex, split)
    return out


def tree_delta_star(
    matrix: DissimilarityMatrix, tree: PQTree
) -> tuple[int | None, int | None]:
    """(top weight, apex index) read off the root in O(arity).

    P roots expose the top weight as their uniform cross distance; Q
    roots only when conical.  Leaves and non-conical Q roots give
    (None, None).
    """
    if isinstance(tree, Leaf):
        return (None, None)
    if isinstance(tree, P):
        a = _first_leaf(tree.children[0])
        b = _first_leaf(tree.children[1])
        return (matrix.rows[a][b], None)
    hit = conical_apex(matrix, tree.children)
    if hit is None:
        return (None, None)
    return hit


def normalize(matrix: DissimilarityMatrix, tree: PQTree) -> PQTree:
    """Canonical arities: no unary nodes, no arity-2 Q, and no P child
    sitting inside a P parent with the same cross-child distance.

    The last repair matters when ties make a construction emit nested
    P-nodes at one weight; the merged node represents the full set of
    orders the space admits.
    """
    if isinstance(tree, Leaf):
        return tree
    kids = [normalize(matrix, c) for c in tree.children]
    if len(kids) == 1:
        return kids[0]
    if isinstance(tree, Q) and len(kids) > 2:
        return Q(tuple(kids))
    rows = matrix.rows
    delta = rows[_first_leaf(kids[0])][_first_leaf(kids[1])]
    i = 0
    while i < len(kids):
        c = kids[i]
        if isinstance(c, P):
            inner = rows[_first_leaf(c.children[0])][_first_leaf(c.children[1])]
            if inner == delta:
                kids[i : i + 1] = list(c.children)
                continue
        i += 1
    return P(tuple(kids))


def delta_pq_tree(matrix: DissimilarityMatrix, subset: Iterable[int]) -> PQTree:
    """Construct the PQ-tree of a Robinson space by top-weight splits.

    Disconnected point sets (at the top weight) recurse on their
    components: a plain P-node when every component stays within the
    top weight, otherwise the lone wide component contributes a
    reversible spine and the rest are inserted into its unique
    admissible gap.  Connected sets reduce to the flat quotient by
    maximal mmodules, whose two opposite orders seed the root Q.
    """
    pts = sorted(subset)
    core.ensure_recursion_headroom(len(pts))
    return _delta_pq(matrix, pts)


def _delta_pq(matrix: DissimilarityMatrix, pts: list[int]) -> PQTree:
    if len(pts) == 1:
        return Leaf(pts[0])
    delta = core.delta_star(matrix, pts)
    comps = core.delta_graph_components(matrix, pts, delta)
    if len(comps) == 1:
        return _connected_pq(matrix, pts)
    large = None
    for idx, c in enumerate(comps):
        if len(c) > 1 and core.diameter_and_pair(matrix, c)[0] > delta:
            if large is not None:
                raise NotRobinson("two components exceed the top weight")
            large = idx
    if large is None:
        kids = tuple(_delta_pq(matrix, list(c)) for c in comps)
        return normalize(matrix, P(kids))
    spine_tree = _delta_pq(matrix, list(comps[large]))
    if isinstance(spine_tree, Q) or (
        isinstance(spine_tree, P) and len(spine_tree.children) == 2
    ):
        betas = list(spine_tree.children)
    else:
        raise NotRobinson("wide component has no reversible spine")
    extra = [
        _delta_pq(matrix, list(c)) for i, c in enumerate(comps) if i != large
    ]
    filler = extra[0] if len(extra) == 1 else P(tuple(extra))
    pos = gap_position(matrix.rows, betas, delta)
    return normalize(matrix, Q(tuple(betas[:pos] + [filler] + betas[pos:])))


def gap_position(rows: list[list[int]], betas: list[PQTree], delta: int) -> int:
    # Smallest insertion point with everything to the right within delta
    # of the far end and a jump of at least delta across the gap.
    reps = [_first_leaf(b) for b in betas]
    last = reps[-1]
    for pos in range(1, len(betas)):
        if rows[reps[pos]][last] <= delta and rows[reps[pos - 1]][reps[pos]] >= delta:
            return pos
    raise NotRobinson("no admissible gap along the spine")


def _connected_pq(matrix: DissimilarityMatrix, pts: list[int]) -> PQTree:
    from . import copoints  # deferred: copoints builds on this module's types
    from . import mmodtree

    mtree = mmodtree.mmodule_tree(matrix, pts)
    if not isinstance(mtree, mmodtree.Cup):
        raise NotRobinson("connected space whose maximal mmodules do not partition")
    classes = [sorted(mmodtree.leaf_points(c)) for c in mtree.children]
    flat = copoints.pq_tree2(core.quotient(matrix, classes), range(len(classes)))
    sigma = canonical_order(flat)
    kids = tuple(_delta_pq(matrix, classes[c]) for c in sigma)
    return normalize(matrix, Q(kids))
