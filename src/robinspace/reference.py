"""Reference constructions and cross-checks, kept beside the brute oracles.

The production path (copoints -> PQ-tree -> verified witness ->
translations) never calls into this module.  The tests hold the fast
constructions against these, which follow the paper's other routes:

* ``delta_pq_tree`` builds the PQ-tree by top-weight splits and maximal
  mmodules, independently of the copoint construction;
* ``represents_order`` tests membership of one order in a PQ-tree;
* ``classify`` and ``node_correspondence`` match the nodes of a PQ-tree
  and an mmodule tree one to one;
* ``frontiers``, ``upsilon_frontier_check`` and
  ``copoints_from_mmodule_tree`` relate copoints to tree nodes;
* ``rho_components`` and ``maximal_mmodules`` restate the components
  below the top weight and the maximal mmodules from their definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import copoints, core, dendrogram as dg, mmodtree as mm, pqtree as pq, refine
from .core import DissimilarityMatrix, Leaf, NotRobinson, RobinsonError
from .core import iter_nodes, leaf_points, leaf_set
from .pqtree import P, PQTree, Q


class CorrespondenceViolation(RobinsonError):
    pass


IndexSet = tuple[int, ...]


# --- PQ-tree by top-weight splits ---------------------------------------------


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
    # the top weight (largest edge of a minimum spanning tree) is the
    # weight of the dendrogram root
    delta = dg.build_dendrogram(matrix, pts).weight
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
        return pq.normalize(matrix, P(kids))
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
    pos = copoints.admissible_hole(matrix, delta, betas)
    return pq.normalize(matrix, Q(tuple(betas[:pos] + [filler] + betas[pos:])))


def _connected_pq(matrix: DissimilarityMatrix, pts: list[int]) -> PQTree:
    mtree = mm.mmodule_tree(matrix, pts)
    if not isinstance(mtree, mm.Cup):
        raise NotRobinson("connected space whose maximal mmodules do not partition")
    classes = [sorted(leaf_points(c)) for c in mtree.children]
    flat = copoints.pq_tree2(core.quotient(matrix, classes), range(len(classes)))
    sigma = pq.canonical_order(flat)
    kids = tuple(_delta_pq(matrix, classes[c]) for c in sigma)
    return pq.normalize(matrix, Q(kids))


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


# --- node classification and the PQ / mmodule correspondence -------------------


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


def classify(
    matrix: DissimilarityMatrix, tree: PQTree
) -> dict[PQTree, NodeClassification]:
    """Classification of every internal node, keyed by the node itself.

    Within one PQ-tree all subtrees are distinct (each point occurs
    once), so nodes are usable as dictionary keys.
    """
    out: dict[PQTree, NodeClassification] = {}
    for node in iter_nodes(tree):
        if isinstance(node, Leaf):
            continue
        delta, apex = pq.tree_delta_star(matrix, node)
        split = apex is not None and len(
            core.delta_graph_components(matrix, leaf_points(node.children[apex]), delta)
        ) > 1
        out[node] = NodeClassification(delta, apex, split)
    return out


@dataclass(frozen=True)
class CorrespondenceReport:
    """Outcome of matching the two trees node by node.

    Leaf sets appear as sorted tuples.  ``matched`` holds the internal
    groupings present in both trees; the two unmatched fields hold what
    each side keeps to itself — necessarily large children of special
    nodes and split apex children, in that order.
    """

    matched: tuple[tuple[int, ...], ...]
    unmatched_mmodule: tuple[tuple[int, ...], ...]
    unmatched_pq: tuple[tuple[int, ...], ...]


def node_correspondence(
    matrix: DissimilarityMatrix, pqt: PQTree, mt: mm.MModuleTree
) -> CorrespondenceReport:
    """Check the node-to-node bijection between the two trees.

    Every grouping named by both trees must agree on its kind (plain
    copartition with P, union with non-conical Q, special copartition
    with conical Q).  A grouping private to the mmodule tree must be
    the large child of a special node, and one private to the PQ-tree
    must be a split apex child; anything else raises
    ``CorrespondenceViolation``.
    """
    if leaf_set(pqt) != leaf_set(mt):
        raise CorrespondenceViolation("trees cover different point sets")

    pq_kind: dict[tuple[int, ...], str] = {}
    split_sets: set[tuple[int, ...]] = set()
    for node, facts in classify(matrix, pqt).items():
        key = tuple(sorted(leaf_points(node)))
        if isinstance(node, P):
            pq_kind[key] = "plain copartition / P"
        elif facts.delta is None:
            pq_kind[key] = "union / non-conical Q"
        else:
            pq_kind[key] = "special copartition / conical Q"
            if facts.split:
                split_sets.add(tuple(sorted(leaf_points(node.children[facts.apex]))))

    mm_kind: dict[tuple[int, ...], str] = {}
    large_sets: set[tuple[int, ...]] = set()
    for node in iter_nodes(mt):
        if isinstance(node, Leaf):
            continue
        key = tuple(sorted(leaf_points(node)))
        if isinstance(node, mm.Cup):
            mm_kind[key] = "union / non-conical Q"
        elif node.special is None:
            mm_kind[key] = "plain copartition / P"
        else:
            mm_kind[key] = "special copartition / conical Q"
            large_sets.add(tuple(sorted(leaf_points(node.children[node.large_child]))))

    matched = sorted(set(pq_kind) & set(mm_kind))
    for key in matched:
        if pq_kind[key] != mm_kind[key]:
            raise CorrespondenceViolation(
                f"grouping {key} is a {mm_kind[key]} node on one side"
                f" and a {pq_kind[key]} node on the other"
            )
    spare_mm = set(mm_kind) - set(pq_kind)
    # large children sit around an interior apex, so they are never blocks
    if spare_mm != {s for s in large_sets if len(s) > 1}:
        off = spare_mm.symmetric_difference(large_sets)
        raise CorrespondenceViolation(
            f"mmodule-side mismatch is not explained by large children: {sorted(off)}"
        )
    spare_pq = set(pq_kind) - set(mm_kind)
    if spare_pq != split_sets:
        off = spare_pq.symmetric_difference(split_sets)
        raise CorrespondenceViolation(
            f"pq-side mismatch is not explained by split apex children: {sorted(off)}"
        )
    return CorrespondenceReport(
        tuple(matched), tuple(sorted(spare_mm)), tuple(sorted(spare_pq))
    )


# --- copoints, frontiers and tree nodes -----------------------------------------


def frontiers(matrix: DissimilarityMatrix, classes: Sequence[Sequence[int]]) -> list[bool]:
    """Flag the copoints whose initial segment [{p}, .., Ci] is an mmodule.

    ``classes`` is the copoint partition at p from
    ``refine.copoint_partition``: [(p,), C1, ..., Ck], nearest first.
    Quadratic marking: each copoint only needs its nearest predecessor
    that sees it at the same distance as p does; everything strictly
    between is witnessed apart.
    """
    rows = matrix.rows
    reps = [c[0] for c in classes]
    p = reps[0]
    k = len(classes) - 1
    marked = [False] * (k + 1)
    for jp in range(1, k + 1):
        r = reps[jp]
        want = rows[p][r]
        j = max(h for h in range(jp) if rows[reps[h]][r] == want)
        for h in range(j + 1, jp):
            marked[h] = True
    return [not marked[h] for h in range(1, k + 1)]


@dataclass(frozen=True)
class UpsilonReport:
    p: int
    matched: tuple[tuple[int, ...], ...]


def upsilon_frontier_check(
    matrix: DissimilarityMatrix, tree: PQTree, p: int
) -> UpsilonReport:
    """Cross-check the path above p against the frontier copoints.

    The standard (non-split) internal nodes containing p must carry
    exactly the initial copoint segments that are both flagged as
    frontiers and realized as node sets of the tree.
    """
    path = _path_to(tree, p)
    split_children = set()
    for n_, info in classify(matrix, tree).items():
        if info.apex is not None and info.split:
            split_children.add(n_.children[info.apex])
    standard = {
        leaf_set(n_)
        for n_ in path
        if not isinstance(n_, Leaf) and n_ not in split_children
    }

    classes = refine.copoint_partition(matrix, p, leaf_points(tree))
    flags = frontiers(matrix, classes)
    node_sets = {leaf_set(n_) for n_ in iter_nodes(tree)}
    run = set(classes[0])
    fronts = set()
    for idx, c in enumerate(classes[1:]):
        run |= set(c)
        if flags[idx] and frozenset(run) in node_sets:
            fronts.add(frozenset(run))

    if standard != fronts:
        raise CorrespondenceViolation(
            f"at {p}: standard path sets {sorted(map(sorted, standard))} "
            f"vs frontier segments {sorted(map(sorted, fronts))}"
        )
    return UpsilonReport(
        p, tuple(sorted((tuple(sorted(s)) for s in standard), key=lambda t: (len(t), t)))
    )


def copoints_from_mmodule_tree(tree: mm.MModuleTree, p: int) -> list[IndexSet]:
    """Read the copoints at p off the mmodule tree.

    Walking from the root toward p: a Cup node contributes each
    off-path child as one copoint; a Cap node contributes all its
    off-path children fused into a single copoint.
    """
    out: list[IndexSet] = []
    path = _path_to(tree, p)
    for node, down in zip(path, path[1:]):
        rest = [c for c in node.children if c is not down]
        if isinstance(node, mm.Cup):
            out.extend(tuple(sorted(leaf_points(c))) for c in rest)
        else:
            fused = sorted(x for c in rest for x in leaf_points(c))
            out.append(tuple(fused))
    return out


def _path_to(tree, p: int) -> list:
    """The nodes from the root down to the leaf of p."""
    if p not in leaf_set(tree):
        raise ValueError(f"point {p} is not a leaf of the tree")
    path = [tree]
    while not isinstance(path[-1], Leaf):
        path.append(next(c for c in path[-1].children if p in leaf_set(c)))
    return path


# --- components and maximal mmodules ---------------------------------------------


def rho_components(matrix: DissimilarityMatrix, subset: Iterable[int]) -> list[tuple[int, ...]]:
    """Components of the strictly-below-delta-star graph on ``subset``.

    Delta star, the largest edge of a minimum spanning tree, is read off
    the dendrogram root; the components come from a search over the
    threshold graph, not from the dendrogram's children.
    """
    pts = sorted(subset)
    if len(pts) == 1:
        return [tuple(pts)]
    rho = dg.build_dendrogram(matrix, pts).weight
    return core.components_below(matrix, pts, rho)


def maximal_mmodules(
    matrix: DissimilarityMatrix, subset: Iterable[int]
) -> list[tuple[int, ...]]:
    """Maximal proper mmodules of the subset, sorted lexicographically.

    Children of a ``Cup`` root partition the set into its maximal
    mmodules; under a ``Cap`` root they are instead the complements of
    the children's leaf sets.
    """
    pts = sorted(subset)
    if len(pts) < 2:
        raise core.SubsetTooSmall(f"need at least 2 points, got {len(pts)}")
    tree = mm.mmodule_tree(matrix, pts)
    if isinstance(tree, mm.Cup):
        tops = [tuple(sorted(leaf_points(c))) for c in tree.children]
    else:
        whole = set(pts)
        tops = [tuple(sorted(whole - leaf_set(c))) for c in tree.children]
    return sorted(tops)
