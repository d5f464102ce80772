"""Reference constructions and cross-checks, kept beside the brute oracles.

The production path (copoints -> PQ-tree -> verified witness ->
translations) never calls into this module.  The tests hold the fast
constructions against these, which follow the paper's other routes:

* ``delta_pq_tree`` builds the PQ-tree by top-weight splits and maximal
  mmodules, independently of the copoint construction;
* ``mmodule_tree_from_dendrogram`` builds the mmodule tree by carving
  maximal mmodules out of the single-linkage dendrogram, independently
  of the PQ-tree that ``mmodtree.mmodule_tree`` translates;
* ``represents_order`` tests membership of one order in a PQ-tree;
* ``classify`` and ``node_correspondence`` match the nodes of a PQ-tree
  and an mmodule tree one to one;
* ``frontiers``, ``upsilon_frontier_check`` and
  ``copoints_from_mmodule_tree`` relate copoints to tree nodes;
* ``is_mmodule`` and ``quotient`` test an mmodule and build the quotient
  over a partition into mmodules from their definitions, and
  ``is_mmodule_via_tree`` answers the mmodule query from the mmodule tree
  alone;
* ``delta_graph_components`` and ``components_below`` are quadratic BFS
  components (pairs at distance other than delta, or below a bound),
  which ``delta_pq_tree`` and ``classify`` read;
* ``rho_components`` and ``maximal_mmodules`` restate the components
  below the top weight and the maximal mmodules from their definitions,
  over ``components_below``; ``diameter_and_pair`` scans a subset for its
  diameter, and ``stable_partition`` is the point-class form of
  ``refine.stable_trees``, on the same engine;
* ``violating_triple_loop`` is the order check as a plain index loop,
  ``core.violating_triple``'s differential reference, and
  ``first_defect_loop`` is ``core.validate``'s walk over the rows as one;
* ``prim_dendrogram_loop`` is the single-linkage sweep as a plain index
  loop, and ``witness_dendrogram`` reads the dendrogram off a compatible
  order in linear time, a cross-check at sizes the oracles cannot reach;
  ``subdominant_distance`` and ``clusters`` read the subdominant
  ultrametric and the clusters off a dendrogram;
* ``parse_matrix_all_tokens`` parses a matrix file through one table
  built over every token at once, the streamed ``formats.parse_matrix``'s
  differential reference, and ``serialize_matrix`` is the file
  ``formats.matrix_lines`` streams, as one string;
* ``generate_matrix_reference`` is the seeded generator as it stood
  before its random draws were inlined, one library call per draw and two
  stores per ultrametric pair: ``generator.generate_matrix`` must give the
  same rows, shared the same way;
* ``leaf_set`` is a tree's points as a frozenset.

The recursive constructions here run under ``_recursion_room``, which
restores the recursion limit on exit; nothing here reaches the command
line's ``robinspace.cli``.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, Iterable, Iterator, Sequence

from robinspace import copoints, core, dendrogram as dg, mmodtree as mm, pqtree as pq, refine
from robinspace.core import DissimilarityMatrix, Leaf, NotRobinson, RobinsonError
from robinspace.core import first_leaf, fold, iter_nodes, leaf_points
from robinspace.formats import MatrixParseError, _scan_weight, matrix_lines
from robinspace.generator import PROFILES
from robinspace.pqtree import P, PQTree, Q
from robinspace.refine import stable_trees

# Self-audits in ``mmodule_tree_from_dendrogram`` (re-deriving the
# component partition below the top weight, re-checking the diameters of
# uniform components).  Off by default, since they re-derive what the
# construction just computed.  Audits only assert: they never change a
# return value or which exception is raised (tests/test_debug_checks.py
# runs the tree tests with them on).
debug_checks = False


class CorrespondenceViolation(RobinsonError):
    pass


class NotAnMModulePartition(RobinsonError):
    """A quotient was requested over a class that is not an mmodule.

    The witness (z, x, y) has x, y in one class and d(z,x) != d(z,y).
    """

    def __init__(self, z: int, x: int, y: int) -> None:
        super().__init__(f"point {z} separates {x} and {y}")
        self.witness = (z, x, y)


class NotALeaf(RobinsonError):
    def __init__(self, point: int) -> None:
        super().__init__(f"point {point} is not a leaf of this tree")
        self.point = point


IndexSet = tuple[int, ...]


def leaf_set(tree) -> frozenset[int]:
    return frozenset(leaf_points(tree))


@contextmanager
def _recursion_room(levels: int) -> Iterator[None]:
    """The recursion limit raised by ``levels`` inside the block and
    restored on exit, for the recursive constructions here."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + levels)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


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
    with _recursion_room(4 * len(pts) + 1000):  # recursive, unlike production
        return _delta_pq(matrix, pts)


def _delta_pq(matrix: DissimilarityMatrix, pts: list[int]) -> PQTree:
    if len(pts) == 1:
        return Leaf(pts[0])
    # the top weight (largest edge of a minimum spanning tree) is the
    # weight of the dendrogram root
    delta = dg.build_dendrogram(matrix, pts).weight
    comps = delta_graph_components(matrix, pts, delta)
    if len(comps) == 1:
        return _connected_pq(matrix, pts)
    large = None
    for idx, c in enumerate(comps):
        if len(c) > 1 and diameter_and_pair(matrix, c)[0] > delta:
            if large is not None:
                raise NotRobinson("two components exceed the top weight")
            large = idx
    if large is None:
        kids = tuple(_delta_pq(matrix, list(c)) for c in comps)
        return pq.normalize(matrix, P(kids))
    betas = copoints.spine_children(_delta_pq(matrix, list(comps[large])))
    pos = None if betas is None else copoints.admissible_hole(matrix, delta, betas)
    if pos is None:
        # ``betas[:None]`` would slice the whole spine and build a wrong tree
        raise NotRobinson("the component above the top weight has no spine with a slot at it")
    extra = [
        _delta_pq(matrix, list(c)) for i, c in enumerate(comps) if i != large
    ]
    filler = extra[0] if len(extra) == 1 else P(tuple(extra))
    return pq.normalize(matrix, Q((*betas[:pos], filler, *betas[pos:])))


def _connected_pq(matrix: DissimilarityMatrix, pts: list[int]) -> PQTree:
    mtree = mmodule_tree_from_dendrogram(matrix, pts)
    if not isinstance(mtree, mm.Cup):
        raise NotRobinson("connected space whose maximal mmodules do not partition")
    classes = [sorted(leaf_points(c)) for c in mtree.children]
    flat = copoints.pq_tree2(quotient(matrix, classes), range(len(classes)))
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


# --- mmodule tree from the dendrogram -------------------------------------------


def mmodule_tree_from_dendrogram(
    matrix: DissimilarityMatrix, subset: Iterable[int]
) -> mm.MModuleTree:
    """Build the mmodule tree by carving the single-linkage dendrogram.

    The children of the dendrogram root are exactly the components of
    the strict-threshold graph at the top weight, and repeated tree
    refinement (``refine.stable_trees``) splits them into maximal
    mmodules.  Reusing subtrees of the dendrogram instead of rebuilding
    it keeps the construction quadratic.  ``mmodtree.mmodule_tree``
    translates the PQ-tree instead; the two are equal under a canonical
    form, not in child order.  On structural contradictions that a
    Robinson space cannot exhibit the construction raises ``NotRobinson``.
    """
    pts = sorted(subset)
    with _recursion_room(4 * len(pts) + 1000):  # recursive, unlike production
        return _from_dendrogram(matrix, dg.build_dendrogram(matrix, pts))


def _from_dendrogram(matrix: DissimilarityMatrix, dtree: dg.Tree) -> mm.MModuleTree:
    if isinstance(dtree, Leaf):
        return dtree
    rho = dtree.weight
    comp_trees = list(dtree.children)
    comps = [leaf_points(t) for t in comp_trees]
    if debug_checks:
        pts = sorted(p for c in comps for p in c)
        assert sorted(tuple(sorted(c)) for c in comps) == sorted(
            components_below(matrix, pts, rho)
        )

    # Distances between distinct components are >= rho by construction;
    # a component with no cross pair above rho is seen at exactly rho by
    # every outside point, i.e. it is an mmodule with uniform boundary.
    k = len(comps)
    hot = [[False] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if _pair_above(matrix.rows, comps[i], comps[j], rho):
                hot[i][j] = hot[j][i] = True
    uniform = [i for i in range(k) if not any(hot[i])]
    mixed = [i for i in range(k) if any(hot[i])]

    if not mixed:
        if debug_checks:
            assert all(
                len(c) == 1 or diameter_and_pair(matrix, c)[0] <= rho
                for c in comps
            )
        return mm.Cap(tuple(_from_dendrogram(matrix, t) for t in comp_trees))
    if not uniform:
        return _connected(matrix, comp_trees, comps, rho)
    return _one_sided(matrix, comp_trees, rho, uniform, mixed, hot)


def _pair_above(rows: list[list[int]], a: list[int], b: list[int], rho: int) -> bool:
    for x in a:
        rx = rows[x]
        for y in b:
            if rx[y] > rho:
                return True
    return False


def _connected(
    matrix: DissimilarityMatrix,
    comp_trees: list[dg.Tree],
    comps: list[list[int]],
    rho: int,
) -> mm.MModuleTree:
    rows = matrix.rows
    first = min(range(len(comps)), key=lambda i: (len(comps[i]), min(comps[i])))
    rest = [t for i, t in enumerate(comp_trees) if i != first]
    rest_tree = rest[0] if len(rest) == 1 else dg.Internal(rho, rest)
    forest = stable_trees(matrix, [comp_trees[first], rest_tree])
    ell = len(forest)
    if ell < 3:
        raise NotRobinson(
            "connected space split into fewer than three maximal mmodules"
        )
    # Any member represents its class: classes are pairwise mmodules, so
    # cross distances do not depend on the chosen points.
    reps = [first_leaf(t) for t in forest]
    partner = None
    for t in range(1, ell):
        if rows[reps[0]][reps[t]] == rho and all(
            rows[reps[0]][reps[h]] == rows[reps[t]][reps[h]]
            for h in range(1, ell)
            if h != t
        ):
            partner = t
            break
    if partner is None:
        return mm.Cup(tuple(_from_dendrogram(matrix, t) for t in forest))

    # forest[0] together with its partner forms one maximal mmodule that
    # the component split cut in half; the other classes stand alone.
    if ell < 4:
        raise NotRobinson(
            "connected space split into fewer than three maximal mmodules"
        )
    if debug_checks:
        assert sorted(leaf_points(forest[0])) == sorted(comps[first])
    merged = _adjoin(forest[0], forest[partner], rho)
    kids = [_from_dendrogram(matrix, merged)]
    kids.extend(
        _from_dendrogram(matrix, forest[h]) for h in range(1, ell) if h != partner
    )
    return mm.Cup(tuple(kids))


def _adjoin(small: dg.Tree, big: dg.Tree, rho: int) -> dg.Tree:
    # Valid because the two classes live in distinct components at this
    # level: their subdominant distance is exactly rho.
    if isinstance(big, dg.Internal) and big.weight == rho:
        return dg.Internal(rho, [*big.children, small])
    return dg.Internal(rho, [small, big])


def _one_sided(
    matrix: DissimilarityMatrix,
    comp_trees: list[dg.Tree],
    rho: int,
    uniform: list[int],
    mixed: list[int],
    hot: list[list[bool]],
) -> mm.MModuleTree:
    # Components with a cross pair above rho form a graph (edges = such
    # pairs) that is connected and bipartite for Robinson inputs; its
    # two sides, refined against each other, are the pieces of the lone
    # non-uniform maximal mmodule.
    color = {mixed[0]: 0}
    queue = deque([mixed[0]])
    while queue:
        i = queue.popleft()
        for j in mixed:
            if not hot[i][j]:
                continue
            if j not in color:
                color[j] = color[i] ^ 1
                queue.append(j)
            elif color[j] == color[i]:
                raise NotRobinson("odd cycle among components above the top weight")
    if len(color) < len(mixed):
        raise NotRobinson("components above the top weight do not interleave")

    side_a = _glue([comp_trees[i] for i in mixed if color[i] == 0], rho)
    side_b = _glue([comp_trees[i] for i in mixed if color[i] == 1], rho)
    forest = stable_trees(matrix, [side_a, side_b])
    betas = [_from_dendrogram(matrix, comp_trees[j]) for j in uniform]
    inner_kids = tuple(_from_dendrogram(matrix, t) for t in forest)
    inner: mm.MModuleTree = (
        mm.Cap(inner_kids) if len(forest) == 2 else mm.Cup(inner_kids)
    )
    return mm.Cap((*betas, inner), special=rho, large_child=len(betas))


def _glue(trees: list[dg.Tree], rho: int) -> dg.Tree:
    return trees[0] if len(trees) == 1 else dg.Internal(rho, trees)




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
        if isinstance(node, P):
            kids = node.children
            delta, apex = matrix.rows[first_leaf(kids[0])][first_leaf(kids[1])], None
        else:
            delta, apex = pq.conical_apex(matrix, node.children) or (None, None)
        split = apex is not None and len(
            delta_graph_components(matrix, leaf_points(node.children[apex]), delta)
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


# --- mmodules and quotients from their definitions ---------------------------------


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


def is_mmodule_via_tree(tree: mm.MModuleTree, candidate: Iterable[int]) -> bool:
    """Answer an mmodule query from the tree alone, no matrix needed.

    True exactly for: the empty set, singletons, the whole set, and —
    at the deepest node whose leaf set contains the candidate — the
    node's own leaf set or a union of a proper subset of a Cap node's
    children.  One fold counts each subtree's leaves and candidate
    points; the first node it finishes that holds them all is the deepest.
    """
    cand = frozenset(candidate)
    k = len(cand)
    deepest: list[bool] = []  # the verdict at the deepest node

    def count(node, kids: list[tuple[int, int]]) -> tuple[int, int]:
        if isinstance(node, Leaf):
            return 1, int(node.point in cand)
        size, hits = map(sum, zip(*kids))
        if hits == k and not deepest:
            deepest.append(size == k or isinstance(node, mm.Cap) and all(h in (0, s) for s, h in kids))
        return size, hits

    if fold(tree, count)[1] < k:
        raise ValueError("candidate contains points outside the tree")
    return k <= 1 or deepest[0]


# --- components, diameters, stable partitions and maximal mmodules ----------------


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


def components_below(
    matrix: DissimilarityMatrix, subset: Iterable[int], bound: int
) -> list[tuple[int, ...]]:
    """Connected components of the graph whose edges are pairs at distance < bound."""
    return _components(matrix.rows, sorted(subset), lambda v: v < bound)


def diameter_and_pair(
    matrix: DissimilarityMatrix, subset: Iterable[int]
) -> tuple[int, int, int]:
    """Largest distance on subset with its lexicographically least witness pair."""
    pts = sorted(subset)
    if len(pts) < 2:
        raise core.SubsetTooSmall("diameter needs at least two points")
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


def stable_partition(
    matrix: DissimilarityMatrix, partition: Sequence[Sequence[int]]
) -> list[tuple[int, ...]]:
    """Refine the initial classes to the maximal mmodules they contain.

    Each class is refined by every point outside it until no pivot splits
    anything; when a class splits, its sibling parts join the front of the
    pivot queue before the leftover pivots.  The engine is
    ``refine._refine``, laid out by ``ascending_split``; its tree-carved
    form is ``refine.stable_trees``.
    """
    classes = [list(c) for c in partition]
    refine._check_partition(classes)
    rows = matrix.rows
    final = refine._refine(rows, [(c, c) for c in classes], [], ascending_split(rows))
    return [tuple(c) for c in final]


def ascending_split(rows: Sequence[Sequence[int]]) -> refine.Split:
    """Parts of a point class by increasing distance to the pivot."""

    def split(_payload, pts: list[int], q: int, _earlier: set[int]):
        buckets = refine._buckets(rows[q], pts)
        return [(buckets[w], buckets[w]) for w in sorted(buckets)]

    return split


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
    return components_below(matrix, pts, rho)


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
    tree = mmodule_tree_from_dendrogram(matrix, pts)
    if isinstance(tree, mm.Cup):
        tops = [tuple(sorted(leaf_points(c))) for c in tree.children]
    else:
        whole = set(pts)
        tops = [tuple(sorted(whole - leaf_set(c))) for c in tree.children]
    return sorted(tops)


# --- the order check as a plain index loop ------------------------------------------


def violating_triple_loop(
    matrix: DissimilarityMatrix, order: Sequence[int]
) -> tuple[int, int, int] | None:
    """``core.violating_triple`` as the index loop over every entry.

    Each entry is checked against its two inner neighbours, in order of
    the row's position and then the column's, and the first failure
    names the triple; ``core.violating_triple`` finds the same first
    failure by C scans of the rows that fail.
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


def first_defect_loop(rows: Sequence[Sequence[int]]) -> tuple | None:
    """The first defect ``core.validate`` names, by the index loop over the
    rows: ``("diagonal", i)``, ``("asymmetric", (i, j))`` or None."""
    n = len(rows)
    for i in range(n):
        if rows[i][i] != 0:
            return ("diagonal", i)
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                return ("asymmetric", (i, j))
    return None


# --- dendrograms by other routes -------------------------------------------------


def prim_dendrogram_loop(matrix: DissimilarityMatrix, subset: Iterable[int]) -> dg.Tree:
    """``build_dendrogram`` as a plain index loop over all k points per step.

    The same Prim visiting order (first minimum, so ties go to the smaller
    index) and the same insertions, so the trees are equal under ``==``.
    """
    pts = sorted(subset)
    if not pts:
        raise core.SubsetTooSmall("cannot build a dendrogram on no points")
    if len(pts) == 1:
        return Leaf(pts[0])
    rows = matrix.rows
    k = len(pts)
    row0 = rows[pts[0]]
    dist = [row0[x] for x in pts]
    visited = [False] * k
    visited[0] = True
    tree: dg.Tree = Leaf(pts[0])
    for _ in range(k - 1):
        best = -1
        best_d = None
        for i in range(k):
            if not visited[i] and (best_d is None or dist[i] < best_d):
                best_d = dist[i]
                best = i
        visited[best] = True
        tree = dg._insert(pts[best], best_d, tree)
        ru = rows[pts[best]]
        for i in range(k):
            if not visited[i]:
                v = ru[pts[i]]
                if v < dist[i]:
                    dist[i] = v
    return tree


def witness_dendrogram(matrix: DissimilarityMatrix, order: Sequence[int]) -> dg.Tree:
    """Single-linkage dendrogram read off a compatible order in O(n).

    On a Robinson space the path along a compatible order is a minimum
    spanning tree (d(l, l+1) <= d(i, l+1) <= d(i, k) for i <= l < k), so
    the Cartesian tree of its n-1 adjacent weights, with equal adjacent
    weights merged into one node, has the clusters of the dendrogram.
    Built with a stack of open nodes, weights decreasing toward the top.
    """
    rows = matrix.rows
    current: dg.Tree = Leaf(order[0])
    stack: list[dg.Internal] = []
    for a, b in zip(order, order[1:]):
        w = rows[a][b]
        while stack and stack[-1].weight < w:
            stack[-1].children.append(current)
            current = stack.pop()
        if stack and stack[-1].weight == w:
            stack[-1].children.append(current)
        else:
            stack.append(dg.Internal(w, [current]))
        current = Leaf(b)
    while stack:
        stack[-1].children.append(current)
        current = stack.pop()
    return current


def subdominant_distance(tree: dg.Tree, x: int, y: int) -> int:
    """Weight of the lowest common ancestor of leaves x and y (0 if x == y)."""

    def meet(node, kids: list[tuple]) -> tuple:
        # (holds x, holds y, weight of the lowest node that holds both)
        if isinstance(node, Leaf):
            return node.point == x, node.point == y, None
        hx = any(k[0] for k in kids)
        hy = any(k[1] for k in kids)
        low = next((k[2] for k in kids if k[2] is not None), None)
        return hx, hy, node.weight if low is None and hx and hy else low

    hx, hy, weight = fold(tree, meet)
    if not hx:
        raise NotALeaf(x)
    if not hy:
        raise NotALeaf(y)
    return 0 if x == y else weight


def clusters(tree: dg.Tree) -> set[tuple[tuple[int, ...], int]]:
    """All (sorted leaf set, weight) pairs of the dendrogram's internal nodes."""
    out = set()
    for node in iter_nodes(tree):
        if isinstance(node, dg.Internal):
            out.add((tuple(sorted(leaf_points(node))), node.weight))
    return out


# --- matrix files, every token held at once ------------------------------------------


def serialize_matrix(matrix: DissimilarityMatrix) -> str:
    """The matrix file ``formats.matrix_lines`` streams, as one string."""
    return "".join(matrix_lines(matrix))


def parse_matrix_all_tokens(text: str) -> DissimilarityMatrix:
    """``formats.parse_matrix`` as one table built over every token of the file.

    All token strings stay alive until the rows are built, and the
    triangle grid is validated like a square file.  Same rows, scale and
    errors as the streamed parse.
    """
    lines: list[tuple[int, list[str]]] = []
    for ln, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line.split("#", 1)[0]
        if "," in line:
            line = line.replace(",", " ")
        tokens = line.split()
        if tokens:
            lines.append((ln, tokens))
    if not lines:
        raise MatrixParseError(1, 1, "no matrix entries found")

    # distinct tokens in first-seen order: the first bad one is the first in
    # reading order.  Values overwrite the placeholders in place.
    table: dict[str, Any] = dict.fromkeys(
        chain.from_iterable(tokens for _, tokens in lines)
    )
    scale = 10 ** max(len(token.partition(".")[2].rstrip("0")) for token in table)
    shared: dict[int, int] = {}
    try:
        for token in table:
            value, places = _scan_weight(token)
            value = value * scale // 10**places  # exact: dropped places are 0
            table[token] = shared.setdefault(value, value)
    except ValueError as exc:
        ln, tokens = next((ln, tokens) for ln, tokens in lines if token in tokens)
        raise MatrixParseError(ln, tokens.index(token) + 1, str(exc)) from None
    del shared

    rows = [list(map(table.__getitem__, tokens)) for _, tokens in lines]
    r = len(rows)
    sizes = [len(row) for row in rows]
    square = sizes == [r] * r
    if not square and sizes != list(range(r, 0, -1)):
        ln = lines[min(range(r), key=lambda i: sizes[i] == sizes[0])][0]
        raise MatrixParseError(
            ln, 1, f"row lengths {sizes} fit neither a square nor an upper triangle"
        )
    del lines, table
    if not square:
        n = r + 1
        grid = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            grid[i][i + 1 :] = row
        # zip reads columns lazily; column j takes only rows above j, whose
        # entries right of their diagonal are never overwritten
        for j, column in enumerate(zip(*grid)):
            grid[j][:j] = column[:j]
        rows = grid

    matrix = DissimilarityMatrix(rows, scale)
    core.validate(matrix)
    return matrix


# --- the generator before its draws were inlined ---------------------------------------


def generate_matrix_reference(n: int, seed: int, profile: str) -> DissimilarityMatrix:
    """Seeded random Robinson matrix; see the profile table in the README.

    The same (n, seed, profile) gives the same matrix, so the same bytes
    from ``formats.matrix_lines``; ``test_cli`` pins their sha256
    digests.  Each distinct weight is one int object, shared by every
    entry that holds it.
    One grid is alive at a time: the output rows are gathered base point by
    base point from the m x m staircase, and each staircase row is dropped
    as soon as its copies exist, so the peak stays near the size of the
    result.  Rows are tuples, and the copies of one base point share one
    row object: the cyclic collector skips a tuple of ints, and twins
    compare by identity.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}: expected one of {', '.join(PROFILES)}")
    if n == 1:  # nothing to draw; and an itemgetter of one index returns no tuple
        return DissimilarityMatrix([(0,)], 1)
    rng = random.Random(f"{seed}:{profile}:{n}")
    if profile == "ultrametric":
        return _reference_ultrametric(n, rng)
    dup_rate = {"generic": 0.1, "flat-heavy": 0.0, "tie-heavy": 0.35}[profile]
    m = max(1, n - sum(rng.random() < dup_rate for _ in range(n - 1)))
    multiplicity = [1] * m
    for _ in range(n - m):
        multiplicity[rng.randrange(m)] += 1
    base = _reference_staircase(m, rng, profile)
    # duplicated points stay adjacent, so the identity order remains compatible
    spread = [i for i, k in enumerate(multiplicity) for _ in range(k)]
    perm = list(range(n))
    rng.shuffle(perm)
    index = [spread[p] for p in perm]  # the base point of each output point
    gather = itemgetter(*index)
    copies: list[list[int]] = [[] for _ in range(m)]  # the output points of each base point
    for i, b in enumerate(index):
        copies[b].append(i)
    rows: list = [None] * n
    # in base order, so the freed staircase rows lie side by side and the
    # allocator reuses their runs for the output rows; every copy of base
    # point b is the one tuple the gather built
    for b, points in enumerate(copies):
        entries = gather(base[b])
        base[b] = None
        for i in points:
            rows[i] = entries
    return DissimilarityMatrix(rows, 1)


def _reference_staircase(m: int, rng: random.Random, profile: str) -> list[list[int]]:
    """Symmetric m x m grid grown outward from the diagonal, column by
    column, so each entry dominates its inner pair; each distinct weight
    is one int object.  A ranged bump calls ``randint``'s own draw,
    ``_randbelow``, directly: ``randint(1, k)`` is ``1 + _randbelow(k)``, so
    the stream is the same, at one call per draw instead of three."""
    random_, randbelow = rng.random, rng._randbelow
    if profile == "flat-heavy":
        bump = lambda: 2 + randbelow(2) if random_() < 0.15 else 1
    elif profile == "tie-heavy":
        bump = lambda: 0 if random_() < 0.6 else 1
    else:
        bump = lambda: 0 if random_() < 0.35 else 1 + randbelow(4)
    intern = {}.setdefault
    # row j first holds d(i, j) for i <= j, column j of the upper triangle,
    # drawn from the diagonal outward: d(i, j) is one bump above the larger
    # of d(i, j - 1), read from row j - 1, and d(i + 1, j), drawn just before
    rows = [[0]]
    for _ in range(1, m):
        column = []
        append = column.append
        below = 0
        for left in reversed(rows[-1]):
            if left > below:
                below = left
            below += bump()
            below = intern(below, below)
            append(below)
        column.reverse()
        column.append(0)
        rows.append(column)
    # pad each row to full length, then copy the columns above the diagonal:
    # zip reads them lazily, and column j takes only rows below j, whose
    # entries left of their diagonal are never overwritten
    for row in rows:
        row += [0] * (m - len(row))
    for j, column in enumerate(zip(*rows)):
        rows[j][j + 1 :] = column[j + 1 :]
    return rows


def _reference_ultrametric(n: int, rng: random.Random) -> DissimilarityMatrix:
    """Random merges at rising heights; each merge writes its one height
    object, so equal weights already share one int.  The rows become
    tuples one at a time, so the peak stays one grid."""
    rows = [[0] * n for _ in range(n)]
    clusters = [[i] for i in range(n)]
    height = 0
    while len(clusters) > 1:
        height += rng.randint(1, 3)
        rng.shuffle(clusters)
        take = rng.randint(2, min(4, len(clusters)))
        merged, clusters = clusters[:take], clusters[take:]
        for a in range(take):
            for b in range(a + 1, take):
                for x in merged[a]:
                    for y in merged[b]:
                        rows[x][y] = rows[y][x] = height
        clusters.append([x for part in merged for x in part])
    for i, row in enumerate(rows):
        rows[i] = tuple(row)
    return DissimilarityMatrix(rows, 1)
