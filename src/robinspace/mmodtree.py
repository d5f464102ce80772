"""Mmodule trees: the modular-decomposition analogue for dissimilarities.

A set M is an mmodule when every outside point sees all of M at one
distance.  The family of mmodules of a Robinson space is laminar enough
to fit in a single tree with two kinds of internal nodes:

* ``Cup`` — the proper mmodules below it are exactly its children's
  leaf sets (partition case, arity >= 3);
* ``Cap`` — every union of a proper subset of its children's leaf sets
  is an mmodule (copartition case, arity >= 2).

Arity-2 internal nodes are always represented as ``Cap`` (both readings
coincide there).

Construction piggybacks on the dendrogram of the subdominant
ultrametric: the children of the dendrogram root are exactly the
components of the strict-threshold graph at the top weight, and
repeated tree refinement (``refine.stable_trees``) splits them into
maximal mmodules.  Reusing subtrees of the dendrogram instead of
rebuilding it keeps the whole construction quadratic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Union

from . import core
from . import dendrogram as dg
from .core import DissimilarityMatrix, Leaf, NotRobinson, first_leaf, leaf_points, leaf_set
from .refine import stable_trees


@dataclass(frozen=True)
class Cup:
    children: tuple["MModuleTree", ...]


@dataclass(frozen=True)
class Cap:
    """Copartition node.

    When ``special`` is set, all distances between points of distinct
    children equal that weight and ``children[large_child]`` is the one
    child whose diameter exceeds it.
    """

    children: tuple["MModuleTree", ...]
    special: int | None = None
    large_child: int | None = None


MModuleTree = Union[Leaf, Cup, Cap]


def mmodule_tree(matrix: DissimilarityMatrix, subset: Iterable[int]) -> MModuleTree:
    """Build the mmodule tree of the given points.

    The input is assumed Robinson; on structural contradictions that a
    Robinson space cannot exhibit (see ``NotRobinson`` call sites) the
    construction aborts.  For non-Robinson inputs that happen to dodge
    every check, the result carries no guarantee.
    """
    pts = sorted(subset)
    core.ensure_recursion_headroom(len(pts))
    return _from_dendrogram(matrix, dg.build_dendrogram(matrix, pts))


def _from_dendrogram(matrix: DissimilarityMatrix, dtree: dg.Tree) -> MModuleTree:
    if isinstance(dtree, Leaf):
        return dtree
    rho = dtree.weight
    comp_trees = list(dtree.children)
    comps = [leaf_points(t) for t in comp_trees]
    if core.debug_checks:
        pts = sorted(p for c in comps for p in c)
        assert sorted(tuple(sorted(c)) for c in comps) == sorted(
            core.components_below(matrix, pts, rho)
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
        if core.debug_checks:
            assert all(
                len(c) == 1 or core.diameter_and_pair(matrix, c)[0] <= rho
                for c in comps
            )
        return Cap(tuple(_from_dendrogram(matrix, t) for t in comp_trees))
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
) -> MModuleTree:
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
        return Cup(tuple(_from_dendrogram(matrix, t) for t in forest))

    # forest[0] together with its partner forms one maximal mmodule that
    # the component split cut in half; the other classes stand alone.
    if ell < 4:
        raise NotRobinson(
            "connected space split into fewer than three maximal mmodules"
        )
    if core.debug_checks:
        assert sorted(leaf_points(forest[0])) == sorted(comps[first])
    merged = _adjoin(forest[0], forest[partner], rho)
    kids = [_from_dendrogram(matrix, merged)]
    kids.extend(
        _from_dendrogram(matrix, forest[h]) for h in range(1, ell) if h != partner
    )
    return Cup(tuple(kids))


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
) -> MModuleTree:
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
    inner: MModuleTree = Cap(inner_kids) if len(forest) == 2 else Cup(inner_kids)
    return Cap((*betas, inner), special=rho, large_child=len(betas))


def _glue(trees: list[dg.Tree], rho: int) -> dg.Tree:
    return trees[0] if len(trees) == 1 else dg.Internal(rho, trees)


def is_mmodule_via_tree(tree: MModuleTree, candidate: Iterable[int]) -> bool:
    """Answer an mmodule query from the tree alone, no matrix needed.

    True exactly for: the empty set, singletons, the whole set, and —
    at the deepest node whose leaf set contains the candidate — the
    node's own leaf set or a union of a proper subset of a Cap node's
    children.
    """
    cand = frozenset(candidate)
    whole = leaf_set(tree)
    if not cand <= whole:
        raise ValueError("candidate contains points outside the tree")
    if len(cand) <= 1 or cand == whole:
        return True
    node = tree
    while not isinstance(node, Leaf):
        down = None
        for child in node.children:
            if cand <= leaf_set(child):
                down = child
                break
        if down is None:
            break
        node = down
    if leaf_set(node) == cand:
        return True
    if not isinstance(node, Cap):
        return False
    sets = [leaf_set(c) for c in node.children]
    return all(s <= cand or not (s & cand) for s in sets)
