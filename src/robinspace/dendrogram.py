"""Single-linkage dendrograms as vertex-weighted trees.

The dendrogram of the subdominant ultrametric is built by a Prim-style sweep:
points are visited in order of their current best distance to the visited
set, and each new point is inserted along the first-child chain at the level
of its connecting weight.  Weights strictly increase from leaves to root, and
the subdominant distance of two points is the weight of their lowest common
ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .core import DissimilarityMatrix, Leaf, RobinsonError, iter_nodes, leaf_points


class EmptySubset(RobinsonError):
    pass


class NotALeaf(RobinsonError):
    def __init__(self, point: int) -> None:
        super().__init__(f"point {point} is not a leaf of this tree")
        self.point = point


@dataclass
class Internal:
    """Weighted node; ``weight`` is None only for generic unweighted trees
    handled by the refinement engine, never for dendrograms."""

    weight: int | None
    children: list = field(default_factory=list)


Tree = Leaf | Internal


def _insert(u: int, rho: int, tree: Tree) -> Tree:
    leaf = Leaf(u)
    if isinstance(tree, Leaf) or tree.weight < rho:
        return Internal(rho, [leaf, tree])
    node = tree
    while node.weight > rho:
        child = node.children[0]
        if isinstance(child, Leaf) or child.weight < rho:
            node.children[0] = Internal(rho, [leaf, child])
            return tree
        node = child
    node.children.insert(0, leaf)
    return tree


def build_dendrogram(matrix: DissimilarityMatrix, subset: Iterable[int]) -> Tree:
    """Dendrogram of the subdominant ultrametric on ``subset``.

    Visits points by Prim's rule starting from the smallest index, ties
    toward the smaller index; child order records insertion history and is
    not part of the contract.
    """
    pts = sorted(subset)
    if not pts:
        raise EmptySubset("cannot build a dendrogram on no points")
    if len(pts) == 1:
        return Leaf(pts[0])
    rows = matrix.rows
    k = len(pts)
    row0 = rows[pts[0]]
    dist = [row0[x] for x in pts]
    visited = [False] * k
    visited[0] = True
    tree: Tree = Leaf(pts[0])
    for _ in range(k - 1):
        best = -1
        best_d = None
        for i in range(k):
            if not visited[i] and (best_d is None or dist[i] < best_d):
                best_d = dist[i]
                best = i
        visited[best] = True
        tree = _insert(pts[best], best_d, tree)
        ru = rows[pts[best]]
        for i in range(k):
            if not visited[i]:
                v = ru[pts[i]]
                if v < dist[i]:
                    dist[i] = v
    return tree


def _path_to(tree: Tree, x: int) -> list[Tree] | None:
    # Root-to-leaf path, iteratively (DFS with explicit parent stack).
    stack: list[tuple[Tree, int]] = [(tree, 0)]
    path = [tree]
    while stack:
        node, idx = stack[-1]
        if isinstance(node, Leaf):
            if node.point == x:
                return path
            stack.pop()
            path.pop()
            continue
        if idx == len(node.children):
            stack.pop()
            path.pop()
            continue
        stack[-1] = (node, idx + 1)
        child = node.children[idx]
        stack.append((child, 0))
        path.append(child)
    return None


def subdominant_distance(tree: Tree, x: int, y: int) -> int:
    """Weight of the lowest common ancestor of leaves x and y (0 if x == y)."""
    px = _path_to(tree, x)
    if px is None:
        raise NotALeaf(x)
    if x == y:
        return 0
    py = _path_to(tree, y)
    if py is None:
        raise NotALeaf(y)
    lca = None
    for a, b in zip(px, py):
        if a is b:
            lca = a
        else:
            break
    assert isinstance(lca, Internal)
    return lca.weight


def clusters(tree: Tree) -> set[tuple[tuple[int, ...], int]]:
    """All (sorted leaf set, weight) pairs of internal nodes — handy in tests."""
    out = set()
    for node in iter_nodes(tree):
        if isinstance(node, Internal):
            out.add((tuple(sorted(leaf_points(node))), node.weight))
    return out
