"""Output checkers for the request benchmark.

Every checker works on the benchmark's own copy of the matrix (``rows``,
a list of integer rows in the benchmark's unit) and on tree documents in
the CLI's JSON shape.  None of them calls into ``robinspace``: the
references (compatibility, minimum spanning tree, mmodule test, brute
force over four points) are computed here, so a wrong answer from the
program cannot vouch for itself.  Walks are iterative because trees of
chain-like spaces are deep.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import Counter
from decimal import Decimal
from typing import Callable, Iterator, Sequence


class CheckFailed(AssertionError):
    """A program output that contradicts the benchmark's own computation."""


def _fail(msg: str) -> None:
    raise CheckFailed(msg)


def iter_nodes(root: dict) -> Iterator[dict]:
    """Document nodes in pre-order, children left to right."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if node.get("type") != "leaf":
            stack.extend(reversed(node.get("children", ())))


def leaves(root: dict) -> list[int]:
    """Leaf points left to right."""
    return [node["point"] for node in iter_nodes(root) if node.get("type") == "leaf"]


def check_leaves_once(root: dict, n: int) -> list[int]:
    """The tree's leaves are the points 0..n-1, each exactly once."""
    pts = leaves(root)
    if any(type(p) is not int for p in pts):
        _fail("a leaf point is not an integer")
    if len(pts) != n or sorted(pts) != list(range(n)):
        seen = Counter(pts)
        dup = sorted(p for p, c in seen.items() if c > 1)[:3]
        missing = sorted(set(range(n)) - set(pts))[:3]
        _fail(f"leaves are not each point once: {len(pts)} leaves for {n} points, "
              f"repeated {dup}, missing {missing}")
    return pts


def check_compatible(rows: Sequence[Sequence[int]], order: Sequence[int]) -> None:
    """The order is a permutation of the points along which every row rises
    away from the diagonal (equivalent to the all-triples condition, O(n²))."""
    n = len(rows)
    if len(order) != n or sorted(order) != list(range(n)):
        _fail("order is not a permutation of the points")
    if n < 3:
        return
    pick = operator.itemgetter(*order)
    le = operator.le
    for a, x in enumerate(order):
        line = pick(rows[x])
        right = line[a:]
        left = line[: a + 1]
        if not all(map(le, right, right[1:])) or not all(map(le, left[1:], left)):
            _fail(f"order is not compatible: row of point {x} at position {a} "
                  f"does not rise away from the diagonal")


def count_orders(root: dict) -> int:
    """Orders a PQ document represents: arity! per P-node, 2 per Q-node."""
    total = 1
    for node in iter_nodes(root):
        if node["type"] == "P":
            total *= math.factorial(len(node["children"]))
        elif node["type"] == "Q":
            total *= 2
    return total


def check_order_count(root: dict, want: int) -> None:
    got = count_orders(root)
    if got != want:
        _fail(f"PQ tree represents {got} orders, expected {want}")


def check_no_q(root: dict) -> None:
    """Ultrametric spaces have only P-nodes in their PQ-tree."""
    if any(node["type"] == "Q" for node in iter_nodes(root)):
        _fail("PQ tree of an ultrametric space has a Q-node")


def mst_weights(rows: Sequence[Sequence[int]]) -> list[int]:
    """Edge weights of a minimum spanning tree (Prim, O(n²))."""
    n = len(rows)
    if n < 2:
        return []
    best = list(rows[0])
    done = [False] * n
    done[0] = True
    out = []
    for _ in range(n - 1):
        u = -1
        bu = None
        for i in range(n):
            if not done[i] and (bu is None or best[i] < bu):
                bu = best[i]
                u = i
        done[u] = True
        out.append(bu)
        ru = rows[u]
        for i in range(n):
            if not done[i] and ru[i] < best[i]:
                best[i] = ru[i]
    return out


def check_dendrogram(root: dict, mst: Sequence[int], unit: Decimal) -> None:
    """Merge weights, each counted arity-1 times, equal the MST edge
    weights as a multiset of exact decimals (``unit`` is one step of the
    benchmark's integer scale, e.g. Decimal('0.25'))."""
    got: Counter = Counter()
    for node in iter_nodes(root):
        if node["type"] == "internal":
            got[Decimal(node["weight"])] += len(node["children"]) - 1
    want = Counter(w * unit for w in mst)
    if got != want:
        extra = sorted((got - want).elements())[:3]
        short = sorted((want - got).elements())[:3]
        _fail(f"dendrogram merge weights differ from the MST: extra {extra}, missing {short}")


def check_mmodule_sample(
    rows: Sequence[Sequence[int]],
    root: dict,
    rng: random.Random,
    k: int,
    unit: Decimal,
) -> None:
    """A seeded sample of k internal nodes are mmodules: every point outside
    a node's leaf set sees one distance on it.  A sampled special cap node
    also has the stated weight between every pair of its children."""
    internal = [node for node in iter_nodes(root) if node["type"] != "leaf"]
    if not internal:
        return
    n = len(rows)
    for node in rng.sample(internal, min(k, len(internal))):
        if "special" in node:
            weight = Decimal(node["special"])
            reps = [leaves(c)[0] for c in node["children"]]
            for x, y in itertools.combinations(reps, 2):
                if rows[x][y] * unit != weight:
                    _fail(f"special node of weight {weight} has children at "
                          f"distance {rows[x][y] * unit}")
        pts = leaves(node)
        if len(pts) == n:
            continue
        inside = set(pts)
        pick = operator.itemgetter(*pts)
        for z in range(n):
            if z not in inside:
                seen = pick(rows[z])
                if len(set(seen)) != 1:
                    _fail(f"node with {len(pts)} leaves is not an mmodule: "
                          f"point {z} sees {sorted(set(seen))[:3]}")


def compatible_orders_brute(rows: Sequence[Sequence[int]], pts: Sequence[int]) -> list[tuple]:
    """Every order of ``pts`` satisfying the all-triples condition."""
    out = []
    for perm in itertools.permutations(pts):
        if all(
            rows[x][z] >= max(rows[x][y], rows[y][z])
            for x, y, z in itertools.combinations(perm, 3)
        ):
            out.append(perm)
    return out


def check_planted(rows: Sequence[Sequence[int]], four: Sequence[int]) -> None:
    """The planted points admit no compatible order (24 tried), so the
    whole space is not Robinson."""
    if len(set(four)) != 4:
        _fail("the planted obstruction needs four distinct points")
    found = compatible_orders_brute(rows, four)
    if found:
        _fail(f"planted points {list(four)} have compatible order {list(found[0])}")


def check_violation(rows: Sequence[Sequence[int]], triple: Sequence[int]) -> None:
    """A reported violation is three distinct points x, y, z with
    d(x,z) < max(d(x,y), d(y,z))."""
    n = len(rows)
    if len(triple) != 3 or any(type(p) is not int or not 0 <= p < n for p in triple):
        _fail(f"violation {triple!r} is not three points")
    x, y, z = triple
    if len({x, y, z}) != 3:
        _fail(f"violation {triple!r} repeats a point")
    if not rows[x][z] < max(rows[x][y], rows[y][z]):
        _fail(f"violation {triple!r} is not violated")


def pq_doc_of(tree) -> dict:
    """Document of an in-memory PQ-tree (``Leaf``/``P``/``Q`` by class name)."""
    return _doc_of(tree, lambda node, kids: {"type": type(node).__name__, "children": kids})


def mm_doc_of(tree, unit_str: Callable[[int], str]) -> dict:
    """Document of an in-memory mmodule tree (``Leaf``/``Cup``/``Cap``)."""

    def internal(node, kids):
        out = {"type": type(node).__name__.lower(), "children": kids}
        if getattr(node, "special", None) is not None:
            out["special"] = unit_str(node.special)
            out["largeChild"] = node.large_child
        return out

    return _doc_of(tree, internal)


def dg_doc_of(tree, unit_str: Callable[[int], str]) -> dict:
    """Document of an in-memory dendrogram (``Leaf``/``Internal``)."""
    return _doc_of(
        tree,
        lambda node, kids: {"type": "internal", "weight": unit_str(node.weight), "children": kids},
    )


def _doc_of(tree, internal: Callable) -> dict:
    # post-order without recursion: a node is emitted after its children
    done: dict[int, dict] = {}
    stack = [(tree, False)]
    while stack:
        node, ready = stack.pop()
        if type(node).__name__ == "Leaf":
            done[id(node)] = {"type": "leaf", "point": node.point}
        elif ready:
            done[id(node)] = internal(node, [done.pop(id(c)) for c in node.children])
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
    return done[id(tree)]
