"""The tree-document writers, readers and renderers as they stood when
each tree kind had its own recursive functions.

Kept verbatim beside the oracles so the single iterative layer in
``robinspace.formats`` can be held to exactly their output: the same
documents, the same trees, the same ascii and dot bytes and the same
``DocumentError`` messages.  They recurse once per level of the tree.
"""

from __future__ import annotations

from robinspace import dendrogram as dg, mmodtree as mm, pqtree as pq
from robinspace.core import DissimilarityMatrix, Leaf
from robinspace.formats import DocumentError, _doc_weight, weight_str


def tree_to_doc(kind: str, tree, matrix: DissimilarityMatrix) -> dict:
    if kind == "pq":
        root = _pq_doc(tree, matrix)
    elif kind == "mmodule":
        root = _mm_doc(tree, matrix.scale)
    elif kind == "dendrogram":
        root = _dg_doc(tree, matrix.scale)
    else:
        raise DocumentError(f"unknown tree kind {kind!r}")
    return {"kind": kind, "root": root}


def _pq_doc(node: pq.PQTree, matrix: DissimilarityMatrix) -> dict:
    if isinstance(node, pq.Leaf):
        return {"type": "leaf", "point": node.point}
    children = [_pq_doc(c, matrix) for c in node.children]
    if isinstance(node, pq.P):
        return {"type": "P", "children": children}
    out = {"type": "Q", "children": children}
    hit = pq.conical_apex(matrix, node.children)
    if hit is not None:
        out["apex"] = hit[1]
    return out


def _mm_doc(node: mm.MModuleTree, scale: int) -> dict:
    if isinstance(node, mm.Leaf):
        return {"type": "leaf", "point": node.point}
    children = [_mm_doc(c, scale) for c in node.children]
    if isinstance(node, mm.Cup):
        return {"type": "cup", "children": children}
    out = {"type": "cap", "children": children}
    if node.special is not None:
        out["special"] = weight_str(node.special, scale)
        out["largeChild"] = node.large_child
    return out


def _dg_doc(node: dg.Tree, scale: int) -> dict:
    if isinstance(node, dg.Leaf):
        return {"type": "leaf", "point": node.point}
    return {
        "type": "internal",
        "weight": weight_str(node.weight, scale),
        "children": [_dg_doc(c, scale) for c in node.children],
    }


def doc_to_tree(doc, scale: int):
    """(kind, tree) from a parsed JSON document."""
    if not isinstance(doc, dict) or "kind" not in doc or "root" not in doc:
        raise DocumentError("document must be an object with 'kind' and 'root'")
    kind = doc["kind"]
    builders = {"pq": _pq_node, "mmodule": _mm_node, "dendrogram": _dg_node}
    if kind not in builders:
        raise DocumentError(f"unknown tree kind {kind!r}")
    return kind, builders[kind](doc["root"], scale)


def _fields(node, *wanted: str):
    if not isinstance(node, dict) or "type" not in node:
        raise DocumentError("tree nodes must be objects with a 'type'")
    if node["type"] == "leaf":
        point = node.get("point")
        if not isinstance(point, int) or isinstance(point, bool):
            raise DocumentError("leaf nodes need an integer 'point'")
        return None
    if node["type"] not in wanted:
        raise DocumentError(f"unexpected node type {node['type']!r}")
    kids = node.get("children")
    if not isinstance(kids, list) or len(kids) < 2:
        raise DocumentError(f"{node['type']} node needs at least two children")
    return kids


def _pq_node(node, scale: int) -> pq.PQTree:
    kids = _fields(node, "P", "Q")
    if kids is None:
        return pq.Leaf(node["point"])
    children = tuple(_pq_node(c, scale) for c in kids)
    return pq.P(children) if node["type"] == "P" else pq.Q(children)


def _mm_node(node, scale: int) -> mm.MModuleTree:
    kids = _fields(node, "cup", "cap")
    if kids is None:
        return mm.Leaf(node["point"])
    children = tuple(_mm_node(c, scale) for c in kids)
    if node["type"] == "cup":
        return mm.Cup(children)
    if "special" not in node:
        return mm.Cap(children)
    large = node.get("largeChild")
    if not isinstance(large, int) or not 0 <= large < len(children):
        raise DocumentError("special cap nodes need a valid 'largeChild' index")
    return mm.Cap(children, _doc_weight(node["special"], scale), large)


def _dg_node(node, scale: int) -> dg.Tree:
    kids = _fields(node, "internal")
    if kids is None:
        return dg.Leaf(node["point"])
    if "weight" not in node:
        raise DocumentError("internal dendrogram nodes need a 'weight'")
    weight = _doc_weight(node["weight"], scale)
    return dg.Internal(weight, [_dg_node(c, scale) for c in kids])


def ascii_tree(kind: str, tree, scale: int) -> str:
    if kind == "pq":
        return _ascii_pq(tree)
    if kind == "mmodule":
        return _ascii_mm(tree, scale)
    return _ascii_dg(tree, scale)


def _ascii_pq(node: pq.PQTree) -> str:
    if isinstance(node, pq.Leaf):
        return str(node.point)
    inner = " ".join(_ascii_pq(c) for c in node.children)
    return f"P({inner})" if isinstance(node, pq.P) else f"Q[{inner}]"


def _ascii_mm(node: mm.MModuleTree, scale: int) -> str:
    if isinstance(node, mm.Leaf):
        return str(node.point)
    parts = [_ascii_mm(c, scale) for c in node.children]
    if isinstance(node, mm.Cup):
        return f"cup({' '.join(parts)})"
    if node.special is None:
        return f"cap({' '.join(parts)})"
    parts[node.large_child] = "*" + parts[node.large_child]
    return f"cap@{weight_str(node.special, scale)}({' '.join(parts)})"


def _ascii_dg(node: dg.Tree, scale: int) -> str:
    if isinstance(node, dg.Leaf):
        return str(node.point)
    inner = " ".join(_ascii_dg(c, scale) for c in node.children)
    return f"({weight_str(node.weight, scale)}: {inner})"


def dot_tree(kind: str, tree, scale: int) -> str:
    lines = ["graph tree {", "  node [shape=plaintext];"]
    counter = 0

    def label(node) -> str:
        if isinstance(node, Leaf):
            return str(node.point)
        if isinstance(node, pq.P):
            return "P"
        if isinstance(node, pq.Q):
            return "Q"
        if isinstance(node, mm.Cup):
            return "cup"
        if isinstance(node, mm.Cap):
            if node.special is None:
                return "cap"
            return f"cap @ {weight_str(node.special, scale)}"
        return weight_str(node.weight, scale)

    def walk(node) -> int:
        nonlocal counter
        me = counter
        counter += 1
        lines.append(f'  n{me} [label="{label(node)}"];')
        if not isinstance(node, Leaf):
            for child in node.children:
                lines.append(f"  n{me} -- n{walk(child)};")
        return me

    walk(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"
