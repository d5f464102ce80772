"""The iterative tree-document layer of ``robinspace.formats`` against the
recursive per-kind functions it replaced (``doc_reference``).

Documents, trees, ascii and dot text must be equal byte for byte, and a
document with planted defects must fail with the same error message.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

import doc_reference as ref
from robinspace import copoints, dendrogram as dg, formats, generator, mmodtree as mm
from robinspace.core import DissimilarityMatrix
from robinspace.formats import DocumentError

KINDS = ("pq", "mmodule", "dendrogram")


@st.composite
def trees(draw):
    """(kind, tree, matrix) over a generated profile, at scale 1, 10 or 100."""
    profile = draw(st.sampled_from(generator.PROFILES))
    n = draw(st.integers(1, 64))
    base = generator.generate_matrix(n, draw(st.integers(0, 10**6)), profile)
    matrix = DissimilarityMatrix(base.rows, draw(st.sampled_from([1, 10, 100])))
    kind = draw(st.sampled_from(KINDS))
    if kind == "pq":
        tree = copoints.recognize_robinson(matrix).tree
    elif kind == "mmodule":
        tree = mm.mmodule_tree(matrix, range(n))
    else:
        tree = dg.build_dendrogram(matrix, range(n))
    return kind, tree, matrix


def _nodes(root: dict) -> list[dict]:
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.get("children", ())))
    return out


@settings(max_examples=150, deadline=None)
@given(trees())
def test_layer_equals_recursive_functions(case):
    kind, tree, matrix = case
    doc = formats.tree_to_doc(kind, tree, matrix)
    want = ref.tree_to_doc(kind, tree, matrix)
    assert doc == want
    assert json.dumps(doc) == json.dumps(want)  # key order too
    assert formats.doc_to_tree(doc, matrix.scale) == ref.doc_to_tree(want, matrix.scale) == (kind, tree)
    assert formats.ascii_tree(doc) == ref.ascii_tree(kind, tree, matrix.scale)
    assert formats.dot_tree(doc) == ref.dot_tree(kind, tree, matrix.scale)


FOREIGN = {"pq": "cup", "mmodule": "internal", "dendrogram": "Q"}


def _mutate(doc: dict, defect: str, at: int) -> bool:
    """Plant ``defect`` in a node of ``doc`` picked by ``at``; False if
    the document has no node it applies to."""
    kind = doc["kind"]
    nodes = _nodes(doc["root"])
    leaves = [node for node in nodes if node["type"] == "leaf"]
    inner = [node for node in nodes if "children" in node]
    if defect == "boolean point":
        if not leaves:
            return False
        leaves[at % len(leaves)]["point"] = bool(at % 2)
        return True
    if defect == "foreign type":
        nodes[at % len(nodes)]["type"] = FOREIGN[kind]
        return True
    if defect == "bad largeChild":
        caps = [node for node in inner if node["type"] == "cap"]
        if not caps:
            return False
        node = caps[at % len(caps)]
        node.setdefault("special", "1")
        node["largeChild"] = [len(node["children"]), -1, "0", None][at % 4]
        return True
    if defect == "missing weight":
        if kind != "dendrogram" or not inner:
            return False
        inner[at % len(inner)].pop("weight", None)
        return True
    if not inner:  # unary node
        return False
    node = inner[at % len(inner)]
    node["children"] = node["children"][:1]
    return True


def _outcome(read, doc, scale):
    try:
        return read(doc, scale)
    except (DocumentError, ValueError) as exc:
        return type(exc), str(exc)


DEFECTS = ("unary node", "boolean point", "bad largeChild", "missing weight", "foreign type")


@settings(max_examples=150, deadline=None)
@given(
    trees(),
    st.lists(st.tuples(st.sampled_from(DEFECTS), st.integers(0, 10**6)), min_size=1, max_size=3),
)
def test_defects_give_the_same_message(case, defects):
    # one defect, or several: the message names the one met first
    kind, tree, matrix = case
    doc = json.loads(json.dumps(formats.tree_to_doc(kind, tree, matrix)))
    planted = [_mutate(doc, defect, at) for defect, at in defects]
    got = _outcome(formats.doc_to_tree, doc, matrix.scale)
    assert got == _outcome(ref.doc_to_tree, doc, matrix.scale)
    if any(planted):
        assert isinstance(got, tuple) and got[0] in (DocumentError, ValueError)


def test_a_defect_found_on_leaving_beats_a_later_subtree():
    # the bad largeChild is found when the walk leaves the first subtree, the
    # node without a type when it enters the second: a reader that checked
    # every node on the way down before building any would name the second
    doc = {"kind": "mmodule", "root": {"type": "cup", "children": [
        {"type": "cap", "children": [{"type": "leaf", "point": 0}, {"type": "leaf", "point": 1}],
         "special": "1", "largeChild": 2},
        {"type": "cap", "children": [{"type": "leaf", "point": 2}, {"point": 3}]},
    ]}}
    want = (DocumentError, "special cap nodes need a valid 'largeChild' index")
    assert _outcome(formats.doc_to_tree, doc, 1) == _outcome(ref.doc_to_tree, doc, 1) == want
