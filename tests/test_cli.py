from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import NONROB4, WORKED12, canon_mm, mutated_documents, robinson_matrices
from conftest import spine_with_block, symmetric_matrices
from robinspace import cli, copoints, core, dendrogram as dg, mmodtree as mm, oracle
from robinspace import pqtree as pq, reference, refine, translate
from robinspace.cli import DocumentError, MatrixParseError
from robinspace.core import AsymmetricInput, DissimilarityMatrix, Leaf, NonzeroDiagonal
from robinspace.reference import mmodule_tree_from_dendrogram as carved

WORKED12_TEXT = cli.serialize_matrix(WORKED12)


# --- matrix files ------------------------------------------------------------


def test_parse_square():
    m = cli.parse_matrix("0 1 2\n1 0 1\n2 1 0\n")
    assert m.rows == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert m.scale == 1


def test_parse_triangle():
    m = cli.parse_matrix("1.5, 2.5\n0.5\n")
    assert m.rows == [[0, 15, 25], [15, 0, 5], [25, 5, 0]]
    assert m.scale == 10


def test_parse_single_point():
    assert cli.parse_matrix("0\n").rows == [[0]]


def test_parse_comments_and_commas():
    m = cli.parse_matrix("# heading\n0, 1\n1, 0  # trailing\n\n")
    assert m.rows == [[0, 1], [1, 0]]


def test_parse_scale_is_canonical():
    m = cli.parse_matrix("0 1.50\n1.50 0\n")
    assert m.scale == 10
    assert m.rows[0][1] == 15


def test_parse_rejects_bad_token():
    with pytest.raises(MatrixParseError) as exc:
        cli.parse_matrix("0 1\n1 x\n")
    assert exc.value.line == 2
    assert exc.value.col == 2
    assert "line 2, entry 2" in str(exc.value)


def test_parse_rejects_negative():
    with pytest.raises(MatrixParseError):
        cli.parse_matrix("0 -1\n-1 0\n")


def test_parse_rejects_ragged_shape():
    with pytest.raises(MatrixParseError):
        cli.parse_matrix("0 1 2\n1 0\n2 0 0\n")


def test_parse_short_triangle():
    m = cli.parse_matrix("1 2\n3\n")
    assert m.rows == [[0, 1, 2], [1, 0, 3], [2, 3, 0]]


def test_parse_rejects_asymmetry():
    with pytest.raises(Exception):
        cli.parse_matrix("0 1\n2 0\n")


def test_parse_reports_first_bad_token_in_reading_order():
    # distinct tokens are scanned as a set; the report must not depend on
    # which bad token the set yields first
    for text, line, col in (
        ("0 1 zz\n1 0 a\nb a 0\n", 1, 3),
        ("0 1 2\n1 0 -3\n2 x 0\n", 2, 3),
        ("# note\n0 1e2\n1e2 0 q\n", 2, 2),
    ):
        with pytest.raises(MatrixParseError) as exc:
            cli.parse_matrix(text)
        assert (exc.value.line, exc.value.col) == (line, col), text


def test_parse_equal_spellings_are_equal_weights():
    m = cli.parse_matrix("0 1 01\n1 0 1.0\n01 1.0 0\n")
    assert m.rows == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert m.scale == 1
    m = cli.parse_matrix("0 0.5 0.50\n0.5 0 0.500\n0.50 0.500 0\n")
    assert m.rows == [[0, 5, 5], [5, 0, 5], [5, 5, 0]]
    assert m.scale == 10


def test_parse_all_distinct_weights():
    # a line metric at 1/10000 steps: every weight its own token, spelled
    # with up to four decimal places
    x = [0, 3, 1_0000, 2_5001, 2_6010, 9_0000, 12_3457]
    text = "".join(
        " ".join(cli.weight_str(x[j] - x[i], 10_000) for j in range(i + 1, len(x))) + "\n"
        for i in range(len(x) - 1)
    )
    m = cli.parse_matrix(text)
    assert m.scale == 10_000
    assert m.rows == [[abs(a - b) for b in x] for a in x]


def test_parse_interns_weights():
    # values above the small-int cache, spelled three ways
    m = cli.parse_matrix("0 1000 1000.0\n1000 0 01000\n1000.0 01000 0\n")
    objects = {id(v) for row in m.rows for v in row}
    values = {v for row in m.rows for v in row}
    assert len(objects) == len(values) == 2
    rows = [[1000 * v for v in row] for row in cli.generate_matrix(40, 1, "generic").rows]
    big = cli.parse_matrix(cli.serialize_matrix(DissimilarityMatrix(rows)))
    assert big.rows == rows
    first: dict[int, int] = {}
    for row in big.rows:
        for v in row:
            assert first.setdefault(v, id(v)) == id(v)


def test_parse_decimal_triangle_with_comments_and_commas():
    text = "# weights in metres\n0.25, 1.5, 2 # first row\n\n0.5,1.75\n1.5  # last\n"
    m = cli.parse_matrix(text)
    assert m.scale == 100
    assert m.rows == [
        [0, 25, 150, 200],
        [25, 0, 50, 175],
        [150, 50, 0, 150],
        [200, 175, 150, 0],
    ]


@settings(max_examples=200, deadline=None)
@given(
    symmetric_matrices(min_n=1, max_n=6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 3)), max_size=3),
)
def test_parse_names_first_defect_like_index_loop(m, edits):
    rows = [list(r) for r in m.rows]
    for i, j, v in edits:
        if i < m.n and j < m.n:
            rows[i][j] = v
    text = "\n".join(" ".join(map(str, row)) for row in rows)
    want = reference.first_defect_loop(rows)
    if want is None:
        assert cli.parse_matrix(text).rows == rows
    elif want[0] == "diagonal":
        with pytest.raises(NonzeroDiagonal) as exc:
            cli.parse_matrix(text)
        assert exc.value.index == want[1]
    else:
        with pytest.raises(AsymmetricInput) as exc:
            cli.parse_matrix(text)
        assert exc.value.indices == want[1]


def test_serialize_parse_roundtrip_decimal():
    m = cli.parse_matrix("0 0.25 1\n0.25 0 0.5\n1 0.5 0\n")
    again = cli.parse_matrix(cli.serialize_matrix(m))
    assert again.rows == m.rows and again.scale == m.scale


@given(robinson_matrices(max_n=8))
def test_serialize_parse_roundtrip(m):
    again = cli.parse_matrix(cli.serialize_matrix(m))
    assert again.rows == m.rows
    assert again.scale == m.scale


def test_weight_str_frozen():
    assert cli.weight_str(15, 10) == "1.5"
    assert cli.weight_str(105, 100) == "1.05"
    assert cli.weight_str(1000, 100) == "10"
    assert cli.weight_str(0, 10) == "0"
    assert cli.weight_str(7, 1) == "7"


# --- tree documents ----------------------------------------------------------


def _doc_roundtrip(kind: str, tree, matrix):
    doc = cli.tree_to_doc(kind, tree, matrix)
    kind2, tree2 = cli.doc_to_tree(json.loads(json.dumps(doc)), matrix.scale)
    assert kind2 == kind
    return tree2


def test_pq_doc_roundtrip():
    tree = copoints.pq_tree2(WORKED12, range(12))
    assert _doc_roundtrip("pq", tree, WORKED12) == tree


def test_mmodule_doc_roundtrip():
    tree = mm.mmodule_tree(WORKED12, range(12))
    assert _doc_roundtrip("mmodule", tree, WORKED12) == tree


def test_dendrogram_doc_roundtrip():
    tree = dg.build_dendrogram(WORKED12, range(12))
    assert _doc_roundtrip("dendrogram", tree, WORKED12) == tree


def test_pq_doc_carries_advisory_apex():
    tree = copoints.pq_tree2(WORKED12, [0, 1, 2, 3])
    doc = cli.tree_to_doc("pq", tree, WORKED12)
    assert doc["root"]["type"] == "Q"
    assert doc["root"]["apex"] == 1
    # parser ignores the advisory field entirely
    mangled = json.loads(json.dumps(doc))
    mangled["root"]["apex"] = 99
    assert cli.doc_to_tree(mangled, 1)[1] == tree


def test_mm_doc_weights_are_decimal_strings():
    matrix = cli.parse_matrix("0 0.5 1\n0.5 0 0.5\n1 0.5 0\n")
    tree = mm.mmodule_tree(matrix, range(3))
    doc = cli.tree_to_doc("mmodule", tree, matrix)
    specials = [
        node["special"]
        for node in _walk(doc["root"])
        if node.get("special") is not None
    ]
    assert specials and all(isinstance(s, str) for s in specials)


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def test_doc_rejects_unknown_kind():
    with pytest.raises(DocumentError):
        cli.doc_to_tree({"kind": "splay", "root": {"type": "leaf", "point": 0}}, 1)


def test_doc_rejects_missing_fields():
    with pytest.raises(DocumentError):
        cli.doc_to_tree({"kind": "pq"}, 1)
    with pytest.raises(DocumentError):
        cli.doc_to_tree({"kind": "pq", "root": {"type": "leaf"}}, 1)


def test_doc_rejects_bad_large_child():
    doc = {
        "kind": "mmodule",
        "root": {
            "type": "cap",
            "special": "1",
            "largeChild": 5,
            "children": [
                {"type": "leaf", "point": 0},
                {"type": "leaf", "point": 1},
            ],
        },
    }
    with pytest.raises(DocumentError):
        cli.doc_to_tree(doc, 1)


# --- renderers ----------------------------------------------------------------


def test_ascii_frozen(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(WORKED12_TEXT)
    assert cli.main(["tree", "-i", str(path), "-t", "pq", "-f", "ascii"]) == 0
    assert capsys.readouterr().out.strip() == (
        "Q[Q[0 P(2 1) 3] P(6 5 4) Q[7 8 P(10 9) 11]]"
    )
    assert cli.main(["tree", "-i", str(path), "-t", "mmodule", "-f", "ascii"]) == 0
    # translated from the PQ-tree above, so children follow its orders
    assert capsys.readouterr().out.strip() == (
        "cup(cap@2(*cap(0 3) cap(2 1)) cap(6 5 4) cap@2(*cup(7 8 11) 10 9))"
    )
    assert cli.main(["tree", "-i", str(path), "-t", "mmodule"]) == 0
    _, served = cli.doc_to_tree(json.loads(capsys.readouterr().out), 1)
    assert canon_mm(served) == canon_mm(carved(WORKED12, range(12)))
    assert cli.main(["tree", "-i", str(path), "-t", "dendrogram", "-f", "ascii"]) == 0
    assert capsys.readouterr().out.strip() == (
        "(6: (2: 11 10 9 (1: 8 7)) (5: (1: 6 5 4) (2: 3 (1: 2 1) 0)))"
    )


def test_dot_output(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(WORKED12_TEXT)
    assert cli.main(["tree", "-i", str(path), "-t", "pq", "-f", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph tree {")
    assert out.rstrip().endswith("}")
    assert "--" in out


# --- commands -----------------------------------------------------------------


def test_recognize_accepts(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(WORKED12_TEXT)
    assert cli.main(["recognize", "-i", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["robinson"] is True
    assert report["order"] == [0, 2, 1, 3, 6, 5, 4, 7, 8, 10, 9, 11]
    assert report["tree"]["kind"] == "pq"


def test_recognize_rejects(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(cli.serialize_matrix(NONROB4))
    assert cli.main(["recognize", "-i", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["robinson"] is False
    assert report["reason"]


def test_unusable_input_is_exit_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n2 0\n")
    assert cli.main(["recognize", "-i", str(bad)]) == 2
    assert cli.main(["recognize", "-i", str(tmp_path / "missing.txt")]) == 2


def test_tree_json_kinds(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(WORKED12_TEXT)
    for kind in ("pq", "mmodule", "dendrogram"):
        assert cli.main(["tree", "-i", str(path), "-t", kind]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == kind
        cli.doc_to_tree(doc, 1)


def test_tree_commands_build_no_second_tree(monkeypatch, capsys, tmp_path):
    # both trees come from the one verified PQ-tree
    def refuse(*args):
        raise AssertionError("a second tree was built")

    monkeypatch.setattr(mm, "mmodule_tree", refuse)
    monkeypatch.setattr(dg, "build_dendrogram", refuse)
    path = tmp_path / "m.txt"
    path.write_text(WORKED12_TEXT)
    for kind in ("pq", "mmodule"):
        assert cli.main(["tree", "-i", str(path), "-t", kind]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == kind


def test_main_builds_one_parser_per_process(monkeypatch, capsys, tmp_path):
    tops = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "robinspace":
            tops.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    path = tmp_path / "m.txt"
    path.write_text(WORKED12_TEXT)
    assert cli.main(["recognize", "-i", str(path)]) == 0
    assert cli.main(["tree", "-i", str(path), "-t", "dendrogram"]) == 0
    assert len(tops) == 1
    assert cli.build_parser() is cli.build_parser() is tops[0]


def test_a_usage_error_leaves_the_parser_as_it_was(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(cli.serialize_matrix(NONROB4))
    runs = []
    for argv in (["recognize", "-i", str(path)], ["recognize"], ["recognize", "-i", str(path)]):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        runs.append((code, capsys.readouterr()))
    first, usage, second = runs
    assert first == second
    assert first[0] == 1 and first[1].out and first[1].err == ""
    assert usage[0] == ("exit", 2)
    assert usage[1].out == "" and usage[1].err.startswith("usage: robinspace recognize")


def test_main_runs_the_command_function_it_finds_at_call_time(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_recognize", lambda args: seen.append(args.input) or 7)
    assert cli.main(["recognize", "-i", "m.txt"]) == 7
    assert seen == ["m.txt"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(cli.PROFILES), st.integers(1, 64), st.integers(0, 10**6))
def test_served_mmodule_tree_equals_direct_construction(profile, n, seed):
    matrix = cli.generate_matrix(n, seed, profile)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_text(cli.serialize_matrix(matrix))
        with contextlib.redirect_stdout(out):
            assert cli.main(["tree", "-i", str(path), "-t", "mmodule"]) == 0
    _, served = cli.doc_to_tree(json.loads(out.getvalue()), matrix.scale)
    assert canon_mm(served) == canon_mm(carved(matrix, range(n)))


def test_tree_rejects_non_robinson(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(cli.serialize_matrix(NONROB4))
    assert cli.main(["tree", "-i", str(path), "-t", "pq"]) == 1
    # the dendrogram exists for any dissimilarity, Robinson or not
    assert cli.main(["tree", "-i", str(path), "-t", "dendrogram"]) == 0


def _cli(argv: list[str]) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of one in-process ``robinspace`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# recognize refuses this with the triple 3, 1, 0
REFUSED_TEXT = "0 1 1 1\n1 0 3 3\n1 3 0 3\n1 3 3 0\n"


@pytest.mark.parametrize("command", [["tree", "-t", "pq"], ["tree", "-t", "mmodule"], ["translate"]])
def test_refusals_name_the_triple_recognize_reports(tmp_path, command):
    mpath = tmp_path / "m.txt"
    mpath.write_text(REFUSED_TEXT)
    code, out, _ = _cli(["recognize", "-i", str(mpath)])
    violation = json.loads(out)["violation"]
    assert code == 1 and violation == [3, 1, 0]
    argv = [*command, "-i", str(mpath)]
    if command == ["translate"]:
        dpath = tmp_path / "pq.json"
        dpath.write_text(json.dumps({"kind": "pq", "root": {
            "type": "P", "children": [{"type": "leaf", "point": p} for p in range(4)]}}))
        argv = ["translate", "-i", str(dpath), "-m", str(mpath)]
    code, out, err = _cli(argv)
    assert (code, out) == (1, "")
    assert err == (
        "not Robinson: constructed order fails verification: violating triple "
        + ", ".join(map(str, violation)) + "\n"
    )


@pytest.mark.parametrize("kind, node, want", [
    ("pq", "P", "its P over 0 1 2 should be Q[0 1 2]"),
    ("mmodule", "cap", "its Cap over 0 1 2 should be cap@1(*cap(0 2) 1)"),
])
def test_translate_rejects_a_tree_with_more_orders_than_the_line(tmp_path, kind, node, want):
    # the three-point line has exactly two compatible orders; this tree
    # claims all six, and its canonical order 0 1 2 is one of the two
    mpath = tmp_path / "m.txt"
    mpath.write_text("0 1 2\n1 0 1\n2 1 0\n")
    dpath = tmp_path / "doc.json"
    dpath.write_text(json.dumps({"kind": kind, "root": {
        "type": node, "children": [{"type": "leaf", "point": p} for p in range(3)]}}))
    code, out, err = _cli(["translate", "-i", str(dpath), "-m", str(mpath), "-f", "ascii"])
    assert (code, out) == (2, "")
    assert err == f"error: tree does not fit the matrix: {want}\n"


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(robinson_matrices(), spine_with_block(max_n=5).map(lambda case: case[0])),
    st.sampled_from(["pq", "mmodule"]),
    st.data(),
)
def test_translate_exits_2_exactly_when_the_oracle_disagrees(matrix, kind, data):
    # a served document with edits; the oracle that judges it knows nothing
    # of the construction: brute-force orders, or the dendrogram carving.
    # Every ``spine_with_block`` space (at most 8 points here) has a special node
    target = "mmodule" if kind == "pq" else "pq"
    with tempfile.TemporaryDirectory() as tmp:
        mpath = Path(tmp) / "m.txt"
        mpath.write_text(cli.serialize_matrix(matrix))
        code, served, _ = _cli(["tree", "-i", str(mpath), "-t", kind])
        assert code == 0
        doc = data.draw(mutated_documents(json.loads(served)))
        dpath = Path(tmp) / "doc.json"
        dpath.write_text(json.dumps(doc))
        code, out, err = _cli(["translate", "-i", str(dpath), "-m", str(mpath)])
        _, tree = cli.doc_to_tree(doc, matrix.scale)
        if kind == "pq":
            orders = set(pq.enumerate_orders(tree, cap=math.factorial(matrix.n)))
            agrees = orders == set(oracle.brute_compatible_orders(matrix, range(matrix.n)))
        else:
            agrees = canon_mm(tree) == canon_mm(carved(matrix, range(matrix.n)))
        event(f"agrees={agrees} kind={kind}")
        if agrees:
            assert code == 0, err
            assert out == _cli(["tree", "-i", str(mpath), "-t", target])[1]
        else:
            assert (code, out) == (2, ""), doc
            assert err.startswith("error: tree does not fit the matrix: ")
            assert err.count("\n") == 1


def test_translate_roundtrip(capsys, tmp_path):
    mpath = tmp_path / "m.txt"
    mpath.write_text(WORKED12_TEXT)
    assert cli.main(["tree", "-i", str(mpath), "-t", "pq"]) == 0
    pq_doc = capsys.readouterr().out
    dpath = tmp_path / "pq.json"
    dpath.write_text(pq_doc)

    assert cli.main(["translate", "-i", str(dpath), "-m", str(mpath)]) == 0
    mm_doc = json.loads(capsys.readouterr().out)
    assert mm_doc["kind"] == "mmodule"
    _, got = cli.doc_to_tree(mm_doc, 1)
    assert canon_mm(got) == canon_mm(carved(WORKED12, range(12)))

    back = tmp_path / "mm.json"
    back.write_text(json.dumps(mm_doc))
    assert cli.main(["translate", "-i", str(back), "-m", str(mpath)]) == 0
    pq_back = json.loads(capsys.readouterr().out)
    assert pq_back["kind"] == "pq"
    _, tree = cli.doc_to_tree(pq_back, 1)
    assert pq.equivalent(tree, copoints.pq_tree2(WORKED12, range(12)))


def test_translate_rejects_dendrogram_input(capsys, tmp_path):
    mpath = tmp_path / "m.txt"
    mpath.write_text(WORKED12_TEXT)
    assert cli.main(["tree", "-i", str(mpath), "-t", "dendrogram"]) == 0
    doc = capsys.readouterr().out
    dpath = tmp_path / "d.json"
    dpath.write_text(doc)
    assert cli.main(["translate", "-i", str(dpath), "-m", str(mpath)]) == 2


def test_translate_refuses_stdin_for_both_files(capsys, monkeypatch):
    # stdin holds one file; reading it twice left the document empty
    monkeypatch.setattr(sys, "stdin", io.StringIO(WORKED12_TEXT))
    assert cli.main(["translate", "-i", "-", "-m", "-"]) == 2
    assert capsys.readouterr() == ("", "error: only one of --input and --matrix may be - (stdin)\n")
    assert sys.stdin.read() == WORKED12_TEXT  # refused before reading


def test_translate_reads_a_document_that_starts_with_a_byte_order_mark(capsys, tmp_path):
    mpath = tmp_path / "m.txt"
    mpath.write_text(WORKED12_TEXT)
    assert cli.main(["tree", "-i", str(mpath), "-t", "pq"]) == 0
    doc = capsys.readouterr().out
    dpath = tmp_path / "pq.json"
    dpath.write_text(doc, encoding="utf-8")
    assert cli.main(["translate", "-i", str(dpath), "-m", str(mpath)]) == 0
    want = capsys.readouterr().out
    dpath.write_text("\ufeff" + doc, encoding="utf-8")
    assert cli.main(["translate", "-i", str(dpath), "-m", str(mpath)]) == 0
    assert capsys.readouterr().out == want


def test_translate_rejects_leaf_mismatch(capsys, tmp_path):
    mpath = tmp_path / "m.txt"
    mpath.write_text(WORKED12_TEXT)
    doc = {"kind": "pq", "root": {"type": "leaf", "point": 0}}
    dpath = tmp_path / "pq.json"
    dpath.write_text(json.dumps(doc))
    assert cli.main(["translate", "-i", str(dpath), "-m", str(mpath)]) == 2


DEMO_TEXT = "0 1 3 3\n1 0 3 3\n3 3 0 2\n3 3 2 0\n"


def _translate(tmp_path, doc) -> int:
    mpath = tmp_path / "m.txt"
    mpath.write_text(DEMO_TEXT)
    dpath = tmp_path / "doc.json"
    dpath.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return cli.main(["translate", "-i", str(dpath), "-m", str(mpath), "-f", "ascii"])


def _leaf(point):
    return {"type": "leaf", "point": point}


def test_translate_rejects_repeated_leaf(capsys, tmp_path):
    # P(0 1 0 2 3): the leaf set is right, the leaf count is not
    doc = {"kind": "pq", "root": {"type": "P", "children": [_leaf(p) for p in (0, 1, 0, 2, 3)]}}
    assert _translate(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_translate_rejects_boolean_point(capsys, tmp_path):
    doc = {"kind": "pq", "root": {"type": "P", "children": [_leaf(p) for p in (True, 0, 2, 3)]}}
    assert _translate(tmp_path, doc) == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(DocumentError):
        cli.doc_to_tree({"kind": "mmodule", "root": _leaf(False)}, 1)


def test_translate_rejects_boolean_large_child(capsys, tmp_path):
    mpath = tmp_path / "m.txt"
    mpath.write_text(WORKED12_TEXT)
    assert cli.main(["tree", "-i", str(mpath), "-t", "mmodule"]) == 0
    served = capsys.readouterr().out
    assert '"largeChild":0' in served
    dpath = tmp_path / "mm.json"
    dpath.write_text(served.replace('"largeChild":0', '"largeChild":false'))
    assert cli.main(["translate", "-i", str(dpath), "-m", str(mpath)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_translate_rejects_unary_node(capsys, tmp_path):
    # P(P(0 1 2 3)) on the demo matrix used to print cap(cap(0 1 2 3))
    doc = {"kind": "pq", "root": {"type": "P", "children": [
        {"type": "P", "children": [_leaf(p) for p in range(4)]}]}}
    assert _translate(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    with pytest.raises(DocumentError):
        cli.doc_to_tree({"kind": "mmodule", "root": {"type": "cap", "children": [_leaf(0)]}}, 1)


def test_translate_rejects_unary_chain(capsys, tmp_path):
    node = {"type": "P", "children": [_leaf(p) for p in range(4)]}
    for _ in range(330):
        node = {"type": "P", "children": [node]}
    assert _translate(tmp_path, {"kind": "pq", "root": node}) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_translate_rejects_misfit_pq_tree(capsys, tmp_path):
    # the demo's leaves, each once, in an order the matrix refuses
    doc = {"kind": "pq", "root": {"type": "Q", "children": [_leaf(p) for p in (0, 2, 1, 3)]}}
    assert _translate(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    # the first node that differs is the root, named with what the matrix gives
    assert "its Q over 0 2 1 3 should be P(P(0 1) P(2 3))" in captured.err


def test_translate_rejects_misfit_mmodule_tree(capsys, tmp_path):
    # the demo's tree cap(cap(3 2) cap(1 0)) with leaves 1 and 2 swapped
    def pair(a, b):
        return {"type": "cap", "children": [_leaf(a), _leaf(b)]}

    doc = {"kind": "mmodule", "root": {"type": "cap", "children": [pair(3, 1), pair(2, 0)]}}
    assert _translate(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_translate_rejects_misfit_special_node(capsys, tmp_path):
    # cap@3(*cap(0 1) 2 3): the matrix is Robinson, the document's special
    # node is not, so the document is unusable, not the matrix
    doc = {
        "kind": "mmodule",
        "root": {
            "type": "cap",
            "special": "3",
            "largeChild": 0,
            "children": [{"type": "cap", "children": [_leaf(0), _leaf(1)]}, _leaf(2), _leaf(3)],
        },
    }
    assert _translate(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tree does not fit the matrix: ")
    assert captured.err.count("\n") == 1


def test_translate_rejects_special_node_without_spine(capsys, tmp_path):
    # cap@3(*cap(0 1 2) 3): the large child is a P-node over three points,
    # which has no linear spine to take the small child
    doc = {
        "kind": "mmodule",
        "root": {
            "type": "cap",
            "special": "3",
            "largeChild": 0,
            "children": [{"type": "cap", "children": [_leaf(p) for p in range(3)]}, _leaf(3)],
        },
    }
    assert _translate(tmp_path, doc) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tree does not fit the matrix: ")
    assert captured.err.count("\n") == 1


def _fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    return env


def _python_fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this package, at the default
    recursion limit as a user's would be."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=_fresh_env(), timeout=120
    )


def _run_fresh(*argv: str) -> subprocess.CompletedProcess:
    """``robinspace`` in a fresh interpreter."""
    return _python_fresh("-m", "robinspace.cli", *argv)


def test_translate_deep_document_exits_2(tmp_path):
    depth = 3000
    text = (
        '{"kind": "pq", "root": '
        + "".join(f'{{"type": "P", "children": [{json.dumps(_leaf(p))}, ' for p in range(depth))
        + json.dumps(_leaf(depth))
        + "]}" * depth
        + "}"
    )
    mpath = tmp_path / "m.txt"
    mpath.write_text(DEMO_TEXT)
    dpath = tmp_path / "deep.json"
    dpath.write_text(text)
    proc = _run_fresh("translate", "-i", str(dpath), "-m", str(mpath))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")


def _caterpillar(tmp_path, n: int) -> str:
    """Triangle file of d(i, j) = max(i, j), whose trees are n - 1 levels deep."""
    path = tmp_path / "caterpillar.txt"
    rows = (" ".join(str(max(i, j)) for j in range(i + 1, n)) for i in range(n - 1))
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_recognize_deep_tree_prints_compact(tmp_path):
    # an indented document of the caterpillar's PQ-tree would be about 40 MB
    proc = _run_fresh("recognize", "-i", _caterpillar(tmp_path, 1500))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert len(proc.stdout) < 1_000_000
    # one line; too deep for json.loads at the default recursion limit
    assert proc.stdout.count("\n") == 1
    assert proc.stdout.startswith('{"robinson":true,"order":[')


@pytest.mark.parametrize("fmt", ["json", "ascii", "dot"])
def test_deep_dendrogram_prints_in_every_format(tmp_path, fmt):
    # the writers are iterative; json's encoder recurses once per level
    n = 1500
    proc = _run_fresh("tree", "-i", _caterpillar(tmp_path, n), "-t", "dendrogram", "-f", fmt)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    if fmt == "json":
        assert proc.stdout.count("\n") == 1
        assert proc.stdout.startswith('{"kind":"dendrogram","root":{')
    elif fmt == "ascii":
        assert proc.stdout.startswith(f"({n - 1}: {n - 1} ({n - 2}: {n - 2} (")
    else:
        assert proc.stdout.count(" -- ") == 2 * (n - 1)


def test_deep_documents_translate_back(tmp_path):
    # each document nests 2n containers, past json.loads at the default limit
    matrix = _caterpillar(tmp_path, 1500)
    served = {}
    for kind in ("pq", "mmodule"):
        proc = _run_fresh("tree", "-i", matrix, "-t", kind)
        assert proc.returncode == 0, proc.stderr[-2000:]
        served[kind] = tmp_path / f"{kind}.json"
        served[kind].write_text(proc.stdout)
    back = {}
    for kind in ("pq", "mmodule"):
        proc = _run_fresh("translate", "-i", str(served[kind]), "-m", matrix)
        assert proc.returncode == 0, proc.stderr[-2000:]
        back[kind] = proc.stdout
    # each document translates to exactly the other served document
    assert back["pq"] == served["mmodule"].read_text()
    assert back["mmodule"] == served["pq"].read_text()


def test_public_calls_leave_the_recursion_limit(capsys, tmp_path):
    # the caterpillar's trees are n - 1 levels deep, past the default limit
    n = 1200
    path = _caterpillar(tmp_path, n)
    m = cli.parse_matrix(Path(path).read_text())
    pts = range(n)
    limit = sys.getrecursionlimit()

    def unchanged(fn, *args):
        out = fn(*args)
        assert sys.getrecursionlimit() == limit, fn.__name__
        return out

    # no == on the trees: the generated dataclass __eq__ recurses
    tree = unchanged(copoints.pq_tree2, m, pts)
    assert unchanged(pq.equivalent, tree, tree)
    assert unchanged(copoints.recognize_robinson, m).accepted
    mtree = unchanged(mm.mmodule_tree, m, pts)
    unchanged(translate.pq_to_mmodule_tree, m, tree)
    unchanged(translate.mmodule_to_pq_tree, m, mtree)
    unchanged(pq.normalize, m, tree)
    unchanged(pq.normal_form, tree)
    normal = unchanged(mm.normal_form, mtree)
    assert unchanged(core.first_difference, normal, mm.normal_form(mtree)) is None
    unchanged(dg.build_dendrogram, m, pts)
    # point 0 sees every other point at a distance of its own
    forest = unchanged(refine.stable_trees, m, [dg.build_dendrogram(m, range(1, n)), Leaf(0)])
    assert len(forest) == n
    assert unchanged(mm.is_mmodule_via_tree, mtree, [0, 1])
    unchanged(carved, m, pts)
    with cli._recursion_room(10):
        assert sys.getrecursionlimit() == limit + 10
    assert sys.getrecursionlimit() == limit
    for kind in ("pq", "mmodule", "dendrogram"):
        assert unchanged(cli.main, ["tree", "-i", path, "-t", kind]) == 0
        doc = tmp_path / f"{kind}.json"
        doc.write_text(capsys.readouterr().out)
        if kind != "dendrogram":
            assert unchanged(cli.main, ["translate", "-i", str(doc), "-m", path]) == 0
            capsys.readouterr()
    assert unchanged(cli.main, ["recognize", "-i", path]) == 0


def test_every_json_output_is_one_compact_line(capsys, tmp_path):
    mpath = tmp_path / "m.txt"
    mpath.write_text(WORKED12_TEXT)
    refuse = tmp_path / "refuse.txt"
    refuse.write_text(cli.serialize_matrix(NONROB4))

    def run(argv, code=0):
        assert cli.main(argv) == code, argv
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n", argv
        return out

    run(["recognize", "-i", str(mpath)])
    run(["recognize", "-i", str(refuse)], 1)
    run(["tree", "-i", str(mpath), "-t", "dendrogram"])
    for kind in ("pq", "mmodule"):
        dpath = tmp_path / f"{kind}.json"
        dpath.write_text(run(["tree", "-i", str(mpath), "-t", kind]))
        run(["translate", "-i", str(dpath), "-m", str(mpath)])
    run(["bench", "--sizes", "8", "--reps", "0", "-f", "json"])


def test_document_walks_need_no_recursion_headroom():
    # chains 3,000 levels deep, built by hand
    script = """
import sys
from robinspace import cli, dendrogram as dg, mmodtree as mm, pqtree as pq
from robinspace.core import DissimilarityMatrix, Leaf, iter_nodes

depth = 3000
limit = sys.getrecursionlimit()
chains = {"pq": Leaf(0), "mmodule": Leaf(0), "dendrogram": Leaf(0)}
for p in range(1, depth + 1):
    chains["pq"] = pq.P((Leaf(p), chains["pq"]))
    chains["mmodule"] = mm.Cap((Leaf(p), chains["mmodule"]), 5 * p, 1)
    chains["dendrogram"] = dg.Internal(5 * p, [Leaf(p), chains["dendrogram"]])
matrix = DissimilarityMatrix([[0]], 10)

def shape(tree):
    return [(type(node).__name__, vars(node).get("point"), vars(node).get("weight"),
             vars(node).get("special"), vars(node).get("large_child"))
            for node in iter_nodes(tree)]

for kind, tree in chains.items():
    doc = cli.tree_to_doc(kind, tree, matrix)
    back_kind, back = cli.doc_to_tree(doc, matrix.scale)
    assert back_kind == kind and shape(back) == shape(tree), kind
    text = cli.ascii_tree(doc)
    assert text.count(" ") >= depth and text.endswith(")" * depth), kind
    assert cli.dot_tree(doc).count(" -- ") == 2 * depth, kind
assert cli.ascii_tree(cli.tree_to_doc("dendrogram", chains["dendrogram"], matrix)).startswith(
    "(1500: 3000 (1499.5: 2999 ("
)
assert sys.getrecursionlimit() == limit
print("ok")
"""
    proc = _python_fresh("-c", script)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout == "ok\n"


# --- generator ----------------------------------------------------------------


def test_generate_is_deterministic():
    a = cli.generate_matrix(30, 7, "generic")
    b = cli.generate_matrix(30, 7, "generic")
    c = cli.generate_matrix(30, 8, "generic")
    assert a.rows == b.rows
    assert a.rows != c.rows


def test_generate_profiles_are_robinson():
    for profile in cli.PROFILES:
        for seed in range(3):
            m = cli.generate_matrix(17, seed, profile)
            assert copoints.recognize_robinson(m).accepted, (profile, seed)


def test_generate_single_point(capsys):
    assert cli.main(["generate", "-n", "1", "--seed", "3"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_generate_rejects_zero(capsys):
    assert cli.main(["generate", "-n", "0"]) == 2


def test_generate_command_output_parses(capsys):
    assert cli.main(["generate", "-n", "9", "--seed", "2", "--profile", "tie-heavy"]) == 0
    out = capsys.readouterr().out
    assert out == cli.serialize_matrix(cli.generate_matrix(9, 2, "tie-heavy"))
    assert cli.parse_matrix(out).n == 9


def test_generate_ends_quietly_when_its_reader_stops_early():
    # about 1 MB of lines, far more than a pipe holds, so the writes go on
    # after the reader has closed its end, as in ``generate | head -c 64``
    proc = subprocess.Popen(
        [sys.executable, "-m", "robinspace.cli", "generate", "-n", "400"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_fresh_env(),
    )
    head = proc.stdout.read(64)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert len(head) == 64
    assert (proc.returncode, err) == (0, b"")


def test_ultrametric_profile_is_ultrametric():
    m = cli.generate_matrix(20, 4, "ultrametric")
    for i in range(20):
        for j in range(20):
            for k in range(20):
                assert m.rows[i][j] <= max(m.rows[i][k], m.rows[k][j])



# sha256 of serialize_matrix(generate_matrix(n, seed, profile)) for n in
# GOLDEN_SIZES, pinned before the generator was rewritten for speed: every
# test and benchmark input it feeds stays the same, byte for byte
GOLDEN_SIZES = (1, 2, 3, 17, 64, 300)
GOLDEN_DIGESTS = {
    ("generic", 0): (
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        "a987a078cae2f800cb79597c97182176a5c5284af976c13764dc532e2f4dea8f",
        "1ffe52cbd37e103b938eeb4595cc007784cb1905076ef2a7c30cf7e03545a578",
        "6bf43391e0b90b19d0d645c984713f0076e93f99b8e829a61e869f23bfab4b69",
        "56094e16a6c80a6fd9895c68daf0566ed6802cbd82d12c96e22c27e47c28322c",
        "89c1b1aef57e06f51f698f920b84139577c2119ad795cb3253149d71d1da00db",
    ),
    ("generic", 7): (
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        "a987a078cae2f800cb79597c97182176a5c5284af976c13764dc532e2f4dea8f",
        "bfde8a91c78e9f9f2c9947fc81a1f1fea18b0b23788c2913cbeed0564d6c7ddc",
        "406d9f4722b40f08b4d789f6e92ccfa6a995f801e34bfd2e999eac3f9952f27f",
        "f57d4ff67314f0e9dc3004623015e06317e455c8ab5e571bb7dde65244a64097",
        "fcfd774f7331fcd908ea969a70c3f32bb74f9185ce87da2ec245ffa577e8b299",
    ),
    ("ultrametric", 0): (
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        "e2625a1c6a49c24f161358b8570da0277d51651e9761e95fa018a54a51c316e4",
        "42f429d5770524beeab07a2bab3f995e0ed9002beb9229afdfcfae1f060426c2",
        "2913355805357bfc6025d2059e527a84da93d00d7126304dc256f3b39d7e3158",
        "4dd4eee488238aedf6685e52d5389dca214b371dcf1b6ac87de5a36cb670ab98",
        "57584f8f8174b9e05e3475bb79cf57a996c2cb58a24b41a4d40bd3aea2245b2e",
    ),
    ("ultrametric", 7): (
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        "2f2c2670b5340093591a480cc0993c3177d270698f0a59fb26c4a2cf89f4d6e3",
        "dfc67af15c8280ee0c89aed1452dc3119efaf816486ba3668b8e9eabfe62b567",
        "c13cbac0a9e973c9e10002a99748078bd1322bf1953b921cd703ac7b5226344b",
        "582bdafc994b41bdb3b10d50483f60c113cdb39ae6b50cafe82d9877c7b7f3bd",
        "8637a8899047a222a9033c9459e78af7e07026464278231827e9d45a522beeed",
    ),
    ("flat-heavy", 0): (
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        "19d8e8cf6b93224d3388548d5f8bdee4cd4e033d416d8631b8c44db208da788d",
        "82d94533100161b6dbe47333d50c23cfbbdc281e89c5f38242dc6c1dc11c3f09",
        "e3e94a9d4903b19c81796d29618a2a94ae6f4956d3e612f0fbb00e0415dc89e2",
        "d2306432d04b2f239c60296979ac4afd5117a5dde715bf80bd2abf35bf585adf",
        "2fed82760e51c8d814188a540775a63ee664d347b634c3cd17e201d737fc0668",
    ),
    ("flat-heavy", 7): (
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        "19d8e8cf6b93224d3388548d5f8bdee4cd4e033d416d8631b8c44db208da788d",
        "d9f5c19c6fb102fa222d19258c662b4c99bd8b12783ef8c410ca94ef4db0b1a4",
        "90b6c83231ab01757e46149b843b949abe5fb25c12a578289c628a2c1f79f262",
        "926d2a77edc1b4399b43f375de49a948c169fb1fd97d8018fef95770c4a84365",
        "a6b065551a78b654b02d96c925a62e729e9bcae05af471db335fa95b71874794",
    ),
    ("tie-heavy", 0): (
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        "19d8e8cf6b93224d3388548d5f8bdee4cd4e033d416d8631b8c44db208da788d",
        "ecc64957444c77cf9839009f033c36f605e83c31ddd35919c3c688bfdffe02c9",
        "b0b466fec2b96acc0e61a7a271bfab1220a6743b97e2deda90e8fbaad2af5761",
        "942a057d76059a7409fd6bd0d892c69de6f887db6016d994ecfb2c3f00896905",
        "ada251a272325d8c6155de53f88ade784367c71d58db8637f2e2ecea1371d795",
    ),
    ("tie-heavy", 7): (
        "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
        "a987a078cae2f800cb79597c97182176a5c5284af976c13764dc532e2f4dea8f",
        "bfde8a91c78e9f9f2c9947fc81a1f1fea18b0b23788c2913cbeed0564d6c7ddc",
        "8ae08e241f217284b92f5319d82115c8b575e3a717854c9f7603250f8f6c504c",
        "d835671b41220e39100265549199fd5b03266ded9626b042c00213c6f189176c",
        "71f312ca9c0e7803aa5d48b5aa340d5aef1ca2e1741bc2eefe5d590839103f09",
    ),
}


@pytest.mark.parametrize("profile, seed", list(GOLDEN_DIGESTS))
def test_generate_matches_golden_digests(profile, seed):
    texts = (cli.serialize_matrix(cli.generate_matrix(n, seed, profile)) for n in GOLDEN_SIZES)
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)
    assert digests == GOLDEN_DIGESTS[profile, seed]


@pytest.mark.parametrize("profile", cli.PROFILES)
def test_generated_weights_are_interned(profile):
    rows = cli.generate_matrix(200, 3, profile).rows
    assert all(type(row) is tuple for row in rows)
    entries = [v for row in rows for v in row]
    # at this size only generic and flat-heavy weights pass 256, the top of
    # the interpreter's own shared small ints, but the check holds for all
    assert len({id(v) for v in entries}) == len(set(entries))
    if profile in ("generic", "tie-heavy"):
        # the copies of one base point are one row object, and at this seed
        # no two base points have equal rows, so equal rows are one object
        assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)


def test_generate_rejects_unknown_profile():
    with pytest.raises(ValueError, match="nope.*generic, ultrametric, flat-heavy, tie-heavy"):
        cli.generate_matrix(5, 0, "nope")


@pytest.mark.parametrize("profile", cli.PROFILES)
def test_generation_holds_one_grid(profile):
    tracemalloc.start()
    try:
        matrix = cli.generate_matrix(400, 0, profile)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each staircase row is dropped once its copies are gathered, so the
    # peak is the result and a few rows, not the result and the staircase
    assert matrix.n == 400
    assert peak <= 1.25 * size, (peak, size)


# --- bench ---------------------------------------------------------------------


def test_bench_zero_reps(capsys):
    assert cli.main(["bench", "--sizes", "32", "--reps", "0", "-f", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["medians"] == {}
    assert report["ratios"] == {}
    assert report["generate_s"] == {}


def test_bench_small_json_shape(capsys):
    assert cli.main(["bench", "--sizes", "32,64", "--reps", "1", "-f", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sizes"] == [32, 64]
    assert set(report["medians"]) == {"32", "64"}
    assert set(report["medians"]["32"]) == set(cli.BENCH_OPS)
    assert set(report["ratios"]) == {"64/32"}
    assert all(v > 0 for v in report["medians"]["64"].values())
    assert set(report["generate_s"]) == {"32", "64"}
    assert all(v > 0 for v in report["generate_s"].values())


def test_bench_profile(capsys):
    argv = ["bench", "--profile", "tie-heavy", "--sizes", "32,64", "--reps", "1", "-f", "json"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["profile"] == "tie-heavy"
    assert set(report["medians"]) == {"32", "64"}
    assert set(report["ratios"]) == {"64/32"}


def test_bench_text_format(capsys):
    assert cli.main(["bench", "--sizes", "16,32", "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert "ratio 32/16" in out
    last = out.splitlines()[-1]
    assert last.startswith("generate") and "n=16" in last and "n=32" in last


def test_bench_calls_each_op_once_untimed_then_five_times_per_rep(monkeypatch, capsys):
    # every (rep, size) warms each op with one untimed call, not only the first rep
    calls = {"dendrogram": 0, "verify": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(dg, "build_dendrogram", counted("dendrogram", dg.build_dendrogram))
    monkeypatch.setattr(core, "violating_triple", counted("verify", core.violating_triple))
    assert cli.main(["bench", "--sizes", "8", "--reps", "2", "-f", "json"]) == 0
    capsys.readouterr()
    assert calls == {"dendrogram": 2 * 6, "verify": 2 * 6}


@pytest.mark.parametrize("sizes", ["", ",", "8,0", "-4", "8,x"])
def test_bench_rejects_bad_sizes(sizes, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--sizes", sizes, "--reps", "2"])
    assert exc.value.code == 2
    assert "argument --sizes" in capsys.readouterr().err


@pytest.mark.parametrize("reps", ["-3", "x"])
def test_bench_rejects_bad_reps(reps, capsys):
    # a negative count used to exit 2 late, with "no median for empty data"
    with pytest.raises(SystemExit) as exc:
        cli.main(["bench", "--sizes", "8", "--reps", reps])
    assert exc.value.code == 2
    assert "argument --reps" in capsys.readouterr().err
