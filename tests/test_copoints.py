from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracle
import reference
from conftest import (
    EQUAL3,
    FLAT3,
    NONROB4,
    SHAPES,
    WORKED12,
    matrix_from_triangle,
    profile_subsets,
    robinson_matrices,
    shape_matrix,
    shape_subsets,
    spine_with_block,
    symmetric_matrices,
)
from robinspace import cli, copoints as cop, core, generator, mmodtree as mm
from robinspace import pqtree as pq, refine, translate
from robinspace.core import DissimilarityMatrix
from robinspace.pqtree import Leaf, P, Q

FIG12 = Q(
    (
        Q((Leaf(0), P((Leaf(1), Leaf(2))), Leaf(3))),
        P((Leaf(4), Leaf(5), Leaf(6))),
        Q((Leaf(7), Leaf(8), P((Leaf(9), Leaf(10))), Leaf(11))),
    )
)


def test_copoints_at_frozen():
    classes = refine.copoint_partition(WORKED12, 0, range(12))
    assert classes == [(0,), (1, 2), (3,), (4, 5, 6), (7, 8, 9, 10, 11)]


def test_frontiers_frozen():
    classes = refine.copoint_partition(WORKED12, 0, range(12))
    assert reference.frontiers(WORKED12, classes) == [False, True, False, True]


def test_next_frontier_traces():
    cp0 = refine.copoint_partition(WORKED12, 0, range(12))
    left, i, right = cop.next_frontier(WORKED12, 0, [list(c) for c in cp0[1:]])
    assert (left, i) == ([], 2)
    assert right == [[4, 5, 6], [7, 8, 9, 10, 11]]

    cp7 = refine.copoint_partition(WORKED12, 7, range(7, 12))
    left, i, right = cop.next_frontier(WORKED12, 7, [list(c) for c in cp7[1:]])
    assert (left, i) == ([], 0)
    assert right == [[8], [9, 10], [11]]

    # both sides in use: at 1, copoint {0} ties with the last copoint {4},
    # so it stays undecided until {2} is sided left, then takes the right
    m = matrix_from_triangle([[4, 13, 7, 4, 9], [4, 1, 4, 1], [3, 17, 2], [7, 0], [12]])
    cp1 = refine.copoint_partition(m, 1, range(6))
    assert cp1 == [(1,), (3,), (5,), (2,), (0,), (4,)]
    left, i, right = cop.next_frontier(m, 1, [list(c) for c in cp1[1:]])
    assert (left, i, right) == ([[2], [5], [3]], 0, [[0], [4]])


def test_admissible_hole_for_split_apex():
    # the two pieces of the split pair {9,10} slot between 8 and 11
    assert cop.admissible_hole(WORKED12, 2, (Leaf(7), Leaf(8), Leaf(11))) == 2


WHOLE_SETS = robinson_matrices(max_n=10).map(lambda m: (m, range(m.n)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(WHOLE_SETS, profile_subsets(), spine_with_block()))
def test_admissible_hole_meets_its_definition(case):
    # Every slot the construction and the translation place a block at
    # uniform distance delta in: each pair across the slot is at least
    # delta apart, and each side stays within delta, as a compatible
    # order through the block demands.
    m, pts = case
    calls = []
    hole = cop.admissible_hole

    def recording(matrix, delta, children):
        j = hole(matrix, delta, children)
        calls.append((delta, children, j))
        return j

    with mock.patch.object(cop, "admissible_hole", recording), mock.patch.object(
        translate, "admissible_hole", recording
    ):
        t = cop.pq_tree2(m, pts)
        translate.mmodule_to_pq_tree(m, translate.pq_to_mmodule_tree(m, t))
    rows = m.rows
    for delta, children, j in calls:
        left = [x for c in children[:j] for x in core.leaf_points(c)]
        right = [x for c in children[j:] for x in core.leaf_points(c)]
        assert left and right
        assert all(rows[x][y] >= delta for x in left for y in right)
        for side in (left, right):
            assert all(rows[x][y] <= delta for x in side for y in side)


@settings(max_examples=300, deadline=None)
@given(st.one_of(WHOLE_SETS, profile_subsets(), spine_with_block()))
def test_apex_attach_merges_where_the_delta_graph_splits(case):
    # When p's subtree joins the conical apex at delta, ``pq.node`` merges
    # it into the apex exactly when the apex is a P-node whose children
    # sit delta apart; that must be exactly when the apex points fall
    # apart in the delta-graph.  Each apex found is paired with the next
    # ``node`` call, the attach when it builds a P-node over that apex.
    m, pts = case
    found, attaches = [], []
    conical, node = pq.conical_apex, pq.node

    def recording_apex(matrix, children):
        hit = conical(matrix, children)
        if hit is not None:
            found.append((hit[0], children[hit[1]]))
        return hit

    def recording_node(matrix, kind, kids):
        if found:
            delta, apex = found.pop()
            if kind is P and kids[0] is apex:
                attaches.append((delta, apex))
        return node(matrix, kind, kids)

    with mock.patch.object(pq, "conical_apex", recording_apex), mock.patch.object(
        pq, "node", recording_node
    ):
        cop.pq_tree2(m, pts)
    rows = m.rows
    for delta, apex in attaches:
        merged = isinstance(apex, P) and rows[core.first_leaf(apex.children[0])][
            core.first_leaf(apex.children[1])
        ] == delta
        split = len(reference.delta_graph_components(m, core.leaf_points(apex), delta)) > 1
        assert merged == split


def test_apex_attach_merges_a_split_apex():
    # the spine 1 - {2, 3} - 4 with d(1, 4) = 2 and the block {0}, all
    # else at delta = 1: p = 0 joins the apex {2, 3}, which falls apart
    # at delta, so its points and 0 go in any order between 1 and 4
    m = matrix_from_triangle([[1, 1, 1, 1], [1, 1, 2], [1, 1], [1]])
    tree = cop.pq_tree2(m, range(5))
    assert pq.equivalent(tree, Q((Leaf(1), P((Leaf(2), Leaf(3), Leaf(0))), Leaf(4))))
    assert pq.count_orders(tree) == len(oracle.brute_compatible_orders(m, range(5))) == 12


def test_pq_tree2_block_shapes():
    t = cop.pq_tree2(WORKED12, [0, 1, 2, 3])
    assert pq.equivalent(t, Q((Leaf(0), P((Leaf(1), Leaf(2))), Leaf(3))))
    t = cop.pq_tree2(WORKED12, range(7, 12))
    assert pq.equivalent(
        t, Q((Leaf(7), Leaf(8), P((Leaf(9), Leaf(10))), Leaf(11)))
    )


def test_pq_tree2_worked_example():
    assert pq.equivalent(cop.pq_tree2(WORKED12, range(12)), FIG12)


def test_pq_tree2_three_point_spaces():
    assert pq.equivalent(
        cop.pq_tree2(EQUAL3, range(3)), P((Leaf(0), Leaf(1), Leaf(2)))
    )
    flat = cop.pq_tree2(FLAT3, range(3))
    assert pq.equivalent(flat, Q((Leaf(0), Leaf(1), Leaf(2))))
    assert pq.count_orders(flat) == 2


def test_pq_tree2_tiny_subsets():
    one = DissimilarityMatrix([[0]])
    assert cop.pq_tree2(one, [0]) == Leaf(0)
    pair = cop.pq_tree2(WORKED12, [4, 9])
    assert pq.equivalent(pair, Q((Leaf(4), Leaf(9))))


def test_recognize_worked_example():
    got = cop.recognize_robinson(WORKED12)
    assert got.accepted
    assert got.witness == (0, 2, 1, 3, 6, 5, 4, 7, 8, 10, 9, 11)
    assert core.is_compatible_order(WORKED12, got.witness)
    assert pq.equivalent(got.tree, FIG12)


# 4-point matrices where p's subtree meets a wide tree with no linear
# spine, and a spine with no wide enough gap: the construction falls
# back to a P-node, and the refusal must still name a triple
NO_SPINE4 = matrix_from_triangle([[1, 1, 1], [3, 3], [3]])
NO_GAP4 = matrix_from_triangle([[2, 2, 2], [3, 1], [1]])


def test_recognize_rejects_with_witness_triple(capsys, tmp_path):
    for m in (NONROB4, NO_SPINE4, NO_GAP4):
        got = cop.recognize_robinson(m)
        assert not got.accepted
        assert got.tree is None and got.witness is None
        assert got.reason
        x, y, z = got.violation
        # the triple really violates every possible placement
        d = m.rows
        assert d[x][z] < max(d[x][y], d[y][z])
        path = tmp_path / "m.txt"
        path.write_text(reference.serialize_matrix(m))
        assert cli.main(["recognize", "-i", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["robinson"] is False
        assert report["violation"] == [x, y, z]


@st.composite
def refusal_probes(draw) -> DissimilarityMatrix:
    """A matrix that is mostly not Robinson: a generated profile matrix
    (n <= 40) or a random Robinson matrix (n <= 10) with up to three
    entries redrawn, or an arbitrary symmetric matrix (n <= 7)."""
    family = draw(st.sampled_from(["profile", "robinson", "symmetric"]))
    if family == "symmetric":
        return draw(symmetric_matrices(max_n=7))
    if family == "profile":
        n = draw(st.integers(2, 40))
        m = generator.generate_matrix(n, draw(st.integers(0, 10**6)), draw(st.sampled_from(generator.PROFILES)))
    else:
        m = draw(robinson_matrices(max_n=10))
    rows = [list(row) for row in m.rows]
    top = max(map(max, rows)) + 1
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.lists(st.integers(0, m.n - 1), min_size=2, max_size=2, unique=True))
        rows[i][j] = rows[j][i] = draw(st.integers(0, top))
    return DissimilarityMatrix(rows)


@settings(max_examples=400, deadline=None)
@given(refusal_probes())
def test_every_refusal_carries_a_checked_triple(m):
    got = cop.recognize_validated(m)
    if got.accepted:
        return
    assert got.violation is not None, got.reason
    x, y, z = got.violation
    assert len({x, y, z}) == 3
    d = m.rows
    assert d[x][z] < max(d[x][y], d[y][z])
    # the construction is total, so its order can be rebuilt and checked
    order = pq.canonical_order(cop.pq_tree2(m, range(m.n)))
    assert reference.violating_triple_loop(m, order) is not None


@pytest.mark.parametrize("profile", ["generic", "ultrametric", "flat-heavy", "tie-heavy"])
def test_refusal_names_violating_triple_on_planted_obstruction(profile):
    # four consecutive middle points of a compatible order become a 4-cycle
    # a-b-d-c with short sides and long diagonals, which no order can hold
    base = generator.generate_matrix(200, 0, profile)
    order = cop.recognize_robinson(base).witness
    rows = [list(r) for r in base.rows]
    a, b, c, d = order[98:102]
    short = min(rows[a][b], rows[b][c], rows[c][d])
    long = max(rows[a][d], short + 1)
    for x, y in ((a, b), (b, d), (d, c), (c, a)):
        rows[x][y] = rows[y][x] = short
    for x, y in ((a, d), (b, c)):
        rows[x][y] = rows[y][x] = long
    got = cop.recognize_robinson(DissimilarityMatrix(rows))
    assert not got.accepted
    assert got.violation is not None, got.reason
    x, y, z = got.violation
    assert len({x, y, z}) == 3
    assert rows[x][z] < max(rows[x][y], rows[y][z])


CATERPILLAR = """
import sys
from robinspace import copoints, core, mmodtree as mm

n = 3000
limit = sys.getrecursionlimit()
# d(i, j) = max(i, j): an ultrametric whose dendrogram is a chain n deep
vals = list(range(n))
m = core.DissimilarityMatrix([[i] * i + [0] + vals[i + 1 :] for i in vals])
got = copoints.recognize_robinson(m)
assert got.accepted
assert sorted(got.witness) == vals and core.is_compatible_order(m, got.witness)
tree = mm.mmodule_tree(m, vals)
assert sorted(core.leaf_points(tree)) == vals
assert not any(isinstance(node, mm.Cup) for node in core.iter_nodes(tree))
assert sys.getrecursionlimit() == limit
print(limit)
"""


def test_deep_caterpillar_recognized_from_default_recursion_limit():
    # a fresh interpreter starts at the default recursion limit, as a
    # user's would; the builders must work within it and leave it alone
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cop.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", CATERPILLAR], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "RecursionError" not in proc.stderr
    assert int(proc.stdout) < 3000


def _recognition_s(m: DissimilarityMatrix) -> float:
    """Seconds to recognize ``m``, the best of three runs."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        cop.recognize_validated(m)
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_recognition_scales_quadratically_on_shapes(shape):
    # shapes outside the generator profiles, where a cubic scan hides;
    # exact n^2 growth gives 16x from 256 to 1024 points
    small, large = shape_matrix(shape, 256), shape_matrix(shape, 1024)
    got = cop.recognize_validated(large)
    assert got.accepted
    assert sorted(got.witness) == list(range(1024))
    assert core.is_compatible_order(large, got.witness)
    ratio = _recognition_s(large) / _recognition_s(small)
    if ratio > 40:
        # a cubic construction shows ~64x on every run, which one retry
        # cannot hide; retrying only shields against host timing spikes
        ratio = _recognition_s(large) / _recognition_s(small)
    assert ratio <= 40, f"{shape}: time(1024) / time(256) is {ratio:.1f}"


def test_recognize_singleton():
    got = cop.recognize_robinson(DissimilarityMatrix([[0]]))
    assert got.accepted and got.witness == (0,)


def test_copoints_from_mmodule_tree_frozen():
    tree = mm.mmodule_tree(WORKED12, range(12))
    assert set(reference.copoints_from_mmodule_tree(tree, 0)) == {
        (1, 2),
        (3,),
        (4, 5, 6),
        (7, 8, 9, 10, 11),
    }
    assert set(reference.copoints_from_mmodule_tree(tree, 4)) == {
        (5, 6),
        (0, 1, 2, 3),
        (7, 8, 9, 10, 11),
    }


def test_copoints_from_mmodule_tree_all_points():
    tree = mm.mmodule_tree(WORKED12, range(12))
    for p in range(12):
        want = set(refine.copoint_partition(WORKED12, p, range(12))[1:])
        assert set(reference.copoints_from_mmodule_tree(tree, p)) == want


def test_upsilon_frontier_frozen():
    t12 = cop.pq_tree2(WORKED12, range(12))
    assert reference.upsilon_frontier_check(WORKED12, t12, 0).matched == (
        (0, 1, 2, 3),
        tuple(range(12)),
    )
    assert reference.upsilon_frontier_check(WORKED12, t12, 9).matched == (
        (7, 8, 9, 10, 11),
        tuple(range(12)),
    )


def test_upsilon_frontier_all_points():
    t12 = cop.pq_tree2(WORKED12, range(12))
    for p in range(12):
        rep = reference.upsilon_frontier_check(WORKED12, t12, p)
        assert rep.p == p


@settings(max_examples=150, deadline=None)
@given(robinson_matrices(max_n=8))
def test_tree_orders_equal_brute_orders(m):
    tree = cop.pq_tree2(m, range(m.n))
    got = sorted(oracle.enumerate_orders(tree, cap=150_000))
    assert got == oracle.brute_compatible_orders(m, range(m.n))


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices(max_n=7))
def test_verdict_matches_brute_search(m):
    got = cop.recognize_robinson(m)
    want = bool(oracle.brute_compatible_orders(m, range(m.n)))
    assert got.accepted == want
    if got.accepted:
        assert core.is_compatible_order(m, got.witness)


@settings(max_examples=80)
@given(robinson_matrices(max_n=7))
def test_every_pq_internal_is_a_block_interval(m):
    # each internal node's leaf set is an interval of the canonical order
    tree = cop.pq_tree2(m, range(m.n))
    order = pq.canonical_order(tree)
    where = {x: i for i, x in enumerate(order)}
    for node in core.iter_nodes(tree):
        pts = sorted(where[x] for x in core.leaf_points(node))
        assert pts == list(range(pts[0], pts[0] + len(pts)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(profile_subsets(), shape_subsets()))
def test_constructed_tree_is_already_normalized(case):
    m, pts = case
    tree = cop.pq_tree2(m, pts)
    assert pq.normalize(m, tree) == tree
