from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import refine_reference as reference
from conftest import EQUAL3, WORKED12, profile_subsets, robinson_matrices, shape_subsets
from robinspace import cli, core, dendrogram as dg, oracle, refine
from robinspace import reference as rs_reference
from robinspace.reference import is_mmodule
from robinspace.refine import NotAPartition

PROFILES = ("generic", "ultrametric", "flat-heavy", "tie-heavy")


def test_refine_by_pivot_orders_and_preserves():
    # ascending distance buckets, input order kept inside each bucket
    split = refine._split_points(WORKED12.rows)
    assert [pts for _, pts in split(None, [4, 7, 1, 5], 0, set())] == [[1], [4, 5], [7]]


def test_stable_partition_finds_blocks():
    got = rs_reference.stable_partition(WORKED12, [list(range(7)), list(range(7, 12))])
    assert got == [(4, 5, 6), (0, 1, 2, 3), (7, 8, 9, 10, 11)]


def test_stable_partition_single_class_is_fixed():
    got = rs_reference.stable_partition(WORKED12, [list(range(12))])
    assert got == [tuple(range(12))]


def test_stable_partition_rejects_overlap():
    with pytest.raises(NotAPartition):
        rs_reference.stable_partition(WORKED12, [[0, 1], [1, 2]])
    with pytest.raises(NotAPartition):
        rs_reference.stable_partition(WORKED12, [[0], []])


def test_copoint_partition_frozen():
    assert refine.copoint_partition(WORKED12, 0, range(12)) == [
        (0,),
        (1, 2),
        (3,),
        (4, 5, 6),
        (7, 8, 9, 10, 11),
    ]
    assert refine.copoint_partition(WORKED12, 4, range(12)) == [
        (4,),
        (5, 6),
        (0, 1, 2, 3),
        (7, 8, 9, 10, 11),
    ]
    assert refine.copoint_partition(WORKED12, 9, range(12)) == [
        (9,),
        (7, 8, 10, 11),
        (4, 5, 6),
        (0, 1, 2, 3),
    ]


def test_copoint_partition_singleton():
    assert refine.copoint_partition(WORKED12, 3, [3]) == [(3,)]


# the tree carve that ``refine.stable_trees`` splits a class with
def test_pivot_tree_splits_inner_blocks():
    tree = dg.build_dendrogram(WORKED12, range(7))
    forest = refine._pivot_forest(WORKED12.rows, 7, tree)
    assert [sorted(core.leaf_points(s)) for s in forest] == [[4, 5, 6], [0, 1, 2, 3]]


def test_pivot_tree_constant_distance_survives_whole():
    tree = dg.build_dendrogram(WORKED12, [4, 5, 6])
    assert refine._pivot_forest(WORKED12.rows, 0, tree) == [tree]


def test_stable_trees_matches_stable_partition():
    trees = [
        dg.build_dendrogram(WORKED12, range(7)),
        dg.build_dendrogram(WORKED12, range(7, 12)),
    ]
    carved = refine.stable_trees(WORKED12, trees)
    assert [tuple(sorted(core.leaf_points(s))) for s in carved] == [
        (4, 5, 6),
        (0, 1, 2, 3),
        (7, 8, 9, 10, 11),
    ]


@given(robinson_matrices(max_n=7))
def test_stable_partition_classes_are_mmodules(m):
    n = m.n
    if n < 3:
        return
    half = n // 2
    got = rs_reference.stable_partition(m, [list(range(half)), list(range(half, n))])
    pts = list(range(n))
    for cls in got:
        assert is_mmodule(m, pts, cls)
    assert sorted(x for c in got for x in c) == pts


@given(robinson_matrices(max_n=7))
def test_stable_partition_is_a_fixpoint(m):
    n = m.n
    if n < 3:
        return
    once = rs_reference.stable_partition(m, [list(range(n - 1)), [n - 1]])
    again = rs_reference.stable_partition(m, [list(c) for c in once])
    assert again == once


@given(robinson_matrices(max_n=7))
def test_copoint_partition_starts_at_p_and_respects_distance(m):
    for p in range(m.n):
        classes = refine.copoint_partition(m, p, range(m.n))
        assert classes[0] == (p,)
        rp = m.rows[p]
        # PO1: class order never decreases in distance to p
        firsts = [rp[c[0]] for c in classes[1:]]
        assert firsts == sorted(firsts)
        for cls in classes[1:]:
            assert len(set(rp[x] for x in cls)) == 1


@settings(deadline=None)
@given(st.one_of(profile_subsets(), shape_subsets()), st.data())
def test_copoint_partition_classes_are_ascending(case, data):
    # the copoint construction splits each class again without sorting it
    m, pts = case
    shuffled = data.draw(st.permutations(pts))
    p = shuffled[0]
    classes = refine.copoint_partition(m, p, shuffled)
    assert classes[0] == (p,)
    assert all(list(c) == sorted(c) for c in classes[1:])


@settings(max_examples=60)
@given(robinson_matrices(max_n=6))
def test_copoint_partition_classes_are_copoints(m):
    pts = list(range(m.n))
    for p in pts:
        got = sorted(refine.copoint_partition(m, p, pts)[1:])
        want = sorted(c for c in oracle.brute_copoints(m, pts, p) if c != (p,))
        assert got == want


@settings(max_examples=40)
@given(robinson_matrices(max_n=6))
def test_proximity_order_is_universal(m):
    # PO2 against every compatible order: between p and any member of an
    # earlier class, no member of a later class may appear
    orders = oracle.brute_compatible_orders(m, range(m.n))
    for p in range(m.n):
        classes = refine.copoint_partition(m, p, range(m.n))[1:]
        for sigma in orders:
            where = {x: i for i, x in enumerate(sigma)}
            pp = where[p]
            for a, ca in enumerate(classes):
                for cb in classes[a + 1 :]:
                    for x in ca:
                        lo, hi = min(pp, where[x]), max(pp, where[x])
                        assert not any(lo < where[y] < hi for y in cb)


@st.composite
def generated_partitions(draw, max_n: int = 64):
    """A generated matrix of any profile and an ordered partition of its points."""
    n = draw(st.integers(1, max_n))
    m = cli.generate_matrix(n, draw(st.integers(0, 10**6)), draw(st.sampled_from(PROFILES)))
    pts = draw(st.permutations(range(n)))
    cuts = draw(st.lists(st.integers(1, max(1, n - 1)), max_size=3, unique=True)) if n > 1 else []
    bounds = [0, *sorted(cuts), n]
    return m, [list(pts[a:b]) for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=60, deadline=None)
@given(generated_partitions())
def test_engine_matches_reference_loops(case):
    m, classes = case
    pts = list(range(m.n))
    for p in pts:
        assert refine.copoint_partition(m, p, pts) == reference.copoint_partition(m, p, pts)
    sub = classes[0]
    for p in sub:
        assert refine.copoint_partition(m, p, sub) == reference.copoint_partition(m, p, sub)
    assert rs_reference.stable_partition(m, classes) == reference.stable_partition(m, classes)
    # dataclass equality: the same classes, in the same order, carved to
    # the same shapes with the same weights
    trees = [dg.build_dendrogram(m, c) for c in classes]
    assert refine.stable_trees(m, trees) == reference.stable_trees(m, trees)


def _with_reference_refinement(build):
    with mock.patch.object(rs_reference, "stable_trees", reference.stable_trees):
        return build()


@pytest.mark.parametrize("profile", PROFILES)
def test_mmodule_tree_matches_reference_loops(profile):
    for n, seed in ((2, 0), (13, 1), (64, 2), (200, 3)):
        m = cli.generate_matrix(n, seed, profile)
        build = rs_reference.mmodule_tree_from_dendrogram
        want = _with_reference_refinement(lambda: build(m, range(n)))
        assert build(m, range(n)) == want


def test_tree_carve_runs_only_for_splitting_pivots(monkeypatch):
    m = cli.generate_matrix(160, 3, "tie-heavy")
    pts = range(m.n)

    def counting(module, tally):
        carve = module._pivot_forest

        def wrapped(rows, q, tree):
            forest = carve(rows, q, tree)
            tally.append(len(forest))
            return forest

        return wrapped

    old: list[int] = []
    monkeypatch.setattr(reference, "_pivot_forest", counting(reference, old))
    build = rs_reference.mmodule_tree_from_dendrogram
    want = _with_reference_refinement(lambda: build(m, pts))
    splits = sum(k > 1 for k in old)
    assert 0 < splits < len(old)

    new: list[int] = []
    monkeypatch.setattr(refine, "_pivot_forest", counting(refine, new))
    assert build(m, pts) == want
    assert len(new) == splits
    assert all(k > 1 for k in new)
