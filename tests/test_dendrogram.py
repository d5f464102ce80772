from __future__ import annotations

import pytest
from hypothesis import given, settings

from conftest import EQUAL3, FLAT3, WORKED12, robinson_matrices, symmetric_matrices
from robinspace import dendrogram as dg, oracle
from robinspace.core import iter_nodes, leaf_points
from robinspace.dendrogram import EmptySubset, Internal, Leaf, NotALeaf


def test_worked_example_clusters():
    tree = dg.build_dendrogram(WORKED12, range(12))
    got = dg.clusters(tree)
    assert got == {
        ((1, 2), 1),
        ((4, 5, 6), 1),
        ((7, 8), 1),
        ((0, 1, 2, 3), 2),
        ((7, 8, 9, 10, 11), 2),
        ((0, 1, 2, 3, 4, 5, 6), 5),
        ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11), 6),
    }
    assert {w for _, w in got} == {1, 2, 5, 6}


def test_flat3_shape():
    tree = dg.build_dendrogram(FLAT3, range(3))
    assert isinstance(tree, Internal) and tree.weight == 1
    assert sorted(leaf_points(tree)) == [0, 1, 2]


def test_equal3_single_cluster():
    tree = dg.build_dendrogram(EQUAL3, range(3))
    assert dg.clusters(tree) == {((0, 1, 2), 1)}


def test_singleton_is_leaf():
    tree = dg.build_dendrogram(WORKED12, [5])
    assert tree == Leaf(5)


def test_empty_subset_rejected():
    with pytest.raises(EmptySubset):
        dg.build_dendrogram(WORKED12, [])


def test_subdominant_distance_frozen():
    tree = dg.build_dendrogram(WORKED12, range(12))
    assert dg.subdominant_distance(tree, 0, 7) == 6
    assert dg.subdominant_distance(tree, 0, 1) == 2
    assert dg.subdominant_distance(tree, 1, 2) == 1
    assert dg.subdominant_distance(tree, 9, 10) == 2
    assert dg.subdominant_distance(tree, 4, 4) == 0


def test_subdominant_distance_rejects_outsiders():
    tree = dg.build_dendrogram(WORKED12, [0, 1, 2])
    with pytest.raises(NotALeaf):
        dg.subdominant_distance(tree, 0, 7)


def test_cluster_of_root_and_leaf():
    tree = dg.build_dendrogram(WORKED12, range(12))
    assert tuple(sorted(leaf_points(tree))) == tuple(range(12))
    first = next(n for n in iter_nodes(tree) if isinstance(n, Leaf))
    assert leaf_points(first) == [first.point]


@settings(max_examples=150)
@given(robinson_matrices(max_n=8))
def test_matches_brute_subdominant(m):
    tree = dg.build_dendrogram(m, range(m.n))
    want = oracle.brute_subdominant(m, range(m.n))
    for x in range(m.n):
        for y in range(m.n):
            assert dg.subdominant_distance(tree, x, y) == want.rows[x][y]


@given(symmetric_matrices(max_n=7))
def test_matches_brute_subdominant_on_arbitrary_input(m):
    # the dendrogram never needs the input to be Robinson
    tree = dg.build_dendrogram(m, range(m.n))
    want = oracle.brute_subdominant(m, range(m.n))
    for x in range(m.n):
        for y in range(x + 1, m.n):
            assert dg.subdominant_distance(tree, x, y) == want.rows[x][y]


@given(robinson_matrices(max_n=8))
def test_weights_strictly_increase_to_root(m):
    tree = dg.build_dendrogram(m, range(m.n))
    for node in iter_nodes(tree):
        if isinstance(node, Internal):
            for child in node.children:
                if isinstance(child, Internal):
                    assert child.weight < node.weight


@given(robinson_matrices(max_n=8))
def test_leaves_partition_under_every_internal(m):
    tree = dg.build_dendrogram(m, range(m.n))
    assert sorted(leaf_points(tree)) == list(range(m.n))
    for node in iter_nodes(tree):
        if isinstance(node, Internal):
            seen = [x for c in node.children for x in leaf_points(c)]
            assert len(seen) == len(set(seen))
