from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EQUAL3, FLAT3, WORKED12, robinson_matrices, symmetric_matrices
from robinspace import cli, copoints, dendrogram as dg, oracle, reference
from robinspace.core import DissimilarityMatrix
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


# --- the sweep against the plain loop and the witness -------------------------


@st.composite
def _subsets(draw, n: int) -> list[int]:
    """A nonempty subset of range(n), sizes 1 and 2 drawn often."""
    size = draw(st.integers(1, min(2, n)) | st.integers(1, n))
    return draw(st.permutations(range(n)))[:size]


@st.composite
def _profile_inputs(draw):
    profile = draw(st.sampled_from(cli.PROFILES))
    m = cli.generate_matrix(draw(st.integers(1, 48)), draw(st.integers(0, 10**6)), profile)
    return m, draw(_subsets(m.n))


@st.composite
def _tied_inputs(draw):
    """Symmetric matrices over a 2- or 3-value alphabet: ties everywhere,
    mostly not Robinson."""
    n = draw(st.integers(1, 14))
    alphabet = draw(st.lists(st.integers(0, 9), min_size=2, max_size=3, unique=True))
    k = n * (n - 1) // 2
    vals = iter(draw(st.lists(st.sampled_from(alphabet), min_size=k, max_size=k)))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = next(vals)
    return DissimilarityMatrix(rows, 1), draw(_subsets(n))


@settings(max_examples=300)
@given(st.one_of(_profile_inputs(), _tied_inputs()))
def test_sweep_equals_plain_loop(case):
    # same shape, child order and weights as the loop the sweep replaced
    m, subset = case
    assert dg.build_dendrogram(m, subset) == reference.prim_dendrogram_loop(m, subset)


@pytest.mark.parametrize("profile", cli.PROFILES)
def test_clusters_match_witness_dendrogram_at_large_n(profile):
    n = 1024
    m = cli.generate_matrix(n, 1, profile)
    result = copoints.recognize_robinson(m)
    assert result.accepted
    want = dg.clusters(reference.witness_dendrogram(m, result.witness))
    assert dg.clusters(dg.build_dendrogram(m, range(n))) == want

