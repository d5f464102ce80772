from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EQUAL3, FLAT3, NONROB4, WORKED12, robinson_matrices
from robinspace import cli, copoints, core, pqtree as pq, reference
from robinspace.core import (
    AsymmetricInput,
    DissimilarityMatrix,
    EmptyMatrix,
    NonzeroDiagonal,
    SubsetTooSmall,
)
from robinspace.dendrogram import build_dendrogram
from robinspace.reference import NotAnMModulePartition


def test_validate_accepts_worked_example():
    core.validate(WORKED12)


def test_validate_empty():
    with pytest.raises(EmptyMatrix):
        core.validate(DissimilarityMatrix([]))


def test_validate_ragged():
    with pytest.raises(AsymmetricInput):
        core.validate(DissimilarityMatrix([[0, 1], [1, 0], [2, 2]]))


def test_validate_asymmetric_reports_indices():
    m = DissimilarityMatrix([[0, 1, 2], [1, 0, 3], [2, 4, 0]])
    with pytest.raises(AsymmetricInput) as exc:
        core.validate(m)
    assert exc.value.indices == (1, 2)


def test_validate_nonzero_diagonal():
    with pytest.raises(NonzeroDiagonal) as exc:
        core.validate(DissimilarityMatrix([[0, 1], [1, 5]]))
    assert exc.value.index == 1


def test_intern_weights_preserves_values():
    rows = [[0, 1000, 2000], [1000, 0, 1000], [2000, 1000, 0]]
    m = DissimilarityMatrix([list(r) for r in rows])
    core.intern_weights(m)
    assert m.rows == rows
    assert m.rows[0][1] is m.rows[1][2]


def test_is_compatible_order_flat():
    assert core.is_compatible_order(FLAT3, (0, 1, 2))
    assert core.is_compatible_order(FLAT3, (2, 1, 0))
    assert not core.is_compatible_order(FLAT3, (1, 0, 2))


def test_is_compatible_order_worked_example():
    assert core.is_compatible_order(WORKED12, range(12))
    # swapping the two halves breaks monotonicity along the rows
    assert not core.is_compatible_order(
        WORKED12, [7, 8, 9, 10, 11, 0, 1, 2, 3, 6, 5, 4][::-1]
    )


def test_compatible_order_matches_triple_definition():
    # the two-neighbour check must equal the all-triples condition
    for order in itertools.permutations(range(4)):
        m = WORKED12
        fast = core.is_compatible_order(m, order)
        slow = all(
            m.rows[order[a]][order[c]]
            >= max(m.rows[order[a]][order[b]], m.rows[order[b]][order[c]])
            for a in range(4)
            for b in range(a + 1, 4)
            for c in range(b + 1, 4)
        )
        assert fast == slow, order
        triple = core.violating_triple(m, order)
        assert (triple is None) == fast, order
        if triple is not None:
            x, y, z = triple
            assert order.index(x) < order.index(y) < order.index(z)
            assert m.rows[x][z] < max(m.rows[x][y], m.rows[y][z])


@st.composite
def checked_orders(draw) -> tuple[DissimilarityMatrix, list[int]]:
    """A symmetric matrix and an order over all its points or a subset.

    Generated profiles with their compatible canonical order, the same with
    one entry perturbed, or a random 2- or 3-value alphabet; the order is
    that base order or a shuffle of it, cut to a subsequence half the time.
    """
    n = draw(st.integers(1, 10))
    source = draw(st.sampled_from(["profile", "perturbed", "alphabet"]))
    if source == "alphabet":
        size = draw(st.sampled_from([2, 3]))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = draw(st.integers(0, size - 1))
        base = list(range(n))
    else:
        m = cli.generate_matrix(n, draw(st.integers(0, 10**6)), draw(st.sampled_from(cli.PROFILES)))
        base = pq.canonical_order(copoints.pq_tree2(m, range(n)))
        rows = [list(row) for row in m.rows]
        if source == "perturbed" and n > 1:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            rows[i][j] = rows[j][i] = draw(st.integers(0, max(map(max, rows)) + 1))
    order = draw(st.permutations(base)) if draw(st.booleans()) else base
    if draw(st.booleans()):
        keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        order = [x for x, k in zip(order, keep) if k]
    return DissimilarityMatrix(rows), order


@settings(max_examples=1500, deadline=None)
@given(checked_orders())
def test_violating_triple_matches_index_loop(case):
    m, order = case
    assert core.violating_triple(m, order) == reference.violating_triple_loop(m, order)


@pytest.mark.parametrize("length", range(4))
def test_violating_triple_on_short_orders(length):
    for order in itertools.permutations(range(4), length):
        want = reference.violating_triple_loop(NONROB4, order)
        assert core.violating_triple(NONROB4, order) == want, order


def test_delta_star_frozen():
    # delta star, the largest minimum-spanning-tree edge, is the dendrogram's root weight
    assert build_dendrogram(FLAT3, range(3)).weight == 1
    assert build_dendrogram(EQUAL3, range(3)).weight == 1
    assert build_dendrogram(WORKED12, range(12)).weight == 6
    assert build_dendrogram(WORKED12, [0, 1, 2, 3]).weight == 2
    assert build_dendrogram(WORKED12, [7, 8, 9, 10, 11]).weight == 2
    assert build_dendrogram(WORKED12, [0, 7]).weight == 8


def test_delta_graph_components_frozen():
    # the full space never disconnects: the middle block bridges the far ones
    for delta in (2, 5, 6, 8):
        assert core.delta_graph_components(WORKED12, range(12), delta) == [
            tuple(range(12))
        ]
    # the first block splits exactly at its cross distance 2
    assert core.delta_graph_components(WORKED12, [0, 1, 2, 3], 2) == [(0, 3), (1, 2)]
    # the last block splits at 2 into the far pair's pieces and two loners
    assert core.delta_graph_components(WORKED12, [7, 8, 9, 10, 11], 2) == [
        (7, 8, 11),
        (9,),
        (10,),
    ]


def test_rho_components_frozen():
    assert reference.rho_components(WORKED12, range(12)) == [
        (0, 1, 2, 3, 4, 5, 6),
        (7, 8, 9, 10, 11),
    ]
    assert reference.rho_components(WORKED12, [5]) == [(5,)]
    assert reference.rho_components(EQUAL3, range(3)) == [(0,), (1,), (2,)]


def test_is_mmodule():
    assert reference.is_mmodule(WORKED12, range(12), [9, 10])
    assert reference.is_mmodule(WORKED12, range(12), [4, 5, 6])
    assert not reference.is_mmodule(WORKED12, range(12), [0, 1])
    assert reference.is_mmodule(WORKED12, range(12), [])
    assert reference.is_mmodule(WORKED12, range(12), [3])


def test_quotient_of_blocks():
    q = reference.quotient(WORKED12, [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9, 10, 11]])
    assert q.rows == [[0, 5, 8], [5, 0, 6], [8, 6, 0]]


def test_quotient_rejects_non_mmodule():
    with pytest.raises(NotAnMModulePartition) as exc:
        reference.quotient(WORKED12, [[0, 4], [1, 2, 3], [5, 6], [7, 8, 9, 10, 11]])
    z, x, y = exc.value.witness
    assert WORKED12.rows[z][x] != WORKED12.rows[z][y]


def test_diameter_and_pair():
    assert core.diameter_and_pair(WORKED12, range(12)) == (8, 0, 7)
    assert core.diameter_and_pair(WORKED12, [9, 10]) == (2, 9, 10)
    with pytest.raises(SubsetTooSmall):
        core.diameter_and_pair(WORKED12, [0])


@given(robinson_matrices(max_n=7))
def test_delta_star_is_min_connecting_threshold(m):
    n = m.n
    rho = build_dendrogram(m, range(n)).weight
    at_most = lambda bound: core._components(
        m.rows, list(range(n)), lambda v, b=bound: v <= b
    )
    assert len(at_most(rho)) == 1
    if rho > 0:
        assert len(at_most(rho - 1)) > 1


@given(robinson_matrices(max_n=6))
def test_rho_components_cover_and_separate(m):
    # a partition, and no edge strictly below delta_star crosses it
    comps = reference.rho_components(m, range(m.n))
    flat = sorted(x for c in comps for x in c)
    assert flat == list(range(m.n))
    if m.n >= 2:
        rho = build_dendrogram(m, range(m.n)).weight
        for a, ca in enumerate(comps):
            for cb in comps[a + 1 :]:
                assert all(m.rows[x][y] >= rho for x in ca for y in cb)
