from __future__ import annotations

import itertools
import random
import sys
import tracemalloc
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from conftest import EQUAL3, FLAT3, NONROB4, SHAPES, WORKED12, robinson_matrices, shape_matrix
from reference import NotAnMModulePartition
from robinspace import copoints, core, generator, mmodtree as mm, pqtree as pq, refine
from robinspace import translate
from robinspace.core import (
    AsymmetricInput,
    DissimilarityMatrix,
    EmptyMatrix,
    NonzeroDiagonal,
    RaggedMatrix,
    SubsetTooSmall,
)
from robinspace.dendrogram import build_dendrogram


def test_validate_accepts_worked_example():
    core.validate(WORKED12)


def test_validate_empty():
    with pytest.raises(EmptyMatrix):
        core.validate(DissimilarityMatrix([]))


def test_validate_ragged():
    # the message names the short or long row, never an entry pair
    cases = [
        ([[0, 1], [1, 0], [2, 2]], 0, "matrix row 0 has length 2, but the matrix has 3 rows"),
        ([[0, 1, 2], [1, 0]], 0, "matrix row 0 has length 3, but the matrix has 2 rows"),
        ([[0, 1], [1]], 1, "matrix row 1 has length 1, but the matrix has 2 rows"),
    ]
    for rows, row, message in cases:
        with pytest.raises(RaggedMatrix) as exc:
            core.validate(DissimilarityMatrix(rows))
        assert (exc.value.row, str(exc.value)) == (row, message)


def test_validate_asymmetric_reports_indices():
    m = DissimilarityMatrix([[0, 1, 2], [1, 0, 3], [2, 4, 0]])
    with pytest.raises(AsymmetricInput) as exc:
        core.validate(m)
    assert exc.value.indices == (1, 2)


def test_validate_nonzero_diagonal():
    with pytest.raises(NonzeroDiagonal) as exc:
        core.validate(DissimilarityMatrix([[0, 1], [1, 5]]))
    assert exc.value.index == 1


def test_validate_names_a_defect_in_the_last_rows_like_the_index_loop():
    base = generator.generate_matrix(400, 3, "generic").rows
    cases = [((398, 399), 7), ((399, 399), 1), ((397, 397), 2), ((397, 399), 5), ((396, 398), 9)]
    for edits in itertools.chain.from_iterable(itertools.combinations(cases, k) for k in (1, 2)):
        rows = [list(r) for r in base]
        for (i, j), v in edits:
            rows[i][j] = v
        want = reference.first_defect_loop(rows)
        with pytest.raises((AsymmetricInput, NonzeroDiagonal)) as exc:
            core.validate(DissimilarityMatrix(rows))
        if want[0] == "diagonal":
            assert exc.type is NonzeroDiagonal and exc.value.index == want[1], edits
        else:
            assert exc.type is AsymmetricInput and exc.value.indices == want[1], edits


def test_intern_weights_preserves_values():
    rows = [[0, 1000, 2000], [1000, 0, 1000], [2000, 1000, 0]]
    m = DissimilarityMatrix([list(r) for r in rows])
    core.intern_weights(m)
    # rows are rebuilt as tuples, so they compare to the lists by value
    assert m.rows == list(map(tuple, rows))
    assert m.rows[0][1] is m.rows[1][2]


@pytest.mark.parametrize("kind", [list, tuple])
def test_intern_weights_rebuilds_rows_as_tuples(kind):
    # a shared row, and equal weights above the small-int cache held as
    # separate int objects, as a parse of separate tokens would hold them
    twin = kind([0, 0, int("1000")])
    rows = [twin, twin, kind([int("1000"), int("1000"), 0])]
    assert rows[0][2] is not rows[2][1]
    m = DissimilarityMatrix(list(rows))
    core.intern_weights(m)
    assert all(type(row) is tuple for row in m.rows)
    assert m.rows == [tuple(row) for row in rows]
    assert m.rows[0] is m.rows[1]
    assert m.rows[0][2] is m.rows[2][1] is m.rows[2][0]
    core.validate(m)


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


def test_is_compatible_order_validates_first():
    # read as rows, this order looks compatible; the matrix is not symmetric
    m = DissimilarityMatrix([[0, 5, 1], [1, 0, 1], [2, 1, 0]])
    assert reference.violating_triple_loop(m, [0, 1, 2]) == (0, 1, 2)
    with pytest.raises(AsymmetricInput) as exc:
        core.is_compatible_order(m, [0, 1, 2])
    assert exc.value.indices == (0, 1)


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
        m = generator.generate_matrix(n, draw(st.integers(0, 10**6)), draw(st.sampled_from(generator.PROFILES)))
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


def _symmetric(n: int, entries: dict) -> DissimilarityMatrix:
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in entries.items():
        rows[i][j] = rows[j][i] = v
    return DissimilarityMatrix(rows)


@settings(max_examples=1500, deadline=None)
@given(checked_orders())
# at (0, 3) both rules fail: the row rule names (0, 2, 3), the column rule (0, 1, 3)
@example((_symmetric(4, {(0, 1): 1, (0, 2): 2, (1, 2): 1, (0, 3): 1, (1, 3): 2, (2, 3): 1}), [0, 1, 2, 3]))
# the row at position 1 fails right of its diagonal, key (1, 4, 0), but the first
# triple is read off the left part of the later row at position 3, key (0, 3, 1)
@example(
    (
        _symmetric(5, {**dict.fromkeys(itertools.combinations(range(5), 2), 1), (1, 3): 2, (0, 4): 2}),
        [0, 1, 2, 3, 4],
    )
)
def test_violating_triple_matches_index_loop(case):
    m, order = case
    assert core.violating_triple(m, order) == reference.violating_triple_loop(m, order)


@pytest.mark.parametrize("length", range(4))
def test_violating_triple_on_short_orders(length):
    for order in itertools.permutations(range(4), length):
        want = reference.violating_triple_loop(NONROB4, order)
        assert core.violating_triple(NONROB4, order) == want, order


@pytest.mark.parametrize("profile", generator.PROFILES)
def test_violating_triple_names_a_planted_obstruction_like_the_index_loop(profile):
    # four consecutive middle points of a compatible order become a 4-cycle
    # a-b-d-c with short sides and long diagonals, which no order can hold
    base = generator.generate_matrix(200, 0, profile)
    order = pq.canonical_order(copoints.pq_tree2(base, range(base.n)))
    rows = [list(r) for r in base.rows]
    a, b, c, d = order[98:102]
    short = min(rows[a][b], rows[b][c], rows[c][d])
    long = max(rows[a][d], short + 1)
    for x, y in ((a, b), (b, d), (d, c), (c, a)):
        rows[x][y] = rows[y][x] = short
    for x, y in ((a, d), (b, c)):
        rows[x][y] = rows[y][x] = long
    m = DissimilarityMatrix(rows)
    shuffled = random.Random(profile).sample(order, len(order))
    for got in (order, order[::-1], shuffled, order[90:110], order[::3]):
        assert core.violating_triple(m, got) == reference.violating_triple_loop(m, got)
    assert core.violating_triple(m, order) is not None


@pytest.mark.parametrize("seed", range(6))
def test_violating_triple_on_two_value_alphabets_matches_index_loop(seed):
    rng = random.Random(seed)
    n = 60
    m = _symmetric(n, {(i, j): rng.randrange(2) for i, j in itertools.combinations(range(n), 2)})
    for _ in range(5):
        order = rng.sample(range(n), n)
        partial = [x for x in order if rng.random() < 0.5]
        for got in (order, partial):
            assert core.violating_triple(m, got) == reference.violating_triple_loop(m, got)


def test_violating_triple_holds_no_copy_of_the_failing_rows():
    rng = random.Random(0)
    n = 300
    m = _symmetric(n, {(i, j): rng.randrange(10) for i, j in itertools.combinations(range(n), 2)})
    order = list(range(n))
    assert not any(
        row[:p] == sorted(row[:p], reverse=True) and row[p + 1 :] == sorted(row[p + 1 :])
        for p, row in enumerate(m.rows)
    )  # every row fails along the identity order
    tracemalloc.start()
    try:
        got = core.violating_triple(m, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == reference.violating_triple_loop(m, order)
    # the pass holds about 16 rows' worth (zip's n row iterators, one column,
    # its halves and their sorted copies); a column kept per failing row is n
    assert peak < 32 * sys.getsizeof(tuple(range(n)))


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
        assert reference.delta_graph_components(WORKED12, range(12), delta) == [
            tuple(range(12))
        ]
    # the first block splits exactly at its cross distance 2
    assert reference.delta_graph_components(WORKED12, [0, 1, 2, 3], 2) == [(0, 3), (1, 2)]
    # the last block splits at 2 into the far pair's pieces and two loners
    assert reference.delta_graph_components(WORKED12, [7, 8, 9, 10, 11], 2) == [
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


def test_first_and_last_leaf_on_worked_example():
    t12 = copoints.pq_tree2(WORKED12, range(12))
    assert (core.first_leaf(t12), core.last_leaf(t12)) == (0, 11)
    middle = t12.children[1]
    assert (core.first_leaf(middle), core.last_leaf(middle)) == (6, 4)
    assert core.last_leaf(t12.children[0].children[1]) == 1
    assert core.last_leaf(pq.Leaf(5)) == 5


def test_diameter_and_pair():
    assert reference.diameter_and_pair(WORKED12, range(12)) == (8, 0, 7)
    assert reference.diameter_and_pair(WORKED12, [9, 10]) == (2, 9, 10)
    with pytest.raises(SubsetTooSmall):
        reference.diameter_and_pair(WORKED12, [0])


LINE3 = DissimilarityMatrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def _partition_at(p):
    """``refine.copoint_partition`` at ``p``, called as a tree builder is."""
    return lambda matrix, subset: refine.copoint_partition(matrix, p, subset)


@pytest.mark.parametrize(
    "build, subset, message",
    [
        (build_dendrogram, [0, 0, 1], "subset point 0 appears twice"),
        (mm.mmodule_tree, [2, 2], "subset point 2 appears twice"),
        (copoints.pq_tree2, [-1, 0], "subset point -1 is outside 0..2"),
        (copoints.pq_tree2, [0, 7], "subset point 7 is outside 0..2"),
        (copoints.pq_tree2, [2, True], "subset point True is not an int"),
        (build_dendrogram, (1, 0.5), "subset point 0.5 is not an int"),
        (_partition_at(0), [1, 1, 2], "subset point 1 appears twice"),
        (_partition_at(0), [5], "subset point 5 is outside 0..2"),
        (_partition_at(0), [True, 2], "subset point True is not an int"),
        (_partition_at(-1), [0, 1], "subset point -1 is outside 0..2"),
        (_partition_at(7), [0, 1], "subset point 7 is outside 0..2"),
        (_partition_at(False), [1, 2], "subset point False is not an int"),
    ],
)
def test_subset_points_are_checked(build, subset, message):
    with pytest.raises(core.BadSubsetPoint) as exc:
        build(LINE3, subset)
    assert str(exc.value) == message
    assert repr(exc.value.point) == message.split()[2]


def test_copoint_partition_takes_p_in_or_out_of_the_subset():
    want = [(1,), (0, 2)]
    assert refine.copoint_partition(LINE3, 1, [2, 0]) == want
    assert refine.copoint_partition(LINE3, 1, [2, 1, 0]) == want


def _library_sequence(m: DissimilarityMatrix) -> str:
    """The repr of every library op's result on ``m``."""
    pts = range(m.n)
    result = copoints.recognize_robinson(m)
    mtree = mm.mmodule_tree(m, pts)
    out = (
        result,
        mtree,
        build_dendrogram(m, pts),
        translate.pq_to_mmodule_tree(m, result.tree),
        translate.mmodule_to_pq_tree(m, mtree),
        [refine.copoint_partition(m, p, pts) for p in sorted({0, m.n // 3, m.n - 1})],
    )
    return repr(out)


def _row_layouts(m: DissimilarityMatrix) -> list[DissimilarityMatrix]:
    """``m`` itself, then copies with list rows, with tuple rows of their
    own, and with tuple rows where equal rows are one object."""
    shared: dict[tuple, tuple] = {}
    return [
        m,
        DissimilarityMatrix([list(row) for row in m.rows], m.scale),
        DissimilarityMatrix([tuple(list(row)) for row in m.rows], m.scale),
        DissimilarityMatrix([shared.setdefault(tuple(row), tuple(row)) for row in m.rows], m.scale),
    ]


@pytest.mark.parametrize(
    "make",
    [partial(generator.generate_matrix, 90, 4, profile) for profile in generator.PROFILES]
    + [partial(shape_matrix, name, 40) for name in sorted(SHAPES)],
    ids=[*generator.PROFILES, *sorted(SHAPES)],
)
def test_row_layout_changes_no_result(make):
    m = make()
    layouts = _row_layouts(m)
    assert [type(x.rows[0]) for x in layouts[1:]] == [list, tuple, tuple]
    assert copoints.recognize_robinson(m).accepted
    want = _library_sequence(m)
    for other in layouts[1:]:
        assert _library_sequence(other) == want


@given(robinson_matrices(max_n=7))
def test_delta_star_is_min_connecting_threshold(m):
    n = m.n
    rho = build_dendrogram(m, range(n)).weight
    at_most = lambda bound: reference._components(
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


def _recorded_fold(tree, walk) -> list:
    """The enter and leave events of ``walk(tree, combine, children)``: the
    getter records an entry, ``combine`` a leaving with its child values."""
    events = []

    def children(node):
        events.append(("enter", node))
        return node.children

    def combine(node, values):
        events.append(("leave", node, values))
        return len(events)

    walk(tree, combine, children)
    return events


def _recursive_fold(tree, combine, children):
    # the reference order: a leaf is left at once, a node entered, then its
    # children walked left to right, then left
    if isinstance(tree, core.Leaf):
        return combine(tree, [])
    return combine(tree, [_recursive_fold(child, combine, children) for child in children(tree)])


def test_fold_enters_and_leaves_as_a_recursive_walk():
    # children are asked for on the way down, each node combined on the way
    # up, so a node is entered only after its left siblings' subtrees are left
    tree = pq.Q((pq.P((core.Leaf(0), core.Leaf(1))), core.Leaf(2), pq.P((core.Leaf(3), pq.Q((
        core.Leaf(4), core.Leaf(5), core.Leaf(6))))), core.Leaf(7)))
    events = _recorded_fold(tree, core.fold)
    assert events == _recorded_fold(tree, _recursive_fold)
    assert [e[0] for e in events[:5]] == ["enter", "enter", "leave", "leave", "leave"]


def test_fold_walks_a_deep_chain_in_recursive_order():
    depth = 3000
    chain = core.Leaf(0)
    for p in range(1, depth + 1):
        chain = pq.P((core.Leaf(p), chain))
    limit = sys.getrecursionlimit()
    events = _recorded_fold(chain, core.fold)  # at the default limit
    assert sys.getrecursionlimit() == limit
    sys.setrecursionlimit(limit + 2 * depth)
    try:
        want = _recorded_fold(chain, _recursive_fold)
    finally:
        sys.setrecursionlimit(limit)
    assert events == want
