from __future__ import annotations

import itertools

from hypothesis import given, settings

from conftest import EQUAL3, FLAT3, WORKED12, canon_mm, robinson_matrices
from robinspace import cli, core, mmodtree as mm, oracle, reference
from robinspace.mmodtree import Cap, Cup, Leaf


def _expected_worked12() -> mm.MModuleTree:
    # 2-special copartitions over both far blocks, plain everywhere else
    left = Cap(
        (Cap((Leaf(1), Leaf(2))), Cap((Leaf(0), Leaf(3)))),
        special=2,
        large_child=1,
    )
    middle = Cap((Leaf(4), Leaf(5), Leaf(6)))
    right = Cap(
        (Leaf(9), Leaf(10), Cup((Leaf(7), Leaf(8), Leaf(11)))),
        special=2,
        large_child=2,
    )
    return Cup((left, middle, right))


def test_worked_example_tree():
    got = mm.mmodule_tree(WORKED12, range(12))
    assert canon_mm(got) == canon_mm(_expected_worked12())


def test_worked_example_large_child_and_weight():
    got = mm.mmodule_tree(WORKED12, range(12))
    assert isinstance(got, Cup)
    specials = [
        node
        for node in core.iter_nodes(got)
        if isinstance(node, Cap) and node.special is not None
    ]
    assert len(specials) == 2
    assert all(node.special == 2 for node in specials)
    larges = sorted(
        tuple(sorted(core.leaf_points(node.children[node.large_child])))
        for node in specials
    )
    assert larges == [(0, 3), (7, 8, 11)]


def test_flat3_nested_specials():
    got = mm.mmodule_tree(FLAT3, range(3))
    assert canon_mm(got) == canon_mm(
        Cap((Leaf(1), Cap((Leaf(0), Leaf(2)))), special=1, large_child=1)
    )


def test_equal3_plain_cap():
    got = mm.mmodule_tree(EQUAL3, range(3))
    assert got == Cap((Leaf(2), Leaf(1), Leaf(0)))
    assert got.special is None


def test_small_subsets():
    assert mm.mmodule_tree(WORKED12, [4]) == Leaf(4)
    pair = mm.mmodule_tree(WORKED12, [9, 10])
    assert isinstance(pair, Cap) and core.leaf_set(pair) == frozenset({9, 10})


def test_maximal_mmodules_frozen():
    assert reference.maximal_mmodules(WORKED12, range(12)) == [
        (0, 1, 2, 3),
        (4, 5, 6),
        (7, 8, 9, 10, 11),
    ]
    # under a copartition root the maximal mmodules are child complements
    assert reference.maximal_mmodules(EQUAL3, range(3)) == [(0, 1), (0, 2), (1, 2)]
    assert reference.maximal_mmodules(FLAT3, range(3)) == [(0, 2), (1,)]


def test_is_mmodule_via_tree_worked_example():
    tree = mm.mmodule_tree(WORKED12, range(12))
    assert mm.is_mmodule_via_tree(tree, [9, 10])
    assert mm.is_mmodule_via_tree(tree, [7, 8, 11])
    assert mm.is_mmodule_via_tree(tree, [7, 8, 9, 11])
    assert not mm.is_mmodule_via_tree(tree, [0, 1])
    assert not mm.is_mmodule_via_tree(tree, [8, 9])
    assert mm.is_mmodule_via_tree(tree, [])
    assert mm.is_mmodule_via_tree(tree, range(12))


def test_ultrametric_trees_are_all_cap():
    for seed in range(5):
        matrix = cli.generate_matrix(24, seed, "ultrametric")
        tree = mm.mmodule_tree(matrix, range(24))
        for node in core.iter_nodes(tree):
            assert not isinstance(node, Cup)


@settings(max_examples=80)
@given(robinson_matrices(max_n=7))
def test_tree_answers_match_brute_mmodules(m):
    tree = mm.mmodule_tree(m, range(m.n))
    mods = set(oracle.brute_mmodules(m, range(m.n)))
    for r in range(m.n + 1):
        for cand in itertools.combinations(range(m.n), r):
            assert mm.is_mmodule_via_tree(tree, cand) == (cand in mods), cand


@settings(max_examples=80)
@given(robinson_matrices(max_n=7))
def test_maximal_mmodules_match_brute(m):
    if m.n < 2:
        return
    got = reference.maximal_mmodules(m, range(m.n))
    mods = [s for s in oracle.brute_mmodules(m, range(m.n)) if 0 < len(s) < m.n]
    want = sorted(
        s for s in mods if not any(set(s) < set(t) for t in mods)
    )
    assert got == want


@given(robinson_matrices(max_n=8))
def test_every_internal_node_is_an_mmodule(m):
    tree = mm.mmodule_tree(m, range(m.n))
    pts = list(range(m.n))
    for node in core.iter_nodes(tree):
        assert reference.is_mmodule(m, pts, core.leaf_points(node))


@given(robinson_matrices(max_n=8))
def test_special_nodes_carry_uniform_cross_distance(m):
    tree = mm.mmodule_tree(m, range(m.n))
    for node in core.iter_nodes(tree):
        if isinstance(node, Cap) and node.special is not None:
            parts = [core.leaf_points(c) for c in node.children]
            for i, a in enumerate(parts):
                for b in parts[i + 1 :]:
                    for x in a:
                        for y in b:
                            assert m.rows[x][y] == node.special
            large = core.leaf_points(node.children[node.large_child])
            assert core.diameter_and_pair(m, large)[0] > node.special
