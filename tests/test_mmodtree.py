from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracle
import reference
from conftest import EQUAL3, FLAT3, WORKED12, canon_mm, mutated_documents, robinson_matrices
from conftest import profile_subsets, shape_subsets, spine_with_block
from robinspace import core, formats, generator, mmodtree as mm
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
    # the dendrogram carving pins the child order; production is compared
    # in canonical form, since it keeps the PQ-tree's order
    carved = reference.mmodule_tree_from_dendrogram(EQUAL3, range(3))
    assert carved == Cap((Leaf(2), Leaf(1), Leaf(0)))
    got = mm.mmodule_tree(EQUAL3, range(3))
    assert canon_mm(got) == canon_mm(carved)
    assert got.special is None


def test_small_subsets():
    assert mm.mmodule_tree(WORKED12, [4]) == Leaf(4)
    pair = mm.mmodule_tree(WORKED12, [9, 10])
    assert isinstance(pair, Cap) and reference.leaf_set(pair) == frozenset({9, 10})


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
    assert reference.is_mmodule_via_tree(tree, [9, 10])
    assert reference.is_mmodule_via_tree(tree, [7, 8, 11])
    assert reference.is_mmodule_via_tree(tree, [7, 8, 9, 11])
    assert not reference.is_mmodule_via_tree(tree, [0, 1])
    assert not reference.is_mmodule_via_tree(tree, [8, 9])
    assert reference.is_mmodule_via_tree(tree, [])
    assert reference.is_mmodule_via_tree(tree, range(12))


def test_ultrametric_trees_are_all_cap():
    for seed in range(5):
        matrix = generator.generate_matrix(24, seed, "ultrametric")
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
            assert reference.is_mmodule_via_tree(tree, cand) == (cand in mods), cand


@st.composite
def mmodule_queries(draw):
    """A Robinson space of any profile or shape, its mmodule tree and
    candidates: node leaf sets, unions of some children of each Cap node
    and random subsets."""
    m, pts = draw(st.one_of(profile_subsets(), shape_subsets()))
    tree = mm.mmodule_tree(m, pts)
    nodes = list(core.iter_nodes(tree))
    cands = [core.leaf_points(draw(st.sampled_from(nodes))) for _ in range(4)]
    for node in (node for node in nodes if isinstance(node, Cap)):
        some = draw(st.lists(st.sampled_from(node.children), min_size=1, unique_by=id))
        cands.append([x for c in some for x in core.leaf_points(c)])
    cands += draw(st.lists(st.lists(st.sampled_from(pts), unique=True), max_size=4))
    return m, pts, tree, cands


@settings(max_examples=150, deadline=None)
@given(mmodule_queries())
def test_tree_answers_match_the_matrix(case):
    m, pts, tree, cands = case
    for cand in cands:
        assert reference.is_mmodule_via_tree(tree, cand) == reference.is_mmodule(m, pts, cand), cand


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
            assert reference.diameter_and_pair(m, large)[0] > node.special


def _same_as_carving(m, pts):
    got = mm.mmodule_tree(m, pts)
    assert canon_mm(got) == canon_mm(reference.mmodule_tree_from_dendrogram(m, pts))


# The hypothesis form of this comparison, over small spaces of every
# profile and their subsets, is test_translate's
# test_forward_translation_matches_direct_construction.
def test_pq_route_matches_dendrogram_carving_at_size():
    for n in (200, 768):
        for seed, profile in enumerate(generator.PROFILES):
            m = generator.generate_matrix(n, seed, profile)
            _same_as_carving(m, range(n))
            _same_as_carving(m, range(1, n, 3))


def test_pq_route_matches_dendrogram_carving_where_the_apex_dissolves():
    # Generated spaces in which points at distance 0 from each other form
    # the apex of a conical Q-node, which the translation dissolves into
    # its children: a special node with more than two children.  Random
    # draws reach this rarely, so the cases are fixed.
    cases = (("generic", 5, 14), ("tie-heavy", 6, 13), ("tie-heavy", 11, 18))
    for profile, n, seed in cases:
        m = generator.generate_matrix(n, seed, profile)
        _same_as_carving(m, range(n))
        assert any(
            isinstance(node, Cap) and node.special is not None and len(node.children) > 2
            for node in core.iter_nodes(mm.mmodule_tree(m, range(n)))
        )


def test_empty_subset_is_refused():
    # the copoint construction refuses it before any tree is built
    with pytest.raises(core.SubsetTooSmall):
        mm.mmodule_tree(WORKED12, [])


@settings(max_examples=200, deadline=None)
@given(st.one_of(robinson_matrices(), spine_with_block(max_n=5).map(lambda case: case[0])), st.data())
def test_normal_form_agrees_with_canon_mm(m, data):
    # the recursive ``canon_mm`` stays the reference for the iterative form;
    # every ``spine_with_block`` tree has a special node
    tree = mm.mmodule_tree(m, range(m.n))
    doc = data.draw(mutated_documents(formats.tree_to_doc("mmodule", tree, m)))
    _, other = formats.doc_to_tree(doc, m.scale)
    same = core.first_difference(mm.normal_form(tree), mm.normal_form(other)) is None
    assert same == (canon_mm(tree) == canon_mm(other))


def test_normal_form_sorts_children_and_follows_the_large_child():
    tree = Cap((Cup((Leaf(5), Leaf(3), Leaf(4))), Leaf(2), Cap((Leaf(1), Leaf(0)))), 7, 0)
    want = Cap((Cap((Leaf(0), Leaf(1))), Leaf(2), Cup((Leaf(3), Leaf(4), Leaf(5)))), 7, 2)
    assert mm.normal_form(tree) == want
