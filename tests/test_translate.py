from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import reference
from conftest import (
    EQUAL3,
    FLAT3,
    WORKED12,
    canon_mm,
    profile_subsets,
    robinson_matrices,
    shape_matrix,
    spine_with_block,
)
from reference import CorrespondenceViolation
from reference import mmodule_tree_from_dendrogram as carved
from robinspace import copoints as cop, core, mmodtree as mm, pqtree as pq
from robinspace import translate as tr
from robinspace.dendrogram import build_dendrogram
from robinspace.pqtree import Leaf, P, Q


def test_worked_example_forward():
    t12 = cop.pq_tree2(WORKED12, range(12))
    got = tr.pq_to_mmodule_tree(WORKED12, t12)
    assert canon_mm(got) == canon_mm(carved(WORKED12, range(12)))


def test_worked_example_backward():
    mt12 = carved(WORKED12, range(12))
    got = tr.mmodule_to_pq_tree(WORKED12, mt12)
    assert pq.equivalent(got, cop.pq_tree2(WORKED12, range(12)))


def test_worked_example_correspondence():
    t12 = cop.pq_tree2(WORKED12, range(12))
    mt12 = carved(WORKED12, range(12))
    rep = reference.node_correspondence(WORKED12, t12, mt12)
    assert sorted(rep.matched) == [
        (0, 1, 2, 3),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
        (1, 2),
        (4, 5, 6),
        (7, 8, 9, 10, 11),
    ]
    # large children live only in the mmodule tree, split apex pieces
    # only in the PQ-tree; both sides must name exactly those
    assert rep.unmatched_mmodule == ((0, 3), (7, 8, 11))
    assert rep.unmatched_pq == ((9, 10),)


def test_flat3_translations():
    t = cop.pq_tree2(FLAT3, range(3))
    forward = tr.pq_to_mmodule_tree(FLAT3, t)
    assert canon_mm(forward) == canon_mm(carved(FLAT3, range(3)))
    assert forward.special == 1
    assert isinstance(forward.children[forward.large_child], mm.Cap)
    assert pq.equivalent(tr.mmodule_to_pq_tree(FLAT3, forward), t)
    rep = reference.node_correspondence(FLAT3, t, forward)
    assert rep.unmatched_mmodule == ((0, 2),)
    assert rep.unmatched_pq == ()


def test_equal3_translations():
    t = cop.pq_tree2(EQUAL3, range(3))
    forward = tr.pq_to_mmodule_tree(EQUAL3, t)
    assert isinstance(forward, mm.Cap) and forward.special is None
    assert pq.equivalent(tr.mmodule_to_pq_tree(EQUAL3, forward), t)


def test_leaf_translations():
    assert tr.pq_to_mmodule_tree(WORKED12, Leaf(5)) == mm.Leaf(5)
    assert tr.mmodule_to_pq_tree(WORKED12, mm.Leaf(5)) == Leaf(5)


# the spine bipartition of a special node is the one slot rule,
# ``copoints.admissible_hole``
def test_find_bipartition_frozen():
    assert cop.admissible_hole(FLAT3, 1, (Leaf(0), Leaf(2))) == 1
    assert cop.admissible_hole(WORKED12, 2, (Leaf(7), Leaf(8), Leaf(11))) == 2


def test_find_bipartition_rejects():
    assert cop.admissible_hole(FLAT3, 1, (Leaf(0),)) is None
    # no child pair is far enough apart to re-attach at weight 5
    assert cop.admissible_hole(EQUAL3, 5, (Leaf(0), Leaf(1))) is None


def test_correspondence_rejects_mismatched_kinds():
    with pytest.raises(CorrespondenceViolation):
        reference.node_correspondence(
            FLAT3,
            cop.pq_tree2(FLAT3, range(3)),
            mm.mmodule_tree(EQUAL3, range(3)),
        )


WHOLE_SETS = robinson_matrices(max_n=10).map(lambda m: (m, range(m.n)))


# mmodtree.mmodule_tree is exactly this translation, so this is also the
# differential test of the library's mmodule tree against the carving.
@settings(max_examples=300, deadline=None)
@given(st.one_of(WHOLE_SETS, profile_subsets()))
def test_forward_translation_matches_direct_construction(case):
    m, pts = case
    got = tr.pq_to_mmodule_tree(m, cop.pq_tree2(m, pts))
    assert canon_mm(got) == canon_mm(carved(m, pts))


# ``spine_with_block`` puts a special node in nearly every example; the
# random matrices alone seldom reach one.
@settings(max_examples=150, deadline=None)
@given(st.one_of(WHOLE_SETS, spine_with_block()))
def test_backward_translation_matches_direct_construction(case):
    m, pts = case
    mt = carved(m, pts)
    got = tr.mmodule_to_pq_tree(m, mt)
    assert pq.equivalent(got, cop.pq_tree2(m, pts))


@settings(max_examples=100, deadline=None)
@given(st.one_of(WHOLE_SETS, spine_with_block()))
def test_roundtrips_are_identities(case):
    m, pts = case
    t = cop.pq_tree2(m, pts)
    mt = carved(m, pts)
    assert pq.equivalent(tr.mmodule_to_pq_tree(m, tr.pq_to_mmodule_tree(m, t)), t)
    back = tr.pq_to_mmodule_tree(m, tr.mmodule_to_pq_tree(m, mt))
    assert canon_mm(back) == canon_mm(mt)


@settings(max_examples=100, deadline=None)
@given(robinson_matrices(max_n=9))
def test_correspondence_holds_between_constructions(m):
    t = cop.pq_tree2(m, range(m.n))
    mt = carved(m, range(m.n))
    rep = reference.node_correspondence(m, t, mt)
    # unmatched sets on either side only ever come from the two known
    # sources, and those never overlap the matched groupings
    matched = set(rep.matched)
    assert not matched & set(rep.unmatched_mmodule)
    assert not matched & set(rep.unmatched_pq)


@settings(max_examples=100, deadline=None)
@given(robinson_matrices(max_n=9))
def test_special_weight_is_subset_top_weight(m):
    mt = mm.mmodule_tree(m, range(m.n))
    for node in core.iter_nodes(mt):
        if isinstance(node, mm.Cap) and node.special is not None:
            pts = core.leaf_points(node)
            assert node.special == build_dendrogram(m, pts).weight


def _apex_kinds(m, tree) -> set[str]:
    """What the apex of each conical Q-node of ``tree`` is: a leaf, a
    Q-node, or a P-node whose points fall apart at the apex distance."""
    kinds = set()
    for node in core.iter_nodes(tree):
        hit = isinstance(node, Q) and pq.conical_apex(m, node.children)
        if hit:
            apex = node.children[hit[1]]
            assert not isinstance(apex, P) or pq.falls_apart(m, apex, hit[0])
            kinds.add(type(apex).__name__)
    return kinds


# every apex kind each conical shape carries at n=1024
CONICAL_APEXES = {"conical-3": {"Leaf", "Q"}, "conical-4": {"P"}}


@pytest.mark.parametrize("shape", sorted(CONICAL_APEXES))
def test_conical_shapes_match_both_references_and_round_trip(shape):
    # special nodes at every level, where the generated profiles have none
    m = shape_matrix(shape, 256)
    t, mt = cop.pq_tree2(m, range(256)), mm.mmodule_tree(m, range(256))
    same = core.first_difference(mm.normal_form(mt), mm.normal_form(carved(m, range(256))))
    assert same is None
    assert pq.equivalent(t, reference.delta_pq_tree(m, range(256)))
    reference.node_correspondence(m, t, mt)
    m = shape_matrix(shape, 1024)
    t, mt = cop.pq_tree2(m, range(1024)), mm.mmodule_tree(m, range(1024))
    assert pq.equivalent(tr.mmodule_to_pq_tree(m, tr.pq_to_mmodule_tree(m, t)), t)
    back = tr.pq_to_mmodule_tree(m, tr.mmodule_to_pq_tree(m, mt))
    assert core.first_difference(mm.normal_form(back), mm.normal_form(mt)) is None
    specials = [x for x in core.iter_nodes(mt) if isinstance(x, mm.Cap) and x.special is not None]
    assert len(specials) >= 300
    assert _apex_kinds(m, t) == CONICAL_APEXES[shape]
