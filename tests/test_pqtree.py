from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

import oracle
import reference
from conftest import EQUAL3, FLAT3, WORKED12, robinson_matrices
from robinspace import copoints, core, pqtree as pq
from robinspace.pqtree import Leaf, P, Q

# one P-group of three siblings at the head of a five-slot spine
SPINE7 = Q((P((Leaf(0), Leaf(1), Leaf(2))), Leaf(3), Leaf(4), Leaf(5), Leaf(6)))


def test_count_orders_spine():
    assert pq.count_orders(SPINE7) == 12


def test_count_orders_matches_enumeration():
    got = list(oracle.enumerate_orders(SPINE7))
    assert len(got) == 12
    assert len(set(got)) == 12


def test_enumerate_orders_content():
    got = set(oracle.enumerate_orders(SPINE7))
    forward = {
        (*perm, 3, 4, 5, 6) for perm in itertools.permutations((0, 1, 2))
    }
    assert got == forward | {tuple(reversed(o)) for o in forward}


def test_enumerate_orders_cap():
    wide = P(tuple(Leaf(i) for i in range(8)))
    with pytest.raises(oracle.TooManyOrders):
        oracle.enumerate_orders(wide)
    assert pq.count_orders(wide) == 40320


def test_canonical_order():
    assert pq.canonical_order(SPINE7) == (0, 1, 2, 3, 4, 5, 6)
    t12 = copoints.pq_tree2(WORKED12, range(12))
    assert pq.canonical_order(t12) == (0, 2, 1, 3, 6, 5, 4, 7, 8, 10, 9, 11)


def test_represents_order():
    assert reference.represents_order(SPINE7, (0, 1, 2, 3, 4, 5, 6))
    assert reference.represents_order(SPINE7, (1, 0, 2, 3, 4, 5, 6))
    assert reference.represents_order(SPINE7, (6, 5, 4, 3, 2, 0, 1))
    assert not reference.represents_order(SPINE7, (0, 1, 3, 2, 4, 5, 6))
    assert not reference.represents_order(SPINE7, (0, 1, 2, 3, 4, 5))
    assert not reference.represents_order(SPINE7, (0, 1, 2, 3, 4, 5, 5))


def test_worked_example_count():
    t12 = copoints.pq_tree2(WORKED12, range(12))
    assert pq.count_orders(t12) == 192


def test_equivalent_ignores_child_order():
    a = Q((Leaf(0), Leaf(1), Leaf(2)))
    assert pq.equivalent(a, Q((Leaf(2), Leaf(1), Leaf(0))))
    assert not pq.equivalent(a, Q((Leaf(1), Leaf(0), Leaf(2))))
    assert not pq.equivalent(a, P((Leaf(0), Leaf(1), Leaf(2))))
    assert pq.equivalent(
        P((Leaf(0), Leaf(1), Leaf(2))), P((Leaf(2), Leaf(0), Leaf(1)))
    )


def test_normal_form_idempotent_on_worked_example():
    t12 = copoints.pq_tree2(WORKED12, range(12))
    nf = pq.normal_form(t12)
    assert pq.normal_form(nf) == nf
    assert pq.equivalent(nf, t12)


def test_normalize_merges_equal_weight_p_nodes():
    nested = P((P((Leaf(0), Leaf(1))), Leaf(2)))
    assert pq.normalize(EQUAL3, nested) == P((Leaf(0), Leaf(1), Leaf(2)))


def test_normalize_drops_unary_nodes():
    assert pq.normalize(WORKED12, P((Q((Leaf(5),)),))) == Leaf(5)


def test_node_collapses_unary():
    assert pq.node(WORKED12, P, [Leaf(5)]) == Leaf(5)
    assert pq.node(WORKED12, Q, [P((Leaf(1), Leaf(2)))]) == P((Leaf(1), Leaf(2)))


def test_node_turns_arity2_q_into_p():
    assert pq.node(FLAT3, Q, [Leaf(0), Leaf(1)]) == P((Leaf(0), Leaf(1)))


def test_node_splices_p_child_at_the_same_distance():
    pair = P((Leaf(0), Leaf(1)))
    assert pq.node(EQUAL3, P, [pair, Leaf(2)]) == P((Leaf(0), Leaf(1), Leaf(2)))
    assert pq.node(EQUAL3, P, [Leaf(2), pair]) == P((Leaf(2), Leaf(0), Leaf(1)))
    # an arity-2 Q is a P, so it absorbs a P child at its distance too
    assert pq.node(EQUAL3, Q, [Leaf(2), pair]) == P((Leaf(2), Leaf(0), Leaf(1)))


def test_node_keeps_p_child_at_a_smaller_distance():
    # d(1, 2) = 1 inside the pair, d(0, 1) = d(0, 2) = 2 across it
    pair = P((Leaf(1), Leaf(2)))
    assert pq.node(WORKED12, P, [pair, Leaf(0)]) == P((pair, Leaf(0)))


def test_node_returns_wide_q_unchanged():
    kids = (Leaf(0), P((Leaf(1), Leaf(2))), Leaf(3))
    assert pq.node(WORKED12, Q, list(kids)) == Q(kids)


def test_conical_apex_frozen():
    t12 = copoints.pq_tree2(WORKED12, range(12))
    assert pq.conical_apex(WORKED12, t12.children) is None
    first = t12.children[0]
    assert pq.conical_apex(WORKED12, first.children) == (2, 1)
    last = t12.children[2]
    assert pq.conical_apex(WORKED12, last.children) == (2, 2)


def test_classify_frozen():
    t12 = copoints.pq_tree2(WORKED12, range(12))
    facts = reference.classify(WORKED12, t12)
    by_set = {
        tuple(sorted(core.leaf_points(node))): f for node, f in facts.items()
    }
    root = by_set[tuple(range(12))]
    assert (root.delta, root.apex, root.split) == (None, None, False)
    first = by_set[(0, 1, 2, 3)]
    assert (first.delta, first.apex, first.split) == (2, 1, False)
    last = by_set[(7, 8, 9, 10, 11)]
    assert (last.delta, last.apex, last.split) == (2, 2, True)
    middle = by_set[(4, 5, 6)]
    assert (middle.delta, middle.apex) == (1, None)


def test_delta_pq_tree_worked_example():
    t = reference.delta_pq_tree(WORKED12, range(12))
    assert pq.equivalent(t, copoints.pq_tree2(WORKED12, range(12)))


def test_delta_pq_tree_flat3():
    t = reference.delta_pq_tree(FLAT3, range(3))
    assert pq.equivalent(t, Q((Leaf(0), Leaf(1), Leaf(2))))


@settings(max_examples=120)
@given(robinson_matrices(max_n=8))
def test_delta_pq_tree_equivalent_to_copoint_construction(m):
    a = copoints.pq_tree2(m, range(m.n))
    b = reference.delta_pq_tree(m, range(m.n))
    assert pq.equivalent(a, b)


@given(robinson_matrices(max_n=7))
def test_counting_matches_enumeration(m):
    tree = copoints.pq_tree2(m, range(m.n))
    orders = list(oracle.enumerate_orders(tree, cap=50_000))
    assert pq.count_orders(tree) == len(orders)
    assert len(set(orders)) == len(orders)


@given(robinson_matrices(max_n=7))
def test_represented_orders_are_exactly_the_enumerated_ones(m):
    tree = copoints.pq_tree2(m, range(m.n))
    if m.n > 6:
        return
    enumerated = set(oracle.enumerate_orders(tree, cap=50_000))
    for perm in itertools.permutations(range(m.n)):
        assert reference.represents_order(tree, perm) == (perm in enumerated)
