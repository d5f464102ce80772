"""The brute-force oracles are the ground truth everything else is judged
against, so they get their own frozen cases and closure properties before
any cross-checks run."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from conftest import (
    EQUAL3,
    FLAT3,
    NONROB4,
    WORKED12,
    robinson_matrices,
    symmetric_matrices,
)
from robinspace import core, oracle, reference
from robinspace.oracle import InstanceTooLarge


def test_orders_flat3():
    assert oracle.brute_compatible_orders(FLAT3, range(3)) == [(0, 1, 2), (2, 1, 0)]


def test_orders_equal3():
    got = oracle.brute_compatible_orders(EQUAL3, range(3))
    assert got == sorted(itertools.permutations(range(3)))


def test_orders_nonrob4_empty():
    assert oracle.brute_compatible_orders(NONROB4, range(4)) == []


def test_orders_worked_example_subset():
    got = oracle.brute_compatible_orders(WORKED12, [4, 5, 6])
    assert got == sorted(itertools.permutations([4, 5, 6]))


def test_orders_cap():
    with pytest.raises(InstanceTooLarge):
        oracle.brute_compatible_orders(EQUAL3, range(10))


def test_mmodules_equal3_is_powerset():
    got = oracle.brute_mmodules(EQUAL3, range(3))
    assert sorted(got) == [
        (),
        (0,),
        (0, 1),
        (0, 1, 2),
        (0, 2),
        (1,),
        (1, 2),
        (2,),
    ]


def test_mmodules_two_point_subset():
    assert sorted(oracle.brute_mmodules(WORKED12, [9, 10])) == [
        (),
        (9,),
        (9, 10),
        (10,),
    ]


def test_mmodules_worked_example():
    mods = oracle.brute_mmodules(WORKED12, range(12))
    assert len(mods) == 26
    nontrivial = sorted(s for s in mods if 1 < len(s) < 12)
    assert nontrivial == [
        (0, 1, 2, 3),
        (0, 3),
        (1, 2),
        (4, 5),
        (4, 5, 6),
        (4, 6),
        (5, 6),
        (7, 8, 9, 10, 11),
        (7, 8, 9, 11),
        (7, 8, 10, 11),
        (7, 8, 11),
        (9, 10),
    ]


def test_mmodules_cap():
    big = core.DissimilarityMatrix([[0] * 15 for _ in range(15)])
    with pytest.raises(InstanceTooLarge):
        oracle.brute_mmodules(big, range(15))


def test_subdominant_worked_example():
    sub = oracle.brute_subdominant(WORKED12, range(12))
    assert sub.rows[0][7] == 6
    assert sub.rows[0][1] == 2
    assert sub.rows[9][10] == 2
    assert sub.rows[0][4] == 5


def test_subdominant_idempotent_on_worked_example():
    once = oracle.brute_subdominant(WORKED12, range(12))
    twice = oracle.brute_subdominant(once, range(12))
    assert once.rows == twice.rows


def test_copoints_worked_example():
    assert oracle.brute_copoints(WORKED12, range(12), 0) == [
        (0,),
        (1, 2),
        (3,),
        (4, 5, 6),
        (7, 8, 9, 10, 11),
    ]
    assert oracle.brute_copoints(WORKED12, range(12), 9) == [
        (0, 1, 2, 3),
        (4, 5, 6),
        (7, 8, 10, 11),
        (9,),
    ]


@given(robinson_matrices(max_n=6))
def test_orders_closed_under_reversal(m):
    orders = oracle.brute_compatible_orders(m, range(m.n))
    assert orders, "generator output must admit at least one order"
    as_set = set(orders)
    assert all(tuple(reversed(o)) in as_set for o in orders)
    assert orders == sorted(orders)


@given(robinson_matrices(max_n=6))
def test_orders_are_verified_compatible(m):
    for o in oracle.brute_compatible_orders(m, range(m.n)):
        assert core.is_compatible_order(m, o)


@given(symmetric_matrices(max_n=5))
def test_orders_against_naive_filter(m):
    # the pruned backtracking must agree with filtering all permutations
    want = sorted(
        p
        for p in itertools.permutations(range(m.n))
        if core.is_compatible_order(m, p)
    )
    assert oracle.brute_compatible_orders(m, range(m.n)) == want


@given(robinson_matrices(max_n=6))
def test_mmodules_against_definition(m):
    mods = set(oracle.brute_mmodules(m, range(m.n)))
    pts = list(range(m.n))
    for r in range(m.n + 1):
        for cand in itertools.combinations(pts, r):
            assert (cand in mods) == reference.is_mmodule(m, pts, cand)


@settings(max_examples=60)
@given(robinson_matrices(max_n=6, max_bump=2))
def test_subdominant_is_largest_minorizing_ultrametric(m):
    sub = oracle.brute_subdominant(m, range(m.n))
    n = m.n
    for i in range(n):
        for j in range(n):
            assert sub.rows[i][j] <= m.rows[i][j]
            for k in range(n):
                assert sub.rows[i][j] <= max(sub.rows[i][k], sub.rows[k][j])
