"""The small-instance tree tests, rerun with ``core.debug_checks`` on.

Audits may assert, but they must leave every return value and every
raised exception as it is with the flag off.
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given

import test_mmodtree
import test_pqtree
from conftest import robinson_matrices
from robinspace import copoints, core, mmodtree as mm, pqtree as pq

CASES = [
    fn
    for module in (test_mmodtree, test_pqtree)
    for name, fn in sorted(vars(module).items())
    if name.startswith("test_") and inspect.isfunction(fn)
]


@pytest.mark.parametrize("case", CASES, ids=lambda fn: f"{fn.__module__}.{fn.__name__}")
def test_small_cases_hold_with_audits_on(debug_checks, case):
    assert core.debug_checks
    case()


def test_ambiguous_apex_is_the_first_either_way(debug_checks):
    # all four points pairwise at 1: children 1 and 2 both pass as apex
    m = core.DissimilarityMatrix([[0 if i == j else 1 for j in range(4)] for i in range(4)])
    kids = tuple(pq.Leaf(i) for i in range(4))
    assert pq.conical_apex(m, kids) == (1, 1)
    core.debug_checks = False
    assert pq.conical_apex(m, kids) == (1, 1)


@given(robinson_matrices(max_n=8))
def test_audits_do_not_change_trees(m):
    pts = range(m.n)
    saved = core.debug_checks
    try:
        core.debug_checks = False
        plain = (mm.mmodule_tree(m, pts), copoints.pq_tree2(m, pts))
        core.debug_checks = True
        audited = (mm.mmodule_tree(m, pts), copoints.pq_tree2(m, pts))
    finally:
        core.debug_checks = saved
    assert audited == plain
