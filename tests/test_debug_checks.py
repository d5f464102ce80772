"""The small-instance tree tests, rerun with ``reference.debug_checks`` on.

The flag gates the self-audits of ``reference.mmodule_tree_from_dendrogram``,
which these cases reach directly and through ``maximal_mmodules`` and
``delta_pq_tree``.  Audits may assert, but they must leave every return
value and every raised exception as it is with the flag off.
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given

import reference
import test_mmodtree
import test_pqtree
from conftest import robinson_matrices
from robinspace import core, pqtree as pq

CASES = [
    fn
    for module in (test_mmodtree, test_pqtree)
    for name, fn in sorted(vars(module).items())
    if name.startswith("test_") and inspect.isfunction(fn)
]


@pytest.mark.parametrize("case", CASES, ids=lambda fn: f"{fn.__module__}.{fn.__name__}")
def test_small_cases_hold_with_audits_on(debug_checks, case):
    assert reference.debug_checks
    case()


def test_ambiguous_apex_is_the_first_either_way():
    # all four points pairwise at 1: children 1 and 2 both pass as apex;
    # conical_apex has no audit branch, so it always returns the first
    m = core.DissimilarityMatrix([[0 if i == j else 1 for j in range(4)] for i in range(4)])
    kids = tuple(pq.Leaf(i) for i in range(4))
    assert pq.conical_apex(m, kids) == (1, 1)


@given(robinson_matrices(max_n=8))
def test_audits_do_not_change_trees(m):
    pts = range(m.n)
    saved = reference.debug_checks
    try:
        reference.debug_checks = False
        plain = reference.mmodule_tree_from_dendrogram(m, pts)
        reference.debug_checks = True
        audited = reference.mmodule_tree_from_dendrogram(m, pts)
    finally:
        reference.debug_checks = saved
    assert audited == plain
