from __future__ import annotations

import pytest
from hypothesis import strategies as st

from robinspace import core, mmodtree as mm
from robinspace.core import DissimilarityMatrix


def matrix_from_triangle(rows: list[list[int]], scale: int = 1) -> DissimilarityMatrix:
    """Build a full symmetric matrix from an upper triangle (no diagonal)."""
    n = len(rows) + 1
    full = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        assert len(row) == n - 1 - i
        for k, v in enumerate(row):
            j = i + 1 + k
            full[i][j] = v
            full[j][i] = v
    return DissimilarityMatrix(full, scale)


@st.composite
def robinson_matrices(draw, min_n: int = 2, max_n: int = 8, max_bump: int = 3):
    """Random Robinson matrix, hidden compatible order shuffled away.

    Each upper-triangle entry is the max of its two inner neighbours plus a
    drawn increment, so the identity order is compatible before the
    permutation is applied.  Zero increments next to the diagonal create
    duplicate points, which most shrunken counterexamples turn out to need.
    """
    n = draw(st.integers(min_n, max_n))
    k = n * (n - 1) // 2
    bumps = draw(st.lists(st.integers(0, max_bump), min_size=k, max_size=k))
    grid = [[0] * n for _ in range(n)]
    it = iter(bumps)
    for j in range(1, n):
        for i in range(j - 1, -1, -1):
            inner = max(grid[i][j - 1], grid[i + 1][j])
            grid[i][j] = grid[j][i] = inner + next(it)
    perm = draw(st.permutations(range(n)))
    rows = [[grid[perm[a]][perm[b]] for b in range(n)] for a in range(n)]
    return DissimilarityMatrix(rows, 1)


@st.composite
def symmetric_matrices(draw, min_n: int = 2, max_n: int = 7, max_value: int = 5):
    """Arbitrary symmetric zero-diagonal matrix, mostly not Robinson."""
    n = draw(st.integers(min_n, max_n))
    k = n * (n - 1) // 2
    vals = draw(st.lists(st.integers(0, max_value), min_size=k, max_size=k))
    rows = [[0] * n for _ in range(n)]
    it = iter(vals)
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = next(it)
    return DissimilarityMatrix(rows, 1)


def canon_mm(tree: mm.MModuleTree):
    """Order-free structural form; the large child stays distinguishable."""
    if isinstance(tree, mm.Leaf):
        return ("leaf", tree.point)
    kids = [canon_mm(b) for b in tree.children]
    if isinstance(tree, mm.Cup):
        return ("cup", tuple(sorted(kids, key=repr)))
    if tree.special is None:
        return ("cap", None, None, tuple(sorted(kids, key=repr)))
    large = kids[tree.large_child]
    return ("cap", tree.special, large, tuple(sorted(kids, key=repr)))


# The running 12-point example.  Points are 0-based here; add one to match
# the hand-drawn figures used while developing the fixtures.
WORKED12 = matrix_from_triangle(
    [
        [2, 2, 3, 5, 5, 5, 8, 8, 8, 8, 8],
        [1, 2, 5, 5, 5, 8, 8, 8, 8, 8],
        [2, 5, 5, 5, 8, 8, 8, 8, 8],
        [5, 5, 5, 8, 8, 8, 8, 8],
        [1, 1, 6, 6, 6, 6, 6],
        [1, 6, 6, 6, 6, 6],
        [6, 6, 6, 6, 6],
        [1, 2, 2, 3],
        [2, 2, 2],
        [2, 2],
        [2],
    ]
)

# Three points on a line: exactly two compatible orders (a flat space).
FLAT3 = matrix_from_triangle([[1, 2], [1]])

# All pairs equal: every permutation is compatible, every subset an mmodule.
EQUAL3 = matrix_from_triangle([[1, 1], [1]])

# Four points admitting no compatible order (checked exhaustively in tests).
NONROB4 = matrix_from_triangle([[1, 3, 2], [1, 3], [1]])


@pytest.fixture
def worked12() -> DissimilarityMatrix:
    return WORKED12


@pytest.fixture
def flat3() -> DissimilarityMatrix:
    return FLAT3


@pytest.fixture
def equal3() -> DissimilarityMatrix:
    return EQUAL3


@pytest.fixture
def nonrob4() -> DissimilarityMatrix:
    return NONROB4


@pytest.fixture
def debug_checks():
    """Run the test with the builders' self-audits on, then restore the flag."""
    saved = core.debug_checks
    core.debug_checks = True
    try:
        yield
    finally:
        core.debug_checks = saved
