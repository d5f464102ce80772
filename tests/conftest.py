from __future__ import annotations

import copy

import pytest
from hypothesis import strategies as st

import reference
from robinspace import generator, mmodtree as mm
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
def robinson_matrices(
    draw, min_n: int = 2, max_n: int = 8, max_bump: int = 3, shuffle: bool = True
):
    """Random Robinson matrix, hidden compatible order shuffled away.

    Each upper-triangle entry is the max of its two inner neighbours plus a
    drawn increment, so the identity order is compatible before the
    permutation is applied (and after it, with ``shuffle=False``).  Zero
    increments next to the diagonal create duplicate points, which most
    shrunken counterexamples turn out to need.
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
    perm = draw(st.permutations(range(n))) if shuffle else range(n)
    rows = [[grid[perm[a]][perm[b]] for b in range(n)] for a in range(n)]
    return DissimilarityMatrix(rows, 1)


@st.composite
def profile_subsets(draw, max_n: int = 64):
    """A generated matrix of any profile and the whole point set or a subset.

    Robinsonness is hereditary, so every subset is a Robinson space too.
    """
    n = draw(st.integers(1, max_n))
    profile = draw(st.sampled_from(generator.PROFILES))
    m = generator.generate_matrix(n, draw(st.integers(0, 10**6)), profile)
    return m, _whole_or_subset(draw, n)


def _whole_or_subset(draw, n: int) -> list[int]:
    whole = list(range(n))
    subset = st.lists(st.sampled_from(whole), min_size=1, unique=True)
    return draw(st.one_of(st.just(whole), subset))


def conical(b: int):
    """d(i, j) of a space whose PQ-tree has a conical Q-node at every level.

    Read i and j in base ``b``, and let l >= 1 be the highest digit
    position where they differ (the units digit is 1), with digits a and
    c there.  Then d(i, j) = 2l + 2 when {a, c} = {0, b - 1}, the two ends
    of the level, and 2l + 1 otherwise.  Each block of one level is a
    Q-node whose interior children sit at 2l + 1 from all their siblings,
    so its mmodule node is special; with b = 3 the apex is a leaf or a
    Q-node, with b = 4 a P-node at that weight, which falls apart.
    """

    def d(n: int, i: int, j: int) -> int:
        level = 0
        while i != j:
            level += 1
            if i % b != j % b:
                top, ends = level, {i % b, j % b} == {0, b - 1}
            i, j = i // b, j // b
        return 2 * top + 1 + ends

    return d


# Robinson shapes outside the generator profiles, d(i, j) for i != j.  They
# stay out of ``generator.PROFILES``: tests index that tuple and sample from it.
SHAPES = {
    "uniform": lambda n, i, j: 1,
    "reversed-caterpillar": lambda n, i, j: n - min(i, j),
    "blocks-of-8": lambda n, i, j: 1 if i // 8 == j // 8 else 2,
    "caterpillar": lambda n, i, j: max(i, j),
    "line": lambda n, i, j: abs(i - j),
    "conical-3": conical(3),
    "conical-4": conical(4),
}


def shape_matrix(name: str, n: int) -> DissimilarityMatrix:
    """The n-point matrix of one of ``SHAPES``; the identity order is compatible."""
    d = SHAPES[name]
    return DissimilarityMatrix([[d(n, i, j) if i != j else 0 for j in range(n)] for i in range(n)])


@st.composite
def shape_subsets(draw, max_n: int = 64):
    """A shape matrix and the whole point set or a subset, as ``profile_subsets``."""
    n = draw(st.integers(1, max_n))
    m = shape_matrix(draw(st.sampled_from(sorted(SHAPES))), n)
    return m, _whole_or_subset(draw, n)


@st.composite
def spine_with_block(draw, max_n: int = 10):
    """A Robinson spine and a block at uniform distance delta in one slot.

    The spine's compatible order is the identity.  The pairs across slot
    s are lifted past delta, the larger diameter of the two sides, so the
    spine is wider than delta and s is its only slot.  The block keeps
    its own distances within delta and takes the smallest points, so the
    copoint construction at its first point hangs it off the spine.
    """
    d = draw(robinson_matrices(max_n=max_n, shuffle=False)).rows
    n = len(d)
    s = draw(st.integers(1, n - 1))
    delta = max(d[0][s - 1], d[s][n - 1])
    lift = max(0, delta - d[s - 1][s]) + 1
    for x in range(s):
        for y in range(s, n):
            d[x][y] = d[y][x] = d[x][y] + lift
    block = draw(robinson_matrices(min_n=1, max_n=3)).rows
    k = len(block)
    rows = [[min(v, delta) for v in row] + [delta] * n for row in block]
    rows += [[delta] * k + row for row in d]
    perm = [*range(k), *(k + x for x in draw(st.permutations(range(n))))]
    return DissimilarityMatrix([[rows[a][b] for b in perm] for a in perm]), range(k + n)


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


def _doc_nodes(root: dict) -> list[dict]:
    """Every node of a tree document, parents first."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.get("children", ()))
    return out


@st.composite
def mutated_documents(draw, doc: dict, max_weight: int = 40) -> dict:
    """A copy of a PQ or mmodule tree document with one or two edits: two
    leaves swapped, P and Q or cup and cap exchanged, a cap's special
    weight set, changed or dropped, its large child moved, or one node's
    children reordered (the large child following its child).  Every
    edit leaves a well-formed document over the same leaves, which may or
    may not still describe the same tree."""
    doc = copy.deepcopy(doc)
    flip = {"P": "Q", "Q": "P", "cup": "cap", "cap": "cup"}
    for _ in range(draw(st.integers(1, 2))):
        nodes = _doc_nodes(doc["root"])
        leaves = [node for node in nodes if node["type"] == "leaf"]
        inner = [node for node in nodes if node["type"] != "leaf"]
        caps = [node for node in inner if node["type"] == "cap"]
        specials = [node for node in caps if "special" in node]
        edits = ["swap", "flip", "reorder"] + ["special"] * bool(caps) + ["large"] * bool(specials)
        edit = draw(st.sampled_from(edits))
        if edit == "swap":
            a, b = draw(st.lists(st.sampled_from(leaves), min_size=2, max_size=2, unique_by=id))
            a["point"], b["point"] = b["point"], a["point"]
        elif edit == "flip":
            node = draw(st.sampled_from(inner))
            node["type"] = flip[node["type"]]
        elif edit == "reorder":
            node = draw(st.sampled_from(inner))
            perm = draw(st.permutations(range(len(node["children"]))))
            node["children"] = [node["children"][i] for i in perm]
            if "largeChild" in node:
                node["largeChild"] = perm.index(node["largeChild"])
        elif edit == "special":
            node = draw(st.sampled_from(caps))
            if "special" in node and draw(st.booleans()):
                del node["special"], node["largeChild"]
            else:
                node["special"] = str(draw(st.integers(0, max_weight)))
                node["largeChild"] = draw(st.integers(0, len(node["children"]) - 1))
        else:
            node = draw(st.sampled_from(specials))
            node["largeChild"] = draw(st.integers(0, len(node["children"]) - 1))
    return doc


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
    """Run the test with the reference construction's self-audits on, then restore the flag."""
    saved = reference.debug_checks
    reference.debug_checks = True
    try:
        yield
    finally:
        reference.debug_checks = saved
