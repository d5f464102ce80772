"""Seeded random Robinson matrices in four profiles (``PROFILES``), the
inputs of the ``generate`` and ``bench`` commands, the tests and the benchmark.

The stream.  One ``random.Random(f"{seed}:{profile}:{n}")`` makes every
draw, in this order:

* ``ultrametric``: per merge, the height step ``randint(1, 3)``, a
  ``shuffle`` of the clusters, then the part count ``randint(2, k)`` for
  k = min(4, clusters);
* the other profiles: n - 1 ``random()`` that mark the duplicated points,
  one ``randrange(m)`` per duplicate, the staircase column by column, each
  entry one ``random()`` and, where the bump is ranged, ``randint(1, 4)``
  (generic) or ``randint(2, 3)`` (flat-heavy), then a ``shuffle`` of the
  n output points.

Under ``randrange``, ``randint`` and ``shuffle`` lies ``_randbelow(k)``,
which CPython 3.10 to 3.13 draw as ``getrandbits(k.bit_length())`` until
the result is below k.  The generator runs that loop itself (``_below``,
``_shuffle`` and inline in the staircase loops), so each draw of a swap
or a staircase entry is one C call with no Python-level call around it,
and the numbers are the same;
``tests/test_generator.py`` holds the loop to the interpreter's own draws
and the output to ``generate_matrix_reference`` in ``tests/reference.py``,
which makes one library call per draw.  The ultrametric rows are filled by
constant runs.  On a 2-CPU host with Python 3.11, one n=2048 matrix takes
0.41 s generic, 0.21 s ultrametric, 0.45 s flat-heavy and 0.17 s tie-heavy
(the median ``generate_s`` of ``robinspace bench --sizes 2048 --reps 3``).
"""

from __future__ import annotations

import random
from operator import itemgetter

from .core import DissimilarityMatrix

PROFILES = ("generic", "ultrametric", "flat-heavy", "tie-heavy")


def generate_matrix(n: int, seed: int, profile: str) -> DissimilarityMatrix:
    """Seeded random Robinson matrix; see the profile table in the README.

    The same (n, seed, profile) gives the same matrix, so the same bytes
    from ``formats.matrix_lines``; ``test_cli`` pins their sha256
    digests.  Each distinct weight is one int object, shared by every
    entry that holds it.
    One grid is alive at a time: the output rows are gathered base point by
    base point from the m x m staircase, and each staircase row is dropped
    as soon as its copies exist, so the peak stays near the size of the
    result.  Rows are tuples, and the copies of one base point share one
    row object: the cyclic collector skips a tuple of ints, and twins
    compare by identity.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}: expected one of {', '.join(PROFILES)}")
    if n == 1:  # nothing to draw; and an itemgetter of one index returns no tuple
        return DissimilarityMatrix([(0,)], 1)
    rng = random.Random(f"{seed}:{profile}:{n}")
    if profile == "ultrametric":
        return _generate_ultrametric(n, rng)
    getrandbits = rng.getrandbits
    dup_rate = {"generic": 0.1, "flat-heavy": 0.0, "tie-heavy": 0.35}[profile]
    m = max(1, n - sum(rng.random() < dup_rate for _ in range(n - 1)))
    multiplicity = [1] * m
    for _ in range(n - m):
        multiplicity[_below(m, getrandbits)] += 1  # rng.randrange(m)
    base = _staircase(m, rng, profile)
    # duplicated points stay adjacent, so the identity order remains compatible
    spread = [i for i, k in enumerate(multiplicity) for _ in range(k)]
    perm = list(range(n))
    _shuffle(perm, getrandbits)
    index = [spread[p] for p in perm]  # the base point of each output point
    gather = itemgetter(*index)
    copies: list[list[int]] = [[] for _ in range(m)]  # the output points of each base point
    for i, b in enumerate(index):
        copies[b].append(i)
    rows: list = [None] * n
    # in base order, so the freed staircase rows lie side by side and the
    # allocator reuses their runs for the output rows; every copy of base
    # point b is the one tuple the gather built
    for b, points in enumerate(copies):
        entries = gather(base[b])
        base[b] = None
        for i in points:
            rows[i] = entries
    return DissimilarityMatrix(rows, 1)


def _below(k: int, getrandbits) -> int:
    """``rng._randbelow(k)`` for k >= 1, the draw under ``randrange`` and
    ``randint``: draws of ``k.bit_length()`` bits until one is below k."""
    bits = k.bit_length()
    r = getrandbits(bits)
    while r >= k:
        r = getrandbits(bits)
    return r


def _shuffle(x: list, getrandbits) -> None:
    """``rng.shuffle(x)``: from the end, swap x[i] with x[j] for j =
    ``_below(i + 1)``, whose loop is inlined; j > i is j >= i + 1."""
    for i in reversed(range(1, len(x))):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


def _staircase(m: int, rng: random.Random, profile: str) -> list[list[int]]:
    """Symmetric m x m grid grown outward from the diagonal, column by
    column, so each entry dominates its inner pair; each distinct weight
    is one int object, taken from ``weights``.  Each profile draws its
    bumps in its own loop, with ``_below``'s loop inlined where a bump is
    ranged; a bump of 0 leaves the entry the object it already is."""
    random_, getrandbits = rng.random, rng.getrandbits
    # no bump passes ``top``, and each entry is one bump above an entry one
    # step nearer the diagonal, so d(i, j) <= top * (j - i) < top * m
    top = {"generic": 4, "flat-heavy": 3, "tie-heavy": 1}[profile]
    weights = list(range(top * m))

    def generic(above: list[int]) -> list[int]:
        # bump 0 with probability 0.35, else randint(1, 4) = 1 + _below(4)
        column = []
        append = column.append
        below = 0
        for left in reversed(above):
            if left > below:
                below = left
            if random_() >= 0.35:
                r = getrandbits(3)
                while r >= 4:
                    r = getrandbits(3)
                below = weights[below + 1 + r]
            append(below)
        return column

    def flat_heavy(above: list[int]) -> list[int]:
        # bump randint(2, 3) = 2 + _below(2) with probability 0.15, else 1
        column = []
        append = column.append
        below = 0
        for left in reversed(above):
            if left > below:
                below = left
            if random_() < 0.15:
                r = getrandbits(2)
                while r >= 2:
                    r = getrandbits(2)
                below = weights[below + 2 + r]
            else:
                below = weights[below + 1]
            append(below)
        return column

    def tie_heavy(above: list[int]) -> list[int]:
        # bump 0 with probability 0.6, else 1
        column = []
        append = column.append
        below = 0
        for left in reversed(above):
            if left > below:
                below = left
            if random_() >= 0.6:
                below = weights[below + 1]
            append(below)
        return column

    draw = {"generic": generic, "flat-heavy": flat_heavy, "tie-heavy": tie_heavy}[profile]
    # row j first holds d(i, j) for i <= j, column j of the upper triangle,
    # drawn from the diagonal outward: d(i, j) is one bump above the larger
    # of d(i, j - 1), read from row j - 1, and d(i + 1, j), drawn just before
    rows = [[0]]
    for _ in range(1, m):
        column = draw(rows[-1])
        column.reverse()
        column.append(0)
        rows.append(column)
    # pad each row to full length, then copy the columns above the diagonal:
    # zip reads them lazily, and column j takes only rows below j, whose
    # entries left of their diagonal are never overwritten
    for row in rows:
        row += [0] * (m - len(row))
    for j, column in enumerate(zip(*rows)):
        rows[j][j + 1 :] = column[j + 1 :]
    return rows


def _generate_ultrametric(n: int, rng: random.Random) -> DissimilarityMatrix:
    """Random merges at rising heights, then the rows by blocks.

    Laid out in the merge tree's leaf order, every cluster is one run of
    places, and a row is constant runs: going down from a merge to one of
    its parts leaves the rest of the merge's run at the merge's height.
    So one buffer, filled in preorder, holds the row of each leaf in turn,
    and one gather puts it in point order as a tuple.  Each merge writes
    its one height object, so equal weights share one int.
    """
    getrandbits = rng.getrandbits
    clusters: list = list(range(n))  # a point, or a merge (height, size, parts)
    height = 0
    while len(clusters) > 1:
        height += 1 + _below(3, getrandbits)  # rng.randint(1, 3)
        _shuffle(clusters, getrandbits)
        take = 2 + _below(min(4, len(clusters)) - 1, getrandbits)  # rng.randint(2, ...)
        parts = clusters[:take]
        del clusters[:take]
        size = sum(1 if type(part) is int else part[1] for part in parts)
        clusters.append((height, size, parts))
    # in preorder: each node's run [lo, hi), its parent's height h and run
    # [a, b), and its point, or -1 for a merge
    place = [0] * n  # of each point, in leaf order
    steps = []
    stack = [(clusters[0], 0, 0, 0, 0)]
    while stack:
        node, lo, h, a, b = stack.pop()
        if type(node) is int:
            place[node] = lo
            steps.append((lo, lo + 1, h, a, b, node))
            continue
        merge_height, size, parts = node
        hi = lo + size
        steps.append((lo, hi, h, a, b, -1))
        for part in reversed(parts):
            hi -= 1 if type(part) is int else part[1]
            stack.append((part, hi, merge_height, lo, lo + size))
    gather = itemgetter(*place)
    row = [0] * n
    rows: list = [None] * n
    for lo, hi, h, a, b, x in steps[1:]:  # the root has no parent to fill from
        row[a:lo] = [h] * (lo - a)
        row[hi:b] = [h] * (b - hi)
        if x >= 0:
            row[lo] = 0
            rows[x] = gather(row)
    return DissimilarityMatrix(rows, 1)
