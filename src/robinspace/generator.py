"""Seeded random Robinson matrices in four profiles (``PROFILES``), the
inputs of the ``generate`` and ``bench`` commands, the tests and the benchmark."""

from __future__ import annotations

import random
from operator import itemgetter

from .core import DissimilarityMatrix

PROFILES = ("generic", "ultrametric", "flat-heavy", "tie-heavy")


def generate_matrix(n: int, seed: int, profile: str) -> DissimilarityMatrix:
    """Seeded random Robinson matrix; see the profile table in the README.

    The same (n, seed, profile) gives the same matrix, so the same bytes
    from ``formats.serialize_matrix``; ``test_cli`` pins their sha256
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
    dup_rate = {"generic": 0.1, "flat-heavy": 0.0, "tie-heavy": 0.35}[profile]
    m = max(1, n - sum(rng.random() < dup_rate for _ in range(n - 1)))
    multiplicity = [1] * m
    for _ in range(n - m):
        multiplicity[rng.randrange(m)] += 1
    base = _staircase(m, rng, profile)
    # duplicated points stay adjacent, so the identity order remains compatible
    spread = [i for i, k in enumerate(multiplicity) for _ in range(k)]
    perm = list(range(n))
    rng.shuffle(perm)
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


def _staircase(m: int, rng: random.Random, profile: str) -> list[list[int]]:
    """Symmetric m x m grid grown outward from the diagonal, column by
    column, so each entry dominates its inner pair; each distinct weight
    is one int object.  A ranged bump calls ``randint``'s own draw,
    ``_randbelow``, directly: ``randint(1, k)`` is ``1 + _randbelow(k)``, so
    the stream is the same, at one call per draw instead of three."""
    random_, randbelow = rng.random, rng._randbelow
    if profile == "flat-heavy":
        bump = lambda: 2 + randbelow(2) if random_() < 0.15 else 1
    elif profile == "tie-heavy":
        bump = lambda: 0 if random_() < 0.6 else 1
    else:
        bump = lambda: 0 if random_() < 0.35 else 1 + randbelow(4)
    intern = {}.setdefault
    # row j first holds d(i, j) for i <= j, column j of the upper triangle,
    # drawn from the diagonal outward: d(i, j) is one bump above the larger
    # of d(i, j - 1), read from row j - 1, and d(i + 1, j), drawn just before
    rows = [[0]]
    for _ in range(1, m):
        column = []
        append = column.append
        below = 0
        for left in reversed(rows[-1]):
            if left > below:
                below = left
            below += bump()
            below = intern(below, below)
            append(below)
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
    """Random merges at rising heights; each merge writes its one height
    object, so equal weights already share one int.  The rows become
    tuples one at a time, so the peak stays one grid."""
    rows = [[0] * n for _ in range(n)]
    clusters = [[i] for i in range(n)]
    height = 0
    while len(clusters) > 1:
        height += rng.randint(1, 3)
        rng.shuffle(clusters)
        take = rng.randint(2, min(4, len(clusters)))
        merged, clusters = clusters[:take], clusters[take:]
        for a in range(take):
            for b in range(a + 1, take):
                for x in merged[a]:
                    for y in merged[b]:
                        rows[x][y] = rows[y][x] = height
        clusters.append([x for part in merged for x in part])
    for i, row in enumerate(rows):
        rows[i] = tuple(row)
    return DissimilarityMatrix(rows, 1)
