"""Identical rows (twins), points at one distance from all later points,
and the shared pivot queues of the refinement.

Three shortcuts skip work on them: the refinement scan confirms a class of
identical rows with one row compare, the copoint construction hangs each
point at one distance from all later points without a copoint partition
and builds a class of pairwise-equidistant points as one P-node without
recursing, and Prim's sweep skips the merge of a row equal to the last one
merged.  None may move a byte: the golden digests below were taken from
the construction before the shortcuts, and the property tests hold them
to the loop references and to the construction with its shortcut
switched off.
"""

from __future__ import annotations

import hashlib
import random
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

import reference
import refine_reference
from conftest import SHAPES, robinson_matrices, shape_matrix, symmetric_matrices
from robinspace import copoints, core, generator, mmodtree as mm, pqtree as pq, refine
from robinspace import dendrogram as dg
from robinspace.core import DissimilarityMatrix


def plant_twins(matrix: DissimilarityMatrix, k: int, seed: int, sources: int) -> DissimilarityMatrix:
    """``matrix`` with ``k`` more points, each a copy of one of ``sources``
    drawn points, then all points relabelled by a seeded shuffle.  A copy's
    row equals its source's, so the copies of a point are twins."""
    rng = random.Random(seed)
    hubs = rng.sample(range(matrix.n), sources)
    src = [*range(matrix.n), *(rng.choice(hubs) for _ in range(k))]
    rng.shuffle(src)
    rows = matrix.rows
    return DissimilarityMatrix([[rows[a][b] for b in src] for a in src], matrix.scale)


def random_symmetric(n: int, seed: int, lo: int, hi: int) -> DissimilarityMatrix:
    """Seeded symmetric zero-diagonal matrix with entries in [lo, hi]."""
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return DissimilarityMatrix(rows)


def zero_hub(m: int, hub: int = 0) -> DissimilarityMatrix:
    """Points 0..m-1 at distance ``hub`` from every point, then x = m and
    y = m+1 at distance 1.  With ``hub`` 0 it is Robinson (x, the hub, y):
    the hub points are twins, and x and y are at distance 0 from them
    without being their twins.  With ``hub`` 2 it is Robinson (x, y, the
    hub), and each hub point's row is constant without being a twin's."""
    n = m + 2
    rows = [[hub] * n for _ in range(n)]
    for x in range(n):
        rows[x][x] = 0
    rows[m][m + 1] = rows[m + 1][m] = 1
    return DissimilarityMatrix(rows)


def plant_constant_rows(
    matrix: DissimilarityMatrix, points: list[int], seed: int, hi: int
) -> DissimilarityMatrix:
    """``matrix`` with each of ``points``, in turn, put at one seeded
    distance in [0, hi] from every other point.  A point planted later
    overwrites its entry in the rows planted before it, so a point is at
    one distance from all points planted after it."""
    rng = random.Random(seed)
    rows = [list(row) for row in matrix.rows]
    for x in points:
        d = rng.randint(0, hi)
        for y in range(matrix.n):
            if y != x:
                rows[x][y] = rows[y][x] = d
    return DissimilarityMatrix(rows, matrix.scale)


GOLDEN_CASES = {
    **{f"{p}-300": (lambda p=p: generator.generate_matrix(300, 1, p)) for p in generator.PROFILES},
    **{f"{s}-150": (lambda s=s: shape_matrix(s, 150)) for s in sorted(SHAPES)},
    "ultrametric-twins": lambda: plant_twins(generator.generate_matrix(120, 2, "ultrametric"), 80, 2, 6),
    "flat-heavy-twins": lambda: plant_twins(generator.generate_matrix(120, 3, "flat-heavy"), 80, 3, 6),
    "random-twins": lambda: plant_twins(random_symmetric(60, 4, 1, 5), 60, 4, 4),
    "random-zeros-twins": lambda: plant_twins(random_symmetric(60, 5, 0, 3), 40, 5, 8),
    "zero-hub-100": lambda: zero_hub(100),
    "hub-2-100": lambda: zero_hub(100, 2),
    # each point at one distance from every later one: one run per class
    "constant-rows-leading": lambda: plant_constant_rows(
        random_symmetric(60, 6, 1, 5), list(range(58, -1, -1)), 6, 2
    ),
    "constant-rows-random": lambda: plant_constant_rows(
        random_symmetric(80, 7, 0, 4), random.Random(7).sample(range(80), 30), 7, 3
    ),
    "constant-rows-ultrametric": lambda: plant_constant_rows(
        generator.generate_matrix(120, 8, "ultrametric"), random.Random(8).sample(range(120), 40), 8, 4
    ),
}

# sha256 of repr(pq_tree2), repr(mmodule_tree) and repr(build_dendrogram)
# over all points of each case, pinned before the shortcuts existed (the
# hub-2 and constant-rows cases before the constant run and shared queues)
GOLDEN_TREES = {
    "generic-300": (
        "a3483105cfe1b920ee1c665d7ec35a3d6bf5b22decc7851d3d473238f21bc156",
        "c59ee8a26ba87b02136fdc8974d939e1ccf5bdb4c47a61ad5bbba1e8430443df",
        "d56cb69739fb3c5a78f9ddb2acbdf32e4432df1029dd441bf2700bf2a68b8f2f",
    ),
    "ultrametric-300": (
        "73b1eabebe00d78f1bee8da20eca4dd5b37182174be86bf6379210aba44c2ab2",
        "bb05ab65c31c69ce8dc78e50d835f8455bd3a61bd03a766024502ac31b0a5e31",
        "22901b340aaa81c0ae4823728eff15263b30be91070767f993117e1000fb6145",
    ),
    "flat-heavy-300": (
        "11fb9a2d7a3810244a9cae4dfaaed0228b57f1e8e895a0285c058349412ea968",
        "1c6231f4b83bffeb2c0c624056f411c64b21b55bf04da5f8cbdbdc7202d022a6",
        "1f857728b64f2a729b7e6d0dd54d8540132fa104a5f4c9214777c202c46776b9",
    ),
    "tie-heavy-300": (
        "4acf2657a5888c0ca87e5de0281946f4a16b869b2b7ed8986a062704ee2aa9d7",
        "84c779e51b649c15ae47470f976eb08d8b25900f94f2ca6832a9395efd32966c",
        "f5a7b7a3a225f8b494516f7223eb704ef03403ca19589a0caf620c2784f253f7",
    ),
    "blocks-of-8-150": (
        "baf771d5b52400597d66edeb1519804ba5c2585f4e03272618f90f18c5300f79",
        "33cbaf74380904fb1ffb73486a2d3e9a77420418977ccd445e77ee7a74956a46",
        "ec59b8647a9c02716ad7303dafd85079b925ebed71dd97ec7d3a97089c4f163f",
    ),
    "caterpillar-150": (
        "2e1dfa97a74978ec3aa8c3b418d47db2d7c6611f456dbb02c299e95dd2a035f0",
        "fbac3518d351a2427e1703f8702f2eeb6ab9f0c0a924796ab9f3415ecca5762a",
        "aec09a86ab222ecded51f472d29216d9259e7c871754c414c59a1ec253338a6d",
    ),
    # pinned before the PQ→mmodule fold read the apex by the P weight alone
    "conical-3-150": (
        "72dbd98e93b10586e92cd9bfa690d16269fcb22489207501f559851e58e734f9",
        "a2ef3a5d2c6a41bc0c45d6652edbc221499f6d59982ecccca01e1b860f6df7c3",
        "5a1ba3bed4f113ff7c25a45bd046846cd2a974ec138dfaaf13125841a3bc47b0",
    ),
    "conical-4-150": (
        "b1069b7912c31cf1f66767826e9bf520d2e3a9c57add439ea339292870db4797",
        "9f7fa8e5d65a8f1e9c6d911fad0fafe793c46a9f6b9a45fe0d318920b7f5c37d",
        "3013943f3b0cb8a52914eded848352390a00a81ebf40664aa5cf167099ca1a26",
    ),
    "line-150": (
        "7cf63eb679d8745644df3bf84d845e634c224bf899f7459ee12431487e70881f",
        "f8b5c59c17ec268f3eb3a1365d9be88b12c07a694be7a70e0cb085584e040314",
        "107889ba0d324aa2e68f0a7df883de6485e16923898019eda3bdd0777ee4515b",
    ),
    "reversed-caterpillar-150": (
        "05cd744e95a52ea3b13e336f30a4959946de343eb1d270a73b8963a65a7476d4",
        "4bf4478e2ae8946e5a684c35ef9aa2c5921a2a72e64794807f75ace6f3d5a0ee",
        "4f8e3faf3ef1ce0c5a56633d4fdfd99828ba54b405e343b0ff3ec23dae276fff",
    ),
    "uniform-150": (
        "1ae6490eb937fcce740648b4631476bc5f248ee3b41767e7f28dffa9bc5edda1",
        "7c6b0d062efc2e45cf5bcbc192c49ea84104ffcc93ed608ea72fb11a4384bcc1",
        "107889ba0d324aa2e68f0a7df883de6485e16923898019eda3bdd0777ee4515b",
    ),
    "ultrametric-twins": (
        "698a8865f6c78c18adc3904ceb992c4157a97f78a06a61d2c44931b794ae3121",
        "3dff3f0d923c144bed501e99f2b42dcdcff48df0bec53e2f541c06d5baed3524",
        "1434f7d547d1c2990100e68a9396b6fb4c2be5c007143f76e75ca3fd9e661a1f",
    ),
    "flat-heavy-twins": (
        "5ab7bb83cb5fdbca72193e1a445e48b5b10fba46132a65be471f22c61c11bf2a",
        "9f88b9094786991d5490fdde755bba026294674bf3bc9993b0a7cb56c7dfe645",
        "303a1b6398eda7528498618a5d9b28aa1406f958f108f30369cfbbd70ce8e8ca",
    ),
    "random-twins": (
        "bbc9b97b9ca18a8c0e25b046450e5d529e3beaa9329c93b8b26a51ee077c5d19",
        "567c89b7029fbbf3227b67b63af8012c162e2c0e40ec813aa92801df59c98208",
        "8956fb66667c5060601160d2863e75c8a82580aeb81e4dee8ad6883cdd36a4d3",
    ),
    "random-zeros-twins": (
        "71b9b5b911740ac76682785c26124a27f0680302c1144d2711a66833dc3a8692",
        "acab08e97e1200901b12746feb0bead55c8bbf39503ee8bb5e49e01aa514bf22",
        "1845867c5a605554d4e91956b7c41f45818e8bd28a13219049658ca8f4c2d679",
    ),
    "zero-hub-100": (
        "1af9624958d9b4f53f26744e7e5519110b3a641a9f25e0f172bc1fa64890ea5e",
        "2394a1ea7107bd4fbd8b8e2cfbf2fafda4c27cae57a076d4ac5ac2ffe65bf64e",
        "267b667dcbdf5e4f5dd0e1cd40d78b1e8dfb31cf4e4b0f0cd7d55696bc232a97",
    ),
    "hub-2-100": (
        "d5ae88c7d872835db41873610b9889f38ac907520505204f4ceef8b51893f900",
        "20f0d0f6f2f9aab10d30af684b0d453aa0563b9354a694a7522c9579430ac63d",
        "bb1cbed0d71b0fa55bdf21d609a107e39cdad6297cd6554b672ec0e78ca112b4",
    ),
    "constant-rows-leading": (
        "93ea1344eb533544c304c2ae55fc47d7bbfbbca088edb5654f9d1fccbb265b5b",
        "11a4035142b017659b84b9683354c7725668c74dc047d9f7e57cd7e2b8db1020",
        "ab0513e9b98362462ccbb3639cfdd795db1c108f26a7746d14f4e0562865f69f",
    ),
    "constant-rows-random": (
        "275341954bf8661c02f461c02370843bf1552ba70339f301b7af7ff854271590",
        "90fe6ac46e2667a9ea36c59b5ca61d6d3738216b8e56a0b20f0694d6cb4fa941",
        "4475256c5862203df38972e82ab89538b679f491678308dbb2dc23f69a5615e3",
    ),
    "constant-rows-ultrametric": (
        "8be35fe4e811bedcb91ada53ac7f0d8086c3e73dc39a23b2bb19fa37000cadc6",
        "c2957da6181e076cddc6def0fe62897205dd7301b66884339cf8b991a3f9ad1d",
        "55037f0c38ea8ccf413ded5da872b246df2c2668e202af4ed56d6a4431bf0582",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_CASES))
def test_trees_match_golden_digests(case):
    m = GOLDEN_CASES[case]()
    pts = range(m.n)
    trees = (copoints.pq_tree2(m, pts), mm.mmodule_tree(m, pts), dg.build_dendrogram(m, pts))
    digests = tuple(hashlib.sha256(repr(t).encode()).hexdigest() for t in trees)
    assert digests == GOLDEN_TREES[case]


@st.composite
def twinned_matrices(draw, max_n: int = 9):
    """A small Robinson, arbitrary symmetric or generated matrix with
    planted twins.  Zero entries of the first two kinds put points at
    distance 0 that are not twins."""
    base = draw(
        st.one_of(
            robinson_matrices(max_n=max_n, max_bump=2),
            symmetric_matrices(max_n=max_n, max_value=3),
            st.builds(
                generator.generate_matrix,
                st.integers(2, 40),
                st.integers(0, 10**6),
                st.sampled_from(generator.PROFILES),
            ),
        )
    )
    k = draw(st.integers(0, 12))
    return plant_twins(base, k, draw(st.integers(0, 10**6)), draw(st.integers(1, min(3, base.n))))


@settings(max_examples=150, deadline=None)
@given(twinned_matrices())
def test_shortcuts_match_the_loops(m):
    pts = list(range(m.n))
    for p in pts:
        assert refine.copoint_partition(m, p, pts) == refine_reference.copoint_partition(m, p, pts)
    assert dg.build_dendrogram(m, pts) == reference.prim_dendrogram_loop(m, pts)


@st.composite
def constant_rowed_matrices(draw):
    """A ``twinned_matrices`` matrix with drawn points put at one distance
    from all others, so runs start, end and restart inside classes."""
    base = draw(twinned_matrices())
    points = draw(st.lists(st.integers(0, base.n - 1), max_size=base.n))
    return plant_constant_rows(base, points, draw(st.integers(0, 10**6)), 3)


@settings(max_examples=150, deadline=None)
@given(constant_rowed_matrices())
def test_zero_run_changes_no_tree(m):
    tree = copoints.pq_tree2(m, range(m.n))
    with pytest.MonkeyPatch.context() as mp:
        # every class through its own copoint partition, as before the run
        mp.setattr(copoints, "_constant_run", lambda rows, pts: 0)
        assert repr(copoints.pq_tree2(m, range(m.n))) == repr(tree)


def counting_itemgetter(monkeypatch) -> list[int]:
    """Make ``refine``'s scan record how many pivots each window reads."""
    windows: list[int] = []

    def getter(*pivots):
        windows.append(len(pivots))
        return itemgetter(*pivots)

    monkeypatch.setattr(refine, "itemgetter", getter)
    return windows


def first_split(rows, pts, queue) -> int:
    return next((i for i, q in enumerate(queue) if len({rows[x][q] for x in pts}) > 1), len(queue))


def test_twin_class_is_confirmed_without_scanning_its_queue(monkeypatch):
    m = plant_twins(shape_matrix("line", 316), 4, 1, 1)
    groups: dict[tuple, list[int]] = {}
    for x, row in enumerate(m.rows):
        groups.setdefault(tuple(row), []).append(x)
    (twins,) = [g for g in groups.values() if len(g) > 1]
    queue = [x for x in range(m.n) if x not in twins]
    windows = counting_itemgetter(monkeypatch)
    assert len(twins) == 5
    assert refine._next_split(m.rows, twins, queue) == len(queue) == 315
    assert sum(windows) == m.n // 16 == 20


def test_failed_row_compare_leaves_the_scan_unchanged(monkeypatch):
    # points 0 and 1 share a block: every pivot outside it sees both at
    # distance 2, yet their rows differ, so the row compare fails
    m = shape_matrix("blocks-of-8", 320)
    pts, queue = [0, 1], list(range(8, 320))
    windows = counting_itemgetter(monkeypatch)
    assert refine._next_split(m.rows, pts, queue) == first_split(m.rows, pts, queue) == 312
    assert sum(windows) == 312
    # the last pivot alone tells them apart
    rows = [list(row) for row in m.rows]
    rows[0][319] = rows[319][0] = 3
    windows.clear()
    assert refine._next_split(rows, pts, queue) == first_split(rows, pts, queue) == 311
    assert sum(windows) == 312


def counting_partitions(monkeypatch) -> list[int]:
    """Make the construction record the point of each copoint partition."""
    calls: list[int] = []
    partition = refine.copoint_partition

    def counted(matrix, p, subset):
        calls.append(p)
        return partition(matrix, p, subset)

    monkeypatch.setattr(refine, "copoint_partition", counted)
    return calls


@st.composite
def gapped_scans(draw):
    """(rows, pts, queue, a, b): a class of near-twins, read by a queue
    whose slice [a, b) is left out.  The class copies one source row, and
    at most one entry of one copy is changed, so the first split can sit
    anywhere, past several windows and past the twin compare.  With 32 to
    160 points a row's sixteenth cuts the windows at 2 to 10 pivots."""
    n = draw(st.integers(32, 160))
    rng = random.Random(draw(st.integers(0, 10**6)))
    k = draw(st.integers(1, 6))
    src = n - k - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n - k):
        for j in range(i + 1, n - k):
            rows[i][j] = rows[j][i] = rng.randint(1, 3)
    pts = [src, *range(n - k, n)]
    for c in pts[1:]:  # a copy of src: d(c, y) = d(src, y), and d(c, src) = 0
        for y in range(n):
            rows[c][y] = rows[y][c] = rows[src][y] if y not in pts else 0
    pivots = rng.sample(range(n - k - 1), draw(st.integers(0, n - k - 1)))
    if pivots and draw(st.booleans()):  # one queued pivot tells a copy apart
        c, q = pts[draw(st.integers(1, k))], pivots[draw(st.integers(0, len(pivots) - 1))]
        rows[c][q] = rows[q][c] = rows[src][q] + 1
    a = draw(st.integers(0, len(pivots)))
    gap = pts if draw(st.booleans()) else []
    return rows, pts, pivots[:a] + gap + pivots[a:], a, a + len(gap)


@settings(max_examples=300, deadline=None)
@given(gapped_scans())
def test_gapped_scan_finds_the_first_split_of_the_copy(scan):
    rows, pts, queue, a, b = scan
    copy = queue[:a] + queue[b:]
    want = first_split(rows, pts, copy)
    got = refine._next_split(rows, pts, queue, a, b)
    if want == len(copy):
        assert got == len(queue)
    else:
        assert got == (want if want < a else want + b - a)


def test_zero_run_takes_no_partition_per_point(monkeypatch):
    calls = counting_partitions(monkeypatch)
    m = zero_hub(300)
    tree = copoints.pq_tree2(m, range(m.n))
    # the hub and x are each at one distance from all later points, so
    # the run takes the whole space, and every point is hung
    assert calls == []
    assert pq.canonical_order(tree)[0] == 301 and pq.canonical_order(tree)[-1] == 300
    assert core.violating_triple(m, pq.canonical_order(tree)) is None


def construction_reads(m: DissimilarityMatrix) -> int:
    """Matrix entries that ``pq_tree2`` reads by index on ``m``."""
    reads = [0]

    class CountingRow(list):
        def __getitem__(self, i):
            reads[0] += 1
            return list.__getitem__(self, i)

    copoints.pq_tree2(DissimilarityMatrix([CountingRow(row) for row in m.rows]), range(m.n))
    return reads[0]


def test_zero_run_reads_grow_quadratically():
    # a run is read once per class: reading it again for every point it
    # hangs would grow cubically
    for hub in (0, 2):
        small = construction_reads(zero_hub(100, hub))
        large = construction_reads(zero_hub(200, hub))
        assert large <= 4.5 * small, hub


def test_ultrametric_partition_count(monkeypatch):
    # pinned when the constant run landed; 178 before it, when every point
    # at one nonzero distance from all later points had its own partition
    calls = counting_partitions(monkeypatch)
    copoints.pq_tree2(generator.generate_matrix(300, 1, "ultrametric"), range(300))
    assert len(calls) == 62
