"""Acceptance gate: ten end-to-end checks, one per release criterion.

Each test prints one PASS line (with wall time) when it succeeds; a failure
shows up as an ordinary pytest failure.  Oracles are the brute-force
implementations in ``tests/oracle.py``; nothing here trusts the fast path
against itself.
"""

from __future__ import annotations

import itertools
import json
import random
import time

import oracle
import reference
from conftest import WORKED12, canon_mm
from robinspace import (
    cli,
    copoints as cop,
    core,
    dendrogram as dg,
    generator,
    mmodtree as mm,
    pqtree as pq,
    refine,
    translate,
)
from robinspace.core import DissimilarityMatrix

BUILDERS = ("dendrogram", "mmodule-tree", "pq-tree")

# non-singleton copoints of the 12-point example with their attaching points
COPOINT_TABLE = [
    ((1, 2), (0, 3)),
    ((0, 3), (1, 2)),
    ((0, 1, 2, 3), tuple(range(4, 12))),
    ((4, 5), (6,)),
    ((4, 6), (5,)),
    ((5, 6), (4,)),
    ((4, 5, 6), (0, 1, 2, 3, 7, 8, 9, 10, 11)),
    ((9, 10), (7, 8, 11)),
    ((7, 8, 9, 11), (10,)),
    ((7, 8, 10, 11), (9,)),
    ((7, 8, 9, 10, 11), tuple(range(0, 7))),
]

WORKED12_CLUSTERS = {
    ((1, 2), 1),
    ((4, 5, 6), 1),
    ((7, 8), 1),
    ((0, 1, 2, 3), 2),
    ((7, 8, 9, 10, 11), 2),
    ((0, 1, 2, 3, 4, 5, 6), 5),
    (tuple(range(12)), 6),
}


def _report(capsys, idx: int, name: str, started: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    suffix = f", {detail}" if detail else ""
    with capsys.disabled():
        print(f"PASS [{idx}/10] {name} ({elapsed:.2f}s{suffix})")


def _random_symmetric(rng: random.Random, n: int, hi: int) -> DissimilarityMatrix:
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            rows[a][b] = rows[b][a] = rng.randint(0, hi)
    return DissimilarityMatrix(rows, 1)


def _expected_pq12() -> pq.PQTree:
    return pq.Q((
        pq.Q((pq.Leaf(0), pq.P((pq.Leaf(2), pq.Leaf(1))), pq.Leaf(3))),
        pq.P((pq.Leaf(6), pq.Leaf(5), pq.Leaf(4))),
        pq.Q((pq.Leaf(7), pq.Leaf(8), pq.P((pq.Leaf(10), pq.Leaf(9))), pq.Leaf(11))),
    ))


def _expected_mm12() -> mm.MModuleTree:
    left = mm.Cap(
        (mm.Cap((mm.Leaf(1), mm.Leaf(2))), mm.Cap((mm.Leaf(0), mm.Leaf(3)))),
        special=2,
        large_child=1,
    )
    middle = mm.Cap((mm.Leaf(4), mm.Leaf(5), mm.Leaf(6)))
    right = mm.Cap(
        (mm.Leaf(9), mm.Leaf(10), mm.Cup((mm.Leaf(7), mm.Leaf(8), mm.Leaf(11)))),
        special=2,
        large_child=2,
    )
    return mm.Cup((left, middle, right))


def test_01_worked_example(capsys):
    t0 = time.perf_counter()
    pts = range(12)

    expected_pq = _expected_pq12()
    assert pq.equivalent(cop.pq_tree2(WORKED12, pts), expected_pq)
    assert pq.equivalent(reference.delta_pq_tree(WORKED12, pts), expected_pq)

    expected_mm = _expected_mm12()
    built = reference.mmodule_tree_from_dendrogram(WORKED12, pts)
    assert canon_mm(built) == canon_mm(expected_mm)
    translated = translate.pq_to_mmodule_tree(WORKED12, cop.pq_tree2(WORKED12, pts))
    assert canon_mm(translated) == canon_mm(expected_mm)
    right_block = next(
        node
        for node in core.iter_nodes(built)
        if not isinstance(node, mm.Leaf)
        and reference.leaf_set(node) == frozenset({7, 8, 9, 10, 11})
    )
    assert right_block.special == 2
    large = right_block.children[right_block.large_child]
    assert reference.leaf_set(large) == frozenset({7, 8, 11})

    for p in range(12):
        classes = refine.copoint_partition(WORKED12, p, pts)
        got = {cls for cls in classes[1:] if len(cls) >= 2}
        want = {cp for cp, attachers in COPOINT_TABLE if p in attachers}
        assert got == want, p

    dtree = dg.build_dendrogram(WORKED12, pts)
    assert reference.clusters(dtree) == WORKED12_CLUSTERS
    assert {w for _, w in reference.clusters(dtree)} == {1, 2, 5, 6}

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(capsys, 1, "worked example reproduced", t0)


def test_02_order_sets_match_oracle(capsys):
    t0 = time.perf_counter()
    per_profile = 500
    for profile in generator.PROFILES:
        rng = random.Random(f"accept2:{profile}")
        for i in range(per_profile):
            n = rng.randint(2, 9)
            matrix = generator.generate_matrix(n, i, profile)
            result = cop.recognize_robinson(matrix)
            assert result.accepted, (profile, i)
            got = set(oracle.enumerate_orders(result.tree, cap=10**6))
            want = set(oracle.brute_compatible_orders(matrix, range(n)))
            assert got == want, (profile, i)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        capsys, 2, "order sets equal brute enumeration", t0,
        f"{per_profile} instances x {len(generator.PROFILES)} profiles",
    )


def test_03_recognition_verdict_matches_oracle(capsys):
    t0 = time.perf_counter()
    accepted = rejected = 0
    for i in range(510):
        rng = random.Random(f"accept3:{i}")
        n = rng.randint(2, 8)
        flavor = i % 3
        if flavor == 0:
            matrix = _random_symmetric(rng, n, rng.randint(1, 4))
        else:
            matrix = generator.generate_matrix(n, i, generator.PROFILES[i % 4])
            if flavor == 2 and n >= 2:
                a = rng.randrange(n)
                b = (a + rng.randrange(1, n)) % n
                rows = [list(row) for row in matrix.rows]
                rows[a][b] = rows[b][a] = rows[a][b] + rng.randint(1, 3)
                matrix = DissimilarityMatrix(rows, matrix.scale)
        verdict = cop.recognize_robinson(matrix).accepted
        assert verdict == bool(oracle.brute_compatible_orders(matrix, range(n))), i
        accepted += verdict
        rejected += not verdict
    assert accepted >= 50 and rejected >= 50
    _report(
        capsys, 3, "recognition verdict equals brute verdict", t0,
        f"{accepted} accepted / {rejected} rejected",
    )


def test_04_mmodules_and_copoints_match_oracle(capsys):
    t0 = time.perf_counter()
    rng = random.Random("accept4")
    for i in range(200):
        n = rng.randint(2, 12)
        matrix = generator.generate_matrix(n, i, generator.PROFILES[i % 4])
        tree = mm.mmodule_tree(matrix, range(n))
        pts = list(range(n))

        want = set(oracle.brute_mmodules(matrix, pts))
        got = set()
        for r in range(n + 1):
            for cand in itertools.combinations(pts, r):
                if reference.is_mmodule_via_tree(tree, cand):
                    got.add(cand)
        assert got == want, i

        for p in pts:
            brute = set(oracle.brute_copoints(matrix, pts, p))
            fast = set(refine.copoint_partition(matrix, p, pts))
            via_tree = set(reference.copoints_from_mmodule_tree(tree, p)) | {(p,)}
            assert brute == fast == via_tree, (i, p)
    _report(capsys, 4, "mmodules and copoints equal brute oracles", t0, "200 instances")


def test_05_translation_roundtrips(capsys):
    t0 = time.perf_counter()
    rng = random.Random("accept5")
    for i in range(500):
        n = rng.randint(2, 40)
        matrix = generator.generate_matrix(n, i, generator.PROFILES[i % 4])
        t_pq = cop.pq_tree2(matrix, range(n))
        t_mm = reference.mmodule_tree_from_dendrogram(matrix, range(n))
        back_pq = translate.mmodule_to_pq_tree(
            matrix, translate.pq_to_mmodule_tree(matrix, t_pq)
        )
        assert pq.equivalent(back_pq, t_pq), i
        back_mm = translate.pq_to_mmodule_tree(
            matrix, translate.mmodule_to_pq_tree(matrix, t_mm)
        )
        assert canon_mm(back_mm) == canon_mm(t_mm), i
    _report(capsys, 5, "pq/mmodule roundtrips are identities", t0, "500 instances")


def test_06_subdominant_ultrametric(capsys):
    t0 = time.perf_counter()
    rng = random.Random("accept6")
    for i in range(100):
        n = rng.randint(2, 64)
        if i % 3 == 0:
            matrix = _random_symmetric(rng, n, rng.randint(1, 6))
        else:
            matrix = generator.generate_matrix(n, i, generator.PROFILES[i % 4])
        tree = dg.build_dendrogram(matrix, range(n))
        sub = oracle.brute_subdominant(matrix, range(n)).rows
        for a in range(n):
            for b in range(a + 1, n):
                assert reference.subdominant_distance(tree, a, b) == sub[a][b], (i, a, b)
        for node in core.iter_nodes(tree):
            if isinstance(node, dg.Internal):
                for child in node.children:
                    if isinstance(child, dg.Internal):
                        assert child.weight < node.weight, i
    _report(capsys, 6, "dendrogram carries the subdominant ultrametric", t0, "100 instances")


def _diameter(matrix: DissimilarityMatrix, points: list[int]) -> int:
    if len(points) < 2:
        return 0
    return reference.diameter_and_pair(matrix, points)[0]


def test_07_ultrametric_specializations(capsys):
    t0 = time.perf_counter()
    rng = random.Random("accept7")
    for i in range(100):
        n = rng.randint(2, 64)
        matrix = generator.generate_matrix(n, i, "ultrametric")
        t_pq = cop.pq_tree2(matrix, range(n))
        t_mm = mm.mmodule_tree(matrix, range(n))
        t_dg = dg.build_dendrogram(matrix, range(n))

        for node in core.iter_nodes(t_pq):
            if isinstance(node, pq.Q):
                assert len(node.children) < 3, i

        for node in core.iter_nodes(t_mm):
            assert not isinstance(node, mm.Cup), i
            if isinstance(node, mm.Cap):
                own = _diameter(matrix, core.leaf_points(node))
                for child in node.children:
                    assert _diameter(matrix, core.leaf_points(child)) < own, i

        pq_family = {
            frozenset(core.leaf_points(node))
            for node in core.iter_nodes(t_pq)
            if not isinstance(node, pq.Leaf)
        }
        mm_family = {
            frozenset(core.leaf_points(node))
            for node in core.iter_nodes(t_mm)
            if not isinstance(node, mm.Leaf)
        }
        dg_family = {
            frozenset(core.leaf_points(node))
            for node in core.iter_nodes(t_dg)
            if isinstance(node, dg.Internal)
        }
        assert pq_family == mm_family == dg_family, i
    _report(capsys, 7, "ultrametric trees coincide as hierarchies", t0, "100 instances")


def test_08_structural_bounds(capsys):
    t0 = time.perf_counter()
    rng = random.Random("accept8")
    for i in range(80):
        n = rng.randint(2, 24)
        matrix = generator.generate_matrix(n, i, generator.PROFILES[i % 4])
        pts = list(range(n))

        distinct: set[tuple[int, ...]] = set()
        for p in pts:
            distinct.update(refine.copoint_partition(matrix, p, pts)[1:])
        assert len(distinct) <= 2 * n - 1, i

        tree = mm.mmodule_tree(matrix, pts)
        subsets = [pts] + [
            core.leaf_points(node)
            for node in core.iter_nodes(tree)
            if not isinstance(node, mm.Leaf)
        ]
        for subset in subsets:
            if len(subset) < 2:
                continue
            values = {
                matrix.rows[a][b]
                for a, b in itertools.combinations(subset, 2)
            }
            splits = sum(
                len(reference.delta_graph_components(matrix, subset, delta)) > 1
                for delta in values
            )
            assert splits <= 1, (i, tuple(subset))
    _report(capsys, 8, "copoint count and delta-split bounds hold", t0, "80 instances")


def test_09_order_counting(capsys):
    t0 = time.perf_counter()
    spine = pq.Q((
        pq.P((pq.Leaf(0), pq.Leaf(1), pq.Leaf(2))),
        pq.Leaf(3),
        pq.Leaf(4),
        pq.Leaf(5),
        pq.Leaf(6),
    ))
    assert pq.count_orders(spine) == 12

    rng = random.Random("accept9")
    checked = 0
    for i in range(300):
        n = rng.randint(2, 12)
        matrix = generator.generate_matrix(n, i, generator.PROFILES[i % 4])
        tree = cop.pq_tree2(matrix, range(n))
        count = pq.count_orders(tree)
        if count <= 10_000:
            assert count == len(list(oracle.enumerate_orders(tree, cap=10_000))), i
            checked += 1
    assert checked >= 250
    _report(capsys, 9, "order counting matches enumeration", t0, f"{checked} counted trees")


def _bench_verdict(report: dict) -> tuple[bool, str]:
    problems = []
    for op in BUILDERS:
        median = report["medians"]["1024"][op]
        if median >= 5.0:
            problems.append(f"{op} median at 1024 is {median:.2f}s")
    for key in ("512/256", "1024/512"):
        for op in BUILDERS:
            ratio = report["ratios"][key][op]
            if ratio > 5.0:
                problems.append(f"{op} ratio {key} is {ratio:.2f}")
    return not problems, "; ".join(problems) or "within bounds"


def test_10_scaling(capsys):
    t0 = time.perf_counter()
    argv = ["bench", "--sizes", "256,512,1024", "--reps", "5", "-f", "json"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    ok, detail = _bench_verdict(report)
    if not ok:
        # a truly cubic builder shows ~8x on every run, which one retry
        # cannot hide; retrying only shields against host timing spikes
        with capsys.disabled():
            print(f"  scaling retry: {detail}")
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        ok, detail = _bench_verdict(report)
    assert ok, detail
    ratios = [
        f"{op} {report['ratios']['1024/512'][op]:.2f}" for op in BUILDERS
    ]
    _report(capsys, 10, "builders scale quadratically", t0, "; ".join(ratios))
