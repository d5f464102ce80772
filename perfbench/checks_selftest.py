"""Tests of the benchmark's own checkers, tracer and inputs.

    python3 -m pytest -q perfbench/checks_selftest.py

Each checker must pass a right answer and catch a planted wrong one.
The file name keeps these tests out of the repository's default test
collection; they test the benchmark, not the program.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
import sys
from decimal import Decimal
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from robinspace import cli, copoints, dendrogram, mmodtree  # noqa: E402

DEMO = [[0, 1, 3, 3], [1, 0, 3, 3], [3, 3, 0, 2], [3, 3, 2, 0]]


def generated(n: int, profile: str, seed: int = 3):
    return cli.generate_matrix(n, seed, profile)


def pq_root(matrix) -> dict:
    return cli.tree_to_doc("pq", copoints.recognize_robinson(matrix).tree, matrix)["root"]


def mm_root(matrix) -> dict:
    return cli.tree_to_doc("mmodule", mmodtree.mmodule_tree(matrix, range(matrix.n)), matrix)["root"]


def dg_root(matrix) -> dict:
    tree = dendrogram.build_dendrogram(matrix, range(matrix.n))
    return cli.tree_to_doc("dendrogram", tree, matrix)["root"]


def leaf(p: int) -> dict:
    return {"type": "leaf", "point": p}


# --- compatibility ---------------------------------------------------------------


def test_compatible_accepts_witness_and_reverse():
    checks.check_compatible(DEMO, [3, 2, 1, 0])
    checks.check_compatible(DEMO, [0, 1, 2, 3])
    m = generated(40, "generic")
    order = list(copoints.recognize_robinson(m).witness)
    checks.check_compatible(m.rows, order)
    checks.check_compatible(m.rows, order[::-1])


@pytest.mark.parametrize("order", [[3, 1, 2, 0], [0, 2, 1, 3], [0, 0, 1, 2], [0, 1, 2]])
def test_compatible_catches_wrong_order(order):
    with pytest.raises(checks.CheckFailed):
        checks.check_compatible(DEMO, order)


def test_compatible_agrees_with_brute_force_on_every_order():
    m = generated(6, "tie-heavy")
    good = set(checks.compatible_orders_brute(m.rows, range(6)))
    for perm in itertools.permutations(range(6)):
        if perm in good:
            checks.check_compatible(m.rows, perm)
        else:
            with pytest.raises(checks.CheckFailed):
                checks.check_compatible(m.rows, perm)


# --- leaves ----------------------------------------------------------------------


def test_leaves_once():
    checks.check_leaves_once(pq_root(generated(30, "generic")), 30)


@pytest.mark.parametrize("points", [[0, 1, 0, 2, 3], [0, 1, 2], [0, 1, 2, 4], [True, 1, 2, 3]])
def test_leaves_once_catches_repeats_gaps_and_bools(points):
    root = {"type": "P", "children": [leaf(p) for p in points]}
    with pytest.raises(checks.CheckFailed):
        checks.check_leaves_once(root, 4)


# --- order counts and node kinds -------------------------------------------------------


def test_flat_heavy_represents_two_orders():
    root = pq_root(generated(40, "flat-heavy"))
    checks.check_order_count(root, 2)


def test_order_count_catches_extra_freedom():
    root = pq_root(generated(40, "flat-heavy"))
    assert root["type"] == "Q"
    wrong = copy.deepcopy(root)
    wrong["children"][:2] = [{"type": "P", "children": wrong["children"][:2]}]
    with pytest.raises(checks.CheckFailed):
        checks.check_order_count(wrong, 2)


def test_ultrametric_has_no_q_and_planted_q_is_caught():
    root = pq_root(generated(40, "ultrametric"))
    checks.check_no_q(root)
    wrong = copy.deepcopy(root)
    wrong["type"] = "Q"
    with pytest.raises(checks.CheckFailed):
        checks.check_no_q(wrong)


def test_count_orders_by_hand():
    root = {"type": "Q", "children": [
        leaf(0), {"type": "P", "children": [leaf(1), leaf(2), leaf(3)]}, leaf(4)]}
    assert checks.count_orders(root) == 2 * 6


# --- dendrogram ------------------------------------------------------------------


def test_mst_weights_by_hand():
    assert sorted(checks.mst_weights(DEMO)) == [1, 2, 3]


def decimal_matrix(n: int):
    """A quarter-step matrix parsed by the program, with its integer rows."""
    rows = [list(r) for r in generated(n, "generic").rows]
    return rows, cli.parse_matrix(workloads.upper_quarter_text(rows))


def test_dendrogram_weights_match_mst_as_decimals():
    rows, parsed = decimal_matrix(30)
    checks.check_dendrogram(dg_root(parsed), checks.mst_weights(rows), Decimal("0.25"))


def test_dendrogram_catches_wrong_weight_and_wrong_arity():
    rows, parsed = decimal_matrix(30)
    mst = checks.mst_weights(rows)
    root = dg_root(parsed)
    wrong = copy.deepcopy(root)
    wrong["weight"] = str(Decimal(wrong["weight"]) + Decimal("0.25"))
    with pytest.raises(checks.CheckFailed):
        checks.check_dendrogram(wrong, mst, Decimal("0.25"))
    flat = {"type": "internal", "weight": root["weight"],
            "children": [leaf(p) for p in range(30)]}
    with pytest.raises(checks.CheckFailed):
        checks.check_dendrogram(flat, mst, Decimal("0.25"))


# --- mmodules --------------------------------------------------------------------------


def test_mmodule_sample_passes_program_tree():
    for profile in workloads.PROFILES:
        m = generated(40, profile)
        checks.check_mmodule_sample(m.rows, mm_root(m), random.Random(0), 10_000, Decimal(1))


def is_mmodule_plain(rows, members) -> bool:
    return all(
        len({rows[z][x] for x in members}) == 1
        for z in range(len(rows)) if z not in members
    )


def test_mmodule_sample_catches_swapped_leaves():
    m = generated(40, "generic")
    root = mm_root(m)
    # move one outside point into the smallest proper node, so that it
    # stops being an mmodule
    node = min((n for n in checks.iter_nodes(root) if n["type"] != "leaf"),
               key=lambda n: len(checks.leaves(n)))
    inner = [n for n in checks.iter_nodes(node) if n["type"] == "leaf"]
    members = {n["point"] for n in inner}
    outer = next(
        n for n in checks.iter_nodes(root)
        if n["type"] == "leaf" and n["point"] not in members
        and not is_mmodule_plain(m.rows, members - {inner[0]["point"]} | {n["point"]})
    )
    inner[0]["point"], outer["point"] = outer["point"], inner[0]["point"]
    with pytest.raises(checks.CheckFailed):
        checks.check_mmodule_sample(m.rows, root, random.Random(0), 10_000, Decimal(1))


def test_mmodule_sample_checks_special_weight():
    # the three-point path: a special cap of weight 1 over {0, 2} and {1}
    path = cli.parse_matrix("0 1 2\n1 0 1\n2 1 0\n")
    root = mm_root(path)
    special = [n for n in checks.iter_nodes(root) if "special" in n]
    assert special
    checks.check_mmodule_sample(path.rows, root, random.Random(0), 10, Decimal(1))
    special[0]["special"] = "2"
    with pytest.raises(checks.CheckFailed):
        checks.check_mmodule_sample(path.rows, root, random.Random(0), 10, Decimal(1))


# --- refusals --------------------------------------------------------------------------


def planted(n: int, profile: str):
    m = generated(n, profile)
    rows = [list(r) for r in m.rows]
    four = workloads.plant_obstruction(rows, workloads.canonical_order(copoints, m))
    return rows, four


@pytest.mark.parametrize("profile", workloads.PROFILES)
def test_planted_four_points_have_no_compatible_order(profile):
    rows, four = planted(24, profile)
    checks.check_planted(rows, four)


def test_planted_check_catches_a_robinson_four():
    m = generated(24, "generic")
    order = workloads.canonical_order(copoints, m)
    with pytest.raises(checks.CheckFailed):
        checks.check_planted(m.rows, order[10:14])


def test_violation_accepts_program_triple():
    rows, _ = planted(40, "generic")
    report = copoints.recognize_robinson(cli.parse_matrix(workloads.full_square_text(rows)))
    assert not report.accepted
    if report.violation is not None:
        checks.check_violation(rows, list(report.violation))


@pytest.mark.parametrize("triple", [[0, 1, 2], [2, 1, 0], [0, 0, 3], [0, 1], [0, 1, 9], [0, 1, True]])
def test_violation_catches_bad_triples(triple):
    # on the demo, 0 1 2 is in order (no violation) and 2 1 0 is its mirror
    with pytest.raises(checks.CheckFailed):
        checks.check_violation(DEMO, triple)


def test_violation_by_hand():
    checks.check_violation(DEMO, [0, 2, 1])


# --- inputs and documents ---------------------------------------------------------------


def test_quarter_strings_are_exact():
    assert [workloads.quarter_str(q) for q in (0, 1, 2, 3, 4, 7, 9)] == [
        "0", "0.25", "0.5", "0.75", "1", "1.75", "2.25"]


def test_in_memory_documents_match_the_cli_documents():
    m = generated(30, "generic")
    tree = mmodtree.mmodule_tree(m, range(m.n))
    assert checks.mm_doc_of(tree, str) == cli.tree_to_doc("mmodule", tree, m)["root"]
    dtree = dendrogram.build_dendrogram(m, range(m.n))
    assert checks.dg_doc_of(dtree, str) == cli.tree_to_doc("dendrogram", dtree, m)["root"]
    pq = copoints.recognize_robinson(m).tree
    plain = json.loads(json.dumps(cli.tree_to_doc("pq", pq, m)["root"]))
    for node in checks.iter_nodes(plain):
        node.pop("apex", None)
    assert checks.pq_doc_of(pq) == plain


# --- whole rounds and tracing -------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_round_passes_every_check(name, tmp_path):
    import robinspace

    tally: dict = {}
    reqs = workloads.build(robinspace, name, 5, tmp_path, random.Random(5), tally, small=True)
    stats = run.run_rounds(reqs, 0.0)
    assert stats["failed"] == 0 and not stats["problems"], stats
    assert stats["attempted"] == len(reqs)
    if name == "cli-refuse":
        assert sum(tally.values()) == len(reqs)


def test_tracer_records_layers_and_restores_functions(tmp_path):
    import robinspace

    original = robinspace.refine.stable_trees
    reqs = workloads.build(robinspace, "lib-trees", 5, tmp_path, random.Random(5), {}, small=True)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert robinspace.mmodtree.stable_trees is not original
        stats = run.run_rounds(reqs, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert robinspace.refine.stable_trees is original
    assert robinspace.mmodtree.stable_trees is original
    layers = tracer.layer_totals()
    assert layers["copoints.recognize_robinson"]["calls"] == stats["attempted"]
    assert layers["dendrogram.build_dendrogram"]["calls"] == 2 * stats["attempted"]
    assert layers["cli.parse_matrix"]["calls"] == 0
    for row in layers.values():
        assert row["self_s"] <= row["total_s"] + 1e-9
    # recursion is counted on every call but timed once per outermost call
    assert layers["pqtree.normalize"]["calls"] > layers["pqtree.normalize"]["spans"]
