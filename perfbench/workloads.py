"""The four request workloads: their inputs, their requests and the checks
each output must pass.

A workload is built from a seed into a list of ``Request`` objects, one
round.  The runner repeats whole rounds in the same order.  Inputs come
from the program's own generator (``cli.generate_matrix``, all four
profiles); everything a check compares against is computed here or in
``checks``.  CLI requests call ``cli.main`` in-process with stdout
captured; the library workload calls the public functions directly.
Module attributes are looked up at call time, so the tracer's wrappers
are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from typing import Any, Callable

import checks

PROFILES = ("generic", "ultrametric", "flat-heavy", "tie-heavy")

# Sizes.  Each is as large as lets a 25-second run hold three or more
# whole rounds: on a shared host, several short rounds gave steadier
# figures than one long one (README.md, "Sizes").
CLI_N = 384
LIB_N = 768
REFUSE_N = 192
REFUSE_PER_PROFILE = 3
# Library requests per round, one distinct matrix each, weighted toward
# the profiles whose refinement work is heaviest.
LIB_SEQUENCE = ("tie-heavy", "generic", "tie-heavy", "generic", "ultrametric", "flat-heavy")
# mmodule-tree nodes checked per output
MMODULE_SAMPLE = 4
WARM_N = 24


@dataclass
class Request:
    """One request: its ``steps`` are timed, ``check`` is not.

    Each step is called with the list of the earlier steps' results and
    its own result is appended; ``check`` gets the whole list and raises
    ``checks.CheckFailed``.  ``expect`` is the exit code a CLI request
    must end with (None for library calls).
    """

    label: str
    steps: tuple[Callable[[list], Any], ...]
    check: Callable[[list], None]
    expect: int | None = 0


@dataclass
class Space:
    """A generated matrix as the benchmark knows it."""

    profile: str
    rows: list[list[int]]
    unit: Decimal = Decimal(1)
    path: Path | None = None
    mst: list[int] | None = None
    planted: tuple[int, int, int, int] | None = None
    pq_count: int | None = None
    matrix: Any = None  # the program's own matrix object, for library calls

    @property
    def n(self) -> int:
        return len(self.rows)

    def mst_weights(self) -> list[int]:
        if self.mst is None:
            self.mst = checks.mst_weights(self.rows)
        return self.mst


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# --- file formats ---------------------------------------------------------------


def full_square_text(rows: list[list[int]]) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


_QUARTERS = ("", ".25", ".5", ".75")


def quarter_str(q: int) -> str:
    """q/4 as an exact decimal string."""
    return f"{q >> 2}{_QUARTERS[q & 3]}"


def upper_quarter_text(rows: list[list[int]]) -> str:
    """Upper triangle (diagonal left out) of rows/4, with a comment line."""
    out = ["# upper triangle, weights in quarter steps\n"]
    n = len(rows)
    for i in range(n - 1):
        out.append(" ".join(quarter_str(v) for v in rows[i][i + 1:]) + "\n")
    return "".join(out)


# --- shared checks --------------------------------------------------------------


def _check_pq(space: Space, root: dict) -> int:
    pts = checks.check_leaves_once(root, space.n)
    checks.check_compatible(space.rows, pts)
    if space.profile == "flat-heavy":
        checks.check_order_count(root, 2)
    if space.profile == "ultrametric":
        checks.check_no_q(root)
    return checks.count_orders(root)


def _check_mm(space: Space, root: dict, rng: random.Random) -> None:
    checks.check_leaves_once(root, space.n)
    checks.check_mmodule_sample(space.rows, root, rng, MMODULE_SAMPLE, space.unit)


def _check_dg(space: Space, root: dict) -> None:
    checks.check_leaves_once(root, space.n)
    checks.check_dendrogram(root, space.mst_weights(), space.unit)


def _doc(out: str, kind: str) -> dict:
    doc = json.loads(out)
    if doc.get("kind") != kind:
        raise checks.CheckFailed(f"expected a {kind} document, got {doc.get('kind')!r}")
    return doc["root"]


# --- CLI workloads: cli-int and cli-decimal -------------------------------------


def build_cli(cli, seed: int, workdir: Path, decimal: bool, n: int = CLI_N) -> list[Space]:
    spaces = []
    for profile in PROFILES:
        rows = [list(r) for r in cli.generate_matrix(n, seed, profile).rows]
        space = Space(profile, rows)
        if decimal:
            space.unit = Decimal("0.25")
            text = upper_quarter_text(rows)
        else:
            text = full_square_text(rows)
        space.path = workdir / f"{profile}.txt"
        space.path.write_text(text, encoding="utf-8")
        spaces.append(space)
    return spaces


def cli_request(cli, label: str, argv: list[str], check: Callable[[str], None],
                expect: int = 0) -> Request:
    """One ``cli.main`` call; ``check`` gets its stdout."""
    return Request(label, (lambda out: call_cli(cli, argv),),
                   lambda out: check(out[0][1]), expect)


def cli_round(cli, spaces: list[Space], rng: random.Random) -> list[Request]:
    out = []
    for s in spaces:
        mat = str(s.path)
        pq_doc = str(s.path.with_suffix(".pq.json"))
        mm_doc = str(s.path.with_suffix(".mm.json"))
        out += [
            cli_request(cli, f"recognize {s.profile}", ["recognize", "-i", mat],
                        lambda text, s=s, p=pq_doc: _after_recognize(s, text, p)),
            cli_request(cli, f"tree -t mmodule {s.profile}", ["tree", "-i", mat, "-t", "mmodule"],
                        lambda text, s=s, p=mm_doc: _after_mmodule(s, text, p, rng)),
            cli_request(cli, f"tree -t dendrogram {s.profile}",
                        ["tree", "-i", mat, "-t", "dendrogram"],
                        lambda text, s=s: _check_dg(s, _doc(text, "dendrogram"))),
            cli_request(cli, f"translate pq->mmodule {s.profile}",
                        ["translate", "-i", pq_doc, "-m", mat],
                        lambda text, s=s: _check_mm(s, _doc(text, "mmodule"), rng)),
            cli_request(cli, f"translate mmodule->pq {s.profile}",
                        ["translate", "-i", mm_doc, "-m", mat],
                        lambda text, s=s: _after_to_pq(s, _doc(text, "pq"))),
        ]
    return out


def _after_recognize(space: Space, out: str, doc_path: str) -> None:
    report = json.loads(out)
    if report.get("robinson") is not True:
        raise checks.CheckFailed("a Robinson matrix was refused")
    checks.check_compatible(space.rows, report["order"])
    root = report["tree"]["root"]
    space.pq_count = _check_pq(space, root)
    # the next translate request reads this document back
    Path(doc_path).write_text(json.dumps(report["tree"]), encoding="utf-8")


def _after_mmodule(space: Space, out: str, doc_path: str, rng: random.Random) -> None:
    _check_mm(space, _doc(out, "mmodule"), rng)
    Path(doc_path).write_text(out, encoding="utf-8")


def _after_to_pq(space: Space, root: dict) -> None:
    count = _check_pq(space, root)
    if count != space.pq_count:
        raise checks.CheckFailed(
            f"mmodule->pq tree represents {count} orders, recognize gave {space.pq_count}"
        )


# --- lib-trees ------------------------------------------------------------------


def build_lib(cli, seed: int, n: int = LIB_N) -> list[Space]:
    spaces = []
    for slot, profile in enumerate(LIB_SEQUENCE):
        m = cli.generate_matrix(n, seed * len(LIB_SEQUENCE) + slot, profile)
        spaces.append(Space(profile, m.rows, matrix=m))
    return spaces


def lib_round(robinspace, spaces: list[Space], rng: random.Random) -> list[Request]:
    return [
        Request(f"library sequence {s.profile}",
                _lib_steps(robinspace, s.matrix),
                lambda out, s=s: _check_lib(s, out, rng),
                expect=None)
        for s in spaces
    ]


def _lib_steps(rs, matrix) -> tuple:
    """The README's library sequence on one in-memory matrix."""
    pts = range(matrix.n)
    return (
        lambda out: rs.copoints.recognize_robinson(matrix),
        lambda out: rs.mmodtree.mmodule_tree(matrix, pts),
        lambda out: rs.dendrogram.build_dendrogram(matrix, pts),
        lambda out: rs.translate.pq_to_mmodule_tree(matrix, out[0].tree),
        lambda out: rs.translate.mmodule_to_pq_tree(matrix, out[1]),
    )


def _check_lib(space: Space, out: list, rng: random.Random) -> None:
    result, t_mm, t_dg, t_mm2, t_pq2 = out
    if not result.accepted:
        raise checks.CheckFailed("a Robinson matrix was refused")
    checks.check_compatible(space.rows, list(result.witness))
    count = _check_pq(space, checks.pq_doc_of(result.tree))
    _check_mm(space, checks.mm_doc_of(t_mm, str), rng)
    _check_dg(space, checks.dg_doc_of(t_dg, str))
    _check_mm(space, checks.mm_doc_of(t_mm2, str), rng)
    if _check_pq(space, checks.pq_doc_of(t_pq2)) != count:
        raise checks.CheckFailed("mmodule->pq tree represents another number of orders")


# --- cli-refuse -----------------------------------------------------------------


def build_refuse(cli, copoints, seed: int, workdir: Path, n: int = REFUSE_N) -> list[Space]:
    spaces = []
    for profile in PROFILES:
        for k in range(REFUSE_PER_PROFILE):
            m = cli.generate_matrix(n, seed * REFUSE_PER_PROFILE + k, profile)
            rows = [list(r) for r in m.rows]
            space = Space(profile, rows)
            space.planted = plant_obstruction(rows, canonical_order(copoints, m))
            space.path = workdir / f"refuse-{profile}-{k}.txt"
            space.path.write_text(full_square_text(rows), encoding="utf-8")
            spaces.append(space)
    return spaces


def canonical_order(copoints, matrix) -> list[int]:
    """A compatible order that depends on the matrix alone.

    The program's PQ-tree is read as a document and put in a canonical
    form (P children by smallest leaf, each Q read from its end with the
    smaller leaf), so the order does not depend on how a version of the
    program happens to arrange equivalent children.  It is checked here
    before it is used.
    """
    result = copoints.recognize_robinson(matrix)
    root = checks.pq_doc_of(result.tree)
    low: dict[int, int] = {}
    for node in reversed(list(checks.iter_nodes(root))):
        if node["type"] == "leaf":
            low[id(node)] = node["point"]
            continue
        kids = node["children"]
        if node["type"] == "P":
            kids.sort(key=lambda c: low[id(c)])
        elif low[id(kids[0])] > low[id(kids[-1])]:
            kids.reverse()
        low[id(node)] = min(low[id(c)] for c in kids)
    order = checks.leaves(root)
    checks.check_compatible(matrix.rows, order)
    return order


def plant_obstruction(rows: list[list[int]], order: list[int]) -> tuple[int, int, int, int]:
    """Make four consecutive middle points of a compatible order a 4-cycle.

    With a, b, c, d in order, the cycle a-b-d-c-a gets one short distance
    s and the diagonals a-d and b-c one longer distance L.  No order of
    four points with that pattern is compatible, and Robinsonness is
    hereditary, so the matrix is no longer Robinson.  s and L come from
    the block's own distances, which keeps the rest of the matrix close
    to its old structure; the block sits in the middle so the refusal's
    cost does not swing with where the obstruction lands.
    """
    mid = len(order) // 2
    a, b, c, d = order[mid - 2: mid + 2]
    s = min(rows[a][b], rows[b][c], rows[c][d])
    big = rows[a][d]
    big = big if big > s else s + 1
    for x, y in ((a, b), (b, d), (d, c), (c, a)):
        rows[x][y] = rows[y][x] = s
    for x, y in ((a, d), (b, c)):
        rows[x][y] = rows[y][x] = big
    return (a, b, c, d)


def refuse_round(cli, spaces: list[Space], tally: dict) -> list[Request]:
    return [
        cli_request(cli, f"recognize (refusal) {s.profile}", ["recognize", "-i", str(s.path)],
                    lambda text, s=s: _check_refusal(s, text, tally), expect=1)
        for s in spaces
    ]


def _check_refusal(space: Space, out: str, tally: dict) -> None:
    report = json.loads(out)
    if report.get("robinson") is not False:
        raise checks.CheckFailed("a non-Robinson matrix was accepted")
    checks.check_planted(space.rows, space.planted)
    if "violation" in report:
        checks.check_violation(space.rows, report["violation"])
    kind = "structural" if str(report.get("reason", "")).startswith("structural") else "verification"
    tally[kind] = tally.get(kind, 0) + 1


WORKLOADS = ("cli-int", "cli-decimal", "lib-trees", "cli-refuse")


def build(rs, name: str, seed: int, workdir: Path, rng: random.Random,
          tally: dict, small: bool = False) -> list[Request]:
    """Generate and write the inputs of one workload; return one round."""
    workdir.mkdir(parents=True, exist_ok=True)
    cli = rs.cli
    size = {"n": WARM_N} if small else {}
    if name == "cli-int":
        return cli_round(cli, build_cli(cli, seed, workdir, False, **size), rng)
    if name == "cli-decimal":
        return cli_round(cli, build_cli(cli, seed, workdir, True, **size), rng)
    if name == "lib-trees":
        return lib_round(rs, build_lib(cli, seed, **size), rng)
    if name == "cli-refuse":
        return refuse_round(cli, build_refuse(cli, rs.copoints, seed, workdir, **size), tally)
    raise ValueError(f"unknown workload {name!r}")
