"""Command-line toolkit around the library.

Subcommands: ``recognize`` (verdict, witness order and PQ-tree),
``tree`` (any of the three trees in json/dot/ascii), ``translate``
(tree document to tree document), ``generate`` (seeded random Robinson
matrices) and ``bench`` (median wall times and doubling ratios).

Matrix files hold one row per line, full square or upper-triangular,
whitespace- or comma-separated, with nonnegative decimal weights;
``#`` starts a comment.  Points are the 0-based row indices.  Parsing
is one pass over the lines that scans each distinct token once and
interns the weights (equal values share one int object).  JSON
tree documents are the canonical interchange; weights inside them stay
decimal strings so nothing is lost to binary floats.  Exit status is 0
for success, 1 when the space is not Robinson, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import sys
import time
from itertools import chain
from typing import Any, Callable, Sequence

from . import copoints, core, dendrogram as dg, mmodtree as mm, pqtree as pq, translate
from .core import DissimilarityMatrix, Leaf, NotRobinson, RobinsonError, leaf_points


class MatrixParseError(ValueError):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"line {line}, entry {col}: {msg}")
        self.line = line
        self.col = col


class DocumentError(ValueError):
    """A tree document that fails to describe a tree."""


# --- weights -----------------------------------------------------------------


def _scan_weight(token: str) -> tuple[int, int]:
    """(digits as int, count of decimal places); rejects signs and exponents."""
    whole, dot, frac = token.partition(".")
    if not whole.isdigit() or (dot and not frac.isdigit()):
        raise ValueError(f"not a nonnegative decimal: {token!r}")
    return int(whole + frac), len(frac)


def weight_str(value: int, scale: int) -> str:
    if scale == 1:
        return str(value)
    q, r = divmod(value, scale)
    frac = str(r).zfill(len(str(scale)) - 1).rstrip("0")
    return f"{q}.{frac}" if frac else str(q)


def _weight_from_str(token: str, scale: int) -> int:
    value, places = _scan_weight(token)
    unit = 10**places
    if scale % unit:
        raise DocumentError(f"weight {token} is finer-grained than the matrix")
    return value * (scale // unit)


# --- matrix files ------------------------------------------------------------


def parse_matrix(text: str) -> DissimilarityMatrix:
    """Parse and validate a matrix file (full square or upper triangle).

    Each distinct token is scanned once into a table whose equal values
    share one int object; rows are then table lookups, already interned.
    Files that repeat tokens (generated profiles, integer or coarse
    decimal weights) parse several times faster than a scan of every
    entry; a large file of all-distinct weights takes up to about a fifth
    longer than that scan, with a third less peak memory.
    """
    lines: list[tuple[int, list[str]]] = []
    for ln, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line.split("#", 1)[0]
        if "," in line:
            line = line.replace(",", " ")
        tokens = line.split()
        if tokens:
            lines.append((ln, tokens))
    if not lines:
        raise MatrixParseError(1, 1, "no matrix entries found")

    # distinct tokens in first-seen order: the first bad one is the first in
    # reading order, and a file of mostly distinct weights is walked in the
    # order its strings were allocated, not in scattered hash order.  Values
    # overwrite the placeholders in place, so no second table of that size
    # is built.  The canonical scale keeps only the decimal places some
    # token needs.
    table: dict[str, Any] = dict.fromkeys(
        chain.from_iterable(tokens for _, tokens in lines)
    )
    scale = 10 ** max(len(token.partition(".")[2].rstrip("0")) for token in table)
    shared: dict[int, int] = {}
    try:
        for token in table:
            value, places = _scan_weight(token)
            value = value * scale // 10**places  # exact: dropped places are 0
            table[token] = shared.setdefault(value, value)
    except ValueError as exc:
        ln, tokens = next((ln, tokens) for ln, tokens in lines if token in tokens)
        raise MatrixParseError(ln, tokens.index(token) + 1, str(exc)) from None
    del shared

    rows = [list(map(table.__getitem__, tokens)) for _, tokens in lines]
    r = len(rows)
    sizes = [len(row) for row in rows]
    square = sizes == [r] * r
    if not square and sizes != list(range(r, 0, -1)):
        ln = lines[min(range(r), key=lambda i: sizes[i] == sizes[0])][0]
        raise MatrixParseError(
            ln, 1, f"row lengths {sizes} fit neither a square nor an upper triangle"
        )
    del lines, table  # the token strings, before the grid and validation
    if not square:
        n = r + 1
        grid = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            grid[i][i + 1 :] = row
        # zip reads columns lazily; column j takes only rows above j, whose
        # entries right of their diagonal are never overwritten
        for j, column in enumerate(zip(*grid)):
            grid[j][:j] = column[:j]
        rows = grid

    matrix = DissimilarityMatrix(rows, scale)
    core.validate(matrix)
    return matrix


def serialize_matrix(matrix: DissimilarityMatrix) -> str:
    return "\n".join(
        " ".join(weight_str(v, matrix.scale) for v in row) for row in matrix.rows
    ) + "\n"


# --- tree documents ----------------------------------------------------------


def tree_to_doc(kind: str, tree, matrix: DissimilarityMatrix) -> dict:
    if kind == "pq":
        root = _pq_doc(tree, matrix)
    elif kind == "mmodule":
        root = _mm_doc(tree, matrix.scale)
    elif kind == "dendrogram":
        root = _dg_doc(tree, matrix.scale)
    else:
        raise DocumentError(f"unknown tree kind {kind!r}")
    return {"kind": kind, "root": root}


def _pq_doc(node: pq.PQTree, matrix: DissimilarityMatrix) -> dict:
    if isinstance(node, pq.Leaf):
        return {"type": "leaf", "point": node.point}
    children = [_pq_doc(c, matrix) for c in node.children]
    if isinstance(node, pq.P):
        return {"type": "P", "children": children}
    out = {"type": "Q", "children": children}
    hit = pq.conical_apex(matrix, node.children)
    if hit is not None:
        out["apex"] = hit[1]
    return out


def _mm_doc(node: mm.MModuleTree, scale: int) -> dict:
    if isinstance(node, mm.Leaf):
        return {"type": "leaf", "point": node.point}
    children = [_mm_doc(c, scale) for c in node.children]
    if isinstance(node, mm.Cup):
        return {"type": "cup", "children": children}
    out = {"type": "cap", "children": children}
    if node.special is not None:
        out["special"] = weight_str(node.special, scale)
        out["largeChild"] = node.large_child
    return out


def _dg_doc(node: dg.Tree, scale: int) -> dict:
    if isinstance(node, dg.Leaf):
        return {"type": "leaf", "point": node.point}
    return {
        "type": "internal",
        "weight": weight_str(node.weight, scale),
        "children": [_dg_doc(c, scale) for c in node.children],
    }


def doc_to_tree(doc, scale: int):
    """(kind, tree) from a parsed JSON document."""
    if not isinstance(doc, dict) or "kind" not in doc or "root" not in doc:
        raise DocumentError("document must be an object with 'kind' and 'root'")
    kind = doc["kind"]
    builders = {"pq": _pq_node, "mmodule": _mm_node, "dendrogram": _dg_node}
    if kind not in builders:
        raise DocumentError(f"unknown tree kind {kind!r}")
    return kind, builders[kind](doc["root"], scale)


def _fields(node, *wanted: str):
    if not isinstance(node, dict) or "type" not in node:
        raise DocumentError("tree nodes must be objects with a 'type'")
    if node["type"] == "leaf":
        point = node.get("point")
        if not isinstance(point, int) or isinstance(point, bool):
            raise DocumentError("leaf nodes need an integer 'point'")
        return None
    if node["type"] not in wanted:
        raise DocumentError(f"unexpected node type {node['type']!r}")
    kids = node.get("children")
    if not isinstance(kids, list) or len(kids) < 2:
        raise DocumentError(f"{node['type']} node needs at least two children")
    return kids


def _pq_node(node, scale: int) -> pq.PQTree:
    kids = _fields(node, "P", "Q")
    if kids is None:
        return pq.Leaf(node["point"])
    children = tuple(_pq_node(c, scale) for c in kids)
    return pq.P(children) if node["type"] == "P" else pq.Q(children)


def _mm_node(node, scale: int) -> mm.MModuleTree:
    kids = _fields(node, "cup", "cap")
    if kids is None:
        return mm.Leaf(node["point"])
    children = tuple(_mm_node(c, scale) for c in kids)
    if node["type"] == "cup":
        return mm.Cup(children)
    if "special" not in node:
        return mm.Cap(children)
    large = node.get("largeChild")
    if not isinstance(large, int) or not 0 <= large < len(children):
        raise DocumentError("special cap nodes need a valid 'largeChild' index")
    return mm.Cap(children, _weight_from_str(str(node["special"]), scale), large)


def _dg_node(node, scale: int) -> dg.Tree:
    kids = _fields(node, "internal")
    if kids is None:
        return dg.Leaf(node["point"])
    if "weight" not in node:
        raise DocumentError("internal dendrogram nodes need a 'weight'")
    weight = _weight_from_str(str(node["weight"]), scale)
    return dg.Internal(weight, [_dg_node(c, scale) for c in kids])


# --- human renderings ----------------------------------------------------------


def ascii_tree(kind: str, tree, scale: int) -> str:
    if kind == "pq":
        return _ascii_pq(tree)
    if kind == "mmodule":
        return _ascii_mm(tree, scale)
    return _ascii_dg(tree, scale)


def _ascii_pq(node: pq.PQTree) -> str:
    if isinstance(node, pq.Leaf):
        return str(node.point)
    inner = " ".join(_ascii_pq(c) for c in node.children)
    return f"P({inner})" if isinstance(node, pq.P) else f"Q[{inner}]"


def _ascii_mm(node: mm.MModuleTree, scale: int) -> str:
    if isinstance(node, mm.Leaf):
        return str(node.point)
    parts = [_ascii_mm(c, scale) for c in node.children]
    if isinstance(node, mm.Cup):
        return f"cup({' '.join(parts)})"
    if node.special is None:
        return f"cap({' '.join(parts)})"
    parts[node.large_child] = "*" + parts[node.large_child]
    return f"cap@{weight_str(node.special, scale)}({' '.join(parts)})"


def _ascii_dg(node: dg.Tree, scale: int) -> str:
    if isinstance(node, dg.Leaf):
        return str(node.point)
    inner = " ".join(_ascii_dg(c, scale) for c in node.children)
    return f"({weight_str(node.weight, scale)}: {inner})"


def dot_tree(kind: str, tree, scale: int) -> str:
    lines = ["graph tree {", "  node [shape=plaintext];"]
    counter = 0

    def label(node) -> str:
        if isinstance(node, Leaf):
            return str(node.point)
        if isinstance(node, pq.P):
            return "P"
        if isinstance(node, pq.Q):
            return "Q"
        if isinstance(node, mm.Cup):
            return "cup"
        if isinstance(node, mm.Cap):
            if node.special is None:
                return "cap"
            return f"cap @ {weight_str(node.special, scale)}"
        return weight_str(node.weight, scale)

    def walk(node) -> int:
        nonlocal counter
        me = counter
        counter += 1
        lines.append(f'  n{me} [label="{label(node)}"];')
        if not isinstance(node, Leaf):
            for child in node.children:
                lines.append(f"  n{me} -- n{walk(child)};")
        return me

    walk(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- generation ----------------------------------------------------------------

PROFILES = ("generic", "ultrametric", "flat-heavy", "tie-heavy")


def generate_matrix(n: int, seed: int, profile: str) -> DissimilarityMatrix:
    """Seeded random Robinson matrix; see the profile table in the README."""
    if n < 1:
        raise ValueError("need at least one point")
    rng = random.Random(f"{seed}:{profile}:{n}")
    if profile == "ultrametric":
        return _generate_ultrametric(n, rng)
    dup_rate = {"generic": 0.1, "flat-heavy": 0.0, "tie-heavy": 0.35}[profile]
    multiplicity = [1] * max(1, n - sum(rng.random() < dup_rate for _ in range(n - 1)))
    while sum(multiplicity) < n:
        multiplicity[rng.randrange(len(multiplicity))] += 1
    base = _staircase(len(multiplicity), rng, profile)
    # duplicated points stay adjacent, so the identity order remains compatible
    spread = [i for i, m in enumerate(multiplicity) for _ in range(m)]
    full = [[base[a][b] for b in spread] for a in spread]
    for i in range(n):
        full[i][i] = 0
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[full[perm[a]][perm[b]] for b in range(n)] for a in range(n)]
    matrix = DissimilarityMatrix(rows, 1)
    core.intern_weights(matrix)
    return matrix


def _staircase(m: int, rng: random.Random, profile: str) -> list[list[int]]:
    """Upper triangle grown outward so each entry dominates its inner pair."""
    if profile == "flat-heavy":
        bump = lambda: 1 + (rng.randint(1, 2) if rng.random() < 0.15 else 0)
    elif profile == "tie-heavy":
        bump = lambda: 0 if rng.random() < 0.6 else 1
    else:
        bump = lambda: 0 if rng.random() < 0.35 else rng.randint(1, 4)
    rows = [[0] * m for _ in range(m)]
    for j in range(1, m):
        for i in range(j - 1, -1, -1):
            rows[i][j] = rows[j][i] = max(rows[i][j - 1], rows[i + 1][j]) + bump()
    return rows


def _generate_ultrametric(n: int, rng: random.Random) -> DissimilarityMatrix:
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
    matrix = DissimilarityMatrix(rows, 1)
    core.intern_weights(matrix)
    return matrix


# --- commands ------------------------------------------------------------------


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_recognize(args) -> int:
    matrix = parse_matrix(_read(args.input))
    result = copoints.recognize_robinson(matrix)
    if result.accepted:
        report = {
            "robinson": True,
            "order": list(result.witness),
            "tree": tree_to_doc("pq", result.tree, matrix),
        }
        print(json.dumps(report, indent=2))
        return 0
    report = {"robinson": False, "reason": result.reason}
    if result.violation is not None:
        report["violation"] = list(result.violation)
    print(json.dumps(report, indent=2))
    return 1


def cmd_tree(args) -> int:
    matrix = parse_matrix(_read(args.input))
    if args.tree == "dendrogram":
        tree = dg.build_dendrogram(matrix, range(matrix.n))
    else:
        # pq and mmodule trees only exist for Robinson spaces; the raw
        # builders emit junk on anything else, so gate on a verified witness
        # and serve the mmodule tree by translating the verified PQ-tree
        result = copoints.recognize_robinson(matrix)
        if not result.accepted:
            raise NotRobinson(result.reason)
        tree = result.tree
        if args.tree == "mmodule":
            tree = translate.pq_to_mmodule_tree(matrix, tree)
    _emit(args.tree, tree, matrix, args.format)
    return 0


def _emit(kind: str, tree, matrix: DissimilarityMatrix, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(tree_to_doc(kind, tree, matrix), indent=2))
    elif fmt == "dot":
        sys.stdout.write(dot_tree(kind, tree, matrix.scale))
    else:
        print(ascii_tree(kind, tree, matrix.scale))


def cmd_translate(args) -> int:
    matrix = parse_matrix(_read(args.matrix))
    text = _read(args.input)
    try:
        kind, tree = doc_to_tree(json.loads(text), matrix.scale)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"tree document is not JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("tree document is nested too deeply") from None
    if kind == "dendrogram":
        raise DocumentError("dendrogram documents have no translation")
    leaves = leaf_points(tree)
    if len(leaves) != matrix.n or set(leaves) != set(range(matrix.n)):
        raise DocumentError("tree leaves are not the matrix points, each once")
    target = args.to or ("mmodule" if kind == "pq" else "pq")
    if target == kind:
        raise DocumentError(f"document already holds a {kind} tree")
    if kind == "pq":
        out = translate.pq_to_mmodule_tree(matrix, tree)
    else:
        out = translate.mmodule_to_pq_tree(matrix, tree)
    # a tree with the right leaves can still order them wrongly; its PQ
    # side must give a compatible order, an O(n^2) check
    violation = core.violating_triple(matrix, pq.canonical_order(tree if kind == "pq" else out))
    if violation is not None:
        raise DocumentError(f"tree does not fit the matrix: its order breaks at {violation}")
    _emit(target, out, matrix, args.format)
    return 0


def cmd_generate(args) -> int:
    matrix = generate_matrix(args.size, args.seed, args.profile)
    sys.stdout.write(serialize_matrix(matrix))
    return 0


BENCH_OPS: tuple[str, ...] = (
    "dendrogram",
    "mmodule-tree",
    "pq-tree",
    "pq-to-mmodule",
    "mmodule-to-pq",
)


def cmd_bench(args) -> int:
    sizes = args.sizes
    # reps are interleaved across sizes so load drift on the host cannot
    # land on one size coherently and distort the growth ratios
    samples: dict[int, dict[str, list[float]]] = {
        size: {op: [] for op in BENCH_OPS} for size in sizes
    }
    for rep in range(args.reps):
        for size in sizes:
            matrix = generate_matrix(size, args.seed + rep, "generic")
            pts = range(size)
            warm = rep == 0
            per_op = samples[size]
            per_op["dendrogram"].append(
                _timed(warm, dg.build_dendrogram, matrix, pts)[0]
            )
            cost, mtree = _timed(warm, mm.mmodule_tree, matrix, pts)
            per_op["mmodule-tree"].append(cost)
            cost, ptree = _timed(warm, copoints.pq_tree2, matrix, pts)
            per_op["pq-tree"].append(cost)
            per_op["pq-to-mmodule"].append(
                _timed(warm, translate.pq_to_mmodule_tree, matrix, ptree)[0]
            )
            per_op["mmodule-to-pq"].append(
                _timed(warm, translate.mmodule_to_pq_tree, matrix, mtree)[0]
            )
    medians: dict[str, dict[str, float]] = {}
    if args.reps:
        for size in sizes:
            medians[str(size)] = {
                op: statistics.median(samples[size][op]) for op in BENCH_OPS
            }
    ratios: dict[str, dict[str, float]] = {}
    for a, b in zip(sizes, sizes[1:]):
        if b == 2 * a and str(a) in medians:
            key = f"{b}/{a}"
            ratios[key] = {
                op: medians[str(b)][op] / max(medians[str(a)][op], 1e-9)
                for op in BENCH_OPS
            }
    if args.format == "json":
        print(
            json.dumps(
                {"sizes": sizes, "reps": args.reps, "medians": medians, "ratios": ratios},
                indent=2,
            )
        )
        return 0
    if not medians:
        print("no repetitions requested")
        return 0
    width = max(len(op) for op in BENCH_OPS)
    print("op".ljust(width) + "".join(f"  n={s:<8}" for s in sizes))
    for op in BENCH_OPS:
        cells = "".join(f"  {medians[str(s)][op]:<10.4f}" for s in sizes)
        print(op.ljust(width) + cells)
    for key, by_op in ratios.items():
        line = ", ".join(f"{op} {by_op[op]:.2f}" for op in BENCH_OPS)
        print(f"ratio {key}: {line}")
    return 0


def _timed(warm: bool, fn: Callable, *fn_args) -> tuple[float, Any]:
    """Wall time of ``fn(*fn_args)`` as the min over five back-to-back calls.

    Repeat-min is the usual defence against scheduler jitter; the cyclic
    collector is paused so its sweeps don't land on whichever call triggers
    them.  ``warm`` runs one extra untimed call first (cold allocator caches
    on the first touch of a size would otherwise tax the first sample).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if warm:
            out = fn(*fn_args)
        best = None
        for _ in range(5):
            t0 = time.perf_counter()
            out = fn(*fn_args)
            cost = time.perf_counter() - t0
            best = cost if best is None else min(best, cost)
        return best, out
    finally:
        if was_enabled:
            gc.enable()


# --- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="robinspace",
        description="Robinson dissimilarity spaces: recognition, trees, translations.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="decide whether a matrix is Robinson")
    p.add_argument("--input", "-i", required=True, help="matrix file, or - for stdin")
    p.set_defaults(run=cmd_recognize)

    p = sub.add_parser("tree", help="build one of the three trees")
    p.add_argument("--input", "-i", required=True, help="matrix file, or - for stdin")
    p.add_argument("--tree", "-t", choices=("pq", "mmodule", "dendrogram"), default="pq")
    p.add_argument("--format", "-f", choices=("json", "dot", "ascii"), default="json")
    p.set_defaults(run=cmd_tree)

    p = sub.add_parser("translate", help="translate a tree document")
    p.add_argument("--input", "-i", required=True, help="tree document (JSON)")
    p.add_argument("--matrix", "-m", required=True, help="matrix file the tree describes")
    p.add_argument("--to", choices=("pq", "mmodule"), help="target kind (default: the other one)")
    p.add_argument("--format", "-f", choices=("json", "dot", "ascii"), default="json")
    p.set_defaults(run=cmd_translate)

    p = sub.add_parser("generate", help="emit a random Robinson matrix")
    p.add_argument("--size", "-n", type=int, required=True, help="number of points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=PROFILES, default="generic")
    p.set_defaults(run=cmd_generate)

    p = sub.add_parser("bench", help="median runtimes and doubling ratios")
    p.add_argument(
        "--sizes",
        type=lambda s: [int(x) for x in s.split(",") if x],
        default=[256, 512, 1024],
        help="comma-separated point counts",
    )
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", "-f", choices=("json", "text"), default="text")
    p.set_defaults(run=cmd_bench)
    return top


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except NotRobinson as exc:
        print(f"not Robinson: {exc}", file=sys.stderr)
        return 1
    except (MatrixParseError, DocumentError, RobinsonError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
