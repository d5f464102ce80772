"""Command-line toolkit around the library.

Subcommands: ``recognize`` (verdict, witness order and PQ-tree),
``tree`` (any of the three trees in json/dot/ascii), ``translate`` (a PQ
or mmodule tree document, checked against the matrix's own tree, to the
other kind), ``generate`` (seeded random Robinson matrices) and ``bench``
(median wall times and doubling ratios).

Matrix files hold one row per line, full square or upper-triangular,
whitespace- or comma-separated, with nonnegative decimal weights;
``#`` starts a comment.  Points are the 0-based row indices.  A square
file spelled as ``generate`` writes it is read by its upper triangle: the
part of each row left of the diagonal is checked as one string against
the canonical spelling of the column above it, so it is never split, and
the square needs no validation.  From the first line that does not fit,
the rest of the file is read token by token: each line's tokens map
straight to interned ints through one table that scans each distinct
token once (equal values share one int object); such a square is
validated once, a triangle needs no check.
JSON tree documents are the canonical interchange; weights inside them stay
decimal strings so nothing is lost to binary floats.  One layer converts
between trees and documents, and the json, ascii and dot outputs are all
rendered from the document; every walk over a tree or a document runs on
an explicit stack, and only json's recursion gets a scoped limit
(``_recursion_room``).  JSON output is compact, one line per report
(``python -m json.tool`` indents it).  Exit status is 0
for success, 1 when the space is not Robinson, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
import timeit
from contextlib import contextmanager
from functools import cache, partial
from itertools import chain
from operator import getitem, itemgetter
from textwrap import shorten
from typing import Any, Callable, Iterator, Sequence

from . import copoints, core, dendrogram as dg, mmodtree as mm, pqtree as pq, translate
from .core import DissimilarityMatrix, Leaf, NotRobinson, RobinsonError
from .core import first_difference, fold, leaf_points


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
    if not whole.isdecimal() or (dot and not frac.isdecimal()):
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


class _Finer(Exception):
    """A token needs more decimal places than the table's scale holds."""


class _Weights(dict):
    """Token -> interned int weight at scale ``10**places``.

    A token is scanned the first time it is looked up.  Only a padded or
    non-ASCII spelling (``01``, ``1.50``, ``٣``) can share its value with
    another token; it takes the int of its canonical spelling
    (``weight_str``) from the same table, so equal values share one int
    object and no second table keyed by value is needed.
    """

    def __init__(self, places: int) -> None:
        super().__init__()
        self.places = places
        self.scale = 10**places

    def __missing__(self, token: str) -> int:
        value, places = _scan_weight(token)
        shift = self.places - places
        if shift < 0:  # exact when the dropped places are trailing zeros
            if len(token) - len(token.rstrip("0")) < -shift:
                raise _Finer
            value //= 10**-shift
        elif shift:
            value *= 10**shift
        # canonical: ASCII, no leading zero, no trailing zero after the point
        if token.isascii() and not (
            token[0] == "0" and token[1:2].isdecimal() or places and token[-1] == "0"
        ):
            self[token] = value
        else:
            self[token] = value = self[weight_str(value, self.scale)]
        return value


def _read_line(table: _Weights, tokens: list[str]) -> tuple[_Weights, list[int]]:
    """(table, row): a line's weights through ``table``, or through a new
    table at the most places the line needs when ``table`` has too few."""
    try:
        return table, list(map(table.__getitem__, tokens))
    except _Finer:
        table = _Weights(max(len(t.partition(".")[2].rstrip("0")) for t in tokens))
        return table, list(map(table.__getitem__, tokens))


class _Spellings(dict):
    """Interned int weight -> its canonical spelling (``weight_str``) at one
    scale; each distinct weight is spelled the first time it is looked up."""

    def __init__(self, scale: int) -> None:
        super().__init__()
        self.scale = scale

    def __missing__(self, value: int) -> str:
        self[value] = spelled = weight_str(value, self.scale)
        return spelled


def _read_square(lines: list[str]) -> tuple[_Weights, list[list[int]]]:
    """(table, rows): the leading rows of a square file spelled the way
    ``serialize_matrix`` writes it, popped off ``lines`` (the file's lines,
    last first), and the table they were read through.

    Row 0 is split in full, as the general path splits a first line, and
    its length n is the length of every row.  Row i must begin with
    column i of the rows above, spelled canonically (``weight_str``) and
    joined by single spaces, then a space: that prefix is checked as one
    string, never split, and row i starts with the column itself (the
    same interned ints).  Only the rest of the line is split and looked
    up.  The first line that does not fit (another prefix, a bad token, a
    weight finer than the table holds, a wrong count) stays on ``lines``.
    Each row returned is the row the general path reads from its line.
    """
    table = _Weights(0)
    tokens = lines[-1].split() if lines else None
    if not tokens:
        return table, []
    try:
        table, row = _read_line(table, tokens)
    except ValueError:
        return table, []
    lines.pop()
    rows = [row]
    n = len(row)
    weight, spell = table.__getitem__, _Spellings(table.scale).__getitem__
    for i in range(1, min(n, len(lines) + 1)):
        row = [above[i] for above in rows]
        lower = " ".join(map(spell, row)) + " "
        line = lines[-1]
        if not line.startswith(lower):
            break
        upper = line[len(lower) :].split()
        if len(upper) != n - i:
            break
        try:
            row += map(weight, upper)
        except (ValueError, _Finer):  # a bad token, or a finer one than the table holds
            break
        lines.pop()
        rows.append(row)
    return table, rows


def parse_matrix(text: str) -> DissimilarityMatrix:
    """Parse a matrix file (full square or upper triangle), validated.

    The text is split into lines once, and each line is dropped once
    read.  The leading rows of a square spelled the way
    ``serialize_matrix`` writes it are read by their upper triangle
    (``_read_square``); a square read whole that way is symmetric by
    construction, and only its diagonal is checked.  From the first line
    that does not fit, the general path reads the rest through the same
    table (``_Weights``): it maps each line's tokens straight to interned
    ints, scanning each distinct token the first time it is seen, so a
    line's strings die with it and only the distinct tokens stay alive.
    The table holds values at the most decimal places seen so far; when a
    token needs more, its line is read again with a fresh table at the new
    scale, and the rows read under an earlier scale are converted once at
    the end, by canonical spelling through the final table.  No row is
    converted twice, so the parse stays O(entries) however often the
    scale grows.  Errors come in a fixed order: the first bad token in
    reading order, then the shape, then the first validation defect.  A
    square that reaches the general path, or whose diagonal is not zero,
    is validated once; a triangle is symmetric with a zero diagonal by
    construction.

    Measured on a 2-CPU host (Python 3.11.7), ten alternating pairs of
    fresh processes on one generated n=2048 integer square (generic
    profile): a median of 0.45 s by the upper triangle against 0.55 s by
    the general path alone (faster in 9 of 10 pairs), 37 against 55 MB of
    tracemalloc peak, and 72 against 90 MB of peak RSS for the process
    that reads and parses it.
    """
    lines = text.splitlines()
    lines.reverse()  # popped in reading order, so each line is dropped once read
    table, rows = _read_square(lines)
    done = len(rows)
    if done and not lines and done == len(rows[0]) and not any(map(getitem, rows, range(done))):
        return DissimilarityMatrix(rows, table.scale)  # symmetric by construction
    line_nos = list(range(1, done + 1))
    start = 0  # first row read under ``table``
    earlier: list[tuple[int, int, int]] = []  # (rows start:stop, scale) per earlier table
    for ln in range(done + 1, done + 1 + len(lines)):
        line = lines.pop()
        if "#" in line:
            line = line.split("#", 1)[0]
        if "," in line:
            line = line.replace(",", " ")
        tokens = line.split()
        if not tokens:
            continue
        try:
            finer, row = _read_line(table, tokens)
        except ValueError:
            for col, token in enumerate(tokens, 1):
                try:
                    _scan_weight(token)
                except ValueError as exc:
                    raise MatrixParseError(ln, col, str(exc)) from None
            raise
        if finer is not table:
            earlier.append((start, len(rows), table.scale))
            start, table = len(rows), finer
        rows.append(row)
        line_nos.append(ln)
    if not rows:
        raise MatrixParseError(1, 1, "no matrix entries found")

    r = len(rows)
    sizes = list(map(len, rows))
    square = sizes == [r] * r
    if not square and sizes != list(range(r, 0, -1)):
        ln = line_nos[min(range(r), key=lambda i: sizes[i] == sizes[0])]
        raise MatrixParseError(
            ln, 1, f"row lengths {sizes} fit neither a square nor an upper triangle"
        )
    for first, stop, scale in earlier:  # in place, so the grid never exists twice
        spelled = {
            v: table[weight_str(v, scale)] for v in set(chain.from_iterable(rows[first:stop]))
        }
        for i in range(first, stop):
            rows[i] = list(map(spelled.__getitem__, rows[i]))
    matrix = DissimilarityMatrix(rows, table.scale)
    del table
    if square:
        core.validate(matrix)
        return matrix
    # pad each triangle row in place to full length, then copy the columns:
    # zip reads them lazily, and column j takes only rows above j, whose
    # entries right of their diagonal are never overwritten
    rows.append([])
    for i, row in enumerate(rows):
        row[:0] = [0] * (i + 1)
    for j, column in enumerate(zip(*rows)):
        rows[j][:j] = column[:j]
    return matrix


def serialize_matrix(matrix: DissimilarityMatrix) -> str:
    # each distinct weight is spelled once
    spell = _Spellings(matrix.scale).__getitem__
    return "\n".join(" ".join(map(spell, row)) for row in matrix.rows) + "\n"


# --- tree documents ----------------------------------------------------------
#
# The one place that spells out the node types of the three kinds.  A
# document is {"kind": kind, "root": node}; a leaf is {"type": "leaf",
# "point": p} and an internal node lists its fields in a fixed key order:
# P/Q: type, children, apex; cup/cap: type, children, special, largeChild;
# internal: type, weight, children.  Weights are decimal strings.  Every
# walk runs over an explicit stack, so no depth meets the recursion limit.

NODE_TYPES = {"pq": ("P", "Q"), "mmodule": ("cup", "cap"), "dendrogram": ("internal",)}


def tree_to_doc(kind: str, tree, matrix: DissimilarityMatrix) -> dict:
    """The document of ``tree``, built bottom-up in one ``fold``."""
    if kind not in NODE_TYPES:
        raise DocumentError(f"unknown tree kind {kind!r}")
    scale = matrix.scale

    def doc_node(node, children: list[dict]) -> dict:
        if isinstance(node, Leaf):
            return {"type": "leaf", "point": node.point}
        if isinstance(node, dg.Internal):
            return {"type": "internal", "weight": weight_str(node.weight, scale), "children": children}
        if isinstance(node, pq.P):
            return {"type": "P", "children": children}
        if isinstance(node, pq.Q):
            out = {"type": "Q", "children": children}
            hit = pq.conical_apex(matrix, node.children)
            if hit is not None:
                out["apex"] = hit[1]
            return out
        if isinstance(node, mm.Cup):
            return {"type": "cup", "children": children}
        out = {"type": "cap", "children": children}
        if node.special is not None:
            out["special"] = weight_str(node.special, scale)
            out["largeChild"] = node.large_child
        return out

    return {"kind": kind, "root": fold(tree, doc_node)}


_ENTER = object()  # marks a document node that ``doc_to_tree`` has yet to check


def doc_to_tree(doc, scale: int):
    """(kind, tree) from a parsed JSON document.

    One pass checks each node's shape before going down into it and builds
    each internal node once its children are built, so a document with
    several defects names the one a preorder reading meets first.
    """
    if not isinstance(doc, dict) or "kind" not in doc or "root" not in doc:
        raise DocumentError("document must be an object with 'kind' and 'root'")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in NODE_TYPES:
        raise DocumentError(f"unknown tree kind {kind!r}")
    wanted = NODE_TYPES[kind]
    done: list = []  # finished subtrees, last child on top
    # (node, _ENTER) to check a node; (node, its parsed weight or None) to build it
    todo: list[tuple] = [(doc["root"], _ENTER)]
    while todo:
        node, weight = todo.pop()
        if weight is not _ENTER:
            k = len(node["children"])
            children = tuple(done[-k:])
            del done[-k:]
            done.append(_build(node, children, weight, scale))
            continue
        if not isinstance(node, dict) or "type" not in node:
            raise DocumentError("tree nodes must be objects with a 'type'")
        if node["type"] == "leaf":
            point = node.get("point")
            if not isinstance(point, int) or isinstance(point, bool):
                raise DocumentError("leaf nodes need an integer 'point'")
            done.append(Leaf(point))
            continue
        if node["type"] not in wanted:
            raise DocumentError(f"unexpected node type {node['type']!r}")
        kids = node.get("children")
        if not isinstance(kids, list) or len(kids) < 2:
            raise DocumentError(f"{node['type']} node needs at least two children")
        weight = None
        if kind == "dendrogram":
            if "weight" not in node:
                raise DocumentError("internal dendrogram nodes need a 'weight'")
            weight = _weight_from_str(str(node["weight"]), scale)
        todo.append((node, weight))
        todo.extend((child, _ENTER) for child in reversed(kids))
    return kind, done[0]


def _build(node: dict, children: tuple, weight, scale: int):
    """The internal node ``node`` describes, over its built ``children``."""
    kind = node["type"]
    if kind == "internal":
        return dg.Internal(weight, list(children))
    if kind == "P":
        return pq.P(children)
    if kind == "Q":
        return pq.Q(children)
    if kind == "cup":
        return mm.Cup(children)
    if "special" not in node:
        return mm.Cap(children)
    large = node.get("largeChild")
    is_index = isinstance(large, int) and not isinstance(large, bool)
    if not is_index or not 0 <= large < len(children):
        raise DocumentError("special cap nodes need a valid 'largeChild' index")
    return mm.Cap(children, _weight_from_str(str(node["special"]), scale), large)


# --- human renderings ----------------------------------------------------------


def ascii_tree(doc: dict) -> str:
    """One line: ``P(..)``, ``Q[..]``, ``cup(..)``, ``cap@w(*.. ..)``, ``(w: ..)``."""

    def render(node: dict, parts: list[str]) -> str:
        kind = node["type"]
        if kind == "leaf":
            return str(node["point"])
        if "special" in node:
            large = node["largeChild"]
            parts[large] = "*" + parts[large]
        inner = " ".join(parts)
        if kind == "P":
            return f"P({inner})"
        if kind == "Q":
            return f"Q[{inner}]"
        if kind == "internal":
            return f"({node['weight']}: {inner})"
        if "special" in node:
            return f"cap@{node['special']}({inner})"
        return f"{kind}({inner})"

    return fold(doc["root"], render, lambda node: node.get("children", ()))


def dot_tree(doc: dict) -> str:
    """Graphviz text; nodes are numbered in preorder, and the edge to a
    child follows the lines of the child's subtree."""
    lines = ["graph tree {", "  node [shape=plaintext];"]
    count = 0
    todo: list = [(doc["root"], None)]  # (node, parent number), or an edge line
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, parent = item
        me = count
        count += 1
        kind = node["type"]
        if kind == "leaf":
            label = node["point"]
        elif kind == "internal":
            label = node["weight"]
        elif "special" in node:
            label = f"cap @ {node['special']}"
        else:
            label = kind
        lines.append(f'  n{me} [label="{label}"];')
        if parent is not None:
            todo.append(f"  n{parent} -- n{me};")
        todo.extend((child, me) for child in reversed(node.get("children", ())))
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- generation ----------------------------------------------------------------

PROFILES = ("generic", "ultrametric", "flat-heavy", "tie-heavy")


def generate_matrix(n: int, seed: int, profile: str) -> DissimilarityMatrix:
    """Seeded random Robinson matrix; see the profile table in the README.

    The same (n, seed, profile) gives the same matrix, so the same bytes
    from ``serialize_matrix``; ``test_cli`` pins their sha256 digests.  Each
    distinct weight is one int object, shared by every entry that holds it.
    One grid is alive at a time: the output rows are gathered base point by
    base point from the m x m staircase, and each staircase row is dropped
    as soon as its copies exist, so the peak stays near the size of the
    result.
    """
    if n < 1:
        raise ValueError("need at least one point")
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}: expected one of {', '.join(PROFILES)}")
    if n == 1:  # nothing to draw; and an itemgetter of one index returns no tuple
        return DissimilarityMatrix([[0]], 1)
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
    # allocator reuses their runs for the output rows
    for b, points in enumerate(copies):
        entries = gather(base[b])
        base[b] = None
        for i in points:
            rows[i] = list(entries)
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
    object, so equal weights already share one int."""
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
    return DissimilarityMatrix(rows, 1)


# --- commands ------------------------------------------------------------------


def _read(path: str) -> str:
    """The text of a file, or of stdin for ``-``, without a leading byte-order mark."""
    if path == "-":
        return sys.stdin.read().removeprefix("\ufeff")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().removeprefix("\ufeff")


def cmd_recognize(args) -> int:
    matrix = parse_matrix(_read(args.input))
    result = copoints.recognize_validated(matrix)
    if result.accepted:
        report = {
            "robinson": True,
            "order": list(result.witness),
            "tree": tree_to_doc("pq", result.tree, matrix),
        }
        with _recursion_room(2 * matrix.n + 10):
            _print_json(report)
        return 0
    _print_json({"robinson": False, "reason": result.reason, "violation": list(result.violation)})
    return 1


def cmd_tree(args) -> int:
    matrix = parse_matrix(_read(args.input))
    if args.tree == "dendrogram":
        tree = dg.build_dendrogram(matrix, range(matrix.n))
    else:
        (tree,) = _served(matrix, args.tree)
    _emit(args.tree, tree, matrix, args.format)
    return 0


def _served(matrix: DissimilarityMatrix, *kinds: str) -> tuple:
    """The verified PQ-tree, or the mmodule tree read off it, per kind in
    ``kinds``; a refusal names the violating triple ``recognize`` reports."""
    result = copoints.recognize_validated(matrix)
    if not result.accepted:
        raise NotRobinson(f"{result.reason}: violating triple {', '.join(map(str, result.violation))}")
    mtree = mm.pq_to_mmodule_tree(matrix, result.tree) if "mmodule" in kinds else None
    return tuple(mtree if kind == "mmodule" else result.tree for kind in kinds)


def _emit(kind: str, tree, matrix: DissimilarityMatrix, fmt: str) -> None:
    doc = tree_to_doc(kind, tree, matrix)
    if fmt == "json":
        with _recursion_room(2 * matrix.n + 10):
            _print_json(doc)
    elif fmt == "dot":
        sys.stdout.write(dot_tree(doc))
    else:
        print(ascii_tree(doc))


def _print_json(report: dict) -> None:
    """One compact line; ``python -m json.tool`` indents it for reading."""
    print(json.dumps(report, separators=(",", ":")))


@contextmanager
def _recursion_room(levels: int) -> Iterator[None]:
    """The recursion limit raised by ``levels`` inside the block and
    restored on exit.  json's C encoder and decoder recurse once per
    nested container (Python 3.11), and a document over n points nests
    at most n - 1 levels of two containers, so the CLI asks for 2n + 10
    around them; anything nested deeper still fails."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + levels)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def cmd_translate(args) -> int:
    if args.input == args.matrix == "-":  # stdin holds one file
        raise ValueError("only one of --input and --matrix may be - (stdin)")
    matrix = parse_matrix(_read(args.matrix))
    text = _read(args.input)
    try:
        with _recursion_room(2 * matrix.n + 10):
            doc = json.loads(text)
        kind, tree = doc_to_tree(doc, matrix.scale)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"tree document is not JSON: {exc}") from None
    except RecursionError:
        raise DocumentError("tree document is nested too deeply") from None
    if kind == "dendrogram":
        raise DocumentError("dendrogram documents have no translation")
    target = "mmodule" if kind == "pq" else "pq"
    # held against the served tree; the translators would trust its claims
    mine, out = _served(matrix, kind, target)
    normal = pq.normal_form if kind == "pq" else mm.normal_form
    differ = first_difference(normal(tree), normal(mine))
    if differ is not None:  # wrong, missing or repeated leaves differ at a node too
        ours, theirs = differ
        points = shorten(" ".join(map(str, leaf_points(ours))), 40, placeholder=" ...")
        want = shorten(ascii_tree(tree_to_doc(kind, theirs, matrix)), 80, placeholder=" ...")
        raise DocumentError(
            f"tree does not fit the matrix: its {type(ours).__name__} over {points} should be {want}"
        )
    _emit(target, out, matrix, args.format)
    return 0


def cmd_generate(args) -> int:
    matrix = generate_matrix(args.size, args.seed, args.profile)
    sys.stdout.write(serialize_matrix(matrix))
    return 0


# op name -> prepare(matrix, done): the call to time, given the outputs of
# the ops before it in ``done``; what ``prepare`` itself does is not timed
BENCH_OPS: dict[str, Callable[[DissimilarityMatrix, dict], Callable[[], Any]]] = {
    "dendrogram": lambda m, done: partial(dg.build_dendrogram, m, range(m.n)),
    "mmodule-tree": lambda m, done: partial(mm.mmodule_tree, m, range(m.n)),
    "pq-tree": lambda m, done: partial(copoints.pq_tree2, m, range(m.n)),
    "pq-to-mmodule": lambda m, done: partial(translate.pq_to_mmodule_tree, m, done["pq-tree"]),
    "mmodule-to-pq": lambda m, done: partial(translate.mmodule_to_pq_tree, m, done["mmodule-tree"]),
    "verify": lambda m, done: partial(core.violating_triple, m, pq.canonical_order(done["pq-tree"])),
}


def cmd_bench(args) -> int:
    sizes = args.sizes
    # reps are interleaved across sizes so load drift on the host cannot
    # land on one size coherently and distort the growth ratios
    samples: dict[int, dict[str, list[float]]] = {
        size: {op: [] for op in BENCH_OPS} for size in sizes
    }
    generate_samples: dict[int, list[float]] = {size: [] for size in sizes}
    for rep in range(args.reps):
        for size in sizes:
            t0 = time.perf_counter()
            matrix = generate_matrix(size, args.seed + rep, args.profile)
            generate_samples[size].append(time.perf_counter() - t0)
            done: dict[str, Any] = {}
            for op, prepare in BENCH_OPS.items():
                # one untimed call warms the caches and feeds the later ops; then
                # ``timeit`` times five one-shot calls with the cyclic collector paused
                call = prepare(matrix, done)
                done[op] = call()
                samples[size][op].append(min(timeit.repeat(call, repeat=5, number=1)))
    medians: dict[str, dict[str, float]] = {}
    generate_s: dict[str, float] = {}  # one call per rep, not an op's best of five
    if args.reps:
        for size in sizes:
            medians[str(size)] = {
                op: statistics.median(samples[size][op]) for op in BENCH_OPS
            }
            generate_s[str(size)] = statistics.median(generate_samples[size])
    ratios: dict[str, dict[str, float]] = {}
    for a, b in zip(sizes, sizes[1:]):
        if b == 2 * a and str(a) in medians:
            key = f"{b}/{a}"
            ratios[key] = {
                op: medians[str(b)][op] / max(medians[str(a)][op], 1e-9)
                for op in BENCH_OPS
            }
    if args.format == "json":
        _print_json(
            {
                "profile": args.profile,
                "sizes": sizes,
                "reps": args.reps,
                "medians": medians,
                "ratios": ratios,
                "generate_s": generate_s,
            }
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
    line = ", ".join(f"n={s} {generate_s[str(s)]:.4f}" for s in sizes)
    print(f"generate (median of one call per rep): {line}")
    return 0


def _sizes(text: str) -> list[int]:
    """The ``--sizes`` list: one or more point counts, each at least 1."""
    sizes = [int(x) for x in text.split(",") if x]  # argparse reports a ValueError
    if not sizes or min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"need one or more sizes, each at least 1: {text!r}")
    return sizes


def _reps(text: str) -> int:
    """The ``--reps`` count: zero or more repetitions."""
    reps = int(text)  # argparse reports a ValueError
    if reps < 0:
        raise argparse.ArgumentTypeError(f"need zero or more repetitions: {text!r}")
    return reps


# --- entry point -----------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: the tree is the same for every call, and a
    # build costs about a millisecond, as much as a refused request's order check
    top = argparse.ArgumentParser(
        prog="robinspace",
        description="Robinson dissimilarity spaces: recognition, trees, translations.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="decide whether a matrix is Robinson")
    p.add_argument("--input", "-i", required=True, help="matrix file, or - for stdin")

    p = sub.add_parser("tree", help="build one of the three trees")
    p.add_argument("--input", "-i", required=True, help="matrix file, or - for stdin")
    p.add_argument("--tree", "-t", choices=("pq", "mmodule", "dendrogram"), default="pq")
    p.add_argument("--format", "-f", choices=("json", "dot", "ascii"), default="json")

    p = sub.add_parser("translate", help="translate a tree document")
    p.add_argument("--input", "-i", required=True, help="tree document (JSON)")
    p.add_argument("--matrix", "-m", required=True, help="matrix file the tree describes")
    p.add_argument("--format", "-f", choices=("json", "dot", "ascii"), default="json")

    p = sub.add_parser("generate", help="emit a random Robinson matrix")
    p.add_argument("--size", "-n", type=int, required=True, help="number of points")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=PROFILES, default="generic")

    p = sub.add_parser("bench", help="median runtimes and doubling ratios")
    p.add_argument(
        "--sizes", type=_sizes, default=[256, 512, 1024], help="comma-separated point counts"
    )
    p.add_argument("--reps", type=_reps, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", choices=PROFILES, default="generic")
    p.add_argument("--format", "-f", choices=("json", "text"), default="text")
    return top


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up per call, so a replaced ``cmd_*`` is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except NotRobinson as exc:
        print(f"not Robinson: {exc}", file=sys.stderr)
        return 1
    except (MatrixParseError, DocumentError, RobinsonError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
