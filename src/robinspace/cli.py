"""Command-line toolkit around the library: the commands and their wiring.

Subcommands: ``recognize`` (verdict, witness order and PQ-tree),
``tree`` (any of the three trees in json/dot/ascii), ``translate`` (a PQ
or mmodule tree document, checked against the matrix's own tree, to the
other kind), ``generate`` (seeded random Robinson matrices) and ``bench``
(median wall times and doubling ratios).

The file formats live in ``formats``, the generator in ``generator`` and
the timing in ``bench``, which the ``bench`` command alone imports, so no
other command pays for loading ``statistics``; this module reads the
files, calls the library and writes the answer.  JSON output is compact,
one line per report (``python -m json.tool`` indents it), and json's
recursion is the only one that gets a scoped limit (``_recursion_room``).
Exit status is 0 for success, 1 when the space is not Robinson, 2 for
unusable input (an input too large for the memory at hand included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from functools import cache
from textwrap import shorten
from typing import Iterator, Sequence

from . import copoints, dendrogram as dg, mmodtree as mm, pqtree as pq
from .core import DissimilarityMatrix, NotRobinson, RobinsonError, first_difference, leaf_points
from .formats import DocumentError, MatrixParseError, ascii_tree, doc_to_tree, dot_tree
from .formats import matrix_lines, parse_matrix, tree_to_doc
from .generator import PROFILES, generate_matrix


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
    around them; anything nested deeper still fails.

    This stops working on Python 3.12: there json's C encoder and decoder
    count against a C recursion limit that ``sys.setrecursionlimit`` does
    not raise.  So on 3.12.1, ``recognize`` and ``tree -f json`` on trees
    800 or more levels deep exit 1 with a traceback, and ``translate``
    refuses deep documents; 3.11 and 3.13 are not affected."""
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
    try:
        sys.stdout.writelines(matrix_lines(matrix))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``generate | head``), which ends the
        # output, not the command; stdout then points at the null device,
        # so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def cmd_bench(args) -> int:
    # imported here, so no other command loads its timing and statistics modules
    from . import bench

    report = bench.measure(args.sizes, args.reps, args.seed, args.profile)
    if args.format == "json":
        _print_json(report)
    else:
        print(bench.text(report))
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
    except MemoryError:  # the input is too large; its frames are gone by now
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
