"""The one-pass matrix-file parser against the one that holds every token,
its scale changes, its memory and work bounds, the single validation per
request, and the serializer."""

from __future__ import annotations

import io
import json
import sys
import tracemalloc
from contextlib import contextmanager
from typing import Iterator

import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from robinspace import cli, copoints, core, formats, generator
from robinspace.core import DissimilarityMatrix
from robinspace.formats import MatrixParseError

# tokens the scan must refuse, or (the last one) accept in a surprising way:
# "²" is a digit but not a decimal, so int() refuses it too, and "٣" is the
# decimal digit three
BAD_TOKENS = ("x", "-1", "1e2", "1.", ".5", "+3", "1.2.3", "0x1", "²", "٣")
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def spellings(draw, value: int, places: int) -> str:
    """A decimal spelling of value / 10**places, with optional extra zeros."""
    whole, frac = divmod(value, 10**places)
    frac_s = str(frac).zfill(places) if places else ""
    frac_s += "0" * draw(st.integers(0, 2))
    whole_s = "0" * draw(st.integers(0, 1)) + str(whole)
    spelled = f"{whole_s}.{frac_s}" if frac_s else whole_s
    if draw(st.integers(0, 7)) == 0:  # int() reads other decimal digits too
        spelled = spelled.translate(ARABIC_INDIC)
    return spelled


@st.composite
def matrix_files(draw) -> str:
    """Square or upper-triangle files, mostly valid, with the usual defects."""
    n = draw(st.integers(1, 6))
    places = draw(st.integers(0, 3))
    values = st.integers(0, 3 * 10**places)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(values)
    triangle = n > 1 and draw(st.booleans())
    if not triangle:
        for _ in range(draw(st.integers(0, 2))):  # asymmetry, nonzero diagonal
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            rows[i][j] = draw(values)
    cells = [
        [draw(spellings(v, places)) for v in (row[i + 1 :] if triangle else row)]
        for i, row in enumerate(rows[: n - 1] if triangle else rows)
    ]
    for _ in range(draw(st.integers(0, 2))):  # bad tokens
        row = draw(st.integers(0, len(cells) - 1))
        if cells[row]:
            col = draw(st.integers(0, len(cells[row]) - 1))
            cells[row][col] = draw(st.sampled_from(BAD_TOKENS))
    if draw(st.integers(0, 4)) == 0:  # a ragged row
        row = draw(st.integers(0, len(cells) - 1))
        if cells[row] and draw(st.booleans()):
            cells[row].pop()
        else:
            cells[row].append("1")
    lines = []
    for row in cells:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["# comment", "", "   ", "#0 1 x"])))
        sep = draw(st.sampled_from([" ", ", ", ",", "\t"]))
        line = sep.join(row)
        if draw(st.integers(0, 5)) == 0:
            line += "  # trailing, 1 x"
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


def _outcome(parse, text: str):
    try:
        m = parse(text)
    except MatrixParseError as exc:
        return type(exc), str(exc), exc.line, exc.col
    except (core.RobinsonError, ValueError) as exc:
        return type(exc), str(exc)
    # equal values share one int object
    assert len({id(v) for row in m.rows for v in row}) == len(
        {v for row in m.rows for v in row}
    )
    return m.rows, m.scale


@settings(max_examples=400, deadline=None)
@given(matrix_files())
def test_streamed_parse_matches_reference(text):
    want = _outcome(reference.parse_matrix_all_tokens, text)
    assert _outcome(formats.parse_matrix, text) == want


@st.composite
def triangles(draw) -> list[list[int]]:
    # from three points: a one-entry file is a 1 x 1 square
    n = draw(st.integers(3, 7))
    return [
        draw(st.lists(st.integers(0, 40), min_size=k, max_size=k)) for k in range(n - 1, 0, -1)
    ]


@settings(max_examples=200, deadline=None)
@given(triangles(), st.integers(0, 2))
def test_parsed_triangle_passes_validation(triangle, places):
    text = "".join(
        " ".join(formats.weight_str(v, 10**places) for v in row) + "\n" for row in triangle
    )
    m = formats.parse_matrix(text)
    core.validate(m)
    for i, row in enumerate(triangle):
        for k, v in enumerate(row):
            assert m.rows[i][i + 1 + k] * 10**places == v * m.scale


def _square_text(rows) -> str:
    return reference.serialize_matrix(DissimilarityMatrix(rows))


def _triangle_text(rows) -> str:
    return "".join(" ".join(map(str, row[i + 1 :])) + "\n" for i, row in enumerate(rows[:-1]))


@pytest.mark.parametrize("profile", generator.PROFILES)
@pytest.mark.parametrize("shape", ["square", "triangle"])
def test_parse_peak_memory_is_a_few_grids(profile, shape):
    # the grid of n^2 references alone is 8 n^2 bytes; holding every token
    # string at once peaked at 8-9 times that (square) and 4 times (triangle)
    n = 512
    rows = generator.generate_matrix(n, 3, profile).rows
    text = (_square_text if shape == "square" else _triangle_text)(rows)
    tracemalloc.start()
    try:
        m = formats.parse_matrix(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # parsed rows are lists, generated rows tuples: compared by value
    assert list(map(tuple, m.rows)) == rows
    assert peak <= 3 * 8 * n * n, peak / (8 * n * n)


BAD_X = "not a nonnegative decimal: 'x'"


# the scale grows on a later line (then with values above the small-int
# cache, so ``_outcome`` sees that equal values read under the two scales
# share one int); a triangle whose last line needs the most places; a bad
# token after a token that grows the scale
@pytest.mark.parametrize(
    "text, want",
    [
        ("0 1 2\n1 0 1.5\n2 1.5 0\n", ([[0, 10, 20], [10, 0, 15], [20, 15, 0]], 10)),
        (
            "0 100 200\n100 0 150.5\n200 150.5 0\n",
            ([[0, 1000, 2000], [1000, 0, 1505], [2000, 1505, 0]], 10),
        ),
        (
            "1 2 3\n1.5 2.50\n0.125\n",
            (
                [[0, 1000, 2000, 3000], [1000, 0, 1500, 2500], [2000, 1500, 0, 125],
                 [3000, 2500, 125, 0]],
                1000,
            ),
        ),
        ("0 1.5 x\n1.5 0 1\nx 1 0\n", (MatrixParseError, f"line 1, entry 3: {BAD_X}", 1, 3)),
        ("0 1 2\n1 0 0.5 x\n2 0.5 0\n", (MatrixParseError, f"line 2, entry 4: {BAD_X}", 2, 4)),
    ],
)
def test_parse_when_the_scale_grows(text, want):
    got = _outcome(formats.parse_matrix, text)
    assert got == want
    assert got == _outcome(reference.parse_matrix_all_tokens, text)


def test_parse_work_stays_linear_when_the_scale_grows_on_every_line(monkeypatch):
    # line i of a triangle needs i + 1 places and every value is distinct:
    # each line grows the scale, and every earlier row must be converted
    # once, not once per growth (no CLI path may be cubic)
    n = 60
    lines = [" ".join(f"{j}.{'0' * i}1" for j in range(n - 1 - i)) for i in range(n - 1)]
    text = "\n".join(lines) + "\n"
    entries = n * (n - 1) // 2
    calls = {"scan": 0, "spell": 0}
    scan, spell = formats._scan_weight, formats.weight_str

    def counted_scan(token):
        calls["scan"] += 1
        return scan(token)

    def counted_spell(value, scale):
        calls["spell"] += 1
        return spell(value, scale)

    monkeypatch.setattr(formats, "_scan_weight", counted_scan)
    monkeypatch.setattr(formats, "weight_str", counted_spell)
    m = formats.parse_matrix(text)
    assert calls["scan"] + calls["spell"] <= 4 * entries, calls
    assert m.scale == 10 ** (n - 1)
    assert (m.rows, m.scale) == _outcome(reference.parse_matrix_all_tokens, text)


@contextmanager
def counted_validate() -> Iterator[list[int]]:
    """The sizes of the matrices ``core.validate`` checks inside the block."""
    calls: list[int] = []
    real = core.validate

    def counted(matrix):
        calls.append(matrix.n)
        return real(matrix)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "validate", counted)
        yield calls


@pytest.fixture
def validate_calls():
    with counted_validate() as calls:
        yield calls


@pytest.mark.parametrize(
    "argv",
    [["recognize"], ["tree", "-t", "mmodule"], ["tree", "-t", "pq"], ["tree", "-t", "dendrogram"]],
)
def test_each_request_validates_a_square_file_once(argv, validate_calls, tmp_path, capsys):
    # a canonical square is read by its upper triangle and needs no check; a
    # square spelled otherwise from some line on is checked exactly once; a
    # triangle needs no check.  All four spell the same matrix.
    rows = generator.generate_matrix(20, 4, "generic").rows
    square = _square_text(rows)
    lines = square.splitlines(keepends=True)
    lines[5] = "0" + lines[5]  # a padded first entry, left of the diagonal
    files = {
        "canonical": (square, []),
        "tabbed": (square.replace(" ", "\t"), [20]),
        "padded": ("".join(lines), [20]),
        "triangle": (_triangle_text(rows), []),
    }
    outputs = set()
    for name, (text, want) in files.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        validate_calls.clear()
        assert cli.main([argv[0], "-i", str(path), *argv[1:]]) == 0
        assert validate_calls == want, name
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1


SQUARE_MUTATIONS = (
    "asymmetric", "respelled", "spacing", "leading spaces", "diagonal", "bad tokens",
    "extra token", "extra row", "missing row", "comment", "commas", "crlf",
)


@st.composite
def canonical_squares(draw) -> tuple[str, str | None]:
    """``serialize_matrix`` of a random valid matrix with at most one
    mutation, and the mutation's name (None for the file as written)."""
    n = draw(st.integers(1, 12))
    scale = draw(st.sampled_from([1, 10, 10**6]))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.integers(0, 3 * scale))
    text = reference.serialize_matrix(DissimilarityMatrix(rows, scale))
    cells = [line.split(" ") for line in text.splitlines()]
    mutation = draw(st.sampled_from((None, *SQUARE_MUTATIONS)))
    lower = [(i, j) for i in range(n) for j in range(i)]
    if not lower and mutation in ("asymmetric", "respelled", "spacing", "bad tokens"):
        mutation = None
    if mutation == "asymmetric":
        i, j = draw(st.sampled_from(lower))
        cells[i][j] = formats.weight_str(rows[i][j] + draw(st.integers(1, scale)), scale)
    elif mutation == "respelled":
        i, j = draw(st.sampled_from(lower))
        token = cells[i][j]
        cells[i][j] = draw(
            st.sampled_from(
                ["0" + token, token + ("0" if "." in token else ".0"), token.translate(ARABIC_INDIC)]
            )
        )
    elif mutation == "diagonal":
        i = draw(st.integers(0, n - 1))
        cells[i][i] = formats.weight_str(draw(st.integers(1, 3 * scale)), scale)
    elif mutation == "bad tokens":  # the first in a lower half, the second after it
        i, j = draw(st.sampled_from(lower))
        cells[i][j] = draw(st.sampled_from(BAD_TOKENS[:-1]))
        later = [(a, b) for a in range(n) for b in range(n) if (a, b) > (i, j)]
        if later:
            a, b = draw(st.sampled_from(later))
            cells[a][b] = draw(st.sampled_from(BAD_TOKENS[:-1]))
    elif mutation == "extra token":
        cells[draw(st.integers(0, n - 1))].append(draw(st.sampled_from(["0", "1"])))
    elif mutation == "extra row":
        cells.insert(draw(st.integers(0, n)), list(cells[draw(st.integers(0, n - 1))]))
    elif mutation == "missing row":
        del cells[draw(st.integers(0, n - 1))]
    lines = [" ".join(row) for row in cells]
    if mutation == "spacing":  # after the k-th entry of a lower half
        i, k = draw(st.sampled_from(lower))
        head, tail = " ".join(cells[i][: k + 1]), " ".join(cells[i][k + 1 :])
        lines[i] = head + draw(st.sampled_from(["\t", "  "])) + tail
    elif mutation == "leading spaces":
        i = draw(st.integers(0, n - 1))
        lines[i] = draw(st.sampled_from([" ", "  ", "\t"])) + lines[i]
    elif mutation == "comment":
        i = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            lines.insert(i, "# a comment")
        else:
            lines[i] += " # 1 2"
    elif mutation == "commas":
        sep = draw(st.sampled_from([",", ", "]))
        for i in range(n) if draw(st.booleans()) else [draw(st.integers(0, n - 1))]:
            lines[i] = sep.join(cells[i])
    return ("\r\n" if mutation == "crlf" else "\n").join(lines) + "\n", mutation


def _places(tokens) -> int:
    return max(len(token.partition(".")[2]) for token in tokens)


@settings(max_examples=400, deadline=None)
@given(canonical_squares())
@example(("0 1 2\n1 0 1.5\n2 1.5 0\n", None))  # the scale grows on row 1
def test_upper_triangle_read_matches_reference(square):
    text, mutation = square
    with counted_validate() as calls:
        got = _outcome(formats.parse_matrix, text)
    assert got == _outcome(reference.parse_matrix_all_tokens, text)
    if mutation is None:
        # read by its upper triangle unless a finer weight than row 0 holds
        # comes later: then the general path reads the rest and checks it once
        grows = _places(text.split()) > _places(text.split("\n", 1)[0].split())
        assert calls == ([len(got[0])] if grows else []), got
    else:
        assert len(calls) <= 1


def test_parse_work_stays_linear_when_a_square_falls_back_on_its_last_row(monkeypatch):
    # every weight is distinct, and the last row's first entry is padded:
    # the upper-triangle read gets through all but the last row, and the
    # general path reads the last row with the same table
    n = 60
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = i * n + j
    lines = _square_text(rows).splitlines(keepends=True)
    lines[-1] = "0" + lines[-1]
    text = "".join(lines)
    calls = {"scan": 0, "spell": 0}
    scan, spell = formats._scan_weight, formats.weight_str

    def counted_scan(token):
        calls["scan"] += 1
        return scan(token)

    def counted_spell(value, scale):
        calls["spell"] += 1
        return spell(value, scale)

    monkeypatch.setattr(formats, "_scan_weight", counted_scan)
    monkeypatch.setattr(formats, "weight_str", counted_spell)
    with counted_validate() as validated:
        m = formats.parse_matrix(text)
    assert validated == [n]
    assert calls["scan"] + calls["spell"] <= 4 * n * n, calls
    assert m.rows == rows


def test_library_recognition_still_validates(validate_calls):
    m = DissimilarityMatrix([[0, 1], [2, 0]])
    with pytest.raises(core.AsymmetricInput):
        copoints.recognize_robinson(m)
    assert validate_calls == [2]


@pytest.mark.parametrize("scale", [1, 100, 10**6])
def test_serialize_spells_each_entry_like_weight_str(scale):
    rows = [[v * 37 for v in row] for row in generator.generate_matrix(60, 5, "tie-heavy").rows]
    m = DissimilarityMatrix(rows, scale)
    want = "\n".join(" ".join(formats.weight_str(v, scale) for v in row) for row in rows) + "\n"
    assert reference.serialize_matrix(m) == want


def test_a_digit_that_is_not_decimal_is_a_bad_token(tmp_path, capsys):
    # "²" passes ``str.isdigit`` but not int(); it gets every bad token's message
    matrix = tmp_path / "m.txt"
    matrix.write_text("0 ²\n")
    assert cli.main(["recognize", "-i", str(matrix)]) == 2
    assert capsys.readouterr().err == "error: line 1, entry 2: not a nonnegative decimal: '²'\n"
    matrix.write_text("0 1 1\n1 0 1\n1 1 0\n")
    leaves = [{"type": "leaf", "point": p} for p in range(3)]
    root = {"type": "cap", "special": "²", "largeChild": 0, "children": leaves}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"kind": "mmodule", "root": root}))
    assert cli.main(["translate", "-i", str(path), "-m", str(matrix)]) == 2
    assert capsys.readouterr().err == "error: not a nonnegative decimal: '²'\n"


def test_a_leading_byte_order_mark_is_ignored(tmp_path, capsys, monkeypatch):
    # editors that save "UTF-8 with BOM" put U+FEFF before the first entry
    text = _square_text(generator.generate_matrix(6, 2, "generic").rows)
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["recognize", "-i", str(path)]) == 0
    want = capsys.readouterr().out
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert cli.main(["recognize", "-i", str(path)]) == 0
    assert capsys.readouterr().out == want
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + text))
    assert cli.main(["recognize", "-i", "-"]) == 0
    assert capsys.readouterr().out == want
    # only one mark, and only at the start, is dropped
    path.write_text("\ufeff\ufeff" + text, encoding="utf-8")
    assert cli.main(["recognize", "-i", str(path)]) == 2
    assert "line 1, entry 1: not a nonnegative decimal" in capsys.readouterr().err
