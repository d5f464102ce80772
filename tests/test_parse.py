"""The one-pass matrix-file parser against the one that holds every token,
its scale changes, its memory and work bounds, the single validation per
request, and the serializer."""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from robinspace import cli, copoints, core, reference
from robinspace.cli import MatrixParseError
from robinspace.core import DissimilarityMatrix

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
    assert _outcome(cli.parse_matrix, text) == _outcome(reference.parse_matrix_all_tokens, text)


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
        " ".join(cli.weight_str(v, 10**places) for v in row) + "\n" for row in triangle
    )
    m = cli.parse_matrix(text)
    core.validate(m)
    for i, row in enumerate(triangle):
        for k, v in enumerate(row):
            assert m.rows[i][i + 1 + k] * 10**places == v * m.scale


def _square_text(rows) -> str:
    return cli.serialize_matrix(DissimilarityMatrix(rows))


def _triangle_text(rows) -> str:
    return "".join(" ".join(map(str, row[i + 1 :])) + "\n" for i, row in enumerate(rows[:-1]))


@pytest.mark.parametrize("profile", cli.PROFILES)
@pytest.mark.parametrize("shape", ["square", "triangle"])
def test_parse_peak_memory_is_a_few_grids(profile, shape):
    # the grid of n^2 references alone is 8 n^2 bytes; holding every token
    # string at once peaked at 8-9 times that (square) and 4 times (triangle)
    n = 512
    rows = cli.generate_matrix(n, 3, profile).rows
    text = (_square_text if shape == "square" else _triangle_text)(rows)
    tracemalloc.start()
    try:
        m = cli.parse_matrix(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.rows == rows
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
    got = _outcome(cli.parse_matrix, text)
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
    scan, spell = cli._scan_weight, cli.weight_str

    def counted_scan(token):
        calls["scan"] += 1
        return scan(token)

    def counted_spell(value, scale):
        calls["spell"] += 1
        return spell(value, scale)

    monkeypatch.setattr(cli, "_scan_weight", counted_scan)
    monkeypatch.setattr(cli, "weight_str", counted_spell)
    m = cli.parse_matrix(text)
    assert calls["scan"] + calls["spell"] <= 4 * entries, calls
    assert m.scale == 10 ** (n - 1)
    assert (m.rows, m.scale) == _outcome(reference.parse_matrix_all_tokens, text)


@pytest.fixture
def validate_calls(monkeypatch):
    calls = []
    real = core.validate

    def counted(matrix):
        calls.append(matrix.n)
        return real(matrix)

    monkeypatch.setattr(core, "validate", counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [["recognize"], ["tree", "-t", "mmodule"], ["tree", "-t", "pq"], ["tree", "-t", "dendrogram"]],
)
def test_each_request_validates_a_square_file_once(argv, validate_calls, tmp_path, capsys):
    rows = cli.generate_matrix(20, 4, "generic").rows
    square, triangle = tmp_path / "square.txt", tmp_path / "triangle.txt"
    square.write_text(_square_text(rows))
    triangle.write_text(_triangle_text(rows))
    assert cli.main([argv[0], "-i", str(square), *argv[1:]]) == 0
    assert validate_calls == [20]
    assert cli.main([argv[0], "-i", str(triangle), *argv[1:]]) == 0
    assert validate_calls == [20]
    capsys.readouterr()


def test_library_recognition_still_validates(validate_calls):
    m = DissimilarityMatrix([[0, 1], [2, 0]])
    with pytest.raises(core.AsymmetricInput):
        copoints.recognize_robinson(m)
    assert validate_calls == [2]


@pytest.mark.parametrize("scale", [1, 100, 10**6])
def test_serialize_spells_each_entry_like_weight_str(scale):
    rows = [[v * 37 for v in row] for row in cli.generate_matrix(60, 5, "tie-heavy").rows]
    m = DissimilarityMatrix(rows, scale)
    want = "\n".join(" ".join(cli.weight_str(v, scale) for v in row) for row in rows) + "\n"
    assert cli.serialize_matrix(m) == want


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
