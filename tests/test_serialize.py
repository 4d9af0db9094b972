"""Catalog (.oa) and ket text formats: round-trips and error reporting."""

import cmath
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kuniform.serialize as serialize
from kuniform import (
    CatalogDocument,
    KuniformError,
    NotAnOAAtStrength,
    OrthogonalArray,
    ParameterMismatch,
    ParseError,
    PureState,
    Unsupported,
    bush_oa,
    parse_catalog,
    parse_ket,
    parse_oa_file,
    rao_oa,
    write_ket,
    write_oa_file,
)
from kuniform.states import _BYTE_VALUE, _DIGIT_VALUE


# ---------------------------------------------------------------------------
# catalog round-trips
# ---------------------------------------------------------------------------

def test_every_oa_fixture_round_trips(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.oa")):
        first = parse_oa_file(path.read_text())
        again = parse_oa_file(write_oa_file(first))
        assert again.rows == first.rows
        assert again.levels == first.levels


def test_every_ket_fixture_round_trips(fixtures_dir):
    for path in sorted(fixtures_dir.glob("*.ket")):
        first = parse_ket(path.read_text())
        again = parse_ket(write_ket(first))
        assert again.words == first.words
        assert np.allclose(again.phases, first.phases, atol=1e-12)
        assert again.qudits == first.qudits


def test_header_strength_is_optional():
    arr = parse_oa_file("oa 2 2 2\n01\n10\n")
    assert arr.strength is None
    text = write_oa_file(arr)
    assert text.splitlines()[0] == "oa 2 2 2 1"  # computed maximum


def test_declared_strength_is_kept_by_writer():
    text = "oa 4 3 2 1\n000\n011\n101\n110\n"
    arr = parse_oa_file(text)
    assert arr.strength == 1  # declared, even though rows support 2
    assert write_oa_file(arr).splitlines()[0] == "oa 4 3 2 1"


def test_comments_are_collected():
    doc = parse_catalog("# top note\noa 2 2 2 1  # trailing ignored\n01\n10\n")
    assert doc.comments == ("top note",)
    assert doc.rows == ("01", "10")
    assert doc.strength == 1


def test_base36_symbols_round_trip():
    rows = tuple((i,) for i in range(11))
    arr = OrthogonalArray(rows=rows, levels=11)
    text = write_oa_file(arr)
    assert "a" in text.splitlines()[-1]
    assert parse_oa_file(text).rows == rows


def test_writer_rejects_unencodable_levels():
    arr = OrthogonalArray(rows=((0,), (36,)), levels=37)
    with pytest.raises(Unsupported):
        write_oa_file(arr)


# ---------------------------------------------------------------------------
# catalog validation failures
# ---------------------------------------------------------------------------

def test_declared_strength_must_hold():
    with pytest.raises(ParameterMismatch):
        parse_oa_file("oa 2 2 2 2\n01\n10\n")


def test_declared_counts_must_match():
    with pytest.raises(ParameterMismatch):
        parse_oa_file("oa 3 2 2 1\n01\n10\n")
    with pytest.raises(ParameterMismatch):
        parse_oa_file("oa 2 3 2 1\n01\n10\n")
    with pytest.raises(ParameterMismatch):
        parse_oa_file("oa 2 2 2 1\n02\n20\n")


def test_catalog_parse_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        parse_oa_file("not a header\n01\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_oa_file("oa 2 2 2 1\n0$\n10\n")
    assert (exc.value.line, exc.value.column) == (2, 2)
    with pytest.raises(ParseError) as exc:
        parse_oa_file("oa x 2 2 1\n01\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_oa_file("")
    with pytest.raises(ParseError):
        parse_oa_file("oa 2 2 2 1\n")  # no rows


# ---------------------------------------------------------------------------
# ket parsing
# ---------------------------------------------------------------------------

def test_parse_ket_accepts_flexible_layout():
    st = parse_ket(" +|01>\n  -|10>   # comment\n")
    assert st.words == ("01", "10")
    assert st.phases == ((1 + 0j), (-1 + 0j))
    assert st.levels == 2


def test_parse_ket_leading_sign_is_optional():
    st = parse_ket("|00> -|11>")
    assert st.phases == ((1 + 0j), (-1 + 0j))


def test_parse_ket_infers_levels_from_symbols():
    assert parse_ket("+|012>").levels == 3
    assert parse_ket("+|000>").levels == 2  # at least 2
    assert parse_ket("+|01>", levels=4).levels == 4


def test_parse_ket_phase_tags():
    st = parse_ket("+e^{i1.5707963267948966}|0> +|1>")
    assert st.phases[0] == pytest.approx(1j, abs=1e-12)
    st = parse_ket("-e^{i0.5}|0> +|1>")
    assert st.phases[0] == pytest.approx(-cmath.exp(0.5j), abs=1e-12)


def test_write_ket_uses_phase_tags_beyond_signs():
    st = PureState(1, 2, (("0", cmath.exp(0.25j)), ("1", -1.0)))
    text = write_ket(st)
    assert "e^{i" in text and "-|1>" in text
    again = parse_ket(text)
    assert np.allclose(again.phases, st.phases, atol=1e-12)


def test_parse_ket_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        parse_ket("+|01> +|1")
    assert exc.value.line == 1
    with pytest.raises(ParseError) as exc:
        parse_ket("+01>")
    assert exc.value.column == 2
    with pytest.raises(ParseError):
        parse_ket("+|>")
    with pytest.raises(ParseError):
        parse_ket("+e^{x}|0>")
    with pytest.raises(ParseError):
        parse_ket("+e^{i0.5|0>")
    with pytest.raises(ParseError):
        parse_ket("")
    with pytest.raises(ParseError):
        parse_ket("# only a comment\n")
    with pytest.raises(ParseError):
        parse_ket("+|01> +|100>")  # ragged words


def test_parse_ket_rejects_symbol_beyond_explicit_levels():
    from kuniform import ParameterViolation
    with pytest.raises(ParameterViolation):
        parse_ket("+|02>", levels=2)


# ---------------------------------------------------------------------------
# the catalog reader against the line-by-line reader it replaced
# ---------------------------------------------------------------------------

def line_by_line_catalog(text):
    """Every line of the text in turn: the catalog reader before the body
    was read in bulk."""
    comments = []
    header = None
    header_line = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code, _, comment = raw.partition("#")
        if comment and not code.strip():
            comments.append(comment.strip())
        line = code.strip()
        if not line:
            continue
        if header is None:
            fields = line.split()
            if fields[0] != "oa" or len(fields) not in (4, 5):
                raise ParseError(
                    "expected header 'oa <runs> <factors> <levels> [strength]'",
                    lineno)
            try:
                numbers = [int(f) for f in fields[1:]]
            except ValueError:
                raise ParseError("non-integer header field", lineno) from None
            header = numbers + [None] * (5 - len(fields))
            header_line = lineno
            continue
        if not _DIGIT_VALUE.keys() >= set(line):
            col, ch = next((col, ch) for col, ch in enumerate(line, start=1)
                           if ch not in _DIGIT_VALUE)
            raise ParseError(f"invalid symbol {ch!r}", lineno, col)
        rows.append(line)
    if header is None:
        raise ParseError("missing 'oa' header line", header_line or 1)
    if not rows:
        raise ParseError("no rows after the header", header_line)
    return CatalogDocument(tuple(comments), header[0], header[1], header[2],
                           header[3], tuple(rows))


def row_by_row_oa_file(text):
    """`parse_oa_file` before the rows were checked all at once."""
    doc = line_by_line_catalog(text)
    if len(doc.rows) != doc.runs:
        raise ParameterMismatch(
            f"header declares {doc.runs} runs, file has {len(doc.rows)}")
    for row in doc.rows:
        if len(row) != doc.factors:
            raise ParameterMismatch(
                f"header declares {doc.factors} factors, row {row!r} "
                f"has {len(row)}")
    raw = np.frombuffer("".join(doc.rows).encode("ascii"), dtype=np.uint8)
    cells = _BYTE_VALUE[raw].reshape(doc.runs, doc.factors)
    high = cells.max(axis=1) >= doc.levels
    if high.any():
        raise ParameterMismatch(
            f"row {doc.rows[int(high.argmax())]!r} uses symbols >= declared "
            f"levels {doc.levels}")
    if doc.strength is None:
        return OrthogonalArray(cells, doc.levels)
    mismatch = ParameterMismatch(
        f"rows do not have the declared strength {doc.strength}")
    if not 0 <= doc.strength <= doc.factors:
        raise mismatch
    try:
        return OrthogonalArray(cells, doc.levels, doc.strength)
    except NotAnOAAtStrength:
        raise mismatch from None


def outcome(read, text):
    """What read(text) gives: the document or array, or the exception's
    class, message, line and column."""
    try:
        result = read(text)
    except KuniformError as exc:
        return (type(exc), str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    if isinstance(result, OrthogonalArray):
        return (result.grid.dtype, result.grid.tolist(), result.levels,
                result.strength)
    return result


#: Row sets the generated files start from: (rows, levels, strength).
CATALOG_BASES = [
    (("000", "011", "101", "110"), 2, 2),
    (tuple(write_oa_file(bush_oa(3, 2)).split()[5:]), 3, 2),
    (tuple(write_oa_file(rao_oa(2, 3)).split()[5:]), 2, 2),
    (tuple("0123456789ab"), 12, 1),
    (("01", "10", "11"), 2, None),
]
#: What may end a line instead of "\n" (a space joins two lines).
SEPARATORS = ["\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028", " "]
#: What may replace a symbol or follow a row: comments, spaces, uppercase,
#: non-ASCII letters, digits and spaces, symbols out of range, good ones.
ODD_TEXT = ["#", " # note", "  ", "\t", "A", "Z", "\xe9", "\u0663",
            "\xa0", "$", "2", "z", "0"]


@st.composite
def catalog_texts(draw):
    """Catalog text near a valid file: comments before and after the
    header, blank and whitespace lines, trailing comments, other line
    breaks, uppercase and non-ASCII symbols, ragged rows, wrong counts,
    a missing header or rows, with or without a final newline.  About half
    the draws change nothing, so the bulk read is taken too."""
    rows, d, k = draw(st.sampled_from(CATALOG_BASES))
    fields = [len(rows), len(rows[0]), d] + ([] if k is None else [k])
    lines = [f"# {draw(st.text('abc #', max_size=6))}"
             for _ in range(draw(st.integers(0, 2)))]
    lines += ["", "   "][:draw(st.integers(0, 2))]
    if draw(st.integers(0, 9)):
        if not draw(st.integers(0, 5)):
            i = draw(st.integers(0, len(fields) - 1))
            fields[i] += draw(st.sampled_from([-1, 1]))
        header = "oa " + " ".join(map(str, fields))
        if not draw(st.integers(0, 7)):
            header = draw(st.sampled_from(
                ["oa 4 3", "oa 4 3 2 2 1 0", "ob 4 3 2", "oa x 3 2", "oa"]))
        lines.append(header + draw(st.sampled_from(["", "", "  # h", " "])))
    body = list(rows) if draw(st.integers(0, 15)) else []
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(body)))
            change = draw(st.sampled_from(
                ["insert", "drop", "ragged", "symbol", "append"]))
            if change == "insert":
                body.insert(i, draw(st.sampled_from(["", " ", "# c", "\t"])))
            elif body and change == "drop":
                del body[min(i, len(body) - 1)]
            elif body:
                j = min(i, len(body) - 1)
                row = body[j]
                if change == "ragged":
                    body[j] = row[:-1] if len(row) > 1 else row + row
                elif change == "symbol":
                    c = draw(st.integers(0, max(len(row) - 1, 0)))
                    body[j] = row[:c] + draw(st.sampled_from(ODD_TEXT)) \
                        + row[c + 1:]
                else:
                    body[j] = row + draw(st.sampled_from(ODD_TEXT))
    lines += body
    breaks = [draw(st.sampled_from(SEPARATORS)) if not draw(st.integers(0, 4))
              else "\n" for _ in lines] if draw(st.booleans()) else \
        ["\n"] * len(lines)
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text if draw(st.integers(0, 5)) else text.rstrip("\n")


@settings(max_examples=600, deadline=None)
@given(catalog_texts())
def test_catalog_reading_matches_the_line_by_line_reader(text):
    assert outcome(parse_catalog, text) == \
        outcome(line_by_line_catalog, text)
    assert outcome(parse_oa_file, text) == outcome(row_by_row_oa_file, text)


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from("oa 0123z#\n\r\t\v é"), max_size=40))
def test_any_text_reads_as_the_line_by_line_reader_reads_it(text):
    assert outcome(parse_catalog, text) == \
        outcome(line_by_line_catalog, text)
    assert outcome(parse_oa_file, text) == outcome(row_by_row_oa_file, text)


def lines_read_one_by_one(monkeypatch, text):
    """The text `parse_oa_file` hands to the line-by-line reader."""
    seen = []
    read = serialize._parse_lines

    def spy(part, rows):
        seen.append(part)
        return read(part, rows)
    monkeypatch.setattr(serialize, "_parse_lines", spy)
    parse_oa_file(text)
    monkeypatch.undo()
    (part,) = seen
    return part


def test_a_plain_body_is_read_in_one_pass(monkeypatch, fixtures_dir):
    text = write_oa_file(bush_oa(9, 3))
    assert lines_read_one_by_one(monkeypatch, text) == "oa 729 10 9 3\n"
    for path in sorted(fixtures_dir.glob("*.oa")):
        text = path.read_text()
        header = text[:re.search(r"^oa .*\n", text, re.M).end()]
        assert lines_read_one_by_one(monkeypatch, text) == header
        # one comment in the body sends the whole text line by line
        assert lines_read_one_by_one(monkeypatch, text + "# note\n") == \
            text + "# note\n"
        commented = text.replace("\n", "  # note\n", 3)
        assert lines_read_one_by_one(monkeypatch, commented) == commented


def test_a_wide_file_reads_no_slower_than_row_by_row():
    text = write_oa_file(rao_oa(2, 10))
    assert parse_oa_file(text) == row_by_row_oa_file(text)
    bulk, rows = [], []
    for _ in range(3):
        for read, times in ((parse_oa_file, bulk),
                            (row_by_row_oa_file, rows)):
            start = time.perf_counter()
            read(text)
            times.append(time.perf_counter() - start)
    assert min(bulk) <= min(rows)
