"""The regex ket tokenizer against the character-at-a-time scanner: the same
terms, or the same error message at the same line and column."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kuniform import ParseError
from kuniform.serialize import _ket_terms

from oracles import KetSyntaxError, scan_ket

SPACE = st.sampled_from([" ", "  ", "\n", "\t", "\r\n", " ", " ",
                         " # note\n", "#\n"])
ANGLE = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                  st.sampled_from(["0", "1.5", "-2", " 3 ", "1_0", "nan",
                                   "", "x", "1e", "}"]))


@st.composite
def ket_texts(draw):
    """Ket text of a few terms, sometimes with characters inserted,
    deleted or replaced."""
    width = draw(st.integers(0, 4))
    word = st.text("0123456789abcxyz", min_size=width, max_size=width)
    parts = [draw(st.sampled_from(["", " ", "\n"]))]
    for _ in range(draw(st.integers(0, 5))):
        parts.append(draw(st.sampled_from(["", "+", "-", "+ ", "-\n"])))
        if draw(st.booleans()):
            parts.append("e^{i" + draw(ANGLE) + "}")
        parts.append("|" + draw(word) + ">")
        parts.append(draw(SPACE))
    text = "".join(parts)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        junk = draw(st.text("+-e^{i}|>#0a Z\n\t.", max_size=2))
        cut = draw(st.integers(0, 2))
        text = text[:at] + junk + text[at + cut:]
    return text


def outcome(read, error_type, text):
    try:
        return "terms", repr(read(text))
    except error_type as exc:
        return "syntax", exc.line, exc.column, str(exc)
    except Exception as exc:  # the same non-syntax failure, if any
        return "raised", type(exc), str(exc)


def oracle_outcome(text):
    result = outcome(scan_ket, KetSyntaxError, text)
    if result[0] == "syntax":
        _, line, column, message = result
        return "syntax", line, column, f"{message} (line {line}, column {column})"
    return result


@settings(max_examples=600, deadline=None)
@given(st.one_of(ket_texts(), st.text("+-e^{i}|>#01a \n\t x", max_size=30)))
@example("")
@example("+e^{i1.0|01>")
@example("+e^{inf}|01>")
@example("-  e^{i-0.5}|z>\n\n  x")
def test_tokenizer_matches_the_scanner(text):
    assert outcome(_ket_terms, ParseError, text) == oracle_outcome(text)
