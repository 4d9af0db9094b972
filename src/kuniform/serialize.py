"""Text formats: array catalog files and ket notation.

Catalog format (one array per file)::

    # optional comment lines
    oa <runs> <factors> <levels> [strength]
    <row as base-36 digits>
    ...

Declared parameters are always re-verified against the rows; a declared
strength that the rows do not support raises ParameterMismatch.

Ket format: terms of the form ``+|0110>``, ``-|0110>`` or
``+e^{i1.5707963267948966}|0110>`` separated by whitespace; ``#`` starts a
comment that runs to the end of the line.  Symbols are base-36 digits, so
level counts up to 36 round-trip.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import NotAnOAAtStrength, ParameterMismatch, ParseError, Unsupported
from .oa import OrthogonalArray, _effective_strength
from .states import (DIGITS36, PureState, _BYTE_VALUE, _DIGIT_BYTES,
                     _DIGIT_VALUE, _from_grid, _text_words)

_SIGN_TOL = 1e-12
#: `bytes.translate` table: the symbol value of each base-36 digit byte,
#: 255 for every other byte.
_SYMBOL_VALUE = _BYTE_VALUE.clip(max=255).astype(np.uint8).tobytes()


@dataclass(frozen=True)
class CatalogDocument:
    """Raw pieces of a catalog file before array-level validation."""

    comments: Tuple[str, ...]
    runs: int
    factors: int
    levels: int
    strength: Optional[int]
    rows: Tuple[str, ...]


def parse_catalog(text: str) -> CatalogDocument:
    """The pieces of a catalog file; ParseError, with the line (and the
    column of a bad symbol), for malformed text.

    Where every line up to the header ends in a newline and the body after
    it holds only base-36 digits and newlines, as `write_oa_file` writes
    it, the body is read in one pass (its rows are `body.split()`) and only
    the lines up to the header go through `_parse_lines`.  Any other byte
    in the body (``#``, a carriage return or other space, a non-digit or
    non-ASCII character) sends the whole text through `_parse_lines`, the
    one code that collects comments and places errors."""
    start = _body_start(text)
    if start is not None:
        body = text[start:]
        if body.isascii() and 255 not in body.encode("ascii").translate(
                _SYMBOL_VALUE, b"\n"):
            return _parse_lines(text[:start], body.split())
    return _parse_lines(text, [])


def _body_start(text: str) -> Optional[int]:
    """The offset just past the header line (the first line with text
    outside a comment), when every line up to it ends in one newline
    (a carriage return before it included) and no other line break;
    None otherwise."""
    start = 0
    while end := text.find("\n", start) + 1:
        if text[start:end].partition("#")[0].strip():
            head = text[:end]
            # each newline ends one line of `str.splitlines` iff the counts
            # agree
            return end if len(head.splitlines()) == head.count("\n") else None
        start = end
    return None


def _parse_lines(text: str, rows: List[str]) -> CatalogDocument:
    """Read catalog text line by line; `rows` holds any rows read in bulk
    after it."""
    comments = []
    header = None
    header_line = None
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


def parse_oa_file(text: str) -> OrthogonalArray:
    """Parse and fully re-verify a catalog file.

    Malformed text raises ParseError; well-formed text whose declared
    (runs, factors, levels, strength) disagree with the rows raises
    ParameterMismatch.  Row lengths and symbols are checked on all rows at
    once.
    """
    doc = parse_catalog(text)
    if len(doc.rows) != doc.runs:
        raise ParameterMismatch(
            f"header declares {doc.runs} runs, file has {len(doc.rows)}")
    if set(map(len, doc.rows)) != {doc.factors}:
        row = next(row for row in doc.rows if len(row) != doc.factors)
        raise ParameterMismatch(
            f"header declares {doc.factors} factors, row {row!r} "
            f"has {len(row)}")
    values = "".join(doc.rows).encode("ascii").translate(_SYMBOL_VALUE)
    cells = np.frombuffer(values, dtype=np.uint8).reshape(doc.runs,
                                                          doc.factors)
    if cells.max() >= doc.levels:
        high = int((cells.max(axis=1) >= doc.levels).argmax())
        raise ParameterMismatch(
            f"row {doc.rows[high]!r} uses symbols >= declared "
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


def write_oa_file(array: OrthogonalArray) -> str:
    """Catalog text; the header strength is the declared one when present,
    otherwise the computed maximum."""
    if array.levels > len(DIGITS36):
        raise Unsupported(
            f"catalog files encode at most {len(DIGITS36)} levels")
    k = _effective_strength(array)
    lines = np.full((array.runs, array.factors + 1), ord("\n"), dtype=np.uint8)
    lines[:, :-1] = _DIGIT_BYTES[array.grid]
    return (f"oa {array.runs} {array.factors} {array.levels} {k}\n"
            + lines.tobytes().decode("ascii"))


# ---------------------------------------------------------------------------
# ket notation
# ---------------------------------------------------------------------------

def _strip_comments(text: str) -> str:
    out = []
    for line in text.splitlines():
        out.append(line.partition("#")[0])
    return "\n".join(out)


#: One ket term at the current position, every part optional so that a
#: malformed term still matches and its first missing part has a position:
#: sign and the space after it, phase tag (or a lone "e" opening a
#: malformed one), angle, "|", word, ">", and the space before the next
#: term.
_KET_TERM = re.compile(r"([+-]\s*)?(e\^\{i([^}]*)\}|e)?(\|?)([0-9a-z]*)(>?)\s*")


def _ket_terms(text: str) -> List[Tuple[str, complex]]:
    """The (word, phase) terms of ket text in text order; ParseError, with
    the line and column of the first fault, for malformed text."""
    source = _strip_comments(text)
    terms = []

    def fail(message: str, p: int):
        line = source.count("\n", 0, p) + 1
        col = p - (source.rfind("\n", 0, p) + 1) + 1
        raise ParseError(message, line, col)

    pos = len(source) - len(source.lstrip())
    while pos < len(source):
        term = _KET_TERM.match(source, pos)
        sign, tag, angle_text, bar, word, close = term.groups()
        sign = -1.0 if sign and sign[0] == "-" else 1.0
        phase = complex(sign)
        if tag == "e":
            fail("malformed phase tag; expected e^{i<angle>}", term.start(2))
        if angle_text is not None:
            try:
                angle = float(angle_text)
            except ValueError:
                fail(f"bad angle {angle_text!r}", term.start(3))
            phase = sign * cmath.exp(1j * angle)
        if not bar:
            fail("expected '|' opening a ket", term.start(4))
        if not word:
            fail("empty ket word", term.start(5))
        if not close:
            fail("expected '>' closing the ket", term.start(6))
        terms.append((word, phase))
        pos = term.end()
    return terms


def parse_ket(text: str, levels: Optional[int] = None) -> PureState:
    """Parse ket text into a state.

    The level count is inferred as (largest symbol + 1, at least 2) unless
    given explicitly.
    """
    terms = _ket_terms(text)
    if not terms:
        raise ParseError("no ket terms found", 1, 1)
    words, phases = zip(*terms)
    n = len(words[0])
    if set(map(len, words)) != {n}:
        word = next(w for w in words if len(w) != n)
        raise ParseError(f"word {word!r} has length {len(word)}, "
                         f"expected {n}")
    raw = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    grid = _BYTE_VALUE[raw].reshape(-1, n)
    d = levels if levels is not None else max(2, int(grid.max()) + 1)
    return _from_grid(grid, d, phases)


def write_ket(state: PureState) -> str:
    """One line of space-separated terms in canonical order; real +/-1
    phases use sign form, anything else an explicit e^{i<angle>} tag.
    Words are base-36, so states of more than 36 levels raise Unsupported."""
    parts = []
    words = _text_words(state.grid, state.levels)
    for word, phase in zip(words, state.phase_vector.tolist()):
        if abs(phase - 1.0) <= _SIGN_TOL:
            parts.append(f"+|{word}>")
        elif abs(phase + 1.0) <= _SIGN_TOL:
            parts.append(f"-|{word}>")
        else:
            angle = cmath.phase(phase)
            parts.append(f"+e^{{i{angle!r}}}|{word}>")
    return " ".join(parts) + "\n"
