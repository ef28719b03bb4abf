"""Text formats: .lhc operation tables, .lhcs streams, and .tsv
transversal files.

.lhc: a header line "n d" followed by n^d whitespace-separated base-10
symbols, row-major with the last argument varying fastest.  Newlines
beyond the header are cosmetic.  .lhcs concatenates .lhc records
separated by a blank line.  .tsv holds n lines, each a (d+1)-tuple.
"""
from __future__ import annotations

import itertools
import operator
import re

from .core import RawOp, ValidationError, _check_cells, _trusted

_TOKEN = re.compile(r"\S+")
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


class FormatError(ValidationError):
    """Malformed input text, with a line/column position."""


def _tokens(text: str):
    for lineno, line in enumerate(text.splitlines(), 1):
        for m in _TOKEN.finditer(line):
            yield m.group(), lineno, m.start() + 1


def _int_token(tok):
    text, line, col = tok
    try:
        return int(text)
    except ValueError:
        raise FormatError(
            f"line {line}, column {col}: expected an integer, got {text!r}"
        ) from None


def _symbol(tok, n):
    """The value of an integer token, which must lie in [0, n)."""
    v = _int_token(tok)
    if not 0 <= v < n:
        _, line, col = tok
        raise FormatError(f"line {line}, column {col}: symbol {v} out of range [0, {n})")
    return v


def parse_lhc(text: str) -> RawOp:
    """Parse one .lhc record into a RawOp (Latin property not required)."""
    return _record(_tokens(text))


def _record(toks) -> RawOp:
    """The RawOp of one .lhc record, from an iterator of its positioned tokens."""
    header = list(itertools.islice(toks, 2))
    if len(header) < 2:
        line, col = header[0][1:] if header else (1, 1)
        raise FormatError(f"line {line}, column {col}: missing 'n d' header")
    n = _int_token(header[0])
    d = _int_token(header[1])
    if n < 1 or d < 1:
        line, col = header[0][1], header[0][2]
        raise FormatError(f"line {line}, column {col}: n and d must be >= 1")
    expected = _check_cells(n, d)  # before the body is read
    body = list(toks)
    if len(body) != expected:
        if len(body) < expected:
            raise FormatError(
                f"unexpected end of input: got {len(body)} symbols, expected {expected}"
            )
        text_, line, col = body[expected]
        raise FormatError(
            f"line {line}, column {col}: trailing token {text_!r} "
            f"(expected exactly {expected} symbols)"
        )
    # every RawOp invariant is checked above, with a position
    table = tuple([_symbol(tok, n) for tok in body])
    return _trusted(RawOp, n, d, table)


def _lines(values: tuple, n: int, width: int) -> str:
    """Symbols in [0, n) as lines of `width` space-separated entries: up to
    order 10, one-digit symbols as bytes, each line closed by a newline in
    place of its last space; above it, one row template per call."""
    if n <= 10:
        body = bytearray(b" ") * (2 * len(values))
        body[::2] = bytes(values).translate(_DIGITS)
        body[2 * width - 1::2 * width] = b"\n" * (len(values) // width)
        return body.decode()
    row = " ".join(["%s"] * width) + "\n"
    return row * (len(values) // width) % values


def emit_lhc(op: RawOp) -> str:
    """Serialize an operation or a hypercube; one line of n symbols per innermost row."""
    return f"{op.n} {op.d}\n" + _lines(op.table, op.n, op.n)


def parse_lhcs(text: str) -> list:
    """Parse a .lhcs stream: .lhc records, each ended by a line with no token."""
    records, last = [], -1
    for tok in _tokens(text):
        if tok[1] > last + 1:  # a line with no token lies between
            records.append([])
        records[-1].append(tok)
        last = tok[1]
    return [_record(iter(r)) for r in records]


def _separated(records):
    """The record texts, each after the first led by a blank line: the
    layout of an .lhcs stream and of a list of transversals."""
    for k, record in enumerate(records):
        yield "\n" + record if k else record


def emit_lhcs(ops) -> str:
    return "".join(_separated(map(emit_lhc, ops)))


def parse_tsv(text: str, n: int, d: int) -> Transversal:
    """Parse a transversal file: n lines, each a (d+1)-tuple."""
    from .transversal import Transversal
    cells = []
    for lineno, toks in itertools.groupby(_tokens(text), operator.itemgetter(1)):
        toks = list(toks)
        if len(toks) != d + 1:
            raise FormatError(
                f"line {lineno}: expected {d + 1} entries, got {len(toks)}"
            )
        cells.append(tuple([_symbol(tok, n) for tok in toks]))
    return Transversal(n, d, tuple(cells))


def emit_tsv(t: Transversal) -> str:
    """One line of d + 1 symbols per cell."""
    return _lines(tuple(itertools.chain.from_iterable(t.cells)), t.n, t.d + 1)
