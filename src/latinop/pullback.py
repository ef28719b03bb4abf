"""Composition realized on cell sets as a relational join, an independent
oracle for the table-level composition in :mod:`latinop.operad`, and the
coordinate-fixing restriction, the substitution of a constant.
"""
from __future__ import annotations

from .core import (
    CellSet,
    ValidationError,
    _cells,
    _check_composable,
    _check_slot,
    _int_in,
    _latin,
    _trusted,
)
from .operad import _compose_table


def projection_tau(t: tuple, s: int) -> tuple:
    """Discard coordinate s (1-based) of a tuple."""
    _check_slot(s, len(t))
    return t[: s - 1] + t[s:]


def pullback_compose(L: CellSet, M: CellSet, i: int) -> CellSet:
    """Join L and M, hypercubes or Latin RawOps, on the substituted coordinate.

    A (d+e)-tuple belongs to the result iff there is a z with
    (x_1..x_{i-1}, z, x_{e+i}..x_{d+e}) in L and (x_i..x_{e+i-1}, z) in M;
    z is unique per result cell (asserted).  Equals the graph of the
    table-level composition at slot i.
    """
    _check_composable(L, M, i)
    L, M = _cells(L), _cells(M)
    # bucket M by its output (last-slot) value
    buckets = [[] for _ in range(M.n)]
    for m in M.cells:
        buckets[m[-1]].append(m)
    joined = {}
    for u in L.cells:
        z = u[i - 1]
        for m in buckets[z]:
            cell = u[: i - 1] + m[:-1] + u[i:]
            prev = joined.setdefault(cell, z)
            if prev != z:
                raise AssertionError(
                    f"join produced two distinct z for cell {cell}: {prev}, {z}"
                )
    return CellSet(L.n, L.d + M.d - 1, frozenset(joined))


def restrict(L: CellSet, s: int, c: int) -> CellSet:
    """Fix coordinate s of L, or of a Latin RawOp, to the value c and delete that slot.

    Only defined for d >= 2: the result is a hypercube of dimension d-1.
    It substitutes the constant c, a one-entry table of arity 0, into slot s.
    """
    if L.d < 2:
        raise ValidationError("restriction needs dimension >= 2")
    _check_slot(s, L.d + 1)
    if not _int_in(c, 0, L.n):
        raise ValidationError(f"symbol {c} out of range [0, {L.n})")
    L = _latin(L)
    if s == L.d + 1:  # per row of n entries, the last argument where the output is c
        table = tuple(L.table.index(c, k, k + L.n) - k for k in range(0, len(L.table), L.n))
    else:
        table = _compose_table(L.n, L.d, L.table, 0, (c,), s)
    return _trusted(CellSet, L.n, L.d - 1, table)
