"""Composition realized on cell sets as a relational join, an independent
oracle for the table-level composition in :mod:`latinop.operad`, and the
coordinate-fixing restriction, a slot move by the paratopism kernel.
"""
from __future__ import annotations

from .core import CellSet, ValidationError, _check_composable, _slot_move, _trusted, function_of


def projection_tau(t: tuple, s: int) -> tuple:
    """Discard coordinate s (1-based) of a tuple."""
    if not 1 <= s <= len(t):
        raise ValidationError(f"slot {s} out of range 1..{len(t)}")
    return t[: s - 1] + t[s:]


def pullback_compose(L: CellSet, M: CellSet, i: int) -> CellSet:
    """Join L and M on the substituted coordinate.

    A (d+e)-tuple belongs to the result iff there is a z with
    (x_1..x_{i-1}, z, x_{e+i}..x_{d+e}) in L and (x_i..x_{e+i-1}, z) in M;
    z is unique per result cell (asserted).  Equals the graph of the
    table-level composition at slot i.
    """
    _check_composable(L, M, i)
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
    """Fix coordinate s to the value c and delete that slot.

    Only defined for d >= 2: the result is a hypercube of dimension d-1.
    """
    if L.d < 2:
        raise ValidationError("restriction needs dimension >= 2")
    if not 1 <= s <= L.d + 1:
        raise ValidationError(f"slot {s} out of range 1..{L.d + 1}")
    if not 0 <= c < L.n:
        raise ValidationError(f"symbol {c} out of range [0, {L.n})")
    # with slot s moved to slot 1, the slice is the image's c-th layer
    image = _slot_move(function_of(L), (*range(2, s + 1), 1, *range(s + 1, L.d + 2))).table
    size = L.n ** (L.d - 1)
    return _trusted(CellSet, n=L.n, d=L.d - 1, table=image[c * size:(c + 1) * size])
