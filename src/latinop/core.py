"""Core representations of Latin hypercubes over the carrier {0..n-1}.

Two equivalent views are supported: a d-ary operation given by a dense
table (``LatinOp``), and an explicit cell subset of the (d+1)-fold
product (``CellSet``).  ``graph_of`` / ``function_of`` convert between
them.  All types are immutable after construction.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

DEFAULT_CELL_CEILING = 10 ** 7


class ValidationError(ValueError):
    """Malformed or invariant-violating input data."""


class CeilingError(RuntimeError):
    """A configurable resource ceiling would be exceeded."""


def check_order(n: int) -> None:
    if n < 1:
        raise ValidationError(f"carrier order must be >= 1, got {n}")


def cell_ceiling() -> int:
    value = os.environ.get("LATINOP_CELL_CEILING")
    if not value:
        return DEFAULT_CELL_CEILING
    if not value.strip().isdecimal() or int(value) < 1:
        raise ValidationError(
            f"LATINOP_CELL_CEILING must be a positive integer, got {value!r}"
        )
    return int(value)


def _check_cells(n: int, d: int, ceiling: int | None = None) -> int:
    """n ** d, the cell count of an order-n, arity-d table, after
    checking it against the ceiling (LATINOP_CELL_CEILING by default)."""
    check_order(n)
    if d < 1:
        raise ValidationError(f"arity must be >= 1, got {d}")
    if ceiling is None:
        ceiling = cell_ceiling()
    # n^d >= 2^(d * (bit_length(n) - 1)): a huge claim is refused before
    # n^d is formed, so no power much beyond the ceiling squared is built
    if d * (n.bit_length() - 1) > ceiling.bit_length() or n ** d > ceiling:
        raise CeilingError(
            f"n^d = {n}^{d} table cells exceeds the ceiling of {ceiling}"
        )
    return n ** d


def encode(args, n: int) -> int:
    """Row-major table index of an argument tuple (last argument fastest)."""
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def decode(idx: int, n: int, d: int) -> tuple[int, ...]:
    """Inverse of :func:`encode`."""
    out = [0] * d
    for s in range(d - 1, -1, -1):
        idx, out[s] = divmod(idx, n)
    return tuple(out)


@dataclass(frozen=True)
class RawOp:
    """A d-ary operation on {0..n-1} as a dense table, Latin or not.

    The table is row-major with the last argument varying fastest.
    """

    n: int
    d: int
    table: tuple[int, ...]

    def __post_init__(self):
        check_order(self.n)
        if self.d < 1:
            raise ValidationError(f"arity must be >= 1, got {self.d}")
        object.__setattr__(self, "table", tuple(self.table))
        expected = self.n ** self.d
        if len(self.table) != expected:
            raise ValidationError(
                f"table length {len(self.table)} != n^d = {expected}"
            )
        n = self.n
        for i, v in enumerate(self.table):
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValidationError(
                    f"table entry at index {i} out of range [0, {n}): {v!r}"
                )

    def __call__(self, *args: int) -> int:
        if len(args) != self.d:
            raise ValidationError(f"expected {self.d} arguments, got {len(args)}")
        return self.table[encode(args, self.n)]

    def arg_tuples(self):
        """All argument tuples in table (row-major) order."""
        return itertools.product(range(self.n), repeat=self.d)


def is_latin(f: RawOp) -> bool:
    """True iff f is bijective in each argument slot separately."""
    n, d, t = f.n, f.d, f.table
    for s in range(d):
        stride = n ** (d - 1 - s)
        block = stride * n
        for outer in range(0, len(t), block):
            for inner in range(stride):
                base = outer + inner
                seen = 0
                for k in range(n):
                    bit = 1 << t[base + k * stride]
                    if seen & bit:
                        return False
                    seen |= bit
    return True


@dataclass(frozen=True)
class LatinOp(RawOp):
    """A d-ary quasigroup operation: a RawOp satisfying the Latin property."""

    def __post_init__(self):
        super().__post_init__()
        if not is_latin(self):
            raise ValidationError(
                f"table is not Latin (order {self.n}, arity {self.d})"
            )


@dataclass(frozen=True)
class CellSet:
    """A Latin hypercube as an explicit subset of X^(d+1).

    Invariants: exactly n^d cells, and discarding any one coordinate
    slot is a bijection onto X^d.
    """

    n: int
    d: int
    cells: frozenset

    def __post_init__(self):
        check_order(self.n)
        if self.d < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.d}")
        object.__setattr__(self, "cells", frozenset(map(tuple, self.cells)))
        n, d = self.n, self.d
        for cell in self.cells:
            if len(cell) != d + 1:
                raise ValidationError(
                    f"cell {cell} has length {len(cell)}, expected {d + 1}"
                )
            for v in cell:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise ValidationError(f"cell {cell} entry out of range [0, {n})")
        if len(self.cells) != n ** d:
            raise ValidationError(
                f"cell count {len(self.cells)} != n^d = {n ** d}"
            )
        for s in range(1, d + 2):
            seen = set()
            for cell in self.cells:
                proj = cell[: s - 1] + cell[s:]
                if proj in seen:
                    raise ValidationError(
                        f"slot {s} projection is not bijective onto X^{d}"
                    )
                seen.add(proj)

    def sorted_cells(self) -> tuple:
        return tuple(sorted(self.cells))


def is_latin_cellset(cells, n: int, d: int) -> bool:
    """True iff ``cells`` forms a valid Latin hypercube cell set.

    Raises ValidationError on structurally malformed input (ragged
    tuples, out-of-range entries); returns False when the cardinality
    or a slot projection fails.
    """
    check_order(n)
    cells = [tuple(c) for c in cells]
    for cell in cells:
        if len(cell) != d + 1:
            raise ValidationError(
                f"cell {cell} has length {len(cell)}, expected {d + 1}"
            )
        for v in cell:
            if not isinstance(v, int) or not 0 <= v < n:
                raise ValidationError(f"cell {cell} entry out of range [0, {n})")
    if len(set(cells)) != n ** d:
        return False
    for s in range(d + 1):
        seen = set()
        for cell in cells:
            proj = cell[:s] + cell[s + 1:]
            if proj in seen:
                return False
            seen.add(proj)
    return True


def _trusted_cellset(n: int, d: int, cells: frozenset) -> CellSet:
    """CellSet constructor bypassing validation, for cells whose
    invariants hold by construction (e.g. graphs of verified LatinOps)."""
    obj = object.__new__(CellSet)
    object.__setattr__(obj, "n", n)
    object.__setattr__(obj, "d", d)
    object.__setattr__(obj, "cells", cells)
    return obj


def _trusted_latin(n: int, d: int, table: tuple) -> LatinOp:
    """LatinOp constructor bypassing validation, for tables produced by
    the enumeration search (Latin by construction)."""
    obj = object.__new__(LatinOp)
    object.__setattr__(obj, "n", n)
    object.__setattr__(obj, "d", d)
    object.__setattr__(obj, "table", table)
    return obj


def graph_of(f: LatinOp) -> CellSet:
    """The cell set {(x_1..x_d, f(x_1..x_d))}."""
    if not isinstance(f, LatinOp):
        raise ValidationError("graph_of expects a verified LatinOp")
    cells = frozenset(
        args + (v,) for args, v in zip(f.arg_tuples(), f.table)
    )
    # the Latin property of f is exactly the cell-set invariant
    return _trusted_cellset(f.n, f.d, cells)


def function_of(L: CellSet) -> LatinOp:
    """The unique LatinOp whose graph is L (inverse of graph_of)."""
    n, d = L.n, L.d
    table = [0] * (n ** d)
    for cell in L.cells:
        table[encode(cell[:-1], n)] = cell[-1]
    return LatinOp(n, d, tuple(table))


def conjugate(f: LatinOp, s: int) -> LatinOp:
    """Re-designate slot s of the graph as the output slot.

    The cells of graph_of(f) are reread with slot s moved to the output
    position and the remaining slots kept in increasing order;
    conjugate(f, d+1) is f itself.  For d=1 and s=1 this is the inverse
    permutation.
    """
    n, d = f.n, f.d
    if not 1 <= s <= d + 1:
        raise ValidationError(f"slot {s} out of range 1..{d + 1}")
    if s == d + 1:
        return f
    table = [0] * (n ** d)
    for args, v in zip(f.arg_tuples(), f.table):
        cell = args + (v,)
        rest = cell[: s - 1] + cell[s:]
        table[encode(rest, n)] = cell[s - 1]
    return LatinOp(n, d, tuple(table))
