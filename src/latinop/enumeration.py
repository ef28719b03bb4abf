"""Exhaustive and randomized generation of Latin operations, the
paratopism action on cell sets, min-lex canonical forms, and the orbit
census at desk scale.
"""
from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

from .core import (
    CeilingError,
    CellSet,
    LatinOp,
    ValidationError,
    _check_cells,
    _trusted,
    encode,
    graph_of,
)

DEFAULT_GROUP_CEILING = 100_000


@functools.cache
def _line_geometry(n: int, d: int) -> tuple:
    """Per cell, in table order, the indices of its d lines in one flat
    list of d * n^(d-1) line masks: the slot-s line through a cell is
    entry s * n^(d-1) + (row-major index of its other d-1 coordinates)."""
    width = n ** (d - 1)
    return tuple(
        tuple(s * width + encode(cell[:s] + cell[s + 1:], n) for s in range(d))
        for cell in itertools.product(range(n), repeat=d)
    )


def _search(n: int, d: int, value_order=None):
    """Yield every Latin table of order n and arity d: in lexicographic
    order, or trying the values of each cell m in the order
    value_order(m) gives, which is called once per entry into the cell.

    Depth-first over the cells in table order on an explicit stack, with
    one bitmask of used values per line.  Only the first n^d - n^(d-1)
    cells are searched.  Each of the first n-1 slot-1 layers is then
    Latin along every other slot, so the values missing from the slot-1
    lines form a Latin last layer, filled in without search.  The same
    list is yielded every time, refilled in place.
    """
    line_of = _line_geometry(n, d)
    width = n ** (d - 1)
    free = len(line_of) - width
    table = [0] * len(line_of)
    if not free:  # n == 1: the one table is all zeros
        yield table
        return
    full = (1 << n) - 1
    masks = [0] * (d * width)
    rest = [None] * free  # per searched cell below m: candidates not tried
    m = 0  # avail holds the untried candidates of cell m
    avail = full if value_order is None else value_order(0)[::-1]
    while True:
        if avail:
            if value_order is None:
                bit = avail & -avail
                avail ^= bit
                table[m] = bit.bit_length() - 1
            else:
                table[m] = avail.pop()
                bit = 1 << table[m]
            lines = line_of[m]
            for i in lines:
                masks[i] |= bit
            if m + 1 < free:
                rest[m] = avail
                m += 1
                used = 0
                for i in line_of[m]:
                    used |= masks[i]
                avail = full ^ used
                if value_order is not None:
                    avail = [v for v in value_order(m)[::-1] if avail >> v & 1]
                continue
            table[free:] = [(full ^ used).bit_length() - 1 for used in masks[:width]]
            yield table
        else:
            m -= 1
            if m < 0:
                return
            avail = rest[m]
            lines = line_of[m]
            bit = 1 << table[m]
        for i in lines:
            masks[i] ^= bit


def enumerate_all(n: int, d: int, ceiling: int | None = None):
    """Yield every Latin d-ary operation of order n exactly once, in
    lexicographic table order."""
    _check_cells(n, d, ceiling)
    for table in _search(n, d):
        yield _trusted(LatinOp, n=n, d=d, table=tuple(table))


def count_all(n: int, d: int, ceiling: int | None = None) -> int:
    """Number of Latin d-ary operations of order n."""
    _check_cells(n, d, ceiling)
    return sum(1 for _ in _search(n, d))


def random_latin(n: int, d: int, seed: int = 0, ceiling: int | None = None) -> LatinOp:
    """First completion of a randomized backtracking fill.

    Deterministic given the seed; not uniform over all Latin operations.
    """
    _check_cells(n, d, ceiling)
    rng = random.Random(seed)

    def value_order(_m):
        order = list(range(n))
        rng.shuffle(order)
        return order

    return LatinOp(n, d, next(_search(n, d, value_order)))


@dataclass(frozen=True)
class Paratopism:
    """An element of Sym(X)^(d+1) x| Sym_{d+1} acting on cells.

    slot_perm is 1-based one-line notation on slots; symbol_perms[s] is
    the value bijection applied in source slot s+1.  A cell maps by
    sending its slot-s entry x to position slot_perm(s) with value
    symbol_perms[s-1][x].
    """

    slot_perm: tuple
    symbol_perms: tuple

    def __post_init__(self):
        object.__setattr__(self, "slot_perm", tuple(self.slot_perm))
        object.__setattr__(
            self, "symbol_perms", tuple(tuple(p) for p in self.symbol_perms)
        )
        k = len(self.slot_perm)
        if sorted(self.slot_perm) != list(range(1, k + 1)):
            raise ValidationError(f"{self.slot_perm} is not a permutation of 1..{k}")
        if len(self.symbol_perms) != k:
            raise ValidationError(
                f"expected {k} symbol permutations, got {len(self.symbol_perms)}"
            )
        for p in self.symbol_perms:
            if sorted(p) != list(range(len(p))):
                raise ValidationError(f"{p} is not a permutation of 0..{len(p) - 1}")

    @property
    def d(self) -> int:
        return len(self.slot_perm) - 1

    @classmethod
    def identity(cls, n: int, d: int) -> "Paratopism":
        return cls(tuple(range(1, d + 2)), tuple(tuple(range(n)) for _ in range(d + 1)))

    @classmethod
    def random(cls, n: int, d: int, rng: random.Random) -> "Paratopism":
        slots = list(range(1, d + 2))
        rng.shuffle(slots)
        perms = []
        for _ in range(d + 1):
            p = list(range(n))
            rng.shuffle(p)
            perms.append(tuple(p))
        return cls(tuple(slots), tuple(perms))

    def apply_cell(self, cell: tuple) -> tuple:
        out = [0] * len(cell)
        for s, x in enumerate(cell):
            out[self.slot_perm[s] - 1] = self.symbol_perms[s][x]
        return tuple(out)

    def compose(self, other: "Paratopism") -> "Paratopism":
        """self after other, as actions on cells."""
        if self.d != other.d:
            raise ValidationError("dimension mismatch in paratopism composition")
        k = self.d + 2
        slots = tuple(self.slot_perm[other.slot_perm[s] - 1] for s in range(k - 1))
        perms = tuple(
            tuple(
                self.symbol_perms[other.slot_perm[s] - 1][other.symbol_perms[s][x]]
                for x in range(len(other.symbol_perms[s]))
            )
            for s in range(k - 1)
        )
        return Paratopism(slots, perms)


def apply_paratopism(p: Paratopism, L: CellSet) -> CellSet:
    """Image of a cell set under a paratopism (always a valid cell set)."""
    if p.d != L.d:
        raise ValidationError(f"dimension mismatch: {p.d} != {L.d}")
    if any(len(sp) != L.n for sp in p.symbol_perms):
        raise ValidationError("symbol permutation order does not match carrier")
    return CellSet(L.n, L.d, frozenset(p.apply_cell(c) for c in L.cells))


def paratopism_group_order(n: int, d: int) -> int:
    return math.factorial(n) ** (d + 1) * math.factorial(d + 1)


def _generators(n: int, d: int):
    """Adjacent slot and symbol transpositions; generate the full group."""
    gens = []
    idn = tuple(range(n))
    idslots = tuple(range(1, d + 2))
    for s in range(d):
        slots = list(idslots)
        slots[s], slots[s + 1] = slots[s + 1], slots[s]
        gens.append(Paratopism(tuple(slots), tuple(idn for _ in range(d + 1))))
    for s in range(d + 1):
        for v in range(n - 1):
            sym = list(idn)
            sym[v], sym[v + 1] = sym[v + 1], sym[v]
            perms = [idn] * (d + 1)
            perms[s] = tuple(sym)
            gens.append(Paratopism(idslots, tuple(perms)))
    return gens


def _orbit(L: CellSet):
    """All cell sets in the paratopism orbit of L, as frozensets."""
    gens = _generators(L.n, L.d)
    start = L.cells
    seen = {start}
    queue = deque([start])
    while queue:
        cells = queue.popleft()
        for g in gens:
            image = frozenset(g.apply_cell(c) for c in cells)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return seen


def _check_group_ceiling(n: int, d: int, ceiling: int | None) -> None:
    if ceiling is None:
        ceiling = DEFAULT_GROUP_CEILING
    order = paratopism_group_order(n, d)
    if order > ceiling:
        raise CeilingError(
            f"paratopism group order {order} exceeds the ceiling of {ceiling}"
        )


def canonical_form(L: CellSet, ceiling: int | None = None) -> CellSet:
    """Lexicographically least cell set in the paratopism orbit of L.

    Two hypercubes are paratopic iff their canonical forms coincide.
    """
    _check_group_ceiling(L.n, L.d, ceiling)
    best = min(_orbit(L), key=sorted)
    return CellSet(L.n, L.d, best)


def orbit_census(n: int, d: int, ceiling: int | None = None,
                 cell_ceiling_: int | None = None) -> dict:
    """Partition all Latin operations of order n, arity d into
    paratopism classes: canonical form -> orbit size."""
    _check_group_ceiling(n, d, ceiling)
    census = {}
    seen = set()
    total = 0
    for op in enumerate_all(n, d, cell_ceiling_):
        total += 1
        L = graph_of(op)
        if L.cells in seen:
            continue
        orbit = _orbit(L)
        seen |= orbit
        census[CellSet(n, d, min(orbit, key=sorted))] = len(orbit)
    if sum(census.values()) != total:
        raise AssertionError("orbit sizes do not sum to the total count")
    return census
