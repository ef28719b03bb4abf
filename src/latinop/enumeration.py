"""Exhaustive and randomized generation of Latin operations, the
paratopism action on tables, min-lex canonical forms, and the orbit
census at desk scale.
"""
from __future__ import annotations

import functools
import itertools
import math
import random

from .core import (
    CeilingError,
    CellSet,
    LatinOp,
    ValidationError,
    _Value,
    _builder,
    _ceiling,
    _check_cells,
    _check_perm,
    _check_shape,
    _latin,
    _paratope,
    _trusted,
    _within,
)

DEFAULT_GROUP_CEILING = 100_000
# enumerate_all stacks layers from a list whose cells, times n, number at
# most this, built per call so that none stays in memory; beyond it,
# enumerate_all searches cell by cell
LAYER_BUDGET = 10 ** 5
# random_latin refuses after this many backtracks: (5,4) seeds take at
# most about 4 * 10^5 nodes, while (6,3) rarely completes at all
RANDOM_BUDGET = 5 * 10 ** 5
REDUCED_SQUARES = (1, 1, 1, 4, 56, 9408, 16942080)  # of order 1..7, OEIS A000315


@functools.cache
def _line_geometry(n: int, d: int) -> tuple:
    """Per cell, in table order, the indices of its d lines in one flat
    list of d * n^(d-1) line masks: the slot-s line through a cell is
    entry s * n^(d-1) + (row-major index of its other d-1 coordinates).
    In table order those of slot s run in blocks of n^(d-1-s) indices,
    and each block repeats n times, sharing its int objects."""
    width = n ** (d - 1)

    def column(s):
        block = n ** (d - 1 - s)
        runs = (tuple(range(a, a + block)) * n for a in range(s * width, (s + 1) * width, block))
        return itertools.chain.from_iterable(runs)

    return tuple(zip(*map(column, range(d))))


def _search(n: int, d: int, ceiling: int | None = None, reduced=False, rng=None, budget=None):
    """An iterator over every Latin table of order n and arity d (if
    ``reduced``, those with L(x * e_k) = x on every axis line through the
    origin) in lexicographic order, or, given the random.Random ``rng``,
    trying each cell's candidates in a random order, one drawn per try.
    Refused at the call if the n^d cells, or the d line indices of each,
    pass the cell ceiling; given a budget, CeilingError is raised on the
    budget-th backtrack."""
    _check_cells(n, d, ceiling)
    ceiling = _ceiling(ceiling, "cell ceiling")
    _within(ceiling, (d, n ** d), "d * n^d = {} * {}^{} search line indices exceed "
            "the ceiling of {}", d, n, d, ceiling)
    return _backtrack(n, d, reduced, rng, budget)


def _backtrack(n: int, d: int, reduced, rng, budget):
    """The tables of _search, the shape checked.

    Depth-first over the cells in table order on an explicit stack, with
    one bitmask of used values per line.  Only the first n^d - n^(d-1)
    cells are searched.  Each of the first n-1 slot-1 layers is then
    Latin along every other slot, so the values missing from the slot-1
    lines form a Latin last layer, filled in without search; a reduced
    table admits those values.  The same list is yielded every time,
    refilled in place.
    """
    line_of = _line_geometry(n, d)
    width = n ** (d - 1)
    free = len(line_of) - width
    table = [0] * len(line_of)
    if not free:  # n == 1: the one table is all zeros
        yield table
        return
    full = (1 << n) - 1
    allowed = [full] * len(table)  # per cell, the values it may hold
    if reduced:  # the axis cells x * n^k hold x
        for k, x in itertools.product(range(d), range(n)):
            allowed[x * n ** k] = 1 << x
    masks = [0] * (d * width)
    rest = [None] * free  # per searched cell below m: candidates not tried
    left = budget
    m = 0  # avail holds the untried candidates of cell m
    avail = allowed[0]
    while True:
        if avail:
            bit = avail & -avail
            if rng is not None and avail != bit:  # the k-th candidate
                higher = avail
                for _ in range(int(rng.random() * avail.bit_count())):
                    higher ^= bit
                    bit = higher & -higher
            avail ^= bit
            table[m] = bit.bit_length() - 1
            lines = line_of[m]
            for i in lines:
                masks[i] |= bit
            if m + 1 < free:
                rest[m] = avail
                m += 1
                used = 0
                for i in line_of[m]:
                    used |= masks[i]
                avail = allowed[m] & ~used
                continue
            table[free:] = [(full ^ used).bit_length() - 1 for used in masks[:width]]
            yield table
        else:
            m -= 1
            if m < 0:
                return
            if left is not None:
                left -= 1
                if not left:
                    raise CeilingError(
                        f"no table found within the budget of {budget} backtracks"
                    )
            avail = rest[m]
            lines = line_of[m]
            bit = 1 << table[m]
        for i in lines:
            masks[i] ^= bit


def _stacked(n: int, layers: list):
    """Yield the table of every sequence of n >= 2 pairwise-disjoint
    entries of ``layers``, the lexicographically ordered list of every
    Latin layer of one arity as (mask, table) pairs, each table the
    concatenation of the sequence's tables, in lexicographic order.

    Depth-first on an explicit stack: the candidates of level k + 1 are
    those of level k whose mask ANDs to zero with the one chosen there.
    Only n - 1 levels are searched: along a line, n - 1 disjoint Latin
    layers miss each value once, at distinct cells, so the values they
    leave free form the Latin layer that completes them, found by mask.
    """
    by_mask = dict(layers)
    full = (1 << n * len(layers[0][1])) - 1
    pools, its, heads, useds = [layers], [iter(layers)], [()], [0]
    while its:
        for mask, table in its[-1]:
            if len(its) == n - 1:
                yield heads[-1] + table + by_mask[full ^ useds[-1] ^ mask]
                continue
            pool = [c for c in pools[-1] if not c[0] & mask]
            pools.append(pool)
            its.append(iter(pool))
            heads.append(heads[-1] + table)
            useds.append(useds[-1] | mask)
            break
        else:
            pools.pop()
            its.pop()
            heads.pop()
            useds.pop()


def _layers(n: int, d: int) -> list | None:
    """Every Latin (d-1)-ary table of order n in lexicographic order, each
    paired with its mask (bit p * n + v set for value v at position p),
    built bottom-up from the n 0-ary tables, one arity at a time.  None at
    order 1, whose one table the search yields at once, and once a list's
    cells times n, the cells that one path of _stacked may filter, exceed
    LAYER_BUDGET."""
    if n == 1 or n * n > LAYER_BUDGET:
        return None
    layers = [(1 << v, (v,)) for v in range(n)]  # the 0-ary tables
    for k in range(1, d):  # the k-ary tables, of n^k cells each
        cap = LAYER_BUDGET // n ** (k + 1)
        tables = list(itertools.islice(_stacked(n, layers), cap + 1))
        if len(tables) > cap:
            return None
        layers = [(sum(1 << p * n + v for p, v in enumerate(t)), t) for t in tables]
    return layers


def enumerate_all(n: int, d: int, ceiling: int | None = None):
    """An iterator over every Latin d-ary operation of order n, each
    exactly once, in lexicographic table order; a shape over a ceiling is
    refused at the call.

    Cut along slot 1, a Latin table is n Latin (d-1)-ary layers that
    differ in every cell, in table order.  So the tables are the stacks
    of n pairwise-disjoint entries of the layer list; over the layer
    budget the cell-by-cell search yields the same tables.
    """
    _check_cells(n, d, ceiling)
    layers = _layers(n, d)
    tables = _stacked(n, layers) if layers is not None else map(tuple, _search(n, d, ceiling))
    make = _builder(LatinOp)
    return (make(n, d, table) for table in tables)


def count_all(n: int, d: int, ceiling: int | None = None) -> int:
    """Number of Latin d-ary operations of order n.

    Counted over reduced tables, with L(x * e_k) = x on every axis line
    through the origin.  Relabelling the symbols and the arguments of
    slots 2..d with 0 fixed, a group of order n! * ((n-1)!)^(d-1), takes
    each table to exactly one reduced table and acts freely, so the
    count is that order times the number of reduced tables.

    A square count is refused when the reduced squares exceed the cell
    ceiling: their published number up to order 7, past it at least
    (n!)^(2n) / (n^(n^2) * n! * (n-1)!) by the Egorychev-Falikman bound
    on the permanent (van Lint-Wilson, ch. 17).
    """
    squares = _search(n, d, ceiling, reduced=True)
    ceiling = _ceiling(ceiling, "cell ceiling")
    if d == 2 and n <= len(REDUCED_SQUARES):
        _within(ceiling, (REDUCED_SQUARES[n - 1],), "{} reduced squares of order {} exceed the "
                "ceiling of {}", REDUCED_SQUARES[n - 1], n, ceiling)
    elif d == 2:  # for q = (n!)^2 // n^n, q^n / (n! * (n-1)!) is at most that bound
        q = math.factorial(n) ** 2 // n ** n
        _within(ceiling * math.factorial(n) * math.factorial(n - 1), itertools.repeat(q, n),
                "at least (n!)^(2n) / (n^(n^2) * n! * (n-1)!) reduced squares of order {} "
                "exceed the ceiling of {}", n, ceiling)
    reduced = sum(1 for _ in squares)
    return math.factorial(n) * math.factorial(n - 1) ** (d - 1) * reduced


def random_latin(n: int, d: int, seed: int = 0, ceiling: int | None = None) -> LatinOp:
    """First completion of a randomized backtracking fill: each try at a
    cell draws one of its untried candidates.

    Deterministic given the seed; not uniform over all Latin operations.
    Raises CeilingError after RANDOM_BUDGET backtracks without one.
    """
    tables = _search(n, d, ceiling, rng=random.Random(seed), budget=RANDOM_BUDGET)
    return _trusted(LatinOp, n, d, tuple(next(tables)))


class Paratopism(_Value):
    """An element of Sym(X)^(d+1) x| Sym_{d+1} acting on Latin tables
    through their graphs.

    slot_perm is 1-based one-line notation on slots; symbol_perms[s] is
    the value bijection applied in source slot s+1.  A cell maps by
    sending its slot-s entry x to position slot_perm(s) with value
    symbol_perms[s-1][x].
    """

    __slots__ = _fields = ("slot_perm", "symbol_perms")

    def __init__(self, slot_perm: tuple, symbol_perms: tuple):
        slot_perm = tuple(slot_perm)
        k = len(slot_perm)
        _check_perm(slot_perm, 1, k)
        perms = tuple(tuple(p) for p in symbol_perms)
        if len(perms) != k:
            raise ValidationError(f"expected {k} symbol permutations, got {len(perms)}")
        n = len(perms[0])
        _check_shape(n, k - 1, "dimension")
        for p in perms:
            _check_perm(p, 0, n - 1)
        self._set(slot_perm, perms)

    @property
    def d(self) -> int:
        return len(self.slot_perm) - 1

    @property
    def n(self) -> int:
        return len(self.symbol_perms[0])

    @classmethod
    def identity(cls, n: int, d: int) -> "Paratopism":
        _check_shape(n, d, "dimension")
        return _trusted(cls, tuple(range(1, d + 2)), (tuple(range(n)),) * (d + 1))

    @classmethod
    def random(cls, n: int, d: int, rng: random.Random) -> "Paratopism":
        _check_shape(n, d, "dimension")
        slots = list(range(1, d + 2))
        rng.shuffle(slots)
        perms = []
        for _ in range(d + 1):
            p = list(range(n))
            rng.shuffle(p)
            perms.append(tuple(p))
        return _trusted(cls, tuple(slots), tuple(perms))

    def compose(self, other: "Paratopism") -> "Paratopism":
        """self after other, as actions on cells."""
        if self.n != other.n:
            raise ValidationError(f"order mismatch: {self.n} != {other.n}")
        if self.d != other.d:
            raise ValidationError("degree mismatch in permutation composition")
        slots = tuple(self.slot_perm[t - 1] for t in other.slot_perm)
        perms = tuple(tuple(self.symbol_perms[t - 1][x] for x in p)
                      for t, p in zip(other.slot_perm, other.symbol_perms))
        return _trusted(Paratopism, slots, perms)


def apply_paratopism(p: Paratopism, L: CellSet) -> CellSet:
    """Image of a cell set, or of a Latin RawOp, under a paratopism: a valid cell set."""
    if p.d != L.d:
        raise ValidationError(f"dimension mismatch: {p.d} != {L.d}")
    if p.n != L.n:
        raise ValidationError("symbol permutation order does not match carrier")
    table = _paratope(L.n, L.d, p.slot_perm, p.symbol_perms)(_latin(L).table)
    return _trusted(CellSet, L.n, L.d, table)


def paratopism_group_order(n: int, d: int) -> int:
    """n!^(d+1) * (d+1)!, the order of the group acting at (n, d)."""
    _check_shape(n, d, "dimension")
    return math.factorial(n) ** (d + 1) * math.factorial(d + 1)


def _generators(n: int, d: int) -> list:
    """A transposition and a full cycle of the slots and of slot 1's
    symbols, as (slot_perm, symbol_perms) pairs.  They generate the full
    group: slot moves carry slot-1 relabellings to every slot."""
    slots, ids = tuple(range(1, d + 2)), (tuple(range(n)),) * (d + 1)
    moves = (lambda p: p[1:2] + p[:1] + p[2:], lambda p: p[1:] + p[:1])
    return [g for m in moves for g in ((m(slots), ids), (slots, (m(ids[0]), *ids[1:])))]


def _orbit(n: int, d: int, table) -> set:
    """All tables in the paratopism orbit of the order-n, arity-d
    ``table``, by breadth-first search over the generators."""
    gens = [_paratope(n, d, *g) for g in _generators(n, d)]
    orbit = {table}
    queue = [table]
    for t in queue:  # the queue grows as the search visits it
        for g in gens:
            image = g(t)
            if image not in orbit:
                orbit.add(image)
                queue.append(image)
    return orbit


def _check_group_ceiling(n: int, d: int, ceiling: int | None) -> None:
    """Raise CeilingError unless the group order, multiplied over the
    factors of (d+1)! and then of n!, d+1 times, is within the ceiling."""
    _check_shape(n, d)
    ceiling = _ceiling(ceiling, "group ceiling", DEFAULT_GROUP_CEILING)
    ranges = itertools.repeat(range(2, n + 1), d + 1)
    _within(ceiling, itertools.chain(range(2, d + 2), itertools.chain.from_iterable(ranges)),
            "paratopism group order n!^(d+1) * (d+1)! = {}!^{} * {}! exceeds the ceiling of {}",
            n, d + 1, d + 1, ceiling)


def canonical_form(L: CellSet, ceiling: int | None = None) -> CellSet:
    """Least table in the paratopism orbit of L, equivalently the
    lexicographically least cell set: the graphs of tables of one (n, d)
    list their cells over the same argument sequence.

    Two hypercubes, or Latin RawOps, are paratopic iff their canonical forms coincide.
    """
    _check_group_ceiling(L.n, L.d, ceiling)
    return _trusted(CellSet, L.n, L.d, min(_orbit(L.n, L.d, _latin(L).table)))


def orbit_census(n: int, d: int, ceiling: int | None = None,
                 cell_ceiling_: int | None = None) -> dict:
    """Partition all Latin operations of order n, arity d into
    paratopism classes: canonical form -> orbit size.  Enumeration is
    lexicographic, so the first table met in a class is its least."""
    _check_group_ceiling(n, d, ceiling)
    census = {}
    seen = set()
    for op in enumerate_all(n, d, cell_ceiling_):
        if op.table in seen:
            continue
        orbit = _orbit(n, d, op.table)
        seen |= orbit
        census[_trusted(CellSet, n, d, op.table)] = len(orbit)
    return census
