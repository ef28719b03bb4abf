"""Transversal search in Latin hypercubes and the alternating-sum
identity over Z/n.

A transversal is a set of n cells of X^(d+1) whose projection to every
coordinate slot is a bijection of the carrier.  It need not lie inside
a hypercube for the alternating-sum identity to hold.
"""
from __future__ import annotations

import functools
import itertools
import math

from .core import (
    CellSet,
    ValidationError,
    _Value,
    _builder,
    _check_cell_shapes,
    _check_shape,
    _first_bad,
    _int_in,
    cell_ceiling,
    encode,
)


class Transversal(_Value):
    """n cells hitting every value exactly once in every slot.

    The constructor keeps the cells in the given order; find_transversals
    returns them sorted, so their slot-1 values run 0..n-1.  ``alt_sum``
    is the sum of the cells' alternating sums mod n: the constructor
    takes it from the columns it checks, the search adds it up as it
    chooses the cells.  It is derived, so it stays out of ==, hash and
    repr.
    """

    __slots__ = ("n", "d", "cells", "alt_sum")
    _fields = ("n", "d", "cells")
    _hidden = ("alt_sum",)

    def __init__(self, n: int, d: int, cells: tuple):
        cells = tuple(map(tuple, cells))
        _check_shape(n, d, "dimension")
        if len(cells) != n:
            raise ValidationError(
                f"transversal has {len(cells)} cells, expected {n}"
            )
        _check_cell_shapes(cells, n, d)
        cols = list(zip(*cells))
        for s, col in enumerate(cols):
            if len(set(col)) != n:
                raise ValidationError(
                    f"slot {s + 1} values are not pairwise distinct"
                )
        self._set(n, d, cells, (sum(map(sum, cols[0::2])) - sum(map(sum, cols[1::2]))) % n)

    def is_contained_in(self, L: CellSet) -> bool:
        # a transversal of larger order has a value outside L's carrier
        n, table = L.n, L.table
        return self.d == L.d and self.n <= n and all(
            cell[-1] == table[encode(cell[:-1], n)] for cell in self.cells
        )


def _rows(L: CellSet) -> list:
    """Per slot-1 value k, the cells (k, x_2..x_d, v) of L in lexicographic
    order, each as (used-mask, cell, alternating sum mod n): the mask has
    one n-bit field per slot 2..d+1, value x of slot s+2 at bit s*n + x.
    The sums are read from one list of n ints, so past the small-int cache
    the cells share them."""
    n, d, table = L.n, L.d, L.table
    args = list(itertools.product(range(n), repeat=d - 1))  # the (x_2..x_d)
    # their used-masks and what they add to the alternating sum, in the
    # same order, a slot at a time; x_(s+2) sits at cell position s+1,
    # and at an odd position it counts -x
    arg_masks, arg_sums = [0], [0]
    for s in range(d - 1):
        arg_masks = [m | 1 << (s * n + x) for m in arg_masks for x in range(n)]
        signed = range(n) if s % 2 else range(0, -n, -1)
        arg_sums = [a + x for a in arg_sums for x in signed]
    ints = list(range(n))
    value_sums = [-v for v in ints] if d % 2 else ints
    shift, width = (d - 1) * n, len(args)
    return [
        [
            (am | 1 << (shift + v), (k, *xs, v), ints[(k + a + value_sums[v]) % n])
            for am, xs, a, v in zip(arg_masks, args, arg_sums,
                                     table[k * width:(k + 1) * width])
        ]
        for k in range(n)
    ]


def _partials(rows: list, chosen: list):
    """Yield (used-mask, alternating sum) of every partial transversal of
    ``rows``, one cell from each row, in lexicographic order; its cells
    are in ``chosen``, refilled in place.  The sum is not reduced.

    Depth-first on an explicit stack of row iterators, with the mask and
    the sum of the cells chosen above each level.  The last row is
    scanned without descending: each of its fitting cells is a result.
    """
    last = len(rows) - 1
    if last < 0:
        yield 0, 0
        return
    used = [0] * len(rows)
    sums = [0] * len(rows)
    its = [None] * len(rows)
    its[0] = iter(rows[0])
    k = 0
    while k >= 0:
        u, total = used[k], sums[k]
        for mask, cell, a in its[k]:
            if u & mask:
                continue
            chosen[k] = cell
            if k == last:
                yield u | mask, total + a
                continue
            k += 1
            used[k] = u | mask
            sums[k] = total + a
            its[k] = iter(rows[k])
            break
        else:
            k -= 1


def _tail_rows(n: int, d: int, limit: int | None) -> int:
    """How many of the last rows go into the tail table: none with a
    limit, so the first results come back at once; else n//2, half the
    rows at even n and one fewer than the heads at odd n, fewer while
    the a-priori bound on the table, falling(n, t)^(d-1) * t cells,
    exceeds the cell ceiling."""
    if limit is not None:
        return 0
    ceiling = cell_ceiling()
    t, falling = 0, 1
    while t < n // 2:
        falling *= n - t
        if falling ** (d - 1) * (t + 1) > ceiling:
            break
        t += 1
    return t


def _joins(L: CellSet, limit: int | None):
    """Meet in the middle: yield (head, head sum, tails) per head that
    has tails.

    The partial transversals of the last t rows are enumerated once
    into a table keyed by used-mask, each entry one list that holds, in
    lexicographic order, each tail's cell tuple followed by its
    alternating sum mod n.  A head, one cell from each of the first
    h = n - t rows (its cells in the list ``head``, refilled in place),
    completes exactly the tails stored at the complement of its
    used-mask.  The heads' last row is scanned here, against the table,
    so a head's sum is added up only when it has tails.  Heads come in
    lexicographic order, so head + tail does too.
    """
    n, d = L.n, L.d
    rows = _rows(L)
    h = n - _tail_rows(n, d, limit)
    tails = {}
    tail = [None] * (n - h)
    for used, total in _partials(rows[h:], tail):
        entry = tails.setdefault(used, [])
        entry.append(tuple(tail))
        entry.append(total % n)
    full = (1 << d * n) - 1
    head = [None] * h
    for used, total in _partials(rows[:h - 1], head):
        free = full ^ used
        for mask, cell, a in rows[h - 1]:
            if used & mask:
                continue
            entry = tails.get(free ^ mask)
            if entry:
                head[-1] = cell
                yield head, total + a, entry


def _none_asked(limit: int | None) -> bool:
    """True iff ``limit``, an int or None for no limit, asks for no result."""
    if limit is None:
        return False
    if not _int_in(limit, -math.inf):
        raise ValidationError(f"limit must be an int, got {limit!r}")
    return limit <= 0


def _transversals(L: CellSet, limit: int | None):
    """The canonical transversals of L one at a time, in the order and
    number that find_transversals lists them, each with its alternating
    sum carried from the search."""
    if _none_asked(limit):
        return
    n, d, make = L.n, L.d, _builder(Transversal)
    # a tail list runs cells, sum, cells, sum, ...: zip pairs one iterator with itself
    heads = ((tuple(head), total, iter(tails)) for head, total, tails in _joins(L, limit))
    found = (make(n, d, head + tail, (total + rest) % n)
             for head, total, tails in heads for tail, rest in zip(tails, tails))
    yield from itertools.islice(found, limit)


def find_transversals(L: CellSet, limit: int | None = None) -> list[Transversal]:
    """Canonical transversals of L, in lexicographic cell-sequence order;
    the first ``limit`` of them when a limit is given.

    Canonical means the slot-1 component is the identity: cell k has
    slot-1 value k.  The rows (slot-1 values) are split into heads
    searched depth-first and a tail table built once; with a limit
    the tail is empty, so the first results come back at once.
    """
    return list(_transversals(L, limit))


def count_transversals(L: CellSet, limit: int | None = None) -> int:
    """Number of canonical transversals of L (slot-1 component = identity),
    at most ``limit`` when a limit is given.  Summed over the heads from
    the lengths of their tail lists; no Transversal is built."""
    if _none_asked(limit):
        return 0
    # two entries per tail; with a limit the tail is empty and each head adds 1
    joins = itertools.islice(_joins(L, limit), limit)
    return sum(len(tails) for _, _, tails in joins) // 2


def alternating_sum(t: tuple, n: int) -> int:
    """Sum of (-1)^(i-1) * t_i over the coordinates, reduced mod n."""
    _check_shape(n)
    t = tuple(t)
    i = _first_bad(t, 0, n)
    if i is not None:
        raise ValidationError(f"entry {t[i]!r} out of range [0, {n})")
    return (sum(t[0::2]) - sum(t[1::2])) % n


class DeltaReport(_Value):
    __slots__ = _fields = ("computed", "expected")

    def __init__(self, computed: int, expected: int):
        self._set(computed, expected)

    @property
    def passed(self) -> bool:
        return self.computed == self.expected


@functools.cache
def _delta_report(computed: int, expected: int) -> DeltaReport:
    """One shared report per value pair: a frozen report needs no copy."""
    return DeltaReport(computed=computed, expected=expected)


def delta_check(T: Transversal, n: int | None = None) -> DeltaReport:
    """Alternating-sum identity over Z/n for a transversal: T.alt_sum,
    the sum over its cells, against the value the lemma fixes.

    Expected value: 0 for odd dimension; for even dimension the sum of
    involutions of Z/n, which is 0 for odd n and n/2 for even n.
    """
    if n is not None:  # T.n itself was checked where T was built
        _check_shape(n)
        if n != T.n:
            raise ValidationError(f"carrier mismatch: {n} != {T.n}")
    n = T.n
    expected = 0 if T.d % 2 or n % 2 else n // 2
    return _delta_report(T.alt_sum, expected)
