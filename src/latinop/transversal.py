"""Transversal search in Latin hypercubes and the alternating-sum
identity over Z/n.

A transversal is a set of n cells of X^(d+1) whose projection to every
coordinate slot is a bijection of the carrier.  It need not lie inside
a hypercube for the alternating-sum identity to hold.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import CellSet, ValidationError, _check_cell_shapes, _trusted


@dataclass(frozen=True)
class Transversal:
    """n cells hitting every value exactly once in every slot.

    Cells are kept in canonical order: sorted, so slot-1 values run
    0..n-1 when the transversal is canonical.
    """

    n: int
    d: int
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(map(tuple, self.cells)))
        n, d = self.n, self.d
        if len(self.cells) != n:
            raise ValidationError(
                f"transversal has {len(self.cells)} cells, expected {n}"
            )
        _check_cell_shapes(self.cells, n, d)
        for s in range(d + 1):
            if len({cell[s] for cell in self.cells}) != n:
                raise ValidationError(
                    f"slot {s + 1} values are not pairwise distinct"
                )

    def is_contained_in(self, L: CellSet) -> bool:
        return all(cell in L.cells for cell in self.cells)


def find_transversals(L: CellSet, limit: int | None = None) -> list[Transversal]:
    """Canonical transversals of L, in lexicographic cell-sequence order;
    the first ``limit`` of them when a limit is given.

    Canonical means the slot-1 component is the identity: cell k has
    slot-1 value k.  Backtracking over slot-1 groups with per-slot
    used-bitmasks.
    """
    n, d = L.n, L.d
    # one bitfield of n bits per slot 2..d+1, packed into a single int
    packed = [[] for _ in range(n)]
    for cell in L.sorted_cells():
        mask = 0
        for s in range(d):
            mask |= 1 << (s * n + cell[s + 1])
        packed[cell[0]].append((mask, cell))
    out = []
    chosen = [None] * n

    def search(k, used):
        if k == n:
            out.append(_trusted(Transversal, n=n, d=d, cells=tuple(chosen)))
            return limit is not None and len(out) >= limit
        for mask, cell in packed[k]:
            if used & mask:
                continue
            chosen[k] = cell
            if search(k + 1, used | mask):
                return True
        return False

    if limit is None or limit > 0:
        search(0, 0)
    return out


def count_transversals(L: CellSet) -> int:
    """Number of canonical transversals of L (slot-1 component = identity)."""
    return len(find_transversals(L))


def alternating_sum(t: tuple, n: int) -> int:
    """Sum of (-1)^(i-1) * t_i over the coordinates, reduced mod n."""
    total = 0
    for i, v in enumerate(t):
        if not isinstance(v, int) or not 0 <= v < n:
            raise ValidationError(f"entry {v!r} out of range [0, {n})")
        total += v if i % 2 == 0 else -v
    return total % n


@dataclass(frozen=True)
class DeltaReport:
    computed: int
    expected: int

    @property
    def passed(self) -> bool:
        return self.computed == self.expected


def delta_check(T: Transversal, n: int | None = None) -> DeltaReport:
    """Alternating-sum identity over Z/n for a transversal.

    Expected value: 0 for odd dimension; for even dimension the sum of
    involutions of Z/n, which is 0 for odd n and n/2 for even n.
    """
    if n is None:
        n = T.n
    if n != T.n:
        raise ValidationError(f"carrier mismatch: {n} != {T.n}")
    total = 0
    for cell in T.cells:  # entries validated at construction
        total += sum(cell[0::2]) - sum(cell[1::2])
    computed = total % n
    if T.d % 2 == 1:
        expected = 0
    else:
        expected = 0 if n % 2 == 1 else n // 2
    return DeltaReport(computed=computed, expected=expected)
