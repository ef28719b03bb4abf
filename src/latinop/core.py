"""Core representations of Latin hypercubes over the carrier {0..n-1}.

A d-ary operation given by a dense table (``LatinOp``) and its graph, the
cell subset of the (d+1)-fold product (``CellSet``), share one verified
table, so ``graph_of`` / ``function_of`` convert between them in O(1).
All types are immutable after construction.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import os

DEFAULT_CELL_CEILING = 10 ** 7


class ValidationError(ValueError):
    """Malformed or invariant-violating input data."""


class CeilingError(RuntimeError):
    """A configurable resource ceiling would be exceeded."""


def _int_in(v, lo: int, hi: float = math.inf) -> bool:
    """The one int rule: v is an int proper, no bool or float, in [lo, hi)."""
    return type(v) is int and lo <= v < hi


def _first_bad(values, lo: int, hi: float = math.inf) -> int | None:
    """The index of the first of the sequence ``values`` that breaks the
    int rule, or None.  The rule is inlined, as a call per value would slow
    the table constructors; the index is sought only on failure."""
    for v in values:
        if type(v) is not int or not lo <= v < hi:
            return next(i for i, w in enumerate(values) if not _int_in(w, lo, hi))
    return None


def _check_shape(n: int, d: int = 1, word: str = "arity") -> None:
    """Raise ValidationError unless n >= 1 and d (named ``word``) >= 1:
    called with n alone, the one rule for an order."""
    if not _int_in(n, 1):
        raise ValidationError(f"carrier order must be >= 1, got {n}")
    if not _int_in(d, 1):
        raise ValidationError(f"{word} must be >= 1, got {d}")


def _check_perm(p: tuple, lo: int, hi: int) -> None:
    """Raise ValidationError unless p is a permutation of lo..hi, hi >= lo an int."""
    if (not _int_in(hi, lo) or len(p) != hi - lo + 1 or _first_bad(p, lo, hi + 1) is not None
            or sorted(p) != list(range(lo, hi + 1))):
        raise ValidationError(f"{p} is not a permutation of {lo}..{hi}")


def _check_slot(s: int, top: int) -> None:
    """Raise ValidationError unless the slot s is an int in 1..top."""
    if not _int_in(s, 1, top + 1):
        raise ValidationError(f"slot {s} out of range 1..{top}")


def cell_ceiling() -> int:
    value = os.environ.get("LATINOP_CELL_CEILING")
    if not value:
        return DEFAULT_CELL_CEILING
    try:
        ceiling = int(value) if value.strip().isdecimal() else 0
    except ValueError:  # more digits than int() converts
        ceiling = 0
    # 0 when the text is no positive decimal: then the text is refused, quoted
    return _ceiling(ceiling or value, "LATINOP_CELL_CEILING")


def _ceiling(v, word: str, default: int | None = None) -> int:
    """The ceiling v, named ``word``, an int >= 1 whether given as an
    argument or in the environment; for None, ``default`` or else
    LATINOP_CELL_CEILING."""
    if v is None:
        return default or cell_ceiling()
    if not _int_in(v, 1):
        raise ValidationError(f"{word} must be a positive integer, got {v!r}")
    return v


def _within(ceiling: int, factors, refusal: str, *args) -> int:
    """The product of ``factors``, ints >= 1, multiplied one at a time:
    at the first partial product over ``ceiling``, raise CeilingError
    with ``refusal.format(*args)``, so no product far past it is formed."""
    product = 1
    for k in factors:
        product *= k
        if product > ceiling:
            raise CeilingError(refusal.format(*args))
    return product


def _check_cells(n: int, d: int, ceiling: int | None = None) -> int:
    """n ** d, the cell count of an order-n, arity-d table, after
    checking it against the ceiling (LATINOP_CELL_CEILING by default)."""
    _check_shape(n, d)
    ceiling = _ceiling(ceiling, "cell ceiling")
    if n == 1 and d > ceiling.bit_length():  # one cell, at any arity
        raise CeilingError(f"arity {d} exceeds the bit length of the cell ceiling {ceiling}")
    # for n >= 2, bit_length + 1 factors of n already pass the ceiling
    return _within(ceiling, itertools.repeat(n, min(d, ceiling.bit_length() + 1)),
                   "n^d = {}^{} table cells exceeds the ceiling of {}", n, d, ceiling)


def _check_composable(f, g, i: int) -> None:
    """Raise unless g substitutes into slot i of f: the carriers match,
    the slot is in range and the composite fits under the cell ceiling."""
    if f.n != g.n:
        raise ValidationError(f"carrier mismatch: {f.n} != {g.n}")
    _check_slot(i, f.d)
    _check_cells(f.n, f.d + g.d - 1)


class _Value:
    """Base of the value types.  A subclass lists its fields, in
    constructor order, in ``_fields``, and its derived fields, which ==,
    hash and repr leave out, in ``_hidden``; both are slots.  Objects
    equal only objects of their own class, comparing the ``_fields``
    tuple, which is also the hash.  A copy or a pickle rebuilds the
    object from both tuples without validation.  A subclass is frozen,
    refusing assignment, unless declared with ``frozen=False``: then it
    is mutable and unhashable.
    """

    __slots__ = ()
    _fields = _hidden = ()

    def __init_subclass__(cls, frozen: bool = True):
        super().__init_subclass__()
        cls._key = operator.attrgetter(*cls._fields)
        cls._state = operator.attrgetter(*cls._fields, *cls._hidden)
        if not frozen:
            cls.__hash__ = None
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _trusted, (self.__class__, *self._state(self))

    def _set(self, *values) -> None:
        """Fill the fields and then the derived fields of a new object."""
        for name, value in zip(self._fields + self._hidden, values):
            object.__setattr__(self, name, value)


def encode(args, n: int) -> int:
    """Row-major table index of an argument tuple (last argument fastest)."""
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


class SlotPermutation(_Value):
    """A bijection of the slots {1..d}, in one-line notation."""

    __slots__ = _fields = ("d", "perm")

    def __init__(self, d: int, perm: tuple[int, ...]):
        perm = tuple(perm)
        _check_perm(perm, 1, d)
        self._set(d, perm)

    @classmethod
    def identity(cls, d: int) -> "SlotPermutation":
        return cls(d, tuple(range(1, d + 1)) if _int_in(d, 1) else ())

    def __call__(self, k: int) -> int:
        return self.perm[k - 1]

    def compose(self, other: "SlotPermutation") -> "SlotPermutation":
        """self after other: (self.compose(other))(k) = self(other(k))."""
        if self.d != other.d:
            raise ValidationError("degree mismatch in permutation composition")
        return _trusted(SlotPermutation, self.d, tuple(map(self, other.perm)))

    def inverse(self) -> "SlotPermutation":
        perm = tuple(sorted(range(1, self.d + 1), key=self))  # k at position self(k)
        return _trusted(SlotPermutation, self.d, perm)


def _paratope(n: int, d: int, slot_perm, symbol_perms):
    """The map from an order-n, arity-d table to the table whose graph
    is the image of its graph under a paratopism: source slot s
    (1-based; the output is slot d+1) moves to slot slot_perm[s-1], its
    values relabelled by symbol_perms[s-1].

    An image cell is numbered row-major in X^(d+1): target slot t weighs
    n^(d+1-t).  The argument slots expand by strides to one number per
    source cell in table order.  If the output slot stays, their order is
    the image order: the map gathers, from any table.  Otherwise the table
    must be Latin; each value adds its number, and the sorted numbers
    hold the image table in their last digits.
    """
    rows = [[y * n ** (d + 1 - t) for y in p] for t, p in zip(slot_perm, symbol_perms)]
    cells = [0]
    for row in rows[:d]:
        cells = [c + w for c in cells for w in row]
    if slot_perm[d] == d + 1:
        src, value = sorted(range(len(cells)), key=cells.__getitem__), tuple(symbol_perms[d])
        return lambda table: tuple([value[table[x]] for x in src])
    value, digit = rows[d].__getitem__, n.__rmod__
    return lambda table: tuple(map(digit, sorted(map(operator.add, cells, map(value, table)))))


class RawOp(_Value):
    """A d-ary operation on {0..n-1} as a dense table, Latin or not.

    The table is row-major with the last argument varying fastest.
    """

    __slots__ = _fields = ("n", "d", "table")

    def __init__(self, n: int, d: int, table: tuple[int, ...]):
        _check_shape(n, d)
        table = tuple(table)
        expected = n ** d
        if len(table) != expected:
            raise ValidationError(
                f"table length {len(table)} != n^d = {expected}"
            )
        i = _first_bad(table, 0, n)
        if i is not None:
            raise ValidationError(
                f"table entry at index {i} out of range [0, {n}): {table[i]!r}"
            )
        self._set(n, d, table)

    def __call__(self, *args: int) -> int:
        if len(args) != self.d:
            raise ValidationError(f"expected {self.d} arguments, got {len(args)}")
        k = _first_bad(args, 0, self.n)
        if k is not None:
            raise ValidationError(f"argument {k + 1} out of range [0, {self.n}): {args[k]!r}")
        return self.table[encode(args, self.n)]

    def arg_tuples(self):
        """All argument tuples in table (row-major) order."""
        return itertools.product(range(self.n), repeat=self.d)


def _non_latin_slot(n: int, d: int, t) -> int:
    """The first 1-based argument slot in which table t is not
    bijective, or 0 if it is Latin."""
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
                        return s + 1
                    seen |= bit
    return 0


def is_latin(f: RawOp) -> bool:
    """True iff f is bijective in each argument slot separately."""
    return not _non_latin_slot(f.n, f.d, f.table)


class LatinOp(RawOp):
    """A d-ary quasigroup operation: a RawOp satisfying the Latin property."""

    __slots__ = ()

    def __init__(self, n: int, d: int, table: tuple[int, ...]):
        super().__init__(n, d, table)
        _check_latin(n, d, self.table)


def _check_latin(n: int, d: int, table) -> None:
    """Raise ValidationError unless the in-range ``table`` is Latin."""
    if _non_latin_slot(n, d, table):
        raise ValidationError(f"table is not Latin (order {n}, arity {d})")


def _latin(f: RawOp | CellSet) -> LatinOp | CellSet:
    """f as a verified hypercube: a LatinOp or CellSet as it is; any other
    RawOp, range-checked where it was built, Latin-scanned to a LatinOp."""
    if isinstance(f, (LatinOp, CellSet)):
        return f
    _check_latin(f.n, f.d, f.table)
    return _trusted(LatinOp, f.n, f.d, f.table)


def _check_cell_shapes(cells, n: int, d: int) -> None:
    """Raise ValidationError unless every cell is a (d+1)-tuple of ints
    in [0, n): checked a slot at a time, then cell by cell for the message."""
    if set(map(len, cells)) <= {d + 1} and all(
            _first_bad(col, 0, n) is None for col in zip(*cells)):
        return
    for cell in cells:
        if len(cell) != d + 1:
            raise ValidationError(
                f"cell {cell} has length {len(cell)}, expected {d + 1}"
            )
        if _first_bad(cell, 0, n) is not None:
            raise ValidationError(f"cell {cell} entry out of range [0, {n})")


def _cell_table(cells, n: int, d: int) -> tuple:
    """The Latin table whose graph is the shape-checked ``cells``.

    Raises ValidationError on a wrong cell count or when discarding a
    slot is not a bijection onto X^d: a repeated argument prefix fails
    slot d+1, a non-bijective argument slot fails that slot.
    """
    size = n ** d
    if len(cells) != size:
        raise ValidationError(f"cell count {len(cells)} != n^d = {size}")
    table = [None] * size
    for cell in cells:
        i = encode(cell[:-1], n)
        if table[i] is not None:
            slot = d + 1  # a repeated argument prefix
            break
        table[i] = cell[-1]
    else:
        slot = _non_latin_slot(n, d, table)
    if slot:
        raise ValidationError(f"slot {slot} projection is not bijective onto X^{d}")
    return tuple(table)


class CellSet(_Value):
    """A Latin hypercube as the subset of X^(d+1) that is the graph of a
    Latin table: the cells (x_1..x_d, table[x_1..x_d]).

    Invariants: exactly n^d cells, and discarding any one coordinate
    slot is a bijection onto X^d.  Equality and hash are those of
    (n, d, table); the frozenset ``cells`` is built on first use.
    """

    __slots__ = ("n", "d", "table", "cells")
    _fields = ("n", "d", "table")

    def __init__(self, n: int, d: int, cells):
        _check_shape(n, d, "dimension")
        cells = tuple(map(tuple, cells))
        _check_cell_shapes(cells, n, d)
        cells = frozenset(cells)
        self._set(n, d, _cell_table(cells, n, d))
        object.__setattr__(self, "cells", cells)

    def __getattr__(self, name):
        """The slot ``cells``, filled on first use; any other missing name
        raises as usual."""
        if name != "cells":
            return object.__getattribute__(self, name)
        cells = frozenset(self.sorted_cells())
        object.__setattr__(self, "cells", cells)
        return cells

    def sorted_cells(self) -> tuple:
        """The cells in lexicographic order, which is table order."""
        args = itertools.product(range(self.n), repeat=self.d)
        return tuple(a + (v,) for a, v in zip(args, self.table))


def is_latin_cellset(cells, n: int, d: int) -> bool:
    """True iff ``cells`` forms a valid Latin hypercube cell set.

    Raises ValidationError on structurally malformed input (ragged
    tuples, out-of-range entries); returns False when the cardinality
    or a slot projection fails.
    """
    _check_shape(n, d, "dimension")
    cells = [tuple(c) for c in cells]
    _check_cell_shapes(cells, n, d)
    try:
        _cell_table(set(cells), n, d)  # a repeated cell counts once
    except ValidationError:
        return False
    return True


@functools.cache
def _builder(cls):
    """The function that makes an instance of the value type ``cls``
    from its fields and then its derived fields, in order, with one
    write per field written out; hot loops bind it once.  Each slot is
    written through its member descriptor's __set__, which skips the
    frozen __setattr__ and the lookup by name."""
    names = cls._fields + cls._hidden
    namespace = {"new": object.__new__, "cls": cls}
    sets = []
    for name in names:
        namespace[f"set_{name}"] = getattr(cls, name).__set__
        sets.append(f"    set_{name}(obj, {name})\n")
    exec(f"def build({', '.join(names)}):\n    obj = new(cls)\n{''.join(sets)}    return obj\n",
         namespace)
    return namespace["build"]


def _trusted(cls, *values):
    """An instance of the value type ``cls`` from its field values,
    built without validation: for values whose invariants hold by
    construction (search output, tables of verified operations)."""
    return _builder(cls)(*values)


def _cells(f: RawOp | CellSet) -> CellSet:
    """f, a hypercube or a Latin RawOp, as a CellSet: through the Latin gate.
    The Latin property of a table is exactly the cell-set invariant."""
    if isinstance(f, CellSet):
        return f
    return _trusted(CellSet, f.n, f.d, _latin(f).table)


def graph_of(f: LatinOp) -> CellSet:
    """The cell set {(x_1..x_d, f(x_1..x_d))}."""
    if not isinstance(f, LatinOp):
        raise ValidationError("graph_of expects a verified LatinOp")
    return _cells(f)


def function_of(L: CellSet) -> LatinOp:
    """The LatinOp whose graph is L (inverse of graph_of); a RawOp must be Latin."""
    return _trusted(LatinOp, L.n, L.d, _latin(L).table)


def _slot_move(f: RawOp, slot_perm) -> LatinOp:
    """f with source slot s moved to slot slot_perm[s-1]; a RawOp is Latin-checked."""
    f = _latin(f)
    table = _paratope(f.n, f.d, slot_perm, (range(f.n),) * (f.d + 1))(f.table)
    return _trusted(LatinOp, f.n, f.d, table)


def conjugate(f: LatinOp, s: int) -> LatinOp:
    """Re-designate slot s of the graph as the output slot.

    The cells of graph_of(f) are reread with slot s moved to the output
    position and the remaining slots kept in increasing order;
    conjugate(f, d+1) equals f.  For d=1 and s=1 this is the inverse
    permutation.  A RawOp is accepted if it is Latin.
    """
    _check_slot(s, f.d + 1)
    return _slot_move(f, (*range(1, s), f.d + 1, *range(s, f.d + 1)))
