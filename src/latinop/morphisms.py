"""The category of Latin hypercubes of a fixed dimension, in normal
form: homomorphism checking and automorphism groups of the defining
operations."""
from __future__ import annotations

import itertools

from .core import LatinOp, ValidationError, _ceiling, _first_bad, _within

DEFAULT_AUTO_CEILING = 8


def is_homomorphism(iota, g: LatinOp, f: LatinOp) -> bool:
    """True iff iota(g(y_1..y_d)) = f(iota(y_1)..iota(y_d)) for all inputs.

    iota is a total map [0, g.n) -> [0, f.n) given as a sequence.
    """
    if g.d != f.d:
        raise ValidationError(f"degree mismatch: {g.d} != {f.d}")
    iota = tuple(iota)
    if len(iota) != g.n:
        raise ValidationError(f"map has {len(iota)} entries, expected {g.n}")
    i = _first_bad(iota, 0, f.n)
    if i is not None:
        raise ValidationError(f"map value {iota[i]!r} out of range [0, {f.n})")
    return _preserves(iota, g, f)


def _preserves(iota, g: LatinOp, f: LatinOp) -> bool:
    """True iff iota(g(y)) = f(iota(y_1)..iota(y_d)) at every point y of
    g's table, stopping at the first point where it fails."""
    n, ft = f.n, f.table
    for args, v in zip(g.arg_tuples(), g.table):
        i = 0
        for y in args:
            i = i * n + iota[y]
        if ft[i] != iota[v]:
            return False
    return True


def automorphisms(f: LatinOp, ceiling: int | None = None) -> list:
    """All carrier bijections iota with iota o f = f o iota^(x d).

    Returned in lexicographic one-line-notation order; the result is a
    subgroup of the symmetric group (asserted).
    """
    n = f.n
    ceiling = _ceiling(ceiling, "automorphism-scan ceiling", DEFAULT_AUTO_CEILING)
    _within(ceiling, (n,), "carrier order {} exceeds the automorphism-scan ceiling {}", n, ceiling)
    found = [
        iota for iota in itertools.permutations(range(n)) if _preserves(iota, f, f)
    ]
    group = set(found)
    for a in found:
        inv = [0] * n
        for x in range(n):
            inv[a[x]] = x
        if tuple(inv) not in group:
            raise AssertionError("automorphism set not closed under inversion")
        for b in found:
            if tuple(a[b[x]] for x in range(n)) not in group:
                raise AssertionError("automorphism set not closed under composition")
    return found
