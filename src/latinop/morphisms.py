"""The category of Latin hypercubes of a fixed dimension, in normal
form: homomorphism checking and automorphism groups of the defining
operations."""
from __future__ import annotations

import itertools

from .core import LatinOp, ValidationError, _ceiling, _first_bad, _within, encode

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


def _generators(f: LatinOp) -> tuple[list, dict]:
    """A greedy generating set S of (X, f), and the order in which f
    reaches the rest of X from it.

    Each generator is the least point outside the span of those before
    it, the span being the closure under f.  For d >= 2 a proper
    subquasigroup holds at most half the points, so each generator at
    least doubles the span and |S| <= floor(log2 n) + 1; for d = 1 the
    span is the union of f's cycles through S.  A step (x, args) reaches
    x as f(args), from points reached before it, or names the generator
    x when args is None; ``steps`` maps each point to its args, in the
    order reached.
    """
    n, d, table = f.n, f.d, f.table
    gens, steps = [], {}
    for x in range(n):
        if x in steps:
            continue
        gens.append(x)
        new = {x: None}
        while new:
            steps.update(new)
            new = {}
            for args in itertools.product(steps, repeat=d):
                y = table[encode(args, n)]
                if y not in steps:
                    new.setdefault(y, args)
    return gens, steps


def _extensions(f: LatinOp, gens, steps):
    """For each injective image tuple of the generators, the map that
    ``steps`` extend it to through iota(f(y)) = f(iota(y)); a tuple is
    dropped at the first repeated image."""
    n, table = f.n, f.table
    for images in itertools.permutations(range(n), len(gens)):
        image = iter(images)
        iota, used = [0] * n, [False] * n
        for x, args in steps.items():
            y = next(image) if args is None else table[encode(map(iota.__getitem__, args), n)]
            if used[y]:
                break
            used[y] = True
            iota[x] = y
        else:
            yield tuple(iota)


def automorphisms(f: LatinOp, ceiling: int | None = None) -> list:
    """All carrier bijections iota with iota o f = f o iota^(x d).

    An automorphism is fixed by its images of a generating set, so each
    injective image tuple of ``_generators(f)`` is extended through f and
    the extensions that preserve f are kept.  Every point below a
    generator lies in the span of the generators before it, so the image
    tuples, taken in lexicographic order, give the maps in lexicographic
    one-line-notation order.  Each map kept is injective and preserves f
    at every point, and each automorphism is one of the extensions, so the
    list is exactly Aut(f), a group.
    """
    n = f.n
    ceiling = _ceiling(ceiling, "automorphism-scan ceiling", DEFAULT_AUTO_CEILING)
    _within(ceiling, (n,), "carrier order {} exceeds the automorphism-scan ceiling {}", n, ceiling)
    return [iota for iota in _extensions(f, *_generators(f)) if _preserves(iota, f, f)]
