"""The category of Latin hypercubes of a fixed dimension, in normal
form: homomorphism checking and automorphism groups of the defining
operations."""
from __future__ import annotations

import itertools
from operator import itemgetter

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


def _assert_group(found, n: int) -> None:
    """Assert that ``found``, permutations of [0, n), is closed under
    composition, which for a finite set of permutations makes it a group.

    From the identity, each element of ``found`` not yet generated joins
    the generators in order, and the generated set is closed under right
    multiplication by them.  Every product must lie in ``found``, and the
    generated set must end equal to it.  Each generator at least doubles
    the generated group, so this takes at most |G| log2 |G| compositions.
    """
    group = set(found)
    identity = tuple(range(n))
    elements, generated, gens = [identity], {identity}, []
    for g in found:
        if g in generated:
            continue
        gens.append(itemgetter(*g))  # e -> e o g
        old = len(elements)
        for i, e in enumerate(elements):  # grows as products join it
            for h in gens if i >= old else gens[-1:]:
                p = h(e)
                if p not in group:
                    raise AssertionError("automorphism set not closed under composition")
                if p not in generated:
                    generated.add(p)
                    elements.append(p)
    if generated != group:
        raise AssertionError("automorphism set is not the group it generates")


def automorphisms(f: LatinOp, ceiling: int | None = None) -> list:
    """All carrier bijections iota with iota o f = f o iota^(x d).

    An automorphism is fixed by its images of a generating set, so each
    injective image tuple of ``_generators(f)`` is extended through f and
    the extensions that preserve f are kept.  Every point below a
    generator lies in the span of the generators before it, so the image
    tuples, taken in lexicographic order, give the maps in lexicographic
    one-line-notation order.  The result is a subgroup of the symmetric
    group (asserted).
    """
    n = f.n
    ceiling = _ceiling(ceiling, "automorphism-scan ceiling", DEFAULT_AUTO_CEILING)
    _within(ceiling, (n,), "carrier order {} exceeds the automorphism-scan ceiling {}", n, ceiling)
    found = [iota for iota in _extensions(f, *_generators(f)) if _preserves(iota, f, f)]
    _assert_group(found, n)
    return found
