import itertools
import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from latinop import (
    CeilingError,
    LatinOp,
    RawOp,
    ValidationError,
    automorphisms,
    is_homomorphism,
)
from latinop.enumeration import enumerate_all, random_latin
from latinop.morphisms import _generators

from oracles import brute_automorphisms, cyclic_table, euler_phi, latin_tables_lex


def add_mod(n):
    return LatinOp(n, 2, cyclic_table(n))


def test_identity_is_homomorphism():
    f = add_mod(4)
    assert is_homomorphism(range(4), f, f)


def test_unit_multiplier_is_homomorphism():
    f = add_mod(4)
    assert is_homomorphism(tuple(3 * x % 4 for x in range(4)), f, f)


def test_translation_is_not_homomorphism():
    f = add_mod(4)
    iota = tuple((x + 1) % 4 for x in range(4))
    assert not is_homomorphism(iota, f, f)
    # witness at (0, 0): iota(0+0) = 1 but iota(0)+iota(0) = 2
    assert iota[f(0, 0)] != f(iota[0], iota[0])


def test_homomorphism_between_different_orders():
    # doubling embeds Z/2 into Z/4
    g = add_mod(2)
    f = add_mod(4)
    assert is_homomorphism((0, 2), g, f)
    assert not is_homomorphism((0, 1), g, f)


def test_homomorphism_validation():
    f = add_mod(3)
    with pytest.raises(ValidationError):
        is_homomorphism((0, 1), f, f)
    with pytest.raises(ValidationError):
        is_homomorphism((0, 1, 7), f, f)
    with pytest.raises(ValidationError):
        is_homomorphism((0, 1, 2), f, LatinOp(3, 1, (0, 1, 2)))


def test_homomorphisms_compose_sampled():
    rng = random.Random(2)
    f = add_mod(4)
    maps = [tuple(k * x % 4 for x in range(4)) for k in (1, 3)]
    for _ in range(20):
        iota = rng.choice(maps)
        kappa = rng.choice(maps)
        assert is_homomorphism(iota, f, f)
        assert is_homomorphism(kappa, f, f)
        composed = tuple(kappa[iota[x]] for x in range(4))
        assert is_homomorphism(composed, f, f)


def test_automorphisms_of_cyclic_tables_are_unit_multipliers():
    for n in range(1, 9):
        autos = automorphisms(add_mod(n))
        assert len(autos) == euler_phi(n)
        expected = sorted(
            tuple(k * x % n for x in range(n))
            for k in range(1, n + 1)
            if __import__("math").gcd(k, n) == 1
        )
        assert autos == expected


def test_identity_always_present_and_lexicographic():
    for n in (2, 3, 4):
        for f in itertools.islice(enumerate_all(n, 2), 20):
            autos = automorphisms(f)
            assert tuple(range(n)) in autos
            assert autos == sorted(autos)


def test_automorphism_group_axioms_sampled():
    # closed under inverse and composition; (Z/2)^3 has 168, a nonabelian group
    ops = [random_latin(5, 2, seed=seed) for seed in range(30)]
    ops += [LatinOp(8, 2, xor_table(8)), LatinOp(3, 3, cyclic_table(3, d=3))]
    for f in ops:
        autos = automorphisms(f)
        group = set(autos)
        for a in autos:
            assert tuple(sorted(range(f.n), key=a.__getitem__)) in group
            for b in autos:
                assert tuple(a[x] for x in b) in group


def test_automorphism_ceiling():
    with pytest.raises(CeilingError):
        automorphisms(add_mod(4), ceiling=3)


def test_degree3_automorphisms():
    f = LatinOp(3, 3, cyclic_table(3, d=3))
    autos = automorphisms(f)
    assert tuple(range(3)) in autos
    for iota in autos:
        assert is_homomorphism(iota, f, f)


def xor_table(n):
    """The Cayley table of (Z/2)^k, n = 2^k: x XOR y."""
    return tuple(x ^ y for x in range(n) for y in range(n))


def test_automorphisms_match_brute_force_scan():
    ops = [LatinOp(n, d, t) for n, d in ((1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4))
           for t in latin_tables_lex(n, d)]
    ops += [random_latin(n, 2, seed=seed) for n in (5, 6, 7) for seed in range(20)]
    ops.append(LatinOp(8, 2, xor_table(8)))
    for f in ops:
        autos = automorphisms(f)
        assert autos == brute_automorphisms(f.n, f.d, f.table)
        gens, _ = _generators(f)
        assert len(gens) <= math.floor(math.log2(f.n)) + 1
    assert len(automorphisms(ops[-1])) == 168


def test_unary_automorphisms_match_brute_force_scan():
    # the automorphisms of a unary map are the bijections commuting with
    # it; for the identity every point is a generator
    for n in range(1, 6):
        assert _generators(LatinOp(n, 1, tuple(range(n))))[0] == list(range(n))
        for table in itertools.product(range(n), repeat=n):
            f = RawOp(n, 1, table)
            assert automorphisms(f) == brute_automorphisms(n, 1, table)


def test_identity_unary_order_8_within_seconds():
    start = time.monotonic()
    autos = automorphisms(LatinOp(8, 1, tuple(range(8))))
    assert autos == sorted(itertools.permutations(range(8)))
    assert time.monotonic() - start < 5.0


@given(
    st.sampled_from([(n, d) for n in range(1, 8) for d in (1, 2)] + [(n, 3) for n in range(1, 6)]),
    st.integers(min_value=0, max_value=10 ** 6),
    st.randoms(use_true_random=False),
)
def test_relabelling_conjugates_the_group(shape, seed, rnd):
    # f^pi(pi(y_1)..pi(y_d)) = pi(f(y)), so Aut(f^pi) = pi Aut(f) pi^-1
    n, d = shape
    f = random_latin(n, d, seed=seed)
    pi = list(range(n))
    rnd.shuffle(pi)
    inverse = sorted(range(n), key=pi.__getitem__)
    table = [0] * n ** d
    for args, v in zip(f.arg_tuples(), f.table):
        idx = 0
        for a in args:
            idx = idx * n + pi[a]
        table[idx] = pi[v]
    conjugated = sorted(tuple(pi[iota[inverse[x]]] for x in range(n)) for iota in automorphisms(f))
    assert automorphisms(LatinOp(n, d, tuple(table))) == conjugated
