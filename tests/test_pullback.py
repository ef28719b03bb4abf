import itertools
import random

import pytest

from latinop import (
    LatinOp,
    Paratopism,
    ValidationError,
    apply_paratopism,
    compose_at,
    function_of,
    graph_of,
    is_latin_cellset,
    projection_tau,
    pullback_compose,
    restrict,
    unit,
)
from latinop.enumeration import enumerate_all, random_latin

from oracles import cyclic_table, restrict_cells


def test_projection_tau_examples():
    assert projection_tau((0, 1, 2), 2) == (0, 2)
    assert projection_tau((5,), 1) == ()
    assert projection_tau((7, 9), 2) == (7,)


def test_projection_tau_out_of_range():
    with pytest.raises(ValidationError):
        projection_tau((0, 1), 3)


def test_pullback_compose_xor_by_hand():
    L = graph_of(LatinOp(2, 2, (0, 1, 1, 0)))
    got = pullback_compose(L, L, 1)
    assert got.cells == {
        cells + (sum(cells) % 2,)
        for cells in itertools.product(range(2), repeat=3)
    }


def test_pullback_compose_unit():
    e = graph_of(unit(3))
    M = graph_of(LatinOp(3, 2, cyclic_table(3)))
    assert pullback_compose(e, M, 1) == M


def test_pullback_equals_table_composition_exhaustive():
    for n in (1, 2, 3):
        ops = {d: list(enumerate_all(n, d)) for d in (1, 2)}
        for df, de in itertools.product((1, 2), repeat=2):
            for f in ops[df]:
                for g in ops[de]:
                    for i in range(1, df + 1):
                        joined = pullback_compose(graph_of(f), graph_of(g), i)
                        assert joined == graph_of(compose_at(f, g, i))


def test_pullback_carrier_mismatch():
    with pytest.raises(ValidationError, match="carrier"):
        pullback_compose(graph_of(unit(2)), graph_of(unit(3)), 1)


def test_restrict_output_slot_of_addition():
    for n in (2, 3, 4):
        L = graph_of(LatinOp(n, 2, cyclic_table(n)))
        for c in range(n):
            got = restrict(L, 3, c)
            assert got.cells == {(x, (c - x) % n) for x in range(n)}


def test_restrict_first_slot_of_ternary_addition():
    L = graph_of(LatinOp(3, 3, cyclic_table(3, d=3)))
    got = restrict(L, 1, 0)
    assert got == graph_of(LatinOp(3, 2, cyclic_table(3)))


def test_restrict_all_cubes_all_slots():
    for f in enumerate_all(3, 3):
        L = graph_of(f)
        for s in range(1, 5):
            for c in range(3):
                got = restrict(L, s, c)
                assert is_latin_cellset(got.cells, 3, 2)


def test_restrict_matches_cell_oracle():
    shapes = ((1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (2, 5))
    ops = [f for shape in shapes for f in enumerate_all(*shape)]
    ops += [random_latin(n, d, seed)
            for n, d in ((6, 2), (4, 3), (5, 3), (3, 4)) for seed in range(3)]
    for f in ops:
        L = graph_of(f)
        for s in range(1, f.d + 2):
            for c in range(f.n):
                assert restrict(L, s, c).cells == restrict_cells(L.cells, s, c)


def test_restrict_rejects_dimension_one():
    with pytest.raises(ValidationError):
        restrict(graph_of(unit(3)), 1, 0)


def test_restrict_rejects_out_of_range():
    L = graph_of(LatinOp(3, 2, cyclic_table(3)))
    with pytest.raises(ValidationError):
        restrict(L, 4, 0)
    with pytest.raises(ValidationError):
        restrict(L, 1, 3)


def test_restrict_commutes_with_paratopism_sampled():
    rng = random.Random(7)
    for f in itertools.islice(enumerate_all(4, 2), 0, 60, 7):
        L = graph_of(f)
        p = Paratopism.random(4, 2, rng)
        s = rng.randrange(1, 4)
        c = rng.randrange(4)
        # slot s, value c of p(L) come from slot s0 = p^-1(s), value c0
        s0 = p.slot_perm.index(s) + 1
        c0 = p.symbol_perms[s0 - 1].index(c)
        lhs = restrict(apply_paratopism(p, L), s, c)
        base = restrict(L, s0, c0)
        # induced paratopism on the remaining slots
        kept = [t for t in range(1, 4) if t != s0]
        ranks = sorted(p.slot_perm[t - 1] for t in kept)
        slots = tuple(ranks.index(p.slot_perm[t - 1]) + 1 for t in kept)
        perms = tuple(p.symbol_perms[t - 1] for t in kept)
        rhs = apply_paratopism(Paratopism(slots, perms), base)
        assert lhs == rhs


def test_join_uniqueness_guard():
    # degenerate duplicate-z scenarios cannot arise from valid cell
    # sets; the guard is exercised via the dict-based join on n=1
    L = graph_of(unit(1))
    assert pullback_compose(L, L, 1) == L


def test_function_of_round_trip_through_pullback():
    f = LatinOp(3, 2, cyclic_table(3))
    g = LatinOp(3, 1, (2, 0, 1))
    joined = pullback_compose(graph_of(f), graph_of(g), 2)
    assert function_of(joined) == compose_at(f, g, 2)
