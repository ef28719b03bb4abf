import hashlib
import itertools
import math
import random
import time

import pytest

from latinop import (
    CeilingError,
    CellSet,
    LatinOp,
    Paratopism,
    ValidationError,
    apply_paratopism,
    canonical_form,
    conjugate,
    count_all,
    enumerate_all,
    graph_of,
    is_latin,
    is_latin_cellset,
    orbit_census,
    paratopism_group_order,
    random_latin,
)

from latinop.enumeration import RANDOM_BUDGET, _layers, _line_geometry, _orbit, _search
from oracles import (
    count_by_generate_and_test,
    count_cubes_layered,
    count_squares_rowwise,
    cyclic_table,
    latin_tables_lex,
    line_geometry,
    paratope_cells,
    paratopism_orbit_cells,
)


def test_degree1_counts_are_factorials():
    for n in range(1, 9):
        assert count_all(n, 1) == math.factorial(n)


def test_order2_counts_are_two():
    for d in range(1, 7):
        assert count_all(2, d) == 2
        ops = list(enumerate_all(2, d))
        # the two ops are parity plus a constant
        parities = {
            tuple(sum(args) % 2 for args in itertools.product(range(2), repeat=d)),
            tuple((1 + sum(args)) % 2 for args in itertools.product(range(2), repeat=d)),
        }
        assert {op.table for op in ops} == parities


def test_counts_against_generate_and_test():
    for n, d in [(1, 1), (1, 3), (2, 2), (2, 3), (3, 1), (3, 2)]:
        assert count_all(n, d) == count_by_generate_and_test(n, d)


def test_square_counts_against_rowwise_oracle():
    for n in (4, 5):
        assert count_all(n, 2) == count_squares_rowwise(n)


def test_cube_count_against_layered_oracle():
    assert count_all(3, 3) == count_cubes_layered(3)
    assert count_all(2, 3) == count_cubes_layered(2)


# every shape whose count tier-1 checks, plus (3,4) and (4,3)
COUNTED_SHAPES = sorted(
    {(n, 1) for n in range(1, 9)} | {(2, d) for d in range(1, 7)}
    | {(1, 3), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (3, 4), (4, 3), (3, 7)}
)


def test_reduced_count_equals_plain_kernel_leaf_count():
    # count_all searches reduced tables only; enumerate_all stacks layers
    # under the layer budget and yields the plain kernel's tables in order
    for n, d in COUNTED_SHAPES:
        plain = map(tuple, _search(n, d))
        count = 0
        for op in enumerate_all(n, d):
            assert op.table == next(plain), (n, d, count)
            count += 1
        assert next(plain, None) is None, (n, d)
        assert count_all(n, d) == count, (n, d)


def test_layers_are_the_plain_kernel_tables():
    # _layers stacks each arity through the forced last layer; wherever
    # it returns a list, it holds the plain kernel's tables in order,
    # each with the mask of its (position, value) pairs
    shapes = [(n, d) for n in range(1, 8) for d in range(2, 7) if _layers(n, d) is not None]
    assert {(3, 6), (4, 3), (5, 2), (6, 2)} <= set(shapes)
    for n, d in shapes:
        layers = _layers(n, d)
        assert [t for _, t in layers] == [tuple(t) for t in _search(n, d - 1)], (n, d)
        assert all(m == sum(1 << p * n + v for p, v in enumerate(t)) for m, t in layers)


def test_layer_budget_switch_keeps_the_order():
    # over the budget enumerate_all searches cell by cell from the start,
    # so its first tables come at once and in the same order
    assert _layers(4, 3) is not None and _layers(5, 2) is not None
    for n, d in [(8, 2), (9, 2), (5, 3), (4, 4)]:
        assert _layers(n, d) is None, (n, d)
        tables = [op.table for op in itertools.islice(enumerate_all(n, d), 201)]
        assert tables == [tuple(t) for t in itertools.islice(_search(n, d), 201)], (n, d)


def test_line_geometry_matches_the_cell_by_cell_encoding():
    # the search's line indices, built from strides, against the
    # definition: each cell without its slot-s coordinate, encoded
    for n, d in [(1, 1), (1, 4), (2, 1), (3, 1), (2, 2), (4, 2), (3, 3), (5, 3), (2, 6), (3, 5)]:
        assert _line_geometry(n, d) == line_geometry(n, d), (n, d)


def test_reduced_search_finds_exactly_the_reduced_tables():
    # reduced: L(x * e_k) = x on every axis line through the origin
    for n, d in [(1, 1), (3, 1), (4, 1), (1, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4)]:
        axis = [(x * n ** (d - 1 - k), x) for k in range(d) for x in range(n)]
        plain = [op.table for op in enumerate_all(n, d)
                 if all(op.table[i] == x for i, x in axis)]
        pinned = [tuple(t) for t in _search(n, d, reduced=True)]
        assert pinned == plain, (n, d)


def test_published_counts():
    assert count_all(6, 2) == 812_851_200  # L(6), OEIS A002860
    # McKay and Wanless, "A census of small Latin hypercubes" (2008)
    assert count_all(4, 4) == 36_972_288


def test_enumerate_emits_latin_unique_lexicographic():
    for n, d in [(3, 2), (4, 1), (2, 4)]:
        tables = [op.table for op in enumerate_all(n, d)]
        assert len(tables) == len(set(tables)) == count_all(n, d)
        assert tables == sorted(tables)
        for op in enumerate_all(n, d):
            assert is_latin(op)


def test_enumerate_matches_lex_generate_and_test():
    for n, d in [(1, 1), (1, 3), (4, 1), (2, 5), (3, 2), (3, 3)]:
        assert [op.table for op in enumerate_all(n, d)] == latin_tables_lex(n, d)


def test_deep_shapes_need_no_recursion():
    # 2187 and 1024 cells: deeper than the interpreter's recursion limit
    assert count_all(3, 7) == 3 * 2 ** 7
    for n, d in [(4, 5), (2, 10)]:
        op = random_latin(n, d, seed=3)
        assert (op.n, op.d) == (n, d) and is_latin(op)
    # the layer lists are built one arity at a time, to any arity
    assert [op.table for op in enumerate_all(1, 3000, ceiling=2 ** 3000)] == [(0,)]


# Seeded outputs are part of the contract: a seed keeps giving the same
# table within a release.  The lazy draw from the candidate mask changed
# every seeded table once; these are the tables it gives.
RANDOM_TABLES = {
    (5, 2, 7): (1, 0, 3, 2, 4, 3, 2, 0, 4, 1, 0, 3, 4, 1, 2, 2, 4, 1, 0, 3,
                4, 1, 2, 3, 0),
    (4, 3, 1): (0, 3, 2, 1, 1, 0, 3, 2, 2, 1, 0, 3, 3, 2, 1, 0, 2, 1, 0, 3,
                0, 3, 2, 1, 3, 2, 1, 0, 1, 0, 3, 2, 1, 0, 3, 2, 3, 2, 1, 0,
                0, 3, 2, 1, 2, 1, 0, 3, 3, 2, 1, 0, 2, 1, 0, 3, 1, 0, 3, 2,
                0, 3, 2, 1),
}
RANDOM_TABLE_SHA256 = {
    (10, 2, 0): "2259e1fc75d0ea5d8bf361e348ff4185c2281c1c081ec639e10ce890ecd6c3f3",
    (13, 2, 5): "209e87b8d85eb2f6125b918760ffe6a23da1c131c47b0dfc0f91b0be68a69841",
    (5, 3, 2): "5ea093435ea0183984a02eb8ea41ab1f2f83194ac0a5215de70837b44b623f23",
    (3, 6, 1): "17cdddc531b18d72329017edd09d801d9d8a6c41cc1d1912a668384cb2e4e3c9",
}


def test_random_latin_pinned_tables():
    for (n, d, seed), table in RANDOM_TABLES.items():
        assert random_latin(n, d, seed=seed).table == table
    for (n, d, seed), digest in RANDOM_TABLE_SHA256.items():
        table = random_latin(n, d, seed=seed).table
        assert hashlib.sha256(repr(table).encode()).hexdigest() == digest


def test_cell_ceiling_refusal():
    with pytest.raises(CeilingError, match="ceiling"):
        count_all(10, 8)
    with pytest.raises(CeilingError):
        next(enumerate_all(3, 2, ceiling=8))


def test_search_line_indices_refused_at_once():
    # the 2^23 cells fit the default ceiling of 10^7, but their 23 line
    # indices each, which the search would hold, do not; 19 * 2^19 fit
    for search in (random_latin, count_all, lambda n, d: next(enumerate_all(n, d))):
        start = time.perf_counter()
        with pytest.raises(CeilingError, match=r"^d \* n\^d = 23 \* 2\^23 search line "
                                               r"indices exceed the ceiling of 10000000$"):
            search(2, 23)
        assert time.perf_counter() - start < 1
    with pytest.raises(CeilingError, match="search line indices"):
        random_latin(3, 3, ceiling=80)
    assert is_latin(random_latin(3, 3, ceiling=81))


# reduced Latin squares of order 1..9 (OEIS A000315)
REDUCED_SQUARES = [1, 1, 1, 4, 56, 9408, 16942080, 535281401856, 377597570964258816]


def test_square_counts_refused_by_the_permanent_bound(monkeypatch):
    # order 8 and up is refused at once at the default ceiling, with the
    # bound's formula in the message
    for n in (8, 9, 32):
        start = time.perf_counter()
        with pytest.raises(CeilingError, match=rf"^at least \(n!\)\^\(2n\) / \(n\^\(n\^2\) "
                                               rf"\* n! \* \(n-1\)!\) reduced squares of order "
                                               rf"{n} exceed the ceiling of 10000000$"):
            count_all(n, 2)
        assert time.perf_counter() - start < 1
    # up to order 7 the published count is the bound: order 7 is refused
    start = time.perf_counter()
    with pytest.raises(CeilingError, match="^16942080 reduced squares of order 7 exceed the "
                                           "ceiling of 10000000$"):
        count_all(7, 2)
    assert time.perf_counter() - start < 1
    # the bound stays below the true count: no ceiling that holds the
    # reduced squares refuses them (the search itself stubbed out)
    monkeypatch.setattr("latinop.enumeration._search", lambda *args, **kwargs: iter(()))
    for n, reduced in enumerate(REDUCED_SQUARES, 1):
        assert count_all(n, 2, ceiling=reduced) == 0
    # the least ceiling let through: the published count, then from
    # order 8 q^n / (n! * (n-1)!) rounded up
    for n, least in [(6, 9408), (7, 16942080), (8, 35499220)]:
        assert count_all(n, 2, ceiling=least) == 0
        with pytest.raises(CeilingError, match="reduced squares"):
            count_all(n, 2, ceiling=least - 1)


def test_cell_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("LATINOP_CELL_CEILING", "8")
    with pytest.raises(CeilingError):
        count_all(3, 2)


def test_random_latin_deterministic_and_latin():
    assert random_latin(5, 2, seed=42) == random_latin(5, 2, seed=42)
    for seed in range(200):
        assert is_latin(random_latin(5, 2, seed=seed))
    assert random_latin(1, 3).table == (0,)
    # built without a second scan, it is the op the constructor builds
    for n, d, seed in ((5, 2, 7), (3, 3, 1), (4, 3, 2), (2, 4, 3), (1, 3, 0)):
        op = random_latin(n, d, seed)
        assert op == LatinOp(n, d, random_latin(n, d, seed).table)


def test_random_latin_budget():
    # (6, 3) seldom completes within the backtrack budget: each seed
    # gives a Latin table or a refusal that names the budget, at once
    for seed in range(8):
        start = time.perf_counter()
        try:
            assert is_latin(random_latin(6, 3, seed))
        except CeilingError as exc:
            assert f"budget of {RANDOM_BUDGET} backtracks" in str(exc)
        assert time.perf_counter() - start < 5, seed
    for seed in range(20):
        assert is_latin(random_latin(5, 4, seed))


def test_paratopism_identity_acts_trivially():
    L = graph_of(LatinOp(3, 2, cyclic_table(3)))
    assert apply_paratopism(Paratopism.identity(3, 2), L) == L


def test_paratopism_slot_swap_inverts_permutation():
    sigma = LatinOp(4, 1, (2, 0, 3, 1))
    p = Paratopism((2, 1), (tuple(range(4)), tuple(range(4))))
    got = apply_paratopism(p, graph_of(sigma))
    assert got == graph_of(conjugate(sigma, 1))


def test_paratopism_preserves_latin_sampled():
    rng = random.Random(1)
    for k in range(200):
        L = graph_of(random_latin(4, 2, seed=k))
        p = Paratopism.random(4, 2, rng)
        assert is_latin_cellset(apply_paratopism(p, L).cells, 4, 2)


def test_paratopism_is_group_action():
    rng = random.Random(5)
    for k in range(30):
        L = graph_of(random_latin(3, 2, seed=100 + k))
        p = Paratopism.random(3, 2, rng)
        q = Paratopism.random(3, 2, rng)
        assert apply_paratopism(p, apply_paratopism(q, L)) == apply_paratopism(
            p.compose(q), L
        )


def test_paratopism_validation():
    with pytest.raises(ValidationError):
        Paratopism((1, 1), ((0, 1), (0, 1)))
    with pytest.raises(ValidationError):
        Paratopism((1, 2), ((0, 0), (0, 1)))
    with pytest.raises(ValidationError):  # symbol permutations of two orders
        Paratopism((1, 2), ((0, 1), (0, 1, 2)))
    with pytest.raises(ValidationError):  # dimension -1
        Paratopism((), ())
    with pytest.raises(ValidationError):  # dimension 0
        Paratopism((1,), ((0,),))
    with pytest.raises(ValidationError):  # order 0
        Paratopism((1, 2), ((), ()))
    with pytest.raises(ValidationError):  # an order-3 element after an order-2 one
        Paratopism((1, 2), ((1, 0, 2), (0, 1, 2))).compose(
            Paratopism((1, 2), ((0, 1), (0, 1))))
    with pytest.raises(ValidationError):
        Paratopism.identity(2, 1).compose(Paratopism.identity(2, 2))
    with pytest.raises(ValidationError, match="^expected 2 symbol permutations, got 1$"):
        Paratopism((1, 2), ((0, 1),))
    square = graph_of(LatinOp(3, 2, cyclic_table(3)))
    with pytest.raises(ValidationError, match=r"^dimension mismatch: 1 != 2$"):
        apply_paratopism(Paratopism.identity(3, 1), square)
    with pytest.raises(ValidationError, match="^symbol permutation order does not match"):
        apply_paratopism(Paratopism.identity(2, 2), square)


@pytest.mark.parametrize("symbols", [(1.0, 0.0), (1, 0.0), (True, False), (1, False)])
def test_paratopism_takes_int_symbols_only(symbols):
    # accepted, a float permutation made a trusted cell set whose table
    # emit_lhc wrote as "1.0 0.0" and find_transversals could not search
    with pytest.raises(ValidationError, match="is not a permutation of 0..1"):
        Paratopism((1, 2, 3), ((0, 1), (0, 1), symbols))
    with pytest.raises(ValidationError, match="is not a permutation of 1..3"):
        Paratopism((1, 2, 3.0), ((0, 1),) * 3)


def test_canonical_form_idempotent_and_orbit_constant():
    rng = random.Random(9)
    cases = [graph_of(LatinOp(3, 2, cyclic_table(3)))] + [
        graph_of(random_latin(n, d, seed=seed))
        for n, d in [(4, 2), (3, 3), (2, 4)]
        for seed in range(3)
    ]
    for L in cases:
        canon = canonical_form(L)
        assert canonical_form(canon) == canon
        for _ in range(10):
            p = Paratopism.random(L.n, L.d, rng)
            assert canonical_form(apply_paratopism(p, L)) == canon


def _table_of(cells):
    return tuple(cell[-1] for cell in sorted(cells))


def test_orbits_and_canonical_forms_match_cell_oracle():
    # At (4, 2) each orbit's first square and every 12th square are
    # checked: all 576 take about 12 s on a 2-CPU machine.
    for n, d in [(1, 2), (2, 1), (3, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
        oracle = {}  # table -> the oracle's orbit of it, as tables
        for k, op in enumerate(enumerate_all(n, d)):
            if op.table not in oracle:
                cells = graph_of(op).cells
                orbit = {_table_of(c) for c in paratopism_orbit_cells(n, d, cells)}
                oracle.update(dict.fromkeys(orbit, orbit))
            elif (n, d) == (4, 2) and k % 12:
                continue
            assert _orbit(n, d, op.table) == oracle[op.table]
            assert canonical_form(graph_of(op)).table == min(oracle[op.table])
        assert len(oracle) == count_all(n, d)


def test_apply_paratopism_matches_cell_oracle():
    rng = random.Random(17)
    for n in range(1, 5):
        for d in range(1, 5):
            for seed in range(3):
                L = graph_of(random_latin(n, d, seed=seed))
                p = Paratopism.random(n, d, rng)
                # and one that fixes the output slot, which the kernel gathers
                slots = list(range(1, d + 1))
                rng.shuffle(slots)
                q = Paratopism((*slots, d + 1), Paratopism.random(n, d, rng).symbol_perms)
                for r in (p, q):
                    image = paratope_cells(L.cells, r.slot_perm, r.symbol_perms)
                    assert apply_paratopism(r, L).cells == image


def test_canonical_form_ceiling():
    L = graph_of(LatinOp(5, 2, cyclic_table(5)))
    with pytest.raises(CeilingError):
        canonical_form(L)


def test_orbit_census_small_orders():
    assert sorted(orbit_census(2, 2).values()) == [2]
    assert sorted(orbit_census(3, 2).values()) == [12]
    assert sorted(orbit_census(4, 2).values()) == [144, 432]
    assert sorted(orbit_census(3, 3).values()) == [24]


def test_group_ceiling_refused_factor_by_factor():
    # each refused order has more digits than int-to-str conversion
    # allows, or takes long to build; none is built
    for n, d in [(700, 2), (2, 1500), (10 ** 7, 2), (1, 10 ** 9)]:
        start = time.perf_counter()
        with pytest.raises(CeilingError, match=r"^paratopism group order n!\^\(d\+1\) \* "
                                               rf"\(d\+1\)! = {n}!\^{d + 1} \* {d + 1}! "
                                               r"exceeds the ceiling of 100000$"):
            orbit_census(n, d)
        assert time.perf_counter() - start < 1
    # the order itself is the bound: 3!^3 * 3! = 1296 at (3, 2)
    assert paratopism_group_order(3, 2) == 1296
    with pytest.raises(CeilingError):
        orbit_census(3, 2, ceiling=1295)
    assert sum(orbit_census(3, 2, ceiling=1296).values()) == 12


def test_orbit_sizes_sum_and_divide_group_order():
    for n, d in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
        census = orbit_census(n, d)
        assert sum(census.values()) == count_all(n, d)
        order = paratopism_group_order(n, d)
        for size in census.values():
            assert order % size == 0


def test_census_keys_are_canonical_members():
    # (4, 2) has two classes, so a key met out of order would show there
    for n, d in [(3, 2), (4, 2), (2, 3), (3, 3)]:
        for canon in orbit_census(n, d):
            assert canonical_form(canon) == canon
            assert isinstance(canon, CellSet)
