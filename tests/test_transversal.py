import itertools
import random

import pytest
from hypothesis import given, strategies as st

from latinop import (
    DeltaReport,
    LatinOp,
    Paratopism,
    Transversal,
    ValidationError,
    alternating_sum,
    apply_paratopism,
    count_transversals,
    delta_check,
    find_transversals,
    graph_of,
)
from latinop import transversal
from latinop.cli import main
from latinop.enumeration import enumerate_all, random_latin

from oracles import (
    brute_transversals,
    brute_transversals_of_square,
    cells_alternating_sum,
    cyclic_table,
)


def cyclic_square(n):
    return graph_of(LatinOp(n, 2, cyclic_table(n)))


def test_cyclic_square_transversal_counts():
    assert count_transversals(cyclic_square(2)) == 0
    assert count_transversals(cyclic_square(3)) == 3
    assert count_transversals(cyclic_square(4)) == 0


def test_even_cyclic_obstruction():
    for n in (2, 4, 6):
        assert find_transversals(cyclic_square(n)) == []


def test_find_matches_brute_force_scan():
    for n in (2, 3, 4):
        for f in enumerate_all(n, 2):
            got = [t.cells for t in find_transversals(graph_of(f))]
            assert got == brute_transversals_of_square(n, f.table)


def test_canonical_order_and_limit():
    found = find_transversals(cyclic_square(5))
    assert len(found) == 15
    for t in found:
        assert [cell[0] for cell in t.cells] == list(range(5))
    assert found == sorted(found, key=lambda t: t.cells)
    assert find_transversals(cyclic_square(5), limit=4) == found[:4]
    assert find_transversals(cyclic_square(5), limit=0) == []


@pytest.mark.parametrize("ceiling, tails", [("1", [0, 0, 0, 0]), ("100", [2, 2, 1, 1])])
def test_tail_lowered_by_the_cell_ceiling_finds_the_same_transversals(monkeypatch, ceiling,
                                                                      tails):
    # the tail table, of 3 rows at order 7 and 2 at order 5 by default,
    # loses rows while its bound passes the ceiling
    cases = [cyclic_square(7), graph_of(random_latin(7, 2, 3)),
             graph_of(LatinOp(5, 3, cyclic_table(5, 3))), graph_of(random_latin(5, 3, 1))]
    want = [(find_transversals(L), count_transversals(L)) for L in cases]
    assert [transversal._tail_rows(L.n, L.d, None) for L in cases] == [3, 3, 2, 2]
    monkeypatch.setenv("LATINOP_CELL_CEILING", ceiling)
    assert [transversal._tail_rows(L.n, L.d, None) for L in cases] == tails
    assert [(find_transversals(L), count_transversals(L)) for L in cases] == want


# n <= 6 and d <= 4 where the brute-force scan of (n!)^(d-1) choices
# stays small; (6, 3) is left out because random_latin(6, 3) is refused
# by the budget
KERNEL_SHAPES = [(n, d) for d in (1, 2) for n in range(1, 7)] + [
    (n, d) for d in (3, 4) for n in range(1, 9 - d)
]


def kernel_cases():
    """Per shape: the cyclic table, a random table, and random paratopes
    of both (their graphs, with the tables of those graphs)."""
    rng = random.Random(5)
    for n, d in KERNEL_SHAPES:
        for f in (LatinOp(n, d, cyclic_table(n, d)), random_latin(n, d, n + d)):
            L = graph_of(f)
            yield n, d, L
            for _ in range(2):
                yield n, d, apply_paratopism(Paratopism.random(n, d, rng), L)


def test_kernel_matches_any_dimension_brute_force():
    for n, d, L in kernel_cases():
        want = brute_transversals(n, d, L.table)
        found = find_transversals(L)
        assert [t.cells for t in found] == want, (n, d, L.table)
        assert count_transversals(L) == len(want)
        # a search result, its sum carried from the search, is the
        # transversal its validating constructor builds from the cells
        for t in found:
            built = Transversal(n, d, t.cells)
            assert t == built and hash(t) == hash(built) and repr(t) == repr(built)
            assert delta_check(t) is delta_check(built)
        # every limit on small counts, the ends and the quartiles on large ones
        count = len(want)
        limits = range(count + 2) if count <= 64 else [
            0, 1, 2, count // 4, count // 2, 3 * count // 4, count - 1, count,
            count + 1,
        ]
        for limit in limits:
            assert find_transversals(L, limit=limit) == found[:limit]
            assert count_transversals(L, limit) == min(count, limit)


def test_even_orders_split_evenly():
    # n//2 tail rows: half the rows at even n, the heads one row longer
    # at odd n
    assert [transversal._tail_rows(n, 2, None) for n in range(1, 12)] == [
        0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


@pytest.mark.parametrize("row", [0, -1])
def test_delta_check_sums_the_chosen_cells(monkeypatch, row):
    # one cell's mask claims the next value of the last slot instead of
    # its own, so the search also returns cell sequences that repeat a
    # value; the sum each result carries must still be that of its
    # cells, which then misses the lemma's value.  A sum read from the
    # used-masks, or the closed form n(n-1)/2 per column, would pass them
    rows_of = transversal._rows

    def lying_rows(L):
        rows = rows_of(L)
        mask, cell, alt = rows[row][0]
        shift, v = (L.d - 1) * L.n, cell[-1]
        lie = 1 << shift + v | 1 << shift + (v + 1) % L.n
        rows[row][0] = (mask ^ lie, cell, alt)
        return rows

    monkeypatch.setattr(transversal, "_rows", lying_rows)
    for n in (5, 6, 7):
        repeats = [t for seed in range(1, 8)
                   for t in find_transversals(graph_of(random_latin(n, 2, seed)))
                   if len({c[-1] for c in t.cells}) < n]
        assert repeats, n
        for t in repeats:
            report = delta_check(t)
            assert report.computed == cells_alternating_sum(n, t.cells)
            assert not report.passed


def test_transversals_live_in_host():
    L = cyclic_square(3)
    for t in find_transversals(L):
        assert t.is_contained_in(L)
    other = graph_of(LatinOp(3, 2, (0, 2, 1, 2, 1, 0, 1, 0, 2)))
    assert not all(t.is_contained_in(other) for t in find_transversals(L))
    # the order and the dimension must fit the host too
    diagonal = Transversal(3, 1, ((0, 0), (1, 1), (2, 2)))
    assert diagonal.is_contained_in(graph_of(LatinOp(3, 1, (0, 1, 2))))
    assert not diagonal.is_contained_in(L)
    assert not diagonal.is_contained_in(graph_of(LatinOp(2, 1, (0, 1))))
    assert Transversal(2, 1, ((0, 0), (1, 1))).is_contained_in(
        graph_of(LatinOp(3, 1, (0, 1, 2)))
    )


def test_limit_search_past_the_recursion_limit(tmp_path, capsys):
    # order 1001 is deeper than Python's default recursion limit
    n = 1001
    path = tmp_path / "z1001.lhc"
    path.write_text(f"{n} 2\n" + "".join(
        " ".join(str((i + j) % n) for j in range(n)) + "\n" for i in range(n)
    ))
    assert main(["transversals", str(path), "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert out == "".join(f"{k} {k} {2 * k % n}\n" for k in range(n))


def test_transversal_validation():
    with pytest.raises(ValidationError, match="cells"):
        Transversal(3, 1, ((0, 0), (1, 1)))
    with pytest.raises(ValidationError, match="slot 2"):
        Transversal(2, 1, ((0, 0), (1, 0)))
    with pytest.raises(ValidationError, match="length"):
        Transversal(2, 1, ((0, 0, 0), (1, 1)))


def test_order_and_dimension_start_at_one():
    # core's shape rule: the degenerate transversals of order or dimension
    # 0 are refused, so neither the delta check nor the alternating sum
    # ever reduces mod 0
    for n, d, cells in [(0, 1, ()), (2, 0, ((0,), (1,))), (0, 0, ())]:
        with pytest.raises(ValidationError, match="must be >= 1, got 0"):
            Transversal(n, d, cells)
    with pytest.raises(ValidationError, match="carrier order must be >= 1, got 0"):
        delta_check(Transversal(1, 1, ((0, 0),)), 0)
    with pytest.raises(ValidationError, match="carrier order must be >= 1, got 0"):
        alternating_sum((), 0)
    assert alternating_sum((), 1) == 0


def test_alternating_sum_examples():
    assert alternating_sum((1, 2, 3), 5) == 2
    assert alternating_sum((0, 0, 0, 0), 7) == 0
    for n in (2, 3, 4):
        for x in range(n):
            assert alternating_sum((x, x), n) == 0


def test_alternating_sum_rejects_out_of_range():
    with pytest.raises(ValidationError):
        alternating_sum((0, 5), 3)


def test_delta_expected_values():
    # d odd -> 0; d even -> 0 for odd n, n/2 for even n
    t3 = find_transversals(cyclic_square(3))[0]
    assert delta_check(t3).expected == 0
    odd_d = Transversal(2, 1, ((0, 0), (1, 1)))
    assert delta_check(odd_d).expected == 0
    even_d_even_n = Transversal(
        4, 2, tuple((k, k, k) for k in range(4))
    )
    assert delta_check(even_d_even_n).expected == 2


def test_delta_reports_are_shared_values():
    t = Transversal(4, 2, tuple((k, k, k) for k in range(4)))
    u = find_transversals(cyclic_square(5))[3]
    first, again = delta_check(t), delta_check(Transversal(4, 2, t.cells))
    assert first is again and first.passed
    assert repr(first) == "DeltaReport(computed=2, expected=2)"
    assert delta_check(u) == DeltaReport(computed=0, expected=0)
    assert delta_check(u) != first


def test_delta_holds_for_all_transversals_in_squares():
    for n in (2, 3, 4):
        for f in enumerate_all(n, 2):
            for t in find_transversals(graph_of(f)):
                assert delta_check(t).passed


def test_delta_holds_without_host_hypercube():
    # the identity holds for any transversal of X^(d+1), hosted or not
    rng = random.Random(3)
    for n in (2, 3, 4, 5):
        for d in (1, 2, 3):
            for _ in range(50):
                cols = []
                for _s in range(d + 1):
                    col = list(range(n))
                    rng.shuffle(col)
                    cols.append(col)
                cells = tuple(
                    tuple(cols[s][k] for s in range(d + 1)) for k in range(n)
                )
                assert delta_check(Transversal(n, d, cells)).passed


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=4),
    st.randoms(use_true_random=False),
)
def test_delta_property_random_transversals(n, d, rnd):
    cols = []
    for _s in range(d + 1):
        col = list(range(n))
        rnd.shuffle(col)
        cols.append(col)
    cells = tuple(tuple(cols[s][k] for s in range(d + 1)) for k in range(n))
    report = delta_check(Transversal(n, d, cells))
    assert report.passed
    if d % 2 == 1 or n % 2 == 1:
        assert report.expected == 0
    else:
        assert report.expected == n // 2


def test_transversal_count_is_paratopism_invariant():
    rng = random.Random(11)
    for n in (3, 4, 5):
        f = LatinOp(n, 2, cyclic_table(n))
        L = graph_of(f)
        base = count_transversals(L)
        for _ in range(5):
            p = Paratopism.random(n, 2, rng)
            assert count_transversals(apply_paratopism(p, L)) == base


def test_delta_check_carrier_mismatch():
    # a given order is checked and matched against T's; with none, T's
    # own, checked where T was built, selects the shared report
    t = Transversal(2, 1, ((0, 0), (1, 1)))
    for n in (0, 2.0, True, "2"):
        with pytest.raises(ValidationError, match="carrier order must be >= 1"):
            delta_check(t, n)
    with pytest.raises(ValidationError, match="carrier mismatch: 3 != 2"):
        delta_check(t, 3)
    assert delta_check(t) is delta_check(t, 2) is transversal._delta_report(0, 0)
