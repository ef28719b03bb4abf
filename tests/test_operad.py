import itertools
import random
import tracemalloc

import pytest

from latinop import (
    CeilingError,
    LatinOp,
    RawOp,
    SlotPermutation,
    ValidationError,
    act,
    block_permutation,
    compose_at,
    compose_perm_at,
    conjugate,
    embed_permutation,
    graph_of,
    is_latin,
    pullback_compose,
    unit,
    verify_operad_axioms,
)
from latinop import operad
from latinop.enumeration import enumerate_all, random_latin
from latinop.core import _paratope
from latinop.operad import AxiomResult, _compose_table, _gather, _permuter

from oracles import (
    compose_permutations,
    compose_slot_permutations,
    cyclic_table,
    latin_tables_lex,
    operad_check_counts,
    table_is_latin,
)


def test_degree1_composition_is_permutation_composition():
    f = LatinOp(3, 1, (1, 2, 0))  # x+1
    g = LatinOp(3, 1, (2, 0, 1))  # x+2
    assert compose_at(f, g, 1).table == (0, 1, 2)


def test_degree1_reproduces_symmetric_group_table():
    for n in (3, 4):
        perms = list(itertools.permutations(range(n)))
        for p in perms:
            for q in perms:
                got = compose_at(LatinOp(n, 1, p), LatinOp(n, 1, q), 1)
                assert got.table == compose_permutations(p, q)


def test_degree1_group_unit_and_inverse():
    for n in (3, 4):
        e = unit(n)
        for p in itertools.permutations(range(n)):
            f = LatinOp(n, 1, p)
            assert compose_at(f, e, 1) == f
            assert compose_at(e, f, 1) == f
            inv = conjugate(f, 1)
            assert compose_at(f, inv, 1) == e
            assert compose_at(inv, f, 1) == e


def test_compose_addition_tables():
    for n in (2, 3, 4):
        f = LatinOp(n, 2, cyclic_table(n))
        got = compose_at(f, f, 2)
        assert got.table == cyclic_table(n, d=3)


def test_compose_against_pointwise_definition():
    f = random_latin(3, 2, seed=5)
    g = random_latin(3, 2, seed=11)
    for i in (1, 2):
        h = compose_at(f, g, i)
        for xs in itertools.product(range(3), repeat=3):
            if i == 1:
                expected = f(g(xs[0], xs[1]), xs[2])
            else:
                expected = f(xs[0], g(xs[1], xs[2]))
            assert h(*xs) == expected


def test_compose_unit_laws_all_ops():
    for n in (2, 3):
        e = unit(n)
        for d in (1, 2):
            for f in enumerate_all(n, d):
                assert compose_at(e, f, 1) == f
                for i in range(1, d + 1):
                    assert compose_at(f, e, i) == f


def test_table_kernels_match_pointwise_definition():
    # raw tables need not be Latin: the kernels only reindex (the
    # paratopism kernel gathers when the output slot stays), so the
    # verifier's gathers, the kernels applied to the cell indices, agree;
    # at order 1 a one-cell gather still returns a tuple
    rng = random.Random(0)
    for n in range(1, 5):
        for d in range(1, 4):
            f = RawOp(n, d, tuple(rng.randrange(n) for _ in range(n ** d)))
            cells = range(n ** d)
            for perm in itertools.permutations(range(1, d + 1)):
                got = _paratope(n, d, (*perm, d + 1), (range(n),) * (d + 1))(f.table)
                assert _permuter(n, cells, perm)(f.table) == got
                for idx, xs in enumerate(itertools.product(range(n), repeat=d)):
                    assert got[idx] == f(*(xs[p - 1] for p in perm))
            for e in range(1, 4):
                g = RawOp(n, e, tuple(rng.randrange(n) for _ in range(n ** e)))
                for i in range(1, d + 1):
                    got = _compose_table(n, d, f.table, e, g.table, i)
                    assert _gather(_compose_table(n, d, cells, e, g.table, i))(f.table) == got
                    points = itertools.product(range(n), repeat=d + e - 1)
                    for idx, xs in enumerate(points):
                        inner = g(*xs[i - 1:i - 1 + e])
                        assert got[idx] == f(*xs[:i - 1], inner, *xs[i - 1 + e:])


def test_conjugate_and_act_verify_raw_input():
    # moving the output slot assumes a Latin graph, so a non-Latin RawOp
    # must be refused, not mapped to some Latin table; compose_at trusts
    # its composite, so it must refuse a non-Latin operand on either side
    for n, d in ((2, 1), (3, 1), (2, 2), (3, 2)):
        sigmas = [SlotPermutation(d, p) for p in itertools.permutations(range(1, d + 1))]
        h = LatinOp(n, 2, cyclic_table(n))
        for table in itertools.product(range(n), repeat=n ** d):
            f = RawOp(n, d, table)
            if table_is_latin(n, d, table):
                latin = LatinOp(n, d, table)
                for s in range(1, d + 2):
                    assert conjugate(f, s) == conjugate(latin, s)
                for sigma in sigmas:
                    assert act(sigma, f) == act(sigma, latin)
                for i in range(1, d + 1):
                    assert compose_at(f, h, i) == compose_at(latin, h, i)
                for i in (1, 2):
                    got = compose_at(h, f, i)
                    assert got == compose_at(h, latin, i)
                    assert table_is_latin(n, d + 1, got.table)
                continue
            for s in range(1, d + 2):
                with pytest.raises(ValidationError, match="not Latin"):
                    conjugate(f, s)
            for sigma in sigmas:
                with pytest.raises(ValidationError, match="not Latin"):
                    act(sigma, f)
            for i in range(1, d + 1):
                with pytest.raises(ValidationError, match="not Latin"):
                    compose_at(f, h, i)
            for i in (1, 2):
                with pytest.raises(ValidationError, match="not Latin"):
                    compose_at(h, f, i)


def test_compose_errors():
    f = LatinOp(2, 2, (0, 1, 1, 0))
    with pytest.raises(ValidationError, match="carrier"):
        compose_at(f, unit(3), 1)
    with pytest.raises(ValidationError, match="slot"):
        compose_at(f, unit(2), 3)


def test_unit_tables():
    assert unit(1).table == (0,)
    assert unit(3).table == (0, 1, 2)


def test_act_identity():
    f = LatinOp(3, 2, cyclic_table(3))
    assert act(SlotPermutation.identity(2), f) == f


def test_act_swap_transposes():
    f = LatinOp(3, 2, tuple((x - y) % 3 for x in range(3) for y in range(3)))
    g = act(SlotPermutation(2, (2, 1)), f)
    for x in range(3):
        for y in range(3):
            assert g(x, y) == (y - x) % 3


def test_act_preserves_latin_sampled():
    import random

    rng = random.Random(0)
    for k in range(200):
        f = random_latin(4, 3, seed=k)
        perm = list(range(1, 4))
        rng.shuffle(perm)
        assert is_latin(act(SlotPermutation(3, tuple(perm)), f))


def test_act_is_left_action():
    f = random_latin(3, 3, seed=2)
    perms = [SlotPermutation(3, p) for p in itertools.permutations((1, 2, 3))]
    for sigma in perms:
        for tau in perms:
            assert act(sigma, act(tau, f)) == act(sigma.compose(tau), f)


def test_slot_permutation_validation():
    with pytest.raises(ValidationError):
        SlotPermutation(2, (1, 1))
    with pytest.raises(ValidationError):
        SlotPermutation(3, (0, 1, 2))
    with pytest.raises(ValidationError):  # the length refuses it before 1..d is built
        SlotPermutation(10 ** 12, (1,))
    with pytest.raises(ValidationError, match="^degree mismatch in permutation composition$"):
        SlotPermutation.identity(2).compose(SlotPermutation.identity(3))
    with pytest.raises(ValidationError, match=r"^degree mismatch: 3 != 2$"):
        act(SlotPermutation.identity(3), LatinOp(2, 2, (0, 1, 1, 0)))


@pytest.mark.parametrize("perm", [(2.0, 1), (2, 1.0), (True, 2), (2, True)])
def test_slot_permutation_takes_ints_only(perm):
    # floats and bools compare equal to ints, so sorting alone admits them
    with pytest.raises(ValidationError, match="is not a permutation of 1..2"):
        SlotPermutation(2, perm)


def test_block_permutation_identity():
    for d in (1, 2, 3):
        for e in (1, 2, 3):
            for i in range(1, d + 1):
                got = block_permutation(SlotPermutation.identity(d), i, e)
                assert got == SlotPermutation.identity(d + e - 1)


def test_block_permutation_swap_example():
    got = block_permutation(SlotPermutation(2, (2, 1)), 1, 2)
    assert got.perm == (3, 1, 2)


def test_block_permutation_singleton_block():
    sigma = SlotPermutation(3, (3, 1, 2))
    for i in (1, 2, 3):
        assert block_permutation(sigma, i, 1) == sigma


def test_equivariance_identities_small():
    n = 3
    ops = {d: list(enumerate_all(n, d)) for d in (1, 2)}
    for df, de in itertools.product((1, 2), repeat=2):
        for f in ops[df]:
            for g in ops[de]:
                for sigma_p in itertools.permutations(range(1, df + 1)):
                    sigma = SlotPermutation(df, sigma_p)
                    for k in range(1, df + 1):
                        lhs = compose_at(act(sigma, f), g, k)
                        rhs = act(
                            block_permutation(sigma, k, de),
                            compose_at(f, g, sigma.inverse()(k)),
                        )
                        assert lhs == rhs
                for tau_p in itertools.permutations(range(1, de + 1)):
                    tau = SlotPermutation(de, tau_p)
                    for i in range(1, df + 1):
                        lhs = compose_at(f, act(tau, g), i)
                        rhs = act(
                            embed_permutation(tau, i, df), compose_at(f, g, i)
                        )
                        assert lhs == rhs


def test_compose_perm_at_matches_block_and_embed():
    sigma = SlotPermutation(3, (2, 3, 1))
    tau = SlotPermutation(2, (2, 1))
    for i in (1, 2, 3):
        combined = compose_perm_at(sigma, tau, i)
        staged = block_permutation(sigma, i, 2).compose(
            embed_permutation(tau, sigma.inverse()(i), 3)
        )
        assert combined == staged


def test_compose_perm_at_matches_positional_oracle():
    for d, e in itertools.product(range(1, 5), repeat=2):
        for sigma_p in itertools.permutations(range(1, d + 1)):
            sigma = SlotPermutation(d, sigma_p)
            for tau_p in itertools.permutations(range(1, e + 1)):
                tau = SlotPermutation(e, tau_p)
                for i in range(1, d + 1):
                    got = compose_perm_at(sigma, tau, i)
                    assert got.perm == compose_slot_permutations(sigma_p, tau_p, i)
                for i in (0, d + 1):
                    with pytest.raises(ValidationError, match=f"slot {i} out of range 1..{d}"):
                        compose_perm_at(sigma, tau, i)
                    with pytest.raises(ValueError, match=f"slot {i} out of range 1..{d}"):
                        compose_slot_permutations(sigma_p, tau_p, i)


def test_verify_operad_axioms_exhaustive():
    for n, max_degree in [(2, 3), (3, 2)]:
        report = verify_operad_axioms(n, max_degree)
        assert report.ok, [r.witness for r in report.results if not r.passed]
        assert all(report.exhaustive.values())
        assert {r.axiom for r in report.results} == {
            "closure",
            "sequential-associativity",
            "parallel-associativity",
            "unit",
            "equivariance",
        }


def test_verify_operad_axioms_sampled_pools():
    report = verify_operad_axioms(4, 2, sample_budget=5, seed=1)
    assert report.ok
    assert not report.exhaustive[2]


def test_axiom_harness_reports_injected_fault():
    # flipping one entry of a composite must trip the closure check
    fault = AxiomResult("closure")
    f = LatinOp(2, 2, (0, 1, 1, 0))
    tampered = list(compose_at(f, f, 1).table)
    tampered[0] ^= 1
    if not is_latin(RawOp(2, 3, tuple(tampered))):
        fault.fail("witness")
    assert not fault.passed and fault.witness == "witness"


def test_verifier_reports_flipped_composites(monkeypatch):
    compose = operad._compose_table

    def flipped(n, d, ftab, e, gtab, i):
        tab = compose(n, d, ftab, e, gtab, i)
        return (tab[0] ^ 1,) + tab[1:] if d + e - 1 == 3 else tab

    monkeypatch.setattr(operad, "_compose_table", flipped)
    report = verify_operad_axioms(2, 2)
    assert {r.axiom: r.passed for r in report.results} == {
        "closure": False,
        "sequential-associativity": False,
        "parallel-associativity": False,
        "unit": True,
        "equivariance": True,
    }
    # the closure and parallel-associativity witnesses are the first
    # failing (f, g, i) and (f, g, h, i, k) in pool order, whatever order
    # the verifier's loops run in
    for max_degree, closure in [
        (2, "f=(0, 1, 1, 0) g=(0, 1, 1, 0) i=1"),
        (3, "f=(0, 1) g=(0, 1, 1, 0, 1, 0, 0, 1) i=1"),
    ]:
        witnesses = {r.axiom: r.witness for r in verify_operad_axioms(2, max_degree).results}
        assert witnesses["closure"] == closure
        assert witnesses["parallel-associativity"] == (
            "f=(0, 1, 1, 0) g=(1, 0) h=(0, 1, 1, 0) i=1 k=2")


def test_verifier_witnesses_the_least_failing_sequential_tuple(monkeypatch):
    # the same injected fault; its sequential-associativity witness is the
    # first failing (f, g, h, i, j) in pool order, whatever order the
    # verifier's loops run in
    compose = operad._compose_table

    def flipped(n, d, ftab, e, gtab, i):
        tab = compose(n, d, ftab, e, gtab, i)
        return (tab[0] ^ 1,) + tab[1:] if d + e - 1 == 3 else tab

    monkeypatch.setattr(operad, "_compose_table", flipped)
    for max_degree, witness in [
        (2, "f=(0, 1) g=(0, 1, 1, 0) h=(0, 1, 1, 0) i=1 j=1"),
        (3, "f=(0, 1) g=(0, 1) h=(0, 1, 1, 0, 1, 0, 0, 1) i=1 j=1"),
    ]:
        report = verify_operad_axioms(2, max_degree)
        assert {r.axiom: r.witness for r in report.results}["sequential-associativity"] == witness


def test_verifier_sweeps_the_pool_where_a_law_fails_on_some_operations(monkeypatch):
    # swapping cells (0, 0) and (1, 1) of every order-3 square composed
    # with g = (1, 2, 0) moves two cell indices, so those laws differ on
    # the index table; the swap shows only for the f whose two cells hold
    # different symbols, so the sweep over f meets passing and failing f
    compose = operad._compose_table

    def swapped(n, d, ftab, e, gtab, i):
        tab = list(compose(n, d, ftab, e, gtab, i))
        if n == 3 and d + e - 1 == 2 and gtab == (1, 2, 0):
            tab[0], tab[4] = tab[4], tab[0]
        return tuple(tab)

    monkeypatch.setattr(operad, "_compose_table", swapped)
    report = verify_operad_axioms(3, 2)
    assert {r.axiom: r.witness for r in report.results} == {
        "closure": "f=(0, 1, 2, 1, 2, 0, 2, 0, 1) g=(1, 2, 0) i=1",
        "sequential-associativity":
            "f=(0, 1, 2, 1, 2, 0, 2, 0, 1) g=(0, 2, 1) h=(2, 1, 0) i=1 j=1",
        "parallel-associativity":
            "f=(0, 1, 2, 1, 2, 0, 2, 0, 1) g=(0, 2, 1) h=(1, 2, 0) i=1 k=2",
        "unit": None,
        "equivariance": None,
    }
    assert {r.axiom: r.checks for r in report.results} == operad_check_counts(
        {d: len(latin_tables_lex(3, d)) for d in (1, 2)})


def test_verifier_reports_act_ignoring_permutation(monkeypatch):
    monkeypatch.setattr(operad, "_paratope", lambda n, d, slots, symbols: tuple)
    report = verify_operad_axioms(3, 2)
    assert {r.axiom: r.witness for r in report.results if not r.passed} == {
        "equivariance": "outer f=(0, 1, 2, 1, 2, 0, 2, 0, 1) g=(0, 2, 1) sigma=(2, 1) k=1"
    }


def test_verifier_witnesses_a_fault_of_inner_equivariance_alone(monkeypatch):
    # embedding tau as the identity breaks f o_i act(tau, g) ==
    # act(embed(tau, i, d), f o_i g) and no other identity; at order 2
    # every operation is symmetric, so the fault shows from order 3
    monkeypatch.setattr(operad, "embed_permutation",
                        lambda tau, i, d: SlotPermutation.identity(d + tau.d - 1))
    assert verify_operad_axioms(2, 3).ok
    report = verify_operad_axioms(3, 2)
    assert {r.axiom: r.witness for r in report.results if not r.passed} == {
        "equivariance": "inner f=(0, 1, 2) g=(0, 1, 2, 2, 0, 1, 1, 2, 0) tau=(2, 1) i=1"
    }
    assert {r.axiom: r.checks for r in report.results} == operad_check_counts(
        {d: len(latin_tables_lex(3, d)) for d in (1, 2)})


def test_axiom_result_keeps_the_witness_of_the_least_key():
    result = AxiomResult("equivariance")
    for witness, key in [("b", (1, 0)), ("a", (0, 5)), ("c", (0, 5)), ("d", (2,))]:
        result.fail(witness, key)
    assert not result.passed and result.witness == "a"


def test_composite_ceilings(monkeypatch):
    f = LatinOp(3, 2, cyclic_table(3))
    monkeypatch.setenv("LATINOP_CELL_CEILING", "26")  # 3^3 composite cells
    with pytest.raises(CeilingError):
        compose_at(f, f, 1)
    with pytest.raises(CeilingError):
        pullback_compose(graph_of(f), graph_of(f), 1)
    # (3, 1) pools: 36 pairs of 3-cell composites
    monkeypatch.setenv("LATINOP_CELL_CEILING", "107")
    with pytest.raises(CeilingError):
        verify_operad_axioms(3, 1)
    monkeypatch.setenv("LATINOP_CELL_CEILING", "108")
    assert verify_operad_axioms(3, 1).ok


def test_verifier_refuses_its_permutation_lists_over_the_ceiling(monkeypatch):
    # the slot permutations of degrees 1..m hold sum(deg! * deg) =
    # (m + 1)! - 1 entries, compared with the ceiling on their own
    with pytest.raises(CeilingError, match=r"= 39916799 slot permutation entries"):
        verify_operad_axioms(1, 10)
    # (1, 3): 18 composite cells, 23 permutation entries
    monkeypatch.setenv("LATINOP_CELL_CEILING", "22")
    with pytest.raises(CeilingError, match=r"= 23 slot permutation entries of degrees 1..3"):
        verify_operad_axioms(1, 3)
    monkeypatch.setenv("LATINOP_CELL_CEILING", "23")
    assert verify_operad_axioms(1, 3).ok


@pytest.mark.parametrize("n, max_degree", [
    (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (4, 1),
    (3, 3),
])
def test_verifier_check_counts_match_the_closed_form(n, max_degree):
    # at (3, 3) the 576 cubes exceed the default budget of 200, so that
    # pool is a sample of 200
    report = verify_operad_axioms(n, max_degree)
    counts = {d: len(latin_tables_lex(n, d)) for d in range(1, max_degree + 1)}
    assert report.ok and report.exhaustive == {d: c <= 200 for d, c in counts.items()}
    pools = {d: min(c, 200) for d, c in counts.items()}
    assert {r.axiom: r.checks for r in report.results} == operad_check_counts(pools)


def test_verifier_memory_stays_within_one_pass():
    for args, pools, limit in [
        # the slot-permutation sweeps keep one permutation's acted operands
        # and composite gathers at a time, not every permutation's at once
        ((1, 5), {d: 1 for d in range(1, 6)}, 2 ** 20),
        # the closure check keeps one pool composite at a time, not all
        ((4, 2, 20), {1: 20, 2: 20}, 2 ** 19),
    ]:
        tracemalloc.start()
        try:
            report = verify_operad_axioms(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, (args, peak)
        assert {r.axiom: r.checks for r in report.results} == operad_check_counts(pools)


def test_verifier_holds_one_pass_of_slot_permutation_gathers(monkeypatch):
    # each gather is counted while it lives; a pass of a degree-d slot
    # permutation sigma uses sigma's, at most d * D block and D(D+1)/2
    # embed permutations', D the max-degree, and no other pass's
    live = {"now": 0, "most": 0}

    class Counted:
        def __init__(self, gather):
            self.gather = gather
            live["now"] += 1
            live["most"] = max(live["most"], live["now"])

        def __call__(self, table):
            return self.gather(table)

        def __del__(self):
            live["now"] -= 1

    monkeypatch.setattr(operad, "_permuter", lambda *args: Counted(_permuter(*args)))
    for n, D in [(1, 5), (2, 3)]:
        live["most"] = 0
        report = verify_operad_axioms(n, D)
        assert report.ok
        assert live["now"] == 0
        assert 0 < live["most"] <= 1 + D * D + D * (D + 1) // 2, (n, D)


def test_verifier_refuses_an_empty_verification():
    for max_degree, budget in [(0, 200), (-1, 200), (2, 0), (2, -2), (0, 0)]:
        with pytest.raises(ValidationError, match="must be >= 1"):
            verify_operad_axioms(3, max_degree, sample_budget=budget)


def test_verifier_checks_its_largest_composite_first():
    # order 1 has one table per arity; the largest composite, of arity
    # 2 * 13 - 1 = 25, is refused before any pool is built
    with pytest.raises(CeilingError, match="arity 25 exceeds the bit length"):
        verify_operad_axioms(1, 13)
    with pytest.raises(CeilingError, match=r"n\^d = 2\^25"):
        verify_operad_axioms(2, 13)


def test_closure_exhaustive_small_orders():
    for n in (2, 3):
        ops = {d: list(enumerate_all(n, d)) for d in (1, 2)}
        for df, de in itertools.product((1, 2), repeat=2):
            for f in ops[df]:
                for g in ops[de]:
                    for i in range(1, df + 1):
                        assert is_latin(compose_at(f, g, i))
