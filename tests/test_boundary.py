"""Input checks at the library boundary: one int rule for every integer
a caller passes in, one slot check, and the Latin gate on every
function that builds a verified hypercube from its operand."""
import itertools
import random

import pytest

from latinop import (
    CeilingError,
    CellSet,
    DeltaReport,
    LatinOp,
    Paratopism,
    RawOp,
    SlotPermutation,
    Transversal,
    ValidationError,
    alternating_sum,
    apply_paratopism,
    automorphisms,
    block_permutation,
    canonical_form,
    compose_at,
    compose_perm_at,
    conjugate,
    count_all,
    count_transversals,
    delta_check,
    embed_permutation,
    enumerate_all,
    find_transversals,
    function_of,
    graph_of,
    graph_stats,
    hypercube_graph,
    is_homomorphism,
    is_latin_cellset,
    orbit_census,
    paratopism_group_order,
    projection_tau,
    pullback_compose,
    random_latin,
    restrict,
    unit,
    verify_operad_axioms,
)

from latinop.cellgraph import edge_list_lines
from oracles import table_is_latin

XOR = LatinOp(2, 2, (0, 1, 1, 0))
XOR3 = LatinOp(2, 3, (0, 1, 1, 0, 1, 0, 0, 1))  # x ^ y ^ z
IDENTITY = LatinOp(2, 1, (0, 1))
SHIFT = LatinOp(2, 1, (1, 0))
SWAP = SlotPermutation(2, (2, 1))
Z3 = LatinOp(3, 2, (0, 1, 2, 1, 2, 0, 2, 0, 1))  # x + y mod 3

# name: (a call taking the value v, a further value refused for v: an
# out-of-range int, or 2.5 where every int is in range, the result when v
# is the int 1 or the error it raises past the int rule); True and 1.0
# compare equal to 1, so only the rule that a value is an int proper
# refuses them.  A ceiling is an int >= 1, from an argument as from the
# environment, so 0 is refused, not taken as a ceiling nothing fits under
ENTRY_POINTS = {
    "RawOp order": (lambda v: RawOp(v, 1, (0,)), 0, RawOp(1, 1, (0,))),
    "RawOp arity": (lambda v: RawOp(2, v, (0, 1)), 0, RawOp(2, 1, (0, 1))),
    "RawOp entry": (lambda v: RawOp(2, 1, (0, v)), 2, RawOp(2, 1, (0, 1))),
    "call argument": (lambda v: XOR(v, 0), 2, 1),
    "CellSet order": (lambda v: CellSet(v, 1, [(0, 0)]), 0, graph_of(LatinOp(1, 1, (0,)))),
    "CellSet dimension": (lambda v: CellSet(2, v, [(0, 0), (1, 1)]), 0, graph_of(IDENTITY)),
    "CellSet cell": (lambda v: CellSet(2, 1, [(0, v), (v, 0)]), 2, graph_of(SHIFT)),
    "is_latin_cellset order": (lambda v: is_latin_cellset([(0, 0)], v, 1), 0, True),
    "is_latin_cellset cell": (lambda v: is_latin_cellset([(0, v), (v, 0)], 2, 1), 2, True),
    "Transversal cell": (lambda v: Transversal(2, 1, [(0, v), (v, 0)]).cells, 2,
                         ((0, 1), (1, 0))),
    "Transversal order": (lambda v: Transversal(v, 1, [(0, 0)]).cells, 0, ((0, 0),)),
    "Transversal dimension": (lambda v: Transversal(2, v, [(0, 1), (1, 0)]).cells, 0,
                              ((0, 1), (1, 0))),
    "delta_check order": (lambda v: delta_check(Transversal(1, 1, [(0, 0)]), v), 0,
                          DeltaReport(computed=0, expected=0)),
    "count_all order": (lambda v: count_all(v, 2), 0, 1),
    "count_all arity": (lambda v: count_all(2, v), 0, 2),
    "enumerate_all order": (lambda v: list(enumerate_all(v, 1)), 0, [LatinOp(1, 1, (0,))]),
    "random_latin arity": (lambda v: random_latin(2, v), 0, LatinOp(2, 1, (1, 0))),
    "orbit_census arity": (lambda v: len(orbit_census(2, v)), 0, 1),
    "alternating_sum entry": (lambda v: alternating_sum((0, v), 2), 2, 1),
    "alternating_sum order": (lambda v: alternating_sum((0, 0), v), 0, 0),
    "paratopism_group_order order": (lambda v: paratopism_group_order(v, 1), 0, 2),
    "paratopism_group_order dimension": (lambda v: paratopism_group_order(2, v), 0, 8),
    "is_homomorphism map value": (lambda v: is_homomorphism((0, v), IDENTITY, IDENTITY), 2,
                                  True),
    "restrict constant": (lambda v: restrict(graph_of(XOR), 1, v), 2, graph_of(SHIFT)),
    "restrict slot": (lambda v: restrict(graph_of(XOR), v, 0), 4, graph_of(IDENTITY)),
    "SlotPermutation degree": (lambda v: SlotPermutation(v, (1,)).perm, 0, (1,)),
    "SlotPermutation entry": (lambda v: SlotPermutation(2, (v, 2)).perm, 3, (1, 2)),
    "SlotPermutation.identity degree": (lambda v: SlotPermutation.identity(v).perm, 0, (1,)),
    "Paratopism.identity order": (lambda v: Paratopism.identity(v, 1).symbol_perms, 0,
                                  ((0,), (0,))),
    "Paratopism.random dimension": (lambda v: Paratopism.random(2, v, random.Random(0)).d, 0,
                                    1),
    "unit order": (lambda v: unit(v), 0, LatinOp(1, 1, (0,))),
    "Paratopism symbol": (lambda v: Paratopism((1, 2), ((0, v), (v, 0))).symbol_perms, 2,
                          ((0, 1), (1, 0))),
    "compose_at slot": (lambda v: compose_at(XOR, XOR, v), 3, XOR3),
    "pullback_compose slot": (lambda v: pullback_compose(graph_of(XOR), graph_of(XOR), v), 3,
                              graph_of(XOR3)),
    "compose_perm_at slot": (lambda v: compose_perm_at(SWAP, SlotPermutation(1, (1,)), v).perm,
                             3, (2, 1)),
    "block_permutation degree": (lambda v: block_permutation(SWAP, 1, v).perm, 0, (2, 1)),
    "embed_permutation degree": (lambda v: embed_permutation(SlotPermutation(1, (1,)), 1, v).perm,
                                 0, (1,)),
    "conjugate slot": (lambda v: conjugate(XOR, v), 4, XOR),
    "projection_tau slot": (lambda v: projection_tau((5, 7), v), 3, (7,)),
    "verify_operad_axioms degree": (lambda v: verify_operad_axioms(2, v).ok, 0, True),
    "count_all ceiling": (lambda v: count_all(1, 1, ceiling=v), 0, 1),
    "enumerate_all ceiling": (lambda v: list(enumerate_all(1, 1, ceiling=v)), 0,
                              [LatinOp(1, 1, (0,))]),
    "canonical_form ceiling": (lambda v: canonical_form(graph_of(IDENTITY), v), 0,
                               CeilingError),
    "automorphisms ceiling": (lambda v: automorphisms(LatinOp(1, 1, (0,)), v), 0, [(0,)]),
    "find_transversals limit": (lambda v: find_transversals(graph_of(Z3), v), 2.5,
                                [Transversal(3, 2, ((0, 0, 0), (1, 1, 2), (2, 2, 1)))]),
    "count_transversals limit": (lambda v: count_transversals(graph_of(Z3), v), 2.5, 1),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_one_int_rule(name):
    # a bool, a float or an out-of-range int is refused with a
    # ValidationError, never a TypeError, an AttributeError or a bare
    # ValueError from inside a kernel; the int itself is accepted
    call, refused, expected = ENTRY_POINTS[name]
    for bad in (True, 1.0, refused):
        with pytest.raises(ValidationError):
            call(bad)
    if isinstance(expected, type):
        with pytest.raises(expected):
            call(1)
    else:
        assert call(1) == expected


def test_latin_gate_on_raw_input():
    # each of these builds a verified hypercube from its operand, so a
    # non-Latin RawOp is refused, and a Latin one gives what its CellSet
    # gives; restriction refuses dimension 1 before it looks at the table
    for n, d in ((2, 1), (3, 1), (2, 2), (3, 2)):
        p = Paratopism.random(n, d, random.Random(10 * n + d))
        shift = graph_of(LatinOp(n, 1, tuple((x + 1) % n for x in range(n))))
        calls = [lambda L: apply_paratopism(p, L), canonical_form, graph_stats,
                 hypercube_graph, lambda L: list(edge_list_lines(L)), function_of,
                 lambda L: pullback_compose(L, shift, d),
                 lambda L: pullback_compose(shift, L, 1)]
        if d >= 2:
            calls += [lambda L, s=s, c=c: restrict(L, s, c)
                      for s in range(1, d + 2) for c in range(n)]
        for table in itertools.product(range(n), repeat=n ** d):
            f = RawOp(n, d, table)
            if table_is_latin(n, d, table):
                L = graph_of(LatinOp(n, d, table))
                for call in calls:
                    assert call(f) == call(L)
                continue
            for call in calls:
                with pytest.raises(ValidationError, match="not Latin"):
                    call(f)
