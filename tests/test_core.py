import copy
import itertools
import pickle
import random

import pytest

from latinop import (
    CellSet,
    DeltaReport,
    GraphStats,
    HypercubeGraph,
    LatinOp,
    OperadReport,
    Paratopism,
    RawOp,
    SlotPermutation,
    Transversal,
    ValidationError,
    conjugate,
    delta_check,
    function_of,
    graph_of,
    graph_stats,
    hypercube_graph,
    is_latin,
    is_latin_cellset,
)
from latinop.core import _latin, _non_latin_slot, _trusted
from latinop.enumeration import enumerate_all
from latinop.operad import AxiomResult

from oracles import cyclic_table, first_non_latin_slot, table_is_latin


def test_is_latin_identity():
    assert is_latin(RawOp(3, 1, (0, 1, 2)))


def test_is_latin_addition_mod_3():
    assert is_latin(RawOp(3, 2, cyclic_table(3)))


def test_is_latin_rejects_multiplication_mod_2():
    # row x=0 is constant
    assert not is_latin(RawOp(2, 2, (0, 0, 0, 1)))


def test_is_latin_addition_mod_4_ternary():
    assert is_latin(RawOp(4, 3, cyclic_table(4, d=3)))


def test_is_latin_matches_definition_oracle():
    for n, d in [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)]:
        for table in itertools.product(range(n), repeat=n ** d):
            assert is_latin(RawOp(n, d, table)) == table_is_latin(n, d, table)


# every (n, d) with n <= 12, d <= 5 and n^d <= 5,000, and two orders far
# past the byte-per-cell path (n <= 8, d >= 2)
SCAN_SHAPES = [(n, d) for n in range(1, 13) for d in range(1, 6) if n ** d <= 5000]
SCAN_SHAPES += [(65, 2), (100, 2)]


def _constant_in_slot(n, d, s):
    """The table of the sum mod n of every argument but the one in slot s:
    Latin in each other slot, constant along slot s."""
    return tuple((sum(args) - args[s - 1]) % n
                 for args in itertools.product(range(n), repeat=d))


def _scan_tables(n, d, rng):
    """The cyclic table, a symbol-relabelled copy, copies with 1-3 random
    cells overwritten, a copy with two cells of one line swapped, and for
    each slot the table constant along it."""
    cyclic = cyclic_table(n, d)
    relabel = rng.sample(range(n), n)
    yield cyclic
    yield tuple(relabel[v] for v in cyclic)
    for k in (1, 2, 3):
        table = list(cyclic)
        for i in rng.sample(range(n ** d), min(k, n ** d)):
            table[i] = rng.randrange(n)
        yield tuple(table)
    if n > 1:
        a, s = rng.randrange(n ** d), rng.randrange(d)
        stride = n ** (d - 1 - s)
        x = a // stride % n
        b = a + ((x + rng.randrange(1, n)) % n - x) * stride  # a, with slot s+1 moved
        table = list(cyclic)
        table[a], table[b] = table[b], table[a]
        yield tuple(table)
    for s in range(1, d + 1):
        yield _constant_in_slot(n, d, s)


@pytest.mark.parametrize("n, d", SCAN_SHAPES)
def test_latin_scan_names_the_first_failing_slot(n, d):
    # each slot fails first for its constant table, so every answer of
    # the scan is met at each order above 1; lists are scanned as tuples
    rng = random.Random(1000 * n + d)
    met = set()
    for table in _scan_tables(n, d, rng):
        want = first_non_latin_slot(n, d, table)
        assert _non_latin_slot(n, d, table) == want
        assert _non_latin_slot(n, d, list(table)) == want
        met.add(want)
    assert met == (set(range(d + 1)) if n > 1 else {0})


@pytest.mark.parametrize("n, d", [
    pytest.param(8, 3, id="n=8, the full byte"),
    pytest.param(9, 2, id="n=9, the first order off the byte path"),
    pytest.param(6, 1, id="d=1, off the byte path"),
    pytest.param(1, 4, id="n=1, one symbol"),
])
def test_latin_scan_edges(n, d):
    # the first cell, the first holding symbol n-1, a middle and the last
    # cell overwritten with every symbol: at n = 8 the top bit of the byte
    # is lost and set, and the last byte of the int is written
    size = n ** d
    for i in sorted({0, n - 1, size // 2, size - 1}):
        for v in range(n):
            table = list(cyclic_table(n, d))
            table[i] = v
            assert _non_latin_slot(n, d, table) == first_non_latin_slot(n, d, table)


def test_cellset_names_the_oracle_slot():
    n, d = 8, 3
    perturbed = list(cyclic_table(n, d))
    perturbed[300] = (perturbed[300] + 5) % n
    for table in [perturbed] + [_constant_in_slot(n, d, s) for s in (1, 2, 3)]:
        cells = [args + (v,) for args, v in zip(itertools.product(range(n), repeat=d), table)]
        slot = first_non_latin_slot(n, d, table)
        assert slot
        with pytest.raises(ValidationError) as err:
            CellSet(n, d, cells)
        assert str(err.value) == f"slot {slot} projection is not bijective onto X^{d}"


@pytest.mark.parametrize("cls", [RawOp, LatinOp])
def test_tables_take_ints_only(cls):
    # a bool is an int to isinstance, and was emitted as "True False"
    for table, bad in [((True, False), True), ((0, True), True), ((1.0, 0), 1.0)]:
        with pytest.raises(ValidationError) as err:
            cls(2, 1, table)
        index = [type(v) is int for v in table].index(False)
        assert str(err.value) == f"table entry at index {index} out of range [0, 2): {bad!r}"


def test_rawop_validation_names_offending_index():
    with pytest.raises(ValidationError, match="length"):
        RawOp(2, 2, (0, 1, 0))
    with pytest.raises(ValidationError, match="index 2"):
        RawOp(2, 2, (0, 1, 5, 0))


@pytest.mark.parametrize("n, d", [(3, 2), (2, 3)])
def test_call_checks_each_argument(n, d):
    f = RawOp(n, d, cyclic_table(n, d=d))
    for k in range(d):
        for bad in (n, n + 2, -1, -n, 1.0, "0", None):
            args = [0] * d
            args[k] = bad
            with pytest.raises(ValidationError) as err:
                f(*args)
            assert str(err.value) == f"argument {k + 1} out of range [0, {n}): {bad!r}"
    for args in itertools.product(range(n), repeat=d):
        assert f(*args) == sum(args) % n
    for args in ([0] * (d - 1), [0] * (d + 1)):
        with pytest.raises(ValidationError, match=f"^expected {d} arguments, got {len(args)}$"):
            f(*args)


def test_latinop_rejects_non_latin():
    with pytest.raises(ValidationError, match="not Latin"):
        LatinOp(2, 2, (0, 1, 0, 1))


def test_latin_check_of_raw_op_matches_constructor():
    # _latin scans a RawOp for the Latin property only: same result, same message
    for n, d in [(1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3)]:
        for table in itertools.product(range(n), repeat=n ** d):
            raw = RawOp(n, d, table)
            try:
                expected = LatinOp(n, d, table)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as info:
                    _latin(raw)
                assert str(info.value) == str(exc)
            else:
                op = _latin(raw)
                assert type(op) is LatinOp and op == expected
                assert hash(op) == hash(expected)


def test_trusted_builds_are_the_validated_objects():
    # every class built trusted, from its field values in field order, is
    # the object its validating constructor builds, and has no __dict__
    objects = [
        RawOp(2, 2, (0, 0, 1, 0)),
        LatinOp(3, 2, cyclic_table(3)),
        CellSet(2, 1, [(0, 1), (1, 0)]),
        SlotPermutation(3, (2, 3, 1)),
        Paratopism((2, 1, 3), ((1, 0), (0, 1), (1, 0))),
        Transversal(3, 2, ((0, 0, 0), (1, 2, 1), (2, 1, 2))),
    ]
    for obj in objects:
        cls = type(obj)
        built = _trusted(cls, *(getattr(obj, name) for name in cls._fields + cls._hidden))
        assert type(built) is type(obj)
        assert built == obj and hash(built) == hash(obj) and repr(built) == repr(obj)
        assert not hasattr(obj, "__dict__") and not hasattr(built, "__dict__")


def _value_objects():
    """One object of each value type, each derived field filled."""
    L = LatinOp(3, 2, cyclic_table(3))
    T = Transversal(3, 2, ((0, 0, 0), (1, 2, 1), (2, 1, 2)))
    failed = AxiomResult("closure", 3)
    failed.fail("f=(0, 1)", (2, 1))
    return [
        RawOp(2, 2, (0, 0, 1, 0)),
        L,
        CellSet(2, 1, [(0, 1), (1, 0)]),  # cells kept from the constructor
        graph_of(L),                      # cells built on first use
        SlotPermutation(3, (2, 3, 1)),
        Paratopism((2, 1, 3), ((1, 0), (0, 1), (1, 0))),
        T,
        delta_check(T),
        failed,
        OperadReport(2, 1, {1: True}, [AxiomResult("unit", 4)]),
        hypercube_graph(graph_of(L)),
        graph_stats(graph_of(L)),
    ]


@pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
def test_value_types_survive_pickle_and_copies(how):
    # the rebuilt object is equal, of the same class, with the same repr
    # and hash, and keeps its derived fields: Transversal.alt_sum,
    # AxiomResult.key and CellSet.cells
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    rebuild = {
        "pickle": lambda obj: [pickle.loads(pickle.dumps(obj, p)) for p in protocols],
        "copy": lambda obj: [copy.copy(obj)],
        "deepcopy": lambda obj: [copy.deepcopy(obj)],
    }[how]
    for obj in _value_objects():
        for again in rebuild(obj):
            assert type(again) is type(obj) and again == obj and repr(again) == repr(obj)
            if type(obj).__hash__ is not None:
                assert hash(again) == hash(obj)
            for name in ("alt_sum", "key", "cells"):
                if hasattr(obj, name):
                    assert getattr(again, name) == getattr(obj, name), name
    assert {type(obj) for obj in _value_objects()} == {
        RawOp, LatinOp, CellSet, SlotPermutation, Paratopism, Transversal, DeltaReport,
        AxiomResult, OperadReport, HypercubeGraph, GraphStats,
    }


def test_value_types_equal_their_own_class_and_refuse_assignment():
    table = cyclic_table(3)
    assert LatinOp(3, 2, table) != RawOp(3, 2, table) and RawOp(3, 2, table) != LatinOp(3, 2, table)
    assert hash(LatinOp(3, 2, table)) == hash(RawOp(3, 2, table)) == hash((3, 2, table))
    for obj in _value_objects():
        if type(obj) in (AxiomResult, OperadReport):
            continue  # the verifier's reports are filled in as it runs
        for name in ("n", "alt_sum", "cells", "no_such_field"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(obj, name, 0)
        with pytest.raises(AttributeError, match="cannot delete field 'n'"):
            del obj.n


def test_graph_of_identity():
    assert graph_of(LatinOp(2, 1, (0, 1))).cells == {(0, 0), (1, 1)}


def test_graph_of_xor():
    cells = graph_of(LatinOp(2, 2, (0, 1, 1, 0))).cells
    assert cells == {(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)}


def test_graph_of_cyclic_shift():
    assert graph_of(LatinOp(3, 1, (1, 2, 0))).cells == {(0, 1), (1, 2), (2, 0)}


def test_function_of_inverts_graph_of():
    assert function_of(CellSet(2, 1, {(0, 0), (1, 1)})).table == (0, 1)
    xor = LatinOp(2, 2, (0, 1, 1, 0))
    assert function_of(graph_of(xor)) == xor


def test_function_of_rejects_bad_projection():
    with pytest.raises(ValidationError, match="slot 1"):
        CellSet(2, 1, {(0, 0), (1, 0)})


def test_round_trip_exhaustive_small():
    for n in (1, 2, 3):
        for d in (1, 2):
            for f in enumerate_all(n, d):
                assert function_of(graph_of(f)) == f


def test_is_latin_cellset_examples():
    L = graph_of(LatinOp(3, 2, cyclic_table(3)))
    assert is_latin_cellset(L.cells, 3, 2)
    full_cube = set(itertools.product(range(2), repeat=3))
    assert not is_latin_cellset(full_cube, 2, 2)
    assert not is_latin_cellset({(0, 0, 0), (1, 1, 1)}, 2, 2)


def test_is_latin_cellset_rejects_malformed():
    with pytest.raises(ValidationError):
        is_latin_cellset({(0, 0), (1, 1, 1)}, 2, 2)
    with pytest.raises(ValidationError):
        is_latin_cellset({(0, 0, 5), (1, 1, 1)}, 2, 2)


def test_is_latin_iff_graph_cellset():
    # for non-Latin f the padded graph fails some slot-s projection
    for n, d in [(2, 2), (3, 1), (2, 3)]:
        for table in itertools.product(range(n), repeat=n ** d):
            f = RawOp(n, d, table)
            cells = {
                args + (v,)
                for args, v in zip(itertools.product(range(n), repeat=d), table)
            }
            assert is_latin(f) == is_latin_cellset(cells, n, d)


def test_conjugate_degree1_is_inverse():
    for n in range(1, 7):
        for perm in itertools.permutations(range(n)):
            sigma = LatinOp(n, 1, perm)
            inv = conjugate(sigma, 1)
            assert all(inv.table[perm[x]] == x for x in range(n))


def test_conjugate_slot1_of_addition():
    for n in (2, 3, 4, 5):
        f = LatinOp(n, 2, cyclic_table(n))
        g = conjugate(f, 1)
        # re-extract from the cell set by brute force
        for y in range(n):
            for z in range(n):
                assert g(y, z) == (z - y) % n


def test_conjugate_output_slot_is_identity_operation():
    f = LatinOp(3, 2, cyclic_table(3))
    assert conjugate(f, 3) == f


def test_conjugate_last_argument_slot_is_involution():
    # conjugating the slot adjacent to the output swaps two cell
    # coordinates, so doing it twice restores f
    for n in (2, 3):
        for d in (1, 2):
            for f in enumerate_all(n, d):
                assert conjugate(conjugate(f, d), d) == f


def test_conjugate_matches_cell_permutation():
    from latinop import Paratopism, apply_paratopism

    for n in (2, 3):
        for d in (1, 2):
            for f in enumerate_all(n, d):
                for s in range(1, d + 2):
                    # conjugate moves slot s to the end, shifting the rest down
                    slots = [j if j < s else j - 1 for j in range(1, d + 2)]
                    slots[s - 1] = d + 1
                    p = Paratopism(
                        tuple(slots), tuple(tuple(range(n)) for _ in range(d + 1))
                    )
                    moved = apply_paratopism(p, graph_of(f))
                    assert moved == graph_of(conjugate(f, s))
                    # undoing the slot move recovers f
                    inv = [0] * (d + 1)
                    for j, t in enumerate(slots):
                        inv[t - 1] = j + 1
                    q = Paratopism(
                        tuple(inv), tuple(tuple(range(n)) for _ in range(d + 1))
                    )
                    assert apply_paratopism(q, moved) == graph_of(f)


def test_conjugate_slot_out_of_range():
    with pytest.raises(ValidationError):
        conjugate(LatinOp(2, 1, (0, 1)), 3)


def test_order_one_degenerate():
    for d in (1, 2, 3, 4):
        ops = list(enumerate_all(1, d))
        assert len(ops) == 1
        f = ops[0]
        assert is_latin(f)
        assert function_of(graph_of(f)) == f
        for s in range(1, d + 2):
            assert conjugate(f, s) == f
