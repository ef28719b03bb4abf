"""The four workloads: seeded inputs, the timed ops with their reference
checks, a warm-up, and the contract probes.

Each workload's op list has a fixed mix of shapes (kind, order,
dimension); the seed picks the concrete tables, slots and seeds.  The
cost of a pass therefore depends little on the seed, while no two seeds
run the same inputs.  Inputs are generated here, not by the library, so
a change to the library's own generators cannot change them.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as R
from harness import Op, Probe

PROBE_CHILD = Path(__file__).resolve().parent / "probe_child.py"


# --- input generation -------------------------------------------------------

def random_square(n: int, rng: random.Random) -> tuple:
    """A Latin square built row by row: each row is a random perfect
    matching of columns to the symbols still free in them (one always
    exists, by Hall's theorem).  Seeded; not uniform."""
    free = [(1 << n) - 1] * n
    rows = []
    for _ in range(n):
        owner = [None] * n  # symbol -> column

        def augment(col, seen):
            symbols = [s for s in range(n) if free[col] >> s & 1]
            rng.shuffle(symbols)
            for s in symbols:
                if s not in seen:
                    seen.add(s)
                    if owner[s] is None or augment(owner[s], seen):
                        owner[s] = col
                        return True
            return False

        cols = list(range(n))
        rng.shuffle(cols)
        for col in cols:
            augment(col, set())
        row = [0] * n
        for s, col in enumerate(owner):
            row[col] = s
            free[col] &= ~(1 << s)
        rows.append(row)
    rng.shuffle(rows)
    return tuple(v for row in rows for v in row)


def cyclic(n: int, d: int = 2) -> tuple:
    return tuple(sum(args) % n for args in R.points(n, d))


def elementary(p: int, k: int) -> tuple:
    """Cayley table of (Z/p)^k, elements numbered by base-p digits."""
    n = p ** k

    def add(x, y):
        out, place = 0, 1
        for _ in range(k):
            out += ((x % p + y % p) % p) * place
            x, y, place = x // p, y // p, place * p
        return out

    return tuple(add(x, y) for x in range(n) for y in range(n))


def paratope(n: int, d: int, table, rng: random.Random, *, symbols="each", slots=True) -> tuple:
    """A random image under the paratopism group.  ``symbols`` is "each"
    (an independent relabelling per slot, an isotope) or "same" (one
    relabelling for all slots, an isomorph); ``slots`` also permutes the
    slots."""
    one = rng.sample(range(n), n)
    perms = [one if symbols == "same" else rng.sample(range(n), n) for _ in range(d + 1)]
    order = rng.sample(range(d + 1), d + 1) if slots else list(range(d + 1))
    moved = {tuple(perms[s][c[s]] for s in order) for c in R.cells(n, d, table)}
    return R.table_of_cells(n, d, moved)


def composed(n: int, degrees, rng: random.Random) -> tuple:
    """A random hypercube of dimension sum(degrees) - len(degrees) + 1,
    composed from random squares (degree 2) and cubes (degree 3), then
    moved to a random paratope."""
    def operand(e):
        if e == 2:
            return random_square(n, rng)
        return R.compose(n, 2, random_square(n, rng), 2, random_square(n, rng), rng.randint(1, 2))

    d, table = degrees[0], operand(degrees[0])
    for e in degrees[1:]:
        table = R.compose(n, d, table, e, operand(e), rng.randint(1, d))
        d += e - 1
    return paratope(n, d, table, rng)


def non_latin(n: int, d: int, rng: random.Random) -> tuple:
    table = list(random_square(n, rng)) if d == 2 else list(cyclic(n, d))
    a, b = rng.sample(range(len(table)), 2)
    while table[a] == table[b]:
        a, b = rng.sample(range(len(table)), 2)
    table[a] = table[b]
    return tuple(table)


def first_error(*checks):
    """The first failure message among (condition, message) pairs."""
    for ok, message in checks:
        if not ok:
            return message
    return None


# --- analyze ---------------------------------------------------------------

def _analyze_inputs(rng):
    """(label, n, d, table, transversals, automorphisms, canonical group)."""
    items = []
    for n, count in ((7, 3), (8, 3), (9, 3), (10, 4), (11, 2)):
        for _ in range(count):
            items.append((f"random-{n}", n, 2, random_square(n, rng), None, None, None))
    for n in (5, 7, 8, 9, 10, 11):
        # isomorphs keep the automorphism group (phi(n) elements); above
        # the automorphism ceiling a general isotope is used
        kind = "same" if n <= 8 else "each"
        count = R.CYCLIC_TRANSVERSALS.get(n, 0)
        autos = R.euler_phi(n) if n <= 8 else None
        items.append((f"cyclic-{n}", n, 2, paratope(n, 2, cyclic(n), rng, symbols=kind, slots=False),
                      count, autos, None))
    for p, k in ((2, 2), (2, 3), (3, 2)):
        n = p ** k
        kind = "same" if n <= 8 else "each"
        items.append((f"elementary-{p}^{k}", n, 2,
                      paratope(n, 2, elementary(p, k), rng, symbols=kind, slots=False),
                      R.ELEMENTARY_TRANSVERSALS[p, k], R.ELEMENTARY_AUTOMORPHISMS.get((p, k)), None))
    for group, base in (("cyclic", cyclic(4)), ("elementary", elementary(2, 2))):
        for _ in range(3):
            items.append((f"class-4-{group}", 4, 2, paratope(4, 2, base, rng), None, None, group))
    # Six order-5 cubes: with the order-7 and order-9 squares they make a
    # block of twelve ops of about the same cost, and the counts below it
    # put the median inside that block, so the median does not jump
    # between op kinds from one seed to the next.
    for n, degrees, count in ((3, (2, 2), 4), (4, (2, 2), 5), (5, (2, 2), 6),
                              (3, (2, 3), 4), (3, (3, 3), 2)):
        d = sum(degrees) - len(degrees) + 1
        for _ in range(count):
            items.append((f"hypercube-{n}^{d}", n, d, composed(n, degrees, rng), None, None,
                          "cyclic" if (n, d) == (3, 3) else None))
    for d in (2, 3, 4, 5):
        items.append((f"hypercube-2^{d}", 2, d, paratope(2, d, cyclic(2, d), rng), None, None, "cyclic"))
    rng.shuffle(items)
    return items


def _analyze_op(label, n, d, table, known_count, known_autos, group):
    text = R.lhc_text(n, d, table)
    with_autos = n <= 8

    def run(lib):
        raw = lib.parse_lhc(text)
        f = lib.LatinOp(raw.n, raw.d, raw.table)
        graph = lib.graph_of(f)
        found = lib.find_transversals(graph)
        deltas = [lib.delta_check(t) for t in found]
        stats = lib.graph_stats(graph)
        autos = lib.automorphisms(f) if with_autos else None
        canon = lib.canonical_form(graph) if group else None
        return raw, graph, found, deltas, stats, autos, canon

    @functools.cache
    def reference():
        cellset = R.cells(n, d, table)
        count = known_count if known_count is not None else R.transversal_count(n, d, table)
        return cellset, count

    def check(out):
        raw, graph, found, deltas, stats, autos, canon = out
        cellset, count = reference()
        seqs = [tuple(t.cells) for t in found]
        degree, vertices = R.graph_degree(n, d), n ** d
        error = first_error(
            ((raw.n, raw.d, tuple(raw.table)) == (n, d, table), "parse_lhc: table differs from the input"),
            (set(graph.cells) == cellset, "graph_of: cells differ from the table's graph"),
            (all(R.is_transversal(n, d, s, cellset) for s in seqs),
             "find_transversals: a result is not a canonical transversal of the input"),
            (seqs == sorted(set(seqs)), "find_transversals: results not strictly increasing"),
            # with the two checks above, the right count means the full set
            (len(seqs) == count, f"find_transversals: {len(seqs)} found, the reference count is {count}"),
            (len(deltas) == len(seqs), "delta_check: one report per transversal expected"),
            (stats.vertices == vertices and stats.is_regular and stats.degree == degree
             and stats.edges == vertices * degree // 2
             and tuple(stats.degree_histogram) == ((degree, vertices),),
             f"graph_stats: expected {vertices} vertices, regular of degree {degree}"),
        )
        if error:
            return error
        expected = R.delta_expected(n, d)
        for s, rep in zip(seqs, deltas):
            total = sum(R.alternating_sum(c, n) for c in s) % n
            if (rep.computed, rep.expected, rep.passed) != (total, expected, True):
                return f"delta_check: {rep} for {s}, expected computed={total} expected={expected}"
        if with_autos:
            error = first_error(
                (known_autos is None or len(autos) == known_autos,
                 f"automorphisms: {len(autos)} found, the group has {known_autos}"),
                (tuple(range(n)) in autos, "automorphisms: identity missing"),
                (autos == sorted(set(autos)), "automorphisms: not strictly increasing"),
                (all(R.is_automorphism(a, n, d, table) for a in autos),
                 "automorphisms: a result is not an automorphism"),
            )
            if error:
                return error
        if group and R.table_of_cells(n, d, canon.cells) != R.canonical_table(n, d, group):
            return "canonical_form: differs from the class representative"
        return None

    # over about 50 ms: transversals at order 10 and up, the automorphism
    # scan at order 8, canonical forms at order 4, more than 125 cells
    slow = n >= 10 or (d == 2 and n == 8) or (group and n == 4) or n ** d > 125
    return Op(label, (label, n, d, table), run, check, repeat=1 if slow else 3)


def build_analyze(seed, ctx):
    rng = random.Random(seed)
    return [_analyze_op(*item) for item in _analyze_inputs(rng)]


def warm_analyze(lib, ctx):
    raw = lib.parse_lhc(R.lhc_text(3, 2, cyclic(3)))
    f = lib.LatinOp(raw.n, raw.d, raw.table)
    graph = lib.graph_of(f)
    [lib.delta_check(t) for t in lib.find_transversals(graph)]
    lib.graph_stats(graph)
    lib.automorphisms(f)
    lib.canonical_form(lib.graph_of(lib.LatinOp(2, 2, cyclic(2))))


def probes_analyze(seed, ctx):
    rng = random.Random(seed)
    table = paratope(5, 2, cyclic(5), rng)
    return [library_probe("find_transversals_limit_0", "find_transversals_limit", "an empty list: limit=0 asks for none",
                          ctx, [5, list(table)])]


# --- search ----------------------------------------------------------------

# random_latin calls as (n, d, seed).  The time to a first completion
# depends on the seed by up to 100x (order 20: 6 ms to 623 ms over 60
# seeds), so a batch drawn from the run seed would move the search
# metrics by about 30% from run to run; the batch is fixed, and the run
# seed only orders the ops.
RANDOM_BATCH = [(n, 2, s) for n in range(10, 21) for s in range(3)] + [
    (n, d, s) for n, d in ((4, 3), (5, 3), (5, 4), (3, 6)) for s in range(4)]


def build_search(seed, ctx):
    rng = random.Random(seed)

    def count_run(lib):
        return lib.count_all(5, 2)

    def stream_run(lib):
        sink = hashlib.sha256()
        count = 0
        for op in lib.enumerate_all(4, 3):
            sink.update(lib.emit_lhc(op).encode())
            count += 1
        return count, sink.hexdigest()

    def census_run(lib):
        return lib.orbit_census(4, 2)

    def census_check(census):
        reps = {R.table_of_cells(4, 2, k.cells) for k in census}
        return first_error(
            (tuple(sorted(census.values(), reverse=True)) == R.ORBIT_SIZES_4_2,
             f"orbit_census: sizes {sorted(census.values())}, expected {R.ORBIT_SIZES_4_2}"),
            (reps == {R.canonical_table(4, 2, g) for g in ("cyclic", "elementary")},
             "orbit_census: class representatives differ from the canonical forms"),
        )

    ops = [
        Op("count_all", (5, 2), count_run,
           lambda c: None if c == R.latin_count(5, 2) else f"count_all(5, 2) = {c}, expected 161280"),
        Op("enumerate_stream", (4, 3), stream_run,
           lambda out: None if out == (R.latin_count(4, 3), R.STREAM_4_3_SHA256)
           else f"enumerate_all(4, 3) + emit_lhc: {out[0]} tables, digest {out[1][:12]}"),
        Op("orbit_census", (4, 2), census_run, census_check),
    ]
    ops.extend(_random_op(*call) for call in RANDOM_BATCH)
    rng.shuffle(ops)
    return ops


def _random_op(n, d, seed):
    def run(lib):
        return lib.random_latin(n, d, seed)

    def check(op):
        return first_error(
            ((op.n, op.d) == (n, d), f"random_latin: got order {op.n}, arity {op.d}"),
            (R.is_latin(n, d, op.table), "random_latin: the table is not Latin"),
        )

    return Op(f"random_latin-{n}^{d}", (n, d, seed), run, check, repeat=1 if (n, d) == (5, 4) else 3)


def warm_search(lib, ctx):
    lib.count_all(3, 2)
    for op in lib.enumerate_all(2, 2):
        lib.emit_lhc(op)
    lib.random_latin(3, 2, 0)
    lib.orbit_census(2, 2)


def probes_search(seed, ctx):
    rng = random.Random(seed)
    a, b = rng.sample(range(8), 2)
    expect_63 = "a Latin (6, 3) table, or a CeilingError refusal, within the limit"
    return [
        library_probe("random_latin_6_3_a", "random_latin", expect_63, ctx, [6, 3, a], limit=2.0),
        library_probe("random_latin_6_3_b", "random_latin", expect_63, ctx, [6, 3, b], limit=2.0),
        library_probe("random_latin_4_5", "random_latin", "a Latin (4, 5) table", ctx, [4, 5, rng.randrange(100)]),
        library_probe("count_all_3_7", "count_all", "384 = 3 * 2^7", ctx, [3, 7]),
    ]


# --- algebra ---------------------------------------------------------------

# (n, degree of f, degree of g) for compose_at and pullback_compose
COMPOSE_SHAPES = ([(n, 2, 2) for n in (3, 4, 5, 6)] + [(n, 2, 3) for n in (3, 4, 5, 6)]
                  + [(n, 3, 2) for n in (3, 4, 5)] + [(n, 3, 3) for n in (3, 4, 5)])
# (n, degrees composed into the operand) for act, conjugate and restrict
UNARY_SHAPES = [(n, (2,)) for n in (3, 4, 5, 6)] + [(n, (3,)) for n in (3, 4, 5)] + [
    (3, (2, 3)), (4, (2, 3)), (3, (3, 3))]
# verify_operad_axioms(n, max_degree); every pool is exhaustive.  The
# two heaviest pairs run twice and (4, 1) six times, so the ten slowest
# ops are verifications and the tail sample is a (2, 3) verification.
VERIFY_SHAPES = [(2, 4)] * 2 + [(3, 2)] * 2 + [(4, 1)] * 6 + [(2, 3)] * 4 + [(2, 2)] * 2 + [(3, 1)] * 2


def _operand(n, degrees, rng):
    if degrees == (2,):
        return 2, random_square(n, rng)
    return sum(degrees) - len(degrees) + 1, composed(n, degrees, rng)


def _compose_op(n, e1, e2, rng, via_pullback):
    d1, f = _operand(n, (e1,), rng)
    d2, g = _operand(n, (e2,), rng)
    i = rng.randint(1, d1)
    if via_pullback:
        def run(lib):
            left = lib.graph_of(lib.LatinOp(n, d1, f))
            right = lib.graph_of(lib.LatinOp(n, d2, g))
            return lib.function_of(lib.pullback_compose(left, right, i))
    else:
        def run(lib):
            return lib.compose_at(lib.LatinOp(n, d1, f), lib.LatinOp(n, d2, g), i)

    expected = functools.cache(lambda: R.compose(n, d1, f, d2, g, i))
    name = "pullback_compose" if via_pullback else "compose_at"
    return Op(f"{name}-{n}:{d1}o{d2}", (name, n, d1, f, d2, g, i), run,
              lambda h: None if tuple(h.table) == expected()
              else f"{name}: table differs from direct evaluation of f o_{i} g", repeat=5)


def _unary_ops(n, degrees, rng):
    d, f = _operand(n, degrees, rng)
    perm = tuple(rng.sample(range(1, d + 1), d))
    slot, restrict_slot, value = rng.randint(1, d + 1), rng.randint(1, d + 1), rng.randrange(n)

    def act_run(lib):
        return lib.act(lib.SlotPermutation(d, perm), lib.LatinOp(n, d, f))

    def conj_run(lib):
        return lib.conjugate(lib.LatinOp(n, d, f), slot)

    def restrict_run(lib):
        return lib.function_of(lib.restrict(lib.graph_of(lib.LatinOp(n, d, f)), restrict_slot, value))

    def checker(name, expected):
        expected = functools.cache(expected)
        return lambda out: None if tuple(out.table) == expected() else f"{name}: table differs from the reference"

    return [
        Op(f"act-{n}^{d}", ("act", n, d, f, perm), act_run, checker("act", lambda: R.act(perm, n, d, f)),
           repeat=5),
        Op(f"conjugate-{n}^{d}", ("conjugate", n, d, f, slot), conj_run,
           checker("conjugate", lambda: R.conjugate(n, d, f, slot)), repeat=5),
        Op(f"restrict-{n}^{d}", ("restrict", n, d, f, restrict_slot, value), restrict_run,
           checker("restrict", lambda: R.restrict(n, d, f, restrict_slot, value)), repeat=5),
    ]


def _verify_op(n, max_degree, seed):
    def run(lib):
        return lib.verify_operad_axioms(n, max_degree, seed=seed)

    def check(report):
        counts = R.operad_check_counts(n, max_degree)
        got = {r.axiom: r.checks for r in report.results}
        return first_error(
            (report.ok and all(r.passed for r in report.results), "verify_operad_axioms: an axiom failed"),
            (all(report.exhaustive.get(e) for e in range(1, max_degree + 1)),
             "verify_operad_axioms: a pool was sampled, not exhaustive"),
            (got == counts, f"verify_operad_axioms: check counts {got}, expected {counts}"),
        )

    return Op(f"verify-{n}:{max_degree}", ("verify", n, max_degree, seed), run, check,
              repeat=3 if (n, max_degree) in ((2, 2), (2, 3), (3, 1)) else 1)


def build_algebra(seed, ctx):
    rng = random.Random(seed)
    ops = []
    for n, e1, e2 in COMPOSE_SHAPES:
        ops.append(_compose_op(n, e1, e2, rng, via_pullback=False))
        ops.append(_compose_op(n, e1, e2, rng, via_pullback=True))
    for n, degrees in UNARY_SHAPES:
        ops.extend(_unary_ops(n, degrees, rng))
    for n, m in VERIFY_SHAPES:
        ops.append(_verify_op(n, m, rng.randrange(1000)))
    rng.shuffle(ops)
    return ops


def warm_algebra(lib, ctx):
    f = lib.LatinOp(2, 2, cyclic(2))
    h = lib.compose_at(f, f, 1)
    lib.act(lib.SlotPermutation(3, (3, 2, 1)), h)
    lib.conjugate(h, 1)
    lib.function_of(lib.restrict(lib.graph_of(h), 1, 0))
    lib.pullback_compose(lib.graph_of(f), lib.graph_of(f), 2)
    lib.verify_operad_axioms(2, 1)


# --- cli -------------------------------------------------------------------

@dataclass
class CliCase:
    """One command: argv naming its files relative to the work dir, the
    expected exit code, and the expected stdout (or a validator)."""

    argv: list
    exit_code: int
    stdout: Callable[[], str] | None = None
    validate: Callable[[str], str | None] | None = None
    out_file: str | None = None  # a file the command writes, compared with ``stdout``


def tsv_text(cells) -> str:
    return "\n".join(" ".join(map(str, c)) for c in cells) + "\n"


def _cli_files(rng):
    """name -> (n, d, table) for every input file of a cli pass."""
    files = {}
    for k, n in enumerate((3, 4, 5, 5, 6, 7)):
        files[f"sq{k}.lhc"] = (n, 2, random_square(n, rng))
    files["cyc5.lhc"] = (5, 2, paratope(5, 2, cyclic(5), rng, symbols="same", slots=False))
    files["cyc7.lhc"] = (7, 2, paratope(7, 2, cyclic(7), rng, symbols="each", slots=False))
    files["z22.lhc"] = (4, 2, paratope(4, 2, elementary(2, 2), rng))
    files["z4.lhc"] = (4, 2, paratope(4, 2, cyclic(4), rng))
    files["cube3.lhc"] = (3, 3, composed(3, (2, 2), rng))
    files["cube4.lhc"] = (4, 3, composed(4, (2, 2), rng))
    files["hyp2.lhc"] = (2, 4, paratope(2, 4, cyclic(2, 4), rng))
    files["hyp3.lhc"] = (3, 4, composed(3, (2, 3), rng))
    files["bad4.lhc"] = (4, 2, non_latin(4, 2, rng))
    files["bad3.lhc"] = (3, 3, non_latin(3, 3, rng))
    return files


def _cli_cases(files, rng):
    """Five commands per subcommand, each with its expected stdout."""
    emit = R.lhc_text
    latin = [f for f in files if not f.startswith("bad")]
    cases = []

    def lhc(n, d, fn, *args):
        return lambda: emit(n, d, fn(*args))

    for name in rng.sample(latin, 3):
        cases.append(CliCase(["check", name], 0, lambda: "latin: true\n"))
    for name in ("bad4.lhc", "bad3.lhc"):
        cases.append(CliCase(["check", name], 1, lambda: "latin: false\n"))

    pairs = [("sq0.lhc", "cube3.lhc"), ("cube3.lhc", "sq0.lhc"), ("sq1.lhc", "z22.lhc"),
             ("z4.lhc", "cube4.lhc"), ("sq2.lhc", "cyc5.lhc")]
    for sub in ("compose", "pullback-compose"):
        for a, b in pairs:
            (n, d, f), (_, e, g) = files[a], files[b]
            i = rng.randint(1, d)
            cases.append(CliCase([sub, a, b, "--slot", str(i)], 0, lhc(n, d + e - 1, R.compose, n, d, f, e, g, i)))
    for name in rng.sample(latin, 5):
        n, d, f = files[name]
        s = rng.randint(1, d + 1)
        cases.append(CliCase(["conjugate", name, "--slot", str(s)], 0, lhc(n, d, R.conjugate, n, d, f, s)))
    for name in rng.sample(latin, 5):
        n, d, f = files[name]
        perm = tuple(rng.sample(range(1, d + 1), d))
        cases.append(CliCase(["act", name, "--perm", " ".join(map(str, perm))], 0, lhc(n, d, R.act, perm, n, d, f)))
    for name in rng.sample(latin, 5):
        n, d, f = files[name]
        s, c = rng.randint(1, d + 1), rng.randrange(n)
        cases.append(CliCase(["restrict", name, "--slot", str(s), "--value", str(c)], 0,
                             lhc(n, d - 1, R.restrict, n, d, f, s, c)))

    for n, d in ((3, 2), (4, 2), (3, 3)):
        cases.append(CliCase(["enumerate", "--n", str(n), "--d", str(d), "--count"], 0,
                             lambda n=n, d=d: f"{R.latin_count(n, d)}\n"))
    stream = lambda n, d: "\n".join(emit(n, d, t) for t in R.enumerate_lex(n, d))  # noqa: E731
    cases.append(CliCase(["enumerate", "--n", "3", "--d", "2", "--stream", "stream.lhcs"], 0,
                         lambda: stream(3, 2), out_file="stream.lhcs"))
    cases.append(CliCase(["enumerate", "--n", "2", "--d", "3", "--stream", "-"], 0, lambda: stream(2, 3)))

    for n, d in ((5, 2), (6, 2), (7, 2), (4, 3), (3, 4)):
        jobs = ["--jobs", str(rng.randint(1, 2))] if rng.random() < 0.5 else []
        argv = jobs + ["random", "--n", str(n), "--d", str(d), "--seed", str(rng.randrange(10 ** 6))]
        cases.append(CliCase(argv, 0, validate=functools.partial(_valid_random, n, d)))

    for name in ("sq3.lhc", "sq4.lhc", "cyc7.lhc"):
        n, _, f = files[name]
        cases.append(CliCase(["transversals", name, "--count"], 0,
                             lambda n=n, f=f: f"transversals: {len(R.square_transversals(n, f))}\n"))
    for name in ("sq1.lhc", "z22.lhc"):
        n, _, f = files[name]
        cases.append(CliCase(["transversals", name], 0,
                             lambda n=n, f=f: "\n".join(tsv_text(t) for t in R.square_transversals(n, f))))

    candidates = ("sq2.lhc", "sq3.lhc", "sq4.lhc", "sq5.lhc", "cyc5.lhc", "cyc7.lhc", "z22.lhc")
    with_transversals = [c for c in candidates if R.square_transversals(files[c][0], files[c][2])][:5]
    if len(with_transversals) < 5:
        raise RuntimeError("fewer than five cli inputs have a transversal")
    for k, name in enumerate(with_transversals):
        n, _, f = files[name]
        cells = rng.choice(R.square_transversals(n, f))
        files[f"t{k}.tsv"] = tsv_text(cells)
        total = sum(R.alternating_sum(c, n) for c in cells) % n
        cases.append(CliCase(["delta", name, "--transversal", f"t{k}.tsv"], 0,
                             lambda total=total, n=n: f"computed: {total}\nexpected: {R.delta_expected(n, 2)}\npass: true\n"))

    # an order-4 square lies in the cyclic main class iff it has no transversal
    sq1_class = "elementary" if R.square_transversals(4, files["sq1.lhc"][2]) else "cyclic"
    for name, group in (("z4.lhc", "cyclic"), ("z22.lhc", "elementary"), ("sq1.lhc", sq1_class),
                        ("cube3.lhc", "cyclic"), ("hyp2.lhc", "cyclic")):
        n, d, _ = files[name]
        cases.append(CliCase(["canon", name], 0, lambda n=n, d=d, g=group: emit(n, d, R.canonical_table(n, d, g))))

    for n, d in ((2, 2), (2, 3), (3, 1), (3, 2), (4, 1)):
        def census(n=n, d=d):
            sizes = R.orbit_sizes(n, d)
            lines = [f"classes: {len(sizes)}"] + [f"class {k}: size {s}" for k, s in enumerate(sizes, 1)]
            return "\n".join(lines + [f"total: {sum(sizes)}"]) + "\n"
        cases.append(CliCase(["orbits", "--n", str(n), "--d", str(d)], 0, census))

    for name in rng.sample(latin, 3):
        n, d, _ = files[name]
        deg = R.graph_degree(n, d)
        cases.append(CliCase(["graph", name, "--stats"], 0,
                             lambda n=n, d=d, deg=deg: f"vertices: {n ** d}\nedges: {n ** d * deg // 2}\n"
                             f"regular: true\ndegree: {deg}\n"))
    for name, target in (("sq0.lhc", "edges.txt"), ("cube3.lhc", "-")):
        n, d, f = files[name]
        text = lambda n=n, d=d, f=f: "".join(line + "\n" for line in R.edge_lines(n, d, f))  # noqa: E731
        cases.append(CliCase(["graph", name, "--edges", target], 0, text,
                             out_file=None if target == "-" else target))

    for n, m in ((2, 1), (2, 2), (2, 3), (3, 1), (4, 1)):
        def lines(n=n, m=m):
            counts = R.operad_check_counts(n, m)
            return "".join(f"{axiom}: pass ({c} checks)\n" for axiom, c in counts.items())
        cases.append(CliCase(["verify-operad", "--n", str(n), "--max-degree", str(m)], 0, lines))

    for name in ("sq0.lhc", "sq1.lhc", "sq2.lhc", "cyc5.lhc", "z22.lhc"):
        n, d, f = files[name]

        def autos(n=n, d=d, f=f):
            found = R.automorphisms(n, d, f)
            return "".join(" ".join(map(str, a)) + "\n" for a in found) + f"count: {len(found)}\n"
        cases.append(CliCase(["autos", name], 0, autos))
    rng.shuffle(cases)
    return cases


def _valid_random(n, d, stdout):
    try:
        values = [int(t) for t in stdout.split()]
    except ValueError:
        return "random: stdout is not an .lhc table"
    if values[:2] != [n, d] or not R.is_latin(n, d, tuple(values[2:])):
        return "random: not a Latin table of the requested shape"
    return None


def cli_env(ctx, **extra):
    env = {k: v for k, v in os.environ.items() if k not in ("LATINOP_CELL_CEILING", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(ctx.src)
    env.update(extra)
    return env


def cli_argv(*args):
    return [sys.executable, "-m", "latinop.cli", *args]


def _cli_op(case, files, ctx):
    argv = cli_argv(*[str(ctx.workdir / a) if a.endswith((".lhc", ".tsv", ".lhcs", ".txt")) else a
                      for a in case.argv])
    env = cli_env(ctx)
    expected = functools.cache(case.stdout) if case.stdout else None

    def run(lib):
        return lib.span("cli.command", subprocess.run, argv, env=env, capture_output=True, text=True)

    def check(proc):
        if proc.returncode != case.exit_code:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            return f"exit {proc.returncode}, expected {case.exit_code}: {last[0][:160]}"
        if case.validate:
            return case.validate(proc.stdout)
        got = proc.stdout
        if case.out_file:
            # read and removed, so a later pass cannot pass on this pass's file
            written = ctx.workdir / case.out_file
            got = written.read_text()
            written.unlink()
        if got != expected():
            digest = hashlib.sha256(got.encode()).hexdigest()[:12]
            return f"output digest {digest} differs from the reference's"
        return None

    sub = case.argv[2] if case.argv[0] == "--jobs" else case.argv[0]
    return Op(f"cli-{sub}", (tuple(case.argv), tuple(files[a] for a in case.argv if a in files)),
              run, check)


def build_cli(seed, ctx):
    rng = random.Random(seed)
    files = _cli_files(rng)
    cases = _cli_cases(files, rng)
    ctx.workdir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        text = content if isinstance(content, str) else R.lhc_text(*content)
        (ctx.workdir / name).write_text(text)
    return [_cli_op(case, files, ctx) for case in cases]


def warm_cli(lib, ctx):
    """Run the CLI once, before set-up is timed, so its bytecode is compiled."""
    proc = subprocess.run(cli_argv("--version"), env=cli_env(ctx), capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"latinop.cli --version exited {proc.returncode}: {proc.stderr.strip()[-300:]}")


def calibrate_cli(lib, ctx, runs=10):
    """Interpreter start and the CLI's import alone, for the per-layer table."""
    env = cli_env(ctx)
    for _ in range(runs):
        lib.span("cli.interpreter_start", subprocess.run, [sys.executable, "-c", "pass"], env=env, check=True)
        lib.span("cli.import", subprocess.run, [sys.executable, "-c", "import latinop.cli"], env=env, check=True)


def probes_cli(seed, ctx):
    rng = random.Random(seed)
    w = ctx.workdir
    big = random_square(5, rng)
    (w / "probe_big.lhc").write_text(R.lhc_text(5, 2, big))
    (w / "probe_header.lhc").write_text("3 200000\n0 1 2\n")
    (w / "probe_token.lhc").write_text("2 2\n0 x\n1 0\n")
    (w / "probe_short.lhc").write_text(R.lhc_text(3, 2, cyclic(3))[:-6] + "\n")
    missing = w / "missing-dir" / "x"
    refused = "exit 2 or 3, no traceback"

    def exits(codes):
        def judge(proc):
            if proc.returncode not in codes or "Traceback" in proc.stderr:
                return f"expected exit in {sorted(codes)} without a traceback"
            return None
        return judge

    def random_ok(proc):
        if proc.returncode == 3 and "Traceback" not in proc.stderr:
            return None
        if proc.returncode == 0:
            return _valid_random(2, 10, proc.stdout)
        return "expected a Latin (2, 10) table (exit 0) or a refusal (exit 3)"

    def cli_probe(name, expect, args, judge, **env):
        return Probe(name, expect, cli_argv(*args), judge, limit=5.0, env=cli_env(ctx, **env))

    return [
        cli_probe("cli_ceiling_env_not_a_number", refused, ["enumerate", "--n", "3", "--d", "2"],
                  exits({2, 3}), LATINOP_CELL_CEILING="abc"),
        cli_probe("cli_enumerate_stream_missing_dir", refused,
                  ["enumerate", "--n", "2", "--d", "2", "--stream", str(missing)], exits({2, 3})),
        cli_probe("cli_graph_edges_missing_dir", refused,
                  ["graph", str(w / "probe_big.lhc"), "--edges", str(missing)], exits({2, 3})),
        cli_probe("cli_lhc_header_3_200000", refused, ["check", str(w / "probe_header.lhc")], exits({2, 3})),
        cli_probe("cli_random_2_10", "a Latin (2, 10) table (exit 0) or a refusal (exit 3)",
                  ["random", "--n", "2", "--d", "10", "--seed", str(rng.randrange(100))], random_ok),
        cli_probe("cli_enumerate_32_2", refused, ["enumerate", "--n", "32", "--d", "2"], exits({2, 3})),
        cli_probe("cli_compose_over_ceiling", refused,
                  ["compose", str(w / "probe_big.lhc"), str(w / "probe_big.lhc"), "--slot", "1"],
                  exits({2, 3}), LATINOP_CELL_CEILING="100"),
        cli_probe("cli_lhc_bad_token", "exit 2", ["check", str(w / "probe_token.lhc")], exits({2})),
        cli_probe("cli_lhc_short_body", "exit 2", ["check", str(w / "probe_short.lhc")], exits({2})),
        cli_probe("cli_enumerate_over_ceiling", "exit 3", ["enumerate", "--n", "10", "--d", "8"], exits({3})),
    ]


def library_probe(name, function, expect, ctx, args, limit=5.0):
    """A probe run by probe_child.py; the child prints a JSON verdict."""
    def judge(proc):
        try:
            verdict = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return f"no verdict from the child: {proc.stderr.strip()[-200:]}"
        return None if verdict["ok"] else verdict["outcome"]

    argv = [sys.executable, str(PROBE_CHILD), str(ctx.src), function, json.dumps(args)]
    return Probe(name, expect, argv, judge, limit=limit)


@dataclass
class Workload:
    build: Callable  # (seed, ctx) -> ops
    warm: Callable  # (lib, ctx): in set-up after build, or once before it for child-process workloads
    probes: Callable  # (seed, ctx) -> probes
    in_process: bool  # False: the ops run child processes and import nothing here
    calibrate: Callable | None = None  # (lib, ctx) after each traced pass


WORKLOADS = {
    "analyze": Workload(build_analyze, warm_analyze, probes_analyze, True),
    "search": Workload(build_search, warm_search, probes_search, True),
    "algebra": Workload(build_algebra, warm_algebra, lambda seed, ctx: [], True),
    "cli": Workload(build_cli, warm_cli, probes_cli, False, calibrate_cli),
}
