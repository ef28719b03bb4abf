"""Independent brute-force oracles used to cross-check the library.

These deliberately avoid the library's own algorithms: enumeration by
generate-and-test or row-by-row counting, graphs by pairwise scans,
automorphism counts from number theory.
"""
from __future__ import annotations

import itertools
import math
from collections import deque
from functools import lru_cache


def first_non_latin_slot(n, d, table):
    """Definition-level: the first 1-based slot s with a unary section
    x -> table(.., x in slot s, ..) that is not a bijection, or 0."""
    for s in range(d):
        others = [list(range(n))] * (d - 1)
        for rest in itertools.product(*others):
            values = set()
            for x in range(n):
                args = rest[:s] + (x,) + rest[s:]
                idx = 0
                for a in args:
                    idx = idx * n + a
                values.add(table[idx])
            if len(values) != n:
                return s + 1
    return 0


def table_is_latin(n, d, table):
    """Definition-level check: every unary section is a bijection."""
    return first_non_latin_slot(n, d, table) == 0


def count_by_generate_and_test(n, d):
    """All n^(n^d) tables, filtered. Only sane for tiny (n, d)."""
    total = 0
    for table in itertools.product(range(n), repeat=n ** d):
        if table_is_latin(n, d, table):
            total += 1
    return total


def count_squares_rowwise(n):
    """Latin squares of order n, counted row by row.

    State: per-column used-value bitmasks, sorted (column order does not
    affect the number of completions), memoized.
    """
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def completions(cols):
        if cols[0].bit_count() == n:
            return 1
        total = 0
        row = [0] * n

        def rec(j, used):
            nonlocal total
            if j == n:
                newcols = tuple(sorted(c | (1 << v) for c, v in zip(cols, row)))
                total += completions(newcols)
                return
            avail = full & ~(cols[j] | used)
            while avail:
                bit = avail & -avail
                avail ^= bit
                row[j] = bit.bit_length() - 1
                rec(j + 1, used | bit)

        rec(0, 0)
        return total

    return completions(tuple([0] * n))


def latin_tables_lex(n, d):
    """Every Latin table of order n and arity d, in lexicographic order,
    by generate and test.

    The candidates are the concatenations of n slot-1 layers, each a
    Latin table of arity d-1 (a single value when d = 1); every Latin
    table is one of them, and itertools.product emits them in
    lexicographic order.  Each candidate is kept if it passes the
    definition-level check.  Only sane up to about (3, 3) and (2, 5).
    """
    layers = [(v,) for v in range(n)] if d == 1 else latin_tables_lex(n, d - 1)
    candidates = (sum(combo, ()) for combo in itertools.product(layers, repeat=n))
    return [table for table in candidates if table_is_latin(n, d, table)]


def count_cubes_layered(n):
    """Latin cubes (d=3) of order n: ordered tuples of n Latin squares
    that are cellwise disjoint.  Only sane for n <= 3."""
    squares = [
        t
        for t in itertools.product(range(n), repeat=n * n)
        if table_is_latin(n, 2, t)
    ]
    count = 0
    for layers in itertools.product(squares, repeat=n):
        if all(
            len({layer[pos] for layer in layers}) == n for pos in range(n * n)
        ):
            count += 1
    return count


def pairwise_degrees(cells):
    """Degrees of the shared-coordinate graph, by O(V^2) pairwise scan."""
    cells = sorted(cells)
    degrees = [0] * len(cells)
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            if any(x == y for x, y in zip(cells[a], cells[b])):
                degrees[a] += 1
                degrees[b] += 1
    return degrees


def pairwise_edges(cells):
    """Edges of the shared-coordinate graph as (i, j) index pairs, i < j,
    by O(V^2) pairwise scan of the sorted cells in lexicographic order."""
    cells = sorted(cells)
    return tuple(
        (a, b)
        for a in range(len(cells))
        for b in range(a + 1, len(cells))
        if any(x == y for x, y in zip(cells[a], cells[b]))
    )


def max_shared_coordinates(cells):
    cells = sorted(cells)
    best = 0
    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            best = max(best, sum(x == y for x, y in zip(cells[a], cells[b])))
    return best


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def cyclic_table(n, d=2):
    """Cayley-style table of coordinatewise addition mod n."""
    return tuple(
        sum(args) % n for args in itertools.product(range(n), repeat=d)
    )


def brute_transversals_of_square(n, table):
    """Canonical transversals of a d=2 table by scanning all column
    permutations."""
    found = []
    for cols in itertools.permutations(range(n)):
        values = [table[r * n + cols[r]] for r in range(n)]
        if len(set(values)) == n:
            found.append(tuple((r, cols[r], values[r]) for r in range(n)))
    return sorted(found)


def brute_transversals(n, d, table):
    """Canonical transversals of an order-n, arity-d table, sorted, by
    scanning every choice of one permutation per argument slot 2..d:
    row k takes the cell at arguments (k, p_2[k], .., p_d[k]), and the
    choice is kept when the n values it reads are distinct."""
    perms = list(itertools.permutations(range(n)))
    found = []
    for choice in itertools.product(perms, repeat=d - 1):
        cells = []
        for k in range(n):
            args = (k,) + tuple(p[k] for p in choice)
            idx = 0
            for a in args:
                idx = idx * n + a
            cells.append(args + (table[idx],))
        if len({cell[-1] for cell in cells}) == n:
            found.append(tuple(cells))
    return sorted(found)


def cells_alternating_sum(n, cells):
    """The sum over the cells of x_1 - x_2 + x_3 - ..., reduced mod n,
    entry by entry."""
    total = 0
    for cell in cells:
        for i, x in enumerate(cell):
            total += -x if i % 2 else x
    return total % n


def compose_permutations(p, q):
    """(p after q)(x) = p(q(x)) as value tuples."""
    return tuple(p[q[x]] for x in range(len(p)))


def compose_slot_permutations(sigma, tau, i):
    """Substitution composition of slot permutations in one-line
    notation (1-based), by position: the position j0 of letter i in
    sigma opens a run of len(tau) positions holding i-1+tau, and every
    other letter of sigma is relabelled past the run."""
    d, e = len(sigma), len(tau)
    if not 1 <= i <= d:
        raise ValueError(f"slot {i} out of range 1..{d}")
    j0 = sigma.index(i) + 1

    def relabel(v):
        return v if v < i else v + e - 1

    out = []
    for k in range(1, d + e):
        if k < j0:
            out.append(relabel(sigma[k - 1]))
        elif k < j0 + e:
            out.append(i - 1 + tau[k - j0])
        else:
            out.append(relabel(sigma[k - e]))
    return tuple(out)


def operad_check_counts(pool_sizes):
    """Checks per axiom of an operad axiom verification whose pools hold
    pool_sizes[d] operations of each degree d, summed over the degrees of
    the operands each axiom quantifies: closure over f, g and a slot i of
    f; sequential associativity over f, g, h, a slot i of f and a slot j
    of g; parallel associativity over f, g, h and slots i < k of f; the
    unit laws over each slot of f (right) and f (left); equivariance over
    f, g with every sigma of f's degree and slot k of f (outer), and every
    tau of g's degree and slot i of f (inner)."""
    p = pool_sizes
    pairs = list(itertools.product(p, repeat=2))
    triples = list(itertools.product(p, repeat=3))
    return {
        "closure": sum(p[d] * p[e] * d for d, e in pairs),
        "sequential-associativity": sum(p[d] * p[e] * p[h] * d * e for d, e, h in triples),
        "parallel-associativity": sum(p[d] * p[e] * p[h] * d * (d - 1) // 2 for d, e, h in triples),
        "unit": sum(p[d] * (d + 1) for d in p),
        "equivariance": sum(
            p[d] * p[e] * (math.factorial(d) * d + math.factorial(e) * d) for d, e in pairs
        ),
    }


def line_geometry(n, d):
    """Per cell, in table order, the indices of its d lines in one flat
    list of d * n^(d-1) lines: slot s's line through a cell is s *
    n^(d-1) plus the row-major index of the cell without its slot-s
    coordinate, encoded cell by cell."""
    width = n ** (d - 1)
    geometry = []
    for cell in itertools.product(range(n), repeat=d):
        lines = []
        for s in range(d):
            idx = 0
            for a in cell[:s] + cell[s + 1:]:
                idx = idx * n + a
            lines.append(s * width + idx)
        geometry.append(tuple(lines))
    return tuple(geometry)


def paratope_cells(cells, slot_perm, symbol_perms):
    """Image of a cell set under a paratopism, cell by cell: the slot-s
    entry x of a cell (1-based slots) moves to slot slot_perm[s-1] as
    the value symbol_perms[s-1][x]."""
    image = set()
    for cell in cells:
        out = [0] * len(cell)
        for s, x in enumerate(cell):
            out[slot_perm[s] - 1] = symbol_perms[s][x]
        image.add(tuple(out))
    return frozenset(image)


def restrict_cells(cells, s, c):
    """The cells whose slot-s entry (1-based) is c, with that slot
    deleted."""
    return frozenset(cell[:s - 1] + cell[s:] for cell in cells if cell[s - 1] == c)


def paratopism_orbit_cells(n, d, cells):
    """The paratopism orbit of a cell set, as frozensets of cells, by
    breadth-first search over the adjacent slot transpositions and the
    adjacent symbol transpositions in each slot."""
    ids = list(range(n))
    slots = list(range(1, d + 2))
    gens = []
    for s in range(d):
        swapped = slots[:]
        swapped[s], swapped[s + 1] = swapped[s + 1], swapped[s]
        gens.append((swapped, [ids] * (d + 1)))
    for s in range(d + 1):
        for v in range(n - 1):
            sym = ids[:]
            sym[v], sym[v + 1] = sym[v + 1], sym[v]
            perms = [ids] * (d + 1)
            perms[s] = sym
            gens.append((slots, perms))
    start = frozenset(cells)
    seen = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for slot_perm, symbol_perms in gens:
            image = paratope_cells(current, slot_perm, symbol_perms)
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return seen


def emit_lhc_rowwise(op):
    """The .lhc text of an operation, joined a row at a time."""
    lines = [f"{op.n} {op.d}"]
    for base in range(0, len(op.table), op.n):
        lines.append(" ".join(map(str, op.table[base:base + op.n])))
    return "\n".join(lines) + "\n"


def emit_tsv_rowwise(t):
    """The .tsv text of a transversal, joined a cell at a time."""
    return "".join(" ".join(map(str, cell)) + "\n" for cell in t.cells)


def brute_automorphisms(n, d, table):
    """Every permutation iota of [0, n) with iota(f(y)) = f(iota(y)) at
    every point y of the order-n, arity-d table, by a scan of all n!
    maps, in lexicographic order."""
    def at(args):
        idx = 0
        for a in args:
            idx = idx * n + a
        return table[idx]

    points = list(itertools.product(range(n), repeat=d))
    return [
        iota
        for iota in itertools.permutations(range(n))
        if all(iota[at(y)] == at([iota[a] for a in y]) for y in points)
    ]
