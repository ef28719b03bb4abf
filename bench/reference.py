"""Reference answers that share no code with ``latinop``.

Everything here works on plain tuples: a table is row-major with the
last argument fastest, a cell is ``args + (value,)``.  Counts that cannot
be recomputed cheaply are pinned from published sequences or from the
brute-force functions below (``test_harness.py`` recomputes each pinned
value it can afford).
"""
from __future__ import annotations

import itertools
import math

# Number of Latin d-ary operations of order n.  L(n, 1) = n! and
# L(2, d) = 2 by definition; L(3, d) = 3 * 2^d; the rest are OEIS A002860
# (squares) and the known count of order-4 Latin cubes.
_PINNED_COUNTS = {(4, 2): 576, (5, 2): 161_280, (4, 3): 55_296}

# Transversals of the cyclic square of odd order n (OEIS A006717); a
# cyclic group of even order has none.
CYCLIC_TRANSVERSALS = {1: 1, 3: 3, 5: 15, 7: 133, 9: 2025, 11: 37_851}

# Transversals of elementary-abelian Cayley tables, keyed by (p, k);
# recomputed by brute force in test_harness.py.
ELEMENTARY_TRANSVERSALS = {(2, 2): 8, (2, 3): 384, (3, 2): 2241}

# Orders of the automorphism groups: Aut(Z_n) has phi(n) elements,
# Aut(Z_2^k) = GL(k, 2).
ELEMENTARY_AUTOMORPHISMS = {(2, 2): 6, (2, 3): 168}

# Min-lex paratopism class representatives, as the table whose graph is
# the representative.  Order-4 squares fall in two main classes (OEIS
# A003090), named by the group whose Cayley table lies in the class.
# Order-3 cubes form one class, and so do the order-2 hypercubes of each
# dimension, whose representative is the parity table (see
# ``canonical_table``).  Computed by ``canonical_brute`` and rechecked
# in test_harness.py.
_CANONICAL = {
    (4, 2, "cyclic"): (0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 1, 0, 3, 2, 0, 1),
    (4, 2, "elementary"): (0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0),
    (3, 3, "cyclic"): (0, 1, 2, 1, 2, 0, 2, 0, 1, 1, 2, 0, 2, 0, 1, 0, 1, 2,
                       2, 0, 1, 0, 1, 2, 1, 2, 0),
}

# Paratopism orbit sizes of the order-4 squares, largest first; they sum
# to L(4, 2) = 576.
ORBIT_SIZES_4_2 = (432, 144)

# sha256 of the .lhc records of all 55,296 order-4 cubes in lexicographic
# order, concatenated; from ``enumerate_lex(4, 3)`` and ``lhc_text``.
STREAM_4_3_SHA256 = "ebb9e3c19d57f5b820d4dcf95e99c4c6268a32e4eee4d5b8fbe01387dd46427c"


def latin_count(n: int, d: int) -> int | None:
    if d == 1:
        return math.factorial(n)
    if n == 1 or n == 2:
        return n
    if n == 3:
        return 3 * 2 ** d
    return _PINNED_COUNTS.get((n, d))


def canonical_table(n: int, d: int, group: str) -> tuple:
    """Canonical form of a hypercube paratopic to the Cayley table of
    ``group`` ("cyclic" or "elementary") at (n, d)."""
    if n == 2:
        return tuple(sum(args) % 2 for args in points(2, d))
    return _CANONICAL[n, d, group]


def index(args, n: int) -> int:
    idx = 0
    for a in args:
        idx = idx * n + a
    return idx


def points(n: int, d: int):
    return itertools.product(range(n), repeat=d)


def is_latin(n: int, d: int, table) -> bool:
    """Every line parallel to an axis holds each symbol exactly once."""
    if len(table) != n ** d or any(not 0 <= v < n for v in table):
        return False
    for s in range(d):
        for rest in points(n, d - 1):
            line = {table[index(rest[:s] + (x,) + rest[s:], n)] for x in range(n)}
            if len(line) != n:
                return False
    return True


def cells(n: int, d: int, table) -> set:
    return {args + (table[index(args, n)],) for args in points(n, d)}


def table_of_cells(n: int, d: int, cellset) -> tuple:
    """Table whose graph is ``cellset`` (the last slot as the value)."""
    out = [None] * n ** d
    for cell in cellset:
        out[index(cell[:-1], n)] = cell[-1]
    return tuple(out)


def compose(n: int, d: int, f, e: int, g, i: int) -> tuple:
    """f with g substituted into slot i (1-based), by direct evaluation."""
    out = []
    for args in points(n, d + e - 1):
        inner = g[index(args[i - 1:i - 1 + e], n)]
        out.append(f[index(args[:i - 1] + (inner,) + args[i - 1 + e:], n)])
    return tuple(out)


def act(perm, n: int, d: int, f) -> tuple:
    """(sigma . f)(x_1..x_d) = f(x_sigma(1), .., x_sigma(d))."""
    return tuple(f[index(tuple(args[p - 1] for p in perm), n)] for args in points(n, d))


def conjugate(n: int, d: int, f, s: int) -> tuple:
    """Slot s (1-based) of the graph becomes the output slot."""
    moved = set()
    for cell in cells(n, d, f):
        moved.add(cell[:s - 1] + cell[s:] + (cell[s - 1],))
    return table_of_cells(n, d, moved)


def restrict(n: int, d: int, f, s: int, c: int) -> tuple:
    """Table of the slice of the graph at slot s = c, that slot deleted."""
    kept = {cell[:s - 1] + cell[s:] for cell in cells(n, d, f) if cell[s - 1] == c}
    return table_of_cells(n, d - 1, kept)


def alternating_sum(cell, n: int) -> int:
    return sum(v if k % 2 == 0 else -v for k, v in enumerate(cell)) % n


def delta_expected(n: int, d: int) -> int:
    """The identity's value: 0 for odd d, else the sum of the involutions of Z/n."""
    return n // 2 if d % 2 == 0 and n % 2 == 0 else 0


def is_transversal(n: int, d: int, cellseq, cellset) -> bool:
    """n cells of the hypercube, slot 1 = 0..n-1, all slots distinct."""
    if len(cellseq) != n or any(c not in cellset for c in cellseq):
        return False
    if [c[0] for c in cellseq] != list(range(n)):
        return False
    return all(len({c[s] for c in cellseq}) == n for s in range(d + 1))


def square_transversals(n: int, table) -> list:
    """Transversals of a square by scanning all column permutations."""
    found = []
    for cols in itertools.permutations(range(n)):
        values = [table[r * n + cols[r]] for r in range(n)]
        if len(set(values)) == n:
            found.append(tuple((r, cols[r], values[r]) for r in range(n)))
    return sorted(found)


def transversal_count(n: int, d: int, table) -> int:
    """Transversals by depth-first search over slot 1.  A cell with slot
    1 = r is a bitmask holding bit s * n + x when x is its symbol in the
    s-th of the other slots (0-based); it extends a partial transversal
    of rows 0..r-1 when it shares no bit with the union of theirs."""
    rows = [[sum(1 << (s * n + x) for s, x in enumerate(rest + (table[index((r,) + rest, n)],)))
             for rest in points(n, d - 1)] for r in range(n)]

    def count(r, used):
        if r == n:
            return 1
        return sum(count(r + 1, used | m) for m in rows[r] if not m & used)

    return count(0, 0)


def graph_degree(n: int, d: int) -> int:
    """Degree of every cell in the shared-coordinate graph.

    Cells agreeing with a given cell on k chosen slots number n^(d-k)
    for k <= d (any d slots determine a cell), and 1 for k = d + 1;
    inclusion-exclusion over the slots, minus the cell itself.
    """
    union = sum((-1) ** (k + 1) * math.comb(d + 1, k) * n ** (d - k) for k in range(1, d + 1))
    union += (-1) ** (d + 2)
    return union - 1


def edge_lines(n: int, d: int, table) -> list:
    """Edge list of the shared-coordinate graph by pairwise scan."""
    verts = sorted(cells(n, d, table))
    out = []
    for a in range(len(verts)):
        for b in range(a + 1, len(verts)):
            if any(x == y for x, y in zip(verts[a], verts[b])):
                out.append(f"{a} {b}")
    return out


def is_automorphism(iota, n: int, d: int, f) -> bool:
    return all(
        iota[f[index(args, n)]] == f[index(tuple(iota[a] for a in args), n)]
        for args in points(n, d)
    )


def automorphisms(n: int, d: int, f) -> list:
    return [p for p in itertools.permutations(range(n)) if is_automorphism(p, n, d, f)]


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def operad_check_counts(n: int, max_degree: int) -> dict | None:
    """Checks per axiom made by an exhaustive axiom verification.

    With pools of every Latin operation of degree 1..max_degree, A the
    pool size and D the sum of degrees, each axiom's check count follows
    from its quantifiers: closure over (f, g, i), sequential associativity
    over (f, g, h, i, j), parallel over (f, g, h, i < k), units over
    (f, i) and (f), equivariance over (f, g, sigma, k) and (f, g, tau, i).
    None when a pool would be sampled (more than 200 operations).
    """
    pool = {e: latin_count(n, e) for e in range(1, max_degree + 1)}
    if any(c is None or c > 200 for c in pool.values()):
        return None
    a = sum(pool.values())
    deg_sum = sum(c * e for e, c in pool.items())
    fact_sum = sum(c * math.factorial(e) for e, c in pool.items())
    return {
        "closure": a * deg_sum,
        "sequential-associativity": a * deg_sum ** 2,
        "parallel-associativity": a * a * sum(c * math.comb(e, 2) for e, c in pool.items()),
        "unit": deg_sum + a,
        "equivariance": a * sum(c * e * math.factorial(e) for e, c in pool.items())
        + deg_sum * fact_sum,
    }


def enumerate_lex(n: int, d: int):
    """Every Latin table in lexicographic order, by filling cells in
    table order and testing each partial line with sets."""
    total = n ** d
    table = [0] * total
    strides = [n ** (d - 1 - s) for s in range(d)]

    def fits(m, v):
        for stride in strides:
            coord = (m // stride) % n
            base = m - coord * stride
            for k in range(coord):
                if table[base + k * stride] == v:
                    return False
        return True

    def fill(m):
        if m == total:
            yield tuple(table)
            return
        for v in range(n):
            if fits(m, v):
                table[m] = v
                yield from fill(m + 1)

    yield from fill(0)


def paratopes(n: int, d: int, cellset):
    """Every image of a cell set under Sym(X)^(d+1) x| S_(d+1)."""
    syms = list(itertools.permutations(range(n)))
    for slots in itertools.permutations(range(d + 1)):
        moved = [tuple(c[s] for s in slots) for c in cellset]
        for relabel in itertools.product(syms, repeat=d + 1):
            yield frozenset(tuple(p[x] for p, x in zip(relabel, c)) for c in moved)


def orbit_sizes(n: int, d: int) -> tuple:
    """Paratopism orbit sizes of all Latin tables at (n, d), largest first."""
    seen, sizes = set(), []
    for table in enumerate_lex(n, d):
        key = frozenset(cells(n, d, table))
        if key not in seen:
            orbit = set(paratopes(n, d, key))
            seen |= orbit
            sizes.append(len(orbit))
    return tuple(sorted(sizes, reverse=True))


def canonical_brute(n: int, d: int, table) -> tuple:
    """Table of the min-lex member of the paratopism orbit."""
    best = min(tuple(sorted(image)) for image in paratopes(n, d, cells(n, d, table)))
    return table_of_cells(n, d, best)


def lhc_text(n: int, d: int, table) -> str:
    """The .lhc serialisation: header, then rows of n symbols."""
    rows = [" ".join(map(str, table[b:b + n])) for b in range(0, len(table), n)]
    return "\n".join([f"{n} {d}"] + rows) + "\n"
