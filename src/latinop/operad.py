"""Operad structure on Latin operations: substitution composition,
symmetric-group actions on argument slots, the unit, and a
machine-checkable axiom verifier.

Action convention: (sigma . f)(x_1..x_d) = f(x_{sigma(1)}, .., x_{sigma(d)}),
a left action for the composition (sigma tau)(k) = sigma(tau(k)).
"""
from __future__ import annotations

import functools
import itertools
import math
import operator

from .core import (
    LatinOp,
    SlotPermutation,
    ValidationError,
    _Value,
    _check_cells,
    _check_composable,
    _check_shape,
    _check_slot,
    _int_in,
    _latin,
    _non_latin_slot,
    _paratope,
    _slot_move,
    _trusted,
    _within,
    cell_ceiling,
)


def unit(n: int) -> LatinOp:
    """The identity map, the degree-1 operad unit."""
    _check_shape(n, 1)
    return _trusted(LatinOp, n, 1, tuple(range(n)))


def _compose_table(n, d, ftab, e, gtab, i):
    """Raw table of f composed with g substituted into slot i (1-based).

    Output row (a, b) over the first i-1+e arguments is the row
    a * n + g[b] of f cut into rows over its last d-i arguments.
    """
    bases = range(0, n ** i, n)
    nsuf = n ** (d - i)
    if nsuf == 1:
        return tuple([ftab[a + gb] for a in bases for gb in gtab])
    rows = [ftab[k:k + nsuf] for k in range(0, len(ftab), nsuf)]
    picked = [rows[a + gb] for a in bases for gb in gtab]
    return tuple(itertools.chain.from_iterable(picked))


def compose_at(f: LatinOp, g: LatinOp, i: int) -> LatinOp:
    """The substitution composition f o_i g, of degree d + e - 1: Latin
    by closure, so only a RawOp operand is checked, and the result is not."""
    _check_composable(f, g, i)
    f, g = _latin(f), _latin(g)
    table = _compose_table(f.n, f.d, f.table, g.d, g.table, i)
    return _trusted(LatinOp, f.n, f.d + g.d - 1, table)


def act(sigma: SlotPermutation, f: LatinOp) -> LatinOp:
    """(sigma . f)(x_1..x_d) = f(x_{sigma(1)}, .., x_{sigma(d)})."""
    if sigma.d != f.d:
        raise ValidationError(f"degree mismatch: {sigma.d} != {f.d}")
    return _slot_move(f, (*sigma.perm, f.d + 1))


def compose_perm_at(sigma: SlotPermutation, tau: SlotPermutation, i: int) -> SlotPermutation:
    """Substitution composition of slot permutations (associative operad).

    The letter i of sigma expands to the run i..i+e-1, permuted within
    the run by tau; letters above i shift up by e-1, letters below stay.
    """
    d, e = sigma.d, tau.d
    _check_slot(i, d)
    out = []
    for v in sigma.perm:
        if v == i:
            out.extend(i - 1 + t for t in tau.perm)
        else:
            out.append(v if v < i else v + e - 1)
    return _trusted(SlotPermutation, d + e - 1, tuple(out))


def block_permutation(sigma: SlotPermutation, i: int, e: int) -> SlotPermutation:
    """sigma with its letter i replaced by a block of e letters moved as a unit."""
    if not _int_in(e, 1):
        raise ValidationError(f"block degree must be >= 1, got {e}")
    return compose_perm_at(sigma, SlotPermutation.identity(e), i)


def embed_permutation(tau: SlotPermutation, i: int, d: int) -> SlotPermutation:
    """tau acting on the slot block i..i+e-1 inside degree d+e-1, fixing the rest."""
    return compose_perm_at(SlotPermutation.identity(d), tau, i)


class AxiomResult(_Value, frozen=False):
    __slots__ = ("axiom", "checks", "passed", "witness", "key")
    _fields = ("axiom", "checks", "passed", "witness")
    _hidden = ("key",)

    def __init__(self, axiom: str, checks: int = 0, passed: bool = True,
                 witness: str | None = None, key: tuple = ()):
        self._set(axiom, checks, passed, witness, key)

    def fail(self, witness: str, key: tuple = ()) -> None:
        """Record a failure: the witness kept is that of the least key,
        the first one among failures of equal keys."""
        if self.passed or key < self.key:
            self.passed, self.witness, self.key = False, witness, key


class OperadReport(_Value, frozen=False):
    __slots__ = _fields = ("n", "max_degree", "exhaustive", "results")

    def __init__(self, n: int, max_degree: int, exhaustive: dict | None = None,
                 results: list | None = None):
        self._set(n, max_degree, {} if exhaustive is None else exhaustive,
                  [] if results is None else results)

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self):
        for r in self.results:
            status = "pass" if r.passed else "fail"
            line = f"{r.axiom}: {status} ({r.checks} checks)"
            if r.witness:
                line += f" witness: {r.witness}"
            yield line


def _pools(n, max_degree, sample_budget, seed):
    from .enumeration import enumerate_all, random_latin
    pools = {}
    exhaustive = {}
    for deg in range(1, max_degree + 1):
        ops = list(itertools.islice(enumerate_all(n, deg), sample_budget + 1))
        exhaustive[deg] = len(ops) <= sample_budget
        if not exhaustive[deg]:
            ops = [random_latin(n, deg, seed + 7919 * k) for k in range(sample_budget)]
        pools[deg] = ops
    return pools, exhaustive


def _gather(indices):
    """The C-level map from a table t to tuple(t[k] for k in indices)."""
    if len(indices) == 1:  # itemgetter of one index returns the entry itself
        k, = indices
        return lambda table: (table[k],)
    return operator.itemgetter(*indices)


def _permuter(n, cells, perm):
    """The gather from any arity-d table f to act(perm, f), for cells the
    table of f's cell indices: the paratopism kernel keeps the output
    slot, so it gathers from any table, here with each index relabelled
    to itself."""
    d = len(perm)
    return _gather(_paratope(n, d, (*perm, d + 1), (range(n),) * d + (cells,))(cells))


def _sweep(law, ops, xs, left, right, key, others, label=""):
    """Record the witness of a law whose two sides, the gathers of f by
    the index tuples left and right, differ on f's index table.  The
    first f = ops[x], x in xs, that they differ on has the least key
    (x, *key) of the sweep; its witness reads label, f, then others."""
    left, right = _gather(left), _gather(right)
    for x in xs:
        f = ops[x].table
        if left(f) != right(f):
            law.fail(f"{label}f={f} {others}", (x, *key))
            return


def verify_operad_axioms(
    n: int, max_degree: int, sample_budget: int = 200, seed: int = 0
) -> OperadReport:
    """Check the operad axioms on Latin operations over order n.

    Per degree up to max_degree the operand pool is exhaustive when the
    number of Latin operations fits in sample_budget, and a sampled set
    of that size otherwise.  Axioms checked: closure of o_i, sequential
    and parallel associativity, unit laws, and slot-permutation
    equivariance (outer and inner).  Failures are reported with a
    witness, not raised.  Both max_degree and sample_budget must be >= 1.

    Each composition with a given inner operand, and each slot
    permutation, is a gather derived from the kernels and applied to
    every table it meets: built once per verification, once per sweep
    over f when the inner operand is a composite or an acted operand, or,
    for a slot permutation, once per equivariance pass that uses it.
    Both sides of an associativity or equivariance law are gathers of f,
    so each law is settled once per tuple of the other operands and
    slots, on the table of f's cell indices; where the two sides differ
    there, the law runs over every f of the pool to find the witness.
    Each composite of two pool operations is built once, as an inner
    operand of sequential associativity, and checked for closure there.
    The count of checks is still that of the (f, g, h, slots) instances
    each law is settled for.
    """
    for name, value in (("max_degree", max_degree), ("sample_budget", sample_budget)):
        if not _int_in(value, 1):
            raise ValidationError(f"{name} must be >= 1, got {value}")
    _check_cells(n, 2 * max_degree - 1)  # the largest pool composite
    ceiling = cell_ceiling()
    # the slot permutations' entries bound their equivariance passes, one each
    nperms = math.factorial(max_degree + 1) - 1  # = sum of deg! * deg
    _within(ceiling, (nperms,), "(max_degree + 1)! - 1 = {} slot permutation entries of "
            "degrees 1..{} exceed the ceiling of {}", nperms, max_degree, ceiling)
    pools, exhaustive = _pools(n, max_degree, sample_budget, seed)
    report = OperadReport(n=n, max_degree=max_degree, exhaustive=exhaustive)
    allops = [op for deg in sorted(pools) for op in pools[deg]]
    xs_of = {d: [x for x, f in enumerate(allops) if f.d == d] for d in pools}

    # the cells of every composite allops[x] o_i allops[y], which the
    # closure check builds one at a time
    cells = sum(
        len(pools[d]) * len(pools[e]) * d * n ** (d + e - 1)
        for d in pools
        for e in pools
    )
    _within(ceiling, (cells,), "{} cells of pool composites exceed the ceiling of {}",
            cells, ceiling)

    # index[d] is the table of an arity-d table's cell indices: a kernel
    # applied to it gives the gather of its map.  Each index is one int
    # object, shared by every gather.
    index = {d: tuple(range(n ** d)) for d in range(1, 2 * max_degree)}

    @functools.cache  # the cell indices of "any arity-d table o_i allops[y]"
    def cells_into(d, i, y):
        return _compose_table(n, d, index[d], allops[y].d, allops[y].table, i)

    @functools.cache  # its gather: itemgetter keeps the index tuple it is given
    def into(d, i, y):
        return _gather(cells_into(d, i, y))

    # Both sides of each law below are gathers of f: if they agree on
    # index[d], they agree on every f of degree d, and the sweep over f
    # runs only where they differ, to find the witness.

    # (f o_i g) o_{i-1+j} h == f o_i (g o_j h).  The inner operand g o_j h
    # is a composite, so (y, z, j) runs outermost and each gather into it
    # lives for one sweep over f; the witness is the least failing tuple.
    # Closure is checked on each g o_j h, in the (f, g, i) order of its law.
    closure = AxiomResult("closure")
    seq = AxiomResult("sequential-associativity")
    for y, g in enumerate(allops):
        for z, h in enumerate(allops):
            for j in range(1, g.d + 1):
                closure.checks += 1
                gh = into(g.d, j, z)(g.table)
                if _non_latin_slot(n, g.d + h.d - 1, gh):
                    closure.fail(f"f={g.table} g={h.table} i={j}")
                for d, xs in xs_of.items():
                    for i in range(1, d + 1):
                        seq.checks += len(xs)
                        left = into(d + g.d - 1, i - 1 + j, z)(cells_into(d, i, y))
                        right = _compose_table(n, d, index[d], g.d + h.d - 1, gh, i)
                        if left != right:
                            _sweep(seq, allops, xs, left, right, (y, z, i, j),
                                   f"g={g.table} h={h.table} i={i} j={j}")
    report.results += [closure, seq]

    # (f o_i g) o_{k+e-1} h == (f o_k h) o_i g for i < k <= d; the
    # witness is the least failing (f, g, h, i, k)
    par = AxiomResult("parallel-associativity")
    for d, xs in xs_of.items():
        for y, g in enumerate(allops):
            for z, h in enumerate(allops):
                for i in range(1, d + 1):
                    for k in range(i + 1, d + 1):
                        par.checks += len(xs)
                        left = into(d + g.d - 1, k + g.d - 1, z)(cells_into(d, i, y))
                        right = into(d + h.d - 1, i, y)(cells_into(d, k, z))
                        if left != right:
                            _sweep(par, allops, xs, left, right, (y, z, i, k),
                                   f"g={g.table} h={h.table} i={i} k={k}")
    report.results.append(par)

    unit_ax = AxiomResult("unit")
    e_tab = tuple(range(n))
    for f in allops:
        for i in range(1, f.d + 1):
            unit_ax.checks += 1
            if _compose_table(n, f.d, f.table, 1, e_tab, i) != f.table:
                unit_ax.fail(f"f={f.table} i={i} (right unit)")
        unit_ax.checks += 1
        if _compose_table(n, 1, e_tab, f.d, f.table, 1) != f.table:
            unit_ax.fail(f"f={f.table} (left unit)")
    report.results.append(unit_ax)

    # one pass per slot permutation sigma of each pool degree d: sigma acts
    # on the degree-d pool once, for act(tau, g), tau = sigma, in the inner
    # law, and on index[d] once, for act(sigma, f) in the outer law.  A
    # pass builds each gather it uses once, sigma's and its block and embed
    # permutations', and drops them.  The witness is the least failing
    # (f, g, outer before inner, sigma or tau, slot).
    def permuter(p, built):  # p's gather, built once per pass
        if p not in built:
            built[p] = _permuter(n, index[len(p)], p)
        return built[p]

    equi = AxiomResult("equivariance")
    for d, xs in xs_of.items():
        for s, perm in enumerate(itertools.permutations(range(1, d + 1))):
            sigma = _trusted(SlotPermutation, d, perm)
            built = {}
            moved = permuter(perm, built)(index[d])
            acted = {x: built[perm](allops[x].table) for x in xs}
            # outer: act(sigma,f) o_k g == act(block(sigma,k,e), f o_{sigma^-1(k)} g)
            for k in range(1, d + 1):
                j = perm.index(k) + 1  # sigma^-1(k)
                for e, ys in xs_of.items():
                    block = permuter(block_permutation(sigma, k, e).perm, built)
                    for y in ys:
                        equi.checks += len(xs)
                        left, right = into(d, k, y)(moved), block(cells_into(d, j, y))
                        if left != right:
                            _sweep(equi, allops, xs, left, right, (y, 0, s, k),
                                   f"g={allops[y].table} sigma={perm} k={k}", "outer ")
            # inner: f o_i act(tau,g) == act(embed(tau,i,c), f o_i g), f of degree c
            for c, fs in xs_of.items():
                for i in range(1, c + 1):
                    embed = permuter(embed_permutation(sigma, i, c).perm, built)
                    for y, gy in acted.items():
                        equi.checks += len(fs)
                        left = _compose_table(n, c, index[c], d, gy, i)
                        right = embed(cells_into(c, i, y))
                        if left != right:
                            _sweep(equi, allops, fs, left, right, (y, 1, s, i),
                                   f"g={allops[y].table} tau={perm} i={i}", "inner ")
    report.results.append(equi)
    return report
