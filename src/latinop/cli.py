"""Command-line surface tying the library together.

Exit codes: 0 success / affirmative, 1 negative verification result,
2 input or write error, 3 resource-ceiling refusal; a reader that closes
the output pipe ends a command quietly with 0.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

from . import __version__
from .core import (
    CeilingError,
    LatinOp,
    SlotPermutation,
    ValidationError,
    _latin,
    conjugate,
    is_latin,
)
from .formats import _separated, emit_lhc, emit_tsv, parse_lhc, parse_tsv


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


@contextlib.contextmanager
def _output(path):
    """A context holding stdout for "-", left open, else the file at path,
    whose failed open or write, a closed pipe aside, is a ValidationError
    naming it."""
    if path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as out:
            yield out
    except BrokenPipeError:
        raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _load_raw(path):
    return parse_lhc(_read_text(path))


def _load_latin(path) -> LatinOp:
    raw = _load_raw(path)
    try:
        return _latin(raw)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _parse_perm(text, d):
    try:
        values = tuple(int(t) for t in text.split())
    except ValueError:
        raise ValidationError(f"permutation {text!r} is not a list of integers")
    return SlotPermutation(d, values)


def cmd_check(args):
    raw = _load_raw(args.file)
    ok = is_latin(raw)
    print(f"latin: {'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_compose(args):
    from .operad import compose_at
    f = _load_latin(args.f)
    g = _load_latin(args.g)
    sys.stdout.write(emit_lhc(compose_at(f, g, args.slot)))
    return 0


def cmd_conjugate(args):
    f = _load_latin(args.file)
    sys.stdout.write(emit_lhc(conjugate(f, args.slot)))
    return 0


def cmd_act(args):
    from .operad import act
    f = _load_latin(args.file)
    sigma = _parse_perm(args.perm, f.d)
    sys.stdout.write(emit_lhc(act(sigma, f)))
    return 0


def cmd_restrict(args):
    from .pullback import restrict
    f = _load_latin(args.file)
    sys.stdout.write(emit_lhc(restrict(f, args.slot, args.value)))
    return 0


def cmd_enumerate(args):
    from .enumeration import count_all, enumerate_all
    if args.stream is None:
        print(count_all(args.n, args.d, args.cell_ceiling))
        return 0
    ops = enumerate_all(args.n, args.d, args.cell_ceiling)  # refused before out opens
    with _output(args.stream) as out:
        for record in _separated(map(emit_lhc, ops)):
            out.write(record)
            out.flush()
    return 0


def cmd_random(args):
    from .enumeration import random_latin
    op = random_latin(args.n, args.d, args.seed, args.cell_ceiling)
    sys.stdout.write(emit_lhc(op))
    return 0


def cmd_transversals(args):
    from .transversal import _transversals, count_transversals
    f = _load_latin(args.file)
    if args.count:
        print(f"transversals: {count_transversals(f, args.limit)}")
        return 0
    found = 0
    for record in _separated(map(emit_tsv, _transversals(f, args.limit))):
        sys.stdout.write(record)
        found += 1
    print(f"transversals: {found}", file=sys.stderr)
    return 0


def cmd_delta(args):
    from .transversal import delta_check
    f = _load_latin(args.file)
    t = parse_tsv(_read_text(args.transversal), f.n, f.d)
    report = delta_check(t, f.n)
    print(f"computed: {report.computed}")
    print(f"expected: {report.expected}")
    print(f"pass: {'true' if report.passed else 'false'}")
    return 0 if report.passed else 1


def cmd_canon(args):
    from .enumeration import canonical_form
    f = _load_latin(args.file)
    sys.stdout.write(emit_lhc(canonical_form(f, args.group_ceiling)))
    return 0


def cmd_orbits(args):
    from .enumeration import orbit_census
    census = orbit_census(args.n, args.d, args.group_ceiling, args.cell_ceiling)
    sizes = sorted(census.values(), reverse=True)
    print(f"classes: {len(sizes)}")
    for k, size in enumerate(sizes, 1):
        print(f"class {k}: size {size}")
    print(f"total: {sum(sizes)}")
    return 0


def cmd_graph(args):
    from .cellgraph import edge_list_lines, graph_stats
    f = _load_latin(args.file)
    if args.edges is not None:
        lines = edge_list_lines(f)  # refused before out opens
        with _output(args.edges) as out:
            out.writelines(line + "\n" for line in lines)
        return 0
    stats = graph_stats(f)
    print(f"vertices: {stats.vertices}")
    print(f"edges: {stats.edges}")
    print("regular: true")  # the graph of a Latin hypercube is regular
    print(f"degree: {stats.degree}")
    return 0


def cmd_verify_operad(args):
    from .operad import verify_operad_axioms
    report = verify_operad_axioms(args.n, args.max_degree, args.budget, args.seed)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def cmd_autos(args):
    from .morphisms import automorphisms
    f = _load_latin(args.file)
    autos = automorphisms(f, args.ceiling)
    for a in autos:
        print(" ".join(map(str, a)))
    print(f"count: {len(autos)}")
    return 0


def cmd_pullback_compose(args):
    from .pullback import pullback_compose
    f, g = _load_latin(args.f), _load_latin(args.g)
    sys.stdout.write(emit_lhc(pullback_compose(f, g, args.slot)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="latinop",
        description="Exact combinatorics of Latin hypercubes and their operad.",
    )
    parser.add_argument("--version", action="version", version=f"latinop {__version__}")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="accepted for compatibility; has no effect",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test the Latin property of a table")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compose", help="substitution composition f o_i g")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--slot", type=int, required=True, help="1-based slot i of f")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("conjugate", help="move a slot to the output position")
    p.add_argument("file")
    p.add_argument("--slot", type=int, required=True)
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("act", help="permute argument slots")
    p.add_argument("file")
    p.add_argument("--perm", required=True, help='1-based one-line notation, e.g. "2 1 3"')
    p.set_defaults(func=cmd_act)

    p = sub.add_parser("restrict", help="fix one coordinate of the cell set")
    p.add_argument("file")
    p.add_argument("--slot", type=int, required=True)
    p.add_argument("--value", type=int, required=True)
    p.set_defaults(func=cmd_restrict)

    p = sub.add_parser("enumerate", help="all Latin operations at (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--count", action="store_true", help="print the count (default)")
    group.add_argument("--stream", metavar="OUT", help=".lhcs output path, or - for stdout")
    p.add_argument("--cell-ceiling", type=int, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("random", help="randomized-backtracking Latin operation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cell-ceiling", type=int, default=None)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("transversals", help="canonical transversals of a hypercube")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--count", action="store_true")
    p.set_defaults(func=cmd_transversals)

    p = sub.add_parser("delta", help="alternating-sum identity for a transversal")
    p.add_argument("file")
    p.add_argument("--transversal", required=True, metavar="TSV")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("canon", help="min-lex paratopism canonical form")
    p.add_argument("file")
    p.add_argument("--group-ceiling", type=int, default=None)
    p.set_defaults(func=cmd_canon)

    p = sub.add_parser("orbits", help="paratopism orbit census at (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--group-ceiling", type=int, default=None)
    p.add_argument("--cell-ceiling", type=int, default=None)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("graph", help="shared-coordinate graph of a hypercube")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--stats", action="store_true", help="print statistics (default)")
    group.add_argument("--edges", metavar="OUT", help="edge-list path, or - for stdout")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify-operad", help="machine-check the operad axioms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_operad)

    p = sub.add_parser("autos", help="automorphisms of an operation")
    p.add_argument("file")
    p.add_argument("--ceiling", type=int, default=None)
    p.set_defaults(func=cmd_autos)

    p = sub.add_parser("pullback-compose", help="composition via the cell-set join")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--slot", type=int, required=True)
    p.set_defaults(func=cmd_pullback_compose)

    return parser


def main(argv=None) -> int:
    parser, printed = build_parser(), io.StringIO()
    try:
        try:  # --help and --version print inside parse_args, then exit
            with contextlib.redirect_stdout(printed):
                args = parser.parse_args(argv)
        finally:  # argparse drops a failed write; this one reaches the handlers
            if printed.getvalue():
                print(printed.getvalue(), end="", flush=True)
        code = args.func(args)
        sys.stdout.flush()  # a buffered write fails here, not at interpreter exit
        return code
    except CeilingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a closed pipe, or stdout failed: files raise ValidationError
        # what stays buffered goes to the null device at interpreter exit;
        # an in-process caller's stdout may have no file descriptor
        with contextlib.suppress(OSError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        if isinstance(exc, BrokenPipeError):  # the reader stopped reading; nothing failed
            return 0
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
