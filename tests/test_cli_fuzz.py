"""The CLI contract: every argv and every input file ends in exit 0, 1,
2 or 3, never in an uncaught exception.

Arbitrary ``.lhc`` and ``.tsv`` text is written to files and fed to the
file-reading subcommands together with ``--slot``, ``--value``,
``--perm`` and ``--limit`` fragments.  The subcommands that read no file
get small, negative and malformed shapes, budgets and ceilings.
argparse's own ``SystemExit(2)`` counts as exit 2.
"""
from hypothesis import HealthCheck, given, settings, strategies as st

from latinop import emit_lhc
from latinop.cli import main
from latinop.enumeration import enumerate_all

SHAPES = [(1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
LATIN = {shape: list(enumerate_all(*shape)) for shape in SHAPES}

token = st.one_of(
    st.integers(-1, 4).map(str),
    st.sampled_from(["x", "1.5", "0x1", "", "٣", "9" * 30]),
)


@st.composite
def lhc_texts(draw, shape):
    """A Latin table of the given shape, a table of tokens (mostly in
    range), an order-1 header of large arity, or arbitrary text."""
    kind = draw(st.sampled_from(["latin", "latin", "table", "order-one", "text"]))
    if kind == "latin":
        return emit_lhc(draw(st.sampled_from(LATIN[shape])))
    if kind == "order-one":
        d = draw(st.sampled_from([24, 25, 1000, 3_000_000, 10 ** 30]))
        return f"1 {d}\n" + draw(st.sampled_from(["0", "0 0", "", "1"])) + "\n"
    if kind == "table":
        n, d = draw(st.integers(0, 4)), draw(st.integers(0, 3))
        size = max(n, 1) ** max(d, 0) + draw(st.sampled_from([0, 0, 0, -1, 1]))
        symbol = st.one_of(st.integers(0, max(n - 1, 0)).map(str), token)
        body = draw(st.lists(symbol, min_size=size, max_size=size))
        return f"{n} {d}\n" + " ".join(body) + "\n"
    return draw(st.text(max_size=30))


@st.composite
def tsv_texts(draw, shape):
    """A transversal of the given shape (one permutation per slot), a
    list of token lines, or arbitrary text."""
    kind = draw(st.sampled_from(["transversal", "lines", "text"]))
    if kind == "transversal":
        n, d = shape
        perms = [draw(st.permutations(range(n))) for _ in range(d + 1)]
        return "\n".join(" ".join(str(p[k]) for p in perms) for k in range(n))
    if kind == "lines":
        lines = st.lists(token, max_size=4).map(" ".join)
        return "\n".join(draw(st.lists(lines, max_size=4)))
    return draw(st.text(max_size=20))


number = st.one_of(st.integers(-1, 4).map(str), st.sampled_from(["x", "", "1e9"]))
perm = st.sampled_from(["1", "2 1", "1 2", "1 2 3", "3 1 2", "2 2", "0 1", "x", ""])

# subcommand -> (number of .lhc operands, required options, other options)
SUBCOMMANDS = {
    "check": (1, [], []),
    "compose": (2, ["--slot"], []),
    "pullback-compose": (2, ["--slot"], []),
    "conjugate": (1, ["--slot"], []),
    "act": (1, ["--perm"], []),
    "restrict": (1, ["--slot", "--value"], []),
    "transversals": (1, [], ["--limit", "--count"]),
    "delta": (1, ["--transversal"], []),
    "canon": (1, [], []),
    "graph": (1, [], ["--stats", "--edges"]),
    "autos": (1, [], []),
}
FRAGMENTS = ["--slot", "--value", "--perm", "--limit", "--count", "--edges"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(SUBCOMMANDS)), st.sampled_from(SHAPES), st.data())
def test_cli_exit_codes_on_arbitrary_files(tmp_path, capsys, sub, shape, data):
    operands, required, optional = SUBCOMMANDS[sub]
    paths = []
    for k in range(operands):
        path = tmp_path / f"in{k}.lhc"
        path.write_text(data.draw(lhc_texts(shape)))
        paths.append(str(path))
    (tmp_path / "t.tsv").write_text(data.draw(tsv_texts(shape)))
    # half the time no further option; else mostly the subcommand's own
    extra = []
    if data.draw(st.booleans()):
        extra = data.draw(st.lists(st.sampled_from(optional * 3 + FRAGMENTS),
                                   min_size=1, max_size=2))
    argv = [sub] + paths
    for opt in required + extra:
        if opt in ("--slot", "--value", "--limit"):
            argv += [opt, data.draw(number)]
        elif opt == "--perm":
            argv += [opt, data.draw(perm)]
        elif opt == "--transversal":
            argv += [opt, str(tmp_path / "t.tsv")]
        elif opt == "--edges":
            argv += [opt, "-"]
        else:
            argv.append(opt)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2, 3)


def numbers(lo, hi):
    """The integers lo..hi and the malformed numbers argparse refuses."""
    return st.one_of(st.integers(lo, hi).map(str), st.sampled_from(["x", "", "1e9"]))


ceilings = st.one_of(numbers(-2, 0), st.sampled_from(["1", "8", "27", "100000"]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["enumerate", "random", "orbits", "verify-operad"]), st.data())
def test_cli_exit_codes_without_input_files(capsys, sub, data):
    # shapes stay at n, d <= 3 and max-degree <= 2, so every run is short
    argv = [sub, "--n", data.draw(numbers(-1, 3))]
    if sub == "verify-operad":
        argv += ["--max-degree", data.draw(numbers(-1, 2)),
                 "--budget", str(data.draw(st.integers(-2, 5)))]
    else:
        argv += ["--d", data.draw(numbers(-1, 3))]
    if sub == "enumerate":
        argv += data.draw(st.sampled_from([[], ["--count"], ["--stream", "-"]]))
    if sub != "verify-operad" and data.draw(st.booleans()):
        argv += ["--cell-ceiling", data.draw(ceilings)]
    if sub == "orbits" and data.draw(st.booleans()):
        argv += ["--group-ceiling", data.draw(ceilings)]
    if sub in ("random", "verify-operad") and data.draw(st.booleans()):
        argv += ["--seed", data.draw(numbers(-1, 3))]
    if data.draw(st.booleans()):
        argv = ["--jobs", data.draw(numbers(-1, 3))] + argv
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2, 3)
