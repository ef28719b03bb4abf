"""The CellSet contract: the graph view of a Latin table.

``CellSet(n, d, cells)`` accepts exactly the cell sets that
``is_latin_cellset`` accepts, equals and hashes like the graph of the
same table, and lists its cells in lexicographic order.  The CLI
commands that go through cell sets keep their stdout byte for byte:
their SHA-256 digests below were computed before cell sets were backed
by tables.
"""
import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from latinop import (
    CellSet,
    LatinOp,
    ValidationError,
    graph_of,
    is_latin_cellset,
)
from latinop.cli import main
from latinop.enumeration import enumerate_all

SHAPES = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]
OPS = {shape: list(enumerate_all(*shape)) for shape in SHAPES}


def graph_cells(n, d, table):
    return {
        args + (v,)
        for args, v in zip(itertools.product(range(n), repeat=d), table)
    }


@st.composite
def cell_sets(draw):
    """A Latin cell set, a perturbation of one, a truncation of one, or
    cells drawn at random; all well-formed."""
    n, d = draw(st.sampled_from(SHAPES))
    cell = st.tuples(*[st.integers(0, n - 1)] * (d + 1))
    kind = draw(st.sampled_from(["latin", "perturbed", "truncated", "random"]))
    if kind == "random":
        return n, d, draw(st.sets(cell, max_size=n ** d + 1))
    f = draw(st.sampled_from(OPS[n, d]))
    cells = sorted(graph_cells(n, d, f.table))
    if kind == "perturbed":
        k = draw(st.integers(0, len(cells) - 1))
        cells[k] = draw(cell)
    elif kind == "truncated":
        cells = cells[: draw(st.integers(0, len(cells) - 1))]
    return n, d, set(cells)


@settings(max_examples=300, deadline=None)
@given(cell_sets())
def test_cellset_accepts_exactly_latin_cell_sets(case):
    n, d, cells = case
    if not is_latin_cellset(cells, n, d):
        with pytest.raises(ValidationError):
            CellSet(n, d, cells)
        return
    L = CellSet(n, d, cells)
    assert L.cells == frozenset(cells)
    assert all(type(c) is tuple for c in L.cells)
    assert L.sorted_cells() == tuple(sorted(cells))
    f = LatinOp(n, d, tuple(c[-1] for c in sorted(cells)))
    G = graph_of(f)
    assert CellSet(n, d, G.cells) == G == L
    assert hash(G) == hash(L)
    assert {G: 1}[L] == 1
    assert G.sorted_cells() == L.sorted_cells()


@settings(max_examples=200, deadline=None)
@given(cell_sets(), st.data())
def test_repeated_cells_count_once(case, data):
    n, d, cells = case
    cells = sorted(cells)
    repeats = data.draw(st.lists(st.sampled_from(cells), max_size=3)) if cells else []
    listed = data.draw(st.permutations(cells + repeats))
    latin = is_latin_cellset(listed, n, d)
    assert latin == is_latin_cellset(cells, n, d)
    if latin:
        assert CellSet(n, d, listed) == CellSet(n, d, cells)
    else:
        with pytest.raises(ValidationError):
            CellSet(n, d, listed)


def test_repeated_cell_example():
    cells = [(0, 0), (0, 0), (1, 1)]
    assert is_latin_cellset(cells, 2, 1)
    assert CellSet(2, 1, cells) == graph_of(LatinOp(2, 1, (0, 1)))


def test_dimension_zero_is_malformed():
    with pytest.raises(ValidationError, match="dimension"):
        is_latin_cellset([(0,)], 1, 0)
    with pytest.raises(ValidationError, match="dimension"):
        CellSet(1, 0, [(0,)])


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SHAPES),
    st.lists(
        st.lists(st.one_of(st.integers(-2, 5), st.just("0"), st.just(0.5), st.just([0])),
                 max_size=5),
        min_size=1,
        max_size=6,
    ),
)
def test_malformed_cells_raise_validation_error(shape, raw):
    # "0" and 0.5 equal no int, so a set never merges them into a good cell;
    # a list entry is unhashable, so the cells are checked before any set
    n, d = shape
    cells = [tuple(c) for c in raw]
    well_formed = all(
        len(c) == d + 1 and all(isinstance(v, int) and 0 <= v < n for v in c)
        for c in cells
    )
    if well_formed:
        return
    with pytest.raises(ValidationError):
        is_latin_cellset(cells, n, d)
    with pytest.raises(ValidationError):
        CellSet(n, d, cells)


def test_constructor_is_positional_and_keyword():
    cells = {(0, 1), (1, 0)}
    assert CellSet(2, 1, cells) == CellSet(n=2, d=1, cells=cells)
    assert CellSet(2, 1, cells) == graph_of(LatinOp(2, 1, (1, 0)))
    assert CellSet(2, 1, cells) != CellSet(2, 1, {(0, 0), (1, 1)})


def test_cellset_error_names_a_failing_slot():
    # the repeated argument prefix (0,) is a slot-2 failure
    with pytest.raises(ValidationError, match="slot 2 projection"):
        CellSet(2, 1, {(0, 0), (0, 1)})
    with pytest.raises(ValidationError, match="slot 1 projection"):
        CellSet(2, 1, {(0, 1), (1, 1)})
    with pytest.raises(ValidationError, match="cell count 1"):
        CellSet(2, 1, {(0, 1)})
    with pytest.raises(ValidationError, match="expected 2"):
        CellSet(2, 1, {(0, 1, 0), (1, 0)})


def test_graph_of_rejects_non_latin_ops():
    from latinop import RawOp

    with pytest.raises(ValidationError, match="LatinOp"):
        graph_of(RawOp(2, 1, (0, 1)))


# ------------------------------------------------ pinned CLI stdout digests

INPUTS = {
    "add3.lhc": "3 2\n0 1 2\n1 2 0\n2 0 1\n",
    "q4.lhc": "4 2\n0 3 2 1\n3 0 1 2\n1 2 3 0\n2 1 0 3\n",
    "c3.lhc": "3 3\n0 1 2\n2 0 1\n1 2 0\n1 2 0\n0 1 2\n2 0 1\n"
              "2 0 1\n1 2 0\n0 1 2\n",
    "x2.lhc": "2 3\n1 0\n0 1\n0 1\n1 0\n",
    "q5.lhc": "5 2\n2 3 1 0 4\n3 4 2 1 0\n0 1 4 2 3\n1 0 3 4 2\n4 2 0 3 1\n",
}
SQUARES = ["add3.lhc", "q4.lhc", "q5.lhc"]
CUBES = ["c3.lhc", "x2.lhc"]
# larger inputs for the transversal search, kept apart from INPUTS so
# that the groups over INPUTS keep their digests
SEARCH_INPUTS = {
    "r7.lhc": "7 2\n3 1 5 6 4 0 2\n6 5 1 0 2 4 3\n1 0 2 5 3 6 4\n4 6 3 2 5 1 0\n"
              "5 4 6 3 0 2 1\n0 2 4 1 6 3 5\n2 3 0 4 1 5 6\n",
    "z9.lhc": "9 2\n" + "".join(
        " ".join(str((i + j) % 9) for j in range(9)) + "\n" for i in range(9)
    ),
    "r11.lhc": "11 2\n1 2 10 9 7 0 3 5 4 8 6\n0 7 9 4 6 8 2 1 10 5 3\n"
               "8 10 5 2 1 9 6 7 3 0 4\n2 1 0 10 3 5 8 6 7 4 9\n"
               "6 8 4 1 5 7 0 2 9 3 10\n7 3 6 0 4 1 10 9 5 2 8\n"
               "4 0 2 7 10 3 5 8 6 9 1\n9 4 1 3 2 6 7 0 8 10 5\n"
               "5 6 7 8 9 10 4 3 0 1 2\n3 9 8 5 0 4 1 10 2 6 7\n"
               "10 5 3 6 8 2 9 4 1 7 0\n",
    "c5.lhc": "5 3\n" + "".join(
        " ".join(str((i + 2 * j + k) % 5) for k in range(5)) + "\n"
        for i in range(5) for j in range(5)
    ),
}
# one transversal file per search input, by name
TRANSVERSAL_FILES = {
    "r7.lhc": "0 3 6\n1 5 4\n2 2 2\n3 4 5\n4 6 1\n5 0 0\n6 1 3\n",
    "z9.lhc": "0 4 4\n1 5 6\n2 3 5\n3 8 2\n4 6 1\n5 7 3\n6 2 8\n7 0 7\n8 1 0\n",
    "r11.lhc": "0 5 0\n1 7 1\n2 3 2\n3 4 3\n4 8 9\n5 6 10\n6 0 4\n7 10 5\n"
               "8 1 6\n9 2 8\n10 9 7\n",
    "c5.lhc": "0 2 2 1\n1 3 1 3\n2 0 0 2\n3 1 4 4\n4 4 3 0\n",
}
# a table that is not Latin, read by the check group alone
NON_LATIN = {"rows.lhc": "3 2\n0 1 2\n0 1 2\n2 0 1\n"}
FILES = {
    **INPUTS,
    **SEARCH_INPUTS,
    **{"t_" + name + ".tsv": text for name, text in TRANSVERSAL_FILES.items()},
}


def command_groups():
    """Subcommand -> argv list; file names are keys of INPUTS."""
    restrict = [
        ["restrict", name, "--slot", str(s), "--value", str(c)]
        for name in SQUARES + CUBES
        for s in range(1, int(INPUTS[name].split()[1]) + 2)
        for c in range(int(INPUTS[name].split()[0]))
    ]
    pairs = [("add3.lhc", "add3.lhc"), ("q4.lhc", "q4.lhc"),
             ("add3.lhc", "c3.lhc"), ("c3.lhc", "add3.lhc"),
             ("x2.lhc", "x2.lhc")]
    pullback = [
        ["pullback-compose", f, g, "--slot", str(i)]
        for f, g in pairs
        for i in range(1, int(INPUTS[f].split()[1]) + 1)
    ]
    return {
        "restrict": restrict,
        "pullback-compose": pullback,
        "canon": [["canon", name] for name in ["add3.lhc", "q4.lhc"] + CUBES],
        "graph-stats": [["graph", name, "--stats"] for name in INPUTS],
        "graph-edges": [["graph", name, "--edges", "-"] for name in INPUTS],
        "transversals": [["transversals", name] for name in INPUTS],
        "orbits": [["orbits", "--n", "3", "--d", "2"]],
        "autos": [["autos", name] for name in INPUTS],
        "transversals-search": [["transversals", name] for name in SEARCH_INPUTS],
        "transversals-count": [
            ["transversals", name, "--count"] + limit
            for name in {**INPUTS, **SEARCH_INPUTS}
            for limit in ([], ["--limit", "3"])
        ],
        "transversals-limit": [
            ["transversals", name, "--limit", "3"] for name in SEARCH_INPUTS
        ],
        "delta": [
            ["delta", name, "--transversal", "t_" + name + ".tsv"]
            for name in SEARCH_INPUTS
        ],
        "check": [["check", name] for name in ["add3.lhc", *NON_LATIN]],
        "compose": [["compose", *argv[1:]] for argv in pullback],
        "conjugate": [
            ["conjugate", name, "--slot", str(s)]
            for name in SQUARES + CUBES
            for s in range(1, int(INPUTS[name].split()[1]) + 2)
        ],
        "act": [
            ["act", name, "--perm", " ".join(map(str, p))]
            for name in SQUARES + CUBES
            for p in itertools.permutations(range(1, int(INPUTS[name].split()[1]) + 1))
        ],
        "random": [
            ["random", "--n", n, "--d", d, "--seed", str(seed)]
            for n, d in [("3", "2"), ("4", "2"), ("3", "3")]
            for seed in range(3)
        ],
        "enumerate": [
            ["enumerate", "--n", n, "--d", d, *mode]
            for n, d in [("3", "2"), ("2", "3")]
            for mode in (["--count"], ["--stream", "-"])
        ],
        "verify-operad": [
            ["verify-operad", "--n", n, "--max-degree", k] for n, k in [("2", "2"), ("3", "1")]
        ],
    }


def cli_digests(tmp_path, capsys):
    files = {**FILES, **NON_LATIN}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    digests = {}
    for group, commands in command_groups().items():
        h = hashlib.sha256()
        for argv in commands:
            argv = [str(tmp_path / a) if a in files else a for a in argv]
            code = main(argv)
            h.update(f"{code}\n".encode() + capsys.readouterr().out.encode())
        digests[group] = h.hexdigest()
    return digests


PINNED = {
    "restrict": "216a1733d00d8c08c1ea5388ced2183db1be204ab84ff670574dfb4c52b88d23",
    "pullback-compose": "fdda03c1d55a0e456fcb4fdef1ee3d6628cc0ee0b6c6a9ec980aa4c2e700a5c0",
    "canon": "f125ec6a6973a9a68d4d391d9fa8bd67825c7f413a59a2f9ac8be8f338d6de76",
    "graph-stats": "6a083e9d27bb6b57da957b3efe7f8fc8b72c15ec0e07aa1bb28ce005a8d8c824",
    "graph-edges": "0828d31da1e94f9cc7a6236f7f046abd309d7f3ca231b08b62f45c2c80db2dcc",
    "transversals": "c3ead83ab98fd0176fa1742403f2d83947dee9cd7d5d36b5aa641df1d8d0a773",
    "orbits": "3b6a42844e6054be7d8fe8bc1756b6171123433fd6065e57730c926745f40671",
    "autos": "517ef9d53520e4390e189b7d95c431522cbd0b77d597412690a9bfb0a2164c4b",
    # computed before the split-row transversal kernel
    "transversals-search": "23b6bdbbc3f64ec9bb5d031640a5efbdf18e7f8af8b4749c38d18610293d5b04",
    "transversals-count": "615b30acd1cd8d7e998f6bc980c8d3a8f7a48dc5c3dfb9e89e973f1c60ff8ee6",
    "transversals-limit": "b0fde906f134777da9472dd618de27a3f16b07da26bc7824b9f4d0b08b3bc17c",
    "delta": "b77a902719a8244bec8cf76741532a504fa757d5e12d9ac7e779757b47d197e8",
    # computed before the CLI handed its LatinOps to the library unconverted;
    # compose prints what pullback-compose prints, so their digests agree
    "check": "cbf638e08c7618cf40f8200c15c92b6969aed41729304427ffc6873657d7a6f0",
    "compose": "fdda03c1d55a0e456fcb4fdef1ee3d6628cc0ee0b6c6a9ec980aa4c2e700a5c0",
    "conjugate": "5cc695ca8cbc734438de03d5e8720d0f6d69fd8c505cd3cd67456b8446103fa7",
    "act": "aa225bf411f9de58cecb486657faa9e7bec8a4e3f49b3e96e4f5d9034708315d",
    "random": "c13760c33c763daf4a90613cf27556ad8afc78731787c21aeb70fc3c99878548",
    "enumerate": "6c8d8300ef1fc047ee5d5e7b473f61f0c742f44d1543c977536a43222867e9cc",
    "verify-operad": "13af30fb3f5c1c3bcd41c4186b7669178c1aaff1307d650aa648b19ac7a50d2b",
}


def test_cli_stdout_digests_pinned(tmp_path, capsys):
    assert cli_digests(tmp_path, capsys) == PINNED
