import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import latinop
from latinop import (
    FormatError,
    LatinOp,
    RawOp,
    emit_lhc,
    emit_lhcs,
    emit_tsv,
    graph_of,
    parse_lhc,
    parse_lhcs,
    parse_tsv,
)
from latinop import cellgraph, transversal
from latinop.cli import main
from latinop.enumeration import enumerate_all

from oracles import cyclic_table, emit_lhc_rowwise, emit_tsv_rowwise
from test_cellgraph import TWO_SHARED
from test_cellset import FILES

ADD3 = "3 2\n0 1 2\n1 2 0\n2 0 1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------- formats


def test_parse_identity_permutation():
    op = parse_lhc("2 1\n0 1\n")
    assert (op.n, op.d, op.table) == (2, 1, (0, 1))


def test_parse_addition_table():
    op = parse_lhc(ADD3)
    assert op.table == cyclic_table(3)


def test_parse_accepts_non_latin():
    op = parse_lhc("2 2\n0 1\n0 1\n")
    assert isinstance(op, RawOp)
    # built without a second scan, it is the op the constructor builds
    assert op == RawOp(2, 2, (0, 1, 0, 1))
    assert hash(op) == hash(RawOp(2, 2, (0, 1, 0, 1)))
    from latinop import is_latin

    assert not is_latin(op)


def test_round_trip_all_enumerated_small():
    for n in (1, 2, 3):
        for d in (1, 2):
            for op in enumerate_all(n, d):
                assert parse_lhc(emit_lhc(op)) == RawOp(op.n, op.d, op.table)


# orders on both sides of 10, where symbols stop being one digit
@given(st.integers(1, 12), st.integers(1, 3), st.randoms(use_true_random=False))
def test_round_trip_random_tables(n, d, rnd):
    table = tuple(rnd.randrange(n) for _ in range(n ** d))
    op = RawOp(n, d, table)
    assert parse_lhc(emit_lhc(op)) == op


def test_emit_lhc_matches_rowwise_join():
    ops = [
        RawOp(3, 2, TWO_SHARED),  # not Latin
        RawOp(1, 4, (0,)),
        RawOp(5, 1, (3, 0, 4, 1, 2)),
        LatinOp(12, 2, cyclic_table(12)),  # two-digit symbols
        RawOp(11, 2, tuple(v * 7 % 11 for v in range(121))),
        graph_of(LatinOp(10, 3, cyclic_table(10, 3))),
    ]
    for op in ops:
        assert emit_lhc(op) == emit_lhc_rowwise(op)


def test_parse_error_positions():
    with pytest.raises(FormatError, match="line 2, column 3"):
        parse_lhc("2 1\n0 x\n")
    with pytest.raises(FormatError, match="out of range"):
        parse_lhc("2 1\n0 2\n")
    with pytest.raises(FormatError, match="trailing"):
        parse_lhc("2 1\n0 1 0\n")
    with pytest.raises(FormatError, match="end of input"):
        parse_lhc("3 2\n0 1 2\n")
    with pytest.raises(FormatError, match="^line 1, column 1: missing 'n d' header$"):
        parse_lhc("")
    # a lone token is the header's first: the error names its position
    with pytest.raises(FormatError, match="^line 3, column 2: missing 'n d' header$"):
        parse_lhc("\n\n 5\n")


def test_lhcs_stream_round_trip():
    ops = list(enumerate_all(3, 1))
    text = emit_lhcs(ops)
    parsed = parse_lhcs(text)
    assert [p.table for p in parsed] == [op.table for op in ops]


def lhcs_error(text):
    with pytest.raises(FormatError) as err:
        parse_lhcs(text)
    return str(err.value)


def test_lhcs_errors_name_stream_positions():
    # positions count lines of the whole stream, not of the record
    assert lhcs_error("2 1\n0 1\n\n2 1\n0 x\n") == (
        "line 5, column 3: expected an integer, got 'x'")
    # a whitespace-only line separates records too
    assert lhcs_error("2 1\n0 1\n \t\n2 1\n1 0\n  \n2 1\n1 5\n") == (
        "line 8, column 3: symbol 5 out of range [0, 2)")
    # CRLF line ends and leading blank lines
    text = "\r\n\r\n2 1\r\n0 1\r\n\r\n2 1\r\n1 0\r\n\r\n2 1\r\n0 1 1\r\n"
    assert lhcs_error(text) == (
        "line 10, column 5: trailing token '1' (expected exactly 2 symbols)")
    assert lhcs_error("\n\n2 1\n0 1\n\n2 1\n  1 0 0\n") == (
        "line 7, column 7: trailing token '0' (expected exactly 2 symbols)")
    # a missing header is placed at the record's first token
    assert lhcs_error("2 1\n0 1\n\n  2\n") == "line 4, column 3: missing 'n d' header"
    assert lhcs_error("2 1\n0 1\n\n2 1\n1 0\n\n\n 3\n") == (
        "line 8, column 2: missing 'n d' header")
    assert lhcs_error("2 1\n0 1\n\n2 x\n") == "line 4, column 3: expected an integer, got 'x'"


def test_lhcs_record_separators():
    assert parse_lhcs("") == parse_lhcs(" \n\n") == []
    for text in ("2 1\n0 1\n\n2 1\n1 0\n", "\n 2 1\n0 1\n \n\n2 1\n1 0",
                 "2 1\r\n0 1\r\n\r\n2 1\r\n1 0\r\n", "2 1\r0 1\r\r2 1\r1 0\r"):
        assert [op.table for op in parse_lhcs(text)] == [(0, 1), (1, 0)]
    # lines with tokens belong to one record however they are broken
    assert [op.table for op in parse_lhcs("2\n1 0\n1\n")] == [(0, 1)]


def test_tsv_round_trip():
    from latinop import Transversal

    t = Transversal(3, 2, ((0, 0, 0), (1, 1, 1), (2, 2, 2)))
    assert parse_tsv(emit_tsv(t), 3, 2) == t


def test_emit_tsv_matches_rowwise_join():
    from latinop import Transversal

    # one-digit symbols at orders 9 and 3, two-digit ones at order 11
    lists = [transversal.find_transversals(graph_of(LatinOp(n, d, cyclic_table(n, d))))
             for n, d in ((9, 2), (11, 2), (3, 3))]
    assert list(map(len, lists)) == [2025, 37851, 27]
    found = [t for ts in lists for t in ts]
    # a transversal need not lie in a square: cyclic order 10 has none
    found += [Transversal(n, 2, tuple((k, (k + 1) % n, n - 1 - k) for k in range(n)))
              for n in (1, 10, 11)]
    for t in found:
        assert emit_tsv(t) == emit_tsv_rowwise(t)


def test_tsv_errors():
    cases = {
        "0 0\n1 1\n2 2\n": "line 1: expected 3 entries, got 2",
        "0 0 9\n1 1 1\n2 2 2\n": "line 1, column 5: symbol 9 out of range [0, 3)",
        "\n0 0 0\n\n1 1\n2 2 2\n": "line 4: expected 3 entries, got 2",
        "0 0 0 0\n1 1 1\n2 2 2\n": "line 1: expected 3 entries, got 4",
        "1 1\n0 x 0\n": "line 1: expected 3 entries, got 2",
        "0 x 0\n1 1\n": "line 1, column 3: expected an integer, got 'x'",
        "0 0 0\n\n  1 x 1\n": "line 3, column 5: expected an integer, got 'x'",
        "   \n\t\n0 0 1.5\n": "line 3, column 5: expected an integer, got '1.5'",
        "\n\n0 0 0\n1\t 1  7\n": "line 4, column 7: symbol 7 out of range [0, 3)",
        "0 0 0\n1 1 -1\n": "line 2, column 5: symbol -1 out of range [0, 3)",
        "0 0 0\r\n\r\n1 1\r\n": "line 3: expected 3 entries, got 2",
    }
    for text, message in cases.items():
        with pytest.raises(FormatError) as info:
            parse_tsv(text, 3, 2)
        assert str(info.value) == message
    # blank lines, however many and wherever, hold no cell
    t = parse_tsv("\n0 0 0\n\n1 1 1\n  \n2 2 2\n\n", 3, 2)
    assert t.cells == ((0, 0, 0), (1, 1, 1), (2, 2, 2))


# ---------------------------------------------------------------- CLI


def test_check_true(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", ADD3)
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == "latin: true\n"


def test_check_false(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", "2 2\n0 1\n0 1\n")
    assert main(["check", path]) == 1
    assert capsys.readouterr().out == "latin: false\n"


def test_check_malformed_exits_2(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", "2 1\n0 7\n")
    assert main(["check", path]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["check", "/nonexistent.lhc"]) == 2


def test_compose_cli(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", ADD3)
    assert main(["compose", path, path, "--slot", "2"]) == 0
    out = capsys.readouterr().out
    assert parse_lhc(out).table == cyclic_table(3, d=3)


def test_conjugate_cli(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", "3 1\n1 2 0\n")
    assert main(["conjugate", path, "--slot", "1"]) == 0
    assert parse_lhc(capsys.readouterr().out).table == (2, 0, 1)


def test_act_cli(tmp_path, capsys):
    sub3 = "3 2\n" + "\n".join(
        " ".join(str((x - y) % 3) for y in range(3)) for x in range(3)
    )
    path = write(tmp_path, "f.lhc", sub3)
    assert main(["act", path, "--perm", "2 1"]) == 0
    got = parse_lhc(capsys.readouterr().out)
    assert got.table == tuple((y - x) % 3 for x in range(3) for y in range(3))


def test_cli_operand_errors_exit_2(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", ADD3)
    assert main(["act", path, "--perm", "a b"]) == 2
    assert capsys.readouterr().err == "error: permutation 'a b' is not a list of integers\n"
    bad = write(tmp_path, "bad.lhc", "2 2\n0 1\n0 1\n")  # in range, not Latin
    assert main(["compose", path, bad, "--slot", "1"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: table is not Latin (order 2, arity 2)\n"


def test_restrict_cli(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", ADD3)
    assert main(["restrict", path, "--slot", "3", "--value", "1"]) == 0
    got = parse_lhc(capsys.readouterr().out)
    assert got.table == tuple((1 - x) % 3 for x in range(3))


def test_enumerate_count_cli(capsys):
    assert main(["enumerate", "--n", "4", "--d", "2", "--count"]) == 0
    assert capsys.readouterr().out == "576\n"


def test_enumerate_stream_cli(tmp_path):
    out = tmp_path / "out.lhcs"
    assert main(["enumerate", "--n", "3", "--d", "1", "--stream", str(out)]) == 0
    ops = parse_lhcs(out.read_text())
    assert len(ops) == 6
    assert [op.table for op in ops] == sorted(op.table for op in ops)


def test_enumerate_ceiling_exits_3(capsys):
    assert main(["enumerate", "--n", "10", "--d", "2", "--cell-ceiling", "5"]) == 3


def test_enumerate_stream_refused_before_the_file_opens(tmp_path, capsys):
    # 2^30 cells are over the cell ceiling, and at d = 23 the search's
    # 23 * 2^23 line indices are; either refusal leaves the file as it was
    out = tmp_path / "out.lhcs"
    out.write_text("kept\n")
    for d, err in [("30", "n^d = 2^30 table cells"), ("23", "d * n^d = 23 * 2^23 search")]:
        assert main(["enumerate", "--n", "2", "--d", d, "--stream", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {err}")
        assert out.read_text() == "kept\n"
    missing = str(tmp_path / "missing" / "x")
    assert main(["enumerate", "--n", "2", "--d", "2", "--stream", missing]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {missing}: ")


def test_enumerate_count_refused_by_the_permanent_bound(capsys):
    # at least 10^656 reduced squares of order 32: refused, not searched
    assert main(["enumerate", "--n", "32", "--d", "2"]) == 3
    assert capsys.readouterr().err == (
        "error: at least (n!)^(2n) / (n^(n^2) * n! * (n-1)!) reduced squares of "
        "order 32 exceed the ceiling of 10000000\n")


def test_random_over_the_budget_exits_3_or_0():
    argv, env = cli_argv(["random", "--n", "6", "--d", "3", "--seed", "1"])
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 3)
    assert "Traceback" not in proc.stderr


def test_ceiling_env_not_a_positive_integer_exits_2(monkeypatch, capsys):
    for value in ("abc", "0", "-5", "1e3", "9" * 5000):
        monkeypatch.setenv("LATINOP_CELL_CEILING", value)
        assert main(["enumerate", "--n", "3", "--d", "2"]) == 2
        err = capsys.readouterr().err
        assert "LATINOP_CELL_CEILING" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_ceiling_flags_not_a_positive_integer_exit_2(tmp_path, capsys, value):
    # a ceiling argument has the rule of LATINOP_CELL_CEILING: not an int
    # >= 1 is an input error (2), not a request refused by a ceiling (3)
    path = write(tmp_path, "f.lhc", ADD3)
    shape = ["--n", "3", "--d", "2"]
    runs = [["enumerate", *shape, "--cell-ceiling", value],
            ["enumerate", *shape, "--stream", "-", "--cell-ceiling", value],
            ["random", *shape, "--cell-ceiling", value],
            ["orbits", *shape, "--cell-ceiling", value],
            ["orbits", *shape, "--group-ceiling", value],
            ["canon", path, "--group-ceiling", value],
            ["autos", path, "--ceiling", value]]
    for argv in runs:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert f"must be a positive integer, got {value}" in captured.err
        assert "Traceback" not in captured.err


def assert_refused(argv, capsys):
    assert main(argv) in (2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_huge_header_short_body_refused(tmp_path, capsys):
    # 3^200000 has more digits than int-to-str conversion allows
    assert_refused(["check", write(tmp_path, "f.lhc", "3 200000\n0 1 2\n")], capsys)


def test_order_one_huge_arity_header_refused(tmp_path, capsys):
    # 1^d = 1 cell fits any ceiling; the arity alone must be refused
    path = write(tmp_path, "f.lhc", "1 3000000\n0\n")
    assert main(["check", path]) == 3
    assert "Traceback" not in capsys.readouterr().err


def test_order_one_huge_arity_refused(capsys):
    # d = 1000 is past the arity bound yet quick to search without it
    for sub in ("enumerate", "random"):
        assert main([sub, "--n", "1", "--d", "1000"]) == 3
        assert "Traceback" not in capsys.readouterr().err


def test_enumerate_stream_missing_dir_refused(tmp_path, capsys):
    out = str(tmp_path / "missing" / "x")
    assert_refused(["enumerate", "--n", "2", "--d", "2", "--stream", out], capsys)


def test_graph_edges_missing_dir_refused(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", ADD3)
    assert_refused(["graph", path, "--edges", str(tmp_path / "missing" / "x")], capsys)


def test_compose_over_ceiling_refused(tmp_path, monkeypatch, capsys):
    # the operands fit under the ceiling, their order-5 composite does not
    big = write(tmp_path, "f.lhc", emit_lhc(LatinOp(5, 2, cyclic_table(5))))
    monkeypatch.setenv("LATINOP_CELL_CEILING", "100")
    for sub in ("compose", "pullback-compose"):
        assert_refused([sub, big, big, "--slot", "1"], capsys)


def test_random_cli_deterministic(capsys):
    assert main(["random", "--n", "4", "--d", "2", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["random", "--n", "4", "--d", "2", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    from latinop import is_latin

    assert is_latin(parse_lhc(first))


def test_transversals_cli_count(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", ADD3)
    assert main(["transversals", path, "--count"]) == 0
    assert capsys.readouterr().out == "transversals: 3\n"


def test_transversals_cli_listing(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", ADD3)
    assert main(["transversals", path]) == 0
    out = capsys.readouterr().out
    blocks = [b for b in out.strip().split("\n\n") if b]
    assert len(blocks) == 3


def test_delta_cli(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", ADD3)
    tsv = write(tmp_path, "t.tsv", "0 0 0\n1 1 2\n2 2 1\n")
    assert main(["delta", path, "--transversal", tsv]) == 0
    out = capsys.readouterr().out
    assert "computed: 0" in out and "expected: 0" in out and "pass: true" in out


def test_canon_cli(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", ADD3)
    assert main(["canon", path]) == 0
    first = parse_lhc(capsys.readouterr().out)
    # canonical form is an orbit invariant: a paratopic square agrees
    shifted = "3 2\n1 2 0\n2 0 1\n0 1 2\n"
    path2 = write(tmp_path, "g.lhc", shifted)
    assert main(["canon", path2]) == 0
    assert parse_lhc(capsys.readouterr().out) == first


def test_canon_ceiling_exits_3(tmp_path, capsys):
    n = 5
    text = f"{n} 2\n" + "\n".join(
        " ".join(str((x + y) % n) for y in range(n)) for x in range(n)
    )
    path = write(tmp_path, "f.lhc", text)
    assert main(["canon", path]) == 3


def test_orbits_cli(capsys):
    assert main(["orbits", "--n", "4", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "classes: 2" in out
    assert "total: 576" in out


def test_orbits_bad_shape_exits_2(capsys):
    # the shape is checked before the group order, which takes factorials
    for n, d in [(-1, 0), (3, -2), (10, 0), (0, 2)]:
        assert main(["orbits", "--n", str(n), "--d", str(d)]) == 2
        assert "must be >= 1" in capsys.readouterr().err


def test_group_order_refusal_exits_3(tmp_path, capsys):
    # n!^(d+1) * (d+1)! here has more digits than int-to-str allows; the
    # refusal names it by its factors
    path = write(tmp_path, "z700.lhc", emit_lhc_rowwise(LatinOp(700, 2, cyclic_table(700))))
    runs = {("orbits", "--n", "700", "--d", "2"): "700!^3 * 3!",
            ("orbits", "--n", "2", "--d", "1500"): "2!^1501 * 1501!",
            ("canon", path): "700!^3 * 3!"}
    for argv, order in runs.items():
        assert main(list(argv)) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: paratopism group order n!^(d+1) * (d+1)! = {order} "
                                "exceeds the ceiling of 100000\n")


def test_graph_cli_stats(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", ADD3)
    assert main(["graph", path, "--stats"]) == 0
    out = capsys.readouterr().out
    assert "vertices: 9" in out and "degree: 6" in out


def test_graph_cli_edges(tmp_path):
    path = write(tmp_path, "f.lhc", "2 2\n0 1\n1 0\n")
    out = tmp_path / "edges.txt"
    assert main(["graph", path, "--edges", str(out)]) == 0
    assert out.read_text().splitlines() == [
        "0 1", "0 2", "0 3", "1 2", "1 3", "2 3",
    ]


def test_graph_cli_edges_over_the_ceiling(tmp_path, monkeypatch, capsys):
    # 16 cells of degree 9: 72 edges
    path = write(tmp_path, "f.lhc", emit_lhc(LatinOp(4, 2, cyclic_table(4))))
    out = tmp_path / "edges.txt"
    monkeypatch.setenv("LATINOP_CELL_CEILING", "71")
    for dest in ("-", str(out)):
        assert main(["graph", path, "--edges", dest]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 72 graph edges exceed the ceiling of 71\n"
    assert not out.exists()
    assert main(["graph", path, "--stats"]) == 0  # the statistics build no edge
    assert "edges: 72" in capsys.readouterr().out
    monkeypatch.setenv("LATINOP_CELL_CEILING", "72")
    assert main(["graph", path, "--edges", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 72


def test_verify_operad_cli(capsys):
    assert main(["verify-operad", "--n", "3", "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 5 and "fail" not in out


def test_verify_operad_cli_prints_the_witness_of_a_failed_axiom(monkeypatch, capsys):
    # a fault that breaks inner equivariance alone: exit 1, and the one
    # failing line ends with its witness
    monkeypatch.setattr("latinop.operad.embed_permutation",
                        lambda tau, i, d: latinop.SlotPermutation.identity(d + tau.d - 1))
    assert main(["verify-operad", "--n", "3", "--max-degree", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "closure: pass (540 checks)",
        "sequential-associativity: pass (16200 checks)",
        "parallel-associativity: pass (3888 checks)",
        "unit: pass (48 checks)",
    ]
    assert lines[4:] == ["equivariance: fail (1872 checks) witness: inner f=(0, 1, 2) "
                         "g=(0, 1, 2, 2, 0, 1, 1, 2, 0) tau=(2, 1) i=1"]


def test_verify_operad_cli_refuses_oversized_permutation_lists(capsys):
    # 11! - 1 slot permutation entries: refused before any is listed
    assert main(["verify-operad", "--n", "1", "--max-degree", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: (max_degree + 1)! - 1 = 39916799 slot permutation entries of "
        "degrees 1..10 exceed the ceiling of 10000000\n"
    )


def test_autos_cli(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", ADD3)
    assert main(["autos", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "count: 2"
    assert out[0] == "0 1 2"


def test_pullback_compose_cli_matches_compose(tmp_path, capsys):
    path = write(tmp_path, "f.lhc", ADD3)
    assert main(["pullback-compose", path, path, "--slot", "1"]) == 0
    via_join = parse_lhc(capsys.readouterr().out)
    assert main(["compose", path, path, "--slot", "1"]) == 0
    via_table = parse_lhc(capsys.readouterr().out)
    assert via_join == via_table


def test_jobs_flag_does_not_change_output(capsys):
    outputs = []
    for jobs in ("1", "4"):
        assert main(["--jobs", jobs, "enumerate", "--n", "3", "--d", "2",
                     "--stream", "-"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_seeded_runs_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        assert main(["verify-operad", "--n", "2", "--max-degree", "2",
                     "--budget", "1", "--seed", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_output_file_matches_stdout(tmp_path, capsys):
    """--edges OUT and --stream OUT write the bytes that "-" prints."""
    inputs = {name: text for name, text in FILES.items() if name.endswith(".lhc")}
    inputs["one.lhc"] = "1 1\n0\n"  # order 1: one cell, no edges
    runs = [["graph", write(tmp_path, name, text), "--edges"] for name, text in inputs.items()]
    runs += [["enumerate", "--n", str(n), "--d", str(d), "--stream"]
             for n in (1, 2, 3) for d in (1, 2, 3)]
    out = tmp_path / "out"
    for argv in runs:
        assert main(argv + ["-"]) == 0
        printed = capsys.readouterr().out
        assert main(argv + [str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()


# ---------------------------------------------------------------- streaming


class SearchStopped(Exception):
    pass


def test_graph_edges_written_as_found(tmp_path, monkeypatch, capsys):
    # the edge stream fails after the edges of vertex 0, which are
    # already on stdout
    path = write(tmp_path, "f.lhc", ADD3)
    stream = cellgraph._edge_stream

    def six_then_stop(vertices, n, d):
        yield from itertools.islice(stream(vertices, n, d), 6)
        raise SearchStopped

    monkeypatch.setattr(cellgraph, "_edge_stream", six_then_stop)
    with pytest.raises(SearchStopped):
        main(["graph", path, "--edges", "-"])
    assert capsys.readouterr().out == "0 1\n0 2\n0 3\n0 5\n0 6\n0 7\n"


def test_transversals_written_as_found(tmp_path, monkeypatch, capsys):
    # the search fails after its first result, which is already on stdout
    path = write(tmp_path, "f.lhc", ADD3)
    square = graph_of(LatinOp(3, 2, cyclic_table(3)))  # the table of ADD3
    first = emit_tsv(transversal.find_transversals(square, limit=1)[0])
    joins = transversal._joins

    def first_then_stop(L, limit):
        yield next(joins(L, limit))
        raise SearchStopped

    monkeypatch.setattr(transversal, "_joins", first_then_stop)
    with pytest.raises(SearchStopped):
        main(["transversals", path])
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------- write failures


def cli_argv(argv):
    """The command line and environment that run the CLI as a child."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(latinop.__file__)))
    return [sys.executable, "-m", "latinop.cli", *argv], env


@pytest.mark.parametrize("argv, first", [
    (["enumerate", "--n", "5", "--d", "2", "--stream", "-"], b"5 2\n"),
    (["graph", "z40.lhc", "--edges", "-"], b"0 1\n"),
    (["transversals", "z11.lhc"], b"0 0 0\n"),
])
def test_closed_pipe_ends_quietly(tmp_path, argv, first):
    # as with "| head -1": each output is far larger than a pipe buffer,
    # so the command is still writing when the reader goes away
    for n in (40, 11):
        write(tmp_path, f"z{n}.lhc", emit_lhc(LatinOp(n, 2, cyclic_table(n))))
    argv, env = cli_argv(argv)
    with subprocess.Popen(argv, env=env, cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == first
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv, name", [
    (["random", "--n", "3", "--d", "2"], "stdout"),
    (["enumerate", "--n", "3", "--d", "2", "--stream", "-"], "stdout"),
    (["enumerate", "--n", "3", "--d", "2", "--stream", "/dev/full"], "/dev/full"),
    (["--version"], "stdout"),
    (["--help"], "stdout"),
])
def test_failed_write_exits_2(argv, name):
    argv, env = cli_argv(argv)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, env=env, stdout=full, stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode == 2
    message = f"error: cannot write {name}: [Errno 28] No space left on device\n"
    assert proc.stderr.decode() == message
