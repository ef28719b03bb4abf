import collections
import itertools

import pytest

from latinop import (
    CeilingError,
    GraphStats,
    LatinOp,
    RawOp,
    ValidationError,
    graph_of,
    graph_stats,
    hypercube_graph,
    unit,
)
from latinop import cellgraph
from latinop.cellgraph import edge_list_lines
from latinop.enumeration import enumerate_all, random_latin

from oracles import cyclic_table, max_shared_coordinates, pairwise_degrees, pairwise_edges

# not Latin: cells 4 = (1, 1, 2) and 7 = (2, 1, 2) share two slots
TWO_SHARED = (0, 1, 2, 1, 2, 0, 2, 2, 1)


def test_permutation_graph_has_no_edges():
    for n in (1, 2, 3, 5):
        g = hypercube_graph(graph_of(unit(n)))
        assert g.edges == ()


def test_xor_square_by_hand():
    # 4 cells; each pair of distinct cells shares exactly one slot
    g = hypercube_graph(graph_of(LatinOp(2, 2, (0, 1, 1, 0))))
    assert len(g.vertices) == 4
    assert len(g.edges) == 6
    stats = graph_stats(graph_of(LatinOp(2, 2, (0, 1, 1, 0))))
    assert stats.is_regular and stats.degree == 3


def test_order3_square_stats():
    stats = graph_stats(graph_of(LatinOp(3, 2, cyclic_table(3))))
    assert stats.vertices == 9
    assert stats.is_regular and stats.degree == 6  # 3 * (3 - 1)


def test_degree_closed_form_squares():
    # at d = 2 the inclusion-exclusion degree is 3n - 3 + 1 - 1 = 3(n - 1);
    # test_stats_match_pairwise_oracle checks it at d >= 3
    for n in (2, 3, 4):
        stats = graph_stats(graph_of(LatinOp(n, 2, cyclic_table(n))))
        assert stats.is_regular and stats.degree == 3 * (n - 1)


def test_degrees_match_pairwise_oracle():
    cases = [
        graph_of(LatinOp(3, 2, cyclic_table(3))),
        graph_of(LatinOp(4, 2, cyclic_table(4))),
        graph_of(LatinOp(2, 3, cyclic_table(2, d=3))),
        graph_of(LatinOp(3, 3, cyclic_table(3, d=3))),
    ]
    for L in cases:
        g = hypercube_graph(L)
        degrees = [0] * len(g.vertices)
        for i, j in g.edges:
            degrees[i] += 1
            degrees[j] += 1
        assert degrees == pairwise_degrees(L.cells)


def test_shared_coordinate_bound():
    # distinct cells agree on at most d-1 slots (d shared slots would
    # force equality); for d >= 3 two shared slots do occur
    for f in enumerate_all(3, 2):
        assert max_shared_coordinates(graph_of(f).cells) <= 1
    L = graph_of(LatinOp(2, 3, cyclic_table(2, d=3)))
    assert max_shared_coordinates(L.cells) == 2
    hypercube_graph(L)  # construction must not trip the d-share guard


def test_d3_graphs_construct_and_match_oracle():
    for f in enumerate_all(3, 3):
        L = graph_of(f)
        g = hypercube_graph(L)
        degrees = [0] * len(g.vertices)
        for i, j in g.edges:
            degrees[i] += 1
            degrees[j] += 1
        assert degrees == pairwise_degrees(L.cells)


def test_edge_list_export():
    lines = list(edge_list_lines(graph_of(LatinOp(2, 2, (0, 1, 1, 0)))))
    assert lines == ["0 1", "0 2", "0 3", "1 2", "1 3", "2 3"]


def test_graph_of_every_hypercube_form():
    # a LatinOp or a Latin RawOp has the graph of its CellSet; a RawOp
    # that is not Latin is refused at the gate
    table = cyclic_table(3)
    forms = (graph_of(LatinOp(3, 2, table)), LatinOp(3, 2, table), RawOp(3, 2, table))
    for view in (hypercube_graph, lambda L: list(edge_list_lines(L)), graph_stats):
        assert view(forms[0]) == view(forms[1]) == view(forms[2])
    for view in (hypercube_graph, edge_list_lines):
        with pytest.raises(ValidationError, match="not Latin"):
            view(RawOp(3, 2, TWO_SHARED))


def test_vertices_are_lexicographic_cells():
    L = graph_of(LatinOp(3, 2, cyclic_table(3)))
    g = hypercube_graph(L)
    assert g.vertices == tuple(sorted(L.cells))


def oracle_stats(cells):
    """Graph statistics from the pairwise degree scan."""
    degrees = pairwise_degrees(cells)
    hist = tuple(sorted(collections.Counter(degrees).items()))
    regular = len(hist) == 1
    return GraphStats(
        vertices=len(degrees),
        edges=sum(degrees) // 2,
        degree_histogram=hist,
        is_regular=regular,
        degree=degrees[0] if regular else None,
    )


def test_stats_match_pairwise_oracle():
    # the statistics come from (n, d) alone; the pair scan is the reference
    shapes = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
              (3, 1), (3, 2), (3, 3), (4, 2)]
    ops = [f for shape in shapes for f in enumerate_all(*shape)]
    ops += [random_latin(n, d, seed)
            for n, d in ((4, 3), (5, 3), (3, 4), (2, 6)) for seed in range(3)]
    for f in ops:
        L = graph_of(f)
        assert graph_stats(L) == oracle_stats(L.cells), (f.n, f.d, f.table)


def test_edge_list_refused_over_the_ceiling(monkeypatch):
    L = graph_of(LatinOp(4, 2, cyclic_table(4)))
    edges = graph_stats(L).edges  # 16 * 9 / 2 = 72
    monkeypatch.setenv("LATINOP_CELL_CEILING", str(edges - 1))
    with pytest.raises(CeilingError, match=f"{edges} graph edges exceed the ceiling of {edges - 1}"):
        hypercube_graph(L)
    with pytest.raises(CeilingError):
        edge_list_lines(L)  # refused at the call, before any line is read
    monkeypatch.setenv("LATINOP_CELL_CEILING", str(edges))
    assert len(hypercube_graph(L).edges) == edges == 72


def test_edge_sequence_matches_pair_scan():
    # the exact stream, not only the degrees: every pair of cells that
    # share a slot, in lexicographic order of the index pairs
    ops = [f for shape in ((2, 3), (3, 3)) for f in enumerate_all(*shape)]
    ops += [random_latin(n, d, seed)
            for n, d in ((4, 3), (3, 4), (2, 5), (5, 2)) for seed in range(3)]
    for f in ops:
        L = graph_of(f)
        edges = pairwise_edges(L.cells)
        assert hypercube_graph(L).edges == edges, (f.n, f.d, f.table)
        assert list(edge_list_lines(L)) == [f"{i} {j}" for i, j in edges]


class StreamStopped(Exception):
    pass


def test_edge_listing_streams_until_a_failure(monkeypatch):
    # nothing is built at the call, and the edges found before the stream
    # fails come out first
    L = graph_of(LatinOp(3, 2, cyclic_table(3)))
    stream, started = cellgraph._edge_stream, []

    def five_then_stop(vertices, n, d):
        started.append(True)
        yield from itertools.islice(stream(vertices, n, d), 5)
        raise StreamStopped

    monkeypatch.setattr(cellgraph, "_edge_stream", five_then_stop)
    lines = edge_list_lines(L)
    assert not started
    assert [next(lines) for _ in range(5)] == ["0 1", "0 2", "0 3", "0 5", "0 6"]
    with pytest.raises(StreamStopped):
        next(lines)
    with pytest.raises(StreamStopped):
        hypercube_graph(L)
