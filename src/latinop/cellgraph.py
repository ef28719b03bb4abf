"""The shared-coordinate graph of a Latin hypercube.

Vertices are the cells in lexicographic order; two distinct cells are
adjacent when they agree in at least one coordinate slot.  Any d slots
of a cell determine it, so distinct cells agree on at most d-1 slots,
and n^(d-k) cells agree with a given cell on any k <= d chosen slots.
By inclusion-exclusion over the slots every cell has the same degree, a
function of (n, d) alone.
"""
from __future__ import annotations

import collections
import math

from .core import CellSet, _Value, _cells, _latin, _within, cell_ceiling


class HypercubeGraph(_Value):
    # vertices: the cells, lexicographically ordered; edges: the (i, j)
    # vertex-index pairs, i < j, sorted
    __slots__ = _fields = ("vertices", "edges")

    def __init__(self, vertices: tuple, edges: tuple):
        self._set(vertices, edges)


class GraphStats(_Value):
    # degree_histogram: the sorted (degree, count) pairs; degree: the
    # common degree when regular, else None
    __slots__ = _fields = ("vertices", "edges", "degree_histogram", "is_regular", "degree")

    def __init__(self, vertices: int, edges: int, degree_histogram: tuple, is_regular: bool,
                 degree: int | None):
        self._set(vertices, edges, degree_histogram, is_regular, degree)


def hypercube_graph(L: CellSet) -> HypercubeGraph:
    """The graph of L, or of a Latin RawOp."""
    vertices, edges = _edges(_cells(L))
    return HypercubeGraph(vertices=vertices, edges=tuple(edges))


def _edges(L: CellSet):
    """The vertices, and the edges (i, j), i < j, sorted, as a stream:
    refused now, before either is built, if edges outnumber the cell ceiling."""
    edges, ceiling = graph_stats(L).edges, cell_ceiling()
    _within(ceiling, (edges,), "{} graph edges exceed the ceiling of {}", edges, ceiling)
    vertices = L.sorted_cells()
    return vertices, _edge_stream(vertices, L.n, L.d)


def _edge_stream(vertices, n: int, d: int):
    """Yield (i, j) for each vertex i and each later cell j that shares a
    slot value with it, j ascending.  Per slot and value a bucket holds the
    unvisited cells."""
    later = [[collections.deque() for _ in range(n)] for _ in range(d + 1)]
    for i, cell in enumerate(vertices):
        for s, x in enumerate(cell):
            later[s][x].append(i)
    for i, cell in enumerate(vertices):
        shared = set()
        for s, x in enumerate(cell):
            later[s][x].popleft()  # i itself
            shared.update(later[s][x])
        for j in sorted(shared):
            yield i, j


def graph_stats(L: CellSet) -> GraphStats:
    """The statistics of the regular graph of L, or of a Latin RawOp, from (n, d) alone."""
    n, d, vertices = L.n, L.d, len(_latin(L).table)
    degree = sum((-1) ** (k + 1) * math.comb(d + 1, k) * n ** (d - k) for k in range(1, d + 1))
    degree += (-1) ** d - 1  # the k = d+1 term, less the cell itself
    return GraphStats(vertices, vertices * degree // 2, ((degree, vertices),), True, degree)


def edge_list_lines(L: CellSet):
    """Edge list export of L, or of a Latin RawOp: one "u v" pair per line,
    vertices as cell indices in lexicographic order; refused now, streamed
    as read."""
    return (f"{i} {j}" for i, j in _edges(_cells(L))[1])
