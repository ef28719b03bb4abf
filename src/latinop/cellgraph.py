"""The shared-coordinate graph of a Latin hypercube.

Vertices are the cells in lexicographic order; two distinct cells are
adjacent when they agree in at least one coordinate slot.  Any d slots
of a cell determine it, so distinct cells agree on at most d-1 slots
(asserted during construction), and n^(d-k) cells agree with a given
cell on any k <= d chosen slots.  By inclusion-exclusion over the slots
every cell has the same degree, a function of (n, d) alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CeilingError, CellSet, cell_ceiling


@dataclass(frozen=True)
class HypercubeGraph:
    vertices: tuple  # cells, lexicographically ordered
    edges: tuple     # (i, j) vertex-index pairs, i < j, sorted


@dataclass(frozen=True)
class GraphStats:
    vertices: int
    edges: int
    degree_histogram: tuple  # sorted (degree, count) pairs
    is_regular: bool
    degree: int | None  # common degree when regular


def hypercube_graph(L: CellSet) -> HypercubeGraph:
    edges, ceiling = graph_stats(L).edges, cell_ceiling()
    if edges > ceiling:
        raise CeilingError(f"{edges} graph edges exceed the ceiling of {ceiling}")
    vertices = L.sorted_cells()
    n, d = L.n, L.d
    shared = {}
    for s in range(d + 1):
        buckets = [[] for _ in range(n)]
        for i, cell in enumerate(vertices):
            buckets[cell[s]].append(i)
        for bucket in buckets:
            for a in range(len(bucket)):
                for b in range(a + 1, len(bucket)):
                    pair = (bucket[a], bucket[b])
                    shared[pair] = shared.get(pair, 0) + 1
    for (i, j), k in shared.items():
        if k >= d:
            raise AssertionError(
                f"distinct cells {vertices[i]} and {vertices[j]} share {k} slots"
            )
    return HypercubeGraph(vertices=vertices, edges=tuple(sorted(shared)))


def graph_stats(L: CellSet) -> GraphStats:
    """The statistics of the regular graph, from (n, d) alone."""
    n, d, vertices = L.n, L.d, len(L.table)
    degree = sum((-1) ** (k + 1) * math.comb(d + 1, k) * n ** (d - k) for k in range(1, d + 1))
    degree += (-1) ** d - 1  # the k = d+1 term, less the cell itself
    return GraphStats(vertices, vertices * degree // 2, ((degree, vertices),), True, degree)


def edge_list_lines(L: CellSet):
    """Edge list export: one "u v" pair per line, vertices as cell
    indices in lexicographic order; the graph is built (or refused) now."""
    g = hypercube_graph(L)
    return (f"{i} {j}" for i, j in g.edges)
