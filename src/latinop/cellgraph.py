"""The shared-coordinate graph of a Latin hypercube.

Vertices are the cells in lexicographic order; two distinct cells are
adjacent when they agree in at least one coordinate slot.  The cell-set
invariants force distinct cells to agree on at most d-1 slots (agreement
on d slots would make them equal); this is asserted during construction.
For d <= 2 the graph is regular of degree (d+1)(n^(d-1) - 1); for d >= 3
slot classes of a cell can overlap, so degrees are computed, not assumed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import CellSet


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
    g = hypercube_graph(L)
    degrees = [0] * len(g.vertices)
    for i, j in g.edges:
        degrees[i] += 1
        degrees[j] += 1
    hist = {}
    for deg in degrees:
        hist[deg] = hist.get(deg, 0) + 1
    regular = len(hist) == 1
    return GraphStats(
        vertices=len(g.vertices),
        edges=len(g.edges),
        degree_histogram=tuple(sorted(hist.items())),
        is_regular=regular,
        degree=degrees[0] if regular and degrees else None,
    )


def edge_list_lines(L: CellSet):
    """Edge list export: one "u v" pair per line, vertices as cell
    indices in lexicographic order."""
    g = hypercube_graph(L)
    for i, j in g.edges:
        yield f"{i} {j}"
