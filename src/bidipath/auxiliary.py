"""The auxiliary undirected multigraph that turns X-path packing into matching.

Every vertex v outside X is split into two copies (v, 1) and (v, 2) joined by
a split edge; every signed edge of the host is rerouted to copy 1 at an end
with sign - and to copy 2 at an end with sign +. The split edges form the
base matching; X-paths of the host correspond exactly to the base-alternating
X-paths here.
"""

from __future__ import annotations

from typing import Iterable

from .core import MINUS, BidirectedMultigraph, EdgeId, Multigraph, VertexId


class AuxiliaryGraph:
    """Frozen result of build_auxiliary; safe for shared read access.

    Vertex ids are dense, ordered by (underlying vertex, copy): `first[v]` is
    the one id of an X-vertex v, or the id of copy 1 of any other vertex,
    whose copy 2 is `first[v] + 1`. `owner[a]` and `copy[a]` name the host
    vertex and the copy (0 for an X-vertex) of auxiliary vertex a. Edge ids
    put the split edges first (by underlying vertex), then the rerouted host
    edges: host edge e becomes edge `len(split_edges) + e`. So matchings and
    certificates are reproducible.
    """

    def __init__(self, host: BidirectedMultigraph, x: frozenset[VertexId]):
        self.host = host
        self.x = x
        first: list[int] = []
        owner: list[VertexId] = []
        copy: list[int] = []
        # An edge end with sign - at v lands on first[v], one with sign + on at_plus[v].
        at_plus: list[int] = []
        endpoints: list[tuple[int, int]] = []
        self.split_edges: dict[VertexId, EdgeId] = {}
        for v in host.vertices():
            a = len(owner)
            first.append(a)
            if v in x:
                owner.append(v)
                copy.append(0)
                at_plus.append(a)
            else:
                owner += (v, v)
                copy += (1, 2)
                at_plus.append(a + 1)
                self.split_edges[v] = len(endpoints)
                endpoints.append((a, a + 1))
        self.first = first
        self.owner = owner
        self.copy = copy
        self.base_matching = frozenset(range(len(endpoints)))
        endpoints += [
            (
                (first if sign_u is MINUS else at_plus)[u],
                (first if sign_v is MINUS else at_plus)[v],
            )
            for u, sign_u, v, sign_v in host.edge_ends()
        ]
        self.graph = Multigraph(len(owner), tuple(endpoints))


def build_auxiliary(g: BidirectedMultigraph, x: Iterable[VertexId]) -> AuxiliaryGraph:
    """Construct the split-vertex auxiliary graph for (g, X)."""
    xs = g.check_vertex_set(x)
    return AuxiliaryGraph(g, xs)
