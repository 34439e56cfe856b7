"""The auxiliary undirected multigraph that turns X-path packing into matching.

Host vertex v gets the auxiliary ids 2v and 2v+1. Outside X they are its two
copies, joined by a split edge: every host edge end with sign - at v lands on
2v, every end with sign + on 2v+1. An X-vertex is not split: all its ends land
on 2v, and 2v+1 stays isolated. So the owner of auxiliary vertex a is a >> 1,
and a & 1 tells the + copy from the - one. The split edges form the base
matching; X-paths of the host correspond exactly to the base-alternating
X-paths here.
"""

from __future__ import annotations

from .core import MINUS, BidirectedMultigraph, VertexId


class AuxiliaryGraph:
    """The auxiliary graph of (host, X) as two flat edge lists.

    Edge i joins `us[i]` and `vs[i]`. The first `split_count` edges are the
    split edges (2v, 2v+1) in host-vertex order; host edge e follows as edge
    `split_count + e`. So matchings and certificates are reproducible.
    """

    def __init__(self, host: BidirectedMultigraph, x: frozenset[VertexId]):
        n = host.vertex_count
        self.vertex_count = 2 * n
        # An end with sign - at v lands on at_minus[v], one with sign + on
        # at_plus[v]. Reading the ids from lists shares one int object per id.
        at_minus = list(range(0, 2 * n, 2))
        at_plus = list(range(1, 2 * n, 2))
        for v in x:
            at_plus[v] = at_minus[v]
        split = [v for v in host.vertices() if v not in x]
        self.split_count = len(split)
        self.us = [at_minus[v] for v in split]
        self.vs = [at_plus[v] for v in split]
        ends = host.edge_ends
        self.us += [(at_minus if sign is MINUS else at_plus)[u] for u, sign, _, _ in ends()]
        self.vs += [(at_minus if sign is MINUS else at_plus)[v] for _, _, v, sign in ends()]
