"""The auxiliary undirected multigraph that turns X-path packing into matching.

Every vertex v outside X is split into two copies (v, 1) and (v, 2) joined by
a split edge; every signed edge of the host is rerouted to copy 1 at an end
with sign - and to copy 2 at an end with sign +. The split edges form the
base matching; X-paths of the host correspond exactly to the base-alternating
X-paths here, and that bijection is implemented by lift_path / project_path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .core import (
    MINUS,
    BidirectedMultigraph,
    EdgeId,
    Multigraph,
    SignedPath,
    VertexId,
    is_x_path,
)
from .errors import (
    EndpointsNotInX,
    NotAlternating,
    NotAnXPath,
)


@dataclass(frozen=True, order=True)
class AuxVertex:
    """A vertex of the auxiliary graph: copy 0 is an original X-vertex,
    copies 1 and 2 are the two halves of a split non-X vertex."""

    vertex: VertexId
    copy: int

    @property
    def is_original(self) -> bool:
        return self.copy == 0


def copy_index(sign) -> int:
    """Copy 1 receives sign -, copy 2 receives sign +."""
    return 1 if sign is MINUS else 2


@dataclass(frozen=True)
class AlternatingPath:
    """A path in the auxiliary graph, as parallel vertex-id/edge-id tuples."""

    vertices: tuple[int, ...]
    edges: tuple[EdgeId, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.edges) + 1:
            raise ValueError("a path on l edges must list l+1 vertices")

    @property
    def length(self) -> int:
        return len(self.edges)


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

    @functools.cached_property
    def aux_vertices(self) -> tuple[AuxVertex, ...]:
        """The (vertex, copy) pair of every auxiliary id, in id order."""
        return tuple(AuxVertex(v, c) for v, c in zip(self.owner, self.copy))

    def p(self, v: VertexId, i: int) -> int:
        """The projection map: X-vertices stay themselves, others go to copy i."""
        a = self.first[v]
        return a if self.copy[a] == 0 else a + i - 1

    def lifted(self, e: EdgeId) -> EdgeId:
        """The auxiliary edge that host edge e is rerouted to."""
        return len(self.split_edges) + e


def build_auxiliary(g: BidirectedMultigraph, x: Iterable[VertexId]) -> AuxiliaryGraph:
    """Construct the split-vertex auxiliary graph for (g, X)."""
    xs = g.check_vertex_set(x)
    return AuxiliaryGraph(g, xs)


def lift_path(aux: AuxiliaryGraph, p: SignedPath) -> AlternatingPath:
    """Map an X-path of the host to its base-alternating image.

    At each internal vertex the path enters the copy matching the incoming
    sign, crosses the split edge, and leaves from the other copy; the image
    has 2l-1 edges, of which l-1 belong to the base matching.
    """
    if not is_x_path(aux.host, aux.x, p):
        raise NotAnXPath("lift_path requires an X-path of the host graph")
    verts = [aux.p(p.vertices[0], 0)]
    edges: list[EdgeId] = []
    for i, eid in enumerate(p.edges):
        v = p.vertices[i + 1]
        edges.append(aux.lifted(eid))
        if i + 1 < len(p.vertices) - 1:
            c_in = copy_index(aux.host.sign(v, eid))
            verts.append(aux.p(v, c_in))
            edges.append(aux.split_edges[v])
            verts.append(aux.p(v, 3 - c_in))
        else:
            verts.append(aux.p(v, 0))
    return AlternatingPath(tuple(verts), tuple(edges))


def project_path(aux: AuxiliaryGraph, q: AlternatingPath) -> SignedPath:
    """Invert lift_path: contract split-edge steps and pull edges back.

    The input must be a genuine path of the auxiliary graph that starts and
    ends at X-vertices and strictly alternates, beginning and ending outside
    the base matching.
    """
    vs, es = q.vertices, q.edges
    split_count = len(aux.split_edges)
    for a in vs:
        if not 0 <= a < aux.graph.vertex_count:
            raise NotAlternating(f"unknown auxiliary vertex {a}")
    if len(set(vs)) != len(vs):
        raise NotAlternating("path revisits an auxiliary vertex")
    if aux.copy[vs[0]] != 0 or aux.copy[vs[-1]] != 0:
        raise EndpointsNotInX("both endpoints must be X-vertices")
    if q.length < 1 or q.length % 2 == 0:
        raise NotAlternating("a base-alternating X-path has odd length >= 1")
    for i, eid in enumerate(es):
        if not 0 <= eid < aux.graph.edge_count:
            raise NotAlternating(f"unknown auxiliary edge {eid}")
        u, v = aux.graph.endpoints[eid]
        if {u, v} != {vs[i], vs[i + 1]}:
            raise NotAlternating("edge does not join consecutive path vertices")
        in_base = eid < split_count
        if in_base != (i % 2 == 1):
            raise NotAlternating("edges must alternate against the base matching")
    owner = aux.owner
    b_verts = [owner[vs[0]]]
    b_edges = []
    for i in range(0, len(es), 2):
        b_edges.append(es[i] - split_count)
        b_verts.append(owner[vs[i + 1]])
    return SignedPath(tuple(b_verts), tuple(b_edges))
