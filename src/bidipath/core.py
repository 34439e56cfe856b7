"""Bidirected multigraphs: signed edges, paths, the dual bound and reductions.

A bidirected multigraph carries one sign (+ or -) at each end of each edge.
A path is valid when the two path edges meeting at any internal vertex have
distinct signs there; an X-path is a non-trivial valid path that meets the
vertex set X exactly in its two endpoints.
"""

from __future__ import annotations

import enum
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    GraphFrozen,
    InvalidParameter,
    LoopRejected,
    SideConditionViolated,
    UnknownVertex,
)


class Sign(enum.Enum):
    """One end-sign of an edge; negation swaps the two values."""

    PLUS = "+"
    MINUS = "-"

    def opposite(self) -> "Sign":
        return Sign.MINUS if self is Sign.PLUS else Sign.PLUS

    # Both skip Enum.__format__ and the `value` descriptor: the BGF writer
    # prints two signs per edge.
    def __str__(self) -> str:
        return self._value_

    def __format__(self, spec: str) -> str:
        return format(self._value_, spec)


PLUS = Sign.PLUS
MINUS = Sign.MINUS

VertexId = int
EdgeId = int


class BidirectedMultigraph:
    """Vertices are dense ints assigned in insertion order; edges likewise.

    The graph is mutable while being built and may be frozen afterwards;
    frozen graphs are safe to share between threads. Parallel edges are kept
    as distinct edges (even with identical sign pairs); loops are rejected.

    Edges are stored as four parallel lists indexed by edge id: the two
    endpoints and their signs. `_append` is the one code that extends them,
    with a batch its caller has checked: `add_edges` checks a whole batch
    first, `add_edge` is a batch of one, and the BGF parse appends the lists
    it resolved from its own name and sign tables. Nothing derived is kept:
    no incidence lists and no edge objects. `edge_ends()` is the bulk read,
    and a caller that walks adjacency (the oracle) indexes its own from it.
    """

    def __init__(self) -> None:
        self._n = 0
        self._u: list[VertexId] = []
        self._sign_u: list[Sign] = []
        self._v: list[VertexId] = []
        self._sign_v: list[Sign] = []
        self._frozen = False

    # -- construction ------------------------------------------------------

    def add_vertices(self, count: int) -> list[VertexId]:
        """Append `count` fresh vertices and return their ids."""
        if count <= 0:
            return []
        if self._frozen:
            raise GraphFrozen("cannot add a vertex to a frozen graph")
        first = self._n
        self._n += count
        return list(range(first, self._n))

    def add_edges(
        self,
        us: Sequence[VertexId],
        sus: Sequence[Sign],
        vs: Sequence[VertexId],
        svs: Sequence[Sign],
    ) -> range:
        """Append the edges (us[i], sus[i], vs[i], svs[i]) and return their ids.

        All or nothing: if any edge is a loop, names a vertex that does not
        exist (an id that is not an int in range) or has an end-sign that is
        not a `Sign`, the graph is left unchanged and the first such edge
        raises what `add_edge` would raise for it.
        """
        if self._frozen:
            raise GraphFrozen("cannot add an edge to a frozen graph")
        count = len(us)
        if not len(sus) == len(vs) == len(svs) == count:
            raise ValueError("add_edges needs four lists of equal length")
        if count and (
            not set(map(type, us)).union(map(type, vs)) <= {int}
            or min(min(us), min(vs)) < 0
            or max(max(us), max(vs)) >= self._n
            or any(map(operator.eq, us, vs))
            or not set(map(type, sus)) | set(map(type, svs)) <= {Sign}
        ):
            n = self._n
            for u, sign_u, v, sign_v in zip(us, sus, vs, svs):
                if u == v:
                    raise LoopRejected(f"loop at vertex {u}")
                for w in (u, v):
                    if type(w) is not int or not 0 <= w < n:
                        raise UnknownVertex(f"vertex {w!r} does not exist")
                for sign in (sign_u, sign_v):
                    if type(sign) is not Sign:
                        raise InvalidParameter(f"end-sign {sign!r} is not a Sign")
        return self._append(us, sus, vs, svs)

    def _append(
        self,
        us: Sequence[VertexId],
        sus: Sequence[Sign],
        vs: Sequence[VertexId],
        svs: Sequence[Sign],
    ) -> range:
        """Append edges that are known good, unchecked: four lists of equal
        length, ids that are ints in range, no loops, and `Sign` end-signs."""
        first = len(self._u)
        self._u += us
        self._sign_u += sus
        self._v += vs
        self._sign_v += svs
        return range(first, first + len(us))

    def add_edge(self, u: VertexId, sign_u: Sign, v: VertexId, sign_v: Sign) -> EdgeId:
        """Append an edge with the given end-signs and return its id."""
        return self.add_edges((u,), (sign_u,), (v,), (sign_v,))[0]

    def freeze(self) -> "BidirectedMultigraph":
        self._frozen = True
        return self

    # -- queries -----------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._u)

    def vertices(self) -> range:
        return range(self.vertex_count)

    def edge_ends(self) -> Iterator[tuple[VertexId, Sign, VertexId, Sign]]:
        """(u, sign_u, v, sign_v) of every edge, in id order."""
        return zip(self._u, self._sign_u, self._v, self._sign_v)

    def sign(self, v: VertexId, e: EdgeId) -> Sign:
        """The sign of half-edge (v, e)."""
        if not 0 <= e < len(self._u):
            raise UnknownVertex(f"edge {e} does not exist")
        if v == self._u[e]:
            return self._sign_u[e]
        if v == self._v[e]:
            return self._sign_v[e]
        raise UnknownVertex(f"vertex {v} is not an endpoint of this edge")

    def check_vertex_set(self, vs: Iterable[VertexId]) -> frozenset[VertexId]:
        """`vs` as a frozenset; UnknownVertex names an id that is not an int
        in range."""
        out = frozenset(vs)
        # A plain loop: for int ids it is faster than the bulk min/max and
        # set(map(type, ...)) test of add_edges.
        for v in out:
            if type(v) is not int or not 0 <= v < self._n:
                raise UnknownVertex(f"vertex {v!r} does not exist")
        return out


@dataclass(frozen=True)
class SignedPath:
    """Alternating vertex/edge sequence v0 e1 v1 ... el vl (length l >= 0)."""

    vertices: tuple[VertexId, ...]
    edges: tuple[EdgeId, ...]

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.edges) + 1:
            raise ValueError("a path on l edges must list l+1 vertices")

    @property
    def length(self) -> int:
        return len(self.edges)


def is_valid_path(g: BidirectedMultigraph, p: SignedPath) -> bool:
    """True iff p is a path of g with signs alternating at internal vertices.

    Malformed sequences (unknown ids, edges not joining their neighbours,
    repeated vertices) return False rather than raising.
    """
    vs, es = p.vertices, p.edges
    us, sus, ws, sws = g._u, g._sign_u, g._v, g._sign_v
    if len(set(vs)) != len(vs) or min(vs) < 0 or max(vs) >= g._n:
        return False
    if es and (min(es) < 0 or max(es) >= len(us)):
        return False
    arrived = None  # the sign at vs[i] of the edge that reached it
    for a, e, b in zip(vs, es, vs[1:]):
        if us[e] == a and ws[e] == b:
            left, arrived_next = sus[e], sws[e]
        elif ws[e] == a and us[e] == b:
            left, arrived_next = sws[e], sus[e]
        else:
            return False
        if left is arrived:
            return False
        arrived = arrived_next
    return True


def is_x_path(g: BidirectedMultigraph, x: Iterable[VertexId], p: SignedPath) -> bool:
    """True iff p is a non-trivial valid path meeting X exactly at its ends."""
    xs = frozenset(x)
    if p.length < 1 or not is_valid_path(g, p):
        return False
    if p.vertices[0] not in xs or p.vertices[-1] not in xs:
        return False
    return all(v not in xs for v in p.vertices[1:-1])


_ANY_SIGN = (MINUS, PLUS)
_MINUS_ONLY = (MINUS,)
_PLUS_ONLY = (PLUS,)
_NO_SIGN = ()


def restricted_roots(
    g: BidirectedMultigraph,
    ss: frozenset[VertexId],
    ts: frozenset[VertexId],
    vs: Iterable[VertexId],
) -> list[VertexId]:
    """The root of each vertex of `vs`, in order, in one union-find forest of
    the restricted graph B_{S,T}: two vertices share a root exactly when they
    share a component. S and T are checked vertex sets of g.

    B_{S,T} keeps every vertex of g and exactly those edges all of whose ends
    v satisfy: v outside S∪T, or v in S∖T with sign -, or v in T∖S with
    sign +. Every vertex of S∩T is therefore isolated.
    """
    # The signs an edge end may carry at each vertex and still be kept.
    allowed = [_ANY_SIGN] * g.vertex_count
    for v in ss - ts:
        allowed[v] = _MINUS_ONLY
    for v in ts - ss:
        allowed[v] = _PLUS_ONLY
    for v in ss & ts:
        allowed[v] = _NO_SIGN
    parent = list(range(g.vertex_count))
    size = [1] * g.vertex_count
    # Union by size with path halving, inlined: no function call per endpoint.
    for u, sign_u, v, sign_v in g.edge_ends():
        if sign_u in allowed[u] and sign_v in allowed[v]:
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                if size[u] > size[v]:
                    u, v = v, u
                parent[u] = v
                size[v] += size[u]
    roots = []
    for v in vs:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        roots.append(v)
    return roots


def dual_value(
    g: BidirectedMultigraph,
    x: Iterable[VertexId],
    s: Iterable[VertexId],
    t: Iterable[VertexId],
) -> int:
    """|S∩T| plus, per component C of the restricted graph, floor(|V(C)∩(X∪S∪T)|/2).

    Requires X∩S = X∩T; singleton components of S∩T vertices contribute 0.
    """
    return _dual_roots(g, x, s, t)[0]


def _dual_roots(
    g: BidirectedMultigraph,
    x: Iterable[VertexId],
    s: Iterable[VertexId],
    t: Iterable[VertexId],
) -> tuple[int, list[VertexId], list[VertexId]]:
    """The dual value of (S, T), checked as `dual_value` checks it, with the
    marked vertices X∪S∪T in ascending id order and, in that order, the
    root of each in the restricted graph's union-find forest."""
    xs = g.check_vertex_set(x)
    ss = g.check_vertex_set(s)
    ts = g.check_vertex_set(t)
    if xs & ss != xs & ts:
        raise SideConditionViolated("X ∩ S must equal X ∩ T")
    marked = sorted(xs | ss | ts)
    roots = restricted_roots(g, ss, ts, marked)
    value = len(ss & ts) + sum(c // 2 for c in Counter(roots).values())
    return value, marked, roots


def delete_vertices(
    g: BidirectedMultigraph, ys: Iterable[VertexId]
) -> tuple[BidirectedMultigraph, dict[VertexId, VertexId]]:
    """The submultigraph g - Y, plus the old-id -> new-id map for survivors."""
    dropped = g.check_vertex_set(ys)
    survivors = [v for v in g.vertices() if v not in dropped]
    remap = {v: i for i, v in enumerate(survivors)}
    kept = [
        (remap[u], sign_u, remap[v], sign_v)
        for u, sign_u, v, sign_v in g.edge_ends()
        if u in remap and v in remap
    ]
    out = BidirectedMultigraph()
    out.add_vertices(len(survivors))
    if kept:
        out.add_edges(*zip(*kept))
    return out, remap


def from_digraph(
    vertex_count: int, arcs: Sequence[tuple[int, int]]
) -> BidirectedMultigraph:
    """Encode a loop-free directed multigraph: each arc u->v gets sign - at u, + at v."""
    g = BidirectedMultigraph()
    g.add_vertices(vertex_count)
    us = [u for u, _ in arcs]
    vs = [v for _, v in arcs]
    g.add_edges(us, [MINUS] * len(us), vs, [PLUS] * len(vs))
    return g


def from_undirected(
    vertex_count: int, pairs: Sequence[tuple[int, int]]
) -> BidirectedMultigraph:
    """Encode a loop-free undirected multigraph with the edges `pairs`.

    Each edge {u, v} becomes two edges: one with sign - at u and + at v,
    one with the signs swapped, so both traversal directions alternate.
    """
    g = BidirectedMultigraph()
    g.add_vertices(vertex_count)
    us = [u for u, _ in pairs for _ in (0, 1)]
    vs = [v for _, v in pairs for _ in (0, 1)]
    g.add_edges(us, [MINUS, PLUS] * len(pairs), vs, [PLUS, MINUS] * len(pairs))
    return g
