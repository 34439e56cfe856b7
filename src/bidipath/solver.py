"""Maximum disjoint X-path packing with a dual certificate and hitting sets.

The pipeline (`solve`): build the auxiliary graph once, grow one maximum
matching from the base matching of its split edges, read the packing size off
the matching surplus and the paths off walks of the matching from the
X-vertices (checked once on g as pairwise disjoint X-paths), and translate
the A-set of the same matching's Gallai-Edmonds partition into a vertex-set
pair (S, T) whose dual value, checked by `dual_value`, equals the packing
size. Leave-one-out over the restricted graph's components turns (S, T) into
a hitting set Y of at most 2k - |S∩T| vertices, audited on g by `dual_value`
before it is returned. `certificate(g, X)` is the one view that returns a
single part of the answer.

The auxiliary graph has the ids 0 .. 2n-1 and two flat edge lists: edge i
joins us[i] and vs[i]. Host vertex v owns 2v and 2v+1, so auxiliary vertex a
belongs to host vertex a >> 1. Outside X they are its - and + copies: its
ends with sign - land on 2v, those with sign + on 2v+1, and its split edge
joins the two. Every end of an X-vertex lands on 2v, and 2v+1 stays
isolated. The split edges come first, in host-vertex order, and form the base
matching; host edge e is edge split_count + e. The matcher keeps mates only:
the packing names the matching edge between two copies by the lowest host
edge id joining them, as no walk takes a split edge by the matching.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

from .core import (
    MINUS,
    BidirectedMultigraph,
    SignedPath,
    VertexId,
    dual_value,
    is_x_path,
    restricted_components,
)
from .errors import InternalDualityMismatch, SideConditionViolated, UnknownVertex
from .matching import _Matcher, grow_matching


@dataclass(frozen=True)
class PackingResult:
    """k pairwise disjoint X-paths; k is the maximum, certified by the dual."""

    k: int
    paths: tuple[SignedPath, ...]


@dataclass(frozen=True)
class Certificate:
    """A pair (S, T) with X∩S = X∩T whose dual value equals the packing size."""

    s: frozenset[VertexId]
    t: frozenset[VertexId]


@dataclass(frozen=True)
class HittingSet:
    """At most 2k - |S∩T| vertices meeting every X-path, k the packing size.

    (S, T) is the instance's certificate. Y contains S∩T and leaves at most
    one vertex of X∪S∪T in each component of the restricted graph, so
    (S∖Y, T∖Y) has dual value 0 on g - Y: no X-path survives.
    `Solution.hitting_set` checks this on g before it returns Y: each vertex
    of Y is an isolated member of S∩T in (S∪Y, T∪Y), so that pair's value
    is |Y| plus the value of (S∖Y, T∖Y) on g - Y.
    """

    y: frozenset[VertexId]
    s: frozenset[VertexId]
    t: frozenset[VertexId]


def _auxiliary(
    g: BidirectedMultigraph, xs: frozenset[VertexId]
) -> tuple[int, list[int], list[int]]:
    """The auxiliary graph of (g, X) as (split_count, us, vs), laid out as
    the module docstring says."""
    n = g.vertex_count
    # An end with sign - at v lands on at_minus[v], one with sign + on
    # at_plus[v]. Reading the ids from lists shares one int object per id.
    at_minus = list(range(0, 2 * n, 2))
    at_plus = list(range(1, 2 * n, 2))
    for v in xs:
        at_plus[v] = at_minus[v]
    split = [v for v in g.vertices() if v not in xs]
    us = [at_minus[v] for v in split]
    vs = [at_plus[v] for v in split]
    ends = g.edge_ends
    us += [(at_minus if sign is MINUS else at_plus)[u] for u, sign, _, _ in ends()]
    vs += [(at_minus if sign is MINUS else at_plus)[v] for _, _, v, sign in ends()]
    return len(split), us, vs


def _packing(
    xs: frozenset[VertexId], split_count: int, us: list[int], vs: list[int], match: list[int]
) -> PackingResult:
    """The host paths of the matching `match` (each copy's mate, or -1) read
    as alternating X-paths against the base matching; there are exactly as
    many as the matching's surplus.

    The walk from each X-vertex x starts at 2x and takes the matching edge,
    then the split edge of the copy w it reached (to w ^ 1), and so on, until
    it reaches an X-vertex or a copy the matching leaves exposed. It records
    the owner w >> 1 of each copy it reaches by a matching edge and the host
    edge that names it. The walks that end at a higher X-vertex are kept;
    taken in ascending order of their start, they are the paths in canonical
    orientation and order. A walk still going after as many steps as the host
    has vertices has repeated one, and raises InternalDualityMismatch.
    """
    pair_edge = [-1] * len(match)
    host = zip(itertools.islice(us, split_count, None), itertools.islice(vs, split_count, None))
    for e, (u, v) in enumerate(host):
        if match[u] == v and pair_edge[u] == -1:
            pair_edge[u] = pair_edge[v] = e
    steps = len(match) // 2
    k = (len(match) - match.count(-1)) // 2 - split_count
    paths: list[SignedPath] = []
    for x in sorted(xs):
        v = 2 * x
        vertices, edges = [x], []
        for _ in range(steps):
            w = match[v]
            if w == -1:
                break
            edges.append(pair_edge[v])
            u = w >> 1
            vertices.append(u)
            if u in xs:
                if u > x:
                    paths.append(SignedPath(tuple(vertices), tuple(edges)))
                break
            v = w ^ 1  # the other copy
        else:
            raise InternalDualityMismatch(
                f"packing walk from X-vertex {x} repeats a vertex within {steps} steps"
            )
    if len(paths) != k:
        raise InternalDualityMismatch(
            f"matching surplus {k} differs from the {len(paths)} X-paths walked"
        )
    return PackingResult(k, tuple(paths))


def _check_packing(
    g: BidirectedMultigraph, xs: frozenset[VertexId], paths: Iterable[SignedPath]
) -> None:
    """Raise InternalDualityMismatch unless the paths are pairwise disjoint
    X-paths of g."""
    seen: set[VertexId] = set()
    for i, p in enumerate(paths):
        if not is_x_path(g, xs, p):
            raise InternalDualityMismatch(f"packing check failed: path {i} is not an X-path")
        if not seen.isdisjoint(p.vertices):
            raise InternalDualityMismatch(
                f"packing check failed: path {i} shares a vertex with an earlier path"
            )
        seen.update(p.vertices)


class Solution:
    """The answer for one instance (g, X), from one auxiliary graph and one
    maximum matching; made by `solve`.

    The packing, read off the matching by `solve`, is checked on g as
    pairwise disjoint X-paths. The dual pair (S, T) is read off the same
    matching's Gallai-Edmonds partition on first use, and the hitting set
    from that pair.
    """

    def __init__(
        self,
        g: BidirectedMultigraph,
        xs: frozenset[VertexId],
        packing: PackingResult,
        matcher: _Matcher,
    ):
        self.g = g
        self.x = xs
        self._matcher = matcher
        self.packing = packing
        _check_packing(g, xs, packing.paths)

    def _check_dual(
        self, check: str, s: frozenset[VertexId], t: frozenset[VertexId], name: str, expected: int
    ) -> None:
        """Raise InternalDualityMismatch, naming the check, unless (S, T) is
        admissible on g with dual value `expected`, called `name`."""
        try:
            value = dual_value(self.g, self.x, s, t)
        except (UnknownVertex, SideConditionViolated) as exc:
            raise InternalDualityMismatch(f"{check} failed: {exc}") from None
        if value != expected:
            raise InternalDualityMismatch(
                f"{check} failed: dual value {value} differs from {name} = {expected}"
            )

    @functools.cached_property
    def certificate(self) -> Certificate:
        """A dual pair (S, T) attaining the packing size, checked once by
        `dual_value`.

        The A-set U of the auxiliary graph's Gallai-Edmonds partition is
        translated by copy: T collects the owners a >> 1 of the - copies 2v
        in U, S those of the + copies 2v+1, and an X-vertex in U, whose ends
        all land on 2v, goes to both. The translation satisfies
        U = p(T x {-}) ∪ p(S x {+}).
        """
        xs = self.x
        s, t = set(), set()
        for a in self._matcher.gallai_edmonds():
            v = a >> 1
            if v in xs:
                s.add(v)
                t.add(v)
            elif a & 1:
                s.add(v)
            else:
                t.add(v)
        cert = Certificate(frozenset(s), frozenset(t))
        self._check_dual("certificate check", cert.s, cert.t, "k", self.packing.k)
        return cert

    @functools.cached_property
    def hitting_set(self) -> HittingSet:
        """A vertex set Y with |Y| <= 2k - |S∩T| meeting every X-path, for
        the packing size k.

        Y combines S∩T with, per restricted component, all but the minimum-id
        member of its marked vertices, audited on g before it is returned. A
        component with m marked vertices adds m - 1 <= 2⌊m/2⌋, and the dual
        value k is |S∩T| plus the sum of the ⌊m/2⌋.
        """
        cert = self.certificate
        marked = self.x | cert.s | cert.t
        y = set(cert.s & cert.t)
        for comp in restricted_components(self.g, cert.s, cert.t):
            members = [v for v in comp if v in marked]
            y.update(members[1:])
        bound = 2 * self.packing.k - len(cert.s & cert.t)
        if len(y) > bound:
            raise InternalDualityMismatch(
                f"hitting set of size {len(y)} exceeds the bound 2k - |S∩T| = {bound}"
            )
        ys = frozenset(y)
        self._check_dual("hitting-set audit", cert.s | ys, cert.t | ys, "|Y|", len(ys))
        return HittingSet(ys, cert.s, cert.t)


def solve(g: BidirectedMultigraph, x: Iterable[VertexId]) -> Solution:
    """Solve (g, X) once: the packing, and on demand its dual pair and the
    hitting set."""
    xs = g.check_vertex_set(x)
    split_count, us, vs = _auxiliary(g, xs)
    matcher = grow_matching(2 * g.vertex_count, us, vs, range(split_count))
    return Solution(g, xs, _packing(xs, split_count, us, vs, matcher.match), matcher)


def certificate(g: BidirectedMultigraph, x: Iterable[VertexId]) -> Certificate:
    """A dual pair (S, T) attaining the packing size; see Solution.certificate."""
    return solve(g, x).certificate

