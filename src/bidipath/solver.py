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
single part of the answer. The threshold query `paths_or_hitting_set(g, X, k)`
first scans the host edges for k disjoint ones joining two X-vertices, each
an X-path, and returns them checked without building the auxiliary graph.
When the scan falls short it shares the pipeline up to the walk, but stops
the matching after k augmentations: it returns k checked paths, which at
k = ν are `solve`'s, or for k > ν the hitting set.

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
    restricted_roots,
)
from .errors import (
    InternalDualityMismatch,
    InvalidParameter,
    SideConditionViolated,
    UnknownVertex,
)
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


def _leave_one_out(
    g: BidirectedMultigraph,
    s: frozenset[VertexId],
    t: frozenset[VertexId],
    marked: Iterable[VertexId],
) -> list[VertexId]:
    """The marked vertices, in ascending id order, whose component of the
    restricted graph B_{S,T} an earlier marked vertex already claimed: all
    but the minimum-id marked member of each component."""
    order = sorted(marked)
    claimed: set[VertexId] = set()
    out = []
    for v, root in zip(order, restricted_roots(g, s, t, order)):
        if root in claimed:
            out.append(v)
        else:
            claimed.add(root)
    return out


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

        Y combines S∩T with the marked vertices `_leave_one_out` selects,
        audited on g before it is returned. A component with m marked
        vertices adds m - 1 <= 2⌊m/2⌋, and the dual value k is |S∩T| plus
        the sum of the ⌊m/2⌋.
        """
        cert = self.certificate
        y = set(cert.s & cert.t)
        y.update(_leave_one_out(self.g, cert.s, cert.t, self.x | cert.s | cert.t))
        bound = 2 * self.packing.k - len(cert.s & cert.t)
        if len(y) > bound:
            raise InternalDualityMismatch(
                f"hitting set of size {len(y)} exceeds the bound 2k - |S∩T| = {bound}"
            )
        ys = frozenset(y)
        self._check_dual("hitting-set audit", cert.s | ys, cert.t | ys, "|Y|", len(ys))
        return HittingSet(ys, cert.s, cert.t)


def _grow(
    g: BidirectedMultigraph, xs: frozenset[VertexId], limit: int | None = None
) -> tuple[PackingResult, _Matcher]:
    """The matching of the auxiliary graph of (g, X), X checked, grown from
    its base matching for at most `limit` augmentations, and the paths
    walked off it."""
    split_count, us, vs = _auxiliary(g, xs)
    matcher = grow_matching(2 * g.vertex_count, us, vs, range(split_count), limit)
    return _packing(xs, split_count, us, vs, matcher.match), matcher


def solve(g: BidirectedMultigraph, x: Iterable[VertexId]) -> Solution:
    """Solve (g, X) once: the packing, and on demand its dual pair and the
    hitting set."""
    xs = g.check_vertex_set(x)
    return Solution(g, xs, *_grow(g, xs))


def _x_edge_paths(
    g: BidirectedMultigraph, xs: frozenset[VertexId], k: int
) -> list[SignedPath]:
    """Up to k pairwise disjoint X-paths of one edge each: the host edges, in
    id order, that join two X-vertices no earlier kept edge has used.

    Each path runs from its lower-id end, and the paths are ordered by it:
    the orientation and order of `_packing`. The scan meets the lowest id
    joining two ends first, the name `_packing` gives that edge.
    """
    used: set[VertexId] = set()
    ends: list[tuple[VertexId, VertexId, int]] = []
    for e, (u, _, v, _) in enumerate(g.edge_ends()):
        if u in xs and v in xs and u not in used and v not in used:
            used.add(u)
            used.add(v)
            ends.append((u, v, e) if u < v else (v, u, e))
            if len(ends) == k:
                break
    ends.sort()
    return [SignedPath((u, v), (e,)) for u, v, e in ends]


def paths_or_hitting_set(
    g: BidirectedMultigraph, x: Iterable[VertexId], k: int
) -> tuple[SignedPath, ...] | HittingSet:
    """k pairwise disjoint X-paths of g, or, when the packing size ν is
    below k, the hitting set of `Solution.hitting_set` (|Y| <= 2ν - |S∩T|
    <= 2k - 2).

    An edge joining two X-vertices is an X-path, and needs no auxiliary
    graph: if the scan of `_x_edge_paths` keeps k such edges, they are
    checked on g and returned. The scan is greedy, so it may fall short
    though g holds k disjoint ones. Then each
    augmentation of the matching adds one path, so the matching is grown for
    k augmentations only. If it gets there, its k paths are walked, checked
    on g and returned; at k = ν they are `solve(g, x).packing.paths`.
    Otherwise the run was not cut short, the matching is maximum and its
    forest Hungarian, and the dual is read as `solve` would.
    """
    if k < 1:
        raise InvalidParameter("the hitting-set bound 2k-2 requires k >= 1")
    xs = g.check_vertex_set(x)
    paths = _x_edge_paths(g, xs, k)
    if len(paths) < k:
        packing, matcher = _grow(g, xs, k)
        if packing.k < k:
            return Solution(g, xs, packing, matcher).hitting_set
        paths = packing.paths
    _check_packing(g, xs, paths)
    return tuple(paths)


def certificate(g: BidirectedMultigraph, x: Iterable[VertexId]) -> Certificate:
    """A dual pair (S, T) attaining the packing size; see Solution.certificate."""
    return solve(g, x).certificate

