"""Maximum disjoint X-path packing with a dual certificate and hitting sets.

The pipeline (`solve`): build the auxiliary graph once, grow one maximum
matching from the base matching, read the packing size off the matching
surplus and the paths off walks of the matching from the X-vertices (checked
once on g as pairwise disjoint X-paths), and translate the A-set of the same
matching's Gallai-Edmonds partition into a vertex-set pair (S, T) whose dual
bound equals the packing size. When fewer than k paths exist, a
leave-one-out selection over the restricted graph's components yields a
hitting set of size at most 2k-2. `certificate(g, X)` is the one view that
returns a single part of the answer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .auxiliary import AuxiliaryGraph, build_auxiliary
from .core import (
    BidirectedMultigraph,
    SignedPath,
    VertexId,
    dual_value,
    is_x_path,
    restricted_components,
)
from .errors import InternalDualityMismatch, InvalidK, UnknownVertex
from .matching import _Matcher, grow_matching


@dataclass(frozen=True)
class PackingResult:
    """k pairwise disjoint X-paths; k is the maximum, certified by the dual."""

    k: int
    paths: tuple[SignedPath, ...]


@dataclass(frozen=True)
class Certificate:
    """A pair (S, T) with X∩S = X∩T whose dual bound equals the packing size."""

    s: frozenset[VertexId]
    t: frozenset[VertexId]
    value: int


@dataclass(frozen=True)
class HittingSet:
    """A vertex set of size at most 2k-2 meeting every X-path.

    (S, T) is the instance's certificate. Y contains S∩T and leaves at most
    one vertex of X∪S∪T in each component of the restricted graph, so
    (S∖Y, T∖Y) has dual value 0 on g - Y: no X-path survives.
    """

    y: frozenset[VertexId]
    k: int
    s: frozenset[VertexId]
    t: frozenset[VertexId]


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _packing(aux: AuxiliaryGraph, matcher: _Matcher) -> PackingResult:
    """The host paths of the matching's alternating X-paths against the base
    matching; there are exactly as many as the matching's surplus.

    The walk from each X-vertex takes the matching edge, then the split edge
    of the copy it reached, and so on, until it reaches an X-vertex or a copy
    the matching leaves exposed. It records the owner of each copy it reaches
    by a matching edge and the host id of that edge. The walks that end at a
    higher X-vertex are kept; taken in ascending order of their start, they
    are the paths in canonical orientation and order.
    """
    match, mate_edge = matcher.match, matcher.mate_edge
    owner, copy = aux.owner, aux.copy
    split_count = len(aux.split_edges)
    k = (matcher.n - match.count(-1)) // 2 - len(aux.base_matching)
    paths: list[SignedPath] = []
    for x in sorted(aux.x):
        v = aux.first[x]
        vertices, edges = [x], []
        while (w := match[v]) != -1:
            edges.append(mate_edge[v] - split_count)
            vertices.append(owner[w])
            if copy[w] == 0:
                if owner[w] > x:
                    paths.append(SignedPath(tuple(vertices), tuple(edges)))
                break
            v = w + 1 if copy[w] == 1 else w - 1  # the other copy
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

    The packing is read off the matching at once and checked on g as
    pairwise disjoint X-paths. The dual pair (S, T) is read off the same
    matching's Gallai-Edmonds partition on first use, and the hitting set,
    for a threshold above the packing size, from that pair.
    """

    def __init__(
        self,
        g: BidirectedMultigraph,
        xs: frozenset[VertexId],
        threshold: int | None,
        aux: AuxiliaryGraph,
        matcher: _Matcher,
    ):
        self.g = g
        self.x = xs
        self.threshold = threshold
        self._aux = aux
        self._matcher = matcher
        self.packing = _packing(aux, matcher)
        _check_packing(g, xs, self.packing.paths)

    @functools.cached_property
    def certificate(self) -> Certificate:
        """A dual pair (S, T) attaining the packing size, checked once by
        `verify_certificate`.

        The A-set U of the auxiliary graph's Gallai-Edmonds partition is
        translated by copy membership: T collects the owners of the copies 1
        in U, S those of the copies 2, and an X-vertex in U, owning a single
        copy, lands in both. The translation satisfies
        U = p(T x {1}) ∪ p(S x {2}).
        """
        owner, copy = self._aux.owner, self._aux.copy
        s, t = set(), set()
        for a in self._matcher.gallai_edmonds().a:
            if copy[a] != 2:
                t.add(owner[a])
            if copy[a] != 1:
                s.add(owner[a])
        k = self.packing.k
        cert = Certificate(frozenset(s), frozenset(t), k)
        check = verify_certificate(self.g, self.x, cert, k)
        if not check:
            raise InternalDualityMismatch(f"certificate check failed: {check.reason}")
        return cert

    @functools.cached_property
    def hitting_set(self) -> HittingSet | None:
        """For a threshold k above the packing size, a vertex set Y with
        |Y| <= 2k-2 meeting every X-path; None otherwise.

        Y combines S∩T with, per restricted component, all but the minimum-id
        member of its marked vertices.
        """
        k = self.threshold
        if k is None or self.packing.k >= k:
            return None
        cert = self.certificate
        marked = self.x | cert.s | cert.t
        y = set(cert.s & cert.t)
        for comp in restricted_components(self.g, cert.s, cert.t):
            members = [v for v in comp if v in marked]
            y.update(members[1:])
        if len(y) > 2 * k - 2:
            raise InternalDualityMismatch(
                f"hitting set of size {len(y)} exceeds the bound {2 * k - 2}"
            )
        return HittingSet(frozenset(y), k, cert.s, cert.t)


def solve(
    g: BidirectedMultigraph, x: Iterable[VertexId], k: int | None = None
) -> Solution:
    """Solve (g, X) once: the packing, and on demand its dual pair and, for
    a threshold k >= 1, a hitting set when fewer than k paths exist."""
    if k is not None and k < 1:
        raise InvalidK("the hitting-set bound 2k-2 requires k >= 1")
    xs = g.check_vertex_set(x)
    aux = build_auxiliary(g, xs)
    return Solution(g, xs, k, aux, grow_matching(aux.graph, aux.base_matching))


def certificate(g: BidirectedMultigraph, x: Iterable[VertexId]) -> Certificate:
    """A dual pair (S, T) attaining the packing size; see Solution.certificate."""
    return solve(g, x).certificate


def verify_certificate(
    g: BidirectedMultigraph,
    x: Iterable[VertexId],
    cert: Certificate,
    claimed_k: int,
) -> VerificationResult:
    """Recheck a certificate without solving anything."""
    try:
        xs = g.check_vertex_set(x)
        ss = g.check_vertex_set(cert.s)
        ts = g.check_vertex_set(cert.t)
    except UnknownVertex:
        return VerificationResult(False, "unknown-vertex")
    if xs & ss != xs & ts:
        return VerificationResult(False, "side-condition-violated")
    actual = dual_value(g, xs, ss, ts)
    if actual != cert.value:
        return VerificationResult(False, "value-mismatch")
    if cert.value != claimed_k:
        return VerificationResult(False, "k-mismatch")
    return VerificationResult(True)
