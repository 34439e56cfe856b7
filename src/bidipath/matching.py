"""Maximum matching in general multigraphs, with a certified dual witness.

The matcher is Edmonds' blossom-shrinking search over the simple support of
the input (parallel edges are collapsed to their lowest-id representative;
a matching never uses two parallel edges). After the matching is maximum,
the failed searches from the remaining exposed vertices yield the
Gallai-Edmonds partition, whose A-set attains the Tutte-Berge minimum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .core import Multigraph, weak_components
from .errors import InternalDualityMismatch, InvalidSeed


@dataclass(frozen=True)
class GallaiEdmonds:
    """Canonical partition: d is missed by some maximum matching, a = N(d) - d,
    c is everything else."""

    d: frozenset[int]
    a: frozenset[int]
    c: frozenset[int]


@dataclass(frozen=True)
class TutteBergeWitness:
    """A vertex set attaining min |U| + sum floor(|C|/2) over components of H - U."""

    u: frozenset[int]
    value: int


def is_matching(h: Multigraph, edges: Iterable[int]) -> bool:
    """True iff the edge ids exist in h and no two of them share an endpoint."""
    seen: set[int] = set()
    for eid in edges:
        if not 0 <= eid < h.edge_count:
            return False
        u, v = h.endpoints[eid]
        if u in seen or v in seen:
            return False
        seen.add(u)
        seen.add(v)
    return True


def components_without(h: Multigraph, removed: Iterable[int]) -> list[list[int]]:
    """Components of h after deleting a vertex set, as sorted lists by min id."""
    gone = set(removed)
    alive = [v for v in range(h.vertex_count) if v not in gone]
    relabel = {v: i for i, v in enumerate(alive)}
    kept = tuple(
        (relabel[u], relabel[v])
        for u, v in h.endpoints
        if u not in gone and v not in gone
    )
    sub = Multigraph(len(alive), kept)
    return [[alive[i] for i in comp] for comp in weak_components(sub)]


def tutte_berge_value(h: Multigraph, u: Iterable[int]) -> int:
    """|U| + sum floor(|C|/2) over the components C of h - U."""
    us = set(u)
    return len(us) + sum(len(c) // 2 for c in components_without(h, us))


class _Matcher:
    """One blossom-search state over the simple support of a multigraph.

    Scanning is in ascending representative-edge-id order, so the matching,
    the augmenting paths, and the final forest labels are reproducible. The
    search labels (even, parent, base) are allocated once; each search
    resets only the vertices it labelled.

    Every table is int-indexed: `rep` maps the pair key `u * n + v` (u < v)
    to the pair's lowest edge id, `match[v]` is v's mate (-1 if exposed) and
    `mate_edge[v]` the edge id that matches v to it.
    """

    def __init__(self, h: Multigraph):
        self.h = h
        n = self.n = h.vertex_count
        rep: dict[int, int] = {}
        # Neighbours in ascending representative-edge-id order.
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(h.endpoints):
            key = u * n + v if u < v else v * n + u
            if key not in rep:
                rep[key] = eid
                nbrs[u].append(v)
                nbrs[v].append(u)
        self.rep = rep
        self.nbrs = nbrs
        self.match = [-1] * n
        self.mate_edge = [-1] * n
        self.even = [False] * n
        self.parent = [-1] * n
        self.base = list(range(n))

    def seed(self, edges: Iterable[int]) -> None:
        match, mate_edge, endpoints = self.match, self.mate_edge, self.h.endpoints
        for eid in sorted(edges):
            u, v = endpoints[eid]
            match[u] = v
            match[v] = u
            mate_edge[u] = mate_edge[v] = eid

    def _lca(self, a: int, b: int) -> int:
        match, parent, base = self.match, self.parent, self.base
        seen = set()
        v = a
        while True:
            v = base[v]
            seen.add(v)
            if match[v] == -1:
                break
            v = parent[match[v]]
        v = b
        while True:
            v = base[v]
            if v in seen:
                return v
            v = parent[match[v]]

    def _mark_path(self, v: int, b: int, child: int, blossom: set[int]) -> None:
        match, parent, base = self.match, self.parent, self.base
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def _shrink(
        self, v: int, to: int, members: dict[int, list[int]], queue: deque[int]
    ) -> None:
        """Contract the blossom closed by the even-even edge v-to.

        `members` lists the vertices of each contracted blossom by its base
        (a base missing from it stands for itself alone). The vertices turned
        even join the queue in ascending id order, the order a scan over
        every vertex would add them in.
        """
        base, even = self.base, self.even
        curbase = self._lca(v, to)
        blossom: set[int] = set()
        self._mark_path(v, curbase, to, blossom)
        self._mark_path(to, curbase, v, blossom)
        blossom.discard(curbase)  # its members are even and keep their base
        merged = members.setdefault(curbase, [curbase])
        turned = []
        for b in blossom:
            for i in members.pop(b, (b,)):
                base[i] = curbase
                merged.append(i)
                if not even[i]:
                    even[i] = True
                    turned.append(i)
        turned.sort()
        queue.extend(turned)

    def search(self, root: int, augment: bool = True) -> list[int] | None:
        """Grow an alternating tree from one exposed root.

        With augment=True, flips the matching along the first augmenting path
        found and returns None. After a failed search, returns the vertices
        reachable from the root by even-length alternating paths. With
        augment=False the matching must already be maximum.
        """
        match, nbrs = self.match, self.nbrs
        even, parent, base = self.even, self.parent, self.base
        tree = [root]  # every vertex this search labels
        members: dict[int, list[int]] = {}
        even[root] = True
        queue = deque([root])
        try:
            while queue:
                v = queue.popleft()
                for to in nbrs[v]:
                    if base[v] == base[to] or match[v] == to:
                        continue
                    mate = match[to]
                    if to == root or (mate != -1 and parent[mate] != -1):
                        # Even meets even: shrink the blossom around their cycle.
                        self._shrink(v, to, members, queue)
                    elif parent[to] == -1:
                        parent[to] = v
                        tree.append(to)
                        if mate == -1:
                            if not augment:
                                raise InternalDualityMismatch(
                                    "gallai-edmonds: augmenting path found while "
                                    "probing a matching that should be maximum"
                                )
                            self._augment(to)
                            return None
                        even[mate] = True
                        tree.append(mate)
                        queue.append(mate)
            return [v for v in tree if even[v]]
        finally:
            for v in tree:
                even[v] = False
                parent[v] = -1
                base[v] = v

    def _augment(self, to: int) -> None:
        match, mate_edge, parent, rep, n = (
            self.match, self.mate_edge, self.parent, self.rep, self.n
        )
        v = to
        while v != -1:
            pv = parent[v]
            next_v = match[pv]
            match[pv] = v
            match[v] = pv
            mate_edge[pv] = mate_edge[v] = rep[pv * n + v if pv < v else v * n + pv]
            v = next_v

    def run(self) -> None:
        for v in range(self.n):
            if self.match[v] == -1:
                self.search(v)

    def matched_edges(self) -> frozenset[int]:
        return frozenset(e for e in self.mate_edge if e != -1)

    def gallai_edmonds(self) -> GallaiEdmonds:
        """The partition read off the current matching, which must be maximum.

        D is the union of the even sets of the failed searches from the
        exposed vertices; it is the same for every maximum matching.
        """
        missed: set[int] = set()
        for root in range(self.n):
            if self.match[root] == -1:
                missed.update(self.search(root, augment=False))
        boundary = set()
        for v in missed:
            boundary.update(self.nbrs[v])
        a = frozenset(boundary - missed)
        d = frozenset(missed)
        c = frozenset(range(self.n)) - d - a
        return GallaiEdmonds(d, a, c)


def grow_matching(h: Multigraph, seed: Iterable[int] = ()) -> _Matcher:
    """A matcher holding a maximum matching of h grown from the seed matching."""
    seed_edges = frozenset(seed)
    if not is_matching(h, seed_edges):
        raise InvalidSeed("seed is not a matching of the host graph")
    matcher = _Matcher(h)
    matcher.seed(seed_edges)
    matcher.run()
    return matcher


def maximum_matching(h: Multigraph, seed: Iterable[int] = ()) -> frozenset[int]:
    """A maximum-cardinality matching of h, grown from the given seed matching.

    Edge ids in the result are ids of h; parallel edges are represented by
    their lowest id except where the seed supplied another parallel copy.
    """
    return grow_matching(h, seed).matched_edges()


def gallai_edmonds(h: Multigraph) -> GallaiEdmonds:
    """The canonical partition (D, A, C) of h."""
    return grow_matching(h).gallai_edmonds()


def tutte_berge_witness(h: Multigraph) -> TutteBergeWitness:
    """The A-set of the Gallai-Edmonds partition, which attains the minimum."""
    decomposition = gallai_edmonds(h)
    value = tutte_berge_value(h, decomposition.a)
    return TutteBergeWitness(decomposition.a, value)

