"""Maximum matching in general multigraphs, with a certified dual witness.

The matcher is Edmonds' blossom-shrinking search over the simple support of
the input (parallel edges are collapsed to their lowest-id representative;
a matching never uses two parallel edges). The searches that fail leave a
Hungarian forest: its even vertices are the D-set of the Gallai-Edmonds
partition, whose A-set attains the Tutte-Berge minimum.
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
    search labels (even, parent, base) are allocated once; a successful
    search resets the vertices it labelled and a failed one keeps them.

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

    def search(self, root: int) -> None:
        """Grow an alternating tree from one exposed root.

        A successful search flips the matching along the first augmenting
        path found and clears its tree's labels. A failed tree is Hungarian:
        no later augmenting path meets it (Edmonds 1965). It keeps its labels
        for `gallai_edmonds`, and they make it dead to later searches, which
        can reach only its odd vertices: a scan passes those by as already
        labelled, and never takes one for even, since its mate is a blossom
        base and so has no parent.
        """
        match, nbrs = self.match, self.nbrs
        even, parent, base = self.even, self.parent, self.base
        tree = [root]  # every vertex this search labels
        members: dict[int, list[int]] = {}
        even[root] = True
        queue = deque([root])
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
                        self._augment(to)
                        for u in tree:
                            even[u] = False
                            parent[u] = -1
                            base[u] = u
                        return
                    even[mate] = True
                    tree.append(mate)
                    queue.append(mate)

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
        """The partition read off the failed trees that `run` left labelled.

        D is their even vertices and A = N(D) - D. The same pass checks that
        the forest is Hungarian, which for trees grown by `search` certifies
        that the matching is maximum: each exposed vertex is in D, each
        vertex of A is odd, and each D-D edge lies inside one blossom.
        """
        match, nbrs = self.match, self.nbrs
        even, parent, base = self.even, self.parent, self.base

        def broken(why: str) -> InternalDualityMismatch:
            return InternalDualityMismatch(f"gallai-edmonds: {why}")

        d, a = set(), set()
        for v in range(self.n):
            if not even[v]:
                if match[v] == -1:
                    raise broken(f"exposed vertex {v} is not in D")
                continue
            d.add(v)
            for to in nbrs[v]:
                if not even[to]:
                    if parent[to] == -1:
                        raise broken(f"vertex {to} of A has no odd label")
                    a.add(to)
                elif base[to] != base[v]:
                    raise broken(f"D-D edge {v}-{to} joins two blossoms")
        c = frozenset(range(self.n)) - d - a
        return GallaiEdmonds(frozenset(d), frozenset(a), c)


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

