"""Maximum matching in general multigraphs, with its Gallai-Edmonds partition.

The matcher is Edmonds' blossom-shrinking search, run as one alternating
forest grown from every exposed vertex at once. Parallel edges stay in the
adjacency lists; a matching never uses two of them, and a matched pair that
the search flipped is reported by its lowest edge id. When no augmenting
path is left the forest is Hungarian: its even vertices are the D-set of the
Gallai-Edmonds partition, whose A-set attains the Tutte-Berge minimum.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .core import Multigraph
from .errors import InternalDualityMismatch, InvalidSeed


@dataclass(frozen=True)
class GallaiEdmonds:
    """Canonical partition: d is missed by some maximum matching, a = N(d) - d,
    c is everything else."""

    d: frozenset[int]
    a: frozenset[int]
    c: frozenset[int]


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


class _Matcher:
    """One alternating forest over a multigraph, grown by `run`.

    Every table is int-indexed: `nbrs[v]` lists v's neighbours in ascending
    edge-id order, one entry per edge, `match[v]` is v's mate (-1 if
    exposed) and `mate_edge[v]` the edge id that matches v to it. The forest
    labels (even, parent, base) are allocated once. Scanning is in a fixed
    order, so the matching, the paths flipped and the final forest are
    reproducible.
    """

    def __init__(self, h: Multigraph):
        self.h = h
        n = self.n = h.vertex_count
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in h.endpoints:
            nbrs[u].append(v)
            nbrs[v].append(u)
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
        """Contract the blossom closed by the even-even edge v-to of one tree.

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

    def _flip(self, v: int) -> None:
        """Flip the matching along the tree path from v, an odd vertex or
        the old mate of an even one, up to its root."""
        match, mate_edge, parent = self.match, self.mate_edge, self.parent
        while v != -1:
            pv = parent[v]
            next_v = match[pv]
            match[pv] = v
            match[v] = pv
            mate_edge[pv] = mate_edge[v] = -1
            v = next_v

    def run(self) -> None:
        """Grow the forest until no augmenting path is left.

        Every exposed vertex roots a tree, and one FIFO queue, started in
        ascending id order, scans the even vertices of all trees. An
        unlabelled neighbour joins the scanning vertex's tree as odd and its
        mate as even. An even-even edge inside one tree closes a blossom,
        which `_shrink` contracts; one between two trees closes an augmenting
        path. The two ends are matched to each other, each half is flipped
        back to its root, and only those two trees are dissolved. Their
        vertices are unlabelled again and now matched, so the even vertices
        next to them rejoin the queue (in ascending id order) to grow into
        them. A flipped pair's `mate_edge` is -1 until the last pass, which
        gives it the pair's lowest edge id; a seeded pair never flipped
        keeps its seed edge.

        A parallel copy of an edge never acts: the first copy leaves its ends
        in one blossom or one of them odd, or ends the scan at an
        augmentation.
        """
        n, match, mate_edge, nbrs = self.n, self.match, self.mate_edge, self.nbrs
        even, parent, base = self.even, self.parent, self.base
        root = [-1] * n  # the tree of each labelled vertex, named by its root
        trees: dict[int, list[int]] = {}  # every vertex each tree labelled
        members: dict[int, list[int]] = {}
        queue: deque[int] = deque()
        for v in range(n):
            if match[v] == -1:
                root[v] = v
                even[v] = True
                trees[v] = [v]
                queue.append(v)
        while queue:
            v = queue.popleft()
            if not even[v]:
                continue  # its tree was dissolved while it waited
            r = root[v]
            for to in nbrs[v]:
                if base[v] == base[to]:
                    continue
                if even[to]:
                    if root[to] == r:
                        self._shrink(v, to, members, queue)
                        continue
                    mate_v, mate_to = match[v], match[to]
                    match[v] = to
                    match[to] = v
                    mate_edge[v] = mate_edge[to] = -1
                    self._flip(mate_v)
                    self._flip(mate_to)
                    dissolved = trees.pop(r) + trees.pop(root[to])
                    for u in dissolved:
                        even[u] = False
                        parent[u] = -1
                        base[u] = u
                        root[u] = -1
                        members.pop(u, None)
                    queue.extend(sorted({w for u in dissolved for w in nbrs[u] if even[w]}))
                    break
                if root[to] == -1:  # unlabelled, so matched: grow the tree
                    mate = match[to]
                    parent[to] = v
                    root[to] = root[mate] = r
                    even[mate] = True
                    trees[r] += (to, mate)
                    queue.append(mate)
        for eid, (u, v) in enumerate(self.h.endpoints):
            if match[u] == v and mate_edge[u] == -1:
                mate_edge[u] = mate_edge[v] = eid

    def matched_edges(self) -> frozenset[int]:
        return frozenset(e for e in self.mate_edge if e != -1)

    def gallai_edmonds(self) -> GallaiEdmonds:
        """The partition read off the forest that `run` left labelled.

        D is its even vertices and A = N(D) - D. The same pass checks that
        the forest is Hungarian, which for a forest grown by `run` certifies
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

    Edge ids in the result are ids of h. A pair the search matched is
    represented by its lowest parallel edge id; a seed edge whose pair the
    search never flipped is kept, whichever parallel copy it is.
    """
    return grow_matching(h, seed).matched_edges()


def gallai_edmonds(h: Multigraph) -> GallaiEdmonds:
    """The canonical partition (D, A, C) of h."""
    return grow_matching(h).gallai_edmonds()
