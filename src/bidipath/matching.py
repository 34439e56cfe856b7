"""Maximum matching in general multigraphs, with its Gallai-Edmonds A-set.

A multigraph is given by its adjacency, one list per vertex: `nbrs[v]`
lists v's neighbours, one entry per edge at v, so an edge joining u and v
is listed once at each end. The matcher is Edmonds' blossom-shrinking
search, run as one alternating forest grown from every exposed vertex at
once. The matching is kept by vertex only, as each vertex's mate; parallel
edges stay in the adjacency lists, and a matching never uses two of them.
When no augmenting path is left the forest is Hungarian: its even vertices
are the D-set of the Gallai-Edmonds partition, and their other neighbours,
the A-set, attain the Tutte-Berge minimum. A run may instead stop after a
given number of augmentations, for a caller that needs only that many; its
matching is then valid, but its forest is not read.
"""

from __future__ import annotations

from collections import deque

from .errors import InternalDualityMismatch


class _Matcher:
    """One alternating forest over a multigraph, grown by `run`.

    The caller builds both tables and hands them over: the adjacency `nbrs`,
    whose length is the vertex count, and `match`, each vertex's mate (-1 if
    exposed), which must be a matching of the multigraph and is the seed
    that `run` grows. The forest labels (even, parent, base) are allocated
    once. Scanning follows the order of `nbrs` and of the vertex ids, so the
    matching, the paths flipped and the final forest are reproducible.
    """

    def __init__(self, nbrs: list[list[int]], match: list[int]):
        n = self.n = len(nbrs)
        self.nbrs = nbrs
        self.match = match
        self.even = [False] * n
        self.parent = [-1] * n
        self.base = list(range(n))
        self.steps = range(n)  # the bound of every walk up the forest

    def _cycling(self, walk: str, v: int) -> InternalDualityMismatch:
        """A walk up the forest meets each of the n vertices at most once."""
        return InternalDualityMismatch(
            f"{walk} walk from vertex {v} repeats a vertex within {self.n} steps"
        )

    def _lca(self, a: int, b: int) -> int:
        match, parent, base, steps = self.match, self.parent, self.base, self.steps
        seen = set()
        v = a
        for _ in steps:
            v = base[v]
            seen.add(v)
            if match[v] == -1:
                break
            v = parent[match[v]]
        else:
            raise self._cycling("lca", a)
        v = b
        for _ in steps:
            v = base[v]
            if v in seen:
                return v
            v = parent[match[v]]
        else:
            raise self._cycling("lca", b)

    def _mark_path(self, v: int, b: int, child: int, blossom: set[int]) -> None:
        match, parent, base = self.match, self.parent, self.base
        start = v
        for _ in self.steps:
            if base[v] == b:
                break
            blossom.add(base[v])
            blossom.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[match[v]]
        else:
            raise self._cycling("mark-path", start)

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
        match, parent = self.match, self.parent
        start = v
        for _ in self.steps:
            if v == -1:
                break
            pv = parent[v]
            next_v = match[pv]
            match[pv] = v
            match[v] = pv
            v = next_v
        else:
            raise self._cycling("flip", start)

    def run(self, limit: int | None = None) -> None:
        """Grow the forest until no augmenting path is left, or until the
        `limit`-th augmentation.

        Every exposed vertex roots a tree, and one FIFO queue, started in
        ascending id order, scans the even vertices of all trees. An
        unlabelled neighbour joins the scanning vertex's tree as odd and its
        mate as even. An even-even edge inside one tree closes a blossom,
        which `_shrink` contracts; one between two trees closes an augmenting
        path. The two ends are matched to each other, each half is flipped
        back to its root, and only those two trees are dissolved. Their
        vertices are unlabelled again and now matched, so the even vertices
        next to them rejoin the queue (in ascending id order) to grow into
        them.

        A parallel copy of an edge never acts: the first copy leaves its ends
        in one blossom or one of them odd, or ends the scan at an
        augmentation. An even vertex whose root holds no tree breaks the
        forest, and raises InternalDualityMismatch naming it.

        With a `limit`, the run returns right after that many augmentations
        (the two trees dissolved, their neighbours not yet re-queued). The
        matching is then valid but the forest is not Hungarian, so only a
        run that stopped short of its limit may be read by `gallai_edmonds`.
        """
        n, match, nbrs = self.n, self.match, self.nbrs
        even, parent, base = self.even, self.parent, self.base
        root = [-1] * n  # the tree of each labelled vertex, named by its root
        trees: dict[int, list[int]] = {}  # every vertex each tree labelled
        members: dict[int, list[int]] = {}
        queue: deque[int] = deque()
        augmented = 0
        for v in range(n):
            if match[v] == -1:
                root[v] = v
                even[v] = True
                trees[v] = [v]
                queue.append(v)
        try:
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
                        self._flip(mate_v)
                        self._flip(mate_to)
                        dissolved = trees.pop(r) + trees.pop(root[to])
                        for u in dissolved:
                            even[u] = False
                            parent[u] = -1
                            base[u] = u
                            root[u] = -1
                            members.pop(u, None)
                        augmented += 1
                        if augmented == limit:
                            return
                        queue.extend(sorted({w for u in dissolved for w in nbrs[u] if even[w]}))
                        break
                    if root[to] == -1:  # unlabelled, so matched: grow the tree
                        mate = match[to]
                        parent[to] = v
                        root[to] = root[mate] = r
                        even[mate] = True
                        trees[r] += (to, mate)
                        queue.append(mate)
        except KeyError as exc:  # `trees` lacks the root an even vertex names
            raise InternalDualityMismatch(
                f"forest: an even vertex names root {exc.args[0]}, which holds no tree"
            ) from None

    def gallai_edmonds(self) -> set[int]:
        """The A-set of the Gallai-Edmonds partition, read off the forest
        that `run` left labelled.

        D is its even vertices and A = N(D) - D. The same pass checks that
        the forest is Hungarian, which for a forest grown by `run` certifies
        that the matching is maximum: each exposed vertex is in D, each
        vertex of A is odd, and each D-D edge lies inside one blossom.
        """
        match, nbrs = self.match, self.nbrs
        even, parent, base = self.even, self.parent, self.base

        def broken(why: str) -> InternalDualityMismatch:
            return InternalDualityMismatch(f"gallai-edmonds: {why}")

        a = set()
        for v in range(self.n):
            if not even[v]:
                if match[v] == -1:
                    raise broken(f"exposed vertex {v} is not in D")
                continue
            for to in nbrs[v]:
                if not even[to]:
                    if parent[to] == -1:
                        raise broken(f"vertex {to} of A has no odd label")
                    a.add(to)
                elif base[to] != base[v]:
                    raise broken(f"D-D edge {v}-{to} joins two blossoms")
        return a

