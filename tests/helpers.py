"""Shared fixtures: deterministic random instances and reference computations."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from hypothesis import strategies as st

from bidipath import MINUS, PLUS, BidirectedMultigraph, SignedPath, is_x_path
from bidipath.bgf import Instance
from bidipath.errors import SideConditionViolated
from bidipath.generate import generate_instance
from bidipath.matching import _Matcher, grow_matching
from bidipath.solver import _auxiliary

SIGNS = (MINUS, PLUS)

MIXED_SIGN_DISTS = (
    None,  # uniform
    {"--": 4.0, "-+": 1.0, "+-": 1.0, "++": 1.0},
    {"--": 1.0, "-+": 4.0, "+-": 1.0, "++": 1.0},
    {"--": 0.0, "-+": 1.0, "+-": 1.0, "++": 2.0},
)


def complete_all_minus(n: int) -> BidirectedMultigraph:
    """The complete graph on n vertices with only (-,-)-edges."""
    g = BidirectedMultigraph()
    g.add_vertices(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, MINUS, v, MINUS)
    return g.freeze()


@dataclass(frozen=True)
class Multigraph:
    """A plain undirected multigraph: dense vertices, edge id = list index."""

    vertex_count: int
    endpoints: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.endpoints)


def flat(h: Multigraph) -> tuple[int, list[int], list[int]]:
    """h as the matcher takes it: vertex count and the two end lists."""
    return h.vertex_count, [u for u, _ in h.endpoints], [v for _, v in h.endpoints]


class Auxiliary(NamedTuple):
    """The auxiliary graph that `solve` builds for (g, X), with its vertex
    count 2|V(g)|; the layout is in the `solver` module docstring."""

    vertex_count: int
    split_count: int
    us: list[int]
    vs: list[int]


def auxiliary(g: BidirectedMultigraph, x) -> Auxiliary:
    return Auxiliary(2 * g.vertex_count, *_auxiliary(g, frozenset(x)))


def auxiliary_multigraph(aux: Auxiliary) -> Multigraph:
    return Multigraph(aux.vertex_count, tuple(zip(aux.us, aux.vs)))


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


def grow(h: Multigraph, seed: Iterable[int] = ()) -> _Matcher:
    """A matcher holding a maximum matching of h grown from the seed, which
    must be a matching of h (ValueError otherwise)."""
    seed_edges = frozenset(seed)
    if not is_matching(h, seed_edges):
        raise ValueError("seed is not a matching of the host graph")
    return grow_matching(*flat(h), seed_edges)


def matched_edges(
    matcher: _Matcher, us: list[int], vs: list[int], seed: Iterable[int] = ()
) -> frozenset[int]:
    """The edge ids of the matcher's matching on the multigraph (us, vs)
    it was grown on from `seed`, one per matched pair: the pair's lowest
    edge id, except that a seed edge whose ends are still matched to each
    other keeps its own."""
    match = matcher.match
    named: dict[int, int] = {}  # matched pair, by its lower end -> edge id
    for eid in seed:
        u, v = us[eid], vs[eid]
        if match[u] == v:
            named[min(u, v)] = eid
    for eid, (u, v) in enumerate(zip(us, vs)):
        if match[u] == v:
            named.setdefault(min(u, v), eid)
    return frozenset(named.values())


def maximum_matching(h: Multigraph, seed: Iterable[int] = ()) -> frozenset[int]:
    """A maximum-cardinality matching of h, grown from the given seed
    matching, with its edges named as `matched_edges` says."""
    seed = frozenset(seed)
    _, us, vs = flat(h)
    return matched_edges(grow(h, seed), us, vs, seed)


@dataclass(frozen=True)
class GallaiEdmonds:
    """Canonical partition: d is missed by some maximum matching, a = N(d) - d,
    c is everything else."""

    d: frozenset[int]
    a: frozenset[int]
    c: frozenset[int]


def partition(matcher: _Matcher) -> GallaiEdmonds:
    """(D, A, C) of the forest a grown matcher holds: A as its
    `gallai_edmonds` returns it, after checking the forest; D its even
    vertices; C the rest."""
    a = frozenset(matcher.gallai_edmonds())
    d = frozenset(v for v in range(matcher.n) if matcher.even[v])
    return GallaiEdmonds(d, a, frozenset(range(matcher.n)) - d - a)


def gallai_edmonds(h: Multigraph) -> GallaiEdmonds:
    """The canonical partition (D, A, C) of h."""
    return partition(grow(h))


def random_instance(seed: int, max_n: int = 7, max_m: int = 14) -> Instance:
    """One seeded instance with mixed signs and x_frac in {0.3, 0.6, 1.0}."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m) if n > 1 else 0
    x_frac = (0.3, 0.6, 1.0)[seed % 3]
    sign_dist = MIXED_SIGN_DISTS[seed % len(MIXED_SIGN_DISTS)]
    return generate_instance(n, m, x_frac, sign_dist, seed=seed)


def random_multigraph(seed: int, max_n: int = 10, max_m: int = 14) -> Multigraph:
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m) if n > 1 else 0
    ends = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        ends.append((u, v))
    return Multigraph(n, tuple(ends))


def sign_broken_chain(rng: random.Random, length: int) -> Instance:
    """A path v0 ... v(L-1) with X = {v0, v(L-1)} whose signs alternate at
    every internal vertex except one, so no X-path exists (k = 0)."""
    g = BidirectedMultigraph()
    g.add_vertices(length)
    far = [rng.choice(SIGNS) for _ in range(length - 1)]
    near = [rng.choice(SIGNS)] + [far[i - 1].opposite() for i in range(1, length - 1)]
    broken = rng.randrange(1, length - 1)
    near[broken] = far[broken - 1]
    for i in range(length - 1):
        g.add_edge(i, near[i], i + 1, far[i])
    return Instance.from_graph(g.freeze(), frozenset({0, length - 1}))


def weak_components(
    vertex_count: int, pairs: Iterable[tuple[int, int]]
) -> list[list[int]]:
    """Connected components of the multigraph on range(vertex_count) with the
    edges `pairs`, as sorted vertex lists ordered by minimum id.

    Isolated vertices form singleton components.
    """
    parent = list(range(vertex_count))
    for u, v in pairs:
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
    groups: dict[int, list[int]] = {}
    for v in range(vertex_count):
        root = v
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        groups.setdefault(root, []).append(v)
    return sorted(groups.values(), key=lambda c: c[0])


def restricted_components(
    g: BidirectedMultigraph,
    s: Iterable[int],
    t: Iterable[int],
) -> list[list[int]]:
    """The components of the restricted graph B_{S,T}, as weak_components
    orders them.

    B_{S,T} keeps every vertex of g and exactly those edges all of whose ends
    v satisfy: v outside S∪T, or v in S∖T with sign -, or v in T∖S with
    sign +. Every vertex of S∩T is therefore isolated.
    """
    ss = g.check_vertex_set(s)
    ts = g.check_vertex_set(t)
    either = ss | ts
    only = {**{v: MINUS for v in ss - ts}, **{v: PLUS for v in ts - ss}}

    def kept(v, sign):
        return v not in either or only.get(v) is sign

    pairs = ((u, v) for u, su, v, sv in g.edge_ends() if kept(u, su) and kept(v, sv))
    return weak_components(g.vertex_count, pairs)


def bfs_components(h: Multigraph) -> list[list[int]]:
    """Reference for weak_components: one breadth-first search per component."""
    adj: list[list[int]] = [[] for _ in range(h.vertex_count)]
    for u, v in h.endpoints:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * h.vertex_count
    out = []
    for start in range(h.vertex_count):
        if seen[start]:
            continue
        seen[start] = True
        comp, frontier = [start], [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        nxt.append(w)
            frontier = nxt
        out.append(sorted(comp))
    return out


def components_without(h: Multigraph, removed) -> list[list[int]]:
    """Components of h after deleting a vertex set, as sorted lists by min id."""
    gone = set(removed)
    alive = [v for v in range(h.vertex_count) if v not in gone]
    relabel = {v: i for i, v in enumerate(alive)}
    kept = tuple(
        (relabel[u], relabel[v]) for u, v in h.endpoints if u not in gone and v not in gone
    )
    return [[alive[i] for i in comp] for comp in bfs_components(Multigraph(len(alive), kept))]


def tutte_berge_value(h: Multigraph, u) -> int:
    """|U| + sum floor(|C|/2) over the components C of h - U."""
    us = set(u)
    return len(us) + sum(len(c) // 2 for c in components_without(h, us))


def copy_of(x, v: int, i: int) -> int:
    """The projection map p: copy 1 (the - ends) of a vertex v outside X is
    2v and copy 2 (the + ends) is 2v+1; an X-vertex is 2v for both."""
    return 2 * v + 1 if i == 2 and v not in x else 2 * v


def lifted_edge(aux: Auxiliary, e: int) -> int:
    """The auxiliary edge that host edge e is rerouted to."""
    return aux.split_count + e


def split_edge(aux: Auxiliary, v: int) -> int:
    """The id of v's split edge, found by its end 2v among the split edges."""
    return aux.us.index(2 * v, 0, aux.split_count)


def lift_path(
    g: BidirectedMultigraph, x, aux: Auxiliary, p: SignedPath
) -> SignedPath:
    """Map an X-path of g to its base-alternating image in the auxiliary
    graph of (g, X), a path of auxiliary vertex and edge ids; the inverse of
    project_path.

    At each internal vertex the path enters the copy matching the incoming
    sign, crosses the split edge, and leaves from the other copy; the image
    has 2l-1 edges, of which l-1 belong to the base matching.
    """
    if not is_x_path(g, x, p):
        raise ValueError("lift_path requires an X-path of the host graph")
    verts = [copy_of(x, p.vertices[0], 1)]
    edges: list[int] = []
    for i, eid in enumerate(p.edges):
        v = p.vertices[i + 1]
        edges.append(lifted_edge(aux, eid))
        if i + 1 < len(p.vertices) - 1:
            c_in = 1 if g.sign(v, eid) is MINUS else 2
            verts.append(copy_of(x, v, c_in))
            edges.append(split_edge(aux, v))
            verts.append(copy_of(x, v, 3 - c_in))
        else:
            verts.append(copy_of(x, v, 1))
    return SignedPath(tuple(verts), tuple(edges))


def project_path(aux: Auxiliary, q: SignedPath) -> SignedPath:
    """The host path of a base-alternating auxiliary X-path q: the owner
    a >> 1 of its first vertex and of every vertex reached by a non-base
    edge, and the host id of each non-base edge. The inverse of lift_path."""
    return SignedPath(
        (q.vertices[0] >> 1, *(a >> 1 for a in q.vertices[1::2])),
        tuple(e - aux.split_count for e in q.edges[::2]),
    )


@st.composite
def multigraphs(draw, max_vertices: int = 30, max_edges: int = 40) -> Multigraph:
    """Hypothesis strategy: a small loop-free undirected multigraph."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    if n == 1:
        return Multigraph(1, ())
    ends = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=max_edges,
        )
    )
    return Multigraph(n, tuple(ends))


def random_admissible_pair(rng: random.Random, n: int, x) -> tuple[set, set]:
    """A uniform-ish (S, T) with X ∩ S = X ∩ T."""
    s: set[int] = set()
    t: set[int] = set()
    for v in range(n):
        if v in x:
            if rng.random() < 0.4:
                s.add(v)
                t.add(v)
        else:
            roll = rng.random()
            if roll < 0.25:
                s.add(v)
            elif roll < 0.5:
                t.add(v)
            elif roll < 0.75:
                s.add(v)
                t.add(v)
    return s, t


def directed_x_paths(n: int, arcs, xs) -> list[tuple[int, ...]]:
    """All directed X-paths as vertex tuples (arc-direction DFS)."""
    out: list[tuple[int, ...]] = []

    def extend(path: list[int], seen: set[int]) -> None:
        v = path[-1]
        for a, b in arcs:
            if a != v or b in seen:
                continue
            if b in xs:
                out.append(tuple(path + [b]))
            else:
                extend(path + [b], seen | {b})

    for start in sorted(xs):
        extend([start], {start})
    return out


def brute_directed_packing(n: int, arcs, xs) -> int:
    """Maximum vertex-disjoint directed X-path count by branch and bound."""
    masks = [sum(1 << v for v in p) for p in directed_x_paths(n, arcs, xs)]
    best = 0

    def descend(i: int, used: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        if i == len(masks) or count + len(masks) - i <= best:
            return
        if masks[i] & used == 0:
            descend(i + 1, used | masks[i], count + 1)
        descend(i + 1, used, count)

    descend(0, 0, 0)
    return best


def _component_floor_sum(n: int, kept_edges, counted) -> int:
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in kept_edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    per_root: dict[int, int] = {}
    for v in counted:
        r = find(v)
        per_root[r] = per_root.get(r, 0) + 1
    return sum(c // 2 for c in per_root.values())


def gallai_min_bound(n: int, edges, xs) -> int:
    """min over S of |S| + sum floor(|V(C) ∩ X| / 2) over components of G - S."""
    best: int | None = None
    for bits in range(1 << n):
        s = {v for v in range(n) if bits >> v & 1}
        kept = [(u, v) for u, v in edges if u not in s and v not in s]
        counted = [v for v in xs if v not in s]
        value = len(s) + _component_floor_sum(n, kept, counted)
        best = value if best is None else min(best, value)
    return best if best is not None else 0


def directed_dual_min(n: int, arcs, xs) -> int:
    """min over admissible (S, T) of the arrival/departure-filtered dual bound."""
    best: int | None = None
    options = [
        ((False, False), (True, True))
        if v in xs
        else ((False, False), (True, False), (False, True), (True, True))
        for v in range(n)
    ]

    def assign(v: int, s: set, t: set) -> None:
        nonlocal best
        if v == n:
            kept = [(a, b) for a, b in arcs if b not in s and a not in t]
            counted = [w for w in range(n) if w in xs or w in s or w in t]
            value = len(s & t) + _component_floor_sum(n, kept, counted)
            best = value if best is None else min(best, value)
            return
        for in_s, in_t in options[v]:
            assign(
                v + 1,
                s | {v} if in_s else s,
                t | {v} if in_t else t,
            )

    assign(0, set(), set())
    return best if best is not None else 0


@st.composite
def graph_and_x(draw, max_vertices: int = 6, max_edges: int = 10):
    """Hypothesis strategy: a small bidirected multigraph with an X-set."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    g = BidirectedMultigraph()
    g.add_vertices(n)
    if n > 1:
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        edge_specs = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(pairs),
                    st.sampled_from(SIGNS),
                    st.sampled_from(SIGNS),
                ),
                max_size=max_edges,
            )
        )
        for (u, v), su, sv in edge_specs:
            g.add_edge(u, su, v, sv)
    x = draw(st.frozensets(st.integers(0, n - 1)))
    return g.freeze(), x


def gamma_image(g, x, s, t, v) -> frozenset[tuple[int, int]]:
    """The auxiliary-vertex image of v under the five-case copy map, as
    (vertex, copy) pairs; copy 0 is an X-vertex."""
    xs = g.check_vertex_set(x)
    ss = g.check_vertex_set(s)
    ts = g.check_vertex_set(t)
    if xs & ss != xs & ts:
        raise SideConditionViolated("X ∩ S must equal X ∩ T")
    g.check_vertex_set([v])
    in_s, in_t = v in ss, v in ts
    if in_s and in_t:
        return frozenset()
    if in_s:
        return frozenset({(v, 1)})
    if in_t:
        return frozenset({(v, 2)})
    if v in xs:
        return frozenset({(v, 0)})
    return frozenset({(v, 1), (v, 2)})


def verify_component_correspondence(g, x, s, t) -> bool:
    """Check that the copy map carries restricted-graph components onto the
    components of the auxiliary graph minus the translated witness set,
    including the per-component cardinality identity."""
    xs = g.check_vertex_set(x)
    ss = g.check_vertex_set(s)
    ts = g.check_vertex_set(t)
    if xs & ss != xs & ts:
        raise SideConditionViolated("X ∩ S must equal X ∩ T")
    aux = auxiliary(g, xs)
    u_aux = {copy_of(xs, v, 1) for v in ts} | {copy_of(xs, v, 2) for v in ss}
    # The isolated ids 2v+1 of the X-vertices are no copies: leave them out too.
    unused = {2 * v + 1 for v in xs}
    aux_families = {
        frozenset(comp)
        for comp in components_without(auxiliary_multigraph(aux), u_aux | unused)
    }
    marked = xs | ss | ts
    both = ss & ts
    restricted_families: set[frozenset[int]] = set()
    count = 0
    for comp in restricted_components(g, ss, ts):
        if len(comp) == 1 and comp[0] in both:
            continue
        count += 1
        image: set[int] = set()
        for v in comp:
            image.update(copy_of(xs, w, c) for w, c in gamma_image(g, xs, ss, ts, v))
        inside = sum(1 for v in comp if v in marked)
        if len(image) != inside + 2 * (len(comp) - inside):
            return False
        restricted_families.add(frozenset(image))
    return restricted_families == aux_families and count == len(aux_families)
