"""Shared fixtures: deterministic random instances and reference computations."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from bidipath import (
    MINUS,
    PLUS,
    AuxVertex,
    BidirectedMultigraph,
    Multigraph,
    build_auxiliary,
    restrict,
)
from bidipath.bgf import Instance
from bidipath.errors import SideConditionViolated
from bidipath.generate import generate_instance
from bidipath.matching import components_without

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


def gamma_image(g, x, s, t, v) -> frozenset[AuxVertex]:
    """The auxiliary-vertex image of v under the five-case copy map."""
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
        return frozenset({AuxVertex(v, 1)})
    if in_t:
        return frozenset({AuxVertex(v, 2)})
    if v in xs:
        return frozenset({AuxVertex(v, 0)})
    return frozenset({AuxVertex(v, 1), AuxVertex(v, 2)})


def verify_component_correspondence(g, x, s, t) -> bool:
    """Check that the copy map carries restricted-graph components onto the
    components of the auxiliary graph minus the translated witness set,
    including the per-component cardinality identity."""
    xs = g.check_vertex_set(x)
    ss = g.check_vertex_set(s)
    ts = g.check_vertex_set(t)
    if xs & ss != xs & ts:
        raise SideConditionViolated("X ∩ S must equal X ∩ T")
    aux = build_auxiliary(g, xs)
    u_aux = {aux.p(v, 1) for v in ts} | {aux.p(v, 2) for v in ss}
    aux_families = {
        frozenset(comp) for comp in components_without(aux.graph, u_aux)
    }
    marked = xs | ss | ts
    both = ss & ts
    restricted_families: set[frozenset[int]] = set()
    count = 0
    for comp in restrict(g, ss, ts).components():
        if len(comp) == 1 and comp[0] in both:
            continue
        count += 1
        image: set[int] = set()
        for v in comp:
            image.update(aux.p(a.vertex, a.copy) for a in gamma_image(g, xs, ss, ts, v))
        inside = sum(1 for v in comp if v in marked)
        if len(image) != inside + 2 * (len(comp) - inside):
            return False
        restricted_families.add(frozenset(image))
    return restricted_families == aux_families and count == len(aux_families)
