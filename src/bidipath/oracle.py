"""Exponential-time baselines for desk-scale verification.

Everything here is deliberately naive and independent of the solving
pipeline: exhaustive path enumeration, set-packing by branch and bound,
and the least dual value over every admissible (S, T). Hard size guards
raise LimitExceeded instead of running forever.
The graph is read only through `edge_ends()`, `vertices()`, `vertex_count`
and `check_vertex_set()`; the path search indexes its own adjacency.
"""

from __future__ import annotations

from typing import Iterable

from .core import (
    MINUS,
    BidirectedMultigraph,
    Sign,
    SignedPath,
    VertexId,
)
from .errors import LimitExceeded

MAX_PACKING_VERTICES = 10
MAX_DUAL_STATES = 1 << 20


def _adjacency(
    g: BidirectedMultigraph,
) -> list[list[tuple[int, VertexId, Sign, Sign]]]:
    """Per vertex v, (edge id, other end, sign at v, sign at the other end)
    of every edge at v, in edge-id order."""
    adj: list[list[tuple[int, VertexId, Sign, Sign]]] = [[] for _ in g.vertices()]
    for eid, (u, sign_u, v, sign_v) in enumerate(g.edge_ends()):
        adj[u].append((eid, v, sign_u, sign_v))
        adj[v].append((eid, u, sign_v, sign_u))
    return adj


def enumerate_x_paths(
    g: BidirectedMultigraph,
    x: Iterable[VertexId],
    limit: int | None = None,
) -> list[SignedPath]:
    """All X-paths of g in canonical form (smaller endpoint first).

    Paths are found by depth-first extension through non-X vertices while
    respecting sign alternation; a path and its reversal count once. Raises
    LimitExceeded if more than `limit` exist.
    """
    xs = g.check_vertex_set(x)
    adj = _adjacency(g)
    found: list[SignedPath] = []

    def record(verts: list[VertexId], edges: list[int]) -> None:
        if limit is not None and len(found) >= limit:
            raise LimitExceeded(f"more than {limit} X-paths exist")
        found.append(SignedPath(tuple(verts), tuple(edges)))

    def extend(
        verts: list[VertexId],
        edges: list[int],
        on_path: set[VertexId],
        incoming: Sign | None,
    ) -> None:
        for eid, w, here, there in adj[verts[-1]]:
            if here is incoming:
                continue
            if w in on_path:
                continue
            if w in xs:
                if w > verts[0]:
                    record(verts + [w], edges + [eid])
                continue
            verts.append(w)
            edges.append(eid)
            on_path.add(w)
            extend(verts, edges, on_path, there)
            on_path.remove(w)
            edges.pop()
            verts.pop()

    for start in sorted(xs):
        extend([start], [], {start}, None)
    return found


def brute_max_disjoint(
    g: BidirectedMultigraph,
    x: Iterable[VertexId],
    limit: int | None = 5000,
) -> int:
    """Maximum number of pairwise vertex-disjoint X-paths, by exhaustive packing."""
    if g.vertex_count > MAX_PACKING_VERTICES:
        raise LimitExceeded(
            f"brute_max_disjoint is limited to {MAX_PACKING_VERTICES} vertices"
        )
    xs = g.check_vertex_set(x)
    paths = enumerate_x_paths(g, xs, limit=limit)
    masks = [sum(1 << v for v in p.vertices) for p in paths]
    x_mask = sum(1 << v for v in xs)
    best = 0

    def spare_capacity(used: int) -> int:
        # Every X-path consumes two X-endpoints.
        return bin(x_mask & ~used).count("1") // 2

    def descend(i: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if i == len(masks) or count + spare_capacity(used) <= best:
            return
        if masks[i] & used == 0:
            descend(i + 1, used | masks[i], count + 1)
        descend(i + 1, used, count)

    descend(0, 0, 0)
    return best


def _end_keeps(v_in_s: bool, v_in_t: bool, sign_is_minus: bool) -> bool:
    if not v_in_s and not v_in_t:
        return True
    if v_in_s and not v_in_t:
        return sign_is_minus
    if v_in_t and not v_in_s:
        return not sign_is_minus
    return False


def _masked_dual(
    n: int,
    edges: list[tuple[int, bool, int, bool]],
    x_mask: int,
    s_mask: int,
    t_mask: int,
) -> int:
    """The dual bound for bitmask (S, T): |S∩T| + per-component floor counts."""
    marked = x_mask | s_mask | t_mask
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, u_minus, v, v_minus in edges:
        if not _end_keeps(bool(s_mask >> u & 1), bool(t_mask >> u & 1), u_minus):
            continue
        if not _end_keeps(bool(s_mask >> v & 1), bool(t_mask >> v & 1), v_minus):
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    counts: dict[int, int] = {}
    for v in range(n):
        if marked >> v & 1:
            r = find(v)
            counts[r] = counts.get(r, 0) + 1
    return bin(s_mask & t_mask).count("1") + sum(c // 2 for c in counts.values())


def brute_dual_min(g: BidirectedMultigraph, x: Iterable[VertexId]) -> int:
    """Minimum dual bound over every admissible (S, T).

    Admissibility means X ∩ S = X ∩ T, so an X-vertex is either in both
    sets or in neither.
    """
    xs = g.check_vertex_set(x)
    n = g.vertex_count
    states = 4 ** (n - len(xs)) * 2 ** len(xs)
    if states > MAX_DUAL_STATES:
        raise LimitExceeded(f"brute_dual_min would visit {states} (S, T) pairs")
    edges = [
        (u, sign_u is MINUS, v, sign_v is MINUS)
        for u, sign_u, v, sign_v in g.edge_ends()
    ]
    x_mask = sum(1 << v for v in xs)
    options = [
        ((0, 0), (1, 1)) if v in xs else ((0, 0), (1, 0), (0, 1), (1, 1))
        for v in range(n)
    ]

    def assign(v: int, s_mask: int, t_mask: int) -> int:
        if v == n:
            return _masked_dual(n, edges, x_mask, s_mask, t_mask)
        return min(
            assign(v + 1, s_mask | in_s << v, t_mask | in_t << v)
            for in_s, in_t in options[v]
        )

    return assign(0, 0, 0)
