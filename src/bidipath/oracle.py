"""Exponential-time baselines for desk-scale verification.

Everything here is deliberately naive and independent of the solving
pipeline: exhaustive path enumeration, set-packing by branch and bound,
dual minimization over every admissible (S, T), and matching by subset
search. Hard size guards raise LimitExceeded instead of running forever.
"""

from __future__ import annotations

from typing import Iterable

from .core import (
    MINUS,
    BidirectedMultigraph,
    Multigraph,
    SignedPath,
    VertexId,
)
from .errors import LimitExceeded, SideConditionViolated

MAX_PACKING_VERTICES = 10
MAX_DUAL_STATES = 1 << 20
MAX_MATCHING_EDGES = 20


def enumerate_x_paths(
    g: BidirectedMultigraph,
    x: Iterable[VertexId],
    limit: int | None = None,
) -> list[SignedPath]:
    """All X-paths of g in canonical form (smaller endpoint first).

    Paths are found by depth-first extension through non-X vertices while
    respecting sign alternation; a path and its reversal count once. Raises
    LimitExceeded, reporting the partial count, if more than `limit` exist.
    """
    xs = g.check_vertex_set(x)
    found: list[SignedPath] = []

    def record(verts: list[VertexId], edges: list[int]) -> None:
        if limit is not None and len(found) >= limit:
            raise LimitExceeded(
                f"more than {limit} X-paths exist", count=len(found)
            )
        found.append(SignedPath(tuple(verts), tuple(edges)))

    def extend(verts: list[VertexId], edges: list[int], on_path: set[VertexId]) -> None:
        v = verts[-1]
        incoming = g.sign(v, edges[-1]) if edges else None
        for eid in g.incident_edges(v):
            if incoming is not None and g.sign(v, eid) == incoming:
                continue
            w = g.edge(eid).other(v)
            if w in on_path:
                continue
            if w in xs:
                if w > verts[0]:
                    record(verts + [w], edges + [eid])
                continue
            verts.append(w)
            edges.append(eid)
            on_path.add(w)
            extend(verts, edges, on_path)
            on_path.remove(w)
            edges.pop()
            verts.pop()

    for start in sorted(xs):
        extend([start], [], {start})
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


def brute_dual_min(
    g: BidirectedMultigraph, x: Iterable[VertexId]
) -> tuple[int, frozenset[VertexId], frozenset[VertexId]]:
    """Minimum dual bound over every admissible (S, T), with one minimizer.

    Ties are broken toward the lexicographically least (sorted-S, sorted-T)
    pair. Admissibility means X ∩ S = X ∩ T, so an X-vertex is either in
    both sets or in neither.
    """
    xs = g.check_vertex_set(x)
    n = g.vertex_count
    states = 4 ** (n - len(xs)) * 2 ** len(xs)
    if states > MAX_DUAL_STATES:
        raise LimitExceeded(f"brute_dual_min would visit {states} (S, T) pairs")
    edges = [
        (e.u, e.sign_u is MINUS, e.v, e.sign_v is MINUS)
        for e in (g.edge(i) for i in range(g.edge_count))
    ]
    x_mask = sum(1 << v for v in xs)
    options = [
        ((0, 0), (1, 1)) if v in xs else ((0, 0), (1, 0), (0, 1), (1, 1))
        for v in range(n)
    ]

    best: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None
    best_masks = (0, 0)

    def mask_key(mask: int) -> tuple[int, ...]:
        return tuple(v for v in range(n) if mask >> v & 1)

    def assign(v: int, s_mask: int, t_mask: int) -> None:
        nonlocal best, best_masks
        if v == n:
            value = _masked_dual(n, edges, x_mask, s_mask, t_mask)
            if best is None or value < best[0]:
                best = (value, mask_key(s_mask), mask_key(t_mask))
                best_masks = (s_mask, t_mask)
            elif value == best[0]:
                key = (value, mask_key(s_mask), mask_key(t_mask))
                if key < best:
                    best = key
                    best_masks = (s_mask, t_mask)
            return
        for in_s, in_t in options[v]:
            assign(v + 1, s_mask | in_s << v, t_mask | in_t << v)

    assign(0, 0, 0)
    assert best is not None
    s_mask, t_mask = best_masks
    return (
        best[0],
        frozenset(v for v in range(n) if s_mask >> v & 1),
        frozenset(v for v in range(n) if t_mask >> v & 1),
    )


def brute_dual_value(
    g: BidirectedMultigraph,
    x: Iterable[VertexId],
    s: Iterable[VertexId],
    t: Iterable[VertexId],
) -> int:
    """The dual bound for one admissible (S, T), via the bitmask evaluator."""
    xs = g.check_vertex_set(x)
    ss = g.check_vertex_set(s)
    ts = g.check_vertex_set(t)
    if xs & ss != xs & ts:
        raise SideConditionViolated("X ∩ S must equal X ∩ T")
    edges = [
        (e.u, e.sign_u is MINUS, e.v, e.sign_v is MINUS)
        for e in (g.edge(i) for i in range(g.edge_count))
    ]
    return _masked_dual(
        g.vertex_count,
        edges,
        sum(1 << v for v in xs),
        sum(1 << v for v in ss),
        sum(1 << v for v in ts),
    )


def brute_matching(h: Multigraph) -> int:
    """Maximum matching size by include/exclude search over the edge list."""
    if h.edge_count > MAX_MATCHING_EDGES:
        raise LimitExceeded(
            f"brute_matching is limited to {MAX_MATCHING_EDGES} edges"
        )
    edges = h.endpoints
    m = len(edges)
    n = h.vertex_count
    best = 0

    def descend(i: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        free_bound = (n - bin(used).count("1")) // 2
        if i == m or size + min(m - i, free_bound) <= best:
            return
        u, v = edges[i]
        if not used >> u & 1 and not used >> v & 1:
            descend(i + 1, used | 1 << u | 1 << v, size + 1)
        descend(i + 1, used, size)

    descend(0, 0, 0)
    return best


def has_x_path(
    g: BidirectedMultigraph,
    x: Iterable[VertexId],
    avoid: Iterable[VertexId] = (),
) -> bool:
    """True iff at least one X-path exists, avoiding the given vertices.

    A sign-alternating depth-first search from X, with an explicit stack,
    entirely independent of the matching pipeline. Branches from which no
    unvisited X-vertex is even sign-blind reachable are pruned; that keeps
    the search fast on dense negative instances. Exponential in the worst
    case and unguarded: for small instances and tests.
    """
    xs = g.check_vertex_set(x)
    banned = g.check_vertex_set(avoid)
    if len(xs - banned) < 2:
        return False  # both endpoints lie in X and are distinct

    def x_reachable(frm: VertexId, on_path: set[VertexId]) -> bool:
        seen = {frm}
        stack = [frm]
        while stack:
            v = stack.pop()
            for eid in g.incident_edges(v):
                w = g.edge(eid).other(v)
                if w in banned or w in on_path or w in seen:
                    continue
                if w in xs:
                    return True
                seen.add(w)
                stack.append(w)
        return False

    for start in sorted(xs - banned):
        on_path = {start}
        if not x_reachable(start, on_path):
            continue
        # Frames: (vertex, sign of the edge entering it, its remaining edges).
        stack = [(start, None, iter(g.incident_edges(start)))]
        while stack:
            v, incoming, edges = stack[-1]
            for eid in edges:
                if incoming is not None and g.sign(v, eid) == incoming:
                    continue
                w = g.edge(eid).other(v)
                if w in banned or w in on_path:
                    continue
                if w in xs:
                    return True
                on_path.add(w)
                if x_reachable(w, on_path):
                    stack.append((w, g.sign(w, eid), iter(g.incident_edges(w))))
                    break
                on_path.remove(w)
            else:
                stack.pop()
                on_path.discard(v)
    return False
