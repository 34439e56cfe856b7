"""The exponential oracles that only the tests run.

`bidipath.oracle` keeps what `bidipath verify` runs; these check the solver
and the matcher on small instances. Like `oracle`, this module never
imports the solver or the matcher: it reads the graph through its edge
lists, with `oracle`'s own adjacency and bitmask dual evaluator.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from bidipath.core import MINUS, BidirectedMultigraph, VertexId
from bidipath.errors import LimitExceeded, SideConditionViolated
from bidipath.oracle import _adjacency, _masked_dual

MAX_MATCHING_EDGES = 20


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
    adj = _adjacency(g)

    def x_reachable(frm: VertexId, on_path: set[VertexId]) -> bool:
        seen = {frm}
        stack = [frm]
        while stack:
            v = stack.pop()
            for _, w, _, _ in adj[v]:
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
        stack = [(start, None, iter(adj[start]))]
        while stack:
            v, incoming, edges = stack[-1]
            for _, w, here, there in edges:
                if here is incoming:
                    continue
                if w in banned or w in on_path:
                    continue
                if w in xs:
                    return True
                on_path.add(w)
                if x_reachable(w, on_path):
                    stack.append((w, there, iter(adj[w])))
                    break
                on_path.remove(w)
            else:
                stack.pop()
                on_path.discard(v)
    return False


def brute_matching(vertex_count: int, pairs: Sequence[tuple[int, int]]) -> int:
    """Maximum matching size of the multigraph on range(vertex_count) with the
    edges `pairs`, by include/exclude search over the edge list."""
    if len(pairs) > MAX_MATCHING_EDGES:
        raise LimitExceeded(
            f"brute_matching is limited to {MAX_MATCHING_EDGES} edges"
        )
    m = len(pairs)
    best = 0

    def descend(i: int, used: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        free_bound = (vertex_count - bin(used).count("1")) // 2
        if i == m or size + min(m - i, free_bound) <= best:
            return
        u, v = pairs[i]
        if not used >> u & 1 and not used >> v & 1:
            descend(i + 1, used | 1 << u | 1 << v, size + 1)
        descend(i + 1, used, size)

    descend(0, 0, 0)
    return best


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
        (u, sign_u is MINUS, v, sign_v is MINUS)
        for u, sign_u, v, sign_v in g.edge_ends()
    ]
    return _masked_dual(
        g.vertex_count,
        edges,
        sum(1 << v for v in xs),
        sum(1 << v for v in ss),
        sum(1 << v for v in ts),
    )
