"""Auxiliary graph construction and the path bijection."""

import pytest
from hypothesis import given

from bidipath import (
    MINUS,
    PLUS,
    AuxVertex,
    BidirectedMultigraph,
    Edge,
    SignedPath,
    build_auxiliary,
    is_matching,
    is_x_path,
    lift_path,
    project_path,
)
from bidipath.auxiliary import AlternatingPath
from bidipath.errors import (
    EndpointsNotInX,
    NotAlternating,
    NotAnXPath,
    UnknownVertex,
)
from bidipath.oracle import enumerate_x_paths
from helpers import complete_all_minus, graph_and_x


def test_build_single_x_vertex():
    g = BidirectedMultigraph()
    x = g.add_vertex()
    aux = build_auxiliary(g, {x})
    assert aux.graph.vertex_count == 1
    assert aux.graph.edge_count == 0
    assert aux.base_matching == frozenset()


def test_build_splits_by_sign():
    g = BidirectedMultigraph()
    x, v = g.add_vertices(2)
    e = g.add_edge(x, MINUS, v, PLUS)
    aux = build_auxiliary(g, {x})
    assert aux.graph.vertex_count == 3
    assert aux.graph.edge_count == 2
    assert len(aux.base_matching) == 1
    # sign + at v routes the lifted edge to copy 2
    lifted = aux.lifted(e)
    ends = set(aux.graph.endpoints[lifted])
    assert ends == {aux.p(x, 1), aux.p(v, 2)}


def test_build_identity_when_x_is_everything():
    g = complete_all_minus(5)
    aux = build_auxiliary(g, range(5))
    assert aux.graph.vertex_count == 5
    assert aux.graph.edge_count == 10
    assert aux.base_matching == frozenset()


def test_build_counts_and_base_matching():
    g = BidirectedMultigraph()
    g.add_vertices(5)
    g.add_edge(0, MINUS, 1, PLUS)
    g.add_edge(1, MINUS, 2, MINUS)
    g.add_edge(3, PLUS, 4, PLUS)
    aux = build_auxiliary(g, {0, 2})
    assert aux.graph.vertex_count == 2 + 2 * 3
    assert aux.graph.edge_count == 3 + 3
    assert is_matching(aux.graph, aux.base_matching)
    assert len(aux.base_matching) == 3
    # the lifted-edge map is a bijection onto the non-base edges
    lifted = {aux.lifted(e) for e in range(g.edge_count)}
    assert len(lifted) == 3
    assert lifted | aux.base_matching == set(range(6))


def test_build_rejects_foreign_x():
    g = BidirectedMultigraph()
    g.add_vertex()
    with pytest.raises(UnknownVertex):
        build_auxiliary(g, {7})


def test_lift_length_one_path():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    e = g.add_edge(a, PLUS, b, MINUS)
    aux = build_auxiliary(g, {a, b})
    q = lift_path(aux, SignedPath((a, b), (e,)))
    assert q.length == 1
    assert q.edges == (aux.lifted(e),)


def test_lift_routes_internal_copies_by_sign():
    g = BidirectedMultigraph()
    x1, v, x2 = g.add_vertices(3)
    e1 = g.add_edge(x1, MINUS, v, PLUS)
    e2 = g.add_edge(v, MINUS, x2, MINUS)
    aux = build_auxiliary(g, {x1, x2})
    q = lift_path(aux, SignedPath((x1, v, x2), (e1, e2)))
    # enter at copy 2 (sign +), cross the split edge, leave from copy 1
    assert q.vertices == (
        aux.p(x1, 1),
        aux.p(v, 2),
        aux.p(v, 1),
        aux.p(x2, 1),
    )
    assert q.edges[1] == aux.split_edges[v]


def test_lift_rejects_non_x_path():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    e = g.add_edge(a, MINUS, b, MINUS)
    aux = build_auxiliary(g, {a, b})
    with pytest.raises(NotAnXPath):
        lift_path(aux, SignedPath((a,), ()))
    with pytest.raises(NotAnXPath):
        lift_path(build_auxiliary(g, {a}), SignedPath((a, b), (e,)))


def test_project_rejects_bad_inputs():
    g = BidirectedMultigraph()
    x1, v, x2 = g.add_vertices(3)
    e1 = g.add_edge(x1, MINUS, v, PLUS)
    e2 = g.add_edge(v, MINUS, x2, MINUS)
    aux = build_auxiliary(g, {x1, x2})
    q = lift_path(aux, SignedPath((x1, v, x2), (e1, e2)))
    with pytest.raises(EndpointsNotInX):
        project_path(aux, AlternatingPath(q.vertices[1:], q.edges[1:]))

    g2 = BidirectedMultigraph()
    a, b, c = g2.add_vertices(3)
    f1 = g2.add_edge(a, MINUS, b, PLUS)
    f2 = g2.add_edge(b, MINUS, c, PLUS)
    aux2 = build_auxiliary(g2, {a, b, c})
    with pytest.raises(NotAlternating):
        # f1 joins a and b, not a and c
        wrong_join = AlternatingPath(
            (aux2.p(a, 1), aux2.p(c, 1)), (aux2.lifted(f1),)
        )
        project_path(aux2, wrong_join)
    with pytest.raises(NotAlternating):
        # even length cannot alternate with non-base edges at both ends
        even = AlternatingPath(
            (aux2.p(a, 1), aux2.p(b, 1), aux2.p(c, 1)),
            (aux2.lifted(f1), aux2.lifted(f2)),
        )
        project_path(aux2, even)


def test_project_single_non_base_edge():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    e = g.add_edge(a, PLUS, b, PLUS)
    aux = build_auxiliary(g, {a, b})
    q = AlternatingPath((aux.p(a, 1), aux.p(b, 1)), (aux.lifted(e),))
    assert project_path(aux, q) == SignedPath((a, b), (e,))


@given(graph_and_x())
def test_round_trip_and_edge_counts(gx):
    g, x = gx
    aux = build_auxiliary(g, x)
    split_count = g.vertex_count - len(x)
    assert aux.graph.vertex_count == len(x) + 2 * split_count
    assert aux.graph.edge_count == g.edge_count + split_count
    for p in enumerate_x_paths(g, x, limit=200):
        q = lift_path(aux, p)
        assert q.length == 2 * p.length - 1
        in_base = sum(1 for e in q.edges if e in aux.base_matching)
        assert in_base == p.length - 1
        assert project_path(aux, q) == p


@given(graph_and_x())
def test_disjointness_preserved_both_ways(gx):
    g, x = gx
    aux = build_auxiliary(g, x)
    paths = enumerate_x_paths(g, x, limit=60)
    lifted = [lift_path(aux, p) for p in paths]
    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            host_disjoint = not (set(paths[i].vertices) & set(paths[j].vertices))
            aux_disjoint = not (set(lifted[i].vertices) & set(lifted[j].vertices))
            assert host_disjoint == aux_disjoint


@given(graph_and_x())
def test_flat_layout_of_host_and_auxiliary_graph(gx):
    g, x = gx
    ends = list(g.edge_ends())
    assert len(ends) == g.edge_count
    # Replaying the edges through add_edge gives back exactly its arguments.
    h = BidirectedMultigraph()
    h.add_vertices(g.vertex_count)
    for e, (u, sign_u, v, sign_v) in enumerate(ends):
        assert h.add_edge(u, sign_u, v, sign_v) == e
        assert h.edge(e) == g.edge(e) == Edge(u, sign_u, v, sign_v)
        assert (h.sign(u, e), h.sign(v, e)) == (sign_u, sign_v)
        assert e in h.incident_edges(u) and e in h.incident_edges(v)
    assert list(h.edge_ends()) == ends

    aux = build_auxiliary(g, x)
    layout = sorted(
        [(v, 0) for v in x] + [(v, c) for v in g.vertices() if v not in x for c in (1, 2)]
    )
    assert [(a.vertex, a.copy) for a in aux.aux_vertices] == layout
    assert list(zip(aux.owner, aux.copy)) == layout
    for v in g.vertices():
        for c in (1, 2):
            assert layout[aux.p(v, c)] == (v, 0 if v in x else c)
    split_count = g.vertex_count - len(x)
    for e, (u, sign_u, v, sign_v) in enumerate(ends):
        assert aux.lifted(e) == split_count + e
        a, b = aux.graph.endpoints[aux.lifted(e)]
        assert aux.aux_vertices[a] == AuxVertex(u, 0 if u in x else (1 if sign_u is MINUS else 2))
        assert aux.aux_vertices[b] == AuxVertex(v, 0 if v in x else (1 if sign_v is MINUS else 2))
