"""Auxiliary graph construction, its id map and the path bijection."""

import pytest
from hypothesis import given

from bidipath import MINUS, PLUS, BidirectedMultigraph, SignedPath, generate_instance, solve
from bidipath.errors import UnknownVertex
from bidipath.matching import _Matcher
from bidipath.oracle import enumerate_x_paths
from helpers import (
    SIGN_FAMILIES,
    auxiliary,
    auxiliary_matcher,
    auxiliary_multigraph,
    complete_all_minus,
    copy_of,
    graph_and_x,
    is_matching,
    lift_path,
    lifted_edge,
    partition,
    project_path,
    split_edge,
)


def test_build_single_x_vertex():
    g = BidirectedMultigraph()
    x = g.add_vertices(1)[0]
    aux = auxiliary(g, frozenset({x}))
    assert aux.vertex_count == 2  # 2x, and the isolated 2x+1
    assert aux.us == aux.vs == []
    assert aux.split_count == 0


def test_build_splits_by_sign():
    g = BidirectedMultigraph()
    x, v = g.add_vertices(2)
    e = g.add_edge(x, MINUS, v, PLUS)
    aux = auxiliary(g, frozenset({x}))
    assert aux.vertex_count == 4
    assert len(aux.us) == len(aux.vs) == 2
    assert aux.split_count == 1
    assert (aux.us[0], aux.vs[0]) == (2 * v, 2 * v + 1)
    # sign + at v routes the lifted edge to copy 2, which is 2v+1
    lifted = lifted_edge(aux, e)
    assert (aux.us[lifted], aux.vs[lifted]) == (2 * x, 2 * v + 1)
    assert {aux.us[lifted], aux.vs[lifted]} == {copy_of({x}, x, 1), copy_of({x}, v, 2)}


def test_build_identity_when_x_is_everything():
    g = complete_all_minus(5)
    aux = auxiliary(g, frozenset(range(5)))
    assert aux.vertex_count == 10
    assert aux.split_count == 0
    assert list(zip(aux.us, aux.vs)) == [(2 * u, 2 * v) for u, _, v, _ in g.edge_ends()]


def test_build_counts_and_base_matching():
    g = BidirectedMultigraph()
    g.add_vertices(5)
    g.add_edge(0, MINUS, 1, PLUS)
    g.add_edge(1, MINUS, 2, MINUS)
    g.add_edge(3, PLUS, 4, PLUS)
    aux = auxiliary(g, frozenset({0, 2}))
    assert aux.vertex_count == 2 * 5
    assert len(aux.us) == len(aux.vs) == 3 + 3
    base = range(aux.split_count)
    assert is_matching(auxiliary_multigraph(aux), base)
    assert len(base) == 3
    assert [split_edge(aux, v) for v in (1, 3, 4)] == [0, 1, 2]
    # the lifted-edge map is a bijection onto the non-base edges
    lifted = {lifted_edge(aux, e) for e in range(g.edge_count)}
    assert len(lifted) == 3
    assert lifted | set(base) == set(range(6))


def test_build_rejects_foreign_x():
    # solve checks X before it builds the auxiliary graph.
    g = BidirectedMultigraph()
    g.add_vertices(1)
    with pytest.raises(UnknownVertex, match="vertex 7 does not exist"):
        solve(g, {7})


def test_lift_length_one_path():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    e = g.add_edge(a, PLUS, b, MINUS)
    x = frozenset({a, b})
    q = lift_path(g, x, auxiliary(g, x), SignedPath((a, b), (e,)))
    assert q.length == 1
    assert q.vertices == (2 * a, 2 * b)
    assert q.edges == (lifted_edge(auxiliary(g, x), e),)


def test_lift_routes_internal_copies_by_sign():
    g = BidirectedMultigraph()
    x1, v, x2 = g.add_vertices(3)
    e1 = g.add_edge(x1, MINUS, v, PLUS)
    e2 = g.add_edge(v, MINUS, x2, MINUS)
    x = frozenset({x1, x2})
    aux = auxiliary(g, x)
    q = lift_path(g, x, aux, SignedPath((x1, v, x2), (e1, e2)))
    # enter at copy 2 (sign +), cross the split edge, leave from copy 1
    assert q.vertices == (
        copy_of(x, x1, 1),
        copy_of(x, v, 2),
        copy_of(x, v, 1),
        copy_of(x, x2, 1),
    )
    assert q.vertices == (2 * x1, 2 * v + 1, 2 * v, 2 * x2)
    assert q.edges[1] == split_edge(aux, v) == 0


def test_lift_rejects_non_x_path():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    e = g.add_edge(a, MINUS, b, MINUS)
    x = frozenset({a, b})
    with pytest.raises(ValueError, match="requires an X-path"):
        lift_path(g, x, auxiliary(g, x), SignedPath((a,), ()))
    with pytest.raises(ValueError, match="requires an X-path"):
        lift_path(g, {a}, auxiliary(g, frozenset({a})), SignedPath((a, b), (e,)))


def test_project_single_non_base_edge():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    e = g.add_edge(a, PLUS, b, PLUS)
    x = frozenset({a, b})
    aux = auxiliary(g, x)
    q = SignedPath((copy_of(x, a, 1), copy_of(x, b, 1)), (lifted_edge(aux, e),))
    assert project_path(aux, q) == SignedPath((a, b), (e,))


@given(graph_and_x())
def test_round_trip_and_edge_counts(gx):
    g, x = gx
    aux = auxiliary(g, x)
    split_count = g.vertex_count - len(x)
    assert aux.split_count == split_count
    assert aux.vertex_count == 2 * g.vertex_count
    assert len(aux.us) == len(aux.vs) == g.edge_count + split_count
    for p in enumerate_x_paths(g, x, limit=200):
        q = lift_path(g, x, aux, p)
        assert q.length == 2 * p.length - 1
        in_base = sum(1 for e in q.edges if e < split_count)
        assert in_base == p.length - 1
        assert project_path(aux, q) == p


@given(graph_and_x())
def test_disjointness_preserved_both_ways(gx):
    g, x = gx
    aux = auxiliary(g, x)
    paths = enumerate_x_paths(g, x, limit=60)
    lifted = [lift_path(g, x, aux, p) for p in paths]
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
        assert list(h.edge_ends())[e] == (u, sign_u, v, sign_v)
        assert (h.sign(u, e), h.sign(v, e)) == (sign_u, sign_v)
    assert list(h.edge_ends()) == ends

    # Outside X, v's - ends land on 2v and its + ends on 2v+1, and its split
    # edge (2v, 2v+1) comes before every host edge; an X-vertex's ends all
    # land on 2v.
    def lands(w, sign):
        return 2 * w if w in x or sign is MINUS else 2 * w + 1

    aux = auxiliary(g, x)
    split = [v for v in g.vertices() if v not in x]
    assert aux.split_count == len(split)
    assert list(zip(aux.us, aux.vs)) == [(2 * v, 2 * v + 1) for v in split] + [
        (lands(u, sign_u), lands(v, sign_v)) for u, sign_u, v, sign_v in ends
    ]
    for e in range(len(ends)):
        assert lifted_edge(aux, e) == len(split) + e


@given(graph_and_x())
def test_the_id_2v_plus_1_of_an_x_vertex_is_isolated_and_in_d(gx):
    g, x = gx
    aux = auxiliary(g, x)
    touched = set(aux.us) | set(aux.vs)
    d = partition(solve(g, x)._matcher).d
    for v in x:
        assert 2 * v + 1 not in touched
        assert 2 * v + 1 in d


@pytest.mark.parametrize("n", [12, 60, 300])
@pytest.mark.parametrize("family", range(len(SIGN_FAMILIES)))
def test_solve_builds_the_adjacency_and_seed_of_the_reference_edge_lists(family, n, monkeypatch):
    # The adjacency is built straight from g's lists; it must list, vertex
    # by vertex and in order, what the edge lists split edges first, then
    # host edges in id order, give, and seed the same base matching.
    sign_dist, x_frac = SIGN_FAMILIES[family]
    g = generate_instance(n, 3 * n, x_frac, sign_dist, 10 * n + family).graph
    run = _Matcher.run
    seeds = []

    def recording(self, limit=None):
        seeds.append(list(self.match))
        run(self, limit)

    monkeypatch.setattr(_Matcher, "run", recording)
    for x in (frozenset(), frozenset(g.vertices())):
        built = solve(g, x)._matcher
        reference = auxiliary_matcher(g, x)
        assert built.n == reference.n == 2 * n
        assert built.nbrs == reference.nbrs
        assert seeds.pop() == reference.match
