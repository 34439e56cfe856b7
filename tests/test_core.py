"""Data model, path validity, restricted components, dual bound, and reductions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bidipath import (
    MINUS,
    PLUS,
    BidirectedMultigraph,
    SignedPath,
    dual_value,
    from_digraph,
    from_undirected,
    is_x_path,
    solve,
)
from bidipath.core import delete_vertices, is_valid_path, restricted_roots
from bidipath.errors import (
    GraphFrozen,
    InvalidParameter,
    LoopRejected,
    SideConditionViolated,
    UnknownVertex,
)
from helpers import (
    SIGNS,
    bfs_components,
    complete_all_minus,
    graph_and_x,
    multigraphs,
    restricted_components,
    weak_components,
)


def test_vertex_ids_are_sequential():
    g = BidirectedMultigraph()
    assert g.add_vertices(1)[0] == 0
    g.add_vertices(2)
    assert g.add_vertices(1)[0] == 3
    assert g.add_vertices(1)[0] != g.add_vertices(1)[0]


def test_edge_signs_round_trip():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    e = g.add_edge(a, MINUS, b, PLUS)
    assert g.sign(a, e) is MINUS
    assert g.sign(b, e) is PLUS


def test_sign_names_a_missing_edge_and_a_vertex_off_the_edge():
    g = BidirectedMultigraph()
    a, b, c = g.add_vertices(3)
    e = g.add_edge(a, MINUS, b, PLUS)
    with pytest.raises(UnknownVertex, match="^edge 1 does not exist$"):
        g.sign(a, e + 1)
    with pytest.raises(UnknownVertex, match="^vertex 2 is not an endpoint of this edge$"):
        g.sign(c, e)


def test_a_signed_path_lists_one_vertex_more_than_edges():
    with pytest.raises(ValueError, match="^a path on l edges must list l\\+1 vertices$"):
        SignedPath((0, 1), ())


def test_loops_rejected():
    g = BidirectedMultigraph()
    a = g.add_vertices(1)[0]
    with pytest.raises(LoopRejected):
        g.add_edge(a, MINUS, a, PLUS)


def test_unknown_endpoint_rejected():
    g = BidirectedMultigraph()
    a = g.add_vertices(1)[0]
    with pytest.raises(UnknownVertex):
        g.add_edge(a, MINUS, 5, PLUS)


@pytest.mark.parametrize(
    "vs, named",
    [({0.5, 2}, "0.5"), ({0, 2.0}, "2.0"), ({"1"}, "'1'"), ({None, 1}, "None"), ({0, 3}, "3")],
)
def test_solve_rejects_a_vertex_id_that_is_not_an_int_in_range_by_name(vs, named):
    g = BidirectedMultigraph()
    g.add_vertices(3)
    g.add_edge(0, MINUS, 1, PLUS)
    g.add_edge(1, MINUS, 2, PLUS)
    with pytest.raises(UnknownVertex, match=rf"^vertex {named} does not exist$"):
        solve(g, vs)


def test_parallel_edges_with_same_signs_are_distinct():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    e1 = g.add_edge(a, MINUS, b, MINUS)
    e2 = g.add_edge(a, MINUS, b, MINUS)
    assert e1 != e2
    assert g.edge_count == 2


def test_frozen_graph_rejects_mutation():
    g = BidirectedMultigraph()
    g.add_vertices(1)
    g.freeze()
    with pytest.raises(GraphFrozen):
        g.add_vertices(1)


def _columns(edges):
    """The four parallel lists add_edges takes."""
    return tuple(map(list, zip(*edges))) if edges else ([], [], [], [])


@st.composite
def edge_batches(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    edge = st.tuples(
        st.integers(0, n - 1), st.sampled_from(SIGNS), st.integers(0, n - 1), st.sampled_from(SIGNS)
    ).filter(lambda e: e[0] != e[2])
    return n, draw(st.lists(edge, max_size=20))


@given(edge_batches())
def test_add_edges_equals_repeated_add_edge(batch):
    n, edges = batch
    one, bulk = BidirectedMultigraph(), BidirectedMultigraph()
    one.add_vertices(n)
    bulk.add_vertices(n)
    ids = [one.add_edge(*e) for e in edges]
    half = len(edges) // 2
    got = list(bulk.add_edges(*_columns(edges[:half])))
    got += bulk.add_edges(*_columns(edges[half:]))
    assert got == ids == list(range(len(edges)))
    assert list(bulk.edge_ends()) == list(one.edge_ends()) == edges


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize(
    "bad, error",
    [
        ((1, MINUS, 1, PLUS), LoopRejected),
        ((0, MINUS, 3, PLUS), UnknownVertex),
        ((-1, PLUS, 0, MINUS), UnknownVertex),
        ((0.5, MINUS, 2, PLUS), UnknownVertex),
        ((0, PLUS, True, MINUS), UnknownVertex),
        ((0, MINUS, 2, "+"), InvalidParameter),
    ],
    ids=["loop", "past-the-last-vertex", "negative-vertex", "float-vertex", "bool-vertex",
         "string-sign"],
)
def test_a_bad_edge_anywhere_in_a_batch_leaves_the_graph_unchanged(bad, error, position):
    g = BidirectedMultigraph()
    g.add_vertices(3)
    g.add_edge(0, MINUS, 1, PLUS)
    good = [(0, PLUS, 2, MINUS), (1, MINUS, 2, MINUS)]
    with pytest.raises(error) as bulk:
        g.add_edges(*_columns(good[:position] + [bad] + good[position:]))
    single = BidirectedMultigraph()
    single.add_vertices(3)
    with pytest.raises(error) as one:
        single.add_edge(*bad)
    assert str(bulk.value) == str(one.value)
    assert list(g.edge_ends()) == [(0, MINUS, 1, PLUS)]


@pytest.mark.parametrize(
    "u, v, named",
    [(0.5, 2, "0.5"), (0, 2.0, "2.0"), ("1", 2, "'1'"), (None, 1, "None"), (0, True, "True")],
)
def test_add_edges_rejects_a_vertex_id_that_is_not_an_int_by_name(u, v, named):
    # 0.5 and 2.0 are in range: only the type check keeps them out of the
    # graph, where a later solve would fail with a bare TypeError.
    g = BidirectedMultigraph()
    g.add_vertices(3)
    with pytest.raises(UnknownVertex, match=rf"^vertex {named} does not exist$"):
        g.add_edges([0, u], [PLUS, MINUS], [1, v], [MINUS, PLUS])
    assert g.edge_count == 0
    assert solve(g, {0, 2}).packing.k == 0


def test_a_frozen_graph_rejects_every_batch():
    g = BidirectedMultigraph()
    g.add_vertices(2)
    g.freeze()
    for batch in ([(0, MINUS, 1, PLUS)], [], [(0, MINUS, 0, PLUS)]):
        with pytest.raises(GraphFrozen):
            g.add_edges(*_columns(batch))
    with pytest.raises(GraphFrozen):
        g.add_edge(0, MINUS, 1, PLUS)
    assert g.edge_count == 0


def test_solve_and_path_validity_agree_on_the_a_b_c_instance():
    # Given "-" / "+" strings, add_edge raises (the string-sign batch case
    # above); unchecked, solve certified k = 0 here while a-b-c was valid.
    g = BidirectedMultigraph()
    a, b, c = g.add_vertices(3)
    e1 = g.add_edge(a, MINUS, b, PLUS)
    e2 = g.add_edge(b, MINUS, c, PLUS)
    assert is_valid_path(g, SignedPath((a, b, c), (e1, e2)))
    solution = solve(g, {a, c})
    assert solution.packing.k == 1
    assert set(solution.packing.paths[0].vertices) == {a, b, c}
    cert = solution.certificate
    assert dual_value(g, {a, c}, cert.s, cert.t) == 1


def test_add_edges_rejects_lists_of_unequal_length():
    g = BidirectedMultigraph()
    g.add_vertices(2)
    with pytest.raises(ValueError):
        g.add_edges([0], [MINUS], [1], [])
    assert g.edge_count == 0


def test_trivial_path_is_valid():
    g = BidirectedMultigraph()
    a = g.add_vertices(1)[0]
    assert is_valid_path(g, SignedPath((a,), ()))


def test_alternation_violation_detected():
    g = BidirectedMultigraph()
    a, b, c = g.add_vertices(3)
    e1 = g.add_edge(a, MINUS, b, PLUS)
    e2 = g.add_edge(b, PLUS, c, MINUS)
    assert not is_valid_path(g, SignedPath((a, b, c), (e1, e2)))
    e3 = g.add_edge(b, MINUS, c, MINUS)
    assert is_valid_path(g, SignedPath((a, b, c), (e1, e3)))


def test_single_edge_always_valid():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    e = g.add_edge(a, PLUS, b, PLUS)
    assert is_valid_path(g, SignedPath((a, b), (e,)))


def test_malformed_sequences_return_false():
    g = BidirectedMultigraph()
    a, b, c = g.add_vertices(3)
    e = g.add_edge(a, MINUS, b, PLUS)
    assert not is_valid_path(g, SignedPath((a, c), (e,)))  # edge joins a,b not a,c
    assert not is_valid_path(g, SignedPath((a, 9), (e,)))
    assert not is_valid_path(g, SignedPath((a, b, a), (e, e)))
    # Negative and out-of-range ids do not wrap around the edge lists.
    assert not is_valid_path(g, SignedPath((-1, b), (e,)))
    assert not is_valid_path(g, SignedPath((a, b), (-1,)))
    assert not is_valid_path(g, SignedPath((a, b), (1,)))


def test_x_path_requires_nontrivial_and_interior_outside_x():
    g = BidirectedMultigraph()
    a, b, c = g.add_vertices(3)
    e1 = g.add_edge(a, MINUS, b, PLUS)
    e2 = g.add_edge(b, MINUS, c, MINUS)
    assert not is_x_path(g, {a}, SignedPath((a,), ()))
    assert is_x_path(g, {a, b}, SignedPath((a, b), (e1,)))
    assert is_x_path(g, {a, c}, SignedPath((a, b, c), (e1, e2)))
    assert not is_x_path(g, {a, b, c}, SignedPath((a, b, c), (e1, e2)))
    assert not is_x_path(g, {a}, SignedPath((a, b), (e1,)))


@given(graph_and_x())
def test_reversal_preserves_validity(gx):
    g, _ = gx
    # reversal of every single edge and of every valid 2-edge path
    rows = list(g.edge_ends())
    for eid, (eu, _, ev, _) in enumerate(rows):
        p = SignedPath((eu, ev), (eid,))
        assert is_valid_path(g, SignedPath(p.vertices[::-1], p.edges[::-1]))
        for fid, (fu, _, fv, _) in enumerate(rows):
            if fid == eid or ev not in (fu, fv):
                continue
            w = fv if fu == ev else fu
            if w == eu:
                continue
            q = SignedPath((eu, ev, w), (eid, fid))
            assert is_valid_path(g, q) == is_valid_path(g, SignedPath(q.vertices[::-1], q.edges[::-1]))


def _kept(sign_u, sign_v, s, t) -> bool:
    """Whether the restricted graph of the two-vertex graph 0 -- 1 keeps its
    one edge, with the given end-signs at 0 and 1."""
    g = BidirectedMultigraph()
    u, v = g.add_vertices(2)
    g.add_edge(u, sign_u, v, sign_v)
    comps = restricted_components(g, s, t)
    assert comps in ([[0, 1]], [[0], [1]])
    return comps == [[0, 1]]


def test_restrict_empty_sets_keep_all_edges():
    for sign_u in SIGNS:
        for sign_v in SIGNS:
            assert _kept(sign_u, sign_v, (), ())
    assert restricted_components(complete_all_minus(4), (), ()) == [[0, 1, 2, 3]]


def test_restrict_full_sets_drop_all_edges():
    for sign_u in SIGNS:
        for sign_v in SIGNS:
            assert not _kept(sign_u, sign_v, {0, 1}, {0, 1})
    g = complete_all_minus(4)
    assert restricted_components(g, range(4), range(4)) == [[0], [1], [2], [3]]


def test_restrict_keeps_edge_matching_sign_rule():
    assert _kept(MINUS, PLUS, {0}, {1})
    # flipping either sign kills it
    assert not _kept(PLUS, PLUS, {0}, {1})
    assert not _kept(MINUS, MINUS, {0}, {1})

    def passes(sign, in_s, in_t):
        if in_s and in_t:
            return False
        if in_s:
            return sign is MINUS
        if in_t:
            return sign is PLUS
        return True

    sides = [(False, False), (True, False), (False, True), (True, True)]
    for in_s_u, in_t_u in sides:
        for in_s_v, in_t_v in sides:
            s = {w for w, inside in ((0, in_s_u), (1, in_s_v)) if inside}
            t = {w for w, inside in ((0, in_t_u), (1, in_t_v)) if inside}
            for sign_u in SIGNS:
                for sign_v in SIGNS:
                    expected = passes(sign_u, in_s_u, in_t_u) and passes(sign_v, in_s_v, in_t_v)
                    assert _kept(sign_u, sign_v, s, t) == expected, (s, t, sign_u, sign_v)


@given(graph_and_x(), st.data())
def test_restrict_is_monotone_destructive(gx, data):
    g, x = gx
    n = g.vertex_count
    s = data.draw(st.frozensets(st.integers(0, n - 1)))
    t = data.draw(st.frozensets(st.integers(0, n - 1)))
    comps = restricted_components(g, s, t)
    assert sorted(v for comp in comps for v in comp) == list(range(n))
    # Dropping edges only splits components of the unrestricted graph.
    whole = {v: i for i, comp in enumerate(restricted_components(g, (), ())) for v in comp}
    for comp in comps:
        assert len({whole[v] for v in comp}) == 1


@given(graph_and_x(), st.data())
def test_restricted_roots_are_shared_exactly_within_a_component(gx, data):
    g, _ = gx
    n = g.vertex_count
    s = data.draw(st.frozensets(st.integers(0, n - 1)))
    t = data.draw(st.frozensets(st.integers(0, n - 1)))
    roots = restricted_roots(g, s, t, range(n))
    comps = restricted_components(g, s, t)
    assert all(len({roots[v] for v in comp}) == 1 for comp in comps)
    assert len(set(roots)) == len(comps)


def test_weak_components_edgeless():
    assert weak_components(3, ()) == [[0], [1], [2]]


def test_weak_components_path():
    assert weak_components(4, ((0, 1), (1, 2), (2, 3))) == [[0, 1, 2, 3]]


def test_weak_components_k5_minus_star():
    # K5 with every edge at vertex 0 removed: {1,2,3,4} stay complete
    ends = tuple(
        (u, v) for u in range(5) for v in range(u + 1, 5) if u != 0
    )
    assert weak_components(5, ends) == [[0], [1, 2, 3, 4]]


@given(multigraphs())
def test_weak_components_match_a_bfs_reference(h):
    assert weak_components(h.vertex_count, h.endpoints) == bfs_components(h)


def test_dual_value_trivial_zero():
    g = BidirectedMultigraph()
    g.add_vertices(3)
    assert dual_value(g, (), (), ()) == 0


def test_dual_value_k5_remark_instance():
    g = complete_all_minus(5)
    assert dual_value(g, range(5), (), ()) == 2
    assert dual_value(g, range(5), range(5), range(5)) == 5


def test_dual_value_side_condition():
    g = complete_all_minus(3)
    with pytest.raises(SideConditionViolated):
        dual_value(g, {0, 1}, {0}, {1})


@given(graph_and_x(), st.data())
def test_dual_value_at_least_intersection(gx, data):
    g, x = gx
    n = g.vertex_count
    non_x = sorted(set(range(n)) - set(x))
    both = data.draw(st.frozensets(st.integers(0, n - 1)))
    s_extra = data.draw(st.frozensets(st.sampled_from(non_x))) if non_x else frozenset()
    t_extra = data.draw(st.frozensets(st.sampled_from(non_x))) if non_x else frozenset()
    s = both | s_extra
    t = both | t_extra
    assert dual_value(g, x, s, t) >= len(s & t)


def test_from_digraph_single_arc():
    g = from_digraph(2, [(0, 1)])
    assert (g.sign(0, 0), g.sign(1, 0)) == (MINUS, PLUS)


def test_from_digraph_empty():
    g = from_digraph(0, [])
    assert g.vertex_count == 0 and g.edge_count == 0


def test_from_digraph_two_cycle():
    g = from_digraph(2, [(0, 1), (1, 0)])
    assert g.edge_count == 2
    assert g.sign(0, 0) is MINUS and g.sign(1, 0) is PLUS
    assert g.sign(1, 1) is MINUS and g.sign(0, 1) is PLUS


def test_from_digraph_rejects_loop():
    with pytest.raises(LoopRejected):
        from_digraph(1, [(0, 0)])


def test_from_undirected_doubles_edges():
    g = from_undirected(2, [(0, 1)])
    assert g.edge_count == 2
    assert {(g.sign(0, e), g.sign(1, e)) for e in (0, 1)} == {
        (MINUS, PLUS),
        (PLUS, MINUS),
    }


def test_from_undirected_path_alternates_through_middle():
    g = from_undirected(3, [(0, 1), (1, 2)])
    assert g.edge_count == 4
    valid = [
        SignedPath((0, 1, 2), (e1, e2))
        for e1 in (0, 1)
        for e2 in (2, 3)
        if is_valid_path(g, SignedPath((0, 1, 2), (e1, e2)))
    ]
    assert len(valid) == 2  # each entry sign at 1 pairs with exactly one exit


def test_from_undirected_empty():
    g = from_undirected(0, [])
    assert g.vertex_count == 0 and g.edge_count == 0


def test_from_undirected_gives_each_pair_both_sign_orders_in_pair_order():
    pairs = [(2, 0), (0, 1), (2, 0)]
    g = from_undirected(3, pairs)
    assert g.vertex_count == 3
    assert list(g.edge_ends()) == [
        (2, MINUS, 0, PLUS), (2, PLUS, 0, MINUS),
        (0, MINUS, 1, PLUS), (0, PLUS, 1, MINUS),
        (2, MINUS, 0, PLUS), (2, PLUS, 0, MINUS),
    ]
    assert list(from_undirected(3, tuple(pairs)).edge_ends()) == list(g.edge_ends())


def test_delete_vertices_relabels_survivors():
    g = complete_all_minus(4)
    sub, remap = delete_vertices(g, {1})
    assert sub.vertex_count == 3
    assert sorted(remap) == [0, 2, 3]
    assert sub.edge_count == 3  # the K3 on the survivors
