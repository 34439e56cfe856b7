"""Blossom matching, Gallai-Edmonds, witness duality."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bidipath.errors import InternalDualityMismatch
from bidipath.matching import _Matcher, grow_matching
from bidipath.oracle import brute_matching
from helpers import (
    Multigraph,
    auxiliary,
    auxiliary_multigraph,
    flat,
    gallai_edmonds,
    graph_and_x,
    grow,
    is_matching,
    maximum_matching,
    partition,
    random_multigraph,
    tutte_berge_value,
    weak_components,
)


def complete(n: int) -> Multigraph:
    return Multigraph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def path_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))


def test_triangle_has_matching_one():
    assert len(maximum_matching(complete(3))) == 1


def test_k5_has_matching_two():
    assert len(maximum_matching(complete(5))) == 2


def test_even_path_has_perfect_matching():
    m = maximum_matching(path_graph(4))
    assert len(m) == 2
    assert is_matching(path_graph(4), m)


def test_invalid_seed_rejected():
    h = path_graph(3)
    with pytest.raises(ValueError, match="seed is not a matching"):
        maximum_matching(h, seed=(0, 1))  # edges share vertex 1
    with pytest.raises(ValueError, match="seed is not a matching"):
        maximum_matching(h, seed=(5,))


def test_seed_is_respected_and_grown():
    h = path_graph(6)
    # a deliberately bad greedy choice: the middle edge alone
    seed = frozenset({2})
    m = maximum_matching(h, seed=seed)
    assert len(m) == 3
    assert is_matching(h, m)


def test_matching_is_deterministic():
    h = random_multigraph(42)
    assert maximum_matching(h) == maximum_matching(h)


@pytest.mark.parametrize("seed", range(120))
def test_matching_matches_brute_force(seed):
    h = random_multigraph(seed)
    assert len(maximum_matching(h)) == brute_matching(h.vertex_count, h.endpoints)


def test_parallel_edge_immunity():
    # ν of a multigraph equals ν of its simple support
    for seed in range(40):
        h = random_multigraph(seed, max_n=7, max_m=12)
        support_ends = tuple(sorted({(min(u, v), max(u, v)) for u, v in h.endpoints}))
        support = Multigraph(h.vertex_count, support_ends)
        assert len(maximum_matching(h)) == len(maximum_matching(support))


def test_a_matched_pair_reports_its_lowest_parallel_edge_id():
    # Both pairs are matched by the search, each through its first copy.
    h = Multigraph(4, ((1, 2), (0, 1), (2, 3), (1, 0), (3, 2), (2, 1)))
    assert maximum_matching(h) == {1, 2}
    # A seeded higher copy the search never flips survives; the flipped
    # pair 2-3 still reports its lowest id.
    h = Multigraph(4, ((0, 1), (0, 1), (2, 3), (2, 3)))
    assert maximum_matching(h, seed={1}) == {1, 2}
    assert maximum_matching(h, seed={1, 3}) == {1, 3}


def test_only_seed_edges_are_matched_through_a_higher_parallel_copy():
    for seed in range(200):
        h = random_multigraph(seed, max_n=10, max_m=30)
        lowest: dict[tuple[int, int], int] = {}
        for eid, (u, v) in enumerate(h.endpoints):
            lowest.setdefault((min(u, v), max(u, v)), eid)
        given = _greedy_matching(h, reversed(range(h.edge_count)))  # highest copies first
        for start in ((), given):
            for eid in maximum_matching(h, seed=start):
                u, v = h.endpoints[eid]
                assert eid == lowest[min(u, v), max(u, v)] or eid in start


# The Tutte-Berge witness is the A-set of the Gallai-Edmonds partition.
def test_witness_on_perfectly_matchable_graph():
    h = path_graph(4)
    u = gallai_edmonds(h).a
    assert u == frozenset()
    assert tutte_berge_value(h, u) == 2


def test_witness_on_k5():
    h = complete(5)
    u = gallai_edmonds(h).a
    assert u == frozenset()
    assert tutte_berge_value(h, u) == 2


def test_witness_on_star():
    star = Multigraph(4, ((0, 1), (0, 2), (0, 3)))
    u = gallai_edmonds(star).a
    assert u == frozenset({0})
    assert tutte_berge_value(star, u) == 1


@pytest.mark.parametrize("seed", range(80))
def test_witness_value_equals_matching_size(seed):
    h = random_multigraph(seed + 1000)
    assert tutte_berge_value(h, gallai_edmonds(h).a) == len(maximum_matching(h))


def _assert_gallai_edmonds_invariants(h: Multigraph) -> None:
    ge = gallai_edmonds(h)
    n = h.vertex_count
    assert ge.d | ge.a | ge.c == frozenset(range(n))
    assert not (ge.d & ge.a or ge.d & ge.c or ge.a & ge.c)
    nu = len(maximum_matching(h))
    # D = vertices missed by at least one maximum matching
    for v in range(n):
        alive = [u for u in range(n) if u != v]
        relabel = {u: i for i, u in enumerate(alive)}
        sub = Multigraph(
            n - 1,
            tuple(
                (relabel[a], relabel[b])
                for a, b in h.endpoints
                if a != v and b != v
            ),
        )
        assert (brute_matching(sub.vertex_count, sub.endpoints) == nu) == (v in ge.d)
    # components of the D-subgraph are factor-critical; ν identity
    d_sorted = sorted(ge.d)
    d_index = {v: i for i, v in enumerate(d_sorted)}
    d_sub = Multigraph(
        len(d_sorted),
        tuple(
            (d_index[a], d_index[b])
            for a, b in h.endpoints
            if a in ge.d and b in ge.d
        ),
    )
    comps = weak_components(d_sub.vertex_count, d_sub.endpoints)
    for comp in comps:
        assert len(comp) % 2 == 1
        for drop in comp:
            alive = [u for u in comp if u != drop]
            relabel = {u: i for i, u in enumerate(alive)}
            inner = Multigraph(
                len(alive),
                tuple(
                    (relabel[a], relabel[b])
                    for a, b in d_sub.endpoints
                    if a in relabel and b in relabel
                ),
            )
            assert len(maximum_matching(inner)) == (len(comp) - 1) // 2
    assert nu == (n - len(comps) + len(ge.a)) // 2


@pytest.mark.parametrize("seed", range(40))
def test_gallai_edmonds_invariants(seed):
    _assert_gallai_edmonds_invariants(random_multigraph(seed + 2000, max_n=8, max_m=12))


@given(graph_and_x(max_vertices=6, max_edges=12))
def test_gallai_edmonds_invariants_on_auxiliary_graphs(gx):
    # At most 6 split edges and 12 lifted ones: within brute_matching's reach.
    _assert_gallai_edmonds_invariants(auxiliary_multigraph(auxiliary(*gx)))


def _greedy_matching(h: Multigraph, order) -> frozenset[int]:
    used: set[int] = set()
    chosen = set()
    for eid in order:
        u, v = h.endpoints[eid]
        if u not in used and v not in used:
            used |= {u, v}
            chosen.add(eid)
    return frozenset(chosen)


@given(st.integers(0, 10000), st.randoms(use_true_random=False))
def test_gallai_edmonds_is_the_same_from_a_seeded_matching(seed, rng):
    # D is missed by some maximum matching, so it does not depend on which
    # maximum matching the failed searches start from.
    h = random_multigraph(seed, max_n=14, max_m=24)
    order = list(range(h.edge_count))
    rng.shuffle(order)
    seeded = grow(h, _greedy_matching(h, order[: rng.randint(0, len(order))]))
    assert partition(seeded) == gallai_edmonds(h)


@given(graph_and_x(max_vertices=7, max_edges=12))
def test_gallai_edmonds_of_auxiliary_graph_from_base_matching(gx):
    g, x = gx
    aux = auxiliary(g, x)
    seeded = grow_matching(aux.vertex_count, aux.us, aux.vs, range(aux.split_count))
    assert partition(seeded) == gallai_edmonds(auxiliary_multigraph(aux))


def test_probing_a_non_maximum_matching_names_the_stage():
    # The middle edge alone leaves 0-1=2-3 augmenting.
    matcher = _Matcher(*flat(path_graph(4)), seed={1})
    with pytest.raises(InternalDualityMismatch, match="gallai-edmonds"):
        matcher.gallai_edmonds()


STAR = Multigraph(4, ((0, 1), (0, 2), (0, 3)))  # D = {1, 2, 3}, A = {0}


@pytest.mark.parametrize(
    "h, labels, v, value, condition",
    [
        (STAR, "even", 3, False, "exposed vertex 3 is not in D"),
        (STAR, "parent", 0, -1, "vertex 0 of A has no odd label"),
        (complete(3), "base", 0, 0, "D-D edge 0-1 joins two blossoms"),
    ],
)
def test_a_corrupted_forest_names_the_broken_condition(h, labels, v, value, condition):
    matcher = grow_matching(*flat(h))
    matcher.gallai_edmonds()  # the forest as grown passes
    getattr(matcher, labels)[v] = value
    with pytest.raises(InternalDualityMismatch, match=f"^gallai-edmonds: {condition}$"):
        matcher.gallai_edmonds()


def cyclic_forest() -> _Matcher:
    """Vertices 0 and 1 matched, and each the parent of the other: every walk
    up the tree from either goes round the pair forever."""
    matcher = _Matcher(4, [0], [1], seed=[0])
    matcher.parent[0], matcher.parent[1] = 1, 0
    return matcher


@pytest.mark.parametrize(
    "walk, name",
    [
        pytest.param(lambda m: m._lca(0, 2), "lca walk from vertex 0", id="lca-from-a"),
        pytest.param(lambda m: m._lca(2, 1), "lca walk from vertex 1", id="lca-from-b"),
        pytest.param(
            lambda m: m._mark_path(0, 2, 3, set()), "mark-path walk from vertex 0", id="mark-path"
        ),
        pytest.param(lambda m: m._flip(1), "flip walk from vertex 1", id="flip"),
    ],
)
def test_a_walk_caught_in_a_cycle_names_itself(walk, name):
    with pytest.raises(
        InternalDualityMismatch, match=f"^{name} repeats a vertex within 4 steps$"
    ):
        walk(cyclic_forest())


def test_an_even_vertex_outside_every_tree_names_the_forest():
    # Vertex 1 is matched to 2 and labelled even by hand, so it roots no
    # tree: the augmentation from root 0 looks for a tree that is not there.
    matcher = _Matcher(4, [0, 1, 2], [1, 2, 3], seed=[1])
    matcher.even[1] = True
    with pytest.raises(
        InternalDualityMismatch, match="^forest: an even vertex names root -1, which holds no tree$"
    ):
        matcher.run()
