"""The brute-force baselines themselves, including their guards."""

import pytest

from bidipath import (
    MINUS,
    PLUS,
    BidirectedMultigraph,
    Multigraph,
    dual_value,
    is_x_path,
)
from bidipath.errors import LimitExceeded
from bidipath.oracle import (
    brute_dual_min,
    brute_dual_value,
    brute_matching,
    brute_max_disjoint,
    enumerate_x_paths,
    has_x_path,
)
from helpers import (
    complete_all_minus,
    random_admissible_pair,
    random_instance,
)

import random
import sys


def test_enumerate_edgeless():
    g = BidirectedMultigraph()
    g.add_vertices(3)
    assert enumerate_x_paths(g, {0, 1, 2}) == []


def test_enumerate_collapses_reversals():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    g.add_edge(a, MINUS, b, PLUS)
    paths = enumerate_x_paths(g, {a, b})
    assert len(paths) == 1
    assert paths[0].vertices == (a, b)


def test_enumerate_k5_all_minus():
    g = complete_all_minus(5)
    paths = enumerate_x_paths(g, range(5))
    assert len(paths) == 10  # every edge; interior vertices would be in X
    assert all(p.length == 1 for p in paths)


def test_enumerate_outputs_are_canonical_x_paths():
    for seed in range(60):
        inst = random_instance(seed)
        for p in enumerate_x_paths(inst.graph, inst.x, limit=500):
            assert is_x_path(inst.graph, inst.x, p)
            assert p.canonical() == p
            assert is_x_path(inst.graph, inst.x, p.reversed())


def test_enumerate_limit_reports_partial_count():
    g = complete_all_minus(5)
    with pytest.raises(LimitExceeded) as info:
        enumerate_x_paths(g, range(5), limit=4)
    assert info.value.count == 4


def test_enumerate_parallel_edges_counted_separately():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    g.add_edge(a, MINUS, b, MINUS)
    g.add_edge(a, MINUS, b, MINUS)
    assert len(enumerate_x_paths(g, {a, b})) == 2


def test_brute_max_disjoint_k5():
    assert brute_max_disjoint(complete_all_minus(5), range(5)) == 2


def test_brute_max_disjoint_disjoint_edges():
    g = BidirectedMultigraph()
    g.add_vertices(6)
    for i in range(3):
        g.add_edge(2 * i, MINUS, 2 * i + 1, PLUS)
    assert brute_max_disjoint(g, range(6)) == 3


def test_brute_max_disjoint_guard():
    g = BidirectedMultigraph()
    g.add_vertices(11)
    with pytest.raises(LimitExceeded):
        brute_max_disjoint(g, range(11))


def test_brute_dual_min_trivial():
    g = BidirectedMultigraph()
    g.add_vertices(2)
    value, s, t = brute_dual_min(g, ())
    assert (value, s, t) == (0, frozenset(), frozenset())


def test_brute_dual_min_k5():
    value, s, t = brute_dual_min(complete_all_minus(5), range(5))
    assert value == 2
    assert s == t == frozenset()  # lexicographically least minimizer


def test_brute_dual_min_guard():
    g = BidirectedMultigraph()
    g.add_vertices(12)
    with pytest.raises(LimitExceeded):
        brute_dual_min(g, ())


def test_brute_dual_value_agrees_with_reference_formula():
    # the bitmask evaluator and the set-based dual_value implement the same bound
    for seed in range(150):
        inst = random_instance(seed, max_n=6, max_m=10)
        rng = random.Random(seed * 13 + 1)
        s, t = random_admissible_pair(rng, inst.graph.vertex_count, inst.x)
        assert brute_dual_value(inst.graph, inst.x, s, t) == dual_value(
            inst.graph, inst.x, s, t
        )


def test_brute_matching_examples():
    k3 = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    assert brute_matching(k3) == 1
    k5 = Multigraph(5, tuple((u, v) for u in range(5) for v in range(u + 1, 5)))
    assert brute_matching(k5) == 2
    p4 = Multigraph(4, ((0, 1), (1, 2), (2, 3)))
    assert brute_matching(p4) == 2


def test_brute_matching_guard():
    h = Multigraph(30, tuple((i, i + 1) for i in range(25)))
    with pytest.raises(LimitExceeded):
        brute_matching(h)


def test_has_x_path_walks_chains_deeper_than_the_recursion_limit():
    n = 500
    g = BidirectedMultigraph()
    g.add_vertices(n)
    for i in range(n - 1):
        g.add_edge(i, MINUS, i + 1, PLUS)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(300)  # below the chain's length, above the test's depth
    try:
        assert has_x_path(g, {0, n - 1})
        assert not has_x_path(g, {0, n - 1}, avoid={n // 2})
    finally:
        sys.setrecursionlimit(limit)
