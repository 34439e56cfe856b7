"""The brute-force baselines themselves, including their guards."""

import pytest

from bidipath import (
    MINUS,
    PLUS,
    BidirectedMultigraph,
    SignedPath,
    dual_value,
    is_x_path,
)
from bidipath import cli, oracle
from bidipath.errors import LimitExceeded, SideConditionViolated
from bidipath.oracle import brute_dual_min, brute_max_disjoint, enumerate_x_paths
from helpers import (
    complete_all_minus,
    random_admissible_pair,
    random_instance,
)
import oracles
from oracles import brute_dual_value, brute_matching, has_x_path

import ast
import random
import sys
from pathlib import Path


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
            assert p.vertices[0] < p.vertices[-1]
            assert is_x_path(inst.graph, inst.x, SignedPath(p.vertices[::-1], p.edges[::-1]))


def test_enumerate_limit_reports_partial_count():
    g = complete_all_minus(5)
    with pytest.raises(LimitExceeded, match="^more than 4 X-paths exist$") as info:
        enumerate_x_paths(g, range(5), limit=4)
    assert not hasattr(info.value, "count")  # it could only ever be the limit


def test_enumerate_parallel_edges_counted_separately():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    g.add_edge(a, MINUS, b, MINUS)
    g.add_edge(a, MINUS, b, MINUS)
    assert len(enumerate_x_paths(g, {a, b})) == 2


def test_the_oracle_sees_a_graph_that_grew_after_it_was_asked():
    g = BidirectedMultigraph()
    a, b, c = g.add_vertices(3)
    e0 = g.add_edge(a, MINUS, b, PLUS)
    assert not has_x_path(g, {a, c})
    assert enumerate_x_paths(g, {a, c}) == []
    g.add_edge(b, PLUS, c, MINUS)  # repeats + at b: still no X-path
    assert not has_x_path(g, {a, c})
    assert enumerate_x_paths(g, {a, c}) == []
    d = g.add_vertices(1)[0]
    e2 = g.add_edge(b, MINUS, d, PLUS)
    e3 = g.add_edge(d, MINUS, c, PLUS)
    assert has_x_path(g, {a, c})
    assert enumerate_x_paths(g, {a, c}) == [SignedPath((a, b, d, c), (e0, e2, e3))]


def test_enumerate_lists_parallel_edges_with_different_signs_in_id_order():
    g = BidirectedMultigraph()
    a, b, c = g.add_vertices(3)
    e0 = g.add_edge(b, MINUS, c, PLUS)
    e1 = g.add_edge(a, PLUS, b, PLUS)
    e2 = g.add_edge(b, MINUS, c, MINUS)
    assert enumerate_x_paths(g, {a, c}) == [
        SignedPath((a, b, c), (e1, e0)),
        SignedPath((a, b, c), (e1, e2)),
    ]


def parse(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def imports(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The modules a source tree imports: relative ones, and the others
    that are not in the standard library."""
    relative, absolute = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            (relative if node.level else absolute).add(node.module)
        elif isinstance(node, ast.Import):
            absolute.update(alias.name for alias in node.names)
    return relative, {name for name in absolute if name.split(".")[0] not in sys.stdlib_module_names}


def reads(tree: ast.Module, name: str) -> set[str]:
    """The attributes that a source tree reads off the name `name`."""
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == name
    }


# The graph is read through its edge lists only, never a derived view.
EDGE_LIST_READS = {"check_vertex_set", "edge_ends", "vertex_count", "vertices"}


def test_the_oracle_depends_only_on_core_and_errors():
    tree = parse(oracle)
    assert imports(tree) == ({"core", "errors"}, set())
    assert reads(tree, "g") == EDGE_LIST_READS
    # The tests' own oracles keep that independence, reusing oracle's helpers.
    tree = parse(oracles)
    assert imports(tree) == (set(), {"bidipath.core", "bidipath.errors", "bidipath.oracle"})
    assert reads(tree, "g") <= EDGE_LIST_READS


def test_the_oracle_holds_only_what_verify_runs():
    own = set()
    for node in parse(oracle).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Assign):
            own.update(target.id for target in node.targets)
    assert {name for name in own if not name.startswith("_")} == {
        "MAX_PACKING_VERTICES", "MAX_DUAL_STATES",
        "enumerate_x_paths", "brute_max_disjoint", "brute_dual_min",
    }
    # verify calls the two searches; the rest is what those two run.
    assert reads(parse(cli), "oracle") == {"brute_max_disjoint", "brute_dual_min"}


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
    assert brute_dual_min(g, ()) == 0


def test_brute_dual_min_k5():
    assert brute_dual_min(complete_all_minus(5), range(5)) == 2


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


def test_brute_dual_value_refuses_a_pair_that_splits_x():
    g = complete_all_minus(3)
    with pytest.raises(SideConditionViolated, match="^X ∩ S must equal X ∩ T$"):
        brute_dual_value(g, {0, 1}, {0}, {1})


def test_brute_matching_examples():
    assert brute_matching(3, ((0, 1), (1, 2), (0, 2))) == 1
    assert brute_matching(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]) == 2
    assert brute_matching(4, ((0, 1), (1, 2), (2, 3))) == 2
    assert brute_matching(4, ((0, 1), (1, 0), (2, 3), (3, 2))) == 2  # parallel edges
    assert brute_matching(3, ()) == 0


def test_brute_matching_guard():
    with pytest.raises(LimitExceeded):
        brute_matching(30, [(i, i + 1) for i in range(25)])


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
