"""Packing, certificate, correspondence, hitting set, and the audit search."""

import hashlib
import random

import pytest

from bidipath import (
    MINUS,
    PLUS,
    BidirectedMultigraph,
    Certificate,
    PackingResult,
    SignedPath,
    certificate,
    dual_value,
    from_digraph,
    generate_instance,
    is_x_path,
    solve,
    verify_certificate,
)
from bidipath.auxiliary import build_auxiliary
from bidipath.core import delete_vertices
from bidipath.errors import (
    InternalDualityMismatch,
    InvalidK,
    SideConditionViolated,
    UnknownVertex,
)
from bidipath.matching import _Matcher, gallai_edmonds, maximum_matching
from bidipath.oracle import brute_dual_value, enumerate_x_paths, has_x_path
from bidipath.solver import _check_packing, _packing
from helpers import (
    complete_all_minus,
    copy_of,
    gamma_image,
    lifted_edge,
    random_admissible_pair,
    random_instance,
    random_multigraph,
    verify_component_correspondence,
)


def single_x_edge():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    g.add_edge(a, MINUS, b, PLUS)
    return g, {a, b}


def test_packing_empty_x():
    g = complete_all_minus(4)
    result = solve(g, ()).packing
    assert result.k == 0
    assert result.paths == ()


def test_packing_k5():
    g = complete_all_minus(5)
    result = solve(g, range(5)).packing
    assert result.k == 2
    assert len(result.paths) == 2
    used = set()
    for p in result.paths:
        assert is_x_path(g, range(5), p)
        assert not (set(p.vertices) & used)
        used |= set(p.vertices)


def test_packing_single_edge():
    g, x = single_x_edge()
    result = solve(g, x).packing
    assert result.k == 1
    assert result.paths[0].vertices == (0, 1)


def test_packing_unknown_vertex():
    g = complete_all_minus(3)
    with pytest.raises(UnknownVertex):
        solve(g, {5})


def test_packing_paths_are_valid_and_disjoint_on_random_instances():
    for seed in range(150):
        inst = random_instance(seed)
        result = solve(inst.graph, inst.x).packing
        used: set[int] = set()
        for p in result.paths:
            assert is_x_path(inst.graph, inst.x, p)
            assert not (set(p.vertices) & used)
            used |= set(p.vertices)
        assert len(result.paths) == result.k


def test_packing_check_names_the_failed_check():
    g = BidirectedMultigraph()
    a, v, b, c = g.add_vertices(4)
    e0 = g.add_edge(a, MINUS, v, PLUS)
    e1 = g.add_edge(v, PLUS, b, MINUS)
    e2 = g.add_edge(v, MINUS, c, PLUS)
    e3 = g.add_edge(c, MINUS, b, PLUS)
    xs = frozenset({a, b, c})
    a_v_c = SignedPath((a, v, c), (e0, e2))
    _check_packing(g, xs, (a_v_c,))
    cases = [
        ((a_v_c, SignedPath((c, b), (e3,))), "path 1 shares a vertex with an earlier path"),
        ((SignedPath((a, v, b), (e0, e1)),), "path 0 is not an X-path"),  # + twice at v
        ((SignedPath((a, v, c, b), (e0, e2, e3)),), "path 0 is not an X-path"),  # c is in X
    ]
    for paths, reason in cases:
        with pytest.raises(InternalDualityMismatch, match=f"packing check failed: {reason}"):
            _check_packing(g, xs, paths)


def _walk(g, x, seed):
    """The packing read off a matcher holding the given auxiliary edges."""
    aux = build_auxiliary(g, x)
    matcher = _Matcher(aux.graph)
    matcher.seed(seed(aux))
    return aux, matcher, _packing(aux, matcher)


def test_walk_takes_an_x_x_edge():
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    g.add_edge(b, PLUS, a, PLUS)  # parallel X-X edges: the walk takes the matched one
    g.add_edge(a, MINUS, b, MINUS)
    packing = solve(g, {a, b}).packing
    assert packing == PackingResult(1, (SignedPath((a, b), (0,)),))


def _path_through_two_split_vertices():
    # u, a, v, b: the only X-path is a -e2- u -e1- v -e0- b.
    g = BidirectedMultigraph()
    u, a, v, b = g.add_vertices(4)
    g.add_edge(b, MINUS, v, PLUS)
    g.add_edge(v, MINUS, u, PLUS)
    g.add_edge(u, MINUS, a, PLUS)
    return g, {a, b}


def test_walk_crosses_split_edges_from_the_lower_x_end():
    g, x = _path_through_two_split_vertices()
    assert solve(g, x).packing == PackingResult(1, (SignedPath((1, 0, 2, 3), (2, 1, 0)),))


def test_walk_passes_a_split_edge_both_matchings_hold():
    g, x = _path_through_two_split_vertices()
    w = g.add_vertices(1)[0]
    g.add_edge(w, PLUS, 0, PLUS)  # w hangs off u and lies on no X-path
    solution = solve(g, x)
    aux = build_auxiliary(g, x)
    assert aux.split_edges[w] in solution._matcher.matched_edges()
    assert solution.packing == PackingResult(1, (SignedPath((1, 0, 2, 3), (2, 1, 0)),))


def test_walk_that_dead_ends_at_an_exposed_copy_is_dropped():
    # a's matching edge leads into v, whose other copy the matching leaves
    # exposed: that walk has surplus 0. b-c is the one X-path.
    g = BidirectedMultigraph()
    a, v, b, c = g.add_vertices(4)
    g.add_edge(a, MINUS, v, MINUS)
    g.add_edge(b, MINUS, c, PLUS)
    aux, matcher, packing = _walk(
        g, {a, b, c}, lambda aux: {lifted_edge(aux, 0), lifted_edge(aux, 1)}
    )
    assert matcher.match[copy_of(aux, v, 2)] == -1
    assert packing == PackingResult(1, (SignedPath((b, c), (1,)),))


def test_walk_never_enters_an_alternating_cycle_without_x():
    # u1-v1 and u2-v2 replace both split edges: a cycle that alternates
    # against the base matching but holds no X-vertex.
    g = BidirectedMultigraph()
    a, u, v, b = g.add_vertices(4)
    g.add_edge(u, MINUS, v, MINUS)
    g.add_edge(u, PLUS, v, PLUS)
    g.add_edge(a, MINUS, b, MINUS)
    aux, matcher, packing = _walk(
        g, {a, b}, lambda aux: {lifted_edge(aux, e) for e in range(g.edge_count)}
    )
    assert matcher.match[copy_of(aux, u, 1)] == copy_of(aux, v, 1)
    assert matcher.match[copy_of(aux, u, 2)] == copy_of(aux, v, 2)
    assert packing == PackingResult(1, (SignedPath((a, b), (2,)),))


def test_certificate_empty_x():
    g = complete_all_minus(3)
    cert = certificate(g, ())
    assert cert.value == 0
    assert cert.s & frozenset() == cert.t & frozenset()


def test_certificate_k5():
    g = complete_all_minus(5)
    cert = certificate(g, range(5))
    assert cert.s == cert.t == frozenset()
    assert cert.value == 2


def test_verify_certificate_round_trip_and_perturbations():
    g = complete_all_minus(5)
    x = range(5)
    cert = certificate(g, x)
    assert verify_certificate(g, x, cert, 2)
    wrong_value = type(cert)(cert.s, cert.t, cert.value + 1)
    check = verify_certificate(g, x, wrong_value, 2)
    assert not check and check.reason == "value-mismatch"
    bad_sides = type(cert)(frozenset({0}), frozenset({1}), cert.value)
    check = verify_certificate(g, x, bad_sides, 2)
    assert not check and check.reason == "side-condition-violated"
    check = verify_certificate(g, x, cert, 3)
    assert not check and check.reason == "k-mismatch"


def test_verify_certificate_rejects_an_unknown_vertex():
    g = complete_all_minus(5)
    cert = certificate(g, range(5))
    foreign = Certificate(cert.s | {7}, cert.t, cert.value)
    check = verify_certificate(g, range(5), foreign, 2)
    assert not check and check.reason == "unknown-vertex"
    # An unknown vertex is reported before a side-condition break.
    both = Certificate(frozenset({0, 7}), frozenset(), 0)
    check = verify_certificate(g, range(5), both, 0)
    assert not check and check.reason == "unknown-vertex"


def test_gamma_image_five_cases():
    g = BidirectedMultigraph()
    g.add_vertices(5)
    x = {0, 3}
    s = {0, 1}
    t = {0, 2}
    assert gamma_image(g, x, s, t, 0) == frozenset()
    assert gamma_image(g, x, s, t, 1) == frozenset({(1, 1)})
    assert gamma_image(g, x, s, t, 2) == frozenset({(2, 2)})
    assert gamma_image(g, x, s, t, 3) == frozenset({(3, 0)})
    assert gamma_image(g, x, s, t, 4) == frozenset({(4, 1), (4, 2)})


def test_gamma_image_side_condition():
    g = BidirectedMultigraph()
    g.add_vertices(2)
    with pytest.raises(SideConditionViolated):
        gamma_image(g, {0, 1}, {0}, {1}, 0)


def test_correspondence_with_empty_sets():
    for seed in range(40):
        inst = random_instance(seed, max_n=6, max_m=10)
        assert verify_component_correspondence(inst.graph, inst.x, (), ())


def test_correspondence_on_random_admissible_pairs():
    for seed in range(200):
        inst = random_instance(seed, max_n=6, max_m=10)
        rng = random.Random(seed * 31)
        s, t = random_admissible_pair(rng, inst.graph.vertex_count, inst.x)
        assert verify_component_correspondence(inst.graph, inst.x, s, t)


def test_hitting_set_k5_remark_instance():
    g = complete_all_minus(5)
    result = solve(g, range(5), 3).hitting_set
    assert len(result.y) == 4
    assert not has_x_path(g, range(5), avoid=result.y)


def test_hitting_set_is_audited_before_it_is_returned(monkeypatch):
    # One marked vertex per component keeps only S∩T in Y, which leaves
    # X-paths open: the audit on g must refuse that Y.
    monkeypatch.setattr(
        "bidipath.solver.restricted_components", lambda g, s, t: [[v] for v in g.vertices()]
    )
    g = complete_all_minus(5)
    with pytest.raises(InternalDualityMismatch, match="hitting-set audit failed"):
        solve(g, range(5), 3).hitting_set


def test_hitting_set_returns_packing_when_enough_paths():
    g = complete_all_minus(5)
    solution = solve(g, range(5), 2)
    assert solution.hitting_set is None
    assert solution.packing.k == 2


def test_hitting_set_empty_when_no_paths_at_k1():
    g = BidirectedMultigraph()
    g.add_vertices(3)
    result = solve(g, {0, 1}, 1).hitting_set
    assert result.y == frozenset()


def test_hitting_set_rejects_k_zero():
    g = complete_all_minus(3)
    with pytest.raises(InvalidK):
        solve(g, range(3), 0)


def test_hitting_set_random_instances_audited_by_oracle():
    for seed in range(120):
        inst = random_instance(seed, max_n=8)
        g, x = inst.graph, inst.x
        k_opt = solve(g, x).packing.k
        for k in range(1, k_opt + 3):
            solution = solve(g, x, k)
            result = solution.hitting_set
            if result is None:
                assert solution.packing.k >= k
            else:
                assert len(result.y) <= 2 * k - 2
                sub, remap = delete_vertices(g, result.y)
                remaining_x = {remap[v] for v in x if v in remap}
                assert enumerate_x_paths(sub, remaining_x, limit=50) == []


def test_has_x_path_edgeless():
    g = BidirectedMultigraph()
    g.add_vertices(2)
    assert not has_x_path(g, {0, 1})


def test_has_x_path_single_edge():
    g, x = single_x_edge()
    assert has_x_path(g, x)


def test_has_x_path_blocked_by_equal_signs():
    # both edges arrive at v with sign +, so no alternation is possible
    g = BidirectedMultigraph()
    x1, x2, v = g.add_vertices(3)
    g.add_edge(x1, MINUS, v, PLUS)
    g.add_edge(x2, MINUS, v, PLUS)
    assert not has_x_path(g, {x1, x2})
    # flipping one sign opens the alternating route
    g2 = BidirectedMultigraph()
    y1, y2, w = g2.add_vertices(3)
    g2.add_edge(y1, MINUS, w, PLUS)
    g2.add_edge(y2, MINUS, w, MINUS)
    assert has_x_path(g2, {y1, y2})


def test_weak_duality_on_small_instances():
    # every admissible (S, T) bounds the packing size from above
    for seed in range(40):
        inst = random_instance(seed, max_n=5, max_m=8)
        g, x = inst.graph, inst.x
        k = solve(g, x).packing.k
        rng = random.Random(seed)
        for _ in range(20):
            s, t = random_admissible_pair(rng, g.vertex_count, x)
            assert dual_value(g, x, s, t) >= k


def test_adding_an_edge_never_decreases_k():
    for seed in range(60):
        inst = random_instance(seed, max_n=6, max_m=8)
        g, x = inst.graph, inst.x
        if g.vertex_count < 2:
            continue
        before = solve(g, x).packing.k
        grown = BidirectedMultigraph()
        grown.add_vertices(g.vertex_count)
        for u, sign_u, v, sign_v in g.edge_ends():
            grown.add_edge(u, sign_u, v, sign_v)
        rng = random.Random(seed + 99)
        u = rng.randrange(g.vertex_count)
        v = rng.randrange(g.vertex_count - 1)
        if v >= u:
            v += 1
        grown.add_edge(u, rng.choice((MINUS, PLUS)), v, rng.choice((MINUS, PLUS)))
        assert solve(grown, x).packing.k >= before


def test_enlarging_y_never_creates_an_x_path():
    for seed in range(50):
        inst = random_instance(seed, max_n=6, max_m=10)
        g, x = inst.graph, inst.x
        result = solve(g, x, 1).hitting_set
        if result is None:
            continue
        rng = random.Random(seed)
        y = set(result.y)
        assert not has_x_path(g, x, avoid=y)
        candidates = [v for v in g.vertices() if v not in y]
        rng.shuffle(candidates)
        for extra in candidates[:3]:
            y.add(extra)
            assert not has_x_path(g, x, avoid=y)


def test_certificate_matches_brute_dual_everywhere_it_applies():
    for seed in range(80):
        inst = random_instance(seed, max_n=6, max_m=10)
        g, x = inst.graph, inst.x
        cert = certificate(g, x)
        assert brute_dual_value(g, x, cert.s, cert.t) == cert.value


def _two_pass_certificate(g, x) -> Certificate:
    """The certificate from a second auxiliary graph and a fresh, unseeded
    matching, translated as Solution.certificate does."""
    aux = build_auxiliary(g, x)
    u = gallai_edmonds(aux.graph).a
    s = frozenset(v for v in g.vertices() if copy_of(aux, v, 2) in u)
    t = frozenset(v for v in g.vertices() if copy_of(aux, v, 1) in u)
    return Certificate(s, t, dual_value(g, x, s, t))


def test_solve_agrees_with_the_views_and_a_fresh_matching():
    for seed in range(150):
        inst = random_instance(seed, max_n=8)
        g, x = inst.graph, inst.x
        packing = solve(g, x).packing
        for k in range(1, packing.k + 3):
            solution = solve(g, x, k)
            assert solution.packing == packing
            assert solution.certificate == certificate(g, x) == _two_pass_certificate(g, x)
            found = solution.hitting_set
            if k <= packing.k:
                assert found is None
            else:
                assert solve(g, x, k).hitting_set == found
                assert found.k == k
                assert (found.s, found.t) == (solution.certificate.s, solution.certificate.t)


def test_solve_reads_no_dual_when_enough_paths_exist():
    g = complete_all_minus(5)
    solution = solve(g, range(5), 2)
    assert solution.hitting_set is None
    assert "certificate" not in vars(solution)  # the lazy dual was never read


def test_solve_rejects_k_zero_before_solving():
    with pytest.raises(InvalidK):
        solve(complete_all_minus(3), {9}, 0)


# sha256 of the matchings, packings and certificates below, as recorded with
# the one-forest matcher; a faster search that keeps its scan order must
# reproduce them. The invariant digest below pins what no search may move.
RECORDED_DIGEST = "dc96d16d107dfa95e1e36e568025eeb70246b2a31dbac758999e9274d1295650"


def test_outputs_match_the_recorded_digest():
    digest = hashlib.sha256()
    for seed in range(200):
        h = random_multigraph(seed, max_n=24, max_m=60)
        digest.update(repr(sorted(maximum_matching(h))).encode())
    for seed in range(40):
        inst = generate_instance(40, 100, 0.3, {"--": 3, "-+": 1, "+-": 1, "++": 1}, seed)
        packing = solve(inst.graph, inst.x).packing
        cert = certificate(inst.graph, inst.x)
        digest.update(repr((packing, sorted(cert.s), sorted(cert.t))).encode())
    assert digest.hexdigest() == RECORDED_DIGEST


# sha256 of what no choice among maximum matchings can change, for the same
# multigraphs and instances: the matching size and the Gallai-Edmonds
# partition (D, A, C), and k with the dual pair (S, T). Unlike the digest
# above, no new search may move it.
RECORDED_INVARIANT_DIGEST = "bae21648b1e38114300e2554809afa2b6442633721afaa68cebabcac4a389f52"


def test_invariants_match_the_recorded_digest():
    digest = hashlib.sha256()
    for seed in range(200):
        h = random_multigraph(seed, max_n=24, max_m=60)
        ge = gallai_edmonds(h)
        size = len(maximum_matching(h))
        digest.update(repr((size, sorted(ge.d), sorted(ge.a), sorted(ge.c))).encode())
    for seed in range(40):
        inst = generate_instance(40, 100, 0.3, {"--": 3, "-+": 1, "+-": 1, "++": 1}, seed)
        solution = solve(inst.graph, inst.x)
        cert = solution.certificate
        digest.update(repr((solution.packing.k, sorted(cert.s), sorted(cert.t))).encode())
    assert digest.hexdigest() == RECORDED_INVARIANT_DIGEST


# Beyond the oracles' reach: the self-checks carry the proof at 10^4 vertices.
def test_solve_self_checks_hold_on_a_10k_vertex_instance():
    inst = generate_instance(10_000, 30_000, 0.2, seed=5)
    g, x = inst.graph, inst.x
    solution = solve(g, x)
    used: set[int] = set()
    for p in solution.packing.paths:
        assert is_x_path(g, x, p)
        assert used.isdisjoint(p.vertices)
        used.update(p.vertices)
    assert verify_certificate(g, x, solution.certificate, solution.packing.k)


def test_a_10k_vertex_instance_with_no_x_path_is_certified():
    # Every arc at an X-vertex leaves it, so no X-path exists, and each of
    # the 1000 X-vertices roots a failed search: rescanning the earlier
    # failed trees in each search would make this quadratic.
    n = 10_000
    rng = random.Random(1)
    x = frozenset(rng.sample(range(n), n // 10))
    arcs = []
    while len(arcs) < 3 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and v not in x:
            arcs.append((u, v))
    g = from_digraph(n, arcs)
    solution = solve(g, x)
    assert solution.packing.k == 0
    assert verify_certificate(g, x, solution.certificate, 0)


def test_a_directed_grid_with_long_augmenting_paths_is_certified():
    # A w x w grid of arcs going right and down, and per row one X-vertex
    # with an arc into the row's first vertex and one with an arc out of its
    # last: k = w, and most augmenting paths are long, so a search that
    # relabels a whole tree per augmentation is superlinear here. w = 141
    # gives about 2 * 10^4 vertices.
    w = 141
    arcs = [(v, v + 1) for v in range(w * w) if (v + 1) % w]
    arcs += [(v, v + w) for v in range(w * (w - 1))]
    x = []
    for row in range(w):
        a, b = w * w + 2 * row, w * w + 2 * row + 1
        arcs += [(a, row * w), (row * w + w - 1, b)]
        x += [a, b]
    g = from_digraph(w * w + 2 * w, arcs)
    solution = solve(g, x)
    assert solution.packing.k == w
    assert verify_certificate(g, x, solution.certificate, w)


def test_a_10k_vertex_sign_consistent_chain_has_one_x_path():
    n = 10_000
    g = BidirectedMultigraph()
    g.add_vertices(n)
    for i in range(n - 1):
        g.add_edge(i, PLUS, i + 1, MINUS)
    solution = solve(g, {0, n - 1})
    assert solution.packing == PackingResult(
        1, (SignedPath(tuple(range(n)), tuple(range(n - 1))),)
    )
    assert solution.certificate.value == 1
