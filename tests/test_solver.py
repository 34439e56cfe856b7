"""Packing, certificate, correspondence, hitting set, and the audit search."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidipath
from bidipath import (
    MINUS,
    PLUS,
    BidirectedMultigraph,
    Certificate,
    PackingResult,
    SignedPath,
    dual_value,
    from_digraph,
    generate_instance,
    is_x_path,
    solve,
)
from bidipath.bgf import Instance, format_instance
from bidipath.cli import main
from bidipath.core import delete_vertices
from bidipath.errors import (
    InternalDualityMismatch,
    InvalidParameter,
    SideConditionViolated,
    UnknownVertex,
)
from bidipath.matching import _Matcher
from bidipath.oracle import enumerate_x_paths
from bidipath.solver import _check_packing, _copies, _packing, certificate, paths_or_hitting_set
from helpers import (
    SIGN_FAMILIES,
    auxiliary,
    auxiliary_multigraph,
    complete_all_minus,
    copy_of,
    edge_matcher,
    gallai_edmonds,
    gamma_image,
    grow_matching,
    lifted_edge,
    matched_edges,
    maximum_matching,
    random_admissible_pair,
    random_instance,
    random_multigraph,
    sign_broken_chain,
    split_edge,
    verify_component_correspondence,
)
from oracles import brute_dual_value, has_x_path


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
    aux = auxiliary(g, x)
    matcher = edge_matcher(aux.vertex_count, aux.us, aux.vs, seed(aux))
    xs = frozenset(x)
    return aux, matcher, _packing(g, xs, *_copies(g, xs), matcher.match)


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
    aux = auxiliary(g, x)
    matched = matched_edges(solution._matcher, aux.us, aux.vs, range(aux.split_count))
    assert split_edge(aux, w) in matched
    assert solution.packing == PackingResult(1, (SignedPath((1, 0, 2, 3), (2, 1, 0)),))


def test_walk_that_dead_ends_at_an_exposed_copy_is_dropped():
    # a's matching edge leads into v, whose other copy the matching leaves
    # exposed: that walk has surplus 0. b-c is the one X-path.
    g = BidirectedMultigraph()
    a, v, b, c = g.add_vertices(4)
    g.add_edge(a, MINUS, v, MINUS)
    g.add_edge(b, MINUS, c, PLUS)
    x = {a, b, c}
    aux, matcher, packing = _walk(g, x, lambda aux: {lifted_edge(aux, 0), lifted_edge(aux, 1)})
    assert matcher.match[copy_of(x, v, 2)] == -1
    assert packing == PackingResult(1, (SignedPath((b, c), (1,)),))


def test_walk_never_enters_an_alternating_cycle_without_x():
    # u1-v1 and u2-v2 replace both split edges: a cycle that alternates
    # against the base matching but holds no X-vertex.
    g = BidirectedMultigraph()
    a, u, v, b = g.add_vertices(4)
    g.add_edge(u, MINUS, v, MINUS)
    g.add_edge(u, PLUS, v, PLUS)
    g.add_edge(a, MINUS, b, MINUS)
    x = {a, b}
    aux, matcher, packing = _walk(
        g, x, lambda aux: {lifted_edge(aux, e) for e in range(g.edge_count)}
    )
    assert matcher.match[copy_of(x, u, 1)] == copy_of(x, v, 1)
    assert matcher.match[copy_of(x, u, 2)] == copy_of(x, v, 2)
    assert packing == PackingResult(1, (SignedPath((a, b), (2,)),))


def test_certificate_empty_x():
    g = complete_all_minus(3)
    cert = certificate(g, ())
    assert dual_value(g, (), cert.s, cert.t) == 0
    assert cert.s & frozenset() == cert.t & frozenset()


def test_certificate_k5():
    g = complete_all_minus(5)
    cert = certificate(g, range(5))
    assert cert.s == cert.t == frozenset()
    assert dual_value(g, range(5), cert.s, cert.t) == 2


def test_verify_certificate_round_trip_and_perturbations():
    # The certificate check is one dual_value call: a perturbed pair reads
    # a different value, and an inadmissible one is refused in dual_value's
    # own words.
    g = complete_all_minus(5)
    solution = solve(g, range(5))
    cert = solution.certificate
    assert dual_value(g, range(5), cert.s, cert.t) == solution.packing.k == 2
    solution._check_dual("certificate check", cert.s, cert.t, "k", 2)
    cases = [
        ((cert.s | {0}, cert.t | {0}), "dual value 3 differs from k = 2"),
        ((frozenset({0}), frozenset({1})), "X ∩ S must equal X ∩ T"),
    ]
    for (s, t), reason in cases:
        with pytest.raises(InternalDualityMismatch, match=f"^certificate check failed: {reason}$"):
            solution._check_dual("certificate check", s, t, "k", 2)


def test_verify_certificate_rejects_an_unknown_vertex():
    g = complete_all_minus(5)
    solution = solve(g, range(5))
    cert = solution.certificate
    failed = "^certificate check failed: vertex 7 does not exist$"
    with pytest.raises(InternalDualityMismatch, match=failed):
        solution._check_dual("certificate check", cert.s | {7}, cert.t, "k", 2)
    # An unknown vertex is reported before a side-condition break.
    with pytest.raises(InternalDualityMismatch, match=failed):
        solution._check_dual("certificate check", frozenset({0, 7}), frozenset(), "k", 0)


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


BAD_K = "bidipath: the hitting-set bound 2k-2 requires k >= 1\n"


def instance_file(tmp_path, g, x) -> str:
    path = tmp_path / "instance.bgf"
    path.write_text(format_instance(Instance.from_graph(g, x)))
    return str(path)


def no_dual(self):
    raise AssertionError("the Gallai-Edmonds partition was read")


def no_auxiliary(g, xs):
    raise AssertionError("the auxiliary graph was built")


def test_hitting_set_k5_remark_instance():
    g = complete_all_minus(5)
    result = solve(g, range(5)).hitting_set
    assert len(result.y) == 4 == 2 * 3 - 2  # k = 2 paths, so the bound 2k-2 at k = 3
    assert not has_x_path(g, range(5), avoid=result.y)


def test_hitting_set_is_audited_before_it_is_returned(monkeypatch):
    # One marked vertex per component keeps only S∩T in Y, which leaves
    # X-paths open: the audit on g must refuse that Y.
    monkeypatch.setattr("bidipath.solver._leave_one_out", lambda marked, roots: [])
    g = complete_all_minus(5)
    with pytest.raises(InternalDualityMismatch, match="hitting-set audit failed"):
        solve(g, range(5)).hitting_set


def test_hitting_set_returns_packing_when_enough_paths(tmp_path, capsys, monkeypatch):
    # K5 has two disjoint X-paths, so `hitting-set -k 2` prints them and
    # never builds the dual, which is read off the Gallai-Edmonds partition.
    monkeypatch.setattr(_Matcher, "gallai_edmonds", no_dual)
    path = instance_file(tmp_path, complete_all_minus(5), range(5))
    assert main(["hitting-set", path, "-k", "2", "--format", "machine"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["outcome: packing", "k: 2"]
    assert len(out) == 4 and all(line.startswith("path: ") for line in out[2:])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(SIGN_FAMILIES),
    st.integers(5, 150),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
def test_hitting_set_meets_the_sharp_bound_on_the_generate_families(family, n, ratio, seed):
    sign_dist, x_frac = family
    inst = generate_instance(n, ratio * n, x_frac, sign_dist, seed)
    solution = solve(inst.graph, inst.x)
    result = solution.hitting_set
    assert (result.s, result.t) == (solution.certificate.s, solution.certificate.t)
    assert len(result.y) <= 2 * solution.packing.k - len(result.s & result.t)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SIGN_FAMILIES),
    st.integers(5, 80),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
    st.randoms(use_true_random=False),
)
def test_switching_the_signs_at_f_moves_f_between_s_and_t(family, n, ratio, seed, rng):
    # Negating every end-sign at the vertices of F keeps which paths are
    # valid, and B_{S,T} keeps an edge at v in S∖T by its sign - and at v in
    # T∖S by its sign +. So k and Y stay, and each v in F that lies in
    # exactly one of S and T moves to the other.
    sign_dist, x_frac = family
    inst = generate_instance(n, ratio * n, x_frac, sign_dist, seed)
    g, x = inst.graph, inst.x
    f = frozenset(v for v in g.vertices() if rng.random() < 0.5)

    def switched(v, sign):
        return sign.opposite() if v in f else sign

    h = BidirectedMultigraph()
    h.add_vertices(g.vertex_count)
    ends = [(u, switched(u, su), v, switched(v, sv)) for u, su, v, sv in g.edge_ends()]
    h.add_edges(*map(list, zip(*ends)))
    before, after = solve(g, x), solve(h.freeze(), x)
    assert after.packing.k == before.packing.k
    s, t = before.certificate.s, before.certificate.t
    moved = f & (s ^ t)
    assert after.certificate == Certificate((s - moved) | (t & moved), (t - moved) | (s & moved))
    assert after.hitting_set.y == before.hitting_set.y


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SIGN_FAMILIES),
    st.integers(5, 60),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_padding_leaves_k_the_certificate_and_y_unchanged(family, n, ratio, seed, x_pad, rng):
    # An isolated X-vertex lies on no X-path, and a new component with no
    # X-vertex holds none; the vertices before the padding keep their ids.
    sign_dist, x_frac = family
    inst = generate_instance(n, ratio * n, x_frac, sign_dist, seed)
    g, x = inst.graph, inst.x
    h = BidirectedMultigraph()
    h.add_vertices(g.vertex_count)
    h.add_edges(*map(list, zip(*g.edge_ends())))
    if x_pad:
        x = x | frozenset(h.add_vertices(rng.randint(1, 3)))
    else:
        component = h.add_vertices(rng.randint(1, 8))
        for _ in range(rng.randint(0, 12) if len(component) > 1 else 0):
            u, v = rng.sample(component, 2)
            h.add_edge(u, rng.choice((MINUS, PLUS)), v, rng.choice((MINUS, PLUS)))
    before, after = solve(g, inst.x), solve(h.freeze(), x)
    assert after.packing.k == before.packing.k
    assert after.certificate == before.certificate
    assert after.hitting_set.y == before.hitting_set.y


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([sign_dist for sign_dist, _ in SIGN_FAMILIES]),
    st.integers(2, 60),
    st.sampled_from([0.1, 0.2, 0.5, 1.0]),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
def test_relabelling_maps_the_certificate_and_keeps_k(sign_dist, n, x_frac, ratio, seed):
    # Renaming the vertices by pi, renumbering the edges and writing an edge
    # from its other end change no X-path, and the Gallai-Edmonds A-set of
    # the auxiliary graph does not depend on ids: (S, T) maps to pi(S, T).
    # Y is picked by id order, so only its bound carries over.
    inst = generate_instance(n, ratio * n, x_frac, sign_dist, seed)
    g, x = inst.graph, inst.x
    rng = random.Random(seed)  # st.randoms made this test seven times slower
    pi = list(g.vertices())
    rng.shuffle(pi)
    ends = [
        (pi[u], su, pi[v], sv) if rng.random() < 0.5 else (pi[v], sv, pi[u], su)
        for u, su, v, sv in g.edge_ends()
    ]
    rng.shuffle(ends)
    h = BidirectedMultigraph()
    h.add_vertices(g.vertex_count)
    h.add_edges(*map(list, zip(*ends)))
    before, after = solve(g, x), solve(h.freeze(), {pi[v] for v in x})
    k = before.packing.k
    assert after.packing.k == k
    s, t = before.certificate.s, before.certificate.t
    assert after.certificate == Certificate(
        frozenset(pi[v] for v in s), frozenset(pi[v] for v in t)
    )
    assert len(after.hitting_set.y) <= 2 * k - len(after.certificate.s & after.certificate.t)


def test_hitting_set_empty_when_no_paths_at_k1():
    g = BidirectedMultigraph()
    g.add_vertices(3)
    result = solve(g, {0, 1}).hitting_set
    assert result.y == frozenset()


def test_hitting_set_rejects_k_zero(tmp_path, capsys):
    path = instance_file(tmp_path, complete_all_minus(3), range(3))
    assert main(["hitting-set", path, "-k", "0"]) == 1
    assert capsys.readouterr() == ("", BAD_K)


def threshold_instances():
    """Random instances of the four benchmark families up to n = 300, and
    sign-broken chains (ν = 0)."""
    for i, (sign_dist, x_frac) in enumerate(SIGN_FAMILIES):
        for n in (12, 60, 300):
            instance = generate_instance(n, 3 * n, x_frac, sign_dist, 1000 * i + n)
            yield pytest.param(instance, id=f"family{i}-n{n}")
    for length in (5, 40):
        yield pytest.param(sign_broken_chain(random.Random(length), length), id=f"chain-{length}")


@pytest.mark.parametrize("instance", list(threshold_instances()))
def test_a_threshold_query_returns_k_paths_exactly_when_nu_is_at_least_k(instance):
    g, x = instance.graph, instance.x
    solution = solve(g, x)
    nu = solution.packing.k
    for k in sorted({1, 2, nu, nu + 1} - {0}):
        answer = paths_or_hitting_set(g, x, k)
        if k > nu:
            assert answer == solution.hitting_set
            continue
        assert isinstance(answer, tuple) and len(answer) == k
        _check_packing(g, x, answer)
        if k == nu:
            assert answer == solution.packing.paths


@pytest.mark.parametrize("instance", list(threshold_instances()))
def test_a_limited_matching_carries_the_limit_when_nu_reaches_it(instance):
    g, x = instance.graph, instance.x
    nu = solve(g, x).packing.k
    aux = auxiliary(g, x)
    for limit in range(1, nu + 2):
        match = grow_matching(aux.vertex_count, aux.us, aux.vs, range(aux.split_count), limit).match
        surplus = (len(match) - match.count(-1)) // 2 - aux.split_count
        assert surplus == min(limit, nu)


def kept_x_edges(g, x):
    """Every edge, in id order, joining two X-vertices that no earlier kept
    edge has used, as (lower end, higher end, id)."""
    used, kept = set(), []
    for e, (u, _, v, _) in enumerate(g.edge_ends()):
        if {u, v} <= set(x) and not {u, v} & used:
            used |= {u, v}
            kept.append((min(u, v), max(u, v), e))
    return kept


def stopped_matching_paths(g, x, k):
    """The paths of the matching grown for k augmentations."""
    xs = frozenset(x)
    aux = auxiliary(g, xs)
    match = grow_matching(aux.vertex_count, aux.us, aux.vs, range(aux.split_count), k).match
    return _packing(g, xs, *_copies(g, xs), match).paths


@pytest.mark.parametrize("instance", list(threshold_instances()))
def test_a_threshold_query_answers_from_the_first_k_disjoint_x_edges(instance):
    g, x = instance.graph, instance.x
    solution = solve(g, x)
    nu, kept = solution.packing.k, kept_x_edges(g, x)
    assert len(kept) <= nu
    for k in sorted({1, 2, len(kept), len(kept) + 1, nu, nu + 1} - {0}):
        answer = paths_or_hitting_set(g, x, k)
        if k <= len(kept):
            first = sorted(kept[:k])
            assert answer == tuple(SignedPath((u, v), (e,)) for u, v, e in first)
        elif k <= nu:
            assert answer == stopped_matching_paths(g, x, k)
        else:
            assert answer == solution.hitting_set


def test_parallel_x_edges_are_named_by_the_lower_id(monkeypatch):
    monkeypatch.setattr("bidipath.solver._copies", no_auxiliary)
    g = BidirectedMultigraph()
    a, b = g.add_vertices(2)
    g.add_edge(b, PLUS, a, PLUS)
    g.add_edge(a, MINUS, b, MINUS)
    assert paths_or_hitting_set(g, {a, b}, 1) == (SignedPath((a, b), (0,)),)


def test_an_x_edge_meeting_a_kept_one_is_skipped(monkeypatch):
    monkeypatch.setattr("bidipath.solver._copies", no_auxiliary)
    g = BidirectedMultigraph()
    a, b, c, d = g.add_vertices(4)
    g.add_edge(c, MINUS, d, PLUS)
    g.add_edge(b, MINUS, c, PLUS)  # meets c, used by edge 0
    g.add_edge(b, PLUS, a, MINUS)
    assert paths_or_hitting_set(g, range(4), 2) == (
        SignedPath((a, b), (2,)),
        SignedPath((c, d), (0,)),
    )


def test_an_x_edge_is_an_x_path_whatever_its_signs(monkeypatch):
    monkeypatch.setattr("bidipath.solver._copies", no_auxiliary)
    g = BidirectedMultigraph()
    g.add_vertices(8)
    for i, (sign_u, sign_v) in enumerate([(MINUS, MINUS), (MINUS, PLUS), (PLUS, MINUS), (PLUS, PLUS)]):
        g.add_edge(2 * i, sign_u, 2 * i + 1, sign_v)
    answer = paths_or_hitting_set(g, range(8), 4)
    assert answer == tuple(SignedPath((2 * i, 2 * i + 1), (i,)) for i in range(4))


def test_too_few_disjoint_x_edges_leave_the_answer_to_the_matching():
    # a - b - c - d, all in X: the scan keeps b-c (edge 0) and then neither
    # of the others, but a-b and c-d are two disjoint X-paths.
    g = BidirectedMultigraph()
    a, b, c, d = g.add_vertices(4)
    g.add_edge(b, MINUS, c, MINUS)
    g.add_edge(a, PLUS, b, PLUS)
    g.add_edge(c, PLUS, d, MINUS)
    assert paths_or_hitting_set(g, range(4), 1) == (SignedPath((b, c), (0,)),)
    assert paths_or_hitting_set(g, range(4), 2) == (
        SignedPath((a, b), (1,)),
        SignedPath((c, d), (2,)),
    )
    assert paths_or_hitting_set(g, range(4), 3) == solve(g, range(4)).hitting_set


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_the_x_edge_scan_runs_only_while_k_fits_in_half_of_x(size, monkeypatch):
    # Each X-path takes two X-vertices: past k = ⌊|X|/2⌋ the scan cannot
    # reach k and is not run, and the answer is the matching's.
    scan = bidipath.solver._x_edge_paths
    calls = []

    def spy(g, xs, k):
        calls.append(k)
        return scan(g, xs, k)

    monkeypatch.setattr("bidipath.solver._x_edge_paths", spy)
    g = complete_all_minus(size)
    half = size // 2
    assert len(paths_or_hitting_set(g, range(size), half)) == half
    assert calls == [half]
    assert paths_or_hitting_set(g, range(size), half + 1) == solve(g, range(size)).hitting_set
    assert calls == [half]


def test_a_threshold_query_needs_k_at_least_1():
    with pytest.raises(InvalidParameter, match="requires k >= 1"):
        paths_or_hitting_set(complete_all_minus(3), range(3), 0)


def test_hitting_set_random_instances_audited_by_oracle():
    for seed in range(120):
        inst = random_instance(seed, max_n=8)
        g, x = inst.graph, inst.x
        solution = solve(g, x)
        k_opt, result = solution.packing.k, solution.hitting_set
        assert len(result.y) <= 2 * k_opt - len(result.s & result.t)
        assert len(result.y) <= 2 * (k_opt + 1) - 2  # hence 2k-2 for every k > k_opt
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
        result = solve(g, x).hitting_set
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
        assert brute_dual_value(g, x, cert.s, cert.t) == solve(g, x).packing.k


def _two_pass_certificate(g, x) -> Certificate:
    """The certificate from a second auxiliary graph and a fresh, unseeded
    matching, translated as Solution.certificate does."""
    u = gallai_edmonds(auxiliary_multigraph(auxiliary(g, x))).a
    s = frozenset(v for v in g.vertices() if copy_of(x, v, 2) in u)
    t = frozenset(v for v in g.vertices() if copy_of(x, v, 1) in u)
    return Certificate(s, t)


def test_solve_agrees_with_the_views_and_a_fresh_matching():
    for seed in range(150):
        inst = random_instance(seed, max_n=8)
        g, x = inst.graph, inst.x
        solution = solve(g, x)
        assert solution.packing == solve(g, x).packing
        assert solution.certificate == certificate(g, x) == _two_pass_certificate(g, x)
        found = solution.hitting_set
        assert solve(g, x).hitting_set == found
        assert (found.s, found.t) == (solution.certificate.s, solution.certificate.t)


def test_solve_reads_no_dual_when_enough_paths_exist(tmp_path, capsys, monkeypatch):
    g = complete_all_minus(5)
    solution = solve(g, range(5))
    assert solution.packing.k == 2
    assert "certificate" not in vars(solution)  # the lazy dual was never read
    # Nor does the paths overlay: it draws the two paths.
    monkeypatch.setattr(_Matcher, "gallai_edmonds", no_dual)
    path = instance_file(tmp_path, g, range(5))
    assert main(["export-dot", path, "--overlay", "paths"]) == 0
    out = capsys.readouterr().out
    assert 'color="red"' in out and 'color="blue"' in out


def test_solve_rejects_k_zero_before_solving(tmp_path, capsys):
    # X names a vertex the file never declares: read, it is a parse error.
    path = tmp_path / "bad.bgf"
    path.write_text("v a\nv b\ne a - b -\nx a z\n")
    assert main(["hitting-set", str(path), "-k", "0"]) == 1
    assert capsys.readouterr() == ("", BAD_K)


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
    cert = solution.certificate
    assert dual_value(g, x, cert.s, cert.t) == solution.packing.k


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
    cert = solution.certificate
    assert dual_value(g, x, cert.s, cert.t) == 0


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
    cert = solution.certificate
    assert dual_value(g, x, cert.s, cert.t) == w


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
    cert = solution.certificate
    assert dual_value(g, {0, n - 1}, cert.s, cert.t) == 1
