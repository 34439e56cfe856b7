"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager

import pytest

from bidipath import (
    SignedPath,
    dual_value,
    from_digraph,
    from_undirected,
    is_x_path,
    solve,
)
from bidipath.core import delete_vertices
from bidipath.errors import InternalDualityMismatch
from bidipath.oracle import brute_dual_min, brute_max_disjoint, enumerate_x_paths
from bidipath.solver import certificate
from helpers import (
    auxiliary,
    brute_directed_packing,
    complete_all_minus,
    directed_dual_min,
    gallai_edmonds,
    gallai_min_bound,
    lift_path,
    maximum_matching,
    project_path,
    random_admissible_pair,
    random_instance,
    random_multigraph,
    tutte_berge_value,
    verify_component_correspondence,
)
from oracles import brute_matching, has_x_path

INSTANCE_COUNT = 500


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


@pytest.fixture(scope="module")
def corpus():
    return [random_instance(seed) for seed in range(INSTANCE_COUNT)]


@pytest.fixture(scope="module")
def solved(corpus):
    return [solve(inst.graph, inst.x).packing.k for inst in corpus]


def test_criterion_1_min_max_equality(corpus, solved):
    started = time.monotonic()
    with criterion("C1 (min-max equality on 500 instances)"):
        for inst, k in zip(corpus, solved):
            assert brute_max_disjoint(inst.graph, inst.x) == k
            value = brute_dual_min(inst.graph, inst.x)
            assert value == k
        assert time.monotonic() - started < 120


def test_criterion_2_certificate_soundness(corpus, solved):
    with criterion("C2 (certificate soundness)"):
        mismatches = 0
        for inst, k in zip(corpus, solved):
            try:
                cert = certificate(inst.graph, inst.x)
            except InternalDualityMismatch:
                mismatches += 1
                continue
            assert dual_value(inst.graph, inst.x, cert.s, cert.t) == k
        assert mismatches == 0


def test_criterion_3_erdos_posa_bound(corpus, solved):
    with criterion("C3 (hitting set or packing for every k)"):
        for inst, k_opt in zip(corpus, solved):
            g, x = inst.graph, inst.x
            solution = solve(g, x)
            assert solution.packing.k == k_opt
            used: set[int] = set()
            for path in solution.packing.paths:
                assert is_x_path(g, x, path)
                assert not (set(path.vertices) & used)
                used |= set(path.vertices)
            # One Y answers every k > k_opt.
            result = solution.hitting_set
            for k in range(k_opt + 1, k_opt + 3):
                assert len(result.y) <= 2 * k - 2
            sub, remap = delete_vertices(g, result.y)
            surviving_x = {remap[v] for v in x if v in remap}
            assert not has_x_path(sub, surviving_x)


def test_criterion_4_tightness_family():
    with criterion("C4 (the 2k-2 bound is tight on complete all-minus graphs)"):
        for k in (1, 2, 3, 4):
            n = 2 * k - 1
            g = complete_all_minus(n)
            x = frozenset(range(n))
            assert solve(g, x).packing.k == k - 1
            # every Y with |Y| < 2k-2 leaves an X-path (vacuous for k = 1)
            for size in range(0, 2 * k - 2):
                for y in itertools.combinations(range(n), size):
                    sub, remap = delete_vertices(g, y)
                    surviving_x = {remap[v] for v in x if v in remap}
                    assert has_x_path(sub, surviving_x), (k, y)


def test_criterion_5_matching_engine():
    with criterion("C5 (matching engine vs brute force on 500 multigraphs)"):
        for seed in range(500):
            h = random_multigraph(seed, max_n=10, max_m=14)
            matching = maximum_matching(h)
            assert len(matching) == brute_matching(h.vertex_count, h.endpoints)
            assert tutte_berge_value(h, gallai_edmonds(h).a) == len(matching)


def test_criterion_6_component_correspondence():
    with criterion("C6 (component correspondence on 200 tuples)"):
        for seed in range(200):
            inst = random_instance(seed, max_n=6, max_m=10)
            rng = random.Random(seed * 7919)
            s, t = random_admissible_pair(rng, inst.graph.vertex_count, inst.x)
            assert verify_component_correspondence(inst.graph, inst.x, s, t)


def _alternating_x_paths(aux, x, cap: int = 400) -> list[SignedPath]:
    """Independent enumeration of base-alternating X-paths in the auxiliary graph."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(aux.vertex_count)]
    for eid, (u, v) in enumerate(zip(aux.us, aux.vs)):
        adjacency[u].append((eid, v))
        adjacency[v].append((eid, u))
    out: list[SignedPath] = []

    def extend(verts: list[int], edges: list[int], need_base: bool) -> None:
        if len(out) >= cap:
            return
        v = verts[-1]
        for eid, w in adjacency[v]:
            if (eid < aux.split_count) != need_base or w in verts:
                continue
            if w >> 1 in x:
                if not need_base and w > verts[0]:
                    out.append(
                        SignedPath(tuple(verts + [w]), tuple(edges + [eid]))
                    )
                continue
            extend(verts + [w], edges + [eid], not need_base)

    for start in sorted(x):
        extend([2 * start], [], False)
    return out


def test_criterion_7_theta_bijection():
    with criterion("C7 (theta bijection and disjointness transfer)"):
        checked_paths = 0
        for seed in range(120):
            inst = random_instance(seed, max_n=6, max_m=10)
            g, x = inst.graph, inst.x
            aux = auxiliary(g, x)
            paths = enumerate_x_paths(g, x, limit=400)
            lifted = [lift_path(g, x, aux, p) for p in paths]
            for p, q in zip(paths, lifted):
                assert project_path(aux, q) == p
            checked_paths += len(paths)
            alternating = _alternating_x_paths(aux, x)
            for q in alternating:
                assert lift_path(g, x, aux, project_path(aux, q)) == q
            # the bijection is onto: lifts and alternating paths coincide
            assert {(q.vertices, q.edges) for q in lifted} == {
                (q.vertices, q.edges) for q in alternating
            }
            for i in range(len(paths)):
                for j in range(i + 1, len(paths)):
                    host_disjoint = not (
                        set(paths[i].vertices) & set(paths[j].vertices)
                    )
                    aux_disjoint = not (
                        set(lifted[i].vertices) & set(lifted[j].vertices)
                    )
                    assert host_disjoint == aux_disjoint
        assert checked_paths >= 100


def test_criterion_8_reductions():
    with criterion("C8 (directed and undirected reductions)"):
        for seed in range(200):
            rng = random.Random(seed * 31 + 7)
            n = rng.randint(1, 6)
            arcs = []
            if n > 1:
                for _ in range(rng.randint(0, 10)):
                    u = rng.randrange(n)
                    v = rng.randrange(n - 1)
                    if v >= u:
                        v += 1
                    arcs.append((u, v))
            xs = frozenset(rng.sample(range(n), rng.randint(0, n)))
            g = from_digraph(n, arcs)
            k = solve(g, xs).packing.k
            assert k == brute_directed_packing(n, arcs, xs)
            if n <= 5 and seed % 3 == 0:
                # the certificate value matches the arc-filtered dual bound
                cert = certificate(g, xs)
                assert dual_value(g, xs, cert.s, cert.t) == directed_dual_min(n, arcs, xs)
        for seed in range(200):
            rng = random.Random(seed * 77 + 3)
            n = rng.randint(1, 6)
            edges = []
            if n > 1:
                for _ in range(rng.randint(0, 9)):
                    u = rng.randrange(n)
                    v = rng.randrange(n - 1)
                    if v >= u:
                        v += 1
                    edges.append((u, v))
            xs = frozenset(rng.sample(range(n), rng.randint(0, n)))
            g = from_undirected(n, edges)
            assert solve(g, xs).packing.k == gallai_min_bound(n, edges, xs)
