"""The public surface: `bidipath.__all__`, and the README's library example."""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import bidipath
from bidipath.solver import _copies

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "BidirectedMultigraph",
    "Certificate",
    "HittingSet",
    "Instance",
    "MINUS",
    "PLUS",
    "PackingResult",
    "Sign",
    "SignedPath",
    "Solution",
    "dual_value",
    "export_dot",
    "format_instance",
    "from_digraph",
    "from_undirected",
    "generate_instance",
    "is_x_path",
    "parse_instance",
    "solve",
]

# Names that test-only or duplicate code once answered to, by module, with
# the class for a deleted method or attribute.
DELETED = {
    "core": ["RestrictedGraph", "restrict", "Edge", "Multigraph"],
    "matching": [
        "TutteBergeWitness", "tutte_berge_witness", "tutte_berge_value", "components_without",
        "is_matching", "maximum_matching", "gallai_edmonds", "GallaiEdmonds", "grow_matching",
    ],
    "solver": [
        "max_disjoint_x_paths", "hitting_set", "check_threshold", "verify_certificate",
        "VerificationResult", "AuxiliaryGraph", "_auxiliary",
    ],
    "errors": ["NotAnXPath", "NotAlternating", "EndpointsNotInX", "InvalidSeed", "InvalidK"],
    "oracle": ["has_x_path", "brute_matching", "MAX_MATCHING_EDGES", "brute_dual_value"],
}
DELETED_MEMBERS = {
    ("core", "BidirectedMultigraph"): [
        "incident_edges", "edge", "has_edge", "has_vertex", "add_vertex",
    ],
    ("core", "SignedPath"): ["canonical", "endpoints", "reversed"],
    ("solver", "Certificate"): ["value"],
    ("matching", "_Matcher"): ["matched_edges", "mate_edge", "seed", "us", "vs"],
}


def test_all_is_the_pinned_surface_and_resolves():
    assert sorted(bidipath.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(bidipath, name) is not None
    # `certificate(g, X)` answers only at `bidipath.solver`, for the benchmark's check.
    assert not hasattr(bidipath, "certificate")


def test_deleted_names_are_gone():
    for module_name, names in DELETED.items():
        module = importlib.import_module(f"bidipath.{module_name}")
        for name in names:
            assert not hasattr(module, name), (module_name, name)
            assert not hasattr(bidipath, name), name
    for (module_name, cls), names in DELETED_MEMBERS.items():
        owner = getattr(importlib.import_module(f"bidipath.{module_name}"), cls)
        for name in names:
            assert not hasattr(owner, name), (cls, name)


def test_the_auxiliary_module_is_gone():
    # Its construction is `solver._auxiliary`, next to the code that reads the ids.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("bidipath.auxiliary")


def test_the_auxiliary_graph_is_only_the_matchers_adjacency():
    # No edge lists: the ends land through the copy tables straight into
    # the adjacency, split edge first.
    g = bidipath.from_digraph(3, [(0, 1), (1, 2)])
    assert _copies(g, frozenset({0, 2})) == ([0, 2, 4], [0, 3, 4])
    matcher = bidipath.solve(g, {0, 2})._matcher
    assert matcher.nbrs == [[3], [], [3, 4], [2, 0], [2], []]


def test_the_matcher_and_a_solution_keep_no_edge_list():
    # The matcher is vertex-indexed; only the packing reads edge ids.
    g = bidipath.from_digraph(3, [(0, 1), (1, 2)])
    solution = bidipath.solve(g, {0, 2})
    assert sorted(vars(solution._matcher)) == [
        "base", "even", "match", "n", "nbrs", "parent", "steps",
    ]
    assert sorted(vars(solution)) == ["_matcher", "g", "packing", "x"]


def test_a_certificate_is_the_pair_s_t_only():
    assert [f.name for f in dataclasses.fields(bidipath.Certificate)] == ["s", "t"]


def test_a_hitting_set_holds_y_and_its_certificate_only():
    assert [f.name for f in dataclasses.fields(bidipath.HittingSet)] == ["y", "s", "t"]


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(block, str(README), "exec"), {})
