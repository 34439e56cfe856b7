"""Disjoint X-path packing in bidirected multigraphs.

A bidirected multigraph assigns a sign to each end of each edge; paths must
alternate signs at internal vertices. This package computes a maximum set
of pairwise disjoint X-paths, a matching-dual certificate (S, T) proving
maximality, and, below a threshold k, a hitting set of at most 2k-2
vertices meeting every X-path.
"""

from .auxiliary import (
    AlternatingPath,
    AuxiliaryGraph,
    AuxVertex,
    build_auxiliary,
    lift_path,
    project_path,
)
from .bgf import Instance, format_instance, parse_instance
from .core import (
    MINUS,
    PLUS,
    BidirectedMultigraph,
    Edge,
    Multigraph,
    RestrictedGraph,
    Sign,
    SignedPath,
    delete_vertices,
    dual_value,
    from_digraph,
    from_undirected,
    is_valid_path,
    is_x_path,
    restrict,
    weak_components,
)
from .dot import export_dot
from .generate import generate_instance, parse_sign_dist
from .matching import (
    GallaiEdmonds,
    TutteBergeWitness,
    gallai_edmonds,
    is_matching,
    maximum_matching,
    tutte_berge_witness,
)
from .solver import (
    Certificate,
    HittingSet,
    PackingResult,
    Solution,
    VerificationResult,
    certificate,
    hitting_set,
    max_disjoint_x_paths,
    solve,
    verify_certificate,
)

__all__ = [
    "AlternatingPath",
    "AuxVertex",
    "AuxiliaryGraph",
    "BidirectedMultigraph",
    "Certificate",
    "Edge",
    "GallaiEdmonds",
    "HittingSet",
    "Instance",
    "MINUS",
    "Multigraph",
    "PLUS",
    "PackingResult",
    "RestrictedGraph",
    "Sign",
    "SignedPath",
    "Solution",
    "TutteBergeWitness",
    "VerificationResult",
    "build_auxiliary",
    "certificate",
    "delete_vertices",
    "dual_value",
    "export_dot",
    "format_instance",
    "from_digraph",
    "from_undirected",
    "gallai_edmonds",
    "generate_instance",
    "hitting_set",
    "is_matching",
    "is_valid_path",
    "is_x_path",
    "lift_path",
    "max_disjoint_x_paths",
    "maximum_matching",
    "parse_instance",
    "parse_sign_dist",
    "project_path",
    "restrict",
    "solve",
    "tutte_berge_witness",
    "verify_certificate",
    "weak_components",
]
