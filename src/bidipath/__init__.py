"""Disjoint X-path packing in bidirected multigraphs.

A bidirected multigraph assigns a sign to each end of each edge; paths must
alternate signs at internal vertices. This package computes a maximum set
of pairwise disjoint X-paths, a matching-dual certificate (S, T) proving
maximality, and a hitting set of at most 2k - |S∩T| vertices meeting every
X-path, where k is the packing size: the Erdős-Pósa pair of every instance.
"""

from .bgf import Instance, format_instance, parse_instance
from .core import (
    MINUS,
    PLUS,
    BidirectedMultigraph,
    Sign,
    SignedPath,
    dual_value,
    from_digraph,
    from_undirected,
    is_x_path,
)
from .dot import export_dot
from .generate import generate_instance
from .solver import (
    Certificate,
    HittingSet,
    PackingResult,
    Solution,
    solve,
)

__all__ = [
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
