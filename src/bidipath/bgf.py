"""BGF, a line-oriented text format for bidirected graph instances.

Directives, one per line:

    # comment
    v NAME                  declare a vertex (ids follow declaration order)
    e U SIGN_U V SIGN_V     declare an edge; signs are '-' or '+'
    x NAME [NAME ...]       add vertices to the terminal set X

Names match [A-Za-z0-9_]+. Duplicate edges are allowed, duplicate vertex
declarations are not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import MINUS, PLUS, BidirectedMultigraph, Sign, VertexId
from .errors import DuplicateVertex, LoopRejected, ParseError, UnknownVertex

_NAME = re.compile(r"[A-Za-z0-9_]+\Z")
_TOKEN = re.compile(r"\S+")
_SIGNS = {"-": MINUS, "+": PLUS}


@dataclass(frozen=True)
class Instance:
    """A parsed instance: the graph, the terminal set X, and display names."""

    graph: BidirectedMultigraph
    x: frozenset[VertexId]
    names: tuple[str, ...]

    @classmethod
    def from_graph(
        cls,
        graph: BidirectedMultigraph,
        x,
        names: tuple[str, ...] | None = None,
    ) -> "Instance":
        xs = graph.check_vertex_set(x)
        if names is None:
            names = tuple(f"v{v}" for v in graph.vertices())
        return cls(graph, xs, names)


def _column(raw: str, index: int) -> int:
    """The 1-based column of a line's index-th token, or the column just
    past its last token when there are fewer tokens."""
    spans = [match.span() for match in _TOKEN.finditer(raw)]
    return spans[index][0] + 1 if index < len(spans) else spans[-1][1] + 1


def parse_instance(text: str) -> Instance:
    """Parse BGF text; diagnostics carry 1-based line and column.

    Vertex ids follow declaration order. The edges are collected as four
    parallel lists and written to the graph in one `add_edges` call.
    """
    names: list[str] = []
    ids: dict[str, VertexId] = {}
    x: set[VertexId] = set()
    us: list[VertexId] = []
    sus: list[Sign] = []
    vs: list[VertexId] = []
    svs: list[Sign] = []

    # These read the line being parsed: number, raw and tokens.
    def fail(index: int, message: str):
        raise ParseError(message, number, _column(raw, index))

    def lookup(index: int) -> VertexId:
        name = tokens[index]
        if name not in ids:
            raise UnknownVertex(
                f"line {number}, column {_column(raw, index)}: unknown vertex {name!r}"
            )
        return ids[name]

    def sign(index: int) -> Sign:
        if tokens[index] not in _SIGNS:
            fail(index, f"expected '-' or '+', got {tokens[index]!r}")
        return _SIGNS[tokens[index]]

    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        directive = tokens[0]
        if directive == "e":
            if len(tokens) != 5:
                fail(1, "expected: e U SIGN_U V SIGN_V")
            try:
                u = ids[tokens[1]]
                v = ids[tokens[3]]
                sign_u = _SIGNS[tokens[2]]
                sign_v = _SIGNS[tokens[4]]
            except KeyError:
                # Report the first bad token in the order U, V, SIGN_U, SIGN_V.
                u, v, sign_u, sign_v = lookup(1), lookup(3), sign(2), sign(4)
            if u == v:
                raise LoopRejected(
                    f"line {number}: loop at vertex {tokens[1]!r}"
                )
            us.append(u)
            sus.append(sign_u)
            vs.append(v)
            svs.append(sign_v)
        elif directive == "v":
            if len(tokens) != 2:
                fail(1, "expected: v NAME")
            name = tokens[1]
            if not _NAME.match(name):
                fail(1, f"invalid vertex name {name!r}")
            if name in ids:
                raise DuplicateVertex(
                    f"line {number}: vertex {name!r} declared twice"
                )
            ids[name] = len(names)
            names.append(name)
        elif directive == "x":
            if len(tokens) < 2:
                fail(1, "expected: x NAME [NAME ...]")
            for index in range(1, len(tokens)):
                x.add(lookup(index))
        elif not directive.startswith("#"):
            fail(0, f"unknown directive {directive!r}")
    graph = BidirectedMultigraph()
    graph.add_vertices(len(names))
    graph.add_edges(us, sus, vs, svs)
    return Instance(graph.freeze(), frozenset(x), tuple(names))


def format_instance(instance: Instance) -> str:
    """Emit BGF text that parses back with identical vertex and edge ids."""
    names = instance.names
    out = [f"v {names[v]}" for v in instance.graph.vertices()]
    for u, sign_u, v, sign_v in instance.graph.edge_ends():
        out.append(f"e {names[u]} {sign_u} {names[v]} {sign_v}")
    if instance.x:
        out.append("x " + " ".join(names[v] for v in sorted(instance.x)))
    return "\n".join(out) + "\n" if out else ""
