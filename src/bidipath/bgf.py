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

from .core import BidirectedMultigraph, Sign, VertexId
from .errors import DuplicateVertex, LoopRejected, ParseError, UnknownVertex

_NAME = re.compile(r"[A-Za-z0-9_]+\Z")
_TOKEN = re.compile(r"\S+")


@dataclass(frozen=True)
class Instance:
    """A parsed instance: the graph, the terminal set X, and display names."""

    graph: BidirectedMultigraph
    x: frozenset[VertexId]
    names: tuple[str, ...]

    def name_of(self, v: VertexId) -> str:
        return self.names[v]

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
    """Parse BGF text; diagnostics carry 1-based line and column."""
    graph = BidirectedMultigraph()
    names: list[str] = []
    ids: dict[str, VertexId] = {}
    x: set[VertexId] = set()

    # Both read the line being parsed: number, raw and tokens.
    def fail(index: int, message: str):
        raise ParseError(message, number, _column(raw, index))

    def lookup(index: int) -> VertexId:
        name = tokens[index]
        if name not in ids:
            raise UnknownVertex(
                f"line {number}, column {_column(raw, index)}: unknown vertex {name!r}"
            )
        return ids[name]

    for number, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        directive = tokens[0]
        args = len(tokens) - 1
        if directive == "v":
            if args != 1:
                fail(1, "expected: v NAME")
            name = tokens[1]
            if not _NAME.match(name):
                fail(1, f"invalid vertex name {name!r}")
            if name in ids:
                raise DuplicateVertex(
                    f"line {number}: vertex {name!r} declared twice"
                )
            ids[name] = graph.add_vertex()
            names.append(name)
        elif directive == "e":
            if args != 4:
                fail(1, "expected: e U SIGN_U V SIGN_V")
            u = lookup(1)
            v = lookup(3)
            signs = []
            for index in (2, 4):
                token = tokens[index]
                try:
                    signs.append(Sign.parse(token))
                except ValueError:
                    fail(index, f"expected '-' or '+', got {token!r}")
            if u == v:
                raise LoopRejected(
                    f"line {number}: loop at vertex {tokens[1]!r}"
                )
            graph.add_edge(u, signs[0], v, signs[1])
        elif directive == "x":
            if args < 1:
                fail(1, "expected: x NAME [NAME ...]")
            for index in range(1, len(tokens)):
                x.add(lookup(index))
        else:
            fail(0, f"unknown directive {directive!r}")
    return Instance(graph.freeze(), frozenset(x), tuple(names))


def format_instance(instance: Instance) -> str:
    """Emit BGF text that parses back with identical vertex and edge ids."""
    out = []
    for v in instance.graph.vertices():
        out.append(f"v {instance.names[v]}")
    for eid in range(instance.graph.edge_count):
        e = instance.graph.edge(eid)
        out.append(
            f"e {instance.names[e.u]} {e.sign_u} {instance.names[e.v]} {e.sign_v}"
        )
    if instance.x:
        out.append("x " + " ".join(instance.names[v] for v in sorted(instance.x)))
    return "\n".join(out) + "\n" if out else ""
