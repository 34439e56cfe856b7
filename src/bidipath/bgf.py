"""BGF, a line-oriented text format for bidirected graph instances.

Directives, one per line:

    # comment
    v NAME                  declare a vertex (ids follow declaration order)
    e U SIGN_U V SIGN_V     declare an edge; signs are '-' or '+'
    x NAME [NAME ...]       add vertices to the terminal set X

Names match [A-Za-z0-9_]+, and a line ends at LF, CRLF or a lone CR.
Duplicate edges are allowed, duplicate vertex declarations are not.

`format_instance` writes one canonical layout: the `v` lines, then the `e`
lines, then the `x` lines, with single spaces and a newline after every line.
`parse_instance` reads text in that layout in bulk, and any other text, or
canonical text with a fault in it, line by line; only the line loop names a
fault, with its line and column. These rules, and UTF-8 decoding, hold
for `convert`'s edge lists too: no other module reads input text.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

from .core import MINUS, PLUS, BidirectedMultigraph, Sign, VertexId
from .errors import (
    DuplicateVertex,
    InvalidParameter,
    LoopRejected,
    ParseError,
    UnknownVertex,
)

_NAME_CLASS = "[A-Za-z0-9_]+"
_NAME = re.compile(_NAME_CLASS + r"\Z")
_TOKEN = re.compile(r"\S+")
_SIGNS = {"-": MINUS, "+": PLUS}
# The three kinds of line of the layout `format_instance` writes, in order.
# A repeated group costs `re` one stack frame per repeat until the match
# ends, so lines are matched about `_CHUNK` characters at a time.
_V_LINES = re.compile(rf"(?:v {_NAME_CLASS}\n)*")
_E_LINES = re.compile(rf"(?:e {_NAME_CLASS} [-+] {_NAME_CLASS} [-+]\n)*")
_X_LINES = re.compile(rf"(?:x(?: {_NAME_CLASS})+\n)*")
_CHUNK = 1 << 16


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
        """The instance (graph, X) with the given display names, which BGF
        must be able to hold: one per vertex, each matching [A-Za-z0-9_]+,
        no two alike; v0, v1, ... by default."""
        xs = graph.check_vertex_set(x)
        if names is None:
            return cls(graph, xs, tuple(f"v{v}" for v in graph.vertices()))
        names = tuple(names)
        if len(names) != graph.vertex_count:
            raise InvalidParameter(
                f"{len(names)} names given for {graph.vertex_count} vertices"
            )
        seen: set[str] = set()
        for name in names:
            if not (isinstance(name, str) and _NAME.match(name)):
                raise InvalidParameter(f"vertex name {name!r} does not match [A-Za-z0-9_]+")
            if name in seen:
                raise InvalidParameter(f"vertex name {name!r} is given twice")
            seen.add(name)
        return cls(graph, xs, names)


def _column(raw: str, index: int) -> int:
    """The 1-based column of a line's index-th token, or the column just
    past its last token when there are fewer tokens."""
    spans = [match.span() for match in _TOKEN.finditer(raw)]
    return spans[index][0] + 1 if index < len(spans) else spans[-1][1] + 1


def _newlines(text: str) -> str:
    """text with CRLF and lone CR made LF; the test for a CR is the cheap part."""
    if "\r" in text:
        return text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _decode(data: bytes) -> str:
    """data as UTF-8 text; a byte that is not UTF-8 raises ParseError at
    its line and column, lines ended as `_newlines` ends them."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Decoding stops at the first bad byte: the bytes before it are UTF-8.
        head = _newlines(data[: exc.start].decode("utf-8"))
        message = f"not UTF-8 text: byte {data[exc.start]:#04x}"
        raise ParseError(message, head.count("\n") + 1, len(head) - head.rfind("\n")) from None


def _directive_lines(text: str):
    """(number, raw, tokens) of each line of LF-ended text but the blank
    ones and those whose first token starts with '#' (comments)."""
    for number, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if tokens and not tokens[0].startswith("#"):
            yield number, raw, tokens


def parse_instance(text: str) -> Instance:
    """Parse BGF text; diagnostics carry 1-based line and column.

    Vertex ids follow declaration order. The edges are collected as four
    parallel lists and written to the graph in one append, unchecked: every
    id came out of the parse's own name table and every sign out of
    `_SIGNS`, and each read refuses loops itself. Line ends are made LF
    first, so CRLF text in the canonical layout is read in bulk too; the
    line loop `_parse_lines` reads any other text and any canonical text
    the bulk read refuses, and so names every fault.
    """
    text = _newlines(text)
    instance = _parse_canonical(text)
    return instance if instance is not None else _parse_lines(text)


def _cuts(lines: re.Pattern, text: str, pos: int) -> list[int]:
    """pos, then the end of each successive run of whole lines from there
    that `lines` admits, each run within `_CHUNK` characters or one line;
    the last cut is where the first line it refuses starts."""
    cuts = [pos]
    while True:
        stop = max(pos + _CHUNK, text.find("\n", pos) + 1)
        end = lines.match(text, pos, stop).end()
        if end == pos:
            return cuts
        cuts.append(end)
        pos = end


def _parse_canonical(text: str) -> Instance | None:
    """The instance of text in the canonical layout, read in bulk; None if
    the text departs from the layout, declares a name twice, names an
    undeclared vertex, or holds a loop.

    Past the layout check every step runs in C: one split of the v block,
    and one of each run of e lines, whose tokens are resolved by `map` over
    the name and sign tables, and one test for a loop.
    """
    e_cuts = _cuts(_E_LINES, text, _cuts(_V_LINES, text, 0)[-1])
    if _cuts(_X_LINES, text, e_cuts[-1])[-1] != len(text):
        return None
    names = text[: e_cuts[0]].split()[1::2]
    ids = dict(zip(names, range(len(names))))
    if len(ids) != len(names):
        return None
    # The edge lists are sized once: grown run by run, they left the heap
    # about 4 MB higher after a 10^5-vertex solve.
    count = text.count("\n", e_cuts[0], e_cuts[-1])
    us: list[VertexId] = [0] * count
    sus: list[Sign] = [MINUS] * count
    vs: list[VertexId] = [0] * count
    svs: list[Sign] = [MINUS] * count
    x: set[VertexId] = set()
    i = 0
    try:
        for start, end in zip(e_cuts, e_cuts[1:]):
            tokens = text[start:end].split()
            j = i + len(tokens) // 5
            us[i:j] = map(ids.__getitem__, tokens[1::5])
            sus[i:j] = map(_SIGNS.__getitem__, tokens[2::5])
            vs[i:j] = map(ids.__getitem__, tokens[3::5])
            svs[i:j] = map(_SIGNS.__getitem__, tokens[4::5])
            i = j
        for line in text[e_cuts[-1] :].split("\n"):
            x.update(map(ids.__getitem__, line.split()[1:]))
    except KeyError:
        return None
    if any(map(operator.eq, us, vs)):
        return None
    graph = BidirectedMultigraph()
    graph.add_vertices(len(names))
    graph._append(us, sus, vs, svs)
    return Instance(graph.freeze(), frozenset(x), tuple(names))


def _parse_lines(text: str) -> Instance:
    """Parse LF-ended BGF text line by line, raising on the first fault
    with its line and column."""
    ids: dict[str, VertexId] = {}  # in declaration order
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

    for number, raw, tokens in _directive_lines(text):
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
            ids[name] = len(ids)
        elif directive == "x":
            if len(tokens) < 2:
                fail(1, "expected: x NAME [NAME ...]")
            for index in range(1, len(tokens)):
                x.add(lookup(index))
        else:
            fail(0, f"unknown directive {directive!r}")
    graph = BidirectedMultigraph()
    graph.add_vertices(len(ids))
    graph._append(us, sus, vs, svs)
    return Instance(graph.freeze(), frozenset(x), tuple(ids))


def _parse_edge_list(text: str) -> tuple[list[str], list[tuple[VertexId, VertexId]]]:
    """The names of an edge list (one `U V` pair a line, blank and comment
    lines as in BGF) in order of first appearance, and its pairs as ids."""
    ids: dict[str, VertexId] = {}  # in order of first appearance
    pairs: list[tuple[VertexId, VertexId]] = []
    for number, raw, tokens in _directive_lines(_newlines(text)):
        if len(tokens) != 2:
            raise ParseError("expected: U V", number, 1)
        for index, name in enumerate(tokens):
            if not _NAME.match(name):
                raise ParseError(f"invalid vertex name {name!r}", number, _column(raw, index))
        u = ids.setdefault(tokens[0], len(ids))
        v = ids.setdefault(tokens[1], len(ids))
        if u == v:
            raise LoopRejected(f"line {number}: loop at {tokens[0]!r}")
        pairs.append((u, v))
    return list(ids), pairs


def format_instance(instance: Instance) -> str:
    """Emit BGF text that parses back with identical vertex and edge ids."""
    names = instance.names
    out = [f"v {names[v]}" for v in instance.graph.vertices()]
    for u, sign_u, v, sign_v in instance.graph.edge_ends():
        out.append(f"e {names[u]} {sign_u} {names[v]} {sign_v}")
    if instance.x:
        out.append("x " + " ".join(names[v] for v in sorted(instance.x)))
    return "\n".join(out) + "\n" if out else ""
