"""BGF parsing, diagnostics, and round-tripping."""

import pytest

from bidipath import MINUS, PLUS, parse_instance, format_instance
from bidipath.errors import (
    DuplicateVertex,
    LoopRejected,
    ParseError,
    UnknownVertex,
)


def test_parse_minimal_instance():
    inst = parse_instance("v a\nv b\ne a - b +\nx a b\n")
    assert inst.graph.vertex_count == 2
    assert inst.graph.edge_count == 1
    assert inst.x == frozenset({0, 1})
    assert inst.graph.sign(0, 0) is MINUS
    assert inst.graph.sign(1, 0) is PLUS
    assert inst.names == ("a", "b")


def test_parse_skips_comments_and_blank_lines():
    inst = parse_instance("# heading\n\nv a\n   # indented comment\nv b\n")
    assert inst.graph.vertex_count == 2


def test_parse_rejects_loop():
    with pytest.raises(LoopRejected):
        parse_instance("v a\ne a - a +\n")


def test_parse_rejects_unknown_x_member():
    with pytest.raises(UnknownVertex):
        parse_instance("v a\nx c\n")


def test_parse_rejects_duplicate_vertex():
    with pytest.raises(DuplicateVertex):
        parse_instance("v a\nv a\n")


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as info:
        parse_instance("v a\nv b\ne a ? b +\n")
    assert info.value.line == 3
    assert info.value.column == 5


def test_parse_rejects_unknown_directive():
    with pytest.raises(ParseError) as info:
        parse_instance("q a\n")
    assert info.value.line == 1


def test_parse_rejects_bad_name():
    with pytest.raises(ParseError):
        parse_instance("v a-b\n")


def test_parse_rejects_wrong_arity():
    with pytest.raises(ParseError):
        parse_instance("v a\ne a - a\n")


def test_round_trip_preserves_ids():
    text = "v a\nv b\nv c\ne a - b -\ne b + c -\ne a - b -\nx a c\n"
    inst = parse_instance(text)
    again = parse_instance(format_instance(inst))
    assert again.names == inst.names
    assert again.x == inst.x
    assert again.graph.edge_count == inst.graph.edge_count
    assert list(again.graph.edge_ends()) == list(inst.graph.edge_ends())


def test_format_empty_instance():
    inst = parse_instance("")
    assert format_instance(inst) == ""


# Messages as the tokenizing parser first produced them.
@pytest.mark.parametrize(
    "text, error, message",
    [
        ("v a\nv b\n  e a - b  x\n", ParseError, "line 3, column 12: expected '-' or '+', got 'x'"),
        ("v a\n\n  q a\n", ParseError, "line 3, column 3: unknown directive 'q'"),
        ("v a\n v  a-b\n", ParseError, "line 2, column 5: invalid vertex name 'a-b'"),
        ("v a\n  x  \n", ParseError, "line 2, column 4: expected: x NAME [NAME ...]"),
        ("v a b\n", ParseError, "line 1, column 3: expected: v NAME"),
        ("v a\ne a - zz +\n", UnknownVertex, "line 2, column 7: unknown vertex 'zz'"),
    ],
    ids=[
        "bad-sign",
        "unknown-directive",
        "bad-name",
        "arity-past-last-token",
        "vertex-arity",
        "unknown-vertex",
    ],
)
def test_diagnostics_carry_line_and_column(text, error, message):
    with pytest.raises(error) as info:
        parse_instance(text)
    assert str(info.value) == message
    if error is ParseError:
        assert f"line {info.value.line}, column {info.value.column}: " in message


# The order in which an `e` line's faults are reported, recorded from the
# per-edge parser: names first (U, then V), then signs (SIGN_U, then SIGN_V),
# then a loop.
@pytest.mark.parametrize(
    "text, error, message",
    [
        ("v a\ne zz ? a +\n", UnknownVertex, "line 2, column 3: unknown vertex 'zz'"),
        ("v a\ne a ? zz +\n", UnknownVertex, "line 2, column 7: unknown vertex 'zz'"),
        ("v a\nv b\ne a ? b ?\n", ParseError, "line 3, column 5: expected '-' or '+', got '?'"),
        ("v a\ne a ? a +\n", ParseError, "line 2, column 5: expected '-' or '+', got '?'"),
        ("v a\nv b\ne a + a -\n", LoopRejected, "line 3: loop at vertex 'a'"),
        ("v a\nv b\ne a - b\n", ParseError, "line 3, column 3: expected: e U SIGN_U V SIGN_V"),
        ("v a\ne a - b +\nv b\n", UnknownVertex, "line 2, column 7: unknown vertex 'b'"),
    ],
    ids=[
        "unknown-u-beats-bad-sign",
        "unknown-v-beats-bad-sign",
        "bad-sign-u-beats-bad-sign-v",
        "bad-sign-beats-loop",
        "loop",
        "four-token-edge-is-arity",
        "vertex-declared-later-is-unknown",
    ],
)
def test_edge_line_diagnostic_order(text, error, message):
    with pytest.raises(error) as info:
        parse_instance(text)
    assert str(info.value) == message
    if error is ParseError:
        assert (info.value.line, info.value.column) == tuple(
            int(part.split()[1]) for part in message.split(":")[0].split(", ")
        )
