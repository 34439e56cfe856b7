"""BGF parsing, diagnostics, and round-tripping."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidipath.bgf
from bidipath import (
    MINUS,
    PLUS,
    BidirectedMultigraph,
    format_instance,
    from_digraph,
    generate_instance,
    parse_instance,
)
from bidipath.bgf import Instance, _parse_lines
from bidipath.errors import (
    DuplicateVertex,
    InvalidParameter,
    LoopRejected,
    ParseError,
    UnknownVertex,
)
from helpers import OTHER_LINE_BREAKS


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


@pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=ascii)
def test_a_comment_holding_another_line_break_stays_one_comment(char):
    text = "v a\nv b\ne a - b +\nx a b\n"
    commented = text.replace("e a", f"# note{char} e two{char}z\ne a")
    assert outcome(parse_instance, commented) == outcome(parse_instance, text)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=ascii)
@pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=ascii)
def test_a_fault_after_such_a_comment_reports_its_newline_counted_line(char, newline):
    text = newline.join(["v a", f"# note{char}# more", "v b", "v a", ""])
    with pytest.raises(DuplicateVertex, match="^line 4: vertex 'a' declared twice$"):
        parse_instance(text)


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


# Names a BGF text can hold but `from_graph` must refuse, since the text
# would not parse back to the same names.
@pytest.mark.parametrize(
    "names, message",
    [
        (("a", "a", "c"), "vertex name 'a' is given twice"),
        (("a b", "c", "d"), "vertex name 'a b' does not match [A-Za-z0-9_]+"),
        (("a", "b", "c", "d"), "4 names given for 3 vertices"),
        (("a", "b"), "2 names given for 3 vertices"),
    ],
    ids=["duplicate", "space", "one-too-many", "one-too-few"],
)
def test_from_graph_refuses_names_bgf_cannot_write_back(names, message):
    g = from_digraph(3, [(0, 1), (1, 2)]).freeze()
    with pytest.raises(InvalidParameter) as info:
        Instance.from_graph(g, {0, 2}, names)
    assert str(info.value) == message


def outcome(parse, text):
    """What `parse` makes of the text: the instance's names, X and edge
    ends, or the type and message of what it raised."""
    try:
        instance = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return instance.names, instance.x, list(instance.graph.edge_ends())


NAMES = st.text("abvex_09Z", min_size=1, max_size=3)
SIGNS = st.sampled_from("-+-+-+-+?")


@st.composite
def canonical_texts(draw):
    """BGF text in the layout `format_instance` writes, with the faults the
    layout can hold: duplicate names, unknown names, loops, bad signs, an
    empty x line, and empty blocks."""
    names = draw(st.lists(NAMES, max_size=6))
    known = st.sampled_from(names) if names else NAMES
    name = st.one_of(known, known, known, NAMES)
    edges = draw(st.lists(st.tuples(name, SIGNS, name, SIGNS), max_size=8))
    xs = draw(st.lists(st.lists(name, max_size=3), max_size=2))
    lines = [f"v {v}" for v in names]
    lines += [f"e {u} {su} {v} {sv}" for u, su, v, sv in edges]
    lines += [" ".join(["x", *x]) for x in xs]
    return "".join(line + "\n" for line in lines)


def perturb(text, kind, at):
    """The text with one departure from the canonical layout."""
    lines = text.splitlines(keepends=True)
    i = at % (len(lines) + 1)
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "comment":
        return "".join(lines[:i] + ["# note\n"] + lines[i:])
    if kind == "blank":
        return "".join(lines[:i] + ["\n"] + lines[i:])
    if kind in ("tab", "double-space"):
        spaces = [j for j, c in enumerate(text) if c == " "]
        if not spaces:
            return text
        j = spaces[at % len(spaces)]
        return text[:j] + ("\t" if kind == "tab" else "  ") + text[j + 1 :]
    if kind == "no-final-newline":
        return text[:-1]
    edges = [line for line in lines if line.startswith("e ")]  # kind == "edge-first"
    if not edges:
        return text
    edge = edges[at % len(edges)]
    lines.remove(edge)
    return edge + "".join(lines)


PERTURBATIONS = (
    None, "crlf", "comment", "blank", "tab", "double-space", "no-final-newline", "edge-first",
)


@settings(max_examples=400)
@given(canonical_texts(), st.sampled_from(PERTURBATIONS), st.integers(0, 100))
def test_the_bulk_reader_agrees_with_the_line_loop(text, kind, at):
    if kind is not None:
        text = perturb(text, kind, at)
    expected = outcome(_parse_lines, text)
    assert outcome(parse_instance, text) == expected
    # Runs of one line or less, and lines longer than a run.
    with mock.patch.object(bidipath.bgf, "_CHUNK", 12):
        assert outcome(parse_instance, text) == expected


@pytest.mark.parametrize(
    "text",
    ["", "v a\n", "e a - b +\n", "x a\n", "x\n", "v a\nx a\nx a\n", f"v {'a' * (1 << 17)}\n"],
    ids=["empty", "vertex", "edge-only", "x-only", "bare-x", "two-x-lines", "longer-than-a-run"],
)
def test_the_bulk_reader_agrees_with_the_line_loop_on_edge_cases(text):
    assert outcome(parse_instance, text) == outcome(_parse_lines, text)


@pytest.mark.parametrize(
    "text",
    ["v a\nv b\ne a - b +\ne b + a +\nx a\n", "# comment\nv a\nv b\ne a - b +\ne b + a +\nx a\n"],
    ids=["bulk-read", "line-loop"],
)
def test_both_reads_append_their_edges_without_add_edges_checks(text, monkeypatch):
    # Every id comes out of the read's own name table and every sign out of
    # its sign table, and each read refuses loops itself: neither pays the
    # public writer's checks again.
    def refused(*args):
        raise AssertionError("add_edges called")

    monkeypatch.setattr(BidirectedMultigraph, "add_edges", refused)
    instance = parse_instance(text)
    assert list(instance.graph.edge_ends()) == [(0, MINUS, 1, PLUS), (1, PLUS, 0, PLUS)]
    with pytest.raises(LoopRejected, match="loop at vertex 'b'"):
        parse_instance(text.replace("e a - b +", "e b - b +"))
    # Nor does generate, whose draws are ints in range, never loops, and Signs.
    assert generate_instance(40, 120, 0.2, seed=1).graph.edge_count == 120


# The sign families of the benchmark's workloads.
BENCH_FAMILIES = (
    None,
    {"--": 0, "-+": 1, "+-": 0, "++": 0},
    {"--": 1, "-+": 0, "+-": 0, "++": 1},
    {"--": 3, "-+": 1, "+-": 1, "++": 1},
)


def test_format_instance_output_never_reaches_the_line_loop(monkeypatch):
    def refused(text):
        raise AssertionError("canonical text reached the line loop")

    # n = 3000 writes about 170 KB: more than one run of e lines.
    expected = [
        (generate_instance(n, 3 * n, 0.2, family, n), newline)
        for family in BENCH_FAMILIES
        for n in (2, 40, 600, 3000)
        # CRLF and lone-CR text is made LF before either read sees it.
        for newline in ("\n", "\r\n", "\r") if newline == "\n" or n in (2, 600)
    ]
    monkeypatch.setattr(bidipath.bgf, "_parse_lines", refused)
    # A run of 16 characters is shorter than most lines, and than every x line.
    for chunk in (bidipath.bgf._CHUNK, 16):
        monkeypatch.setattr(bidipath.bgf, "_CHUNK", chunk)
        for instance, newline in expected:
            again = parse_instance(format_instance(instance).replace("\n", newline))
            assert again.names == instance.names
            assert again.x == instance.x
            assert list(again.graph.edge_ends()) == list(instance.graph.edge_ends())
