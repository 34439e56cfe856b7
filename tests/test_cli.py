"""End-to-end command tests through main(), checking output and exit codes."""

import contextlib
import gc
import hashlib
import io
import os
import random
import shlex
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bidipath
from bidipath.bgf import format_instance, parse_instance
from bidipath.core import BidirectedMultigraph, delete_vertices, dual_value
from bidipath.errors import InvalidParameter
from bidipath.cli import _verify_one, build_parser, main
from bidipath.generate import generate_instance
from bidipath.matching import _Matcher
from bidipath.solver import Certificate, HittingSet, PackingResult, Solution, solve
from helpers import (
    OTHER_LINE_BREAKS,
    graph_and_x,
    random_admissible_pair,
    random_instance,
    sign_broken_chain,
)
from oracles import has_x_path

K5_BGF = (
    "\n".join(f"v {c}" for c in "abcde")
    + "\n"
    + "\n".join(
        f"e {u} - {v} -"
        for i, u in enumerate("abcde")
        for v in "abcde"[i + 1 :]
    )
    + "\nx a b c d e\n"
)


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.bgf"
    path.write_text(K5_BGF)
    return str(path)


def machine_lines(output: str) -> dict[str, list[str]]:
    result: dict[str, list[str]] = {}
    for line in output.splitlines():
        key, _, value = line.partition(":")
        result.setdefault(key, []).append(value.strip())
    return result


def test_solve_machine_output(k5_file, capsys):
    assert main(["solve", k5_file, "--format", "machine"]) == 0
    got = machine_lines(capsys.readouterr().out)
    assert got["k"] == ["2"]
    assert len(got["path"]) == 2
    assert got["value"] == ["2"]
    assert got["certificate"] == ["ok"]


def test_solve_human_output(k5_file, capsys):
    assert main(["solve", k5_file]) == 0
    out = capsys.readouterr().out
    assert "k = 2" in out
    assert "certificate check: ok" in out


def test_solve_empty_x(tmp_path, capsys):
    path = tmp_path / "nox.bgf"
    path.write_text("v a\nv b\ne a - b -\n")
    assert main(["solve", str(path), "--format", "machine"]) == 0
    assert machine_lines(capsys.readouterr().out)["k"] == ["0"]


def test_hitting_set_above_threshold(k5_file, capsys):
    assert main(["hitting-set", k5_file, "-k", "3", "--format", "machine"]) == 0
    got = machine_lines(capsys.readouterr().out)
    assert got["outcome"] == ["hitting-set"]
    assert got["size"] == ["4"]
    assert got["audit"] == ["no-x-path"]


def test_hitting_set_human_output(k5_file, capsys):
    assert main(["hitting-set", k5_file, "-k", "3"]) == 0
    assert capsys.readouterr().out == (
        "fewer than 3 disjoint X-paths; hitting set found:\n"
        "  Y = {b c d e}\n"
        "  |Y| = 4 <= 2k-2 = 4\n"
        "  audit (no X-path once Y removed): ok\n"
    )


def test_hitting_set_below_threshold(k5_file, capsys):
    assert main(["hitting-set", k5_file, "-k", "2", "--format", "machine"]) == 0
    got = machine_lines(capsys.readouterr().out)
    assert got["outcome"] == ["packing"]
    assert len(got["path"]) == 2


def test_hitting_set_human_output_below_threshold(k5_file, capsys):
    assert main(["hitting-set", k5_file, "-k", "2"]) == 0
    assert capsys.readouterr() == (
        "2 disjoint X-paths exist:\n"
        "  path 1: a -(#0 --)- b\n"
        "  path 2: c -(#7 --)- d\n",
        "",
    )


def test_hitting_set_k_zero_is_usage_error(k5_file, capsys):
    assert main(["hitting-set", k5_file, "-k", "0"]) == 1


BAD_K = "bidipath: the hitting-set bound 2k-2 requires k >= 1\n"
# export-dot takes no -k (its hitting-set overlay draws Y for any instance),
# so argparse refuses one with the usage line.
UNKNOWN_K = build_parser().format_usage() + "bidipath: error: unrecognized arguments: -k "


def exit_code(argv) -> int:
    """main's exit code, or that of the SystemExit an argparse error raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, err",
    [
        pytest.param(["hitting-set", "-k", "0"], BAD_K, id="hitting-set-k-0"),
        pytest.param(
            ["export-dot", "--overlay", "hitting-set", "-k", "0"], UNKNOWN_K + "0\n", id="dot-k-0"
        ),
        pytest.param(["export-dot", "-k", "2"], UNKNOWN_K + "2\n", id="dot-k-no-overlay"),
        pytest.param(
            ["export-dot", "--overlay", "paths", "-k", "2"], UNKNOWN_K + "2\n", id="dot-k-paths"
        ),
    ],
)
@pytest.mark.parametrize("instance", ["malformed", "missing"])
def test_a_bad_k_is_reported_before_the_instance_is_read(tmp_path, capsys, argv, err, instance):
    path = tmp_path / "bad.bgf"
    if instance == "malformed":
        path.write_text("e a - b +\n")
    assert exit_code([argv[0], str(path), *argv[1:]]) == 1
    assert capsys.readouterr() == ("", err)


def test_convert_digraph(tmp_path, capsys):
    src = tmp_path / "arcs"
    src.write_text("a b\n")
    assert main(["convert", "--mode", "digraph", str(src)]) == 0
    assert capsys.readouterr().out == "v a\nv b\ne a - b +\n"


def test_convert_undirected(tmp_path, capsys):
    src = tmp_path / "edges"
    src.write_text("a b\n")
    assert main(["convert", "--mode", "undirected", str(src)]) == 0
    out = capsys.readouterr().out
    assert "e a - b +" in out and "e a + b -" in out


def test_convert_empty(tmp_path, capsys):
    src = tmp_path / "empty"
    src.write_text("")
    assert main(["convert", "--mode", "digraph", str(src)]) == 0
    assert capsys.readouterr().out == ""


def test_convert_skips_comment_and_blank_lines(tmp_path, capsys):
    src = tmp_path / "arcs"
    src.write_text("# arcs\n\na b\n  # indented\n   \nb c\n")
    assert main(["convert", "--mode", "digraph", str(src)]) == 0
    assert capsys.readouterr() == ("v a\nv b\nv c\ne a - b +\ne b - c +\n", "")


@pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=ascii)
def test_convert_keeps_a_comment_holding_another_line_break_one_line(char, tmp_path, capsys):
    src = tmp_path / "arcs"
    src.write_bytes(f"a b\n# note{char} c{char}d e f\nb c\n".encode())
    assert main(["convert", "--mode", "digraph", str(src)]) == 0
    assert capsys.readouterr() == ("v a\nv b\nv c\ne a - b +\ne b - c +\n", "")
    src.write_bytes(f"a b\n# note{char}# more\nb b\n".encode())
    assert main(["convert", "--mode", "digraph", str(src)]) == 2
    assert capsys.readouterr() == ("", "bidipath: line 3: loop at 'b'\n")


def test_convert_rejects_a_line_that_is_not_a_pair(tmp_path, capsys):
    src = tmp_path / "arcs"
    src.write_text("a b\na b c\n")
    assert main(["convert", "--mode", "digraph", str(src)]) == 2
    assert capsys.readouterr() == ("", "bidipath: line 2, column 1: expected: U V\n")


def test_convert_rejects_loop(tmp_path, capsys):
    src = tmp_path / "loop"
    src.write_text("a a\n")
    assert main(["convert", "--mode", "digraph", str(src)]) == 2


def test_convert_rejects_a_name_bgf_cannot_hold(tmp_path, capsys):
    src = tmp_path / "names"
    src.write_text("a b\n  c d.2\n")
    assert main(["convert", "--mode", "digraph", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "bidipath: line 2, column 5: invalid vertex name 'd.2'\n"


def test_generate_is_deterministic(capsys):
    args = ["generate", "-n", "6", "-m", "9", "--x-frac", "0.6", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_generate_all_minus_family(capsys):
    assert main(
        ["generate", "-n", "5", "-m", "10", "--x-frac", "1.0",
         "--sign-dist=--:1", "--seed", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "x v0 v1 v2 v3 v4" in out
    for line in out.splitlines():
        if line.startswith("e "):
            assert line.split()[2] == "-" and line.split()[4] == "-"


def test_generate_edgeless(capsys):
    assert main(["generate", "-n", "3", "-m", "0", "--x-frac", "1.0"]) == 0
    out = capsys.readouterr().out
    assert not any(line.startswith("e ") for line in out.splitlines())


def test_readme_generate_example_exits_0_and_parses_back(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (line,) = [line for line in readme.splitlines() if line.startswith("bidipath generate ")]
    assert main(shlex.split(line, comments=True)[1:]) == 0
    parse_instance(capsys.readouterr().out)


def test_generate_bad_params(capsys):
    assert main(["generate", "-n", "0", "-m", "0"]) == 1
    capsys.readouterr()
    for dist in ["zz:1", "--:nan", "--:inf", "--:1e309", "--:-1", "--:1e308,-+:1e308"]:
        assert main(["generate", "-n", "4", "-m", "3", f"--sign-dist={dist}"]) == 1, dist
        captured = capsys.readouterr()
        assert captured.out == "", dist
        assert captured.err.startswith("bidipath: ") and captured.err.count("\n") == 1, dist


@pytest.mark.parametrize(
    "args, err",
    [
        (["--sign-dist=--:abc"], "bad weight 'abc' in '--:abc'"),
        (["-m", "-1"], "m must be non-negative"),
        (["--x-frac", "1.5"], "x_frac must lie in [0, 1]"),
        (["-n", "1", "-m", "1"], "a single vertex admits no loop-free edges"),
    ],
)
def test_generate_names_a_bad_parameter(capsys, args, err):
    assert main(["generate", "-n", "4", "-m", "3", *args]) == 1
    assert capsys.readouterr() == ("", f"bidipath: {err}\n")


def test_generate_instance_names_a_sign_dist_without_the_four_pairs():
    with pytest.raises(
        InvalidParameter, match="^sign_dist must weight exactly the four sign pairs$"
    ):
        generate_instance(4, 3, 0.5, {"--": 1.0})


@pytest.mark.parametrize("weight", [-1.0, float("nan"), float("inf")])
def test_generate_instance_rejects_a_weight_that_is_negative_or_not_finite(weight):
    with pytest.raises(InvalidParameter):
        generate_instance(6, 20, 0.5, {"--": weight, "-+": 2.0, "+-": 0.0, "++": 0.0}, 1)


@pytest.mark.parametrize(
    "args, name",
    [
        ((5.0, 3, 0.5), "^n must"),
        ((5, 3.0, 0.5), "^m must"),
        ((True, 3, 0.5), "^n must"),
        ((5, 3, "0.5"), "^x_frac must"),
        ((5, 3, None), "^x_frac must"),
        ((5, 3, 0.5, {"--": "1", "-+": 1, "+-": 1, "++": 1}), "^sign_dist weight"),
        ((5, 3, 0.5, {"--": None, "-+": 1, "+-": 1, "++": 1}), "^sign_dist weight"),
        ((5, 5, 0.2, "ab", 1), "^sign_dist must be a mapping"),
        ((5, 5, 0.2, [1, 2, 3, 4], 1), "^sign_dist must be a mapping"),
        ((5, 5, 0.2, None, [1]), "^seed must"),
    ],
)
def test_generate_instance_rejects_a_parameter_of_the_wrong_type(args, name):
    with pytest.raises(InvalidParameter, match=name):
        generate_instance(*args)


def test_a_sign_prints_as_its_character(tmp_path, capsys):
    plus, minus = bidipath.Sign.PLUS, bidipath.Sign.MINUS
    assert (str(minus), f"{minus}", format(minus, ">3"), "%s" % minus) == ("-", "-", "  -", "-")
    assert (str(plus), f"{plus}", format(plus, ">3"), "%s" % plus) == ("+", "+", "  +", "+")
    assert (repr(minus), repr(plus)) == ("<Sign.MINUS: '-'>", "<Sign.PLUS: '+'>")
    path = tmp_path / "mixed.bgf"
    path.write_text("v a\nv b\nv c\ne a + b -\ne b + c -\nx a c\n")
    assert main(["export-dot", str(path)]) == 0
    assert '  "a" -- "b" [label="+-"];\n' in capsys.readouterr().out
    assert main(["solve", str(path)]) == 0
    assert "  path 1: a -(#0 +-)- b -(#1 +-)- c\n" in capsys.readouterr().out


def test_export_dot_labels(k5_file, capsys):
    assert main(["export-dot", k5_file]) == 0
    out = capsys.readouterr().out
    assert 'label="--"' in out
    assert '"a" [shape=doublecircle];' in out


def test_export_dot_paths_overlay(k5_file, capsys):
    assert main(["export-dot", k5_file, "--overlay", "paths"]) == 0
    out = capsys.readouterr().out
    assert 'color="red"' in out and 'color="blue"' in out


def test_export_dot_hitting_set_overlay(k5_file, capsys):
    # K5 packs two X-paths, yet the overlay draws its Y: no threshold is asked.
    assert main(["export-dot", k5_file, "--overlay", "hitting-set"]) == 0
    out = capsys.readouterr().out
    assert out.count("fillcolor=tomato") == 4
    assert 'color="' not in out  # no path edge is coloured


def test_export_dot_certificate_overlay(tmp_path, capsys):
    path = tmp_path / "star.bgf"
    path.write_text(
        "v c\nv l1\nv l2\nv l3\n"
        "e c - l1 -\ne c + l1 -\ne c - l2 -\ne c + l2 -\ne c - l3 -\ne c + l3 -\n"
        "x l1 l2 l3\n"
    )
    assert main(["export-dot", str(path), "--overlay", "certificate"]) == 0
    out = capsys.readouterr().out
    assert "fillcolor=gold" in out  # the star centre lands in S∩T


def test_export_dot_fills_s_only_and_t_only_vertices():
    instance = parse_instance("v a\nv b\nv c\ne a - b -\n")
    out = bidipath.export_dot(instance, Certificate(frozenset({0}), frozenset({1})))
    assert out.splitlines()[2:5] == [
        '  "a" [style=filled fillcolor=lightblue comment="S"];',
        '  "b" [style=filled fillcolor=lightgreen comment="T"];',
        '  "c";',
    ]


@pytest.mark.parametrize("instance", [
    # v13 lies in Y and in S∪T, so drawing Y over (S, T) would fill it twice.
    generate_instance(14, 30, 0.3, {"--": 3, "-+": 1, "+-": 1, "++": 1}, 0),
    parse_instance(K5_BGF),
])
def test_export_dot_draws_one_overlay_with_one_style_per_vertex(instance):
    solution = solve(instance.graph, instance.x)
    for overlay in (solution.packing, solution.certificate, solution.hitting_set):
        out = bidipath.export_dot(instance, overlay)
        assert not [line for line in out.splitlines() if line.count("style=") > 1]
    path = solution.packing.paths[0]
    with pytest.raises(InvalidParameter, match="cannot draw a SignedPath as an overlay"):
        bidipath.export_dot(instance, path)


def test_verify_reports_agreement(k5_file, capsys):
    assert main(["verify", k5_file, "--format", "machine"]) == 0
    got = machine_lines(capsys.readouterr().out)
    assert got["agreement"] == ["ok"]
    assert got["oracle-packing"] == ["2"]
    assert got["oracle-dual"] == ["2"]


def test_verify_multiple_files_with_jobs(tmp_path, capsys):
    files = []
    for seed in range(3):
        out = tmp_path / f"g{seed}.bgf"
        assert main(
            ["generate", "-n", "6", "-m", "8", "--x-frac", "0.6",
             "--seed", str(seed)]
        ) == 0
        out.write_text(capsys.readouterr().out)
        files.append(str(out))
    assert main(["verify", *files, "--jobs", "2"]) == 0
    report = capsys.readouterr().out
    assert sum(1 for line in report.splitlines() if ": ok (" in line) == 3


def _record_pool_sizes(monkeypatch) -> list[int]:
    """Replace the process pool by an in-process one that records its size."""
    sizes: list[int] = []

    class RecordingPool:
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return sizes


def test_verify_starts_no_more_workers_than_instances(k5_file, capsys, monkeypatch):
    sizes = _record_pool_sizes(monkeypatch)
    assert main(["verify", k5_file, k5_file, "--jobs", "8"]) == 0
    assert main(["verify", k5_file, "--jobs", "8"]) == 0
    assert sizes == [2]  # one instance needs no pool
    assert capsys.readouterr().out.count(": ok (") == 3


def _verify_one_noting_the_collector(path: str, limit: int) -> dict:
    return {**_verify_one(path, limit), "collector": gc.isenabled()}


def test_a_verify_worker_runs_with_the_collector_on(k5_file, capsys, monkeypatch):
    # main pauses the collector, and a forked worker would inherit the pause.
    monkeypatch.setattr("bidipath.cli._verify_one", _verify_one_noting_the_collector)
    assert main(["verify", k5_file, k5_file, "--jobs", "2", "--format", "machine"]) == 0
    assert machine_lines(capsys.readouterr().out)["collector"] == ["True", "True"]


def test_verify_skips_an_oracle_past_its_guard(k5_file, tmp_path, capsys):
    # K5 has more X-paths than --limit 0 lets the packing oracle list; the
    # 12-vertex instance is past both oracles' size guards.
    big = tmp_path / "big.bgf"
    big.write_text("".join(f"v v{i}\n" for i in range(12)) + "e v0 - v1 +\nx v0 v1\n")
    assert main(["verify", k5_file, "--limit", "0", "--format", "machine"]) == 0
    assert capsys.readouterr() == (
        f"instance: {k5_file}\nk: 2\ncertificate: ok\noracle-packing: skipped\n"
        "oracle-dual: 2\nagreement: ok\n",
        "",
    )
    assert main(["verify", str(big)]) == 0
    assert capsys.readouterr() == (
        f"{big}: ok (k = 1, oracle packing = skipped, oracle dual = skipped,"
        " certificate = ok)\n",
        "",
    )


def test_verify_exits_3_when_solver_and_oracle_disagree(k5_file, capsys, monkeypatch):
    monkeypatch.setattr("bidipath.oracle.brute_max_disjoint", lambda g, x, limit: 3)
    assert main(["verify", k5_file]) == 3
    assert capsys.readouterr() == (
        f"{k5_file}: MISMATCH (k = 2, oracle packing = 3, oracle dual = 2,"
        " certificate = ok)\n",
        "bidipath: internal assertion failed: solver and oracle disagree\n",
    )


def test_verify_rejects_jobs_below_one(k5_file, capsys, monkeypatch):
    sizes = _record_pool_sizes(monkeypatch)
    assert main(["verify", k5_file, k5_file, "--jobs", "0"]) == 1
    assert sizes == []
    assert capsys.readouterr().err == "bidipath: --jobs must be at least 1\n"


def test_verify_rejects_a_negative_limit(k5_file, capsys):
    # A negative cap would skip the packing oracle and still report agreement.
    assert main(["verify", k5_file, "--limit", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "bidipath: --limit must be at least 0\n"


def test_non_utf8_instance_is_a_parse_error(tmp_path, capsys, monkeypatch):
    # The bad byte is placed by the line ends the parser counts, so a lone
    # CR ends line 1 as LF and CRLF do, from a file and from stdin alike.
    path = tmp_path / "latin1.bgf"
    for newline in (b"\n", b"\r\n", b"\r"):
        data = b"v a" + newline + b"v b\xff\n"
        path.write_bytes(data)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
        for source in (str(path), "-"):
            assert main(["solve", source]) == 2, (newline, source)
            err = capsys.readouterr().err
            assert err == "bidipath: line 2, column 4: not UTF-8 text: byte 0xff\n", (newline, source)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"v a\xff\n"), "utf-8"))
    assert main(["solve", "-"]) == 2
    err = capsys.readouterr().err
    assert err == "bidipath: line 1, column 4: not UTF-8 text: byte 0xff\n"


# Canonical BGF's characters, and whitespace and line breaks that text may
# also hold: str.splitlines() breaks lines at the last three.
FUZZ_ALPHABET = "vex 0123_-+#\n\t\r\x0c\x85\u2028"
FUZZ_COMMANDS = [["solve", "-"]] + [["hitting-set", "-", "-k", str(k)] for k in range(1, 9)]
FUZZ_BASES = [
    format_instance(generate_instance(12, 20, 0.4, family, seed))
    for family, seed in ((None, 1), ({"--": 1, "-+": 1, "+-": 0, "++": 0}, 2))
]


def run_on_stdin(argv: list[str], text: str) -> tuple[int, str, str]:
    """main(argv) with text on stdin: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(text.encode()), "utf-8")
    with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@lru_cache(maxsize=None)
def base_answers(text: str) -> list[tuple[int, str, str]]:
    return [run_on_stdin(argv, text) for argv in FUZZ_COMMANDS]


@st.composite
def mutated_bgf(draw) -> str:
    """Canonical BGF with runs of characters inserted, deleted or doubled."""
    text = draw(st.sampled_from(FUZZ_BASES))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(("insert", "delete", "duplicate")))
        if kind == "insert":
            text = text[:i] + draw(st.text(FUZZ_ALPHABET, min_size=1, max_size=8)) + text[i:]
        else:
            j = i + draw(st.integers(1, 8))
            text = text[:i] + (text[i:j] * 2 if kind == "duplicate" else "") + text[j:]
    return text


@settings(max_examples=100, deadline=None)
@given(mutated_bgf())
def test_mutated_bgf_keeps_the_exit_code_contract(text):
    for argv in FUZZ_COMMANDS:
        code, _, err = run_on_stdin(argv, text)
        assert code in (0, 1, 2), (argv, err)
        assert err.count("\n") <= 1 and "internal" not in err, (argv, err)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(FUZZ_BASES),
    st.integers(0, 100),
    st.text(FUZZ_ALPHABET.replace("\n", "").replace("\r", ""), max_size=12),
)
def test_a_comment_line_leaves_every_answer_unchanged(text, at, note):
    lines = text.splitlines(keepends=True)
    i = at % len(lines)
    commented = "".join(lines[:i] + [f"#{note}\n"] + lines[i:])
    assert [run_on_stdin(argv, commented) for argv in FUZZ_COMMANDS] == base_answers(text)


def test_non_utf8_bytes_on_real_stdin_are_a_parse_error():
    # Under the C locale the interpreter reads stdin with surrogateescape,
    # which must not let bytes that are not UTF-8 through.
    src = str(Path(bidipath.__file__).resolve().parent.parent)
    env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": src}
    run = subprocess.run(
        [sys.executable, "-m", "bidipath.cli", "solve", "-"],
        input=b"# caf\xe9\nv a\nv b\ne a - b +\nx a b\n",
        capture_output=True, env=env, timeout=60,
    )
    assert run.returncode == 2
    assert run.stderr == b"bidipath: line 1, column 6: not UTF-8 text: byte 0xe9\n"
    assert run.stdout == b""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="RLIMIT_AS caps the address space on Linux only"
)
def test_running_out_of_memory_exits_1_in_one_line():
    # The child alone gets a 1 GiB address space; a billion-vertex instance
    # does not fit in it. Too large an input is a usage error, not a bug.
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY and hard < limit:
        pytest.skip("the address space is capped below the test's limit")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(bidipath.__file__).resolve().parent.parent)
    run = subprocess.run(
        [sys.executable, "-m", "bidipath.cli", "generate", "-n", "1000000000", "-m", "0"],
        capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=60, preexec_fn=cap,
    )
    assert run.returncode == 1
    assert run.stderr == b"bidipath: out of memory\n"
    assert b"internal" not in run.stderr
    assert run.stdout == b""


def test_parse_and_solve_never_add_edges_one_at_a_time(tmp_path, capsys, monkeypatch):
    # The graph's edges arrive in bulk: a per-edge add_edge call on the
    # parse, solve or hitting-set path would fail here.
    instance = generate_instance(300, 1000, 0.2, seed=7)
    path = tmp_path / "i.bgf"
    path.write_text(format_instance(instance))

    def refuse(*args):
        raise AssertionError("add_edge called")

    monkeypatch.setattr(BidirectedMultigraph, "add_edge", refuse)
    assert main(["solve", str(path), "--format", "machine"]) == 0
    k = int(machine_lines(capsys.readouterr().out)["k"][0])
    assert main(["hitting-set", str(path), "-k", str(k + 1), "--format", "machine"]) == 0
    out = machine_lines(capsys.readouterr().out)
    assert out["outcome"] == ["hitting-set"]
    assert out["audit"] == ["no-x-path"]


def audit_clear(g, x, result: HittingSet) -> bool:
    """The hitting-set audit of Solution.hitting_set, on a given Y: the dual
    value of (S ∪ Y, T ∪ Y) on g is |Y|."""
    y = result.y
    return dual_value(g, x, result.s | y, result.t | y) == len(y)


@given(graph_and_x(max_vertices=7, max_edges=14), st.randoms(use_true_random=False))
def test_audit_value_equals_the_literal_evaluation_on_g_minus_y(gx, rng):
    # The audit evaluates (S∪Y, T∪Y) on g; it must read |Y| plus the value
    # of (S∖Y, T∖Y) on the graph with Y deleted.
    g, x = gx
    s, t = random_admissible_pair(rng, g.vertex_count, x)
    y = frozenset(v for v in g.vertices() if rng.random() < 0.3)
    rest, remap = delete_vertices(g, y)

    def kept(vs):
        return {remap[v] for v in vs if v in remap}

    literal = dual_value(rest, kept(x), kept(s), kept(t))
    assert dual_value(g, x, s | y, t | y) == len(y) + literal
    result = HittingSet(y, frozenset(s), frozenset(t))
    assert audit_clear(g, x, result) == (literal == 0)


def test_putting_back_a_vertex_of_y_that_reopens_an_x_path_fails_the_audit():
    failed = 0
    for seed in range(150):
        inst = random_instance(seed, max_n=8)
        result = solve(inst.graph, inst.x).hitting_set
        assert audit_clear(inst.graph, inst.x, result)
        for v in result.y:
            fewer = HittingSet(result.y - {v}, result.s, result.t)
            # Weak duality: a surviving X-path gives g - Y a positive value.
            # Y ⊇ S∩T, so a vertex of S∩T left out adds 1 to that value.
            if v in result.s & result.t or has_x_path(inst.graph, inst.x, fewer.y):
                assert not audit_clear(inst.graph, inst.x, fewer)
                failed += 1
    assert failed > 50


def test_a_hitting_set_that_misses_a_path_exits_3(k5_file, capsys, monkeypatch):
    # One marked vertex per component keeps only S∩T in Y, which misses paths.
    monkeypatch.setattr("bidipath.solver._leave_one_out", lambda marked, roots: [])
    assert main(["hitting-set", k5_file, "-k", "3", "--format", "machine"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # a failed answer is never printed
    assert "hitting-set audit" in captured.err
    assert "Traceback" not in captured.err


def test_a_selection_keeping_every_marked_vertex_fails_the_bound_by_name(
    k5_file, capsys, monkeypatch
):
    # Selecting every marked vertex puts all five of K5's in Y, one more
    # than 2k - |S∩T| = 4.
    monkeypatch.setattr("bidipath.solver._leave_one_out", lambda marked, roots: list(marked))
    assert main(["hitting-set", k5_file, "-k", "3", "--format", "machine"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "bidipath: internal assertion failed: "
        "hitting set of size 5 exceeds the bound 2k - |S∩T| = 4\n"
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_k_above_the_packing_size_gets_the_same_y(tmp_path, capsys, seed):
    path = tmp_path / "inst.bgf"
    path.write_text(format_instance(generate_instance(300, 900, 0.2, None, seed)))
    assert main(["solve", str(path), "--format", "machine"]) == 0
    k = int(machine_lines(capsys.readouterr().out)["k"][0])
    answers = []
    for above in (1, 7):
        argv = ["hitting-set", str(path), "-k", str(k + above), "--format", "machine"]
        assert main(argv) == 0
        answers.append(machine_lines(capsys.readouterr().out))
    assert answers[0]["y"] == answers[1]["y"] and answers[0]["y"][0]
    assert answers[0]["size"] == answers[1]["size"]
    assert [a["bound"] for a in answers] == [[str(2 * k)], [str(2 * k + 12)]]


def test_a_packing_walk_caught_in_a_cycle_exits_3_by_name(tmp_path, capsys, monkeypatch):
    # a = 0, u = 1, b = 2. Pointing 2a at u's + copy 2u+1, whose split edge
    # leads back to 2u and on to 2u+1 again, makes the walk from a cycle.
    path = tmp_path / "cycle.bgf"
    path.write_text("v a\nv u\nv b\ne a - b +\nx a b\n")
    run = _Matcher.run

    def cycling(self, limit=None):
        run(self, limit)
        self.match[0] = 3

    monkeypatch.setattr(_Matcher, "run", cycling)
    assert main(["solve", str(path), "--format", "machine"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "packing walk from X-vertex 0" in captured.err
    assert "Traceback" not in captured.err


def test_a_matching_surplus_unlike_the_paths_walked_exits_3_by_name(
    tmp_path, capsys, monkeypatch
):
    # w = 2 is split into 4 and 5. Unmatching that split pair, which lies on
    # no walk, lowers the surplus to 0 while the walk still finds a-b.
    path = tmp_path / "surplus.bgf"
    path.write_text("v a\nv b\nv w\ne a - b +\nx a b\n")
    run = _Matcher.run

    def unmatching(self, limit=None):
        run(self, limit)
        self.match[4] = self.match[5] = -1

    monkeypatch.setattr(_Matcher, "run", unmatching)
    assert main(["solve", str(path), "--format", "machine"]) == 3
    assert capsys.readouterr() == (
        "",
        "bidipath: internal assertion failed:"
        " matching surplus 0 differs from the 1 X-paths walked\n",
    )


def corrupt_forest(tmp_path, monkeypatch):
    """An instance file whose matcher labels a vertex even outside every tree.

    u = 1 is split into 2 and 3. Its + copy 3 is labelled even before the
    search, though no tree holds it; the first scan, from 2a = 0, meets it.
    """
    path = tmp_path / "forest.bgf"
    path.write_text("v a\nv u\nv b\ne a - u +\ne u - b +\nx a b\n")
    run = _Matcher.run

    def corrupting(self, limit=None):
        self.even[3] = True
        run(self, limit)

    monkeypatch.setattr(_Matcher, "run", corrupting)
    return path


FOREST_FAULT = (
    "",
    "bidipath: internal assertion failed:"
    " forest: an even vertex names root -1, which holds no tree\n",
)


def test_a_vertex_labelled_even_outside_every_tree_exits_3_by_name(tmp_path, capsys, monkeypatch):
    path = corrupt_forest(tmp_path, monkeypatch)
    assert main(["solve", str(path), "--format", "machine"]) == 3
    assert capsys.readouterr() == FOREST_FAULT


def test_a_forest_fault_on_the_threshold_path_exits_3_by_name(tmp_path, capsys, monkeypatch):
    # hitting-set grows the matching with a limit of K augmentations.
    path = corrupt_forest(tmp_path, monkeypatch)
    assert main(["hitting-set", str(path), "-k", "1", "--format", "machine"]) == 3
    assert capsys.readouterr() == FOREST_FAULT


def test_a_lopsided_certificate_fails_the_hitting_set_audit_by_name(k5_file, capsys, monkeypatch):
    # An X-vertex in S only breaks X∩S = X∩T; the audit names that, exit 3.
    found = Solution._checked_dual.func

    def lopsided(self):
        cert, marked, roots = found(self)
        return Certificate(cert.s | {min(self.x - cert.s)}, cert.t), marked, roots

    monkeypatch.setattr(Solution, "_checked_dual", property(lopsided))
    assert main(["hitting-set", k5_file, "-k", "3", "--format", "machine"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err == (
        "bidipath: internal assertion failed: hitting-set audit failed: X ∩ S must equal X ∩ T\n"
    )
    assert "Traceback" not in err


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The caller's collector setting for the test; the old one comes back after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class _Escape(BaseException):
    """An exception main does not catch."""


def _raise(exc):
    def raising(*args, **kwargs):
        raise exc

    return raising


@pytest.mark.parametrize(
    "argv, fault, outcome",
    [
        pytest.param(["solve", "{k5}"], None, 0, id="exit-0"),
        pytest.param(["hitting-set", "{k5}", "-k", "0"], None, 1, id="exit-1"),
        pytest.param(["solve", "{bad}"], None, 2, id="exit-2"),
        pytest.param(["solve", "{k5}"], RuntimeError("boom"), 3, id="exit-3"),
        pytest.param(["solve"], None, SystemExit, id="usage-error"),
        pytest.param(["solve", "{k5}"], _Escape(), _Escape, id="escaping-exception"),
    ],
)
def test_main_leaves_the_collector_as_it_found_it(
    collector, k5_file, tmp_path, capsys, monkeypatch, argv, fault, outcome
):
    bad = tmp_path / "bad.bgf"
    bad.write_text("e a - b +\n")
    argv = [arg.format(k5=k5_file, bad=bad) for arg in argv]
    if fault is not None:
        monkeypatch.setattr("bidipath.cli.solve", _raise(fault))
    if isinstance(outcome, int):
        assert main(argv) == outcome
    else:
        with pytest.raises(outcome):
            main(argv)
    assert gc.isenabled() is collector


def test_the_collector_is_paused_during_a_request(collector, k5_file, capsys, monkeypatch):
    seen = []

    def solve_noting_the_collector(*args):
        seen.append(gc.isenabled())
        return solve(*args)

    monkeypatch.setattr("bidipath.cli.solve", solve_noting_the_collector)
    assert main(["solve", k5_file]) == 0
    assert seen == [False]


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.bgf"
    path.write_text("e a - b +\n")
    assert main(["solve", str(path)]) == 2


def test_stdin_instance(k5_file, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(K5_BGF))
    assert main(["solve", "-", "--format", "machine"]) == 0
    assert machine_lines(capsys.readouterr().out)["k"] == ["2"]


def test_missing_file_is_usage_error(capsys):
    assert main(["solve", "/nonexistent/file.bgf"]) == 1


def test_unreadable_input_is_usage_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == 1  # a directory, not a file
    assert "Traceback" not in capsys.readouterr().err


def test_hitting_set_on_a_long_sign_broken_chain(tmp_path, capsys):
    # One broken sign leaves no X-path; the audit must not search paths.
    path = tmp_path / "chain.bgf"
    path.write_text(format_instance(sign_broken_chain(random.Random(3), 3000)))
    assert main(["hitting-set", str(path), "-k", "1", "--format", "machine"]) == 0
    out = machine_lines(capsys.readouterr().out)
    assert out["outcome"] == ["hitting-set"]
    assert out["size"] == ["0"]
    assert out["audit"] == ["no-x-path"]


def test_hitting_set_on_a_10k_vertex_sign_broken_chain(tmp_path, capsys):
    path = tmp_path / "chain.bgf"
    path.write_text(format_instance(sign_broken_chain(random.Random(5), 10_000)))
    assert main(["hitting-set", str(path), "-k", "1", "--format", "machine"]) == 0
    assert machine_lines(capsys.readouterr().out)["audit"] == ["no-x-path"]


def test_unexpected_error_is_exit_3_without_traceback(k5_file, capsys, monkeypatch):
    def broken_solve(*args, **kwargs):
        raise RuntimeError("solver exploded")

    monkeypatch.setattr("bidipath.cli.solve", broken_solve)
    assert main(["solve", k5_file]) == 3
    err = capsys.readouterr().err
    assert err == "bidipath: internal error: RuntimeError: solver exploded\n"


def test_a_certificate_that_fails_its_check_exits_3_with_the_reason(k5_file, capsys, monkeypatch):
    monkeypatch.setattr("bidipath.solver._dual_roots", lambda *args: (99, [], []))
    assert main(["solve", k5_file, "--format", "machine"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "bidipath: internal assertion failed: certificate check failed:"
        " dual value 99 differs from k = 2\n"
    )


def test_a_packing_that_fails_its_check_exits_3(k5_file, capsys, monkeypatch):
    # a-b and b-c (edges 0 and 4) are X-paths of K5, but they share b.
    shared = (bidipath.SignedPath((0, 1), (0,)), bidipath.SignedPath((1, 2), (4,)))
    monkeypatch.setattr("bidipath.solver._packing", lambda *args: PackingResult(2, shared))
    assert main(["solve", k5_file, "--format", "machine"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "bidipath: internal assertion failed: packing check failed:"
        " path 1 shares a vertex with an earlier path\n"
    )


# sha256 of the exit codes and `--format machine` stdout of `solve` and
# `hitting-set` below, as recorded with the one-forest matcher, whose
# `hitting-set -k K` packing answers print the first K disjoint X–X edges
# when there are K, and else the K paths of a matching grown to K
# augmentations; a faster parse or build must reproduce the rendered bytes,
# not just the library objects.
RECORDED_CLI_DIGEST = "bad8147fcc42b523c4346083899c3474f12a8f5ae8657a7c64dcd03b03c2dd64"
CLI_DIGEST_FAMILIES = (
    None,  # uniform
    {"--": 0, "-+": 1, "+-": 0, "++": 0},  # directed
    {"--": 1, "-+": 0, "+-": 0, "++": 1},  # split
    {"--": 3, "-+": 1, "+-": 1, "++": 1},  # minus-heavy
    {"--": 1, "-+": 0, "+-": 0, "++": 0},  # all-minus
)


def test_cli_output_matches_the_recorded_digest(tmp_path, capsys):
    instances = [
        generate_instance(60, 150, 0.2, family, seed)
        for family in CLI_DIGEST_FAMILIES
        for seed in range(3)
    ]
    instances.append(sign_broken_chain(random.Random(7), 40))
    digest = hashlib.sha256()
    for i, instance in enumerate(instances):
        path = tmp_path / f"i{i}.bgf"
        path.write_text(format_instance(instance))
        for argv in (["solve"], ["hitting-set", "-k", "1"], ["hitting-set", "-k", "4"],
                     ["hitting-set", "-k", "9"]):
            code = main([argv[0], str(path), *argv[1:], "--format", "machine"])
            digest.update(f"{argv} {code}\n".encode())
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == RECORDED_CLI_DIGEST


# sha256 of the BGF text of the instances below: any change to how `generate`
# draws must reproduce these bytes. n sits on both sides of powers of two,
# where the rejection loops behind the endpoint draws retry least and most.
RECORDED_GENERATE_DIGEST = "ed8f30b3010f2b841d28844c9e51c576274ebfcc76447f689ce3a1e55147c134"


def generate_digest_instances():
    """The instances whose BGF text the generate digest pins, in order."""
    seed = 0
    for family in (*CLI_DIGEST_FAMILIES[:4], {"--": 0, "-+": 2.5, "+-": 1, "++": 0}):
        for n in (1, 2, 3, 16, 17, 31, 33, 1500):
            for m in (0, 3 * n) if n > 1 else (0,):
                for x_frac in (0, 0.2, 1):
                    seed += 1
                    yield generate_instance(n, m, x_frac, family, seed)


def test_generate_output_matches_the_recorded_digest():
    digest = hashlib.sha256()
    for instance in generate_digest_instances():
        digest.update(format_instance(instance).encode())
    assert digest.hexdigest() == RECORDED_GENERATE_DIGEST


def test_generate_appends_only_edges_that_add_edges_accepts():
    # generate appends its draws unchecked: every one must pass the checks
    # it skips, and come out as the same lists.
    for instance in generate_digest_instances():
        g = instance.graph
        ends = [list(column) for column in zip(*g.edge_ends())] or [[], [], [], []]
        again = BidirectedMultigraph()
        again.add_vertices(g.vertex_count)
        assert again.add_edges(*ends) == range(g.edge_count)
        assert list(again.edge_ends()) == list(g.edge_ends())


# sha256 of the same requests' exit codes and stdout without the `path:`
# lines, which are all that a different maximum matching may change: no new
# search may move it.
RECORDED_CLI_INVARIANT_DIGEST = "8bb74f9511b6a1c1afa20ab45cc7b0f6f1ebbe35ba2957e38c11c37364457d17"


def test_cli_output_but_the_paths_matches_the_recorded_digest(tmp_path, capsys):
    instances = [
        generate_instance(60, 150, 0.2, family, seed)
        for family in CLI_DIGEST_FAMILIES
        for seed in range(3)
    ]
    instances.append(sign_broken_chain(random.Random(7), 40))
    digest = hashlib.sha256()
    for i, instance in enumerate(instances):
        path = tmp_path / f"i{i}.bgf"
        path.write_text(format_instance(instance))
        for argv in (["solve"], ["hitting-set", "-k", "1"], ["hitting-set", "-k", "4"],
                     ["hitting-set", "-k", "9"]):
            code = main([argv[0], str(path), *argv[1:], "--format", "machine"])
            digest.update(f"{argv} {code}\n".encode())
            out = capsys.readouterr().out.splitlines(keepends=True)
            digest.update("".join(line for line in out if not line.startswith("path:")).encode())
    assert digest.hexdigest() == RECORDED_CLI_INVARIANT_DIGEST
