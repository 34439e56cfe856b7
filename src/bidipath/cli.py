"""Command-line interface: solve, hitting-set, convert, generate, export-dot, verify.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 internal assertion
failure (a certified quantity failed to verify, or any other unexpected
error; either indicates a bug).
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .bgf import _NAME, Instance, _column, format_instance, parse_instance
from .core import from_digraph, from_undirected
from .dot import export_dot
from .errors import (
    BidipathError,
    DuplicateVertex,
    InternalDualityMismatch,
    InvalidParameter,
    LimitExceeded,
    LoopRejected,
    ParseError,
    UnknownVertex,
)
from .generate import generate_instance, parse_sign_dist
from .solver import HittingSet, paths_or_hitting_set, solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3

_PARSE_ERRORS = (ParseError, LoopRejected, UnknownVertex, DuplicateVertex)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    try:
        if path == "-":
            if not hasattr(sys.stdin, "buffer"):  # an in-memory text stream
                return sys.stdin.read()
            # Decode the bytes here: the stream's own error handler may be
            # surrogateescape, which would let bytes that are not UTF-8 in.
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # read() decodes the whole input at once, so exc.object is all of it.
        data, start = exc.object, exc.start
        line_start = data.rfind(b"\n", 0, start) + 1
        raise ParseError(
            f"not UTF-8 text: byte {data[start]:#04x}",
            data.count(b"\n", 0, start) + 1,
            len(data[line_start:start].decode("utf-8")) + 1,
        ) from None


def _render_path(instance: Instance, path) -> str:
    tokens = [instance.names[path.vertices[0]]]
    for eid, v in zip(path.edges, path.vertices[1:]):
        tokens.append(f"#{eid}")
        tokens.append(instance.names[v])
    return " ".join(tokens)


def _render_path_human(instance: Instance, path) -> str:
    g = instance.graph
    tokens = [instance.names[path.vertices[0]]]
    for i, eid in enumerate(path.edges):
        u, v = path.vertices[i], path.vertices[i + 1]
        tokens.append(f"-(#{eid} {g.sign(u, eid)}{g.sign(v, eid)})-")
        tokens.append(instance.names[v])
    return " ".join(tokens)


def _render_set(instance: Instance, vs) -> str:
    return " ".join(instance.names[v] for v in sorted(vs))


def _cmd_solve(args) -> int:
    instance = parse_instance(_read_text(args.instance))
    solution = solve(instance.graph, instance.x)
    packing, cert = solution.packing, solution.certificate  # reading cert checks it
    if args.format == "machine":
        print(f"k: {packing.k}")
        for path in packing.paths:
            print(f"path: {_render_path(instance, path)}")
        print(f"s: {_render_set(instance, cert.s)}")
        print(f"t: {_render_set(instance, cert.t)}")
        print(f"value: {packing.k}")
        print("certificate: ok")
    else:
        g = instance.graph
        print(
            f"instance: {g.vertex_count} vertices, {g.edge_count} edges, "
            f"|X| = {len(instance.x)}"
        )
        print(f"maximum disjoint X-paths: k = {packing.k}")
        for i, path in enumerate(packing.paths, start=1):
            print(f"  path {i}: {_render_path_human(instance, path)}")
        print(
            f"certificate: S = {{{_render_set(instance, cert.s)}}}, "
            f"T = {{{_render_set(instance, cert.t)}}}, value = {packing.k}"
        )
        print("certificate check: ok")
    return EXIT_OK


def _cmd_hitting_set(args) -> int:
    if args.k < 1:
        raise InvalidParameter("the hitting-set bound 2k-2 requires k >= 1")
    instance = parse_instance(_read_text(args.instance))
    result = paths_or_hitting_set(instance.graph, instance.x, args.k)
    if not isinstance(result, HittingSet):  # K paths; the dual is never read
        if args.format == "machine":
            print("outcome: packing")
            print(f"k: {args.k}")
            for path in result:
                print(f"path: {_render_path(instance, path)}")
        else:
            print(f"{args.k} disjoint X-paths exist:")
            for i, path in enumerate(result, start=1):
                print(f"  path {i}: {_render_path_human(instance, path)}")
        return EXIT_OK
    if args.format == "machine":
        print("outcome: hitting-set")
        print(f"k: {args.k}")
        print(f"y: {_render_set(instance, result.y)}")
        print(f"size: {len(result.y)}")
        print(f"bound: {2 * args.k - 2}")
        print("audit: no-x-path")
    else:
        print(f"fewer than {args.k} disjoint X-paths; hitting set found:")
        print(f"  Y = {{{_render_set(instance, result.y)}}}")
        print(f"  |Y| = {len(result.y)} <= 2k-2 = {2 * args.k - 2}")
        print("  audit (no X-path once Y removed): ok")
    return EXIT_OK


def _parse_edge_list(text: str) -> tuple[list[str], list[tuple[int, int]]]:
    names: list[str] = []
    ids: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        if raw.lstrip().startswith("#") or not raw.split():
            continue
        tokens = raw.split()
        if len(tokens) != 2:
            raise ParseError("expected: U V", number, 1)
        for index, name in enumerate(tokens):
            if not _NAME.match(name):
                raise ParseError(f"invalid vertex name {name!r}", number, _column(raw, index))
            if name not in ids:
                ids[name] = len(names)
                names.append(name)
        u, v = ids[tokens[0]], ids[tokens[1]]
        if u == v:
            raise LoopRejected(f"line {number}: loop at {tokens[0]!r}")
        pairs.append((u, v))
    return names, pairs


def _cmd_convert(args) -> int:
    names, pairs = _parse_edge_list(_read_text(args.input))
    if args.mode == "digraph":
        graph = from_digraph(len(names), pairs)
    else:
        graph = from_undirected(len(names), pairs)
    instance = Instance.from_graph(graph.freeze(), frozenset(), tuple(names))
    sys.stdout.write(format_instance(instance))
    return EXIT_OK


def _cmd_generate(args) -> int:
    sign_dist = parse_sign_dist(args.sign_dist) if args.sign_dist else None
    instance = generate_instance(args.n, args.m, args.x_frac, sign_dist, args.seed)
    sys.stdout.write(format_instance(instance))
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    instance = parse_instance(_read_text(args.instance))
    packing = cert = hitting = None
    if args.overlay is not None:
        solution = solve(instance.graph, instance.x)
        if args.overlay == "paths":
            packing = solution.packing
        elif args.overlay == "certificate":
            cert = solution.certificate
        else:
            hitting = solution.hitting_set
    sys.stdout.write(export_dot(instance, packing, cert, hitting))
    return EXIT_OK


def _verify_one(path: str, limit: int) -> dict:
    from . import oracle  # only verify runs the oracles

    instance = parse_instance(_read_text(path))
    g, x = instance.graph, instance.x
    solution = solve(g, x)
    k = solution.packing.k
    solution.certificate  # reading it checks the dual pair; a failed check raises
    report: dict = {"instance": path, "k": k, "certificate": "ok"}
    ok = True
    try:
        report["oracle-packing"] = oracle.brute_max_disjoint(g, x, limit=limit)
        ok = report["oracle-packing"] == k
    except LimitExceeded:
        report["oracle-packing"] = "skipped"
    try:
        value, _, _ = oracle.brute_dual_min(g, x)
        report["oracle-dual"] = value
        ok = ok and value == k
    except LimitExceeded:
        report["oracle-dual"] = "skipped"
    report["agreement"] = "ok" if ok else "MISMATCH"
    return report


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        raise InvalidParameter("--jobs must be at least 1")
    if args.limit < 0:
        raise InvalidParameter("--limit must be at least 0")
    # The pool starts all its workers at once: never more than there is work for.
    workers = min(args.jobs, len(args.instances))
    if workers > 1:
        import concurrent.futures  # only verify uses a pool

        # A forked worker would inherit main's pause for its whole life, and
        # it runs the exponential oracles: give it the collector back.
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=gc.enable
        ) as pool:
            reports = list(pool.map(_verify_one, args.instances, [args.limit] * len(args.instances)))
    else:
        reports = [_verify_one(path, args.limit) for path in args.instances]
    failed = False
    for report in reports:
        if args.format == "machine":
            for key, value in report.items():
                print(f"{key}: {value}")
        else:
            print(
                f"{report['instance']}: {report['agreement']} "
                f"(k = {report['k']}, oracle packing = {report['oracle-packing']}, "
                f"oracle dual = {report['oracle-dual']}, "
                f"certificate = {report['certificate']})"
            )
        failed = failed or report["agreement"] != "ok"
    if failed:
        raise InternalDualityMismatch("solver and oracle disagree")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bidipath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_format(p):
        p.add_argument(
            "--format", choices=("human", "machine"), default="human",
            help="human-readable prose or line-oriented key:value output",
        )

    p = sub.add_parser("solve", help="maximum disjoint X-paths with certificate")
    p.add_argument("instance", help="BGF file, or - for stdin")
    add_format(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("hitting-set", help="k disjoint paths or a hitting set of size <= 2k-2")
    p.add_argument("instance", help="BGF file, or - for stdin")
    p.add_argument("-k", type=int, required=True, help="number of disjoint paths asked for (k >= 1)")
    add_format(p)
    p.set_defaults(func=_cmd_hitting_set)

    p = sub.add_parser("convert", help="encode a directed or undirected edge list as BGF")
    p.add_argument("input", help="edge-list file (one 'U V' pair per line), or - for stdin")
    p.add_argument("--mode", choices=("digraph", "undirected"), required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("generate", help="emit a reproducible random instance")
    p.add_argument("-n", type=int, required=True, help="vertex count")
    p.add_argument("-m", type=int, required=True, help="edge count")
    p.add_argument("--x-frac", type=float, default=0.5, help="fraction of vertices in X")
    p.add_argument(
        "--sign-dist",
        help="weights like '--:2,-+:1' (default uniform); a value that starts"
        " with '-' needs the = form, --sign-dist='--:2,-+:1'",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("export-dot", help="render the instance as DOT")
    p.add_argument("instance", help="BGF file, or - for stdin")
    p.add_argument("--overlay", choices=("paths", "certificate", "hitting-set"))
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("verify", help="cross-check the solver against the oracles")
    p.add_argument("instances", nargs="+", help="BGF files")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--limit", type=int, default=5000, help="oracle enumeration cap")
    add_format(p)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused for the request: the solver
    allocates no reference cycles, yet in a long-lived caller a full
    collection walks the caller's whole heap. The caller's setting is
    restored on every exit path, argparse's SystemExit included.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _PARSE_ERRORS as exc:
        print(f"bidipath: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InternalDualityMismatch as exc:
        print(f"bidipath: internal assertion failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (OSError, BidipathError) as exc:  # OSError: an unreadable input file
        print(f"bidipath: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # any other escape is a bug: one line, no traceback
        print(f"bidipath: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
