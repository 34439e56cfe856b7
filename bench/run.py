"""End-to-end benchmark of `bidipath solve` and `bidipath hitting-set`.

    python3 bench/run.py --workload solve-small --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1             # every workload, one process each
    python3 bench/run.py --quick [--trace 1]  # smoke test: tiny inputs, no timing asserted

Run from the root of a source checkout; the program is imported from its
`src/`. A request is one in-process call of `bidipath.cli.main(argv)` in
`--format machine`, sent by one client in a closed loop (the next request
leaves when the previous one returns) for `--seconds`, in a fresh process
per run. Every output is checked after the timer stops. A request fails on
a nonzero exit code, an exception escaping `main`, a missed deadline, or
output that fails its check; a failure counts at the deadline in the
latency figures. A missed deadline is a counted failure; any other failure
makes the run report `"correct": false` and exit 1. `setup_s` runs from
process start to the first request, and is the median of SETUP_ROUNDS
fresh processes.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json; `--trace 1`
runs each request untraced and then traced, and prints the per-layer
metrics. The last line of standard output is one JSON object; details (the
tail percentile, each failure and its cause, the git revision) go to the
lines before it and to `.bench_build/results/`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_ROUNDS = 3  # set-ups per --trace 0 run, each in a fresh process
PROGRAM_MODULES = ("bgf", "cli", "core", "errors", "generate", "solver")

sys.path.insert(0, str(BENCH))
import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class DeadlineExceeded(BaseException):
    """Raised into a request by SIGALRM; BaseException so no handler in the
    program can swallow it."""


def _alarm(signum, frame):
    raise DeadlineExceeded


def import_program():
    """The checkout's `bidipath`, with the submodules the harness calls."""
    sys.path.insert(0, str(ROOT / "src"))
    for name in PROGRAM_MODULES:
        importlib.import_module(f"bidipath.{name}")
    return sys.modules["bidipath"]


def git_revision() -> str:
    """HEAD, marked `-dirty` if tracked files differ from it; `unknown`
    outside a git checkout."""
    try:
        return subprocess.run(
            ["git", f"--git-dir={ROOT / '.git'}", f"--work-tree={ROOT}",
             "describe", "--always", "--dirty", "--abbrev=40"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def send(bp, argv, deadline, tracer=None, request=-1):
    """One request: (failure cause or None, seconds, captured stdout)."""
    out = io.StringIO()
    code = cause = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                if tracer is None:
                    code = bp.cli.main(list(argv))
                else:
                    code = tracer.call(request, lambda: bp.cli.main(list(argv)))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            cause = "deadline"
        except SystemExit as exc:
            code = exc.code
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # a crash is a counted failure, not the end of the run
            cause = type(exc).__name__
    elapsed = time.perf_counter() - start
    if cause is None and code != 0:
        cause = f"exit {code}"
    return cause, elapsed, out.getvalue()


def tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_workload(args, spec) -> int:
    seed = args.seed
    bp = import_program()
    work = workloads.build(
        bp, args.workload, seed, args.quick,
        ROOT / ".bench_build" / "inputs" / f"{args.workload}-{seed}",
    )
    tracer = spans.Tracer(bp) if args.trace else None
    requests = work.requests
    results = []  # (request index, traced, cause, seconds, stdout)
    signal.signal(signal.SIGALRM, _alarm)
    setups = [*args.prior_setups, time.monotonic() - args.started_at]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[-1]}))
        return 0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < args.seconds:
        request = requests[i % len(requests)]
        results.append((i, False, *send(bp, request.argv, work.deadline_s)))
        if tracer:
            results.append((i, True, *send(bp, request.argv, work.deadline_s, tracer, i)))
        i += 1
    wall = time.perf_counter() - start
    signal.signal(signal.SIGALRM, signal.SIG_DFL)

    checker = check.Checker(bp, work.paths)
    reasons = {}
    for j in sorted(range(len(results)), key=lambda j: requests[results[j][0] % len(requests)].instance):
        index, _, cause, _, stdout = results[j]
        if cause is None:
            reasons[j] = checker.check(requests[index % len(requests)], stdout)
    # Only a missed deadline is a counted failure; a wrong output, a crash
    # or a nonzero exit makes the run incorrect.
    failures, errors = [], {}
    latencies, ok_edges, ok_seconds = [], 0, {}
    for j, (index, traced, cause, seconds, stdout) in enumerate(results):
        request = requests[index % len(requests)]
        if cause is None and reasons[j] is not None:
            cause = f"check: {reasons[j]}"
        if cause not in (None, "deadline"):
            errors[request.argv] = cause
        if cause is None:
            ok_edges += request.edges
            ok_seconds[(index, traced)] = seconds
        else:
            failures.append({"argv": " ".join(request.argv), "cause": cause, "seconds": seconds})
        if not traced:
            latencies.append(seconds if cause is None else max(seconds, work.deadline_s))

    p50 = statistics.median(latencies)
    tail_s, tail_pct = tail(latencies)
    if tracer:
        pairs = [(ok_seconds[(i, False)], ok_seconds[(i, True)])
                 for i in range(len(latencies)) if (i, False) in ok_seconds and (i, True) in ok_seconds]
        layers = tracer.layer_metrics(len(latencies))
        layers["trace.overhead_frac"] = (
            sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1 if pairs else 0.0
        )
        layers["trace.requests"] = len(latencies)
        values = layers
    else:
        values = {
            "latency_p50_s": p50,
            "latency_tail_s": tail_s,
            "throughput_edges_per_s": ok_edges / wall,
            "success_frac": 1 - len(failures) / len(results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}

    causes: dict[str, int] = {}
    for failure in failures:
        causes[failure["cause"]] = causes.get(failure["cause"], 0) + 1
    detail = {
        "workload": args.workload, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "quick": args.quick, "revision": git_revision(), "deadline_s": work.deadline_s,
        "instances": len(work.paths), "requests": len(latencies), "wall_s": wall,
        "latency_tail_percentile": tail_pct, "latency_samples": len(latencies),
        "failed_frac": len(failures) / len(results), "failure_causes": causes,
        "setup_rounds_s": setups, "latencies_s": latencies, "failures": failures, "metrics": metrics,
    }
    out_dir = ROOT / ".bench_build" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        with open(out_dir / f"{stem}.spans.jsonl", "w") as out:
            for record in tracer.records():
                out.write(json.dumps(record) + "\n")

    print(f"workload {args.workload}  seed {seed}  revision {detail['revision'][:12]}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  tail = p{tail_pct:.1f} of {len(latencies)} requests; failures {causes or 'none'}")
    for argv, cause in errors.items():
        print(f"  ERROR {cause}: {' '.join(argv)}")
    print(json.dumps({
        "correct": not errors, "attempted": len(results), "failed": len(failures), "metrics": metrics,
    }))
    return 0 if not errors else 1


def launch(args) -> int:
    """Run the workload in a fresh process. With --trace 0, SETUP_ROUNDS - 1
    fresh processes that only set up come first, and setup_s is the median
    over all of them of the time from process start to the first request."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        argv.append("--quick")
    prior = []
    for _ in range(0 if args.trace else SETUP_ROUNDS - 1):
        child = subprocess.run([*argv, "--setup-only", "--started-at", repr(time.monotonic())],
                               capture_output=True, text=True, cwd=ROOT)
        if child.returncode != 0:
            print(f"{args.workload}: set-up failed (exit {child.returncode})\n{child.stderr}",
                  file=sys.stderr)
            return 1
        prior.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    argv += ["--prior-setups", *map(repr, prior), "--started-at", repr(time.monotonic())]
    return subprocess.run(argv, cwd=ROOT).returncode


def run_all(args) -> int:
    """Each workload in its own processes; prints every metric with its unit."""
    status = 0
    for name in workloads.WORKLOADS:
        args.workload = name
        status |= launch(args)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs; proves the harness")
    # Set by launch() for the workload processes it starts.
    parser.add_argument("--started-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--prior-setups", type=float, nargs="*", default=[], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else spec["run_seconds"]
    if not (ROOT / "src" / "bidipath" / "__init__.py").is_file():
        print(f"no bidipath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.started_at is None:
        return launch(args)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
