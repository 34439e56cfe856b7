"""Seeded inputs for the benchmark workloads.

Each workload is a list of instances, each with the command lines sent for
it. The seed fixes every instance; the files are written before timing
starts, and the program only ever sees those files. Instances are made one
at a time and not kept, so the benchmark's own memory stays small next to
the program's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Sign distribution (None = uniform over the four pairs) and |X| / n.
FAMILIES = {
    "uniform": (None, 0.2),
    "directed": ({"--": 0, "-+": 1, "+-": 0, "++": 0}, 0.1),
    "split": ({"--": 1, "-+": 0, "+-": 0, "++": 1}, 0.2),
    "minus-heavy": ({"--": 3, "-+": 1, "+-": 1, "++": 1}, 0.2),
}


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    instance: int
    edges: int


@dataclass(frozen=True)
class Workload:
    deadline_s: float
    paths: tuple[Path, ...]  # one BGF file per instance
    requests: tuple[Request, ...]


def _random(bp, rng: random.Random, n: int, family: str):
    sign_dist, x_frac = FAMILIES[family]
    return bp.generate.generate_instance(n, 3 * n, x_frac, sign_dist, rng.randrange(2**31))


def sign_broken_chain(bp, rng: random.Random, length: int):
    """A path v0 ... v(L-1) with X = {v0, v(L-1)} whose signs alternate at
    every internal vertex except one, so no X-path exists (k = 0)."""
    core = bp.core
    g = core.BidirectedMultigraph()
    g.add_vertices(length)
    signs = (core.MINUS, core.PLUS)
    far = [rng.choice(signs) for _ in range(length - 1)]
    near = [rng.choice(signs)] + [far[i - 1].opposite() for i in range(1, length - 1)]
    broken = rng.randrange(1, length - 1)
    near[broken] = far[broken - 1]
    for i in range(length - 1):
        g.add_edge(i, near[i], i + 1, far[i])
    return bp.bgf.Instance.from_graph(g.freeze(), {0, length - 1})


def _solve_small(bp, rng, quick):
    # One size from each of `count` equal slices of [low, high], shuffled, so
    # every seed sends the same spread of sizes.
    count, low, high = (4, 8, 16) if quick else (96, 40, 200)
    sizes = [low + int((high - low + 1) * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(sizes)
    families = list(FAMILIES)
    for i, n in enumerate(sizes):
        yield _random(bp, rng, n, families[i % 4]), [("solve",)]


def _solve_large(bp, rng, quick):
    for i in range(2 if quick else 48):
        n = 30 if quick else 1500
        yield _random(bp, rng, n, ("uniform", "directed")[i % 2]), [("solve",)]


def _hitting_set(bp, rng, quick):
    # Four mixed-sign instances asked for k = 1, then one sign-broken chain
    # asked for k = 1 and k = |X|/2 + 1 = 2, repeated. The random instances
    # answer with a packing; the chains have no X-path, so both queries
    # answer with a hitting set and run the has_x_path audit, which is
    # quadratic on a chain. The chains stay below the interpreter's recursion
    # limit. No instance here is asked for a hitting set at random: at the
    # seed that audit runs for minutes on 0.5-2% of instances even at n = 50
    # to 100, and no request of a workload may fail.
    for i in range(10 if quick else 120):
        if i % 5 == 4:
            instance = sign_broken_chain(bp, rng, rng.randint(10, 20) if quick else rng.randint(300, 500))
            ks = (1, len(instance.x) // 2 + 1)
        else:
            instance = _random(bp, rng, rng.randint(12, 24) if quick else 600, "uniform")
            ks = (1,)
        yield instance, [("hitting-set", "-k", str(k)) for k in ks]


# name -> (per-request deadline in seconds, instance builder)
WORKLOADS = {
    "solve-small": (2.0, _solve_small),
    "solve-large": (10.0, _solve_large),
    "hitting-set": (2.0, _hitting_set),
}


def build(bp, name: str, seed: int, quick: bool, directory: Path) -> Workload:
    """Generate the workload's instances from the seed and write them as BGF."""
    deadline, builder = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    paths, requests = [], []
    for index, (instance, commands) in enumerate(builder(bp, rng, quick)):
        path = directory / f"i{index:03d}.bgf"
        path.write_text(bp.bgf.format_instance(instance), encoding="utf-8")
        paths.append(path)
        for command in commands:
            argv = (command[0], str(path), *command[1:], "--format", "machine")
            requests.append(Request(argv, index, instance.graph.edge_count))
    return Workload(deadline, tuple(paths), tuple(requests))
