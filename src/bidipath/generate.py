"""Reproducible random instance supply for tests and the CLI."""

from __future__ import annotations

import math
import random

from .bgf import Instance
from .core import BidirectedMultigraph, Sign
from .errors import InvalidParameter

SIGN_PAIRS = ("--", "-+", "+-", "++")


def parse_sign_dist(text: str) -> dict[str, float]:
    """Parse a weight string like '--:2,-+:1'; unmentioned pairs get weight 0."""
    weights = dict.fromkeys(SIGN_PAIRS, 0.0)
    for part in text.split(","):
        pair, sep, raw = part.partition(":")
        if not sep or pair not in SIGN_PAIRS:
            raise InvalidParameter(
                f"bad sign-distribution entry {part!r}; "
                f"expected PAIR:WEIGHT with PAIR one of {', '.join(SIGN_PAIRS)}"
            )
        try:
            weight = float(raw)
        except ValueError:
            raise InvalidParameter(f"bad weight {raw!r} in {part!r}") from None
        if weight < 0:
            raise InvalidParameter(f"negative weight in {part!r}")
        weights[pair] += weight
    if sum(weights.values()) <= 0:
        raise InvalidParameter("sign distribution must have positive total weight")
    return weights


def generate_instance(
    n: int,
    m: int,
    x_frac: float,
    sign_dist: dict[str, float] | None = None,
    seed: int = 0,
) -> Instance:
    """A random loop-free instance: identical parameters give identical output.

    n vertices, m edges with signs drawn from sign_dist (uniform over the
    four pairs when omitted), and ceil(x_frac * n) X-vertices sampled with
    the same generator.
    """
    if n < 1:
        raise InvalidParameter("n must be at least 1")
    if m < 0:
        raise InvalidParameter("m must be non-negative")
    if not 0 <= x_frac <= 1:
        raise InvalidParameter("x_frac must lie in [0, 1]")
    if n == 1 and m > 0:
        raise InvalidParameter("a single vertex admits no loop-free edges")
    weights = dict.fromkeys(SIGN_PAIRS, 1.0) if sign_dist is None else dict(sign_dist)
    if set(weights) != set(SIGN_PAIRS) or sum(weights.values()) <= 0:
        raise InvalidParameter("sign_dist must weight exactly the four sign pairs")

    rng = random.Random(seed)
    graph = BidirectedMultigraph()
    graph.add_vertices(n)
    pair_weights = [weights[p] for p in SIGN_PAIRS]
    sign_pairs = [(Sign(p[0]), Sign(p[1])) for p in SIGN_PAIRS]
    us, sus, vs, svs = [], [], [], []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        sign_u, sign_v = rng.choices(sign_pairs, weights=pair_weights)[0]
        us.append(u)
        sus.append(sign_u)
        vs.append(v)
        svs.append(sign_v)
    graph.add_edges(us, sus, vs, svs)
    x_size = math.ceil(x_frac * n)
    x = frozenset(rng.sample(range(n), x_size))
    return Instance.from_graph(graph.freeze(), x)
