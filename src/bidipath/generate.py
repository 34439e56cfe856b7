"""Reproducible random instance supply for tests and the CLI."""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect
from collections.abc import Mapping

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
        if not 0 <= weight < math.inf:
            raise InvalidParameter(f"weight in {part!r} must be finite and non-negative")
        weights[pair] += weight
    if not 0 < sum(weights.values()) < math.inf:
        raise InvalidParameter("sign distribution must have a positive finite total weight")
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
    for name, value in (("n", n), ("m", m)):
        if type(value) is not int:
            raise InvalidParameter(f"{name} must be an int, not {value!r}")
    if type(x_frac) not in (int, float):
        raise InvalidParameter(f"x_frac must be an int or a float, not {x_frac!r}")
    if n < 1:
        raise InvalidParameter("n must be at least 1")
    if m < 0:
        raise InvalidParameter("m must be non-negative")
    if not 0 <= x_frac <= 1:
        raise InvalidParameter("x_frac must lie in [0, 1]")
    if n == 1 and m > 0:
        raise InvalidParameter("a single vertex admits no loop-free edges")
    if sign_dist is not None and not isinstance(sign_dist, Mapping):
        raise InvalidParameter(f"sign_dist must be a mapping, not {sign_dist!r}")
    weights = dict.fromkeys(SIGN_PAIRS, 1.0) if sign_dist is None else dict(sign_dist)
    if set(weights) != set(SIGN_PAIRS):
        raise InvalidParameter("sign_dist must weight exactly the four sign pairs")
    for pair, weight in weights.items():
        if type(weight) not in (int, float):
            raise InvalidParameter(
                f"sign_dist weight {weight!r} of {pair!r} is not an int or a float"
            )
    if not all(0 <= w < math.inf for w in weights.values()) or not (
        0 < sum(weights.values()) < math.inf
    ):
        raise InvalidParameter(
            "sign_dist weights must be finite and non-negative, with a positive finite total"
        )

    try:
        rng = random.Random(seed)
    except TypeError:
        raise InvalidParameter(f"seed must be an int, float, str or bytes, not {seed!r}") from None
    graph = BidirectedMultigraph()
    graph.add_vertices(n)
    sign_pairs = [(Sign(p[0]), Sign(p[1])) for p in SIGN_PAIRS]
    # The draws below are `rng.randrange(n)`, `rng.randrange(n - 1)` and
    # `rng.choices(sign_pairs, weights)[0]` written out as `random.Random`
    # makes them (3.10-3.13): the same calls to getrandbits() and random(),
    # so the same instances, without three Python-level calls per edge.
    getrandbits, rand = rng.getrandbits, rng.random
    u_bits, v_bits = n.bit_length(), (n - 1).bit_length()
    cum = list(itertools.accumulate(weights[p] for p in SIGN_PAIRS))
    total = cum[-1] + 0.0
    us, sus, vs, svs = [], [], [], []
    for _ in range(m):
        u = getrandbits(u_bits)
        while u >= n:
            u = getrandbits(u_bits)
        v = getrandbits(v_bits)
        while v >= n - 1:
            v = getrandbits(v_bits)
        if v >= u:
            v += 1
        sign_u, sign_v = sign_pairs[bisect(cum, rand() * total, 0, 3)]
        us.append(u)
        sus.append(sign_u)
        vs.append(v)
        svs.append(sign_v)
    graph.add_edges(us, sus, vs, svs)
    x_size = math.ceil(x_frac * n)
    x = frozenset(rng.sample(range(n), x_size))
    return Instance.from_graph(graph.freeze(), x)
