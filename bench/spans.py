"""Spans around the public functions of each bidipath layer.

The program is not changed: each function is wrapped at the name its
consuming module imported it under (a call from `cli` into the solver
goes through `bidipath.cli.<name>`, a call inside `solver` through
`bidipath.solver.<name>`, and so on), and the wrappers are in place only
while a traced request runs. A site missing from the program is skipped, so
its calls read 0.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


def _bytes(args, kwargs, result):
    return {"bytes": len(args[0].encode("utf-8"))}


def _auxiliary(args, kwargs, result):
    return {"vertices": result.graph.vertex_count, "edges": result.graph.edge_count}


def _matching(args, kwargs, result):
    h = args[0]
    seed = frozenset(kwargs.get("seed", args[1] if len(args) > 1 else ()))
    return {
        "exposed_roots": h.vertex_count - 2 * len(seed),
        "augmentations": len(result) - len(seed),
    }


# (module, attribute, span name, counter); the root span is `cli.main`.
SITES = (
    ("cli", "main", "cli", None),
    ("cli", "parse_instance", "bgf.parse_instance", _bytes),
    ("cli", "max_disjoint_x_paths", "solver.max_disjoint_x_paths", None),
    ("cli", "certificate", "solver.certificate", None),
    ("cli", "verify_certificate", "solver.verify_certificate", None),
    ("cli", "hitting_set", "solver.hitting_set", None),
    ("cli", "has_x_path", "solver.has_x_path", None),
    ("solver", "max_disjoint_x_paths", "solver.max_disjoint_x_paths", None),
    ("solver", "certificate", "solver.certificate", None),
    ("solver", "build_auxiliary", "auxiliary.build_auxiliary", _auxiliary),
    ("solver", "maximum_matching", "matching.maximum_matching", _matching),
    ("solver", "alternating_components", "matching.alternating_components", None),
    ("solver", "restrict", "core.restrict", None),
    ("solver", "dual_value", "core.dual_value", None),
    ("matching", "gallai_edmonds", "matching.gallai_edmonds", None),
    ("matching", "tutte_berge_value", "matching.tutte_berge_value", None),
    ("matching", "weak_components", "core.weak_components", None),
    ("core", "restrict", "core.restrict", None),
    ("core", "weak_components", "core.weak_components", None),
)


class Tracer:
    """Records spans as [name, request, parent, start, end, failed, counts]."""

    def __init__(self, bp):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1
        self._sites = []
        for module_name, attr, name, counter in SITES:
            module = getattr(bp, module_name, None)
            original = getattr(module, attr, None)
            if original is not None:
                self._sites.append((module, attr, original, self._wrap(name, original, counter)))

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._request, stack[-1] if stack else -1, clock(), 0.0, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = clock()
                stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, result)
            return result

        return traced

    def call(self, request: int, fn):
        """Run fn() with every site wrapped, under one request id."""
        self._request = request
        for module, attr, _, traced in self._sites:
            setattr(module, attr, traced)
        try:
            return fn()
        finally:
            for module, attr, original, _ in self._sites:
                setattr(module, attr, original)
            self._stack.clear()

    def records(self):
        keys = ("name", "request", "parent", "start", "end", "failed", "counts")
        return [dict(zip(keys, span)) for span in self.spans]

    def layer_metrics(self, requests: int) -> dict[str, float]:
        """Self times (s per traced request), call counts and layer counters
        (totals over the traced requests), and the useful-work ratio."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, _, parent, start, end, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        failed: dict[str, int] = defaultdict(int)
        totals: dict[str, int] = defaultdict(int)
        largest: dict[str, int] = defaultdict(int)
        for i, (name, _, _, start, end, did_fail, counts) in enumerate(spans):
            self_s[name] += end - start - covered[i]
            calls[name] += 1
            failed[name] += did_fail
            for key, value in (counts or {}).items():
                totals[key] += value
                largest[key] = max(largest[key], value)
        per_request = max(requests, 1)
        out = {f"{name}.self_s": total / per_request for name, total in self_s.items()}
        out.update({f"{name}.calls": count for name, count in calls.items()})
        out.update({f"{name}.failed": count for name, count in failed.items()})
        out["bgf.bytes"] = totals["bytes"] / per_request
        out["auxiliary.vertices"] = largest["vertices"]
        out["auxiliary.edges"] = largest["edges"]
        out["matching.exposed_roots"] = totals["exposed_roots"]
        out["matching.augmentations"] = totals["augmentations"]
        out["matching.augmentations_per_root"] = (
            totals["augmentations"] / totals["exposed_roots"] if totals["exposed_roots"] else 0.0
        )
        return out
