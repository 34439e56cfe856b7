"""Linear-time checks of `bidipath --format machine` output.

`solve` is checked against its own certificate: the paths are disjoint
X-paths, and the pair (S, T) satisfies X∩S = X∩T with dual value k, which
by weak duality proves k optimal. A hitting-set answer Y is checked with an
admissible pair of value 0 on g - Y, so no X-path survives; the pair is
(S∖Y, T∖Y) for the certificate (S, T) of the instance, computed once per
instance after timing. No check runs an exponential search. The checker
holds one instance at a time, read back from its file, so outputs should be
checked grouped by instance.
"""

from __future__ import annotations


class Checker:
    def __init__(self, bp, paths):
        self.bp = bp
        self.paths = paths
        self._index = -1
        self._instance = None
        self._ids: dict[str, int] = {}
        self._hint = None
        self._verdicts: dict[tuple, str | None] = {}

    def _load(self, index):
        if index != self._index:
            text = self.paths[index].read_text(encoding="utf-8")
            self._index, self._instance = index, self.bp.bgf.parse_instance(text)
            self._ids = {name: v for v, name in enumerate(self._instance.names)}
            self._hint = None
        return self._instance

    def check(self, request, stdout: str) -> str | None:
        """None if the output is correct, else the reason it is not."""
        key = (request.argv, stdout)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self._check(request, stdout)
            except (ValueError, KeyError, IndexError, self.bp.errors.BidipathError) as exc:
                self._verdicts[key] = f"unreadable output ({type(exc).__name__}: {exc})"
        return self._verdicts[key]

    def _check(self, request, stdout):
        fields: dict[str, list[str]] = {}
        for line in stdout.splitlines():
            key, sep, value = line.partition(": ")
            if not sep:
                key, value = line.rstrip(":"), ""
            fields.setdefault(key, []).append(value)
        instance = self._load(request.instance)
        g, x = instance.graph, instance.x
        paths = [self._path(text) for text in fields.get("path", [])]
        if request.argv[0] == "solve":
            k = int(fields["k"][0])
            if fields["certificate"] != ["ok"]:
                return "certificate not reported ok"
            reason = self._packing(g, x, paths, k)
            if reason:
                return reason
            s, t = self._set(fields["s"][0]), self._set(fields["t"][0])
            if x & s != x & t:
                return "X∩S differs from X∩T"
            if self.bp.core.dual_value(g, x, s, t) != k or int(fields["value"][0]) != k:
                return "dual value differs from k"
            return None
        k = int(request.argv[request.argv.index("-k") + 1])
        if int(fields["k"][0]) != k:
            return "reported k differs from the requested k"
        outcome = fields["outcome"][0]
        if outcome == "packing":
            return self._packing(g, x, paths, k)
        if outcome != "hitting-set":
            return f"unknown outcome {outcome!r}"
        y = self._set(fields["y"][0])
        if int(fields["size"][0]) != len(y) or len(y) > 2 * k - 2:
            return "hitting set exceeds 2k-2 or misreports its size"
        if fields["audit"] != ["no-x-path"]:
            return "audit not reported clear"
        return self._hits_every_path(g, x, y, k)

    def _packing(self, g, x, paths, k):
        if len(paths) != k:
            return f"{len(paths)} paths reported for k = {k}"
        seen: set[int] = set()
        for path in paths:
            if not self.bp.core.is_x_path(g, x, path):
                return "a reported path is not an X-path"
            if seen.intersection(path.vertices):
                return "reported paths share a vertex"
            seen.update(path.vertices)
        return None

    def _hits_every_path(self, g, x, y, k):
        core = self.bp.core
        if self._hint is None:
            self._hint = self.bp.solver.certificate(g, x)
        s, t = self._hint.s, self._hint.t
        if x & s != x & t or core.dual_value(g, x, s, t) >= k:
            return "no admissible pair proves fewer than k disjoint X-paths"
        rest, remap = core.delete_vertices(g, y)

        def kept(vs):
            return frozenset(remap[v] for v in vs if v not in y)

        if core.dual_value(rest, kept(x), kept(s), kept(t)) != 0:
            return "an X-path may survive the removal of Y"
        return None

    def _set(self, text):
        return frozenset(self._ids[name] for name in text.split())

    def _path(self, text):
        tokens = text.split()
        vertices = tuple(self._ids[name] for name in tokens[0::2])
        edges = []
        for token in tokens[1::2]:
            if not token.startswith("#"):
                raise ValueError(f"edge token {token!r}")
            edges.append(int(token[1:]))
        return self.bp.core.SignedPath(vertices, tuple(edges))
