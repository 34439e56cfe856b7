"""DOT rendering with at most one solution overlay.

Edge labels carry the sign pair read in endpoint order (e.g. "-+"); X-vertices
are drawn as double circles. Output ordering is stable: vertices then edges,
both ascending by id.
"""

from __future__ import annotations

from .bgf import Instance
from .errors import InvalidParameter
from .solver import Certificate, HittingSet, PackingResult

PATH_COLORS = ("red", "blue", "green3", "orange", "purple", "brown", "cyan3", "magenta")


def export_dot(
    instance: Instance, overlay: PackingResult | Certificate | HittingSet | None = None
) -> str:
    """Render the instance, highlighting one overlay: a packing's paths, a
    certificate's S and T, or a hitting set's Y."""
    g = instance.graph
    vertex_attrs: dict[int, list[str]] = {v: [] for v in g.vertices()}
    edge_attrs: dict[int, list[str]] = {e: [] for e in range(g.edge_count)}
    for v in sorted(instance.x):
        vertex_attrs[v].append("shape=doublecircle")
    if isinstance(overlay, PackingResult):
        for i, path in enumerate(overlay.paths):
            color = PATH_COLORS[i % len(PATH_COLORS)]
            for eid in path.edges:
                edge_attrs[eid].append(f'color="{color}"')
                edge_attrs[eid].append("penwidth=2")
    elif isinstance(overlay, Certificate):
        for v in sorted(overlay.s & overlay.t):
            vertex_attrs[v].append('style=filled fillcolor=gold comment="S∩T"')
        for v in sorted(overlay.s - overlay.t):
            vertex_attrs[v].append('style=filled fillcolor=lightblue comment="S"')
        for v in sorted(overlay.t - overlay.s):
            vertex_attrs[v].append('style=filled fillcolor=lightgreen comment="T"')
    elif isinstance(overlay, HittingSet):
        for v in sorted(overlay.y):
            vertex_attrs[v].append('style=filled fillcolor=tomato comment="Y"')
    elif overlay is not None:
        raise InvalidParameter(f"cannot draw a {type(overlay).__name__} as an overlay")

    lines = ["graph instance {", "  node [shape=circle];"]
    for v in g.vertices():
        attrs = " ".join(vertex_attrs[v])
        suffix = f" [{attrs}]" if attrs else ""
        lines.append(f'  "{instance.names[v]}"{suffix};')
    for eid, (u, sign_u, v, sign_v) in enumerate(g.edge_ends()):
        attrs = [f'label="{sign_u}{sign_v}"'] + edge_attrs[eid]
        lines.append(
            f'  "{instance.names[u]}" -- "{instance.names[v]}" '
            f"[{' '.join(attrs)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
