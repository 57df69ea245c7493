"""Labeled-graph operations with induced labelings.

Each operation produces a new signed labeled graph obeying the induced-label
rules: surviving elements keep their set-labels, new edges get the sumset of
their endpoints' labels, and a vertex replacing an edge inherits that edge's
label. ``_rebuild`` is the one place that applies these rules; each public
transform checks its input and makes one ``_rebuild`` call. Inputs are never
mutated.

The result graph depends only on the input graph and the change, not on the
labels, so ``_rebuild`` takes it from a bounded memo of transform plans:
equal transforms of one graph return the same result ``Graph``, whose
forest, bipartition and cycle masks are then computed once, however many
labelings are replayed through it. The plan also gives each result
vertex's position in the input graph, so the result's labels are picked
from the input labeling's tuple of sets by position. The labels,
``derive``, the carried-sign check and the notes are made on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import (
    DegreeNotTwo,
    InjectivityCollision,
    UnknownEdge,
    UnknownVertex,
    VertexInTriangle,
)
from .graphs import Edge, Graph, edge_key, in_triangle
from .intsets import IntegerSet, Sign
from .labeling import AiaslCheck, Labeling, SignedLabeledGraph, derive, validate_aiasl

_TRANSFORM_PLANS = 256  # (graph, change) pairs whose result graph _plan holds


@dataclass(frozen=True)
class TransformOutcome:
    """A transform result plus provenance for every changed element."""

    result: SignedLabeledGraph
    added_vertices: tuple[str, ...]
    removed_vertices: tuple[str, ...]
    added_edges: tuple[Edge, ...]
    removed_edges: tuple[Edge, ...]
    label_notes: tuple[tuple[str, str], ...]

    @property
    def admissibility(self) -> AiaslCheck:
        """The AIASL check of the result, computed when read."""
        return validate_aiasl(self.result)

    def provenance_lines(self) -> list[str]:
        lines = []
        for v in self.removed_vertices:
            lines.append(f"removed_vertex = {v}")
        for u, v in self.removed_edges:
            lines.append(f"removed_edge = {u} {v}")
        for v in self.added_vertices:
            lines.append(f"added_vertex = {v}")
        for u, v in self.added_edges:
            lines.append(f"added_edge = {u} {v}")
        for element, source in self.label_notes:
            lines.append(f"label {element} : {source}")
        check = self.admissibility
        lines.append(f"admissible = {'true' if check.ok else 'false'}")
        for e, reason in check.edge_failures:
            lines.append(f"inadmissible_edge {e[0]} {e[1]} : {reason}")
        return lines


def _rebuild(
    s: SignedLabeledGraph,
    drop_vertex: str | None = None,
    drop_edges: Iterable[Edge] = (),
    new_vertex: tuple[str, IntegerSet, str] | None = None,
    new_edges: Iterable[Edge] = (),
) -> TransformOutcome:
    """Apply one change to s and derive the result by the induced-label rule.

    Drops ``drop_vertex`` with its incident edges and every edge in
    ``drop_edges``, adds ``new_vertex`` as ``(id, label, source note)`` and
    ``new_edges``. Every kept vertex carries its label; ``derive`` gives every
    edge the sumset of its endpoints' labels. The result graph comes from
    ``_plan``, so equal changes to one graph share it.
    """
    added_edges = tuple(new_edges)
    w, label, source = (None, None, None) if new_vertex is None else new_vertex
    graph, removed_edges, kept_edges, kept_vertices, positions = _plan(
        s.graph, drop_vertex, tuple(drop_edges), w, added_edges
    )
    # derive made s.labeling's sets aligned with s.graph.vertices; the new
    # vertex's position is one past them.
    carried = s.labeling._sets if w is None else s.labeling._sets + (label,)
    # Graph has checked every id, so the labeling is built from checked parts.
    labels = tuple(map(carried.__getitem__, positions))
    labeling = Labeling._from_checked(s.labeling.universe_max, graph.vertices, labels)
    result = derive(graph, labeling)
    # Induced = carried: identical labels give identical sumsets and signs.
    assert all(result.signs[e] == s.signs[e] for e in kept_edges)
    notes = [(x, "carried") for x in kept_vertices]
    if w is not None:
        notes.append((w, source))
    notes.extend((f"{u} {v}", "sumset of endpoints") for u, v in added_edges)
    return TransformOutcome(
        result=result,
        added_vertices=() if w is None else (w,),
        removed_vertices=() if drop_vertex is None else (drop_vertex,),
        added_edges=added_edges,
        removed_edges=removed_edges,
        label_notes=tuple(notes),
    )


@lru_cache(maxsize=_TRANSFORM_PLANS)
def _plan(
    g: Graph,
    drop_vertex: str | None,
    drop_edges: tuple[Edge, ...],
    new_vertex: str | None,
    new_edges: tuple[Edge, ...],
) -> tuple[Graph, tuple[Edge, ...], tuple[Edge, ...], tuple[str, ...], tuple[int, ...]]:
    """The structural half of ``_rebuild``: the result graph, the removed
    edges, the kept edges and the kept vertices, in g's order, and per
    vertex of the result graph its position in ``g.vertices``, g.n for the
    new vertex."""
    drop = set(drop_edges)
    removed_edges = tuple(e for e in g.edges if e in drop or drop_vertex in e)
    kept_edges = tuple(e for e in g.edges if e not in removed_edges)
    kept_vertices = tuple(x for x in g.vertices if x != drop_vertex)
    vertices = kept_vertices if new_vertex is None else kept_vertices + (new_vertex,)
    graph = Graph(vertices, kept_edges + new_edges)
    source = {x: i for i, x in enumerate(g.vertices)}
    positions = tuple(source.get(x, g.n) for x in graph.vertices)
    return graph, removed_edges, kept_edges, kept_vertices, positions


def delete_vertex(s: SignedLabeledGraph, v: str) -> TransformOutcome:
    """Remove v and its incident edges; every surviving label is untouched."""
    if not s.graph.has_vertex(v):
        raise UnknownVertex(f"vertex {v!r} is not in the graph")
    return _rebuild(s, drop_vertex=v)


def spanned_subgraph(
    s: SignedLabeledGraph, keep_edges: Iterable[Edge]
) -> tuple[TransformOutcome, int]:
    """Signature-preserving subgraph on the full vertex set.

    Keeps exactly ``keep_edges``; returns the outcome together with the
    number of negative edges that were removed, so parity arguments about
    the removed set can be made by the caller.
    """
    keep = {edge_key(*e) for e in keep_edges}
    unknown = keep - set(s.graph.edges)
    if unknown:
        raise UnknownEdge(f"edges not in the graph: {sorted(unknown)}")
    outcome = _rebuild(s, drop_edges=[e for e in s.graph.edges if e not in keep])
    removed_negatives = sum(
        1 for e in outcome.removed_edges if s.signs[e] is Sign.NEGATIVE
    )
    return outcome, removed_negatives


def subdivide_edge(s: SignedLabeledGraph, e: Edge) -> TransformOutcome:
    """Replace edge uv by a new vertex w labeled with the old edge label.

    w receives f(u) + f(v) and the edges uw, wv; their labels and signs are
    derived by sumset. w is named u*v, or u*v2, u*v3, ... when that id is
    taken. Raises InjectivityCollision when the inherited label already
    labels a surviving vertex.
    """
    key = s.graph.edge(*e)
    u, v = key
    inherited = s.edge_labels[key]
    # A derived labeling's sets are aligned with the graph's vertex tuple.
    labels = s.labeling._sets
    if inherited in labels:
        x = s.graph.vertices[labels.index(inherited)]
        raise InjectivityCollision(
            f"edge label {inherited.to_text()} already labels vertex {x!r}"
        )
    base = w = f"{u}*{v}"
    i = 2
    while s.graph.has_vertex(w):
        w = f"{base}{i}"
        i += 1
    return _rebuild(
        s,
        drop_edges=(key,),
        new_vertex=(w, inherited, f"inherited from edge {u} {v}"),
        new_edges=sorted((edge_key(u, w), edge_key(w, v))),
    )


def elementary_transformation(s: SignedLabeledGraph, v: str) -> TransformOutcome:
    """Remove a triangle-free degree-2 vertex and join its two neighbors.

    The new edge uw is labeled f(u) + f(w) with the derived sign. The result
    is homeomorphic to the input graph.
    """
    if s.graph.degree(v) != 2:
        raise DegreeNotTwo(f"vertex {v!r} has degree {s.graph.degree(v)}, need 2")
    if in_triangle(s.graph, v):
        raise VertexInTriangle(f"vertex {v!r} lies on a triangle")
    u, w = s.graph.neighbors(v)
    return _rebuild(s, drop_vertex=v, new_edges=(edge_key(u, w),))
