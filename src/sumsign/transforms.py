"""Labeled-graph operations with induced labelings.

Each operation produces a new signed labeled graph obeying the induced-label
rules: surviving elements keep their set-labels, new edges get the sumset of
their endpoints' labels, and a vertex replacing an edge inherits that edge's
label. Inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DegreeNotTwo,
    InjectivityCollision,
    UnknownEdge,
    UnknownVertex,
    VertexInTriangle,
)
from .graphs import Edge, Graph, edge_key, in_triangle
from .intsets import Sign
from .labeling import AiaslCheck, Labeling, SignedLabeledGraph, derive, validate_aiasl


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


def _carry_notes(vertices: Iterable[str]) -> list[tuple[str, str]]:
    return [(v, "carried") for v in vertices]


def delete_vertex(s: SignedLabeledGraph, v: str) -> TransformOutcome:
    """Remove v and its incident edges; every surviving label is untouched."""
    if not s.graph.has_vertex(v):
        raise UnknownVertex(f"vertex {v!r} is not in the graph")
    kept_vertices = [x for x in s.graph.vertices if x != v]
    removed_edges = tuple(e for e in s.graph.edges if v in e)
    kept_edges = [e for e in s.graph.edges if v not in e]
    new_graph = Graph(kept_vertices, kept_edges)
    new_labeling = Labeling(
        s.labeling.universe_max,
        {x: s.labeling.get(x) for x in kept_vertices},
    )
    result = derive(new_graph, new_labeling)
    # Induced = carried: identical labels give identical sumsets and signs.
    assert all(result.signs[e] == s.signs[e] for e in kept_edges)
    return TransformOutcome(
        result=result,
        added_vertices=(),
        removed_vertices=(v,),
        added_edges=(),
        removed_edges=removed_edges,
        label_notes=tuple(_carry_notes(kept_vertices)),
    )


def spanned_subgraph(
    s: SignedLabeledGraph, keep_edges: Iterable[Edge]
) -> tuple[TransformOutcome, int]:
    """Signature-preserving subgraph on the full vertex set.

    Keeps exactly ``keep_edges``; returns the outcome together with the
    number of negative edges that were removed, so parity arguments about
    the removed set can be made by the caller.
    """
    keep = {edge_key(*e) for e in keep_edges}
    present = set(s.graph.edges)
    unknown = keep - present
    if unknown:
        raise UnknownEdge(f"edges not in the graph: {sorted(unknown)}")
    removed = tuple(e for e in s.graph.edges if e not in keep)
    removed_negatives = sum(1 for e in removed if s.signs[e] is Sign.NEGATIVE)
    new_graph = Graph(s.graph.vertices, sorted(keep))
    result = derive(new_graph, s.labeling)
    assert all(result.signs[e] == s.signs[e] for e in result.graph.edges)
    return (
        TransformOutcome(
            result=result,
            added_vertices=(),
            removed_vertices=(),
            added_edges=(),
            removed_edges=removed,
            label_notes=tuple(_carry_notes(s.graph.vertices)),
        ),
        removed_negatives,
    )


def _fresh_vertex_name(base: str, taken: Iterable[str]) -> str:
    taken = set(taken)
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


def subdivide_edge(
    s: SignedLabeledGraph, e: Edge, new_vertex: str | None = None
) -> TransformOutcome:
    """Replace edge uv by a new vertex w labeled with the old edge label.

    w receives f(u) + f(v) and the edges uw, wv; their labels and signs are
    derived by sumset. Raises InjectivityCollision when the inherited label
    already labels a surviving vertex.
    """
    key = edge_key(*e)
    if key not in s.signs:
        raise UnknownEdge(f"edge {key} is not in the graph")
    u, v = key
    inherited = s.edge_labels[key]
    for x in s.graph.vertices:
        if s.labeling.get(x) == inherited:
            raise InjectivityCollision(
                f"edge label {inherited.to_text()} already labels vertex {x!r}"
            )
    w = new_vertex if new_vertex is not None else _fresh_vertex_name(
        f"{u}*{v}", s.graph.vertices
    )
    if s.graph.has_vertex(w):
        raise InjectivityCollision(f"vertex id {w!r} already exists")
    new_graph = Graph(
        list(s.graph.vertices) + [w],
        [x for x in s.graph.edges if x != key] + [edge_key(u, w), edge_key(w, v)],
    )
    assignment = {x: s.labeling.get(x) for x in s.graph.vertices}
    assignment[w] = inherited
    result = derive(new_graph, Labeling(s.labeling.universe_max, assignment))
    notes = _carry_notes(s.graph.vertices)
    notes.append((w, f"inherited from edge {u} {v}"))
    notes.append((f"{edge_key(u, w)[0]} {edge_key(u, w)[1]}", "sumset of endpoints"))
    notes.append((f"{edge_key(w, v)[0]} {edge_key(w, v)[1]}", "sumset of endpoints"))
    return TransformOutcome(
        result=result,
        added_vertices=(w,),
        removed_vertices=(),
        added_edges=tuple(sorted((edge_key(u, w), edge_key(w, v)))),
        removed_edges=(key,),
        label_notes=tuple(notes),
    )


def elementary_transformation(s: SignedLabeledGraph, v: str) -> TransformOutcome:
    """Remove a triangle-free degree-2 vertex and join its two neighbors.

    The new edge uw is labeled f(u) + f(w) with the derived sign. The result
    is homeomorphic to the input graph.
    """
    if not s.graph.has_vertex(v):
        raise UnknownVertex(f"vertex {v!r} is not in the graph")
    if s.graph.degree(v) != 2:
        raise DegreeNotTwo(f"vertex {v!r} has degree {s.graph.degree(v)}, need 2")
    if in_triangle(s.graph, v):
        raise VertexInTriangle(f"vertex {v!r} lies on a triangle")
    u, w = s.graph.neighbors(v)
    new_edge = edge_key(u, w)
    kept_vertices = [x for x in s.graph.vertices if x != v]
    new_graph = Graph(
        kept_vertices,
        [e for e in s.graph.edges if v not in e] + [new_edge],
    )
    result = derive(
        new_graph,
        Labeling(
            s.labeling.universe_max,
            {x: s.labeling.get(x) for x in kept_vertices},
        ),
    )
    notes = _carry_notes(kept_vertices)
    notes.append((f"{new_edge[0]} {new_edge[1]}", "sumset of endpoints"))
    return TransformOutcome(
        result=result,
        added_vertices=(),
        removed_vertices=(v,),
        added_edges=(new_edge,),
        removed_edges=tuple(e for e in s.graph.edges if v in e),
        label_notes=tuple(notes),
    )
