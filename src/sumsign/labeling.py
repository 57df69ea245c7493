"""Vertex set-labelings, derived edge labels and signs, and validity checks.

A labeling assigns a non-empty integer set to every vertex, injectively.
Each edge uv then receives the sumset f(u) + f(v) as its label and the sign
(-1) ** |f(u) + f(v)|. A labeling is progression-arithmetic when every vertex
and edge label is an arithmetic progression, which holds exactly when every
edge's deterministic ratio (the ratio between its endpoints' common
differences) is a positive integer no larger than the size of the
smaller-difference endpoint.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    AdmissibilityViolation,
    DuplicateLabel,
    MissingLabel,
    NotApLabel,
    ParseError,
    UniverseViolation,
    UnknownVertex,
    check_flag,
)
from .graphs import _VERTEX_ID, Edge, Graph, _edge_positions, check_vertex_id, edge_key
from .intsets import (
    _SIGN_OF_PARITY,
    ApProfile,
    IntegerSet,
    Sign,
    ap_pair,
    ap_profile,
    parse_digits,
    parse_set_literal,
    sumset,
)


class Labeling:
    """Map from vertex ids to integer sets over the universe {0..universe_max}.

    A vertex id follows the ``Graph`` rule (a non-empty str with no
    whitespace and no leading ``#``), so that ``format_labeling`` writes
    text that ``parse_labeling`` reads back, and ``universe_max`` is a
    non-negative int, never a bool or a float. Injectivity and universe
    containment are enforced at use time (see ``derive``), not at
    construction, so invalid labelings can be built, inspected and reported
    on. It holds two aligned tuples, the sorted ids and their sets, and no
    dict; ``get`` finds an id by bisection. Its sets are read through
    ``get`` and ``items`` only, so a labeling's hash never changes. Copies
    and pickles are rebuilt through the constructor.
    ``_from_checked`` builds one from parts that are checked already.
    """

    __slots__ = ("universe_max", "_vertices", "_sets")

    def __init__(self, universe_max: int, assignment: Mapping[str, IntegerSet | Iterable[int]]):
        if not isinstance(universe_max, int) or isinstance(universe_max, bool):
            raise ValueError(f"universe_max {universe_max!r} must be an int")
        if universe_max < 0:
            raise ValueError("universe_max must be non-negative")
        for v in assignment:
            check_vertex_id(v)
        vertices = tuple(sorted(assignment))
        sets = []
        for v in vertices:
            value = assignment[v]
            sets.append(value if isinstance(value, IntegerSet) else IntegerSet(value))
        object.__setattr__(self, "universe_max", universe_max)
        object.__setattr__(self, "_vertices", vertices)
        object.__setattr__(self, "_sets", tuple(sets))

    @classmethod
    def _from_checked(
        cls, universe_max: int, vertices: tuple[str, ...], sets: tuple[IntegerSet, ...]
    ) -> "Labeling":
        """A labeling of checked parts, taken as they are: universe_max a
        non-negative int, vertices a sorted tuple of distinct ids that passed
        ``check_vertex_id``, as a ``Graph``'s ``vertices`` are, and sets a
        tuple of ``IntegerSet`` aligned with it. Both tuples are kept, not
        copied, so a labeling of a graph's vertices shares that graph's
        tuple."""
        lab = object.__new__(cls)
        object.__setattr__(lab, "universe_max", universe_max)
        object.__setattr__(lab, "_vertices", vertices)
        object.__setattr__(lab, "_sets", sets)
        return lab

    def __setattr__(self, name, value):
        raise AttributeError("Labeling is immutable")

    def __reduce__(self):
        return Labeling, (self.universe_max, dict(zip(self._vertices, self._sets)))

    def get(self, v: str) -> IntegerSet:
        vertices = self._vertices
        try:
            i = bisect_left(vertices, v)
            if vertices[i] == v:
                return self._sets[i]
        except (IndexError, TypeError):
            pass  # past the last id, or no str to compare
        raise MissingLabel(f"vertex {v!r} has no set-label")

    def items(self) -> tuple[tuple[str, IntegerSet], ...]:
        return tuple(zip(self._vertices, self._sets))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Labeling)
            and self.universe_max == other.universe_max
            and self._vertices == other._vertices
            and self._sets == other._sets
        )

    def __hash__(self) -> int:
        return hash((self.universe_max, self._vertices, self._sets))

    def __repr__(self) -> str:
        body = ", ".join(f"{v}: {s.to_text()}" for v, s in zip(self._vertices, self._sets))
        return f"Labeling(universe_max={self.universe_max}, {{{body}}})"

    def label_mass(self) -> int:
        """Total size of all assigned sets; the tie-break used in reports."""
        return sum(map(len, self._sets))


# ---------------------------------------------------------------------------
# Text format:
#     universe_max = 8
#     u: {0,1}
#     v: {0,2}
# ---------------------------------------------------------------------------

def parse_labeling(text: str) -> Labeling:
    universe_max: int | None = None
    assignment: dict[str, IntegerSet] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        # A set literal holds no ':', so a vertex id may, and a line with
        # one is a vertex line even if its id reads "universe_max=...".
        if ":" not in line:
            key, eq, value = line.partition("=")
            if not eq or key.strip() != "universe_max":
                raise ParseError(f"expected 'vertex: {{a,b,c}}', got {line!r}", lineno)
            if universe_max is not None:
                raise ParseError("universe_max given twice", lineno)
            universe_max = parse_digits(value.strip(), "universe_max value", lineno)
            continue
        vertex, literal = line.rsplit(":", 1)
        vertex = vertex.strip()
        if not vertex:
            raise ParseError("missing vertex id before ':'", lineno)
        if not _VERTEX_ID.fullmatch(vertex):
            raise ParseError(f"vertex id {vertex!r} may not contain whitespace", lineno)
        if vertex in assignment:
            raise DuplicateLabel(f"vertex {vertex!r} labeled twice (line {lineno})")
        assignment[vertex] = parse_set_literal(literal, line=lineno)
    if universe_max is None:
        universe_max = max(
            (max(s.elements) for s in assignment.values()), default=0
        )
    return Labeling(universe_max, assignment)


def format_labeling(lab: Labeling) -> str:
    lines = [f"{v}: {s.to_text()}\n" for v, s in zip(lab._vertices, lab._sets)]
    return f"universe_max = {lab.universe_max}\n" + "".join(lines)


@dataclass(frozen=True)
class SignedLabeledGraph:
    """A graph, its vertex labeling, and the derived edge labels and signs,
    which ``derive`` hands out as read-only views."""

    graph: Graph
    labeling: Labeling
    edge_labels: Mapping[Edge, IntegerSet]
    signs: Mapping[Edge, Sign]

    def sign(self, u: str, v: str) -> Sign:
        return self.signs[self.graph.edge(u, v)]

    def edge_label(self, u: str, v: str) -> IntegerSet:
        return self.edge_labels[self.graph.edge(u, v)]


def derive(g: Graph, f: Labeling, strict: bool = False) -> SignedLabeledGraph:
    """Compute edge labels (sumsets) and signs for every edge of g.

    Checks that f labels every vertex of g, and no other vertex, and is
    injective. With strict=True, additionally requires every vertex and
    edge label to stay inside {0..universe_max}. strict must be a bool.
    A labeling with several faults raises for the first vertex, in
    ``g.vertices`` order, that is missing, repeats an earlier set or (strict)
    escapes the universe; then for labeled vertices not in g; then for the
    first edge whose label escapes.

    It reads the labels in ``g.vertices`` order: f's own tuple of sets when
    f labels exactly g's ids, as every replayed and transformed labeling
    does, else each looked up by id. Each edge reads its ends' labels by
    position (``graphs._edge_positions``). It calls ``sumset`` by its
    module-level name once per edge, so that a tracer which rebinds the
    name sees every call and times it apart.
    """
    check_flag("strict", strict)
    universe_max = f.universe_max
    vertices = g.vertices
    # The labels of g's vertices in their order, None where one is missing.
    if f._vertices == vertices:
        labels = f._sets
    else:
        named = dict(zip(f._vertices, f._sets))
        labels = [named.get(v) for v in vertices]
    seen: dict[tuple[int, ...], str] = {}
    for v, label in zip(vertices, labels):
        if label is None:
            raise MissingLabel(f"vertex {v!r} has no set-label")
        elements = label.elements
        if elements in seen:
            raise DuplicateLabel(
                f"vertices {seen[elements]!r} and {v!r} share the set-label {label.to_text()}"
            )
        seen[elements] = v
        if strict and elements[-1] > universe_max:
            raise UniverseViolation(
                f"label {label.to_text()} of vertex {v!r} escapes universe_max={universe_max}"
            )
    # seen holds one entry per vertex of g, so any further id is an extra vertex.
    if len(f._vertices) != len(seen):
        extra = sorted(set(f._vertices) - set(vertices))
        raise UnknownVertex(f"labeled vertices not in the graph: {', '.join(extra)}")
    sign_of_parity = _SIGN_OF_PARITY
    edge_labels: dict[Edge, IntegerSet] = {}
    signs: dict[Edge, Sign] = {}
    for e, i, j in _edge_positions(g):
        label = sumset(labels[i], labels[j])
        elements = label.elements
        if strict and elements[-1] > universe_max:
            u, v = e
            raise UniverseViolation(
                f"edge label {label.to_text()} of ({u}, {v}) escapes universe_max={universe_max}"
            )
        edge_labels[e] = label
        signs[e] = sign_of_parity[len(elements) & 1]
    return SignedLabeledGraph(g, f, MappingProxyType(edge_labels), MappingProxyType(signs))


def iasi_collisions(s: SignedLabeledGraph) -> list[tuple[Edge, Edge]]:
    """Pairs of distinct edges carrying the same derived label."""
    by_label: dict[IntegerSet, list[Edge]] = {}
    for e in s.graph.edges:
        by_label.setdefault(s.edge_labels[e], []).append(e)
    out = []
    for edges in by_label.values():
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                out.append((edges[i], edges[j]))
    return sorted(out)


def validate_iasi(s: SignedLabeledGraph) -> bool:
    """True iff the derived edge-label map is injective over the edges."""
    return not iasi_collisions(s)


# ---------------------------------------------------------------------------
# Progression admissibility
# ---------------------------------------------------------------------------

def _inadmissible_reason(small: ApProfile, large: ApProfile) -> str:
    """Why intsets.ap_pair rejected an edge, given its ordered endpoints."""
    ratio = Fraction(large.diff, small.diff)
    if ratio.denominator != 1:
        return f"deterministic ratio {ratio} is not an integer"
    return f"deterministic ratio {ratio} exceeds the smaller-difference endpoint size {small.length}"


@dataclass(frozen=True)
class AiaslCheck:
    """Outcome of the per-edge progression validation, with diagnostics."""

    ok: bool
    vertex_failures: tuple[tuple[str, str], ...]
    edge_failures: tuple[tuple[Edge, str], ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_aiasl(s: SignedLabeledGraph) -> AiaslCheck:
    """Check that s is progression-arithmetic.

    Every vertex label must be an arithmetic progression and every edge must
    satisfy the integer-ratio condition, which makes every edge label a
    progression as well. Failures are reported per element.
    """
    profiles: dict[str, ApProfile | None] = {}
    vertex_failures: list[tuple[str, str]] = []
    for v in s.graph.vertices:
        profiles[v] = ap_profile(s.labeling.get(v))
        if profiles[v] is None:
            vertex_failures.append(
                (v, f"label {s.labeling.get(v).to_text()} is not an arithmetic progression")
            )
    edge_failures: list[tuple[Edge, str]] = []
    for u, v in s.graph.edges:
        pu, pv = profiles[u], profiles[v]
        if pu is None or pv is None:
            edge_failures.append(((u, v), "an endpoint label is not an arithmetic progression"))
            continue
        small, large, k = ap_pair(pu, pv)
        if k is None:
            edge_failures.append(((u, v), _inadmissible_reason(small, large)))
    return AiaslCheck(
        ok=not vertex_failures and not edge_failures,
        vertex_failures=tuple(vertex_failures),
        edge_failures=tuple(edge_failures),
    )


def _edge_profiles(s: SignedLabeledGraph, e: Edge) -> tuple[ApProfile, ApProfile]:
    u, v = s.graph.edge(*e)
    pu = ap_profile(s.labeling.get(u))
    pv = ap_profile(s.labeling.get(v))
    if pu is None:
        raise NotApLabel(f"label of {u!r} is not an arithmetic progression")
    if pv is None:
        raise NotApLabel(f"label of {v!r} is not an arithmetic progression")
    return pu, pv


def deterministic_ratio(s: SignedLabeledGraph, e: Edge) -> Fraction:
    """Ratio between the endpoint common differences of edge e (1 beside a singleton)."""
    small, large, _ = ap_pair(*_edge_profiles(s, e))
    if small.diff is None:
        return Fraction(1)
    return Fraction(large.diff, small.diff)


def predicted_sign(s: SignedLabeledGraph, e: Edge) -> Sign:
    """Sign of an admissible edge predicted from sizes and ratio alone.

    For odd ratio k the edge is positive iff its endpoint labels have
    different cardinality parity; for even k it is positive iff the
    smaller-difference endpoint has even cardinality. Must agree with the
    derived sign (-1) ** |f(u) + f(v)|.
    """
    pu, pv = _edge_profiles(s, e)
    small, large, k = ap_pair(pu, pv)
    if k is None:
        raise AdmissibilityViolation(f"edge {edge_key(*e)}: {_inadmissible_reason(small, large)}")
    if k % 2 == 1:
        return Sign.POSITIVE if (small.length + large.length) % 2 else Sign.NEGATIVE
    return Sign.POSITIVE if small.length % 2 == 0 else Sign.NEGATIVE
