"""Balance and clusterability of signed graphs.

Two independent balance checks are provided on purpose:

* ``is_balanced_oracle`` enumerates every simple cycle and checks that each
  one carries an even number of negative edges (the definition);
* ``is_balanced_fast`` folds parities over the breadth-first spanning forest
  (``graphs.spanning_forest``) and produces a 2-partition witness, without
  ever listing cycles.

They must agree wherever the oracle is applicable; that equivalence is part
of the test suite.

All functions accept anything carrying ``.graph`` and ``.signs`` attributes,
so both raw ``SignedGraph`` values and derived ``SignedLabeledGraph`` values
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol

from .errors import UnknownEdge
from .graphs import (
    DEFAULT_CYCLE_BOUND,
    Edge,
    Graph,
    connected_components,
    cycle_edges,
    edge_key,
    simple_cycles,
    spanning_forest,
)
from .intsets import Sign


class SignedGraphLike(Protocol):
    graph: Graph
    signs: Mapping[Edge, Sign]


@dataclass(frozen=True)
class SignedGraph:
    """A plain sign assignment on a graph, with no labeling attached."""

    graph: Graph
    signs: Mapping[Edge, Sign]

    def __post_init__(self):
        for e in self.graph.edges:
            if e not in self.signs:
                raise UnknownEdge(f"edge {e} has no sign")
        if len(self.signs) != len(self.graph.edges):
            extra = set(self.signs) - set(self.graph.edges)
            raise UnknownEdge(f"signs given for non-edges: {sorted(extra)}")


def negative_edges(s: SignedGraphLike) -> tuple[Edge, ...]:
    return tuple(e for e in s.graph.edges if s.signs[e] is Sign.NEGATIVE)


@dataclass(frozen=True)
class CycleSignSummary:
    """One simple cycle with its negative-edge count and sign product."""

    cycle: tuple[str, ...]
    negative_edge_count: int
    sign_product: Sign


def cycle_sign_summaries(
    s: SignedGraphLike, cycle_bound: int = DEFAULT_CYCLE_BOUND
) -> list[CycleSignSummary]:
    summaries = []
    for cycle in simple_cycles(s.graph, max_vertices=cycle_bound):
        neg = sum(1 for e in cycle_edges(cycle) if s.signs[e] is Sign.NEGATIVE)
        summaries.append(
            CycleSignSummary(
                cycle=cycle,
                negative_edge_count=neg,
                sign_product=Sign.POSITIVE if neg % 2 == 0 else Sign.NEGATIVE,
            )
        )
    return summaries


def is_balanced_oracle(
    s: SignedGraphLike, cycle_bound: int = DEFAULT_CYCLE_BOUND
) -> tuple[bool, list[CycleSignSummary]]:
    """Balance by definition: every simple cycle has an even negative count.

    Acyclic graphs are vacuously balanced. Raises BoundExceeded when the
    graph is too large to enumerate cycles.
    """
    summaries = cycle_sign_summaries(s, cycle_bound=cycle_bound)
    balanced = all(c.sign_product is Sign.POSITIVE for c in summaries)
    return balanced, summaries


def is_balanced_fast(
    s: SignedGraphLike,
) -> tuple[bool, tuple[tuple[str, ...], tuple[str, ...]] | None]:
    """Balance via parity propagation, with a camp 2-partition witness.

    Folds a side over the spanning forest of the graph: a positive tree edge
    keeps its parent's side, a negative one flips it. The signed graph is
    balanced iff every edge then agrees with its sign, and then every
    negative edge crosses the returned partition while every positive edge
    stays inside one part.
    """
    g = s.graph
    order, parent = spanning_forest(g)
    side: dict[str, int] = {}
    for v in order:
        p = parent[v]
        side[v] = 0 if p is None else side[p] ^ (s.signs[edge_key(p, v)] is Sign.NEGATIVE)
    if any(side[u] ^ side[v] != (s.signs[(u, v)] is Sign.NEGATIVE) for u, v in g.edges):
        return False, None
    part0 = tuple(v for v in g.vertices if side[v] == 0)
    part1 = tuple(v for v in g.vertices if side[v] == 1)
    return True, (part0, part1)


@dataclass(frozen=True)
class Clusterability:
    """Outcome of the 2-way clustering criterion.

    Clusterable signed graphs split into groups (the components of the
    positive subgraph) with every negative edge running between groups. A
    failure is witnessed by a cycle containing exactly one negative edge.
    """

    clusterable: bool
    clusters: tuple[tuple[str, ...], ...] | None
    violating_cycle: tuple[str, ...] | None

    def __bool__(self) -> bool:
        return self.clusterable


def _positive_subgraph(s: SignedGraphLike) -> Graph:
    return Graph(
        s.graph.vertices,
        [e for e in s.graph.edges if s.signs[e] is Sign.POSITIVE],
    )


def is_clusterable(s: SignedGraphLike) -> Clusterability:
    """Check whether deleting negative edges leaves no in-cluster negatives.

    Clusters are the connected components of the positive subgraph. When
    some negative edge lands inside a cluster, the positive path between its
    endpoints closes a cycle with exactly one negative edge, which is
    returned as the witness.
    """
    pos = _positive_subgraph(s)
    comps = connected_components(pos)
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    offending = [
        e for e in negative_edges(s) if comp_of[e[0]] == comp_of[e[1]]
    ]
    if not offending:
        return Clusterability(True, tuple(comps), None)
    u, v = offending[0]
    path = _shortest_path(pos, u, v)
    return Clusterability(False, None, tuple(path))


def _shortest_path(g: Graph, source: str, target: str) -> list[str]:
    """Deterministic BFS path from source to target (inclusive)."""
    _, parent = spanning_forest(g, [source])
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])  # type: ignore[arg-type]
    path.reverse()
    return path
