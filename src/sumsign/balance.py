"""Balance and clusterability of signed graphs.

Two independent balance checks are provided on purpose:

* ``is_balanced_oracle`` enumerates every simple cycle and checks that each
  one carries an even number of negative edges (the definition);
* ``is_balanced_fast`` applies Harary's criterion: the signed graph is
  balanced iff some 2-partition is crossed by exactly its negative edges.
  It reads the negative edges from the signs as one edge mask and finds
  that partition, the witness, with the one sign fold of the package
  (``graphs._partition``): one pass over the breadth-first spanning forest,
  without listing cycles and without the index-space tables of the
  labeling search. The bipartition of ``graphs.bipartition`` is its
  all-negative case.

They must agree wherever the oracle is applicable; that equivalence is part
of the test suite.

All functions accept anything carrying ``.graph`` and ``.signs`` attributes,
so both raw ``SignedGraph`` values and derived ``SignedLabeledGraph`` values
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Protocol

from .errors import UnknownEdge
from .graphs import (
    DEFAULT_CYCLE_BOUND,
    Edge,
    Graph,
    _partition,
    connected_components,
    cycle_masks,
    spanning_forest,
)
from .intsets import _SIGN_OF_PARITY, Sign


class SignedGraphLike(Protocol):
    graph: Graph
    signs: Mapping[Edge, Sign]


@dataclass(frozen=True)
class SignedGraph:
    """A plain sign assignment on a graph, with no labeling attached."""

    graph: Graph
    signs: Mapping[Edge, Sign]

    def __post_init__(self):
        # A read-only copy: the checks below hold for as long as the value lives.
        signs = dict(self.signs)
        object.__setattr__(self, "signs", MappingProxyType(signs))
        edges = self.graph.edges
        for e in edges:
            if e not in signs:
                raise UnknownEdge(f"edge {e} has no sign")
            if not isinstance(signs[e], Sign):
                raise ValueError(f"edge {e} has sign {signs[e]!r}, not a Sign")
        if len(signs) != len(edges):
            extra = set(signs) - set(edges)
            raise UnknownEdge(f"signs given for non-edges: {sorted(extra)}")


def negative_edges(s: SignedGraphLike) -> tuple[Edge, ...]:
    return tuple(e for e in s.graph.edges if s.signs[e] is Sign.NEGATIVE)


class CycleSignSummary(NamedTuple):
    """One simple cycle with its negative-edge count and sign product."""

    cycle: tuple[str, ...]
    negative_edge_count: int
    sign_product: Sign


def is_balanced_oracle(
    s: SignedGraphLike, cycle_bound: int = DEFAULT_CYCLE_BOUND
) -> tuple[bool, list[CycleSignSummary]]:
    """Balance by definition: every simple cycle has an even negative count.

    Returns the verdict and one summary per simple cycle, in
    ``simple_cycles`` order, from the one search that lists each cycle with
    its edge mask (``graphs.cycle_masks``); the sign sweep and
    ``simple_cycles`` read the same per-graph listing. A cycle's negative
    count is (mask & negative mask).bit_count(). Acyclic graphs are
    vacuously balanced. Raises BoundExceeded when the graph is too large to
    enumerate cycles, and ParseError when cycle_bound is not an int or is a
    bool.
    """
    neg = _negative_edge_mask(s)
    # CycleSignSummary._make without its length check: three fields each.
    new = tuple.__new__
    summaries = [
        new(CycleSignSummary, (c, (k := (mask & neg).bit_count()), _SIGN_OF_PARITY[k & 1]))
        for c, mask in cycle_masks(s.graph, cycle_bound)
    ]
    balanced = all(c.sign_product is Sign.POSITIVE for c in summaries)
    return balanced, summaries


def is_balanced_fast(
    s: SignedGraphLike,
) -> tuple[bool, tuple[tuple[str, ...], tuple[str, ...]] | None]:
    """Balance by Harary's criterion, with a camp 2-partition witness.

    Builds the negative edge mask from ``s.signs`` and folds a side over the
    spanning forest (``graphs._partition``); the signed graph is balanced
    iff that finds a partition that every negative edge crosses and no
    positive edge does. The witness puts each component's smallest vertex
    in the first part, and each part is in sorted order.
    """
    parts = _partition(s.graph, _negative_edge_mask(s))
    return parts is not None, parts


def _negative_edge_mask(s: SignedGraphLike) -> int:
    """The mask of s's negative edges: bit i for ``s.graph.edges[i]``."""
    signs = s.signs
    negative = Sign.NEGATIVE
    neg = 0
    bit = 1
    for e in s.graph.edges:
        if signs[e] is negative:
            neg |= bit
        bit <<= 1
    return neg


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
