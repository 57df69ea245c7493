"""Simple undirected graphs and the structural queries the sign theory needs.

Vertices are opaque strings; all iteration orders are lexicographic so that
every derived artifact is deterministic. Graphs are immutable after
construction and safe to share.

One breadth-first spanning forest (``spanning_forest``) answers every
traversal question: Harary's sign partition (``sign_partition``, whose
all-negative case is the 2-coloring), the components, and, through the
fundamental cycles of its non-tree edges, the bridges and the vertices on
cycles. Only ``simple_cycles`` lists every cycle; it is the by-definition
reference and the only query limited by a vertex bound. ``cycle_masks`` adds
each cycle's edge mask and holds the listing of the last few graphs, which
the sign sweep and the balance oracle share.

Each ``Graph`` keeps a private memo, filled on first read: the default-root
spanning forest, the bipartition, the fundamental cycle masks and the
``format_graph`` text. It belongs to that one graph and dies with it, and
everything it hands out is read-only (tuples, strings and a
``MappingProxyType``), so a caller cannot change what a later call returns.
``cut_edges`` and ``vertices_on_cycles`` fold the memoized masks. The cycle
listing is not held here but in ``cycle_masks``' bounded cache, since the
family atlas keeps its graphs for the whole process.
"""

from __future__ import annotations

import re
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, TypeVar

from .errors import BoundExceeded, ParseError, UnknownVertex

#: Default ceiling on |V| for simple-cycle enumeration; cycle counts grow
#: super-exponentially and everything here is meant for desk-scale graphs.
DEFAULT_CYCLE_BOUND = 12
_CYCLE_MEMO_GRAPHS = 8  # graphs whose cycle listing cycle_masks holds
# A vertex id that format_graph can write and parse_graph read back: no
# whitespace, and no '#' first, which would start a comment.
_VERTEX_ID = re.compile(r"[^\s#]\S*")

Edge = tuple[str, str]
_T = TypeVar("_T")


def check_vertex_id(v: object) -> None:
    """Raise ValueError unless v is an id ``format_graph`` can write back."""
    if not (isinstance(v, str) and _VERTEX_ID.fullmatch(v)):
        raise ValueError(
            f"vertex id {v!r} must be a non-empty str with no whitespace "
            "and no leading '#'"
        )


def _id_set(ids: Iterable[str]) -> set:
    """The set of a collection of ids; a str would give its characters."""
    if isinstance(ids, str):
        raise ValueError(f"vertices {ids!r} must be a collection of ids, not a str")
    return set(ids)


def edge_key(u: str, v: str) -> Edge:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """Finite simple graph: no loops, no parallel edges, string vertex ids.

    A vertex id is a non-empty string with no whitespace that does not begin
    with ``#``, and ``vertex`` is no edge endpoint, so that ``format_graph``
    writes every graph as text that ``parse_graph`` reads back as it. The
    vertices come as a collection of ids: a str, which would be read as its
    characters, is refused. Isolated vertices are permitted (transform
    operations can transiently create them), they just never participate
    in edge rules. Copies and pickles are rebuilt through this constructor,
    with an empty memo.
    """

    __slots__ = ("vertices", "edges", "_adj", "_memo")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge] = ()):
        vset = _id_set(vertices)
        for v in vset:
            check_vertex_id(v)
        verts = tuple(sorted(vset))
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at {u!r} not allowed")
            if u not in vset:
                raise UnknownVertex(f"edge endpoint {u!r} is not a declared vertex")
            if v not in vset:
                raise UnknownVertex(f"edge endpoint {v!r} is not a declared vertex")
            canon.add(edge_key(u, v))
        adj: dict[str, list[str]] = {v: [] for v in verts}
        for u, v in sorted(canon):
            adj[u].append(v)
            adj[v].append(u)
        if adj.get("vertex"):
            raise ValueError("vertex id 'vertex' is a keyword, not an edge endpoint")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        object.__setattr__(
            self, "_adj", {v: tuple(sorted(ns)) for v, ns in adj.items()}
        )
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return Graph, (self.vertices, self.edges)

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], isolated: Iterable[str] = ()) -> "Graph":
        edges = list(edges)
        vertices = {u for e in edges for u in e} | _id_set(isolated)
        return cls(vertices, edges)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_vertex(self, v: str) -> bool:
        return v in self._adj

    def has_edge(self, u: str, v: str) -> bool:
        ns = self._adj.get(u)
        return ns is not None and v in ns

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v!r} is not in the graph") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# Text format: one "u v" pair per line, "vertex u" declares an isolated
# vertex, "#" starts a comment.
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> Graph:
    edges: list[Edge] = []
    isolated: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if any(p.startswith("#") for p in parts):
            # format_graph would write this id first on a line, as a comment.
            raise ParseError("a vertex id may not begin with '#'", lineno)
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise ParseError("expected 'vertex <id>'", lineno)
            isolated.append(parts[1])
        elif len(parts) == 2:
            if "vertex" in parts:
                raise ParseError("'vertex' is a keyword, not an edge endpoint", lineno)
            if parts[0] == parts[1]:
                raise ParseError(f"self-loop at {parts[0]!r} not allowed", lineno)
            edges.append((parts[0], parts[1]))
        else:
            raise ParseError(f"expected 'u v' or 'vertex u', got {line!r}", lineno)
    return Graph.from_edges(edges, isolated=isolated)


def format_graph(g: Graph) -> str:
    return _memoized(g, "text", _format_graph)


def _format_graph(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in g.edges]
    covered = {u for e in g.edges for u in e}
    lines.extend(f"vertex {v}" for v in g.vertices if v not in covered)
    return "\n".join(lines) + ("\n" if lines else "")


def _memoized(g: Graph, key: str, compute: Callable[[Graph], _T]) -> _T:
    """g's memo entry ``key``, computed by ``compute(g)`` on first read."""
    try:
        return g._memo[key]
    except KeyError:
        value = g._memo[key] = compute(g)
        return value


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def spanning_forest(
    g: Graph, roots: Iterable[str] | None = None
) -> tuple[tuple[str, ...], Mapping[str, str | None]]:
    """Breadth-first spanning forest: the one traversal every query builds on.

    Trees are grown from ``roots`` in the given order (default: every vertex
    in sorted order, so the forest spans g), scanning neighbors in sorted
    order. Returns the visit order, in which every parent precedes its
    children, and a read-only map from each reached vertex to its parent
    (None for a root). The default-root forest is memoized on g.
    """
    if roots is None:
        return _memoized(g, "forest", _forest)
    return _forest(g, roots)


def _forest(
    g: Graph, roots: Iterable[str] | None = None
) -> tuple[tuple[str, ...], Mapping[str, str | None]]:
    order: list[str] = []
    parent: dict[str, str | None] = {}
    head = 0
    for root in g.vertices if roots is None else roots:
        if root in parent:
            continue
        parent[root] = None
        order.append(root)
        while head < len(order):
            v = order[head]
            head += 1
            for w in g.neighbors(v):
                if w not in parent:
                    parent[w] = v
                    order.append(w)
    return tuple(order), MappingProxyType(parent)


def fundamental_cycle_masks(g: Graph) -> tuple[int, ...]:
    """Edge masks of the fundamental cycles of the spanning forest.

    Bit i stands for ``g.edges[i]``. There is one mask per non-tree edge, in
    edge order: the edge plus the tree path between its endpoints. These
    m - n + c masks span the cycle space (c = number of components), so a
    parity that is even on each of them is even on every cycle. Memoized on g.
    """
    return _memoized(g, "masks", _fundamental_cycle_masks)


def _fundamental_cycle_masks(g: Graph) -> tuple[int, ...]:
    order, parent = spanning_forest(g)
    index = {e: i for i, e in enumerate(g.edges)}
    path: dict[str, int] = {}
    for v in order:
        p = parent[v]
        path[v] = 0 if p is None else path[p] ^ (1 << index[edge_key(p, v)])
    return tuple(
        path[u] ^ path[v] ^ (1 << i)
        for i, (u, v) in enumerate(g.edges)
        if parent[u] != v and parent[v] != u
    )


def sign_partition(
    g: Graph, negative: Iterable[Edge]
) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """A 2-partition that exactly the ``negative`` edges of g cross, or None.

    Harary's criterion (1953): a signature is balanced iff such a partition
    exists, and with every edge negative it is a bipartition. Folds a side
    over the spanning forest: a root takes side 0, and a tree edge flips its
    parent's side iff it is negative. The partition exists iff every edge
    then agrees. Returns the roots' side first, each part in sorted order.
    Edges are in canonical form (``edge_key``), as in ``g.edges``.
    """
    neg = set(negative)
    order, parent = spanning_forest(g)
    side: dict[str, int] = {}
    for v in order:
        p = parent[v]
        side[v] = 0 if p is None else side[p] ^ ((p, v) in neg or (v, p) in neg)
    for u, v in g.edges:
        if side[u] ^ side[v] != ((u, v) in neg):
            return None
    return (
        tuple(v for v in g.vertices if not side[v]),
        tuple(v for v in g.vertices if side[v]),
    )


def bipartition(g: Graph) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """A 2-partition with every edge crossing, or None for non-bipartite g.
    Memoized on g."""
    return _memoized(g, "bipartition", _bipartition)


def _bipartition(g: Graph) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    return sign_partition(g, g.edges)


def is_bipartite(g: Graph) -> bool:
    return bipartition(g) is not None


def connected_components(g: Graph) -> list[tuple[str, ...]]:
    """Vertex sets of the spanning-forest trees, each sorted, by smallest vertex."""
    order, parent = spanning_forest(g)
    root: dict[str, str] = {}
    for v in order:
        p = parent[v]
        root[v] = v if p is None else root[p]
    comps: dict[str, list[str]] = {}
    for v in g.vertices:
        comps.setdefault(root[v], []).append(v)
    return [tuple(c) for c in comps.values()]


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def cut_edges(g: Graph) -> tuple[Edge, ...]:
    """The bridges of g: edges whose removal disconnects their endpoints.

    Equivalently, the edges lying on no cycle, which are the edges that no
    fundamental cycle covers.
    """
    covered = _covered(g)
    return tuple(e for i, e in enumerate(g.edges) if not covered >> i & 1)


def _covered(g: Graph) -> int:
    """The edge mask of the edges on some cycle: the fundamental masks' union."""
    covered = 0
    for mask in fundamental_cycle_masks(g):
        covered |= mask
    return covered


def simple_cycles(g: Graph, max_vertices: int = DEFAULT_CYCLE_BOUND) -> list[tuple[str, ...]]:
    """Every simple cycle of g, once per rotation/reflection class.

    Each cycle is reported as a vertex sequence starting at its smallest
    vertex, oriented toward its smaller neighbor, and the list is sorted by
    (length, sequence). Raises BoundExceeded when |V| > max_vertices.
    """
    _check_cycle_bound(g, max_vertices)
    adj = g._adj
    # The vertices an unlisted cycle may still pass through, with their
    # degree among each other. A vertex left with fewer than two neighbours
    # lies on no such cycle, nor does a start vertex once its search is done;
    # both leave, and ``doomed`` holds those whose neighbours are still to be
    # told. On a ring, the first search lists the cycle and the peel then
    # empties it.
    degree = {v: len(ns) for v, ns in adj.items()}
    present = {v for v, d in degree.items() if d >= 2}
    doomed = [v for v, d in degree.items() if d < 2]
    cycles: list[tuple[str, ...]] = []
    for s in g.vertices:
        while doomed:
            for w in adj[doomed.pop()]:
                if w in present:
                    degree[w] -= 1
                    if degree[w] < 2:
                        present.discard(w)
                        doomed.append(w)
        if s not in present:
            continue
        # Depth-first over the paths from s through present vertices, one
        # neighbour iterator per path vertex, so long paths need no recursion.
        # A path vertex is out of ``present`` until it is popped.
        present.discard(s)
        path = [s]
        stack = [iter(adj[s])]
        while stack:
            for w in stack[-1]:
                if w == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        cycles.append(tuple(path))
                elif w in present:
                    present.discard(w)
                    path.append(w)
                    stack.append(iter(adj[w]))
                    break
            else:
                stack.pop()
                present.add(path.pop())
        present.discard(s)
        doomed.append(s)
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def cycle_edges(cycle: tuple[str, ...]) -> tuple[Edge, ...]:
    """Edges traversed by a cyclic vertex sequence, in canonical form."""
    return tuple(
        edge_key(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    )


def _check_cycle_bound(g: Graph, max_vertices: int) -> None:
    if g.n > max_vertices:
        raise BoundExceeded(
            f"cycle enumeration limited to {max_vertices} vertices, graph has {g.n}"
        )


def cycle_masks(
    g: Graph, max_vertices: int = DEFAULT_CYCLE_BOUND
) -> tuple[tuple[tuple[str, ...], int], ...]:
    """``simple_cycles`` as (cycle, edge mask) pairs; bit i stands for ``g.edges[i]``.

    The bound is checked on every call; the listing is held per graph alone.
    """
    _check_cycle_bound(g, max_vertices)
    return _cycle_masks(g)


@lru_cache(maxsize=_CYCLE_MEMO_GRAPHS)
def _cycle_masks(g: Graph) -> tuple[tuple[tuple[str, ...], int], ...]:
    index = {e: i for i, e in enumerate(g.edges)}
    cycles = simple_cycles(g, g.n)
    return tuple((c, sum(1 << index[e] for e in cycle_edges(c))) for c in cycles)


def in_triangle(g: Graph, v: str) -> bool:
    """True iff two neighbors of v are adjacent to each other."""
    ns = g.neighbors(v)
    for i, a in enumerate(ns):
        for b in ns[i + 1:]:
            if g.has_edge(a, b):
                return True
    return False


def vertices_on_cycles(g: Graph) -> frozenset[str]:
    """Vertices lying on at least one cycle: the endpoints of non-bridge edges."""
    covered = _covered(g)
    return frozenset(v for i, e in enumerate(g.edges) if covered >> i & 1 for v in e)
