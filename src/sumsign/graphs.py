"""Simple undirected graphs and the structural queries the sign theory needs.

Vertices are opaque strings; all iteration orders are lexicographic so that
every derived artifact is deterministic. Graphs are immutable after
construction and safe to share.

One breadth-first spanning forest (``spanning_forest``) answers every
traversal question: the 2-coloring, the components, and, through the
fundamental cycles of its non-tree edges, the bridges and the vertices on
cycles. Only ``simple_cycles`` lists every cycle; it is the by-definition
reference and the only query limited by a vertex bound.
"""

from __future__ import annotations

from typing import Iterable

from .errors import BoundExceeded, ParseError, UnknownVertex

#: Default ceiling on |V| for simple-cycle enumeration; cycle counts grow
#: super-exponentially and everything here is meant for desk-scale graphs.
DEFAULT_CYCLE_BOUND = 12

Edge = tuple[str, str]


def edge_key(u: str, v: str) -> Edge:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Graph:
    """Finite simple graph: no loops, no parallel edges, string vertex ids.

    Isolated vertices are permitted (transform operations can transiently
    create them), they just never participate in edge rules.
    """

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge] = ()):
        verts = tuple(sorted(set(vertices)))
        vset = set(verts)
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
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        object.__setattr__(
            self, "_adj", {v: tuple(sorted(ns)) for v, ns in adj.items()}
        )

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], isolated: Iterable[str] = ()) -> "Graph":
        edges = list(edges)
        vertices = {u for e in edges for u in e} | set(isolated)
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
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise ParseError("expected 'vertex <id>'", lineno)
            isolated.append(parts[1])
        elif len(parts) == 2:
            if parts[0] == parts[1]:
                raise ParseError(f"self-loop at {parts[0]!r} not allowed", lineno)
            edges.append((parts[0], parts[1]))
        else:
            raise ParseError(f"expected 'u v' or 'vertex u', got {line!r}", lineno)
    return Graph.from_edges(edges, isolated=isolated)


def format_graph(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in g.edges]
    covered = {u for e in g.edges for u in e}
    lines.extend(f"vertex {v}" for v in g.vertices if v not in covered)
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

def spanning_forest(
    g: Graph, roots: Iterable[str] | None = None
) -> tuple[list[str], dict[str, str | None]]:
    """Breadth-first spanning forest: the one traversal every query builds on.

    Trees are grown from ``roots`` in the given order (default: every vertex
    in sorted order, so the forest spans g), scanning neighbors in sorted
    order. Returns the visit order, in which every parent precedes its
    children, and the parent of each reached vertex (None for a root).
    """
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
    return order, parent


def fundamental_cycle_masks(g: Graph) -> list[int]:
    """Edge masks of the fundamental cycles of the spanning forest.

    Bit i stands for ``g.edges[i]``. There is one mask per non-tree edge, in
    edge order: the edge plus the tree path between its endpoints. These
    m - n + c masks span the cycle space (c = number of components), so a
    parity that is even on each of them is even on every cycle.
    """
    order, parent = spanning_forest(g)
    index = {e: i for i, e in enumerate(g.edges)}
    path: dict[str, int] = {}
    for v in order:
        p = parent[v]
        path[v] = 0 if p is None else path[p] ^ (1 << index[edge_key(p, v)])
    return [
        path[u] ^ path[v] ^ (1 << i)
        for i, (u, v) in enumerate(g.edges)
        if parent[u] != v and parent[v] != u
    ]


def two_coloring(g: Graph) -> dict[str, int] | None:
    """2-coloring along the spanning forest; None when g has an odd cycle."""
    order, parent = spanning_forest(g)
    color: dict[str, int] = {}
    for v in order:
        p = parent[v]
        color[v] = 0 if p is None else 1 - color[p]
    if any(color[u] == color[v] for u, v in g.edges):
        return None
    return color


def bipartition(g: Graph) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """A 2-partition with every edge crossing, or None for non-bipartite g."""
    color = two_coloring(g)
    if color is None:
        return None
    part0 = tuple(v for v in g.vertices if color[v] == 0)
    part1 = tuple(v for v in g.vertices if color[v] == 1)
    return part0, part1


def is_bipartite(g: Graph) -> bool:
    return two_coloring(g) is not None


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
    covered = 0
    for mask in fundamental_cycle_masks(g):
        covered |= mask
    return tuple(e for i, e in enumerate(g.edges) if not covered >> i & 1)


def simple_cycles(g: Graph, max_vertices: int = DEFAULT_CYCLE_BOUND) -> list[tuple[str, ...]]:
    """Every simple cycle of g, once per rotation/reflection class.

    Each cycle is reported as a vertex sequence starting at its smallest
    vertex, oriented toward its smaller neighbor, and the list is sorted by
    (length, sequence). Raises BoundExceeded when |V| > max_vertices.
    """
    if g.n > max_vertices:
        raise BoundExceeded(
            f"cycle enumeration limited to {max_vertices} vertices, graph has {g.n}"
        )
    cycles: list[tuple[str, ...]] = []
    path: list[str] = []
    on_path: set[str] = set()

    def extend(anchor: str, v: str) -> None:
        for w in g.neighbors(v):
            if w == anchor:
                if len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w > anchor and w not in on_path:
                path.append(w)
                on_path.add(w)
                extend(anchor, w)
                path.pop()
                on_path.remove(w)

    for s in g.vertices:
        path = [s]
        on_path = {s}
        extend(s, s)
    cycles.sort(key=lambda c: (len(c), c))
    return cycles


def cycle_edges(cycle: tuple[str, ...]) -> tuple[Edge, ...]:
    """Edges traversed by a cyclic vertex sequence, in canonical form."""
    return tuple(
        edge_key(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    )


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
    bridges = set(cut_edges(g))
    return frozenset(v for e in g.edges if e not in bridges for v in e)
