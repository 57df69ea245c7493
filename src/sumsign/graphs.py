"""Simple undirected graphs and the structural queries the sign theory needs.

Vertices are opaque strings; all iteration orders are lexicographic so that
every derived artifact is deterministic. Graphs are immutable after
construction and safe to share.

One breadth-first spanning forest (``spanning_forest``) answers every
traversal question: Harary's sign partition (``_partition``, the one fold
behind ``balance.is_balanced_fast``, whose all-negative case is
``bipartition``), the components, and, through the fundamental cycles of
its non-tree edges, the bridges and the vertices on cycles. Only
``cycle_masks`` lists every cycle, in one depth-first search that carries
each cycle's edge mask; it is the by-definition reference and the only
query limited by a vertex bound. It holds the listing of the last
few graphs, which the sign sweep, the balance oracle and ``simple_cycles``
share.

Each ``Graph`` keeps a private memo, filled on first read: the default-root
spanning forest, the sign partition's forest steps and per-vertex edge
masks, the bipartition, the fundamental cycle masks, the ``format_graph``
text, each edge's end positions (``_edge_positions``), the bridges
(``cut_edges``) and vertices on cycles (``vertices_on_cycles``), each
folded once from the memoized masks, and the automorphism group as a
stabilizer chain (``automorphism_chain``). Each entry is keyed on its
query, the function ``_per_graph`` wraps, so no two queries share one.
The memo belongs to that one graph and dies with it, and everything it
hands out is read-only (tuples, strings, a frozenset and a
``MappingProxyType``), so a caller cannot change what a later call
returns. The cycle listing is not held here but in ``cycle_masks``'
bounded cache, since the family atlas keeps its graphs for the whole
process.
"""

from __future__ import annotations

import re
from functools import lru_cache, wraps
from itertools import compress
from operator import not_
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, TypeVar

from .errors import BoundExceeded, ParseError, UnknownEdge, UnknownVertex, check_count

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

    def edge(self, u: str, v: str) -> Edge:
        """The edge uv in canonical form (``edge_key``), so either order names
        it; raises UnknownEdge when uv is no edge of the graph."""
        key = edge_key(u, v)
        if not self.has_edge(*key):
            raise UnknownEdge(f"edge {key} is not in the graph")
        return key

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


def _per_graph(query: Callable[[Graph], _T]) -> Callable[[Graph], _T]:
    """``query`` memoized on each graph: its value on g is computed on first
    read and kept in ``g._memo`` under ``query`` itself."""

    @wraps(query)
    def memoized(g: Graph) -> _T:
        try:
            return g._memo[query]
        except KeyError:
            value = g._memo[query] = query(g)
            return value

    return memoized


@_per_graph
def format_graph(g: Graph) -> str:
    lines = [f"{u} {v}" for u, v in g.edges]
    covered = {u for e in g.edges for u in e}
    lines.extend(f"vertex {v}" for v in g.vertices if v not in covered)
    return "\n".join(lines) + ("\n" if lines else "")


@_per_graph
def _edge_positions(g: Graph) -> tuple[tuple[Edge, int, int], ...]:
    """Per edge, in edge order: the edge and the positions of its two ends
    in ``g.vertices``."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    return tuple((e, pos[e[0]], pos[e[1]]) for e in g.edges)


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
        return _forest(g)
    order: list[str] = []
    parent: dict[str, str | None] = {}
    head = 0
    for root in roots:
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


@_per_graph
def _forest(g: Graph) -> tuple[tuple[str, ...], Mapping[str, str | None]]:
    return spanning_forest(g, g.vertices)


@_per_graph
def fundamental_cycle_masks(g: Graph) -> tuple[int, ...]:
    """Edge masks of the fundamental cycles of the spanning forest.

    Bit i stands for ``g.edges[i]``. There is one mask per non-tree edge, in
    edge order: the edge plus the tree path between its endpoints. These
    m - n + c masks span the cycle space (c = number of components), so a
    parity that is even on each of them is even on every cycle. Memoized on g.
    """
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


def _partition(
    g: Graph, neg: int
) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """Harary's criterion (1953): a 2-partition that exactly the edges of the
    mask ``neg`` (bit i for ``g.edges[i]``) cross, or None.

    A signature is balanced iff such a partition exists, and with every edge
    negative it is a bipartition. Folds a side over the spanning forest: a
    root takes side 0, and each other vertex its parent's side XOR the
    negative bit of its tree edge. The XOR of the side-1 vertices'
    incidence masks is the mask of the edges that cross, so the partition
    exists iff it equals ``neg``. Returns the roots' side first, so each
    component's smallest vertex is in the first part, and each part in
    sorted order.
    """
    steps, incidence = _steps(g)
    side = [0] * g.n
    cross = 0
    for v, p, i in steps:
        s = side[v] = side[p] ^ (neg >> i & 1)
        if s:
            cross ^= incidence[v]
    if cross != neg:
        return None
    return tuple(compress(g.vertices, map(not_, side))), tuple(compress(g.vertices, side))


@_per_graph
def _steps(g: Graph) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
    """(forest steps, incidence masks) for ``_partition``: one step
    (vertex position, parent position, tree-edge index) per non-root vertex
    in forest order, positions in ``g.vertices``; and per vertex the mask of
    its edges."""
    order, parent = spanning_forest(g)
    pos = {v: i for i, v in enumerate(g.vertices)}
    index = {e: i for i, e in enumerate(g.edges)}
    incidence = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        incidence[pos[u]] |= 1 << i
        incidence[pos[v]] |= 1 << i
    steps = tuple(
        (pos[v], pos[p], index[edge_key(p, v)])
        for v in order
        if (p := parent[v]) is not None
    )
    return steps, tuple(incidence)


@_per_graph
def bipartition(g: Graph) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """A 2-partition with every edge crossing, or None for non-bipartite g.
    Memoized on g."""
    return _partition(g, (1 << g.m) - 1)


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


@_per_graph
def cut_edges(g: Graph) -> tuple[Edge, ...]:
    """The bridges of g: edges whose removal disconnects their endpoints.

    Equivalently, the edges lying on no cycle, which are the edges that no
    fundamental cycle covers. Memoized on g.
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
    (length, sequence). Reads ``cycle_masks``' per-graph listing, so it
    raises as that does, and returns its cycles in a fresh list.
    """
    return [c for c, _ in cycle_masks(g, max_vertices)]


def cycle_masks(
    g: Graph, max_vertices: int = DEFAULT_CYCLE_BOUND
) -> tuple[tuple[tuple[str, ...], int], ...]:
    """Every simple cycle of g with its edge mask, in ``simple_cycles`` order.

    Bit i of a mask stands for ``g.edges[i]``. Raises BoundExceeded when
    |V| > max_vertices, and ParseError when max_vertices is not an int or is
    a bool, on every call; the listing is held per graph alone.
    """
    check_count("cycle bound", max_vertices)
    if g.n > max_vertices:
        raise BoundExceeded(
            f"cycle enumeration limited to {max_vertices} vertices, graph has {g.n}"
        )
    return _cycle_masks(g)


@lru_cache(maxsize=_CYCLE_MEMO_GRAPHS)
def _cycle_masks(g: Graph) -> tuple[tuple[tuple[str, ...], int], ...]:
    """The one cycle search: each path from a start vertex carries the XOR of
    its edges' bits, so a cycle is listed with its mask as it closes."""
    # Each vertex's neighbours in sorted order, each with its edge's bit.
    links: dict[str, list[tuple[str, int]]] = {v: [] for v in g.vertices}
    for i, (u, v) in enumerate(g.edges):
        links[u].append((v, 1 << i))
        links[v].append((u, 1 << i))
    # The vertices an unlisted cycle may still pass through, with their
    # degree among each other. A vertex left with fewer than two neighbours
    # lies on no such cycle, nor does a start vertex once its search is done;
    # both leave, and ``doomed`` holds those whose neighbours are still to be
    # told. On a ring, the first search lists the cycle and the peel then
    # empties it.
    degree = {v: len(ns) for v, ns in links.items()}
    present = {v for v, d in degree.items() if d >= 2}
    doomed = [v for v, d in degree.items() if d < 2]
    cycles: list[tuple[tuple[str, ...], int]] = []
    for s in g.vertices:
        while doomed:
            for w, _ in links[doomed.pop()]:
                if w in present:
                    degree[w] -= 1
                    if degree[w] < 2:
                        present.discard(w)
                        doomed.append(w)
        if s not in present:
            continue
        # Depth-first over the paths from s through present vertices, one
        # neighbour iterator per path vertex, so long paths need no recursion.
        # ``mask`` is the path's edge mask; ``bits`` holds the bit of the edge
        # that reached each path vertex (0 for s), XOR-ed into ``mask`` on
        # push and out again on pop. A path vertex is out of ``present``
        # until it is popped. A cycle that starts at s's largest present
        # neighbour ends at a smaller one, so the orientation rule would drop
        # it: that first step is never taken.
        present.discard(s)
        first = [link for link in links[s] if link[0] in present]
        first.pop()
        path = [s]
        bits = [0]
        mask = 0
        stack = [iter(first)]
        while stack:
            for w, bit in stack[-1]:
                if w == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        cycles.append((tuple(path), mask | bit))
                elif w in present:
                    present.discard(w)
                    path.append(w)
                    bits.append(bit)
                    mask ^= bit
                    stack.append(iter(links[w]))
                    break
            else:
                stack.pop()
                mask ^= bits.pop()
                present.add(path.pop())
        present.discard(s)
        doomed.append(s)
    cycles.sort(key=lambda entry: (len(entry[0]), entry[0]))
    return tuple(cycles)


def in_triangle(g: Graph, v: str) -> bool:
    """True iff two neighbors of v are adjacent to each other."""
    ns = g.neighbors(v)
    for i, a in enumerate(ns):
        for b in ns[i + 1:]:
            if g.has_edge(a, b):
                return True
    return False


@_per_graph
def automorphism_chain(
    g: Graph,
) -> tuple[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]], ...]:
    """Aut(g) as a stabilizer chain along the spanning-forest order.

    An automorphism is a tuple whose entry i is the image of vertex i, both
    positions in ``g.vertices``. Level k of the chain is (w_k, transversal),
    with w_k the k-th vertex of ``spanning_forest(g)``'s order. Its
    transversal holds, per vertex x of the orbit of w_k under the
    automorphisms that fix w_0 … w_{k-1}, ascending, the pair (x, one such
    automorphism taking w_k to x). So |Aut(g)| is the product of the orbit
    sizes (``automorphism_count``), and each automorphism is one product
    t_0 ∘ t_1 ∘ … of one transversal entry per level (``automorphisms``).
    Each entry is found by its own backtracking search, so the group is
    never listed here. Memoized on g.
    """
    order, _ = spanning_forest(g)
    pos = {v: i for i, v in enumerate(g.vertices)}
    base = [pos[v] for v in order]
    adj = [0] * g.n
    for u, v in g.edges:
        adj[pos[u]] |= 1 << pos[v]
        adj[pos[v]] |= 1 << pos[u]
    chain = []
    for k, w in enumerate(base):
        # The automorphisms at this level fix base[:k], so they take w into
        # base[k:] alone.
        images = ((x, _automorphism_to(adj, base, k, x)) for x in sorted(base[k:]))
        chain.append((w, tuple((x, s) for x, s in images if s is not None)))
    return tuple(chain)


def _automorphism_to(
    adj: list[int], base: list[int], k: int, x: int
) -> tuple[int, ...] | None:
    """An automorphism that fixes base[:k] and takes base[k] to x, or None.

    Maps base[k], base[k+1], … in turn, each to an unused vertex of its
    degree whose adjacency to the vertices mapped so far is its own
    adjacency to their preimages, so the completed map keeps every edge and
    every non-edge. Depth-first, with one mask of untried images per level.
    """
    n = len(base)
    full = (1 << n) - 1
    degree = [a.bit_count() for a in adj]
    image = list(range(n))
    mapped = used = 0  # the mapped vertices, and their images
    for v in base[:k]:
        mapped |= 1 << v
        used |= 1 << v
    untried = [0] * n
    untried[k] = 1 << x
    i = k
    while i >= k:
        if i == n:
            return tuple(image)
        v = base[i]
        # The images of v's mapped neighbours: y must be adjacent to exactly
        # these among the used vertices.
        want = 0
        rest = adj[v] & mapped
        while rest:
            low = rest & -rest
            want |= 1 << image[low.bit_length() - 1]
            rest ^= low
        while untried[i]:
            low = untried[i] & -untried[i]
            untried[i] ^= low
            y = low.bit_length() - 1
            if degree[y] == degree[v] and adj[y] & used == want:
                image[v] = y
                mapped |= 1 << v
                used |= low
                i += 1
                if i < n:
                    untried[i] = full & ~used
                break
        else:
            i -= 1
            if i >= k:
                mapped ^= 1 << base[i]
                used ^= 1 << image[base[i]]
    return None


def automorphism_count(g: Graph) -> int:
    """|Aut(g)|: the product of ``automorphism_chain``'s orbit sizes."""
    count = 1
    for _, transversal in automorphism_chain(g):
        count *= len(transversal)
    return count


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of g once, as ``automorphism_chain`` writes them:
    the |Aut(g)| products of one transversal entry per level."""
    group = [tuple(range(g.n))]
    for _, transversal in reversed(automorphism_chain(g)):
        group = [tuple(map(t.__getitem__, s)) for _, t in transversal for s in group]
    return group


@_per_graph
def vertices_on_cycles(g: Graph) -> frozenset[str]:
    """Vertices lying on at least one cycle: the endpoints of non-bridge edges.
    Memoized on g."""
    covered = _covered(g)
    return frozenset(v for i, e in enumerate(g.edges) if covered >> i & 1 for v in e)
