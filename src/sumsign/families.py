"""Graph families used by the verification experiments.

Shipped families: paths, cycles, stars, complete graphs, complete bipartite
graphs, and every connected graph on up to seven vertices (one representative
per isomorphism class, read from ``atlas.txt``, a copy of the connected
entries of the graph atlas). Family specs are short strings like
``connected:5`` so experiments are reproducible from the command line.
"""

from __future__ import annotations

from functools import lru_cache
from importlib.resources import files

from .errors import BoundExceeded, ParseError, check_count
from .graphs import Graph, is_bipartite
from .intsets import parse_digits

MAX_ATLAS_VERTICES = 7


def path_graph(n: int) -> Graph:
    """P_n on vertices v0..v{n-1}."""
    check_count("path size", n)
    if n < 1:
        raise ValueError("path needs at least one vertex")
    verts = [f"v{i}" for i in range(n)]
    return Graph(verts, [(verts[i], verts[i + 1]) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """C_n on vertices v0..v{n-1}."""
    check_count("cycle size", n)
    if n < 3:
        raise ValueError("cycle needs at least three vertices")
    verts = [f"v{i}" for i in range(n)]
    return Graph(verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)])


def star_graph(n: int) -> Graph:
    """Star on n vertices: center c0 joined to n-1 leaves."""
    check_count("star size", n)
    if n < 2:
        raise ValueError("star needs at least two vertices")
    leaves = [f"v{i}" for i in range(1, n)]
    return Graph(["c0"] + leaves, [("c0", leaf) for leaf in leaves])


def complete_graph(n: int) -> Graph:
    check_count("complete graph size", n)
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    verts = [f"v{i}" for i in range(n)]
    return Graph(
        verts,
        [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)],
    )


def complete_bipartite_graph(m: int, n: int) -> Graph:
    check_count("first part size", m)
    check_count("second part size", n)
    if m < 1 or n < 1:
        raise ValueError("both parts need at least one vertex")
    part_a = [f"a{i}" for i in range(m)]
    part_b = [f"b{i}" for i in range(n)]
    return Graph(part_a + part_b, [(a, b) for a in part_a for b in part_b])


def connected_graphs(max_vertices: int) -> tuple[Graph, ...]:
    """Every connected graph with 1..max_vertices vertices, up to isomorphism.

    Read from ``atlas.txt`` in this package: the 996 connected entries on 1..7
    vertices of the graph atlas of Read & Wilson, *An Atlas of Graphs*, as
    networkx 3.6.1 ships it in ``atlas.dat.gz`` (BSD-3-Clause). One line per
    graph holds its vertex count, then its ``u-v`` edges. The atlas orders
    graphs by vertex count, and its order is preserved. Atlas nodes are
    renamed v0.. so everything downstream stays string-keyed and
    lexicographically ordered. The bound is checked before the memo.
    """
    check_count("max_vertices", max_vertices)
    if max_vertices < 1:
        return ()
    if max_vertices > MAX_ATLAS_VERTICES:
        raise ValueError(
            f"connected-graph family is atlas-backed and stops at {MAX_ATLAS_VERTICES} vertices"
        )
    return _connected_graphs(max_vertices)


@lru_cache(maxsize=MAX_ATLAS_VERTICES)
def _connected_graphs(max_vertices: int) -> tuple[Graph, ...]:
    out = []
    for line in files(__package__).joinpath("atlas.txt").read_text("ascii").splitlines():
        n, *edges = line.split()
        if int(n) > max_vertices:
            break
        out.append(Graph(
            [f"v{i}" for i in range(int(n))],
            [tuple(f"v{i}" for i in e.split("-")) for e in edges],
        ))
    return tuple(out)


def bipartite_family(max_vertices: int) -> tuple[Graph, ...]:
    """Bipartite members of the shipped families up to max_vertices vertices.

    All connected bipartite graphs up to seven vertices, plus the
    eight-vertex paths, cycles, stars and complete bipartite graphs when the
    bound allows them.
    """
    check_count("max_vertices", max_vertices)
    atlas_bound = min(max_vertices, MAX_ATLAS_VERTICES)
    members = [g for g in connected_graphs(atlas_bound) if is_bipartite(g)]
    for n in range(MAX_ATLAS_VERTICES + 1, max_vertices + 1):
        members.append(path_graph(n))
        if n % 2 == 0:
            members.append(cycle_graph(n))
        members.append(star_graph(n))
        for m in range(2, n // 2 + 1):
            members.append(complete_bipartite_graph(m, n - m))
    return tuple(members)


# Each family kind: the fewest vertices it takes in its size (in each part,
# for biclique), and its members for the parsed sizes. Every builder is
# looked up by name when called, so a stubbed builder is the one called.
_FAMILY_KINDS = {
    "connected": (1, lambda n: connected_graphs(n)),
    "bipartite": (1, lambda n: bipartite_family(n)),
    "path": (1, lambda n: (path_graph(n),)),
    "cycle": (3, lambda n: (cycle_graph(n),)),
    "star": (2, lambda n: (star_graph(n),)),
    "complete": (1, lambda n: (complete_graph(n),)),
    "biclique": (1, lambda m, n: (complete_bipartite_graph(m, n),)),
}


def parse_family(spec: str, max_vertices: int | None = None) -> tuple[str, tuple[int, ...]]:
    """Check a family spec without building a graph; return (kind, sizes).

    Grammar:
        connected:N     all connected graphs with at most N vertices (1 <= N <= 7)
        bipartite:N     bipartite members of the shipped families, <= N vertices (N >= 1)
        path:N          the path on N vertices (N >= 1)
        cycle:N         the cycle on N vertices (N >= 3)
        star:N          the star on N vertices (N >= 2)
        complete:N      the complete graph on N vertices (N >= 1)
        biclique:M,N    the complete bipartite graph K_{M,N} (M, N >= 1)
        triangle        shorthand for cycle:3

    M and N are ASCII digits; anything else, or a size outside its range,
    raises ParseError, so no valid spec names an empty family. With
    max_vertices, which must be an int (not a bool), a spec whose largest
    member would have more vertices (N, or M+N for biclique) raises
    BoundExceeded first.
    """
    if max_vertices is not None:
        check_count("max_vertices", max_vertices)
    spec = spec.strip()
    kind, sep, arg = ("cycle", ":", "3") if spec == "triangle" else spec.partition(":")
    if not sep:
        raise ParseError(f"bad family spec {spec!r}")
    if kind not in _FAMILY_KINDS:
        raise ParseError(f"unknown family kind {kind!r}")
    texts = arg.partition(",")[::2] if kind == "biclique" else (arg,)
    sizes = tuple(parse_digits(t.strip(), f"integer in family spec {spec!r}:") for t in texts)
    if max_vertices is not None and sum(sizes) > max_vertices:
        raise BoundExceeded(
            f"family {spec} has a member with {sum(sizes)} vertices, bound is {max_vertices}"
        )
    fewest = _FAMILY_KINDS[kind][0]
    if min(sizes) < fewest:
        raise ParseError(f"bad family spec {spec!r}: {kind} needs sizes of at least {fewest}")
    if kind == "connected" and sizes[0] > MAX_ATLAS_VERTICES:
        raise ParseError(
            f"bad family spec {spec!r}: the atlas stops at {MAX_ATLAS_VERTICES} vertices"
        )
    return kind, sizes


def resolve_family(spec: str, max_vertices: int | None = None) -> tuple[Graph, ...]:
    """Turn a family spec string into its graphs; see parse_family."""
    kind, sizes = parse_family(spec, max_vertices)
    return _FAMILY_KINDS[kind][1](*sizes)
