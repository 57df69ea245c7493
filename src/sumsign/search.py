"""The index-space search: every claim's labelings walked as set indices.

A labeling is a tuple of indices into the candidate sets of one
``_LabelingSpace``, and each member search decides its claim from that
space's parity rows and pair memo, the member's own rows and its
automorphism chain. It records each failing labeling as its indices and
targets, one per automorphism orbit, and ``_Tally.add_orbits`` expands the
orbit. The search builds no ``Labeling``, derives nothing and transforms
nothing: ``verify`` replays every finding through the public pipeline, so
the two paths check each other. Of the package, this module therefore
imports ``graphs``, ``intsets`` and ``errors`` alone, and a hygiene test
holds it to that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from operator import getitem
from typing import Callable, Iterator, Sequence

from .errors import BoundExceeded, ParseError, check_count, check_flag
from .graphs import (
    Graph,
    _edge_positions,
    automorphism_chain,
    automorphism_count,
    automorphisms,
    cut_edges,
    edge_key,
    format_graph,
    in_triangle,
    is_bipartite,
    spanning_forest,
    vertices_on_cycles,
)
from .intsets import IntegerSet, ap_pair, ap_profile


@dataclass(frozen=True)
class SearchBounds:
    """Finite limits for the labeling search space.

    Labels are arithmetic progressions inside {0..universe_max} with at most
    max_label_size elements. With require_strict_universe, edge labels must
    stay inside the universe as well. odd_ratios_only restricts the space to
    labelings whose every edge has an odd deterministic ratio. The three
    counts must be ints and the two flags bools: anything else raises
    ParseError, as an out-of-range count does.
    """

    universe_max: int
    max_label_size: int
    max_vertices: int = 12
    require_strict_universe: bool = False
    odd_ratios_only: bool = False

    def __post_init__(self):
        for name in ("universe_max", "max_label_size", "max_vertices"):
            check_count(name, getattr(self, name))
        for name in ("require_strict_universe", "odd_ratios_only"):
            check_flag(name, getattr(self, name))
        if self.universe_max < 0:
            raise ParseError("universe_max must be non-negative")
        if self.max_label_size < 1:
            raise ParseError("max_label_size must be positive")
        if self.max_vertices < 1:
            raise ParseError("max_vertices must be positive")

    def describe(self) -> str:
        return (
            f"universe_max={self.universe_max} "
            f"max_label_size={self.max_label_size} "
            f"max_vertices={self.max_vertices} "
            f"strict_universe={'true' if self.require_strict_universe else 'false'} "
            f"odd_ratios_only={'true' if self.odd_ratios_only else 'false'}"
        )


# ---------------------------------------------------------------------------
# The labeling search space
# ---------------------------------------------------------------------------

def _progressions(universe_max: int, max_size: int) -> Iterator[IntegerSet]:
    """The progression-valued subsets of {0..universe_max} up to max_size,
    generated in canonical order: by length, then first element, then
    difference, which is the order of (size, elements). Singletons come
    first, so searches visit small label masses early."""
    for first in range(universe_max + 1):
        yield IntegerSet([first])
    for length in range(2, min(max_size, universe_max + 1) + 1):
        for first in range(universe_max + 1):
            for diff in range(1, (universe_max - first) // (length - 1) + 1):
                yield IntegerSet(range(first, first + length * diff, diff))


# Most candidate sets one search space may hold; its build checks every
# pair, so its time grows as the square of this count.
_MAX_CANDIDATE_SETS = 2000
# Search spaces kept for reuse: runs at the bounds of the last one (one run
# per family member, say) share its tables and its warm pair_sum memo.
_LABELING_SPACES = 1


class _LabelingSpace:
    """Per-bounds tables: candidate sets and two S-bit rows.

    ``__init__`` fills the rows in one pass over the pairs i < j:
    ``compat[i]``, a bitmask of the j allowed next to set i (admitted by
    intsets.ap_pair, and within the bounds' odd-ratio and strict-universe
    rules); ``odd[i]``, a bitmask of the j with |set_i + set_j| odd, i.e. a
    negative edge. The parity is brute force, not intsets.sumset, so the
    search stays independent of the object-level replay. The pass checks
    S^2/2 pairs, so S is capped at _MAX_CANDIDATE_SETS.

    ``pair_sum`` memoizes what the transform and injectivity searches need
    of the sumset of one pair: one integer id per distinct sumset and its
    subdivision parity, no elements. A candidate set's id is its index in
    ``sets``; any other sumset gets a fresh id past them, so an id is in a
    labeling's used-set mask only when the sumset labels a vertex. The memo
    and the id table are filled on first read only: an eager fill would
    hold an entry per allowed pair, several times the rows' memory at the
    cap, for experiments that never read it.
    """

    def __init__(self, bounds: SearchBounds):
        sets = _progressions(bounds.universe_max, bounds.max_label_size)
        self.sets = tuple(islice(sets, _MAX_CANDIDATE_SETS + 1))
        if len(self.sets) > _MAX_CANDIDATE_SETS:
            raise BoundExceeded(
                f"search space limited to {_MAX_CANDIDATE_SETS} candidate label sets, "
                f"universe_max={bounds.universe_max} "
                f"max_label_size={bounds.max_label_size} gives more"
            )
        self.bounds = bounds
        profiles = [ap_profile(s) for s in self.sets]
        assert None not in profiles
        n = len(self.sets)
        self.compat = [0] * n
        self.odd = [0] * n
        for i in range(n):
            a = self.sets[i].elements
            for j in range(i + 1, n):
                b = self.sets[j].elements
                if len({x + y for x in a for y in b}) & 1:
                    self.odd[i] |= 1 << j
                    self.odd[j] |= 1 << i
                k = ap_pair(profiles[i], profiles[j])[2]
                if k is None or (bounds.odd_ratios_only and k % 2 == 0):
                    continue
                if bounds.require_strict_universe and a[-1] + b[-1] > bounds.universe_max:
                    continue
                self.compat[i] |= 1 << j
                self.compat[j] |= 1 << i
        self._sums: dict[tuple[int, int], tuple[int, int]] = {}

    @cached_property
    def _ids(self) -> dict[tuple[int, ...], int]:
        return {s.elements: i for i, s in enumerate(self.sets)}

    def pair_sum(self, i: int, j: int) -> tuple[int, int]:
        """(the id of C = set_i + set_j; the subdivision parity
        |C| + |set_i + C| + |C + set_j| mod 2)."""
        if i > j:
            i, j = j, i
        entry = self._sums.get((i, j))
        if entry is None:
            a, b = self.sets[i].elements, self.sets[j].elements
            c = tuple(sorted({x + y for x in a for y in b}))
            delta = (
                len(c)
                + len({x + z for x in a for z in c})
                + len({z + y for z in c for y in b})
            ) & 1
            ids = self._ids
            entry = self._sums[i, j] = (ids.setdefault(c, len(ids)), delta)
        return entry


@lru_cache(maxsize=_LABELING_SPACES)
def _labeling_space(bounds: SearchBounds) -> _LabelingSpace:
    """The search space of bounds, built once while they are the last ones
    asked for."""
    return _LabelingSpace(bounds)


def _walk(
    g: Graph, space: _LabelingSpace, balanced: bool = False, orbits: bool = False
) -> tuple[list[int], int, Iterator[int]]:
    """The odometer every labeling walk shares: ``(assign, last, masks)``.

    ``assign`` holds one set index per vertex, in ``g.vertices`` order. The
    generator ``masks`` assigns every vertex but the one at position
    ``last``, injectively and with each candidate set in canonical order,
    and yields once per such prefix, with the prefix in ``assign``: the
    bitmask of the sets the last vertex may take. The caller expands or
    counts that mask, so the last level costs no stack step.

    Each vertex is cut by its earlier neighbours' ``compat`` rows. The plain
    walk assigns vertices in sorted order. The balanced walk assigns them in
    ``spanning_forest`` order and keeps a potential s per vertex: s = 0 at
    a root, and s(i) = s(p0) xor p(p0, i) below its forest parent p0, where
    p is the negative-edge parity. Each other earlier neighbour q must then
    close an even cycle, p(q, i) = s(q) xor s(i), so it cuts the candidates
    to ``x`` or ``~x``, x = odd[a_q] ^ odd[a_p0].
    A signed graph is balanced iff such potentials exist (Harary 1953), and
    they are unique once the roots are fixed, so the balanced walk reaches
    each balanced labeling once and no other. g must have a vertex.

    With ``orbits``, either walk assigns vertices in ``spanning_forest``
    order w_0, w_1, … and reaches only the least labeling of each orbit of
    Aut(g), comparing labelings as sequences in that order. Aut(g) acts on
    labelings by f -> f∘s, and freely, since every labeling is injective; the
    walks' admissibility and balance are invariant under it, so every orbit
    the plain or balanced walk meets holds |Aut(g)| of its labelings. For
    s ≠ id, let k be the first position with s(w_k) ≠ w_k: f and f∘s first
    differ there, so f is the least iff f(w_k) < f(x) for each x ≠ w_k in
    the orbit of w_k under the automorphisms that fix w_0 … w_{k-1}, which
    is level k of ``automorphism_chain``. Each such pair is one mask AND at
    x's level, keeping the sets above w_k's.
    """
    verts = g.vertices
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    order, parent = spanning_forest(g) if balanced or orbits else (verts, {})
    rank = {v: r for r, v in enumerate(order)}
    # Per vertex position, the earlier vertices whose sets its set must lie
    # above.
    above: list[list[int]] = [[] for _ in range(n)]
    if orbits:
        for w, transversal in automorphism_chain(g):
            for x, _ in transversal:
                if x != w:
                    above[x].append(w)
    # Per level: the vertex position, the earlier neighbours whose compat
    # rows cut it, its forest parent (-1 for a root or in the plain walk),
    # the other earlier neighbours whose potentials cut it, and the earlier
    # vertices whose sets it must lie above.
    levels = []
    for v in order:
        before = [pos[w] for w in g.neighbors(v) if rank[w] < rank[v]]
        p0 = pos[parent[v]] if balanced and parent[v] is not None else -1
        others = [q for q in before if q != p0] if balanced else []
        levels.append((pos[v], before, p0, others, above[pos[v]]))
    compat, odd = space.compat, space.odd
    full = (1 << len(space.sets)) - 1
    assign = [0] * n
    potential = [0] * n

    def candidates(level: int, used: int) -> int:
        _, before, p0, others, above = levels[level]
        allowed = full & ~used
        for q in before:
            allowed &= compat[assign[q]]
        for q in above:
            allowed &= -(2 << assign[q])
        if others:
            odd0, s0 = odd[assign[p0]], potential[p0]
            for q in others:
                x = odd[assign[q]] ^ odd0
                allowed &= x if potential[q] != s0 else ~x
        return allowed

    def masks() -> Iterator[int]:
        last = n - 1
        if last == 0:
            yield candidates(0, 0)
            return
        # rem[i]: the sets level i has still to try; used[i]: the sets the
        # levels before i hold.
        rem = [candidates(0, 0)] + [0] * (last - 1)
        used = [0] * last
        i = 0
        while i >= 0:
            m = rem[i]
            if not m:
                i -= 1
                continue
            low = m & -m
            rem[i] = m ^ low
            j = low.bit_length() - 1
            v, _, p0, _, _ = levels[i]
            assign[v] = j
            if p0 >= 0:
                potential[v] = potential[p0] ^ (odd[assign[p0]] >> j & 1)
            if i + 1 == last:
                yield candidates(last, used[i] | low)
            else:
                used[i + 1] = used[i] | low
                i += 1
                rem[i] = candidates(i, used[i])

    return assign, levels[-1][0], masks()


def _visit(
    g: Graph, space: _LabelingSpace, balanced: bool = False, orbits: bool = False
) -> Iterator[tuple[int, ...]]:
    """All injective admissible assignments, as set-index tuples in
    ``g.vertices`` order, expanded from the masks of ``_walk``: in
    lexicographic order, vertices sorted and candidate sets in canonical
    order. With ``balanced``, only those whose signed graph is balanced, each
    once, in the balanced walk's order. With ``orbits``, only the least of
    each orbit of Aut(g) (see ``_walk``). The empty graph has one labeling,
    the empty one."""
    if not g.vertices:
        yield ()
        return
    assign, last, masks = _walk(g, space, balanced, orbits)
    for allowed in masks:
        while allowed:
            low = allowed & -allowed
            assign[last] = low.bit_length() - 1
            yield tuple(assign)
            allowed ^= low


def _count_indices(g: Graph, space: _LabelingSpace) -> int:
    """len(list(_visit(g, space, orbits=True))), one per orbit of Aut(g),
    adding up the last vertex's candidate masks instead of visiting each set."""
    if not g.vertices:
        return 1
    return sum(allowed.bit_count() for allowed in _walk(g, space, orbits=True)[2])


class _Tally:
    """What one experiment run counted and where its claim failed.

    A finding is ``(graph, indices, targets)``: one per failing labeling,
    given by its set indices into ``space.sets`` in ``graph.vertices``
    order, with a tuple of every target where it fails, in the order the
    search checked them. Only replay builds its ``Labeling``.
    """

    def __init__(self, space: _LabelingSpace):
        self.space = space
        self.cases = 0
        self.skipped = 0
        self.constructed_ok = 0
        self.findings: list[tuple[Graph, tuple[int, ...], tuple]] = []

    def add_orbits(
        self, g: Graph, cases: int, skipped: int, findings: list[tuple[tuple[int, ...], tuple]]
    ) -> None:
        """Add what a search counted and found on the orbit walk of g, one
        labeling per orbit of Aut(g): each count |Aut(g)| times, and each
        finding ``(indices, targets)`` as its |Aut(g)| images. The image
        under an automorphism s puts the set of each vertex v on s(v), and
        fails at the images of the targets, put back in search order: edge
        order or vertex order, both sorted. The group is listed only here,
        and only when there is a finding."""
        order = automorphism_count(g)
        self.cases += cases * order
        self.skipped += skipped * order
        if not findings:
            return
        names = g.vertices
        images = []
        for s in automorphisms(g):
            source = [0] * g.n
            for i, x in enumerate(s):
                source[x] = i
            image = {None: None}
            for i, v in enumerate(names):
                image[v] = names[s[i]]
            for u, v in g.edges:
                image[u, v] = edge_key(image[u], image[v])
            images.append((source, image))
        for indices, targets in findings:
            for source, image in images:
                self.findings.append((
                    g,
                    tuple(map(indices.__getitem__, source)),
                    tuple(sorted(map(image.__getitem__, targets))),
                ))


def _balance_fwd_search(tally: _Tally, g: Graph) -> None:
    """Every labeling of a bipartite member must be balanced; a
    non-bipartite member is skipped. The findings are the labelings of the
    plain orbit walk that the balanced one skips: both assign vertices in
    forest order with candidates ascending, so one merge finds them."""
    if not is_bipartite(g):
        tally.skipped += 1
        return
    space = tally.space
    balanced = _visit(g, space, balanced=True, orbits=True)
    expected = next(balanced, None)
    cases = 0
    found = []
    for indices in _visit(g, space, orbits=True):
        cases += 1
        if indices == expected:
            expected = next(balanced, None)
        else:
            found.append((indices, (None,)))
    assert expected is None, "the balanced walk left the plain walk's order"
    tally.add_orbits(g, cases, 0, found)


def _balance_rev_search(tally: _Tally, g: Graph) -> None:
    """A non-bipartite member must have no balanced labeling: every labeling
    counts as a case and each one the balanced walk yields is a finding. A
    bipartite member is skipped."""
    space = tally.space
    if is_bipartite(g):
        tally.skipped += 1
        return
    found = [(indices, (None,)) for indices in _visit(g, space, balanced=True, orbits=True)]
    tally.add_orbits(g, _count_indices(g, space), 0, found)


def _subdivision_search(tally: _Tally, g: Graph) -> None:
    """Subdivide every edge of every balanced labeling, in index space.

    Carried edges keep their signs, so the result is balanced iff the edge
    is a cut edge or its pair's subdivision parity is even. An edge whose
    inherited set labels a vertex is skipped.
    """
    space = tally.space
    pos = {v: i for i, v in enumerate(g.vertices)}
    cut = set(cut_edges(g))
    rows = [(pos[u], pos[v], (u, v) not in cut, (u, v)) for u, v in g.edges]
    cases = skipped = 0
    found = []
    for indices in _visit(g, space, balanced=True, orbits=True):
        used = 0
        for k in indices:
            used |= 1 << k
        failed = []
        for a, b, noncut, e in rows:
            inherited, delta = space.pair_sum(indices[a], indices[b])
            if used >> inherited & 1:
                skipped += 1
                continue
            cases += 1
            if noncut and not delta:
                failed.append(e)
        if failed:
            found.append((indices, tuple(failed)))
    tally.add_orbits(g, cases, skipped, found)


def _homeomorphism_search(tally: _Tally, g: Graph) -> None:
    """Transform every eligible vertex (degree 2, in no triangle) of every
    balanced labeling, in index space.

    The new edge ab replaces the path a-v-b, so the result is balanced iff v
    lies on no cycle or p(ab) + p(av) + p(vb) is even. Only the eligible
    vertices on a cycle can fail; every eligible vertex is a case.
    """
    eligible = [v for v in g.vertices if g.degree(v) == 2 and not in_triangle(g, v)]
    if not eligible:
        return
    space = tally.space
    odd = space.odd
    pos = {v: i for i, v in enumerate(g.vertices)}
    on_cycle = vertices_on_cycles(g)
    rows = []
    for v in eligible:
        if v in on_cycle:
            a, b = g.neighbors(v)
            rows.append((pos[v], pos[a], pos[b], v))
    labelings = 0
    found = []
    for indices in _visit(g, space, balanced=True, orbits=True):
        labelings += 1
        failed = []
        for p, a, b, v in rows:
            x, y, z = indices[a], indices[b], indices[p]
            if not (odd[x] >> y ^ odd[x] >> z ^ odd[z] >> y) & 1:
                failed.append(v)
        if failed:
            found.append((indices, tuple(failed)))
    tally.add_orbits(g, labelings * len(eligible), 0, found)


def _iasi_search(tally: _Tally, g: Graph) -> None:
    """Injective iff the edges' sumsets are distinct."""
    space = tally.space
    edges = _edge_positions(g)
    cases = 0
    found = []
    for indices in _visit(g, space, orbits=True):
        cases += 1
        sums = {space.pair_sum(indices[a], indices[b])[0] for _, a, b in edges}
        if len(sums) < len(edges):
            found.append((indices, (None,)))
    tally.add_orbits(g, cases, 0, found)


def _finding_order(space: _LabelingSpace, graphs: Sequence[Graph]) -> Callable[[tuple], int]:
    """A sort key on the findings on ``graphs`` that orders them as
    ``Counterexample.sort_key`` orders their counterexamples: by n, label
    mass, graph text, then the text rank of each vertex's set.

    Every labeling of one report shares ``universe_max``, and on one graph
    text the vertex list, so two labeling texts first differ inside the
    texts of two sets. A set text ends in its only '}', so neither is a
    proper prefix of the other, and the texts compare as the sets' ranks in
    ``space.sets`` sorted by text. Index order is not text order: {0,1}
    comes before {0}, and {10} before {2}.

    The key is one int with these four as its digits, from the top. For an
    n-vertex graph, the set ranks are n digits in base S (the number of
    sets), below ``per_text`` = S**n; the graph-text rank counts in
    ``per_text`` below ``per_mass``; the mass counts in ``per_mass``; and n
    counts in ``per_n``, which exceeds the lower digits of any finding. A
    finding's key is its graph's constant plus one entry per vertex of the
    table for n: ``tables[n][p][i]`` is the mass and rank digits of set i at
    vertex position p. Graphs are keyed on their id, since the findings hold
    the ``Graph`` objects of ``graphs`` themselves.
    """
    sets = space.sets
    count = len(sets)
    rank = [0] * count
    for r, i in enumerate(sorted(range(count), key=lambda i: sets[i].to_text())):
        rank[i] = r
    size = [len(s) for s in sets]
    text_rank = {text: r for r, text in enumerate(sorted({format_graph(g) for g in graphs}))}
    top = max(g.n for g in graphs)
    per_n = (top * max(size) + 1) * len(text_rank) * count**top
    tables: dict[int, list[list[int]]] = {}
    bases: dict[int, tuple[int, list[list[int]]]] = {}
    for g in graphs:
        n = g.n
        per_text = count**n
        if n not in tables:
            per_mass = len(text_rank) * per_text
            tables[n] = [
                [size[i] * per_mass + rank[i] * count ** (n - 1 - p) for i in range(count)]
                for p in range(n)
            ]
        bases[id(g)] = (n * per_n + text_rank[format_graph(g)] * per_text, tables[n])

    def key(finding: tuple) -> int:
        base, table = bases[id(finding[0])]
        return base + sum(map(getitem, table, finding[1]))

    return key
