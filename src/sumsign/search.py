"""The index-space search: every claim's labelings walked as set indices.

A labeling is a tuple of indices into the candidate sets of one
``_LabelingSpace``, and each member search decides its claim from that
space's parity rows and pair memo, the member's own rows and its
automorphism chain. Counting has one rule: admissibility, signs and
balance are fixed by each vertex's (length, difference) class, so every
claim's cases and skips, and ``count_aiasl``, are sums over the class
assignments of ``_class_walk``. The orbit walk of ``_visit`` only lists
findings: each failing labeling as its indices and targets, one per
automorphism orbit, which ``_Tally.add_orbits`` expands. The search builds
no ``Labeling``, derives nothing and transforms nothing: ``verify`` replays
every finding through the public pipeline, so the two paths check each
other. Of the package, this module therefore
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


@dataclass(frozen=True, slots=True)
class _Classes:
    """The classes of a space's sets (see ``_LabelingSpace.classes``):
    ``of[i]`` is set i's class, ``members[c]`` the sets of class c
    ascending, and ``compat`` and ``odd`` the class-level rows as K-bit
    masks, K the class count."""

    of: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    compat: tuple[int, ...]
    odd: tuple[int, ...]


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
    cap, for experiments that never read it. ``classes`` folds the rows into
    classes of sets, also on first read.
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
    def classes(self) -> _Classes:
        """The candidate sets grouped by (length, difference), every
        singleton in one class, numbered in the order of their first set;
        under ``require_strict_universe``, one class per set.

        A sumset's size does not change when either operand is shifted, and
        ``ap_pair`` reads lengths and differences alone, so a set's compat
        and odd rows depend on its (length, difference) class alone. The
        strict bound reads max(A) + max(B), which a shift changes, so there
        each set is a class of its own. Each class row is its first member's
        row with every set bit replaced by its set's class bit: a class has
        its own bit in its compat row when two of its sets may be neighbours.
        """
        strict = self.bounds.require_strict_universe
        index: dict[object, int] = {}
        of = []
        for i, s in enumerate(self.sets):
            p = ap_profile(s)
            of.append(index.setdefault(i if strict else (p.length, p.diff), len(index)))
        members: list[list[int]] = [[] for _ in index]
        for i, c in enumerate(of):
            members[c].append(i)
        masks = [sum(1 << i for i in m) for m in members]

        def fold(row: int) -> int:
            return sum(1 << c for c, mask in enumerate(masks) if row & mask)

        return _Classes(
            of=tuple(of),
            members=tuple(map(tuple, members)),
            compat=tuple(fold(self.compat[m[0]]) for m in members),
            odd=tuple(fold(self.odd[m[0]]) for m in members),
        )

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


def _levels(
    g: Graph, balanced: bool, orbits: bool
) -> list[tuple[int, list[int], int, list[int], list[int]]]:
    """The levels of a walk over g's vertices (see ``_visit``), one per
    vertex in the order the walk assigns them: sorted, or ``spanning_forest``
    order when ``balanced`` or ``orbits``.

    Per level: the vertex position in ``g.vertices``, the earlier neighbours
    whose compat rows cut it, its forest parent (-1 for a root or in the
    plain walk), the other earlier neighbours whose potentials cut it, and,
    with ``orbits``, the earlier vertices whose sets its set must lie above.
    """
    verts = g.vertices
    pos = {v: i for i, v in enumerate(verts)}
    order, parent = spanning_forest(g) if balanced or orbits else (verts, {})
    rank = {v: r for r, v in enumerate(order)}
    above: list[list[int]] = [[] for _ in verts]
    if orbits:
        for w, transversal in automorphism_chain(g):
            for x, _ in transversal:
                if x != w:
                    above[x].append(w)
    levels = []
    for v in order:
        before = [pos[w] for w in g.neighbors(v) if rank[w] < rank[v]]
        p0 = pos[parent[v]] if balanced and parent[v] is not None else -1
        others = [q for q in before if q != p0] if balanced else []
        levels.append((pos[v], before, p0, others, above[pos[v]]))
    return levels


def _candidates(
    levels: list[tuple[int, list[int], int, list[int], list[int]]],
    assign: list[int],
    potential: list[int],
    compat: Sequence[int],
    odd: Sequence[int],
    count: int,
) -> Callable[[int, int], int]:
    """The cut of a walk over ``count`` items with rows ``compat`` and
    ``odd``: ``candidates(level, used)`` is the mask of the items outside
    ``used`` that the vertex of ``levels[level]`` may take, given what
    ``assign`` and ``potential`` hold for the earlier vertices. It keeps the
    items inside each earlier neighbour's compat row, above each item the
    vertex must lie above, and agreeing with the potentials on every
    non-tree edge (see ``_visit``)."""
    full = (1 << count) - 1

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

    return candidates


def _visit(
    g: Graph, space: _LabelingSpace, balanced: bool = False, orbits: bool = False
) -> Iterator[tuple[int, ...]]:
    """All injective admissible assignments, as set-index tuples in
    ``g.vertices`` order: in lexicographic order, vertices sorted and
    candidate sets in canonical order. The empty graph has one labeling, the
    empty one. The odometer ``masks`` assigns every vertex but the last one,
    and yields once per such prefix, with the prefix in ``assign``: the
    bitmask of the sets the last vertex may take, expanded here, so the last
    level costs no stack step.

    Each vertex is cut by its earlier neighbours' ``compat`` rows. With
    ``balanced``, the walk yields only the labelings whose signed graph is
    balanced. It assigns vertices in ``spanning_forest`` order and keeps a
    potential s per vertex: s = 0 at a root, and s(i) = s(p0) xor p(p0, i)
    below its forest parent p0, where p is the negative-edge parity. Each
    other earlier neighbour q must then close an even cycle, p(q, i) =
    s(q) xor s(i), so it cuts the candidates to ``x`` or ``~x``,
    x = odd[a_q] ^ odd[a_p0]. A signed graph is balanced iff such
    potentials exist (Harary 1953), and they are unique once the roots are
    fixed, so the balanced walk reaches each balanced labeling once and no
    other.

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
    n = g.n
    if not n:
        yield ()
        return
    levels = _levels(g, balanced, orbits)
    odd = space.odd
    assign = [0] * n
    potential = [0] * n
    candidates = _candidates(levels, assign, potential, space.compat, odd, len(space.sets))

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

    last = levels[-1][0]
    for allowed in masks():
        while allowed:
            low = allowed & -allowed
            assign[last] = low.bit_length() - 1
            yield tuple(assign)
            allowed ^= low


def _class_walk(
    g: Graph, classes: _Classes, balanced: bool
) -> Iterator[tuple[list[int], list[int], int]]:
    """The walk of ``_visit`` over classes in place of sets: every class
    assignment of g that some labeling has, or with ``balanced`` every
    balanced one, each once, as ``(assign, used, count)``.

    ``assign`` holds one class per vertex, in ``g.vertices`` order, and
    ``used[c]`` how many vertices take class c. Admissibility and signs are
    class-level (see ``_LabelingSpace.classes``), so ``count`` labelings
    have this assignment: Π_c m_c (m_c − 1) … (m_c − n_c + 1), where m_c is
    the number of sets in class c and n_c the number of vertices that take
    it. The vertex that takes class c when h of its sets are already taken
    multiplies the count by m_c − h, and the used mask holds the classes
    with no set left. The lists are reused: read them before the next step.

    A class that several sets share may take several vertices, so Aut(g)
    need not act freely on class assignments, and the walk keeps no orbit
    reduction. When every class holds one set, as under
    ``require_strict_universe``, an assignment is one labeling: the walk
    then keeps the orbit constraints of ``_visit`` and counts the least
    assignment of each orbit |Aut(g)| times.
    """
    odd, members = classes.odd, classes.members
    orbits = len(members) == len(classes.of)
    levels = _levels(g, balanced, orbits)
    n = len(levels)
    assign = [0] * n
    potential = [0] * n
    used = [0] * len(members)
    candidates = _candidates(levels, assign, potential, classes.compat, odd, len(members))

    def extend(i: int, count: int, spent: int) -> Iterator[tuple[list[int], list[int], int]]:
        v, _, p0, _, _ = levels[i]
        allowed = candidates(i, spent)
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            c = low.bit_length() - 1
            free = len(members[c]) - used[c]
            assign[v] = c
            if p0 >= 0:
                potential[v] = potential[p0] ^ (odd[assign[p0]] >> c & 1)
            used[c] += 1
            weight = count * free
            if i + 1 == n:
                yield assign, used, weight
            else:
                yield from extend(i + 1, weight, spent | low if free == 1 else spent)
            used[c] -= 1

    start = automorphism_count(g) if orbits else 1
    return extend(0, start, 0) if n else iter([(assign, used, start)])


def _class_count(g: Graph, space: _LabelingSpace, balanced: bool) -> int:
    """How many labelings ``_visit(g, space, balanced)`` yields: the sum of
    the class walk's counts."""
    return sum(count for _, _, count in _class_walk(g, space.classes, balanced))


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

    def add_orbits(self, g: Graph, findings: list[tuple[tuple[int, ...], tuple]]) -> None:
        """Add what a search found on the orbit walk of g, one labeling per
        orbit of Aut(g): each finding ``(indices, targets)`` as its |Aut(g)|
        images. The image under an automorphism s puts the set of each
        vertex v on s(v), and fails at the images of the targets, put back
        in search order: edge order or vertex order, both sorted. The group
        is listed only here, and only when there is a finding."""
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
    forest order with candidates ascending, so one merge finds them. Their
    number must be the plain class count less the balanced one."""
    if not is_bipartite(g):
        tally.skipped += 1
        return
    space = tally.space
    plain = _class_count(g, space, False)
    tally.cases += plain
    balanced = _visit(g, space, balanced=True, orbits=True)
    expected = next(balanced, None)
    found = []
    for indices in _visit(g, space, orbits=True):
        if indices == expected:
            expected = next(balanced, None)
        else:
            found.append((indices, (None,)))
    assert expected is None, "the balanced walk left the plain walk's order"
    listed = len(tally.findings)
    tally.add_orbits(g, found)
    unbalanced = plain - _class_count(g, space, True)
    assert len(tally.findings) - listed == unbalanced, "the unbalanced listing misses the class count"


def _balance_rev_search(tally: _Tally, g: Graph) -> None:
    """A non-bipartite member must have no balanced labeling: every labeling
    counts as a case and each one the balanced walk yields is a finding,
    whose number must be the balanced class count. A bipartite member is
    skipped."""
    space = tally.space
    if is_bipartite(g):
        tally.skipped += 1
        return
    tally.cases += _class_count(g, space, False)
    found = [(indices, (None,)) for indices in _visit(g, space, balanced=True, orbits=True)]
    listed = len(tally.findings)
    tally.add_orbits(g, found)
    balanced = _class_count(g, space, True)
    assert len(tally.findings) - listed == balanced, "the balanced listing misses the class count"


def _subdivision_search(tally: _Tally, g: Graph) -> None:
    """Subdivide every edge of every balanced labeling, counted by class.

    Carried edges keep their signs, so the result is balanced iff the edge
    is a cut edge or its pair's subdivision parity |C| + |A + C| + |C + B|,
    C = A + B, is even. An edge whose inherited set C labels a vertex is
    skipped. The parity is shift-invariant, so the classes of A and B fix
    it: where it is odd on every set pair of every non-cut edge's classes,
    no subdivision fails. ``cases`` and ``skipped`` are counted per
    balanced class assignment (``_class_walk``) and edge.

    Of the ``count`` labelings of a class assignment, those that fix the
    sets of some vertices leave falling(m_c − u_c, n_c − u_c) choices per
    class c, where u_c of the fixed sets lie in c. Since falling(m, n) =
    falling(m, u) · falling(m − u, n − u), that is ``count`` divided by the
    falling factors of the fixed sets: the h-th fixed set of class c
    divides it by m_c − h + 1. So, per edge (a, b), a pair whose C is A or
    B (one of them is {0}) collides at w = a or b in each labeling that
    fixes those two sets. A pair whose C is another candidate set, of class
    c, collides once per vertex w other than a and b that takes class c, in
    each labeling that fixes the three sets; an injective labeling puts C
    on one w at most.

    The balanced orbit walk (``_subdivision_walk``) lists the failing
    subdivisions of g only when some class assignment that the class walk
    reaches has an even pair on a non-cut edge.
    """
    space = tally.space
    members = space.classes.members
    pos = {v: i for i, v in enumerate(g.vertices)}
    cut = set(cut_edges(g))
    rows = [(pos[u], pos[v], (u, v) not in cut) for u, v in g.edges]
    tables: dict[tuple[int, int], tuple[bool, int, list[tuple[int, int]]]] = {}
    cases = skipped = 0
    fails = False
    for assign, used, count in _class_walk(g, space.classes, True):
        for a, b, noncut in rows:
            ca, cb = assign[a], assign[b]
            entry = tables.get((ca, cb))
            if entry is None:
                entry = tables[ca, cb] = _subdivision_pairs(space, ca, cb)
            even, own, third = entry
            if noncut and even:
                fails = True
            fixed = count // (len(members[ca]) * (len(members[cb]) - (ca == cb)))
            collisions = own * fixed
            for c, pairs in third:
                h = 1 + (c == ca) + (c == cb)  # C is the h-th fixed set of class c
                w = used[c] - h + 1  # the vertices other than a and b that take c
                if w:
                    collisions += pairs * w * (fixed // (len(members[c]) - h + 1))
            skipped += collisions
            cases += count - collisions
    tally.cases += cases
    tally.skipped += skipped
    if fails:
        _subdivision_walk(tally, g)


def _subdivision_pairs(
    space: _LabelingSpace, ca: int, cb: int
) -> tuple[bool, int, list[tuple[int, int]]]:
    """What subdividing an edge (a, b) gives on each pair of sets of the
    classes ca of a and cb of b, read through ``pair_sum``:
    ``(even, own, third)``. ``even`` says whether some pair has an even
    subdivision parity, ``own`` counts the pairs whose sumset C is A or B,
    and ``third`` holds (class, pairs) for the classes of the other C that
    are candidate sets, ascending."""
    of, members = space.classes.of, space.classes.members
    even = False
    own = 0
    third: dict[int, int] = {}
    for i in members[ca]:
        row = space.compat[i]
        for j in members[cb]:
            if not row >> j & 1:
                continue
            c, delta = space.pair_sum(i, j)
            even |= not delta
            if c == i or c == j:
                own += 1
            elif c < len(of):
                third[of[c]] = third.get(of[c], 0) + 1
    return even, own, sorted(third.items())


def _subdivision_walk(tally: _Tally, g: Graph) -> None:
    """SUBDIVISION's lister: the balanced orbit walk of g, which records
    each labeling with its failing edges, the non-cut edges whose pair has
    an even parity and whose inherited set labels no vertex."""
    space = tally.space
    pos = {v: i for i, v in enumerate(g.vertices)}
    cut = set(cut_edges(g))
    rows = [(pos[u], pos[v], (u, v)) for u, v in g.edges if (u, v) not in cut]
    found = []
    for indices in _visit(g, space, balanced=True, orbits=True):
        used = 0
        for k in indices:
            used |= 1 << k
        failed = []
        for a, b, e in rows:
            inherited, delta = space.pair_sum(indices[a], indices[b])
            if not delta and not used >> inherited & 1:
                failed.append(e)
        if failed:
            found.append((indices, tuple(failed)))
    tally.add_orbits(g, found)


def _homeomorphism_search(tally: _Tally, g: Graph) -> None:
    """Transform every eligible vertex (degree 2, in no triangle) of every
    balanced labeling, in index space.

    The new edge ab replaces the path a-v-b, so the result is balanced iff v
    lies on no cycle or p(ab) + p(av) + p(vb) is even. Every eligible
    vertex of every balanced labeling is a case, counted by class; only the
    eligible vertices on a cycle can fail, and the balanced orbit walk lists
    those that do.
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
    tally.cases += _class_count(g, space, True) * len(eligible)
    if not rows:
        return
    found = []
    for indices in _visit(g, space, balanced=True, orbits=True):
        failed = []
        for p, a, b, v in rows:
            x, y, z = indices[a], indices[b], indices[p]
            if not (odd[x] >> y ^ odd[x] >> z ^ odd[z] >> y) & 1:
                failed.append(v)
        if failed:
            found.append((indices, tuple(failed)))
    tally.add_orbits(g, found)


def _iasi_search(tally: _Tally, g: Graph) -> None:
    """Injective iff the edges' sumsets are distinct."""
    space = tally.space
    edges = _edge_positions(g)
    tally.cases += _class_count(g, space, False)
    found = []
    for indices in _visit(g, space, orbits=True):
        sums = {space.pair_sum(indices[a], indices[b])[0] for _, a, b in edges}
        if len(sums) < len(edges):
            found.append((indices, (None,)))
    tally.add_orbits(g, found)


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
