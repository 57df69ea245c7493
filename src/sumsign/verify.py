"""Exhaustive desk-scale labeling enumeration and claim verification.

Each claim about sumset-signed graphs is one record of ``_EXPERIMENTS``: an
explain function, the claim's one object-level check, run on every
admissible label pair when the record has no search; else a search over
every family member within finite bounds, which picks its own labeling walk
and skips; and the report notes. One runner drives them all.
The report either confirms the claim within bounds or lists every
counterexample, smallest first, each replayed through the public pipeline.

``sweep_sign_patterns`` checks the two balance definitions against each
other on every sign pattern of a graph, with one bit plane per edge held as
a Python int: bit p of a plane is that edge's sign in pattern p.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

from .balance import SignedGraph, is_balanced_fast
from .errors import (
    BoundExceeded,
    InjectivityCollision,
    NotBipartite,
    ParseError,
    UnknownTheorem,
)
from .families import parse_family, resolve_family
from .graphs import (
    Edge,
    Graph,
    bipartition,
    cut_edges,
    cycle_masks,
    format_graph,
    fundamental_cycle_masks,
    in_triangle,
    is_bipartite,
    spanning_forest,
    vertices_on_cycles,
)
from .intsets import (
    IntegerSet,
    Sign,
    ap_pair,
    ap_profile,
    ap_sumset_cardinality,
)
from .labeling import (
    Labeling,
    SignedLabeledGraph,
    derive,
    format_labeling,
    iasi_collisions,
    predicted_sign,
)
from .transforms import elementary_transformation, subdivide_edge


def _check_count(name: str, value: object) -> None:
    """Raise ParseError unless value is an int; a bool is no count."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{name} must be an int, not {value!r}")


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
            _check_count(name, getattr(self, name))
        for name in ("require_strict_universe", "odd_ratios_only"):
            flag = getattr(self, name)
            if not isinstance(flag, bool):
                raise ParseError(f"{name} must be a bool, not {flag!r}")
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


class TheoremId(str, Enum):
    POSITIVE_EDGE = "POSITIVE_EDGE"
    CARDINALITY = "CARDINALITY"
    BALANCE_BIPARTITE_FWD = "BALANCE_BIPARTITE_FWD"
    BALANCE_BIPARTITE_REV = "BALANCE_BIPARTITE_REV"
    SUBDIVISION = "SUBDIVISION"
    HOMEOMORPHISM = "HOMEOMORPHISM"
    IASI_INJECTIVITY = "IASI_INJECTIVITY"


class Verdict(str, Enum):
    CONFIRMED_WITHIN_BOUNDS = "CONFIRMED_WITHIN_BOUNDS"
    COUNTEREXAMPLE_FOUND = "COUNTEREXAMPLE_FOUND"


@dataclass(frozen=True)
class Counterexample:
    graph: Graph
    labeling: Labeling
    explanation: str

    def sort_key(self) -> tuple:
        """The report order: smallest graph first, then smallest total label
        mass, then the graph's text, then the labeling's text.
        ``verify_theorem`` sorts findings by the same order in index space,
        and its sort is stable, so counterexamples with equal keys (the
        targets of one finding) keep the order the search checked them in.
        """
        return (
            self.graph.n,
            self.labeling.label_mass(),
            format_graph(self.graph),
            format_labeling(self.labeling),
        )


@dataclass(frozen=True)
class VerificationReport:
    theorem_id: TheoremId
    family_spec: str
    bounds: SearchBounds
    cases_checked: int
    skipped: int
    verdict: Verdict
    counterexamples: tuple[Counterexample, ...]
    notes: tuple[str, ...]

    def to_text(self) -> str:
        lines = [
            f"theorem = {self.theorem_id.value}",
            f"family = {self.family_spec}",
            f"bounds = {self.bounds.describe()}",
            f"cases = {self.cases_checked}",
            f"skipped = {self.skipped}",
            f"verdict = {self.verdict.value}",
            f"counterexamples = {len(self.counterexamples)}",
        ]
        lines.extend(f"note: {note}" for note in self.notes)
        # One string per counterexample, its leading blank line included.
        for i, ce in enumerate(self.counterexamples, start=1):
            graph = format_graph(ce.graph).rstrip("\n")
            labeling = format_labeling(ce.labeling).rstrip("\n")
            lines.append(
                f"\n== counterexample {i} ==\nexplanation = {ce.explanation}\n"
                f"-- graph --\n{graph}\n-- labeling --\n{labeling}"
            )
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The labeling search space
# ---------------------------------------------------------------------------

def _progressions(universe_max: int, max_size: int) -> Iterator[IntegerSet]:
    """The progression-valued subsets of {0..universe_max} up to max_size,
    generated in canonical order: by length, then first element, then
    difference, which is the order of (size, elements)."""
    for first in range(universe_max + 1):
        yield IntegerSet([first])
    for length in range(2, min(max_size, universe_max + 1) + 1):
        for first in range(universe_max + 1):
            for diff in range(1, (universe_max - first) // (length - 1) + 1):
                yield IntegerSet(range(first, first + length * diff, diff))


def ap_sets(universe_max: int, max_size: int) -> tuple[IntegerSet, ...]:
    """All progression-valued subsets of {0..universe_max} up to max_size.

    Canonical order: by (size, elements). Singletons come first, so searches
    visit small label masses early.
    """
    return tuple(_progressions(universe_max, max_size))


# Most candidate sets one search space may hold; its build checks every
# pair, so its time grows as the square of this count.
_MAX_CANDIDATE_SETS = 2000


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


def _walk(
    g: Graph, space: _LabelingSpace, balanced: bool = False
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
    """
    verts = g.vertices
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    order, parent = spanning_forest(g) if balanced else (verts, {})
    rank = {v: r for r, v in enumerate(order)}
    # Per level: the vertex position, the earlier neighbours whose compat
    # rows cut it, its forest parent (-1 for a root or in the plain walk) and
    # the other earlier neighbours whose potentials cut it.
    levels = []
    for v in order:
        before = [pos[w] for w in g.neighbors(v) if rank[w] < rank[v]]
        p0 = pos[parent[v]] if parent.get(v) is not None else -1
        others = [q for q in before if q != p0] if balanced else []
        levels.append((pos[v], before, p0, others))
    compat, odd = space.compat, space.odd
    full = (1 << len(space.sets)) - 1
    assign = [0] * n
    potential = [0] * n

    def candidates(level: int, used: int) -> int:
        _, before, p0, others = levels[level]
        allowed = full & ~used
        for q in before:
            allowed &= compat[assign[q]]
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
            v, _, p0, _ = levels[i]
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
    g: Graph, space: _LabelingSpace, balanced: bool = False
) -> Iterator[tuple[int, ...]]:
    """All injective admissible assignments, as set-index tuples in
    ``g.vertices`` order, expanded from the masks of ``_walk``: in
    lexicographic order, vertices sorted and candidate sets in canonical
    order. With ``balanced``, only those whose signed graph is balanced, each
    once, in the balanced walk's order. The empty graph has one labeling, the
    empty one."""
    if not g.vertices:
        yield ()
        return
    assign, last, masks = _walk(g, space, balanced)
    for allowed in masks:
        while allowed:
            low = allowed & -allowed
            assign[last] = low.bit_length() - 1
            yield tuple(assign)
            allowed ^= low


def _count_indices(g: Graph, space: _LabelingSpace) -> int:
    """len(list(_visit(g, space))), adding up the last vertex's
    candidate masks instead of visiting each set."""
    if not g.vertices:
        return 1
    return sum(allowed.bit_count() for allowed in _walk(g, space)[2])


def _check_vertex_bound(g: Graph, b: SearchBounds) -> None:
    if g.n > b.max_vertices:
        raise BoundExceeded(
            f"search limited to {b.max_vertices} vertices, graph has {g.n}"
        )


def _labeling_from_indices(
    g: Graph, space: _LabelingSpace, indices: Sequence[int]
) -> Labeling:
    return Labeling(
        space.bounds.universe_max,
        {v: space.sets[j] for v, j in zip(g.vertices, indices)},
    )


def enumerate_aiasl(g: Graph, b: SearchBounds) -> Iterator[Labeling]:
    """Every injective progression labeling of g admissible under b.

    Deterministic canonical order: the walk of ``_visit``, lexicographic in
    the candidate-set order of each vertex, vertices sorted.
    """
    _check_vertex_bound(g, b)
    space = _LabelingSpace(b)
    for indices in _visit(g, space):
        yield _labeling_from_indices(g, space, indices)


def count_aiasl(g: Graph, b: SearchBounds) -> int:
    _check_vertex_bound(g, b)
    space = _LabelingSpace(b)
    return sum(1 for _ in _visit(g, space))


# ---------------------------------------------------------------------------
# The balanced labeling construction for bipartite graphs
# ---------------------------------------------------------------------------

def construct_balanced_bipartite_labeling(g: Graph) -> Labeling:
    """A labeling of a bipartite graph whose derived signed graph is balanced.

    One side receives singletons (odd parity), the other side receives
    two-element difference-1 progressions (even parity), so every edge joins
    labels of different parity with ratio 1 and is positive; with no negative
    edges at all, every cycle is trivially balanced.
    """
    parts = bipartition(g)
    if parts is None:
        raise NotBipartite("graph has an odd cycle, no bipartition exists")
    part1, part2 = parts
    assignment: dict[str, IntegerSet] = {}
    for i, v in enumerate(part1):
        assignment[v] = IntegerSet([i])
    for i, v in enumerate(part2):
        assignment[v] = IntegerSet([i, i + 1])
    universe_max = max(
        len(part1) - 1 if part1 else 0,
        len(part2) if part2 else 0,
    )
    return Labeling(universe_max, assignment)


# ---------------------------------------------------------------------------
# Sign-pattern sweeps: both balance definitions over all 2^m patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatternSweep:
    """Outcome of evaluating both balance checks on every sign pattern.

    Pattern p encodes the negative edge set: bit i set means edge i of
    ``edge_order`` is negative. The oracle verdict evaluates the negative
    parity of every simple cycle for every pattern; the fast verdict
    propagates parities along a spanning forest and checks every non-tree
    edge for every pattern.
    """

    edge_order: tuple[Edge, ...]
    patterns_checked: int
    balanced_patterns: tuple[int, ...]
    disagreements: tuple[int, ...]


def signed_graph_from_pattern(
    g: Graph, pattern: int, edge_order: tuple[Edge, ...] | None = None
) -> SignedGraph:
    """Materialize the signed graph encoded by a sweep pattern.

    Raises ParseError when the pattern is not an int or is outside [0, 2^m).
    """
    order = edge_order if edge_order is not None else g.edges
    _check_count("sign pattern", pattern)
    if not 0 <= pattern < 1 << len(order):
        raise ParseError(f"sign pattern {pattern} is outside [0, 2^{len(order)})")
    signs = {
        e: Sign.NEGATIVE if (pattern >> i) & 1 else Sign.POSITIVE
        for i, e in enumerate(order)
    }
    return SignedGraph(graph=g, signs=signs)


def _mask_parities(planes: list[int], mask: int) -> int:
    """XOR-fold the bit planes that mask selects: bit p is pattern p's parity on mask."""
    parity = 0
    while mask:
        low = mask & -mask
        parity ^= planes[low.bit_length() - 1]
        mask ^= low
    return parity


def _set_bits(x: int) -> Iterator[int]:
    """Positions of the set bits of x, ascending."""
    digits = format(x, "b")[::-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


# Patterns per batch of the sweep, a power of two: each bit plane is an int
# of this many bits.
_SWEEP_CHUNK = 1 << 18
# The desk-scale bound on edges, hence 2^32 patterns at most.
_SWEEP_MAX_EDGES = 32


def sweep_sign_patterns(g: Graph) -> PatternSweep:
    """Run both balance definitions over all 2^m sign patterns of g.

    Literal but batched on bit planes: within a chunk of patterns starting
    at ``start``, bit p of plane b is bit b of pattern start + p, so XOR-ing
    the planes of a cycle's edges gives every pattern's negative parity on
    that cycle at once. The oracle side requires every simple cycle even;
    the fast side requires every fundamental cycle of the spanning forest
    even. Returns the patterns on which the two sides disagree (expected:
    none) and the oracle-balanced patterns, both ascending. Graphs with more
    than 32 edges raise BoundExceeded.
    """
    m = g.m
    if m > _SWEEP_MAX_EDGES:
        raise BoundExceeded(
            f"sign-pattern sweep limited to {_SWEEP_MAX_EDGES} edges, graph has {m}"
        )
    oracle_masks = [mask for _, mask in cycle_masks(g, max_vertices=g.n)]
    fund_masks = fundamental_cycle_masks(g)

    total = 1 << m
    size = min(_SWEEP_CHUNK, total)
    full = (1 << size) - 1
    # Planes below the chunk size repeat a 2^(b+1)-bit block in every chunk;
    # the planes above it are all zeros or all ones within a chunk.
    varying = []
    for b in range(size.bit_length() - 1):
        half = 1 << b
        plane, width = ((1 << half) - 1) << half, 2 * half
        while width < size:
            plane |= plane << width
            width *= 2
        varying.append(plane)
    balanced: list[int] = []
    disagreements: list[int] = []
    for start in range(0, total, size):
        planes = varying + [full if start >> b & 1 else 0 for b in range(len(varying), m)]
        oracle_odd = 0
        for mask in oracle_masks:
            oracle_odd |= _mask_parities(planes, mask)
        fast_odd = 0
        for mask in fund_masks:
            fast_odd |= _mask_parities(planes, mask)
        disagreements.extend(start + p for p in _set_bits(oracle_odd ^ fast_odd))
        balanced.extend(start + p for p in _set_bits(full ^ oracle_odd))
    return PatternSweep(
        edge_order=g.edges,
        patterns_checked=total,
        balanced_patterns=tuple(balanced),
        disagreements=tuple(disagreements),
    )


# ---------------------------------------------------------------------------
# Theorem experiments
# ---------------------------------------------------------------------------

def _edge_ends(g: Graph) -> list[tuple[int, int, int]]:
    """(end position, end position, edge bit) per edge, positions in ``g.vertices``."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    return [(pos[u], pos[v], 1 << e) for e, (u, v) in enumerate(g.edges)]


def _negative_mask(ends: list[tuple[int, int, int]], odd: list[int], indices) -> int:
    """The edge bits of ``ends`` whose pair of sets has an odd sumset."""
    mask = 0
    for a, b, bit in ends:
        if odd[indices[a]] >> indices[b] & 1:
            mask |= bit
    return mask


def _balanced(neg_mask: int, cycles: list[int]) -> bool:
    """Even negative count on every fundamental cycle, hence on every cycle."""
    return all((neg_mask & c).bit_count() % 2 == 0 for c in cycles)


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


@dataclass(frozen=True)
class _Experiment:
    """How one claim is checked.

    ``explain(slg, target)`` checks the claim at one target of a derived
    signed labeled graph with public object-level functions only: the
    violation text, or '' or None where the claim holds or does not apply.
    A pair claim has no ``search``: its explain runs on every admissible
    label pair i < j on K2, each pair one case. Otherwise ``search(tally,
    g)`` runs once per family member; it builds the per-graph rows it reads,
    walks its labelings as set-index tuples, adds its cases, skips and
    findings to the tally, and returns nothing. ``notes`` builds the report
    notes from the tally.
    """

    explain: Callable[[SignedLabeledGraph, object], str | None]
    notes: Callable[[_Tally], list[str]]
    search: Callable[[_Tally, Graph], None] | None = None


# The single edge a pair claim labels: set i on u, set j on v.
_K2 = Graph(["u", "v"], [("u", "v")])
_K2_EDGE = _K2.edges[0]


def _run(exp: _Experiment, graphs: Sequence[Graph], bounds: SearchBounds) -> _Tally:
    """Run one experiment over its whole space, after checking every given
    graph against the vertex bound."""
    tally = _Tally(_LabelingSpace(bounds))
    for g in graphs:
        _check_vertex_bound(g, bounds)
    if exp.search is None:
        for indices in _visit(_K2, tally.space):
            if indices[0] < indices[1]:
                tally.cases += 1
                lab = _labeling_from_indices(_K2, tally.space, indices)
                if exp.explain(derive(_K2, lab), _K2_EDGE):
                    tally.findings.append((_K2, indices, (_K2_EDGE,)))
        return tally
    for g in graphs:
        exp.search(tally, g)
    return tally


def _positive_edge_case(slg: SignedLabeledGraph, e: Edge) -> str:
    """The parity rule against the derived sign of e: the violation, or ''."""
    expected = predicted_sign(slg, e)
    actual = slg.signs[e]
    if expected is actual:
        return ""
    return (
        f"edge {e[0]} {e[1]}: parity rule predicts {expected} but the "
        f"sumset {slg.edge_labels[e].to_text()} has size "
        f"{len(slg.edge_labels[e])}, giving {actual}"
    )


def _cardinality_case(slg: SignedLabeledGraph, e: Edge) -> str:
    """The size formula against the derived sumset on e: the violation, or ''."""
    pu = ap_profile(slg.labeling.get(e[0]))
    pv = ap_profile(slg.labeling.get(e[1]))
    assert pu is not None and pv is not None
    small, large, k = ap_pair(pu, pv)
    assert k is not None
    m, n = small.length, large.length
    expected = ap_sumset_cardinality(m, n, k)
    actual = len(slg.edge_labels[e])
    if expected == actual:
        return ""
    return (
        f"formula m + k*(n-1) = {expected} with (m={m}, n={n}, k={k}) "
        f"but the sumset has {actual} elements"
    )


def _balance_case(slg: SignedLabeledGraph, target: object) -> str:
    """Balanced iff bipartite: the violation, or ''."""
    balanced = is_balanced_fast(slg)[0]
    if balanced == is_bipartite(slg.graph):
        return ""
    if balanced:
        return "derived signed graph is balanced but the underlying graph is not bipartite"
    return (
        "bipartite underlying graph but the derived signed graph "
        "is unbalanced (universal reading of the forward direction)"
    )


def _balance_fwd_search(tally: _Tally, g: Graph) -> None:
    """Every labeling of a bipartite member must be balanced; a
    non-bipartite member is skipped. Its constructed labeling lies outside
    the bounds, so it is checked as a construction, not recorded as a
    finding."""
    space = tally.space
    if not is_bipartite(g):
        tally.skipped += 1
        return
    lab = construct_balanced_bipartite_labeling(g)
    if not is_balanced_fast(derive(g, lab))[0]:
        raise AssertionError(f"constructed labeling {format_labeling(lab)!r} is not balanced")
    tally.constructed_ok += 1
    ends, cycles = _edge_ends(g), fundamental_cycle_masks(g)
    cases = 0
    for indices in _visit(g, space):
        cases += 1
        if not _balanced(_negative_mask(ends, space.odd, indices), cycles):
            tally.findings.append((g, indices, (None,)))
    tally.cases += cases


def _balance_rev_search(tally: _Tally, g: Graph) -> None:
    """A non-bipartite member must have no balanced labeling: every labeling
    counts as a case and each one the balanced walk yields is a finding. A
    bipartite member is skipped."""
    space = tally.space
    if is_bipartite(g):
        tally.skipped += 1
        return
    tally.cases += _count_indices(g, space)
    for indices in _visit(g, space, balanced=True):
        tally.findings.append((g, indices, (None,)))


def _subdivision_case(slg: SignedLabeledGraph, e: Edge) -> str | None:
    """Subdivide e of a balanced slg and test the claim: the violation, '' if
    it holds, or None when slg is unbalanced or the inherited label collides
    with a vertex label."""
    if not is_balanced_fast(slg)[0]:
        return None
    try:
        outcome = subdivide_edge(slg, e)
    except InjectivityCollision:
        return None
    cut = e in cut_edges(slg.graph)
    if is_balanced_fast(outcome.result)[0] == cut:
        return ""
    if cut:
        return f"edge {e[0]} {e[1]}: cut edge subdivision broke balance"
    return f"edge {e[0]} {e[1]}: non-cut edge subdivision left the graph balanced"


def _homeomorphism_case(slg: SignedLabeledGraph, v: str) -> str | None:
    """Replace the eligible vertex v of a balanced slg by an edge and test the
    claim: the violation, '' if it holds, or None when slg is unbalanced."""
    if not is_balanced_fast(slg)[0]:
        return None
    outcome = elementary_transformation(slg, v)
    on_cycle = v in vertices_on_cycles(slg.graph)
    if is_balanced_fast(outcome.result)[0] != on_cycle:
        return ""
    if not on_cycle:
        return f"vertex {v}: transforming a vertex on no cycle broke balance"
    return f"vertex {v}: transforming a cycle vertex left the graph balanced"


def _iasi_case(slg: SignedLabeledGraph, target: object) -> str:
    """Injectivity of the edge-label map: the first collision, or ''."""
    collisions = iasi_collisions(slg)
    if not collisions:
        return ""
    e1, e2 = collisions[0]
    return (
        f"edges {e1[0]} {e1[1]} and {e2[0]} {e2[1]} both "
        f"receive the label {slg.edge_labels[e1].to_text()}"
    )


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
    for indices in _visit(g, space, balanced=True):
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
            tally.findings.append((g, indices, tuple(failed)))
    tally.cases += cases
    tally.skipped += skipped


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
    for indices in _visit(g, space, balanced=True):
        labelings += 1
        failed = []
        for p, a, b, v in rows:
            x, y, z = indices[a], indices[b], indices[p]
            if not (odd[x] >> y ^ odd[x] >> z ^ odd[z] >> y) & 1:
                failed.append(v)
        if failed:
            tally.findings.append((g, indices, tuple(failed)))
    tally.cases += labelings * len(eligible)


def _iasi_search(tally: _Tally, g: Graph) -> None:
    """Injective iff the edges' sumsets are distinct."""
    space = tally.space
    ends = _edge_ends(g)
    cases = 0
    for indices in _visit(g, space):
        cases += 1
        sums = {space.pair_sum(indices[a], indices[b])[0] for a, b, _ in ends}
        if len(sums) < len(ends):
            tally.findings.append((g, indices, (None,)))
    tally.cases += cases


# One record per claim. Its explain is the claim's only object-level check:
# it runs on every pair of a pair claim, and replays every target of every
# finding of a member search. The searches read only the index-space tables
# of _LabelingSpace and the per-graph rows each one builds, and record each
# finding as set indices: replay alone turns one into a Labeling. The
# transforms are called only from the case functions. Traced functions
# (derive, the transforms, is_balanced_fast, cut_edges) are called by name,
# never stored here, so a wrapper installed on the module later still sees
# every call.
_EXPERIMENTS: dict[TheoremId, _Experiment] = {
    TheoremId.POSITIVE_EDGE: _Experiment(
        explain=_positive_edge_case,
        notes=lambda tally: [
            "claim: the parity rule predicts the derived sign of every admissible edge",
            "cases are admissible unordered label pairs on a single edge; the family argument is not used",
        ],
    ),
    TheoremId.CARDINALITY: _Experiment(
        explain=_cardinality_case,
        notes=lambda tally: [
            "claim: |A + B| = m + k*(n-1) for admissible progression pairs",
            "cases are admissible unordered label pairs; the family argument is not used",
        ],
    ),
    TheoremId.BALANCE_BIPARTITE_FWD: _Experiment(
        search=_balance_fwd_search,
        explain=_balance_case,
        notes=lambda tally: [
            "claim (universal reading): every admissible labeling of a bipartite graph is balanced",
            f"constructed balanced labeling verified on {tally.constructed_ok} bipartite member(s)",
            f"skipped {tally.skipped} non-bipartite family member(s) (claim does not apply)",
        ],
    ),
    TheoremId.BALANCE_BIPARTITE_REV: _Experiment(
        search=_balance_rev_search,
        explain=_balance_case,
        notes=lambda tally: [
            "claim: a balanced labeled graph has a bipartite underlying graph",
            f"skipped {tally.skipped} bipartite family member(s) (conclusion holds trivially)",
        ],
    ),
    TheoremId.SUBDIVISION: _Experiment(
        search=_subdivision_search,
        explain=_subdivision_case,
        notes=lambda tally: [
            "claim: subdividing an edge of a balanced labeled graph preserves balance iff the edge is a cut edge",
            "cases are (balanced labeling, edge) subdivisions; collisions of the inherited label are skipped",
            f"skipped {tally.skipped} subdivision(s) whose inherited label collided with a vertex label",
        ],
    ),
    TheoremId.HOMEOMORPHISM: _Experiment(
        search=_homeomorphism_search,
        explain=_homeomorphism_case,
        notes=lambda tally: [
            "claim: removing a triangle-free degree-2 vertex and joining its neighbors preserves balance iff the vertex lies on no cycle",
            "cases are (balanced labeling, eligible vertex) transformations",
        ],
    ),
    TheoremId.IASI_INJECTIVITY: _Experiment(
        search=_iasi_search,
        explain=_iasi_case,
        notes=lambda tally: [
            "claim: every admissible labeling induces an injective edge-label map",
            "a counterexample separates set-labelings from set-indexers",
        ],
    ),
}


def _finding_order(space: _LabelingSpace) -> Callable[[tuple], tuple]:
    """A sort key on findings that orders them as ``Counterexample.sort_key``
    orders their counterexamples: (n, label mass, graph text, the text rank
    of each vertex's set).

    Every labeling of one report shares ``universe_max``, and on one graph
    text the vertex list, so two labeling texts first differ inside the
    texts of two sets. A set text ends in its only '}', so neither is a
    proper prefix of the other, and the texts compare as the sets' ranks in
    ``space.sets`` sorted by text. Index order is not text order: {0,1}
    comes before {0}, and {10} before {2}.
    """
    sets = space.sets
    rank = [0] * len(sets)
    for r, i in enumerate(sorted(range(len(sets)), key=lambda i: sets[i].to_text())):
        rank[i] = r
    size = [len(s) for s in sets]

    def key(finding: tuple) -> tuple:
        g, indices, _ = finding
        return (
            g.n,
            sum(size[i] for i in indices),
            format_graph(g),
            tuple(rank[i] for i in indices),
        )

    return key


def verify_theorem(
    theorem: TheoremId | str,
    family: str | Iterable[Graph],
    bounds: SearchBounds,
) -> VerificationReport:
    """Check one claim over every instance of a graph family within bounds.

    ``family`` is either a family spec string (see families.parse_family)
    or an explicit list of graphs; a spec whose members would exceed
    bounds.max_vertices raises BoundExceeded before any graph is built, for
    every theorem, and so does an explicit graph over that bound. The pair
    theorems (POSITIVE_EDGE, CARDINALITY) label one edge, so they check the
    spec but build none of its graphs.
    Counterexamples come in ``Counterexample.sort_key`` order. The
    findings are sorted in index space before any is replayed, and each
    target of each finding is then replayed through the public pipeline
    before the report is returned.
    """
    try:
        tid = TheoremId(theorem)
    except ValueError:
        raise UnknownTheorem(f"unknown theorem tag {theorem!r}") from None
    experiment = _EXPERIMENTS[tid]
    if isinstance(family, str):
        family_spec = family
        if experiment.search is None:
            # A pair claim labels one edge and reads no member graph.
            parse_family(family, bounds.max_vertices)
            graphs: tuple[Graph, ...] = ()
        else:
            graphs = resolve_family(family, bounds.max_vertices)
    else:
        graphs = tuple(family)
        family_spec = f"custom({len(graphs)} graphs)"
        if not graphs:
            raise ParseError(f"graph family {family_spec} is empty")
    tally = _run(experiment, graphs, bounds)
    counters = []
    for g, indices, targets in sorted(tally.findings, key=_finding_order(tally.space)):
        lab = _labeling_from_indices(g, tally.space, indices)
        slg = derive(g, lab)
        for target in targets:
            explanation = experiment.explain(slg, target)
            if not explanation:
                raise AssertionError(f"{tid.value} finding failed to replay at {target!r}")
            counters.append(Counterexample(g, lab, explanation))
    return VerificationReport(
        theorem_id=tid,
        family_spec=family_spec,
        bounds=bounds,
        cases_checked=tally.cases,
        skipped=tally.skipped,
        verdict=Verdict.COUNTEREXAMPLE_FOUND if counters else Verdict.CONFIRMED_WITHIN_BOUNDS,
        counterexamples=tuple(counters),
        notes=tuple(experiment.notes(tally)),
    )
