"""Exhaustive desk-scale labeling enumeration and claim verification.

Each claim about sumset-signed graphs is encoded as a predicate over
(graph, labeling) instances and checked over every instance inside finite
search bounds. The outcome is a report that either confirms the claim within
bounds or lists every counterexample found, smallest first, with enough
detail to replay each one through the public pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .balance import SignedGraph, is_balanced_fast
from .errors import BoundExceeded, InjectivityCollision, NotBipartite, UnknownTheorem
from .families import resolve_family
from .graphs import (
    Edge,
    Graph,
    bipartition,
    cut_edges,
    cycle_edges,
    format_graph,
    fundamental_cycle_masks,
    is_bipartite,
    simple_cycles,
    vertices_on_cycles,
)
from .intsets import (
    ApProfile,
    IntegerSet,
    Sign,
    ap_profile,
    ap_sumset_cardinality,
    sumset,
)
from .labeling import (
    Labeling,
    SignedLabeledGraph,
    admissibility_from_profiles,
    derive,
    format_labeling,
    iasi_collisions,
    predicted_sign,
    validate_iasi,
)
from .transforms import elementary_transformation, subdivide_edge


@dataclass(frozen=True)
class SearchBounds:
    """Finite limits for the labeling search space.

    Labels are arithmetic progressions inside {0..universe_max} with at most
    max_label_size elements. With require_strict_universe, edge labels must
    stay inside the universe as well. odd_ratios_only restricts the space to
    labelings whose every edge has an odd deterministic ratio.
    """

    universe_max: int
    max_label_size: int
    max_vertices: int = 12
    require_strict_universe: bool = False
    odd_ratios_only: bool = False

    def __post_init__(self):
        if self.universe_max < 0:
            raise ValueError("universe_max must be non-negative")
        if self.max_label_size < 1:
            raise ValueError("max_label_size must be positive")
        if self.max_vertices < 1:
            raise ValueError("max_vertices must be positive")

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
        for i, ce in enumerate(self.counterexamples, start=1):
            lines.append("")
            lines.append(f"== counterexample {i} ==")
            lines.append(f"explanation = {ce.explanation}")
            lines.append("-- graph --")
            lines.append(format_graph(ce.graph).rstrip("\n"))
            lines.append("-- labeling --")
            lines.append(format_labeling(ce.labeling).rstrip("\n"))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The labeling search space
# ---------------------------------------------------------------------------

def ap_sets(universe_max: int, max_size: int) -> tuple[IntegerSet, ...]:
    """All progression-valued subsets of {0..universe_max} up to max_size.

    Canonical order: by (size, elements). Singletons come first, so searches
    visit small label masses early.
    """
    out: list[IntegerSet] = []
    for first in range(universe_max + 1):
        out.append(IntegerSet([first]))
    for length in range(2, max_size + 1):
        for diff in range(1, universe_max + 1):
            top_first = universe_max - (length - 1) * diff
            if top_first < 0:
                break
            for first in range(top_first + 1):
                out.append(IntegerSet(first + i * diff for i in range(length)))
    return tuple(sorted(out, key=lambda s: (len(s), s.elements)))


class _LabelingSpace:
    """Shared per-bounds tables: candidate sets, profiles, pair relations."""

    def __init__(self, bounds: SearchBounds):
        self.bounds = bounds
        self.sets = ap_sets(bounds.universe_max, bounds.max_label_size)
        self.profiles: list[ApProfile] = []
        for s in self.sets:
            p = ap_profile(s)
            assert p is not None
            self.profiles.append(p)
        self.sizes = [len(s) for s in self.sets]
        self._pair_cache: dict[tuple[int, int], tuple[bool, int | None]] = {}
        self._sum_parity: dict[tuple[int, int], int] = {}
        self._compat: list[int] | None = None

    def pair_allowed(self, i: int, j: int) -> tuple[bool, int | None]:
        """May sets i and j label adjacent vertices under these bounds?"""
        if i > j:
            i, j = j, i
        cached = self._pair_cache.get((i, j))
        if cached is not None:
            return cached
        ok, k, _ = admissibility_from_profiles(self.profiles[i], self.profiles[j])
        if ok and self.bounds.odd_ratios_only and k is not None and k % 2 == 0:
            ok = False
        if ok and self.bounds.require_strict_universe:
            top = self.sets[i].elements[-1] + self.sets[j].elements[-1]
            if top > self.bounds.universe_max:
                ok = False
        result = (ok, k if ok else None)
        self._pair_cache[(i, j)] = result
        return result

    def sum_parity(self, i: int, j: int) -> int:
        """Parity bit of |set_i + set_j| (1 means odd, i.e. a negative edge)."""
        if i > j:
            i, j = j, i
        cached = self._sum_parity.get((i, j))
        if cached is None:
            a, b = self.sets[i].elements, self.sets[j].elements
            cached = len({x + y for x in a for y in b}) & 1
            self._sum_parity[(i, j)] = cached
        return cached

    def compat_masks(self) -> list[int]:
        """Bitmask per set index of partner indices allowed on an edge."""
        if self._compat is None:
            n = len(self.sets)
            masks = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if self.pair_allowed(i, j)[0]:
                        masks[i] |= 1 << j
                        masks[j] |= 1 << i
            self._compat = masks
        return self._compat


def _enumerate_indices(
    g: Graph, space: _LabelingSpace, prune: bool = True
) -> Iterator[tuple[int, ...]]:
    """All injective admissible assignments, as set-index tuples.

    Vertices are assigned in sorted order and candidate sets in canonical
    order, so the output order is the same with pruning on or off; pruning
    only skips branches every completion of which would fail the per-edge
    admissibility filter.
    """
    verts = g.vertices
    pos = {v: i for i, v in enumerate(verts)}
    nbrs_before = [
        [pos[w] for w in g.neighbors(v) if pos[w] < i] for i, v in enumerate(verts)
    ]
    nsets = len(space.sets)
    full = (1 << nsets) - 1
    compat = space.compat_masks() if prune else None
    assign = [0] * len(verts)

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == len(verts):
            yield tuple(assign)
            return
        allowed = full & ~used
        if compat is not None:
            for p in nbrs_before[i]:
                allowed &= compat[assign[p]]
        m = allowed
        while m:
            low = m & -m
            j = low.bit_length() - 1
            assign[i] = j
            yield from rec(i + 1, used | low)
            m ^= low

    if prune:
        yield from rec(0, 0)
    else:
        for combo in rec(0, 0):
            ok = all(
                space.pair_allowed(combo[pos[u]], combo[pos[v]])[0]
                for u, v in g.edges
            )
            if ok:
                yield combo


def _labeling_from_indices(
    g: Graph, space: _LabelingSpace, indices: Sequence[int]
) -> Labeling:
    return Labeling(
        space.bounds.universe_max,
        {v: space.sets[j] for v, j in zip(g.vertices, indices)},
    )


def enumerate_aiasl(
    g: Graph, b: SearchBounds, prune: bool = True
) -> Iterator[Labeling]:
    """Every injective progression labeling of g admissible under b.

    Deterministic canonical order. With prune=False the same labelings are
    produced by filtering complete assignments instead of cutting branches,
    which exists as a cross-check of the pruning logic.
    """
    if g.n > b.max_vertices:
        raise BoundExceeded(
            f"enumeration limited to {b.max_vertices} vertices, graph has {g.n}"
        )
    space = _LabelingSpace(b)
    for indices in _enumerate_indices(g, space, prune=prune):
        yield _labeling_from_indices(g, space, indices)


def count_aiasl(g: Graph, b: SearchBounds) -> int:
    if g.n > b.max_vertices:
        raise BoundExceeded(
            f"enumeration limited to {b.max_vertices} vertices, graph has {g.n}"
        )
    space = _LabelingSpace(b)
    return sum(1 for _ in _enumerate_indices(g, space))


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
    """Materialize the signed graph encoded by a sweep pattern."""
    order = edge_order if edge_order is not None else g.edges
    signs = {
        e: Sign.NEGATIVE if (pattern >> i) & 1 else Sign.POSITIVE
        for i, e in enumerate(order)
    }
    return SignedGraph(graph=g, signs=signs)


def _mask_parities(bits: list[np.ndarray], mask: int) -> np.ndarray | None:
    """XOR-fold the bit planes selected by mask; None for the empty mask."""
    parity: np.ndarray | None = None
    while mask:
        b = (mask & -mask).bit_length() - 1
        parity = bits[b] if parity is None else parity ^ bits[b]
        mask &= mask - 1
    return parity


def sweep_sign_patterns(g: Graph, chunk: int = 1 << 18) -> PatternSweep:
    """Run both balance definitions over all 2^m sign patterns of g.

    Literal but batched: for every pattern the oracle side computes the
    negative-edge parity of every simple cycle and requires them all even;
    the fast side checks parity consistency of every non-tree edge against
    the spanning-forest propagation. Returns the patterns on which the two
    sides disagree (expected: none) and the oracle-balanced patterns.
    """
    m = g.m
    edge_index = {e: i for i, e in enumerate(g.edges)}
    cycle_masks = []
    for cycle in simple_cycles(g, max_vertices=max(g.n, 1)):
        mask = 0
        for e in cycle_edges(cycle):
            mask |= 1 << edge_index[e]
        cycle_masks.append(mask)
    fund_masks = fundamental_cycle_masks(g)

    total = 1 << m
    balanced: list[int] = []
    disagreements: list[int] = []
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        pats = np.arange(start, stop, dtype=np.uint32)
        bits = [((pats >> b) & 1).astype(np.uint8) for b in range(m)]
        oracle_ok = np.ones(stop - start, dtype=bool)
        for mask in cycle_masks:
            parity = _mask_parities(bits, mask)
            assert parity is not None
            oracle_ok &= parity == 0
        fast_ok = np.ones(stop - start, dtype=bool)
        for mask in fund_masks:
            parity = _mask_parities(bits, mask)
            assert parity is not None
            fast_ok &= parity == 0
        diff = oracle_ok != fast_ok
        if diff.any():
            disagreements.extend(int(p) for p in pats[diff])
        balanced.extend(int(p) for p in pats[oracle_ok])
    return PatternSweep(
        edge_order=g.edges,
        patterns_checked=total,
        balanced_patterns=tuple(balanced),
        disagreements=tuple(disagreements),
    )


# ---------------------------------------------------------------------------
# Theorem experiments
# ---------------------------------------------------------------------------

class _GraphContext:
    """Per-graph tables reused across all labelings of one experiment."""

    def __init__(self, g: Graph):
        self.graph = g
        pos = {v: i for i, v in enumerate(g.vertices)}
        self.edge_vertex_pos = [(pos[u], pos[v]) for u, v in g.edges]
        self.cycle_masks = fundamental_cycle_masks(g)
        self.bipartite = is_bipartite(g)
        self.cut = set(cut_edges(g))
        self.on_cycle = vertices_on_cycles(g)

    def negative_mask(self, space: _LabelingSpace, indices: Sequence[int]) -> int:
        mask = 0
        for e_idx, (a, b) in enumerate(self.edge_vertex_pos):
            if space.sum_parity(indices[a], indices[b]):
                mask |= 1 << e_idx
        return mask

    def balanced(self, neg_mask: int) -> bool:
        """Even negative count on every fundamental cycle, hence on every cycle."""
        return all((neg_mask & c).bit_count() % 2 == 0 for c in self.cycle_masks)


def _iter_pairs(space: _LabelingSpace) -> Iterator[tuple[int, int, int]]:
    """Admissible unordered set pairs (i, j, k) under the space's bounds."""
    n = len(space.sets)
    for i in range(n):
        for j in range(i + 1, n):
            ok, k = space.pair_allowed(i, j)
            if ok:
                assert k is not None
                yield i, j, k


def _k2_instance(space: _LabelingSpace, i: int, j: int) -> tuple[Graph, Labeling]:
    g = Graph(["u", "v"], [("u", "v")])
    lab = Labeling(
        space.bounds.universe_max, {"u": space.sets[i], "v": space.sets[j]}
    )
    return g, lab


def _verify_positive_edge(graphs, bounds):
    space = _LabelingSpace(bounds)
    cases = 0
    counters = []
    for i, j, _ in _iter_pairs(space):
        g, lab = _k2_instance(space, i, j)
        slg = derive(g, lab)
        edge = ("u", "v")
        expected = predicted_sign(slg, edge)
        actual = slg.signs[edge]
        cases += 1
        if expected is not actual:
            counters.append(
                Counterexample(
                    graph=g,
                    labeling=lab,
                    explanation=(
                        f"edge u v: parity rule predicts {expected} but the "
                        f"sumset {slg.edge_labels[edge].to_text()} has size "
                        f"{len(slg.edge_labels[edge])}, giving {actual}"
                    ),
                )
            )
    notes = [
        "claim: the parity rule predicts the derived sign of every admissible edge",
        "cases are admissible unordered label pairs on a single edge; the family argument is not used",
    ]
    return cases, 0, counters, notes


def _verify_cardinality(graphs, bounds):
    space = _LabelingSpace(bounds)
    cases = 0
    counters = []
    for i, j, k in _iter_pairs(space):
        pi, pj = space.profiles[i], space.profiles[j]
        if pi.diff is None:
            m, n = pi.length, pj.length
        elif pj.diff is None:
            m, n = pj.length, pi.length
        elif pi.diff <= pj.diff:
            m, n = pi.length, pj.length
        else:
            m, n = pj.length, pi.length
        expected = ap_sumset_cardinality(m, n, k)
        actual = len(sumset(space.sets[i], space.sets[j]))
        cases += 1
        if expected != actual:
            g, lab = _k2_instance(space, i, j)
            counters.append(
                Counterexample(
                    graph=g,
                    labeling=lab,
                    explanation=(
                        f"formula m + k*(n-1) = {expected} with (m={m}, n={n}, k={k}) "
                        f"but the sumset has {actual} elements"
                    ),
                )
            )
    notes = [
        "claim: |A + B| = m + k*(n-1) for admissible progression pairs",
        "cases are admissible unordered label pairs; the family argument is not used",
    ]
    return cases, 0, counters, notes


def _check_graph_bound(g: Graph, bounds: SearchBounds) -> None:
    if g.n > bounds.max_vertices:
        raise BoundExceeded(
            f"family member has {g.n} vertices, bound is {bounds.max_vertices}"
        )


def _verify_balance_bipartite(graphs, bounds, forward: bool):
    cases = 0
    skipped = 0
    counters = []
    space = _LabelingSpace(bounds)
    constructed_ok = 0
    for g in graphs:
        _check_graph_bound(g, bounds)
        ctx = _GraphContext(g)
        if forward != ctx.bipartite:
            skipped += 1
            continue
        if forward:
            lab = construct_balanced_bipartite_labeling(g)
            balanced, _ = is_balanced_fast(derive(g, lab))
            if balanced:
                constructed_ok += 1
            else:
                counters.append(
                    Counterexample(
                        graph=g,
                        labeling=lab,
                        explanation="constructed same-parity-per-side labeling is not balanced",
                    )
                )
        for indices in _enumerate_indices(g, space):
            cases += 1
            neg = ctx.negative_mask(space, indices)
            balanced = ctx.balanced(neg)
            if forward and not balanced:
                counters.append(
                    Counterexample(
                        graph=g,
                        labeling=_labeling_from_indices(g, space, indices),
                        explanation=(
                            "bipartite underlying graph but the derived signed graph "
                            "is unbalanced (universal reading of the forward direction)"
                        ),
                    )
                )
            elif not forward and balanced:
                counters.append(
                    Counterexample(
                        graph=g,
                        labeling=_labeling_from_indices(g, space, indices),
                        explanation=(
                            "derived signed graph is balanced but the underlying "
                            "graph is not bipartite"
                        ),
                    )
                )
    if forward:
        notes = [
            "claim (universal reading): every admissible labeling of a bipartite graph is balanced",
            f"constructed balanced labeling verified on {constructed_ok} bipartite member(s)",
            f"skipped {skipped} non-bipartite family member(s) (claim does not apply)",
        ]
    else:
        notes = [
            "claim: a balanced labeled graph has a bipartite underlying graph",
            f"skipped {skipped} bipartite family member(s) (conclusion holds trivially)",
        ]
    return cases, skipped, counters, notes


def _verify_subdivision(graphs, bounds):
    cases = 0
    skipped = 0
    counters = []
    space = _LabelingSpace(bounds)
    for g in graphs:
        _check_graph_bound(g, bounds)
        ctx = _GraphContext(g)
        for indices in _enumerate_indices(g, space):
            neg = ctx.negative_mask(space, indices)
            if not ctx.balanced(neg):
                continue
            slg: SignedLabeledGraph | None = None
            for e in g.edges:
                if slg is None:
                    slg = derive(g, _labeling_from_indices(g, space, indices))
                try:
                    outcome = subdivide_edge(slg, e)
                except InjectivityCollision:
                    skipped += 1
                    continue
                cases += 1
                still_balanced, _ = is_balanced_fast(outcome.result)
                expected = e in ctx.cut
                if still_balanced != expected:
                    direction = (
                        "cut edge subdivision broke balance"
                        if expected
                        else "non-cut edge subdivision left the graph balanced"
                    )
                    counters.append(
                        Counterexample(
                            graph=g,
                            labeling=slg.labeling,
                            explanation=f"edge {e[0]} {e[1]}: {direction}",
                        )
                    )
    notes = [
        "claim: subdividing an edge of a balanced labeled graph preserves balance iff the edge is a cut edge",
        "cases are (balanced labeling, edge) subdivisions; collisions of the inherited label are skipped",
        f"skipped {skipped} subdivision(s) whose inherited label collided with a vertex label",
    ]
    return cases, skipped, counters, notes


def _verify_homeomorphism(graphs, bounds):
    cases = 0
    counters = []
    space = _LabelingSpace(bounds)
    for g in graphs:
        _check_graph_bound(g, bounds)
        ctx = _GraphContext(g)
        eligible = [
            v
            for v in g.vertices
            if g.degree(v) == 2
            and not g.has_edge(*g.neighbors(v))
        ]
        if not eligible:
            continue
        for indices in _enumerate_indices(g, space):
            neg = ctx.negative_mask(space, indices)
            if not ctx.balanced(neg):
                continue
            slg = None
            for v in eligible:
                if slg is None:
                    slg = derive(g, _labeling_from_indices(g, space, indices))
                outcome = elementary_transformation(slg, v)
                cases += 1
                still_balanced, _ = is_balanced_fast(outcome.result)
                expected = v not in ctx.on_cycle
                if still_balanced != expected:
                    direction = (
                        "transforming a vertex on no cycle broke balance"
                        if expected
                        else "transforming a cycle vertex left the graph balanced"
                    )
                    counters.append(
                        Counterexample(
                            graph=g,
                            labeling=slg.labeling,
                            explanation=f"vertex {v}: {direction}",
                        )
                    )
    notes = [
        "claim: removing a triangle-free degree-2 vertex and joining its neighbors preserves balance iff the vertex lies on no cycle",
        "cases are (balanced labeling, eligible vertex) transformations",
    ]
    return cases, 0, counters, notes


def _verify_iasi_injectivity(graphs, bounds):
    cases = 0
    counters = []
    space = _LabelingSpace(bounds)
    for g in graphs:
        _check_graph_bound(g, bounds)
        for indices in _enumerate_indices(g, space):
            cases += 1
            lab = _labeling_from_indices(g, space, indices)
            slg = derive(g, lab)
            if not validate_iasi(slg):
                e1, e2 = iasi_collisions(slg)[0]
                counters.append(
                    Counterexample(
                        graph=g,
                        labeling=lab,
                        explanation=(
                            f"edges {e1[0]} {e1[1]} and {e2[0]} {e2[1]} both "
                            f"receive the label {slg.edge_labels[e1].to_text()}"
                        ),
                    )
                )
    notes = [
        "claim: every admissible labeling induces an injective edge-label map",
        "a counterexample separates set-labelings from set-indexers",
    ]
    return cases, 0, counters, notes


def _replay_violates(tid: TheoremId, ce: Counterexample) -> bool:
    """Re-derive a counterexample from scratch and re-check the claim."""
    g, lab = ce.graph, ce.labeling
    slg = derive(g, lab)
    if tid is TheoremId.POSITIVE_EDGE:
        return any(predicted_sign(slg, e) is not slg.signs[e] for e in g.edges)
    if tid is TheoremId.CARDINALITY:
        for e in g.edges:
            pu = ap_profile(lab.get(e[0]))
            pv = ap_profile(lab.get(e[1]))
            assert pu is not None and pv is not None
            ok, k, _ = admissibility_from_profiles(pu, pv)
            assert ok and k is not None
            if pu.diff is None:
                m, n = pu.length, pv.length
            elif pv.diff is None:
                m, n = pv.length, pu.length
            elif pu.diff <= pv.diff:
                m, n = pu.length, pv.length
            else:
                m, n = pv.length, pu.length
            if ap_sumset_cardinality(m, n, k) != len(slg.edge_labels[e]):
                return True
        return False
    balanced, _ = is_balanced_fast(slg)
    if tid is TheoremId.BALANCE_BIPARTITE_FWD:
        if not is_bipartite(g):
            return False
        return not balanced
    if tid is TheoremId.BALANCE_BIPARTITE_REV:
        return balanced and not is_bipartite(g)
    if tid is TheoremId.SUBDIVISION:
        if not balanced:
            return False
        cut = set(cut_edges(g))
        for e in g.edges:
            try:
                outcome = subdivide_edge(slg, e)
            except InjectivityCollision:
                continue
            still, _ = is_balanced_fast(outcome.result)
            if still != (e in cut):
                return True
        return False
    if tid is TheoremId.HOMEOMORPHISM:
        if not balanced:
            return False
        on_cycle = vertices_on_cycles(g)
        for v in g.vertices:
            if g.degree(v) != 2 or g.has_edge(*g.neighbors(v)):
                continue
            outcome = elementary_transformation(slg, v)
            still, _ = is_balanced_fast(outcome.result)
            if still != (v not in on_cycle):
                return True
        return False
    if tid is TheoremId.IASI_INJECTIVITY:
        return not validate_iasi(slg)
    raise UnknownTheorem(f"no replay predicate for {tid}")


_DRIVERS = {
    TheoremId.POSITIVE_EDGE: _verify_positive_edge,
    TheoremId.CARDINALITY: _verify_cardinality,
    TheoremId.BALANCE_BIPARTITE_FWD: lambda gs, b: _verify_balance_bipartite(gs, b, True),
    TheoremId.BALANCE_BIPARTITE_REV: lambda gs, b: _verify_balance_bipartite(gs, b, False),
    TheoremId.SUBDIVISION: _verify_subdivision,
    TheoremId.HOMEOMORPHISM: _verify_homeomorphism,
    TheoremId.IASI_INJECTIVITY: _verify_iasi_injectivity,
}


def verify_theorem(
    theorem: TheoremId | str,
    family: str | Iterable[Graph],
    bounds: SearchBounds,
) -> VerificationReport:
    """Check one claim over every instance of a graph family within bounds.

    ``family`` is either a family spec string (see families.resolve_family)
    or an explicit list of graphs. Counterexamples are sorted smallest first
    by (vertex count, total label mass) and each one is replayed through the
    public pipeline before the report is returned.
    """
    try:
        tid = TheoremId(theorem)
    except ValueError:
        raise UnknownTheorem(f"unknown theorem tag {theorem!r}") from None
    if isinstance(family, str):
        graphs = resolve_family(family)
        family_spec = family
    else:
        graphs = tuple(family)
        family_spec = f"custom({len(graphs)} graphs)"
    cases, skipped, counters, notes = _DRIVERS[tid](graphs, bounds)
    counters.sort(key=Counterexample.sort_key)
    for ce in counters:
        if not _replay_violates(tid, ce):
            raise AssertionError(
                f"counterexample failed to replay for {tid.value}: {ce.explanation}"
            )
    return VerificationReport(
        theorem_id=tid,
        family_spec=family_spec,
        bounds=bounds,
        cases_checked=cases,
        skipped=skipped,
        verdict=Verdict.COUNTEREXAMPLE_FOUND if counters else Verdict.CONFIRMED_WITHIN_BOUNDS,
        counterexamples=tuple(counters),
        notes=tuple(notes),
    )
