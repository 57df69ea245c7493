"""Claim verification, labeling enumeration and the sign-pattern sweep.

Each claim about sumset-signed graphs is one record of ``_EXPERIMENTS``: an
explain function, the claim's one object-level check, run on every
admissible label pair when the record has no search; else a member search
from ``search`` over every family member within finite bounds; and the
report notes. One runner drives them all. The report either confirms the
claim within bounds or lists every counterexample, smallest first, each
replayed here through the public pipeline.

``sweep_sign_patterns`` checks the two balance definitions against each
other on every sign pattern of a graph. A pattern is an int whose set bits
are the negative edges. It is balanced on a cycle when it holds an even
number of the cycle's edges, a linear equation over GF(2), so each side's
balanced patterns are solved for, not scanned.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from .balance import SignedGraph, is_balanced_fast
from .errors import (
    BoundExceeded,
    InjectivityCollision,
    NotBipartite,
    ParseError,
    UnknownTheorem,
    check_count,
)
from .families import parse_family, resolve_family
from .graphs import (
    Edge,
    Graph,
    automorphism_count,
    bipartition,
    cut_edges,
    cycle_masks,
    format_graph,
    fundamental_cycle_masks,
    is_bipartite,
    vertices_on_cycles,
)
from .intsets import (
    _SIGN_OF_PARITY,
    IntegerSet,
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
from .search import (
    SearchBounds,
    _balance_fwd_search,
    _balance_rev_search,
    _count_indices,
    _finding_order,
    _homeomorphism_search,
    _iasi_search,
    _labeling_space,
    _LabelingSpace,
    _subdivision_search,
    _Tally,
    _visit,
)
from .transforms import elementary_transformation, subdivide_edge


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


@dataclass(frozen=True, slots=True)
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
        # One string per counterexample, its leading blank line included. The
        # targets of one finding come in a row and share one graph and one
        # labeling, so a text is made again only when the object changes.
        graph = labeling = None
        for i, ce in enumerate(self.counterexamples, start=1):
            if ce.graph is not graph:
                graph = ce.graph
                graph_text = format_graph(graph).rstrip("\n")
            if ce.labeling is not labeling:
                labeling = ce.labeling
                labeling_text = format_labeling(labeling).rstrip("\n")
            lines.append(
                f"\n== counterexample {i} ==\nexplanation = {ce.explanation}\n"
                f"-- graph --\n{graph_text}\n-- labeling --\n{labeling_text}"
            )
        return "\n".join(lines) + "\n"


def _check_vertex_bound(g: Graph, b: SearchBounds) -> None:
    if g.n > b.max_vertices:
        raise BoundExceeded(
            f"search limited to {b.max_vertices} vertices, graph has {g.n}"
        )


def _labeling_from_indices(
    g: Graph, space: _LabelingSpace, indices: Sequence[int]
) -> Labeling:
    """The labeling of one set-index tuple, built from checked parts: the
    ids are the graph's own sorted vertex tuple, the sets the space's
    candidates and universe_max the bounds'."""
    sets = space.sets
    return Labeling._from_checked(
        space.bounds.universe_max, g.vertices, tuple(map(sets.__getitem__, indices))
    )


def enumerate_aiasl(g: Graph, b: SearchBounds) -> Iterator[Labeling]:
    """Every injective progression labeling of g admissible under b.

    Deterministic canonical order: the walk of ``_visit``, lexicographic in
    the candidate-set order of each vertex, vertices sorted.
    """
    _check_vertex_bound(g, b)
    space = _labeling_space(b)
    for indices in _visit(g, space):
        yield _labeling_from_indices(g, space, indices)


def count_aiasl(g: Graph, b: SearchBounds) -> int:
    """How many labelings ``enumerate_aiasl`` yields: one per orbit, times |Aut(g)|."""
    _check_vertex_bound(g, b)
    return _count_indices(g, _labeling_space(b)) * automorphism_count(g)


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
    ``edge_order`` is negative. The oracle verdict requires an even number
    of negative edges on every simple cycle; the fast verdict on every
    fundamental cycle of a spanning forest, one per non-tree edge. Each
    pattern is decided on both sides, all 2^m of them counted in
    ``patterns_checked``.
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
    check_count("sign pattern", pattern)
    if not 0 <= pattern < 1 << len(order):
        raise ParseError(f"sign pattern {pattern} is outside [0, 2^{len(order)})")
    sign_of = _SIGN_OF_PARITY
    return SignedGraph(
        graph=g, signs={e: sign_of[pattern >> i & 1] for i, e in enumerate(order)}
    )


def _even_patterns(masks: Iterable[int], m: int) -> list[int]:
    """Every m-bit pattern p with (p & mask).bit_count() even for each of
    ``masks``, ascending.

    Parity is bilinear over GF(2), so these patterns are the orthogonal
    complement of the masks' span. The masks are reduced to reduced echelon
    form, each row led by its lowest set bit, which occurs in no other row.
    Each bit that leads no row gives one basis vector of the complement: the
    bit itself plus the leading bit of every row that holds it, so its
    highest bit is the free bit alone. Combined in ascending order of that
    bit, the vectors give the patterns in ascending order.
    """
    rows: dict[int, int] = {}  # leading bit, as a power of two -> row
    leads = 0
    for mask in masks:
        # A row clears its own leading bit in mask and no other row's.
        hit = mask & leads
        while hit:
            lead = hit & -hit
            mask ^= rows[lead]
            hit ^= lead
        if mask:
            lead = mask & -mask
            for other, row in rows.items():
                if row & lead:
                    rows[other] = row ^ mask
            rows[lead] = mask
            leads |= lead
    patterns = [0]
    for free in range(m):
        bit = 1 << free
        if not bit & leads:
            vector = bit
            for lead, row in rows.items():
                if row & bit:
                    vector |= lead
            patterns += [p ^ vector for p in patterns]
    return patterns


# The desk-scale bound on edges: a forest's sweep lists all 2^m patterns.
_SWEEP_MAX_EDGES = 32


def sweep_sign_patterns(g: Graph) -> PatternSweep:
    """Run both balance definitions over all 2^m sign patterns of g.

    A pattern is balanced on one side when it is even on every cycle mask
    of that side: every simple cycle for the oracle, every fundamental
    cycle of the spanning forest for the fast side. Each side's balanced
    patterns are solved for over GF(2) (``_even_patterns``), which decides
    every pattern exactly as a recount of its parity on each mask would.
    Returns the oracle-balanced patterns and the patterns on which the two
    sides disagree (expected: none), both ascending. Graphs with more than
    32 edges raise BoundExceeded.
    """
    m = g.m
    if m > _SWEEP_MAX_EDGES:
        raise BoundExceeded(
            f"sign-pattern sweep limited to {_SWEEP_MAX_EDGES} edges, graph has {m}"
        )
    balanced = _even_patterns((mask for _, mask in cycle_masks(g, max_vertices=g.n)), m)
    fast = _even_patterns(fundamental_cycle_masks(g), m)
    return PatternSweep(
        edge_order=g.edges,
        patterns_checked=1 << m,
        balanced_patterns=tuple(balanced),
        disagreements=tuple(sorted(set(balanced).symmetric_difference(fast))),
    )


# ---------------------------------------------------------------------------
# Theorem experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Experiment:
    """How one claim is checked.

    ``explain(slg, target)`` checks the claim at one target of a derived
    signed labeled graph with public object-level functions only: the
    violation text, or '' where the claim holds or does not apply.
    A pair claim has no ``search``: its explain runs on every admissible
    label pair i < j on K2, each pair one case. Otherwise ``search(tally,
    g)`` runs once per family member: a member search of ``search`` (FWD's
    after its construction check), which walks one labeling per orbit as
    set-index tuples and hands its counts and findings to ``_Tally``.
    ``notes`` builds the report notes from the tally. A transform claim also
    has its ``case`` (see ``_transform_claim``).
    """

    explain: Callable[[SignedLabeledGraph, object], str]
    notes: Callable[[_Tally], list[str]]
    search: Callable[[_Tally, Graph], None] | None = None
    case: Callable[[SignedLabeledGraph, object], str] | None = None


def _transform_claim(
    search: Callable[[_Tally, Graph], None],
    case: Callable[[SignedLabeledGraph, object], str],
    notes: Callable[[_Tally], list[str]],
) -> _Experiment:
    """The record of a transform claim, which applies to balanced labeled
    graphs alone. ``case`` checks it at one target of a balanced slg; the
    explain answers '' on an unbalanced one and defers to ``case`` on any
    other. Replay checks balance once per finding, then runs ``case`` at
    each of its targets."""
    return _Experiment(
        explain=lambda slg, target: case(slg, target) if is_balanced_fast(slg)[0] else "",
        notes=notes,
        search=search,
        case=case,
    )


# The single edge a pair claim labels: set i on u, set j on v.
_K2 = Graph(["u", "v"], [("u", "v")])
_K2_EDGE = _K2.edges[0]


def _run(exp: _Experiment, graphs: Sequence[Graph], bounds: SearchBounds) -> _Tally:
    """Run one experiment over its whole space, after checking every given
    graph against the vertex bound."""
    tally = _Tally(_labeling_space(bounds))
    for g in graphs:
        _check_vertex_bound(g, bounds)
    if exp.search is None:
        # The orbit walk of K2 yields each pair i < j once.
        for indices in _visit(_K2, tally.space, orbits=True):
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


def _balance_fwd_member(tally: _Tally, g: Graph) -> None:
    """FWD's member search, after checking a bipartite member's constructed
    labeling as a construction: it lies outside the bounds."""
    if is_bipartite(g):
        lab = construct_balanced_bipartite_labeling(g)
        if not is_balanced_fast(derive(g, lab))[0]:
            raise AssertionError(f"constructed labeling {format_labeling(lab)!r} is not balanced")
        tally.constructed_ok += 1
    _balance_fwd_search(tally, g)


def _subdivision_case(slg: SignedLabeledGraph, e: Edge) -> str:
    """Subdivide e of a balanced slg and test the claim: the violation, or ''
    when it holds or the inherited label collides with a vertex label."""
    try:
        outcome = subdivide_edge(slg, e)
    except InjectivityCollision:
        return ""
    cut = e in cut_edges(slg.graph)
    if is_balanced_fast(outcome.result)[0] == cut:
        return ""
    if cut:
        return f"edge {e[0]} {e[1]}: cut edge subdivision broke balance"
    return f"edge {e[0]} {e[1]}: non-cut edge subdivision left the graph balanced"


def _homeomorphism_case(slg: SignedLabeledGraph, v: str) -> str:
    """Replace the eligible vertex v of a balanced slg by an edge and test the
    claim: the violation, or '' when it holds."""
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


# One record per claim. Its explain is the claim's only object-level check:
# it runs on every pair of a pair claim, and replays every target of every
# finding of a member search (a transform claim's replay runs its case, the
# explain less the balance check, at each target of a balanced finding). The
# transforms are called only from the case functions. Traced functions
# (derive, the transforms, is_balanced_fast, cut_edges) are called by name,
# here and in ``search``, never stored, so a wrapper installed on a module
# later still sees every call.
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
        search=_balance_fwd_member,
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
    TheoremId.SUBDIVISION: _transform_claim(
        search=_subdivision_search,
        case=_subdivision_case,
        notes=lambda tally: [
            "claim: subdividing an edge of a balanced labeled graph preserves balance iff the edge is a cut edge",
            "cases are (balanced labeling, edge) subdivisions; collisions of the inherited label are skipped",
            f"skipped {tally.skipped} subdivision(s) whose inherited label collided with a vertex label",
        ],
    ),
    TheoremId.HOMEOMORPHISM: _transform_claim(
        search=_homeomorphism_search,
        case=_homeomorphism_case,
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
    order = _finding_order(tally.space, graphs if experiment.search else (_K2,))
    space, explain_any, case = tally.space, experiment.explain, experiment.case
    counters = []
    append = counters.append
    for g, indices, targets in sorted(tally.findings, key=order):
        lab = _labeling_from_indices(g, space, indices)
        slg = derive(g, lab)
        # A transform claim checks balance once for every target.
        explain = case if case is not None and is_balanced_fast(slg)[0] else explain_any
        for target in targets:
            explanation = explain(slg, target)
            if not explanation:
                raise AssertionError(f"{tid.value} finding failed to replay at {target!r}")
            append(Counterexample(g, lab, explanation))
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
