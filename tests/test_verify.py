"""Labeling enumeration, the balanced bipartite construction, and experiments."""

import copy
import dataclasses
import hashlib
import os
import pickle
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations, permutations
from math import perm
from pathlib import Path

import pytest

from sumsign.balance import is_balanced_fast, is_balanced_oracle
from sumsign.errors import BoundExceeded, NotBipartite, ParseError, UnknownTheorem
from sumsign.families import (
    bipartite_family,
    complete_bipartite_graph,
    complete_graph,
    connected_graphs,
    cycle_graph,
    parse_family,
    path_graph,
    resolve_family,
    star_graph,
)
from sumsign.graphs import (
    Graph,
    automorphism_count,
    cut_edges,
    cycle_masks,
    edge_key,
    format_graph,
    fundamental_cycle_masks,
    in_triangle,
    is_bipartite,
    spanning_forest,
)
from sumsign.intsets import IntegerSet, Sign, sumset
from sumsign.labeling import Labeling, derive, format_labeling, validate_aiasl
from sumsign.search import (
    _count_indices,
    _edge_ends,
    _MAX_CANDIDATE_SETS,
    _labeling_space,
    _LabelingSpace,
    _progressions,
    _visit,
)
from sumsign.verify import (
    _EXPERIMENTS,
    _K2,
    _K2_EDGE,
    _labeling_from_indices,
    _run,
    Counterexample,
    SearchBounds,
    TheoremId,
    Verdict,
    construct_balanced_bipartite_labeling,
    count_aiasl,
    enumerate_aiasl,
    signed_graph_from_pattern,
    sweep_sign_patterns,
    verify_theorem,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def oracle_is_progression(elems):
    return len(elems) < 2 or len({b - a for a, b in zip(elems, elems[1:])}) == 1


def oracle_ap_sets(universe_max, max_size):
    """Filter all small subsets of the universe by the progression property."""
    out = []
    universe = range(universe_max + 1)
    for size in range(1, max_size + 1):
        for combo in combinations(universe, size):
            if oracle_is_progression(list(combo)):
                out.append(frozenset(combo))
    return out


def oracle_edge_ok(xs, ys):
    """Progression admissibility, reimplemented directly from the rule."""
    xs, ys = sorted(xs), sorted(ys)
    dx = xs[1] - xs[0] if len(xs) > 1 else None
    dy = ys[1] - ys[0] if len(ys) > 1 else None
    if dx is None or dy is None:
        return True
    lo, hi = sorted((dx, dy))
    if hi % lo != 0:
        return False
    k = hi // lo
    small_len = len(xs) if dx <= dy else len(ys)
    return k <= small_len


def oracle_enumerate(g, universe_max, max_size):
    """Brute-force labeling enumeration: injective products, filtered."""
    sets = sorted(
        (tuple(sorted(s)) for s in oracle_ap_sets(universe_max, max_size)),
        key=lambda t: (len(t), t),
    )
    verts = g.vertices
    results = []

    def rec(i, chosen):
        if i == len(verts):
            results.append({v: s for v, s in zip(verts, chosen)})
            return
        for s in sets:
            if s in chosen:
                continue
            rec(i + 1, chosen + (s,))

    rec(0, ())
    ok = []
    for assignment in results:
        if all(oracle_edge_ok(assignment[u], assignment[v]) for u, v in g.edges):
            ok.append(assignment)
    return ok


# ---------------------------------------------------------------------------
# Candidate sets
# ---------------------------------------------------------------------------

class TestApSets:
    def test_counts_match_subset_filter_oracle(self):
        for universe_max, max_size in [(1, 2), (3, 3), (4, 3), (8, 3)]:
            got = tuple(_progressions(universe_max, max_size))
            expected = oracle_ap_sets(universe_max, max_size)
            assert len(got) == len(expected)
            assert {frozenset(s.elements) for s in got} == set(expected)

    def test_frozen_count(self):
        assert len(tuple(_progressions(8, 3))) == 61

    def test_canonical_order(self):
        # The sets are generated in this order, not sorted into it.
        for universe_max in range(14):
            for max_size in range(1, 9):
                keys = [(len(s), s.elements) for s in _progressions(universe_max, max_size)]
                assert keys == sorted(set(keys))


def oracle_ratio(xs, ys):
    """Deterministic ratio from the rule: 1 beside a singleton, else the
    larger difference over the smaller one when it divides evenly."""
    xs, ys = sorted(xs), sorted(ys)
    if len(xs) < 2 or len(ys) < 2:
        return 1
    lo, hi = sorted((xs[1] - xs[0], ys[1] - ys[0]))
    return hi // lo if hi % lo == 0 else None


@pytest.mark.parametrize(
    "bounds",
    [
        SearchBounds(3, 3),
        SearchBounds(4, 3, odd_ratios_only=True),
        SearchBounds(4, 2, require_strict_universe=True),
        SearchBounds(4, 3, odd_ratios_only=True, require_strict_universe=True),
    ],
    ids=["(3,3)", "(4,3)-odd", "(4,2)-strict", "(4,3)-odd-strict"],
)
def test_pair_tables_match_inline_rule(bounds):
    space = _LabelingSpace(bounds)
    sets = [s.elements for s in space.sets]
    even_ratio_pairs = 0
    for i, xs in enumerate(sets):
        assert not space.compat[i] >> i & 1
        for j, ys in enumerate(sets):
            if i == j:
                continue
            k = oracle_ratio(xs, ys)
            allowed = (
                oracle_edge_ok(xs, ys)
                and not (bounds.odd_ratios_only and k % 2 == 0)
                and not (
                    bounds.require_strict_universe
                    and xs[-1] + ys[-1] > bounds.universe_max
                )
            )
            assert bool(space.compat[i] >> j & 1) == allowed
            assert space.odd[i] >> j & 1 == len({x + y for x in xs for y in ys}) % 2
            even_ratio_pairs += allowed and k % 2 == 0
    # Even ratios are where the parity rule depends on more than the sizes.
    assert (even_ratio_pairs > 0) == (not bounds.odd_ratios_only)


def test_candidate_set_cap():
    bounds = SearchBounds(universe_max=60, max_label_size=10)
    assert len(tuple(_progressions(60, 10))) > _MAX_CANDIDATE_SETS
    with pytest.raises(BoundExceeded, match="candidate label sets"):
        count_aiasl(K2, bounds)
    with pytest.raises(BoundExceeded, match="candidate label sets"):
        verify_theorem("CARDINALITY", "triangle", bounds)


@pytest.mark.parametrize(
    "universe_max, max_size, over",
    [(40, 7, False), (10**9, 3, True), (3, 10**9, False)],
)
def test_candidate_set_cap_stops_at_the_first_set_over(universe_max, max_size, over):
    """The space takes at most one set over the cap, so a huge universe is
    refused at once and a huge size limit on a small universe is not."""
    if over:
        with pytest.raises(BoundExceeded, match="candidate label sets"):
            _LabelingSpace(SearchBounds(universe_max, max_size))
    else:
        assert len(tuple(_progressions(universe_max, max_size))) <= _MAX_CANDIDATE_SETS


@pytest.mark.parametrize(
    "fields",
    [
        {"odd_ratios_only": "no"},  # a true string used to turn the restriction on
        {"require_strict_universe": 1},
        {"universe_max": 3.0},  # used to fail later, in the search, with a TypeError
        {"max_label_size": True},
        {"max_vertices": 2.5},
        {"max_vertices": True},  # used to read as 1
    ],
    ids=["odd-ratios-str", "strict-int", "universe-float", "size-bool", "vertices-float",
         "vertices-bool"],
)
def test_bounds_refuse_a_field_they_would_misread(fields):
    name = next(iter(fields))
    with pytest.raises(ParseError, match=f"{name} must be an? (int|bool), not "):
        SearchBounds(**{"universe_max": 3, "max_label_size": 2, **fields})


# True used to read as the bound 1, and a str to fail on comparison.
@pytest.mark.parametrize("bound", [True, 2.5, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize("check", [parse_family, resolve_family], ids=["parse", "resolve"])
def test_family_bound_must_be_an_int(check, bound):
    with pytest.raises(ParseError) as exc:
        check("path:1", max_vertices=bound)
    assert str(exc.value) == f"max_vertices must be an int, not {bound!r}"


# True used to build the one-vertex graph (connected_graphs served it from its
# cached 1 entry), and 2.5 to fail inside range with a TypeError.
@pytest.mark.parametrize("size", [True, 2.5, "3"], ids=["bool", "float", "str"])
@pytest.mark.parametrize(
    "build",
    [path_graph, cycle_graph, star_graph, complete_graph, connected_graphs, bipartite_family,
     lambda n: complete_bipartite_graph(n, 2), lambda n: complete_bipartite_graph(2, n)],
    ids=["path", "cycle", "star", "complete", "connected", "bipartite", "biclique-m",
         "biclique-n"],
)
def test_family_builders_refuse_a_size_that_is_no_int(build, size):
    assert len(connected_graphs(1)) == 1
    with pytest.raises(ParseError) as exc:
        build(size)
    assert str(exc.value).endswith(f" must be an int, not {size!r}")


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

K2 = Graph(["u", "v"], [("u", "v")])


# A graph with no automorphism but the identity, on six vertices: the
# triangle v1 v2 v4, with v0 hung on v2 and the path v3 v5 on v1.
ASYMMETRIC = Graph.from_edges(
    [("v0", "v2"), ("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v2", "v4"), ("v3", "v5")]
)


class TestEnumerateAiasl:
    def test_k2_universe_one_exactly_six(self):
        labs = list(enumerate_aiasl(K2, SearchBounds(universe_max=1, max_label_size=2)))
        assert len(labs) == 6
        seen = {tuple(s.elements for _, s in l.items()) for l in labs}
        a, b, ab = (0,), (1,), (0, 1)
        assert seen == {(a, b), (b, a), (a, ab), (ab, a), (b, ab), (ab, b)}

    def test_k2_universe_zero_empty(self):
        assert list(enumerate_aiasl(K2, SearchBounds(universe_max=0, max_label_size=2))) == []

    def test_vertex_bound(self):
        with pytest.raises(BoundExceeded):
            list(enumerate_aiasl(path_graph(5), SearchBounds(2, 2, max_vertices=4)))

    def test_matches_independent_oracle(self):
        bounds = SearchBounds(universe_max=3, max_label_size=3)
        for g in (K2, path_graph(3), cycle_graph(3), star_graph(4)):
            mine = [
                {v: s.elements for v, s in l.items()}
                for l in enumerate_aiasl(g, bounds)
            ]
            oracle = oracle_enumerate(g, 3, 3)
            assert len(mine) == len(oracle)
            assert {tuple(sorted(m.items())) for m in mine} == {
                tuple(sorted(o.items())) for o in oracle
            }

    def test_every_yield_validates(self):
        bounds = SearchBounds(universe_max=3, max_label_size=3)
        for labeling in enumerate_aiasl(cycle_graph(4), bounds):
            assert validate_aiasl(derive(cycle_graph(4), labeling)).ok

    def test_odd_ratio_restriction(self):
        bounds = SearchBounds(universe_max=4, max_label_size=3, odd_ratios_only=True)
        labs = list(enumerate_aiasl(K2, bounds))
        # {0,1} with {0,2} has ratio 2; it must be excluded now.
        banned = {((0, 1), (0, 2)), ((0, 2), (0, 1))}
        got = {tuple(s.elements for _, s in l.items()) for l in labs}
        assert not (got & banned)
        relaxed = {
            tuple(s.elements for _, s in l.items())
            for l in enumerate_aiasl(K2, SearchBounds(4, 3))
        }
        assert got < relaxed

    def test_strict_universe_restriction(self):
        bounds = SearchBounds(universe_max=4, max_label_size=2, require_strict_universe=True)
        for labeling in enumerate_aiasl(K2, bounds):
            slg = derive(K2, labeling, strict=True)
            assert max(slg.edge_labels[("u", "v")].elements) <= 4

    @pytest.mark.parametrize(
        "bounds",
        [SearchBounds(3, 2), SearchBounds(4, 2, require_strict_universe=True),
         SearchBounds(3, 3, odd_ratios_only=True)],
        ids=["default", "strict", "odd"],
    )
    @pytest.mark.parametrize(
        "g, order",
        [
            (ASYMMETRIC, 1),
            (path_graph(3), 2),
            (complete_graph(4), 24),
            (Graph.from_edges([("a", "b"), ("c", "d")]), 8),
            (Graph(["a"]), 1),
        ],
        ids=["asymmetric", "P3", "K4", "2K2", "K1"],
    )
    def test_count_helper(self, g, order, bounds):
        """count_aiasl counts one labeling per orbit, times |Aut(g)|: the
        number enumerate_aiasl yields."""
        assert automorphism_count(g) == order
        assert count_aiasl(g, bounds) == len(list(enumerate_aiasl(g, bounds))) > 0


# ---------------------------------------------------------------------------
# Balanced labelings of bipartite graphs
# ---------------------------------------------------------------------------

class TestConstructBalancedBipartite:
    def test_c4_uniform_signs(self):
        g = cycle_graph(4)
        labeling = construct_balanced_bipartite_labeling(g)
        slg = derive(g, labeling)
        assert len({slg.signs[e] for e in g.edges}) == 1
        assert is_balanced_oracle(slg)[0]

    def test_k2_positive_edge(self):
        g = Graph(["u", "v"], [("u", "v")])
        labeling = construct_balanced_bipartite_labeling(g)
        assert labeling.get("u") == IntegerSet([0])
        assert labeling.get("v") == IntegerSet([0, 1])
        slg = derive(g, labeling)
        assert slg.signs[("u", "v")] is Sign.POSITIVE
        assert len(slg.edge_labels[("u", "v")]) == 2

    def test_triangle_rejected(self):
        with pytest.raises(NotBipartite):
            construct_balanced_bipartite_labeling(cycle_graph(3))

    def test_valid_balanced_progression_labeling_on_family(self):
        for g in bipartite_family(6):
            labeling = construct_balanced_bipartite_labeling(g)
            slg = derive(g, labeling, strict=False)
            assert validate_aiasl(slg).ok
            balanced, partition = is_balanced_fast(slg)
            assert balanced and partition is not None


# ---------------------------------------------------------------------------
# Theorem experiments
# ---------------------------------------------------------------------------

class TestVerifyTheorem:
    def test_unknown_theorem(self):
        with pytest.raises(UnknownTheorem):
            verify_theorem("NOT_A_TAG", "triangle", SearchBounds(2, 2))

    def test_positive_edge_confirmed(self):
        rep = verify_theorem(TheoremId.POSITIVE_EDGE, "triangle", SearchBounds(6, 3))
        assert rep.verdict is Verdict.CONFIRMED_WITHIN_BOUNDS
        assert rep.cases_checked > 100
        assert rep.counterexamples == ()

    def test_cardinality_confirmed(self):
        rep = verify_theorem("CARDINALITY", "triangle", SearchBounds(6, 3))
        assert rep.verdict is Verdict.CONFIRMED_WITHIN_BOUNDS

    def test_rev_triangle_finds_counterexamples(self):
        rep = verify_theorem(
            "BALANCE_BIPARTITE_REV", "triangle", SearchBounds(8, 3)
        )
        assert rep.verdict is Verdict.COUNTEREXAMPLE_FOUND
        first = rep.counterexamples[0]
        slg = derive(first.graph, first.labeling)
        assert is_balanced_fast(slg)[0]
        assert not is_bipartite(first.graph)
        # Smallest-first ordering by (vertex count, label mass).
        masses = [ce.labeling.label_mass() for ce in rep.counterexamples]
        assert masses == sorted(masses)

    def test_rev_triangle_odd_ratios_confirmed(self):
        rep = verify_theorem(
            "BALANCE_BIPARTITE_REV",
            "triangle",
            SearchBounds(8, 3, odd_ratios_only=True),
        )
        assert rep.verdict is Verdict.CONFIRMED_WITHIN_BOUNDS

    def test_fwd_universal_on_trees_confirmed(self):
        rep = verify_theorem("BALANCE_BIPARTITE_FWD", "path:4", SearchBounds(3, 3))
        assert rep.verdict is Verdict.CONFIRMED_WITHIN_BOUNDS

    def test_fwd_universal_on_c4_fails(self):
        # Even-ratio edges escape the parity argument, so the universal
        # reading of the forward direction has counterexamples.
        rep = verify_theorem("BALANCE_BIPARTITE_FWD", "cycle:4", SearchBounds(4, 3))
        assert rep.verdict is Verdict.COUNTEREXAMPLE_FOUND
        first = rep.counterexamples[0]
        slg = derive(first.graph, first.labeling)
        assert is_bipartite(first.graph)
        assert not is_balanced_fast(slg)[0]

    def test_iasi_injectivity_counterexample(self):
        rep = verify_theorem("IASI_INJECTIVITY", "path:3", SearchBounds(2, 3))
        assert rep.verdict is Verdict.COUNTEREXAMPLE_FOUND
        first = rep.counterexamples[0]
        slg = derive(first.graph, first.labeling)
        labels = [slg.edge_labels[e] for e in first.graph.edges]
        assert len(set(labels)) < len(labels)

    def test_subdivision_paths_confirmed(self):
        rep = verify_theorem("SUBDIVISION", "path:4", SearchBounds(3, 3))
        assert rep.verdict is Verdict.CONFIRMED_WITHIN_BOUNDS
        assert rep.skipped > 0  # inherited-label collisions get skipped

    def test_homeomorphism_paths_confirmed(self):
        rep = verify_theorem("HOMEOMORPHISM", "path:4", SearchBounds(3, 3))
        assert rep.verdict is Verdict.CONFIRMED_WITHIN_BOUNDS

    def test_homeomorphism_c4_only_if_fails_but_if_holds(self):
        rep = verify_theorem("HOMEOMORPHISM", "cycle:4", SearchBounds(3, 3))
        assert rep.verdict is Verdict.COUNTEREXAMPLE_FOUND
        assert all(
            "left the graph balanced" in ce.explanation
            for ce in rep.counterexamples
        )

    def test_report_text_deterministic(self):
        bounds = SearchBounds(4, 3)
        a = verify_theorem("BALANCE_BIPARTITE_REV", "triangle", bounds).to_text()
        b = verify_theorem("BALANCE_BIPARTITE_REV", "triangle", bounds).to_text()
        assert a == b
        assert a.startswith("theorem = BALANCE_BIPARTITE_REV\nfamily = triangle\n")
        assert "verdict = " in a

    def test_family_resolution(self):
        assert len(resolve_family("connected:4")) == 10
        assert resolve_family("triangle")[0] == cycle_graph(3)
        assert len(resolve_family("biclique:2,3")[0].edges) == 6
        rep = verify_theorem(
            "IASI_INJECTIVITY", [path_graph(2)], SearchBounds(1, 2)
        )
        assert rep.family_spec == "custom(1 graphs)"
        assert rep.cases_checked == 6

    @pytest.mark.parametrize("theorem", list(TheoremId))
    def test_empty_explicit_family_is_rejected(self, theorem):
        with pytest.raises(ParseError, match="empty"):
            verify_theorem(theorem, [], SearchBounds(3, 2))

    @pytest.mark.parametrize(
        "bounds",
        [
            SearchBounds(6, 3),
            SearchBounds(5, 2, odd_ratios_only=True),
            SearchBounds(4, 2, require_strict_universe=True),
        ],
        ids=["(6,3)", "(5,2)-odd", "(4,2)-strict"],
    )
    @pytest.mark.parametrize("theorem", ["POSITIVE_EDGE", "CARDINALITY"])
    def test_pair_cases_are_the_admissible_unordered_pairs(self, theorem, bounds):
        expected = 0
        for xs, ys in combinations(oracle_ap_sets(bounds.universe_max, bounds.max_label_size), 2):
            xs, ys = sorted(xs), sorted(ys)
            if not oracle_edge_ok(xs, ys):
                continue
            if bounds.odd_ratios_only and oracle_ratio(xs, ys) % 2 == 0:
                continue
            if bounds.require_strict_universe and xs[-1] + ys[-1] > bounds.universe_max:
                continue
            expected += 1
        assert verify_theorem(theorem, "triangle", bounds).cases_checked == expected

    def test_one_vertex_bound_for_every_search(self):
        bounds = SearchBounds(2, 2, max_vertices=4)
        messages = set()
        for search in (
            lambda: list(enumerate_aiasl(path_graph(5), bounds)),
            lambda: count_aiasl(path_graph(5), bounds),
            lambda: verify_theorem("BALANCE_BIPARTITE_FWD", [path_graph(5)], bounds),
            # The pair theorems label one edge, but still check given graphs.
            lambda: verify_theorem("POSITIVE_EDGE", [path_graph(5)], bounds),
        ):
            with pytest.raises(BoundExceeded) as exc:
                search()
            messages.add(str(exc.value))
        assert messages == {"search limited to 4 vertices, graph has 5"}

    @staticmethod
    def refuse_family_builders(monkeypatch):
        import sumsign.families as families

        def refuse(*args):
            raise AssertionError("a family graph was built")

        for name in ("connected_graphs", "bipartite_family", "path_graph",
                     "cycle_graph", "star_graph", "complete_graph",
                     "complete_bipartite_graph"):
            monkeypatch.setattr(families, name, refuse)

    @pytest.mark.parametrize("spec", ["bipartite:400", "complete:100000"])
    def test_oversize_family_spec_is_refused_before_building(self, monkeypatch, spec):
        self.refuse_family_builders(monkeypatch)
        with pytest.raises(BoundExceeded, match="bound is 12"):
            verify_theorem("SUBDIVISION", spec, SearchBounds(2, 2))

    @pytest.mark.parametrize("theorem", ["POSITIVE_EDGE", "CARDINALITY"])
    def test_pair_theorems_build_no_family_graph(self, monkeypatch, theorem):
        bounds = SearchBounds(2, 2, max_vertices=600)
        expected = verify_theorem(theorem, "triangle", bounds).cases_checked
        self.refuse_family_builders(monkeypatch)
        rep = verify_theorem(theorem, "complete:600", bounds)
        assert rep.family_spec == "complete:600"
        assert rep.cases_checked == expected
        for spec in ("connected:0", "cycle:2", "connected:8", "blob:3"):
            with pytest.raises(ParseError):
                verify_theorem(theorem, spec, bounds)
        with pytest.raises(BoundExceeded):
            verify_theorem(theorem, "complete:601", bounds)


# sha256 of ``verify_theorem(theorem, family, bounds).to_text()`` for every
# theorem, computed by an earlier implementation with one hand-written
# driver per theorem: every report must stay byte-identical. The cases
# cover counterexamples for both balance directions, HOMEOMORPHISM and
# IASI_INJECTIVITY, skipped members for both balance directions, skipped
# SUBDIVISION collisions, and the strict-universe and odd-ratio bounds.
GOLDEN_REPORTS = [
    ("connected:4", SearchBounds(2, 2), {
        "POSITIVE_EDGE": "93bb9905ce310e852be01716f727c7faf594c78ba591ff29df2d5fd1e9618982",
        "CARDINALITY": "63bbed0a3dc2fdd801dc732f4f89ea0909bc1e469b0ce1d47cf63f05c0cf7bf6",
        "BALANCE_BIPARTITE_FWD": "88c60595706892214b831cdf456f4a7f2d4a11cce3232a88632e845fc7384bc9",
        "BALANCE_BIPARTITE_REV": "c33620a3f52326d3f354c12937120ead3ef859c77629b5afede07a8d238c79bc",
        "SUBDIVISION": "57f580d0028f28ddc87d3e74c32987fc22ff5bd6e02d9ce68587a45e3eaa5966",
        "HOMEOMORPHISM": "6354142887814bb08190271abfd952313be9c3e2aebc4f272f21dbbf5b9ed830",
        "IASI_INJECTIVITY": "b3e1e064ad1e60115357e0a722d9fd4a868c138b41cecbcbc8157336a0b394c4",
    }),
    ("triangle", SearchBounds(3, 3), {
        "POSITIVE_EDGE": "ce4ff761e2858fa227a6d26fd30205e38f782d84cd32baf2b994e305c98a9964",
        "CARDINALITY": "20d40a9481d327224e625268813a04918ab9407922560bdc2acc1255d7094f19",
        "BALANCE_BIPARTITE_FWD": "2a392453214db920bed92f91ea7eef3015cb198cdf9dfc5fda80677f6e691538",
        "BALANCE_BIPARTITE_REV": "5f58526eb96bfe63e37dbc4a8bafd43ff79aff1b7af5a671cbd2a6e2b101f60b",
        "SUBDIVISION": "d5a01bb0e54ac000e894b57553405db9c4bd70e3abd315c382276502a35145fa",
        "HOMEOMORPHISM": "b40383b98dfb44ead6228caea6e8a773c2d29723843550c1a15aadffb0b304db",
        "IASI_INJECTIVITY": "3bb2023bb84207217353b2251ae912653bb37986b636e6680f761a2c9053370b",
    }),
    ("cycle:6", SearchBounds(2, 2), {
        "POSITIVE_EDGE": "512efc9b34e6c083375b511c2e1f6011b0f5b52dde708fb913264d89a5f25ef2",
        "CARDINALITY": "a7ab4fe723997cd6bcc4ba580e287c039f625aea800efd0087f7c0dc24022614",
        "BALANCE_BIPARTITE_FWD": "4a22fddeb7ba20699ecaa29c2d42f4be0b4353aacf0912d1aef33dae9754d870",
        "BALANCE_BIPARTITE_REV": "1b5c54306740985a1846fb99c55a93905bad57215194b1db9cfd0379e02b7ce7",
        "SUBDIVISION": "67989b9b8a875ec3bbdb89db1f5355539649affb5ab98de87afd69a42cacaf57",
        "HOMEOMORPHISM": "e18343b96676270b5a0ca53451aa4d46b28cda9b14dcd4a3c1d8044a0772980e",
        "IASI_INJECTIVITY": "d5c3b628328ffb60797bffcd4d784ac90cbf327d9d5d6f1c377341104fa5684b",
    }),
    ("cycle:4", SearchBounds(4, 2, require_strict_universe=True), {
        "POSITIVE_EDGE": "f140740a8ab9ba3e19fd13d0e0aa792009df2fe9cf46c098894da6012c888bce",
        "CARDINALITY": "5ceaa410ceb61491874cba97cac885c11434e9206ece752202aac8f7a4b1f5cf",
        "BALANCE_BIPARTITE_FWD": "a0cdeedcbe2f5bf0a4435e4219e0c0ede2374faee2b2ffdbfac7a9d299ea61ee",
        "BALANCE_BIPARTITE_REV": "af1f466bb5fb5ff0ea53f210c80674080e9cb6d60f674488ffe00516c5b92c9e",
        "SUBDIVISION": "8a7ae94fd58be7d8763e6d293ee8fc4fccf32d3d7ab443cc8b87aca8cbed9cc0",
        "HOMEOMORPHISM": "9d5e41e938db52ee53b0acd21a73fe69643d3b8648923ca58d74c60314e54f6e",
        "IASI_INJECTIVITY": "2c01195ab597c3f0b5fc401f4e48d2731e89b7d73c7fa71ac70295fbca0d9516",
    }),
    ("triangle", SearchBounds(5, 2, odd_ratios_only=True), {
        "POSITIVE_EDGE": "bd83bb12afa435f9219d8731c0e4b85bc74ea10a76efee2b40789e8994b0be59",
        "CARDINALITY": "81fc49d655db29d24896c36a964995f45b216e5ed10e3378852ef64aace8be4f",
        "BALANCE_BIPARTITE_FWD": "6d0ef52e2a9b1b8ca75ae9d7620135f9a795c19b0ad3d7c20040ec4f5af45472",
        "BALANCE_BIPARTITE_REV": "878baa6014668f4804205b7ad8bcd25631ba60d3956f216e471a84981142a72a",
        "SUBDIVISION": "d8b24add7955e4c4f683dc3304f2be15b01e277fc2f9d4f4c0bea87f8f2d9667",
        "HOMEOMORPHISM": "96550387db8c99ade8938af11c6af8cd75722d90d53782a9ff62aa86db7b3b7b",
        "IASI_INJECTIVITY": "ed962f4c251ee1116141b927e2cf2c5f9bcfa11f1c68ed9f157ea916f8cd13cb",
    }),
]


@pytest.mark.parametrize(
    "family, bounds, expected",
    GOLDEN_REPORTS,
    ids=["connected:4-(2,2)", "triangle-(3,3)", "cycle:6-(2,2)",
         "cycle:4-(4,2)-strict", "triangle-(5,2)-odd"],
)
def test_reports_match_golden_hashes(family, bounds, expected):
    got = {
        tid.value: hashlib.sha256(
            verify_theorem(tid, family, bounds).to_text().encode()
        ).hexdigest()
        for tid in TheoremId
    }
    assert got == expected


def test_one_experiment_per_theorem():
    assert list(_EXPERIMENTS) == list(TheoremId)
    pair_claims = [tid for tid, exp in _EXPERIMENTS.items() if exp.search is None]
    assert pair_claims == [TheoremId.POSITIVE_EDGE, TheoremId.CARDINALITY]


def test_pair_claim_findings_come_from_its_explain():
    """A pair claim has no search of its own: its record's explain decides
    every pair, and each pair it fails is recorded on K2 in pair order."""
    def odd_sumset(slg, e):
        return "odd" if len(slg.edge_labels[e]) % 2 else ""

    bounds = SearchBounds(3, 2)
    exp = _EXPERIMENTS[TheoremId.CARDINALITY]
    tally = _run(dataclasses.replace(exp, explain=odd_sumset), [], bounds)
    space = tally.space
    pairs = [(i, j) for i in range(len(space.sets)) for j in range(i + 1, len(space.sets))
             if space.compat[i] >> j & 1]
    expected = [
        (_K2, (i, j), (_K2_EDGE,))
        for i, j in pairs
        if len(sumset(space.sets[i], space.sets[j])) % 2
    ]
    assert 0 < len(expected) < len(pairs)
    assert tally.findings == expected
    assert tally.cases == _run(exp, [], bounds).cases == len(pairs)


# ---------------------------------------------------------------------------
# Reports against an object-level recomputation
# ---------------------------------------------------------------------------

# A 4-cycle beside a single edge: cycle and cut edges, cycle vertices, and
# two components (two spanning-forest roots).
C4_PLUS_K2 = Graph(
    ["a", "b", "c", "d", "e", "f"],
    [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("e", "f")],
)
COMPLETENESS_CASES = [
    ("connected:4", SearchBounds(2, 2)),
    ("connected:4", SearchBounds(3, 2)),
    (C4_PLUS_K2, SearchBounds(2, 2)),
    ("connected:4", SearchBounds(3, 3, odd_ratios_only=True)),
    ("connected:4", SearchBounds(4, 2, require_strict_universe=True)),
]
COMPLETENESS_IDS = [
    "connected:4-(2,2)", "connected:4-(3,2)", "C4+K2-(2,2)",
    "connected:4-(3,3)-odd", "connected:4-(4,2)-strict",
]
MEMBER_THEOREMS = [tid for tid, exp in _EXPERIMENTS.items() if exp.search is not None]
# The members each balance direction applies to; the others are skipped.
BALANCE_MEMBERS = {
    TheoremId.BALANCE_BIPARTITE_FWD: is_bipartite,
    TheoremId.BALANCE_BIPARTITE_REV: lambda g: not is_bipartite(g),
}


def _graphs(family):
    """The members of a family spec, a single graph or a list of graphs."""
    if isinstance(family, str):
        return resolve_family(family)
    return [family] if isinstance(family, Graph) else family


def _member_targets(tid, g):
    """Where a member claim is checked on each labeling of g, in order."""
    return {
        TheoremId.SUBDIVISION: g.edges,
        TheoremId.HOMEOMORPHISM: [
            v for v in g.vertices if g.degree(v) == 2 and not in_triangle(g, v)
        ],
    }.get(tid, [None])


def _lexicographic_walk(g, space):
    """Every injective index tuple, in lexicographic order, kept when each
    edge's pair is admissible."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    return [
        combo
        for combo in permutations(range(len(space.sets)), g.n)
        if all(space.compat[combo[pos[u]]] >> combo[pos[v]] & 1 for u, v in g.edges)
    ]


def _filtered_labelings(g, bounds):
    """Every labeling of g within bounds, from ``_lexicographic_walk``
    rather than the search's walk."""
    space = _LabelingSpace(bounds)
    return [_labeling_from_indices(g, space, combo) for combo in _lexicographic_walk(g, space)]


def _object_level_run(tid, graphs, bounds):
    """({graph: (cases, skipped)}, Counter of (graph, labeling, explanation))
    of one member experiment, from the filtered enumeration, derive and the
    record's explain at every target of every labeling. A transform claim
    counts the targets of balanced labelings alone, and SUBDIVISION skips an
    edge whose label already labels a vertex."""
    explain = _EXPERIMENTS[tid].explain
    transform = tid in (TheoremId.SUBDIVISION, TheoremId.HOMEOMORPHISM)
    counts = {}
    found = Counter()
    for g in graphs:
        cases = skipped = 0
        if tid in BALANCE_MEMBERS and not BALANCE_MEMBERS[tid](g):
            counts[g] = (0, 1)
            continue
        targets = _member_targets(tid, g)
        for lab in _filtered_labelings(g, bounds):
            slg = derive(g, lab)
            counted = not transform or is_balanced_fast(slg)[0]
            labels = {s for _, s in lab.items()}
            for target in targets:
                text = explain(slg, target)
                if text:
                    found[g, lab, text] += 1
                if not counted:
                    continue
                if tid is TheoremId.SUBDIVISION and slg.edge_labels[target] in labels:
                    skipped += 1
                else:
                    cases += 1
        counts[g] = (cases, skipped)
    return counts, found


@pytest.mark.parametrize("tid", MEMBER_THEOREMS, ids=lambda tid: tid.value)
@pytest.mark.parametrize("family, bounds", COMPLETENESS_CASES, ids=COMPLETENESS_IDS)
def test_reports_equal_an_object_level_recomputation(tid, family, bounds):
    """No counterexample is missed or invented, and each member's cases and
    skips match: the report equals a recomputation from the filtered
    enumeration and the object-level case functions, with no index-space
    search."""
    graphs = _graphs(family)
    report = verify_theorem(tid, graphs, bounds)
    got = Counter((ce.graph, ce.labeling, ce.explanation) for ce in report.counterexamples)
    counts, found = _object_level_run(tid, graphs, bounds)
    assert got == found
    exp = _EXPERIMENTS[tid]
    for g in graphs:
        tally = _run(exp, [g], bounds)
        assert (tally.cases, tally.skipped) == counts[g], format_graph(g)
    cases = sum(c for c, _ in counts.values())
    skipped = sum(s for _, s in counts.values())
    assert (report.cases_checked, report.skipped) == (cases, skipped)
    assert cases + skipped > 0
    # Skips, holds and violations all occur: SUBDIVISION skips and holds
    # (it has no violation within desk bounds), HOMEOMORPHISM fails on the
    # 4-cycle, and some labelings are edge-injective and some are not.
    if tid is TheoremId.SUBDIVISION:
        assert skipped > 0 and cases > len(report.counterexamples)
    if tid is TheoremId.HOMEOMORPHISM:
        assert report.counterexamples
    if tid is TheoremId.IASI_INJECTIVITY:
        assert 0 < len(report.counterexamples) < cases


@pytest.mark.parametrize("tid", MEMBER_THEOREMS, ids=lambda tid: tid.value)
@pytest.mark.parametrize("family, bounds", COMPLETENESS_CASES[:3], ids=COMPLETENESS_IDS[:3])
def test_each_failing_labeling_is_one_finding(tid, family, bounds):
    """A search records each failing labeling once, with every target where
    the claim fails on it in the order the targets are listed, and records
    no labeling where the claim holds."""
    exp = _EXPERIMENTS[tid]
    for g in _graphs(family):
        expected = Counter()
        if tid not in BALANCE_MEMBERS or BALANCE_MEMBERS[tid](g):
            for lab in _filtered_labelings(g, bounds):
                slg = derive(g, lab)
                failing = tuple(t for t in _member_targets(tid, g) if exp.explain(slg, t))
                if failing:
                    expected[g, lab, failing] += 1
        tally = _run(exp, [g], bounds)
        got = Counter(
            (found, _labeling_from_indices(found, tally.space, indices), targets)
            for found, indices, targets in tally.findings
        )
        assert got == expected, format_graph(g)


def _random_case(rng):
    """A random graph on 1 to 5 vertices, isolated vertices and several
    components included, with random bounds (strict universe and odd ratios
    included) small enough for ``_lexicographic_walk``."""
    n = rng.randint(1, 5)
    vertices = [f"v{i}" for i in range(n)]
    g = Graph(vertices, [e for e in combinations(vertices, 2) if rng.random() < 0.5])
    while True:
        bounds = SearchBounds(
            rng.randint(1, 4),
            rng.randint(1, 3),
            require_strict_universe=rng.random() < 0.3,
            odd_ratios_only=rng.random() < 0.3,
        )
        candidates = len(list(_progressions(bounds.universe_max, bounds.max_label_size)))
        if perm(candidates, n) <= 20000:
            return g, bounds


def test_random_graphs_and_bounds_equal_an_object_level_recomputation():
    """The differential of the two paths on random small cases: for each
    member claim, the report's counterexamples, cases and skips equal the
    object-level recomputation's."""
    rng = random.Random(30)
    for _ in range(150):
        g, bounds = _random_case(rng)
        for tid in MEMBER_THEOREMS:
            report = verify_theorem(tid, [g], bounds)
            counts, found = _object_level_run(tid, [g], bounds)
            got = Counter((ce.graph, ce.labeling, ce.explanation) for ce in report.counterexamples)
            assert got == found, (tid, format_graph(g), bounds)
            assert (report.cases_checked, report.skipped) == counts[g], (tid, format_graph(g), bounds)


def _brute_automorphisms(g):
    """Every vertex map of g onto itself that keeps its edges, as one
    {vertex: image} dict each: the n! brute force."""
    edges = set(g.edges)
    maps = (dict(zip(g.vertices, images)) for images in permutations(g.vertices))
    return [s for s in maps if all(edge_key(s[u], s[v]) in edges for u, v in g.edges)]


def _relabelings(g):
    """Per automorphism s of g: the positions whose labels the image of a
    labeling (as set indices in ``g.vertices`` order) takes, and the map of
    each target (a vertex, an edge or None) to its image."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    out = []
    for s in _brute_automorphisms(g):
        source = [0] * g.n
        for v in g.vertices:
            source[pos[s[v]]] = pos[v]
        targets = {None: None, **s, **{(u, v): edge_key(s[u], s[v]) for u, v in g.edges}}
        out.append((source, targets))
    return out


def _even_subdivision_parity(monkeypatch):
    """Read every pair's subdivision parity as even, so that SUBDIVISION
    fails at each non-cut edge whose inherited set labels no vertex."""
    pair_sum = _LabelingSpace.pair_sum
    monkeypatch.setattr(
        _LabelingSpace, "pair_sum", lambda space, i, j: (pair_sum(space, i, j)[0], 0)
    )


# (claim, family, bounds, whether the reflection x -> N - x is a symmetry).
CLOSURE_CASES = [
    (TheoremId.BALANCE_BIPARTITE_REV, "connected:5", SearchBounds(3, 2), True),
    (TheoremId.HOMEOMORPHISM, "connected:5", SearchBounds(3, 3), True),
    (TheoremId.HOMEOMORPHISM, "connected:5", SearchBounds(3, 3, odd_ratios_only=True), True),
    (TheoremId.IASI_INJECTIVITY, "connected:4", SearchBounds(4, 2), True),
    (TheoremId.BALANCE_BIPARTITE_FWD, "connected:4", SearchBounds(4, 3), True),
    (TheoremId.SUBDIVISION, "connected:4", SearchBounds(3, 2), False),
    (TheoremId.IASI_INJECTIVITY, "connected:4", SearchBounds(4, 2, require_strict_universe=True), False),
    (TheoremId.HOMEOMORPHISM, "connected:4", SearchBounds(4, 2, require_strict_universe=True), False),
]


@pytest.mark.parametrize(
    "tid, family, bounds, reflect",
    CLOSURE_CASES,
    ids=["rev", "homeomorphism", "homeomorphism-odd", "iasi", "fwd", "subdivision-even-parity",
         "iasi-strict", "homeomorphism-strict"],
)
def test_findings_are_closed_under_the_claims_symmetries(monkeypatch, tid, family, bounds, reflect):
    """Every member claim is invariant under relabeling by an automorphism,
    and, outside SUBDIVISION's collision skips and the strict universe, under
    the reflection x -> N - x of every label. So each image of a finding,
    its targets mapped, is the finding recorded for the image's labeling.
    SUBDIVISION has no finding within desk bounds, so it runs under an even
    subdivision parity."""
    if tid is TheoremId.SUBDIVISION:
        _even_subdivision_parity(monkeypatch)
    graphs = resolve_family(family)
    tally = _run(_EXPERIMENTS[tid], graphs, bounds)
    space = tally.space
    recorded = {(g, indices): targets for g, indices, targets in tally.findings}
    assert len(recorded) == len(tally.findings)
    ids = {s.elements: i for i, s in enumerate(space.sets)}
    top = bounds.universe_max
    mirror = [ids[tuple(sorted(top - x for x in s.elements))] for s in space.sets]
    relabelings = {g: _relabelings(g) for g in graphs}
    images = 0
    for (g, indices), targets in recorded.items():
        for source, image_of in relabelings[g]:
            image = tuple(map(indices.__getitem__, source))
            mapped = tuple(sorted(map(image_of.__getitem__, targets)))
            assert recorded.get((g, image)) == mapped, format_graph(g)
            images += 1
        if reflect:
            assert recorded.get((g, tuple(mirror[k] for k in indices))) == targets, format_graph(g)
    assert images > len(recorded) > 0


# The paw (a triangle with a pendant vertex) and the diamond (K4 less an
# edge) are both non-bipartite on four vertices, so their counterexamples tie
# on n and label mass and are told apart by the graph text; the repeated paw
# gives equal findings from two members.
PAW = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
DIAMOND = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("b", "d"), ("c", "d")])


def _odd_sumset(slg, e):
    return "odd" if len(slg.edge_labels[e]) % 2 else ""


@pytest.mark.parametrize(
    "tid, family, bounds, ties",
    [
        (TheoremId.BALANCE_BIPARTITE_REV, "connected:4", SearchBounds(3, 2), False),
        (TheoremId.HOMEOMORPHISM, "connected:5", SearchBounds(2, 2), True),
        (TheoremId.CARDINALITY, "connected:2", SearchBounds(10, 2), False),
        (TheoremId.BALANCE_BIPARTITE_REV, [PAW, cycle_graph(3), DIAMOND, PAW],
         SearchBounds(3, 2), True),
    ],
    ids=["rev-connected:4", "homeomorphism-connected:5", "pair-claim", "rev-custom"],
)
def test_report_order_is_the_sort_key_order(monkeypatch, tid, family, bounds, ties):
    """The findings are sorted in index space, yet the report comes in
    ``Counterexample.sort_key`` order, with the targets of one finding and
    equal findings of a repeated graph in search order: the report equals
    replaying every finding in search order and then sorting the
    counterexamples stably by their formatted text."""
    if tid is TheoremId.CARDINALITY:
        # A pair claim that fails often, on sets like {0,1}, {0}, {2} and {10}.
        replaced = dataclasses.replace(_EXPERIMENTS[tid], explain=_odd_sumset)
        monkeypatch.setitem(_EXPERIMENTS, tid, replaced)
    report = verify_theorem(tid, family, bounds)
    assert report.counterexamples
    assert list(report.counterexamples) == sorted(
        report.counterexamples, key=Counterexample.sort_key
    )
    graphs = _graphs(family)
    tally = _run(_EXPERIMENTS[tid], graphs, bounds)
    replayed = []
    for g, indices, targets in tally.findings:
        lab = _labeling_from_indices(g, tally.space, indices)
        slg = derive(g, lab)
        replayed.extend(Counterexample(g, lab, _EXPERIMENTS[tid].explain(slg, t)) for t in targets)
    assert report.counterexamples == tuple(sorted(replayed, key=Counterexample.sort_key))
    # Where keys tie (several targets, or a repeated graph), the order among
    # them is the search's, which only a stable sort keeps.
    keys = [ce.sort_key() for ce in report.counterexamples]
    assert (len(set(keys)) < len(keys)) == ties


@pytest.mark.parametrize(
    "copy_of",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_report_copies_round_trip(copy_of):
    """A report pickles and copies whole; its graphs, labelings and sets are
    rebuilt through their constructors and give the same text."""
    report = verify_theorem(TheoremId.HOMEOMORPHISM, "cycle:4", SearchBounds(2, 2))
    assert report.counterexamples
    twin = copy_of(report)
    assert twin == report
    assert twin.to_text() == report.to_text()


@pytest.mark.parametrize(
    "tid, graph, labeling, target",
    [
        # All three edges negative: the triangle is unbalanced.
        (TheoremId.SUBDIVISION, cycle_graph(3), {"v0": [0], "v1": [1], "v2": [2]}, ("v0", "v1")),
        (TheoremId.HOMEOMORPHISM, cycle_graph(3), {"v0": [0], "v1": [1], "v2": [2]}, "v0"),
        # {0} + {1} = {1}: the inherited label is v1's.
        (TheoremId.SUBDIVISION, path_graph(2), {"v0": [0], "v1": [1]}, ("v0", "v1")),
    ],
    ids=["subdivision-unbalanced", "homeomorphism-unbalanced", "subdivision-collision"],
)
def test_a_transform_claim_that_does_not_apply_explains_as_empty(tid, graph, labeling, target):
    """Where a transform claim does not apply, explain answers '', the same
    str as where it holds, never None."""
    slg = derive(graph, Labeling(3, {v: IntegerSet(s) for v, s in labeling.items()}))
    assert is_balanced_fast(slg)[0] == (graph.m == 1)
    assert _EXPERIMENTS[tid].explain(slg, target) == ""


def test_subdivision_records_every_failing_edge(monkeypatch):
    """With every pair's subdivision parity read as even, a balanced
    labeling fails at each non-cut edge whose inherited set labels no
    vertex, and its one finding names all of those edges, in edge order."""
    _even_subdivision_parity(monkeypatch)
    graphs = resolve_family("connected:4")
    tally = _run(_EXPERIMENTS[TheoremId.SUBDIVISION], graphs, SearchBounds(3, 2))
    space = tally.space
    expected = []
    for g in graphs:
        cut = set(cut_edges(g))
        pos = {v: i for i, v in enumerate(g.vertices)}
        for indices in _visit(g, space, balanced=True):
            labels = {space.sets[k] for k in indices}
            failing = tuple(
                (u, v) for u, v in g.edges
                if (u, v) not in cut
                and sumset(space.sets[indices[pos[u]]], space.sets[indices[pos[v]]]) not in labels
            )
            if failing:
                expected.append((g, indices, failing))

    def order(finding):
        return format_graph(finding[0]), finding[1]

    assert sorted(tally.findings, key=order) == sorted(expected, key=order)
    assert len(expected) == 3552
    assert sum(len(targets) > 1 for _, _, targets in expected) == 3208


# ---------------------------------------------------------------------------
# The labeling walks: visiting, count and balanced modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "family, bounds",
    [
        ("connected:3", SearchBounds(3, 3)),
        (C4_PLUS_K2, SearchBounds(2, 2)),
        ([K2, path_graph(3), cycle_graph(3), Graph.from_edges([("a", "b"), ("c", "d")])],
         SearchBounds(3, 2)),
    ],
    ids=["connected:3-(3,3)", "C4+K2-(2,2)", "K2,P3,C3,2K2-(3,2)"],
)
def test_visiting_order_is_lexicographic(family, bounds):
    space = _LabelingSpace(bounds)
    for g in _graphs(family):
        walked = list(_visit(g, space))
        assert walked  # compared unsorted: the order itself is checked
        assert walked == _lexicographic_walk(g, space)


WALK_CASES = COMPLETENESS_CASES + [
    (Graph(["a", "b", "c", "z"], [("a", "b"), ("b", "c"), ("a", "c")]), SearchBounds(3, 3)),
    (Graph(["a"]), SearchBounds(3, 2)),
    (Graph([]), SearchBounds(3, 2)),
]
WALK_IDS = COMPLETENESS_IDS + ["K3+isolated-(3,3)", "K1-(3,2)", "empty-(3,2)"]


def _negative_mask(ends, odd, indices):
    """The edge bits of ``ends`` whose pair of sets has an odd sumset."""
    mask = 0
    for a, b, bit in ends:
        if odd[indices[a]] >> indices[b] & 1:
            mask |= bit
    return mask


def _balanced(neg_mask, cycles):
    """Even negative count on every fundamental cycle, hence on every cycle."""
    return all((neg_mask & c).bit_count() % 2 == 0 for c in cycles)


@pytest.mark.parametrize("family, bounds", WALK_CASES, ids=WALK_IDS)
def test_count_and_balanced_modes_equal_the_filtered_walk(family, bounds):
    """Count mode counts the orbit walk; the balanced mode yields each
    labeling that _negative_mask plus _balanced keeps, once, and no other."""
    space = _LabelingSpace(bounds)
    for g in _graphs(family):
        ends, cycles = _edge_ends(g), fundamental_cycle_masks(g)
        every = list(_visit(g, space))
        assert _count_indices(g, space) == len(list(_visit(g, space, orbits=True)))
        balanced = list(_visit(g, space, balanced=True))
        assert len(set(balanced)) == len(balanced)
        assert set(balanced) == {
            indices
            for indices in every
            if _balanced(_negative_mask(ends, space.odd, indices), cycles)
        }


@pytest.mark.parametrize("family, bounds", WALK_CASES, ids=WALK_IDS)
def test_orbit_walks_yield_the_least_labeling_of_each_orbit(family, bounds):
    """With ``orbits``, the plain and the balanced walk each yield exactly
    the least labeling, compared in spanning-forest order, of every orbit of
    Aut(g) that they would visit, and count |Aut(g)| times fewer."""
    space = _LabelingSpace(bounds)
    for g in _graphs(family):
        relabelings = [source for source, _ in _relabelings(g)]
        assert automorphism_count(g) == len(relabelings)
        pos = {v: i for i, v in enumerate(g.vertices)}
        order = [pos[v] for v in spanning_forest(g)[0]]

        def least(indices):
            images = (tuple(map(indices.__getitem__, source)) for source in relabelings)
            return min(images, key=lambda image: [image[i] for i in order])

        for balanced in (False, True):
            every = list(_visit(g, space, balanced))
            least_ones = list(_visit(g, space, balanced, orbits=True))
            assert len(set(least_ones)) == len(least_ones)
            assert set(least_ones) == {least(indices) for indices in every}
            assert len(least_ones) * len(relabelings) == len(every)
        assert _count_indices(g, space) * len(relabelings) == len(list(_visit(g, space)))


@pytest.mark.parametrize(
    "tid, family, bounds",
    [
        (TheoremId.SUBDIVISION, "complete:10", SearchBounds(3, 2)),
        (TheoremId.SUBDIVISION, "complete:12", SearchBounds(3, 2)),
        (TheoremId.BALANCE_BIPARTITE_FWD, "bipartite:12", SearchBounds(2, 2)),
    ],
    ids=["subdivision-complete:10", "subdivision-complete:12", "fwd-bipartite:12"],
)
def test_a_large_automorphism_group_is_not_listed(tid, family, bounds):
    """The orbit walk reads |Aut(g)| from the stabilizer chain, and lists
    the group only to expand a finding. complete:12 has 12! automorphisms
    and star:12 11!, so these runs, which the unreduced search finished in
    0.36 s at most, would not finish if the group were listed up front."""
    start = time.perf_counter()
    verify_theorem(tid, family, bounds).to_text()
    assert time.perf_counter() - start < 3


def test_replay_refuses_a_finding_at_the_wrong_target(monkeypatch):
    """A HOMEOMORPHISM search that names the off-cycle vertex e instead of
    the cycle vertex it transformed must not pass replay."""
    g = Graph.from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("d", "e"), ("e", "f")])
    bounds = SearchBounds(2, 2)
    report = verify_theorem(TheoremId.HOMEOMORPHISM, [g], bounds)
    assert {ce.explanation.split(":")[0] for ce in report.counterexamples} == {
        "vertex a", "vertex b", "vertex c"
    }
    exp = _EXPERIMENTS[TheoremId.HOMEOMORPHISM]

    def search_naming_e(tally, g):
        exp.search(tally, g)
        tally.findings[:] = [(g, lab, ["e"] * len(targets)) for g, lab, targets in tally.findings]

    monkeypatch.setitem(
        _EXPERIMENTS, TheoremId.HOMEOMORPHISM, dataclasses.replace(exp, search=search_naming_e)
    )
    with pytest.raises(AssertionError, match="HOMEOMORPHISM finding failed to replay at 'e'"):
        verify_theorem(TheoremId.HOMEOMORPHISM, [g], bounds)


def test_an_unbalanced_constructed_labeling_is_refused(monkeypatch):
    """FWD checks its constructed labeling as a construction, not as a
    finding: one that is unbalanced raises, also under ``python -O``."""
    import sumsign.verify as verify_module

    bounds = SearchBounds(4, 3)
    unbalanced = verify_theorem("BALANCE_BIPARTITE_FWD", "cycle:4", bounds).counterexamples[0]
    assert not is_balanced_fast(derive(unbalanced.graph, unbalanced.labeling))[0]
    monkeypatch.setattr(
        verify_module, "construct_balanced_bipartite_labeling", lambda g: unbalanced.labeling
    )
    with pytest.raises(AssertionError, match="constructed labeling .* is not balanced"):
        verify_theorem("BALANCE_BIPARTITE_FWD", "cycle:4", bounds)
    script = f"""
import sumsign.verify as verify
from sumsign.labeling import parse_labeling
lab = parse_labeling({format_labeling(unbalanced.labeling)!r})
verify.construct_balanced_bipartite_labeling = lambda g: lab
try:
    verify.verify_theorem("BALANCE_BIPARTITE_FWD", "cycle:4", verify.SearchBounds(4, 3))
except AssertionError as exc:
    print(exc)
"""
    src = str(Path(verify_module.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert "is not balanced" in done.stdout, done.stderr


def test_replay_derives_each_labeling_once(monkeypatch):
    """A labeling that fails at several targets is derived once for all of
    them, and the report keeps its bytes."""
    import sumsign.verify as verify_module

    calls = []
    derive_once = verify_module.derive
    monkeypatch.setattr(
        verify_module, "derive", lambda g, lab: calls.append(lab) or derive_once(g, lab)
    )
    report = verify_theorem(TheoremId.HOMEOMORPHISM, "connected:5", SearchBounds(2, 2))
    assert (len(calls), len(report.counterexamples)) == (648, 1200)
    assert len({id(lab) for lab in calls}) == 648
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == (
        "942544c22d249fe10f038bd651e9904e36ce0ee5fabfff03e60913fb368aa6b1"
    )


def test_replayed_labelings_equal_the_public_construction():
    """Replay builds each labeling from checked parts, skipping the id
    checks; the result is the labeling ``Labeling(...)`` builds."""
    bounds = SearchBounds(3, 2)
    candidates = set(_progressions(3, 2))
    report = verify_theorem(TheoremId.BALANCE_BIPARTITE_REV, "connected:4", bounds)
    assert len(report.counterexamples) > 100
    for ce in report.counterexamples:
        lab = ce.labeling
        assert tuple(v for v, _ in lab.items()) == ce.graph.vertices
        assert {s for _, s in lab.items()} <= candidates
        public = Labeling(3, {v: IntegerSet(s.elements) for v, s in lab.items()})
        assert type(lab) is Labeling and lab.universe_max == 3
        assert lab == public and hash(lab) == hash(public)
        assert lab.items() == public.items()
        assert format_labeling(lab) == format_labeling(public)
        for twin in (copy.copy(lab), pickle.loads(pickle.dumps(lab))):
            assert twin == lab and hash(twin) == hash(lab)
            assert twin.items() == lab.items()
        assert repr(lab) == repr(public)


def test_a_replayed_counterexample_holds_no_dict():
    """A held counterexample is slots and tuples: neither it nor its
    labeling has a ``__dict__``, the labeling holds no dict, and its ids
    are its graph's own vertex tuple."""
    report = verify_theorem(TheoremId.BALANCE_BIPARTITE_REV, "connected:4", SearchBounds(3, 2))
    assert report.counterexamples
    for ce in report.counterexamples:
        lab = ce.labeling
        assert not hasattr(ce, "__dict__") and not hasattr(lab, "__dict__")
        assert not any(isinstance(getattr(lab, name), dict) for name in Labeling.__slots__)
        assert lab._vertices is ce.graph.vertices


def test_a_walk_that_ignores_balanced_does_not_pass(monkeypatch):
    """The searches trust the balanced walk: if it yields unbalanced
    labelings too, replay fails or the report changes, never silently. FWD's
    findings are the labelings the balanced walk skips, so they would
    vanish."""
    import sumsign.search as search_module

    bounds = SearchBounds(2, 2)
    fwd = verify_theorem(TheoremId.BALANCE_BIPARTITE_FWD, "connected:4", bounds)
    assert fwd.counterexamples
    visit = search_module._visit
    monkeypatch.setattr(
        search_module, "_visit", lambda g, space, balanced=False, orbits=False: visit(g, space)
    )
    assert verify_theorem(TheoremId.BALANCE_BIPARTITE_FWD, "connected:4", bounds) != fwd
    for tid in (TheoremId.BALANCE_BIPARTITE_REV, TheoremId.HOMEOMORPHISM):
        with pytest.raises(AssertionError, match=f"{tid.value} finding failed to replay"):
            verify_theorem(tid, "connected:4", bounds)
    assert verify_theorem(TheoremId.SUBDIVISION, "connected:4", bounds).cases_checked != 2580
    monkeypatch.undo()
    assert verify_theorem(TheoremId.SUBDIVISION, "connected:4", bounds).cases_checked == 2580


@pytest.mark.parametrize("tid", list(TheoremId), ids=lambda tid: tid.value)
def test_explicit_graphs_over_the_vertex_bound_are_refused(tid):
    """A given graph over max_vertices is refused as its spec would be, also
    by the pair theorems, which never label it."""
    bounds = SearchBounds(2, 2, max_vertices=3)
    with pytest.raises(BoundExceeded, match="5 vertices, bound is 3"):
        verify_theorem(tid, "complete:5", bounds)
    with pytest.raises(BoundExceeded, match="3 vertices, graph has 5"):
        verify_theorem(tid, [path_graph(2), complete_graph(5)], bounds)


def test_pair_sum_memo_matches_sumset():
    """Each sumset has one id: its index in ``sets`` when it is a candidate
    set, else one past them, and no two sumsets share one."""
    space = _LabelingSpace(SearchBounds(8, 3))
    sumsets: dict = {}
    for i, row in enumerate(space.compat):
        for j in range(len(space.sets)):
            if not row >> j & 1:
                continue
            a, b = space.sets[i], space.sets[j]
            c = sumset(a, b)
            sid, delta = space.pair_sum(i, j)
            assert space.pair_sum(j, i) == (sid, delta)
            assert type(sid) is int and type(delta) is int
            if c in space.sets:
                assert sid == space.sets.index(c)
            else:
                assert sid >= len(space.sets)
            assert delta == (len(c) + len(sumset(a, c)) + len(sumset(c, b))) % 2
            assert sumsets.setdefault(sid, c) == c
    assert len(set(sumsets.values())) == len(sumsets)
    fresh = sorted(sid for sid in sumsets if sid >= len(space.sets))
    assert fresh == list(range(len(space.sets), len(space.sets) + len(fresh)))
    assert 0 < len(fresh) < len(sumsets)


def test_pair_sum_memo_is_filled_only_when_read():
    bounds = SearchBounds(8, 3)
    assert _LabelingSpace(bounds)._sums == {}
    _labeling_space.cache_clear()  # runs at one bounds share one space
    tally = _run(_EXPERIMENTS[TheoremId.BALANCE_BIPARTITE_REV], [cycle_graph(3)], bounds)
    assert tally.findings  # the run enumerated labelings
    assert tally.space._sums == {} and "_ids" not in vars(tally.space)
    tally = _run(_EXPERIMENTS[TheoremId.SUBDIVISION], [cycle_graph(3)], bounds)
    assert tally.space._sums


def test_runs_at_the_same_bounds_share_one_space():
    """Consecutive runs at the same bounds build their space once, and share
    its tables and its pair_sum memo; a run at other bounds replaces it, so
    a caller holds the last run's space alone."""
    rev = _EXPERIMENTS[TheoremId.BALANCE_BIPARTITE_REV]
    first = _run(rev, [cycle_graph(3)], SearchBounds(3, 2)).space
    subdivision = _EXPERIMENTS[TheoremId.SUBDIVISION]
    assert _run(subdivision, [cycle_graph(3)], SearchBounds(3, 2)).space is first
    assert _run(rev, [cycle_graph(3)], SearchBounds(2, 2)).space is not first
    assert _run(rev, [cycle_graph(3)], SearchBounds(3, 2)).space is not first


# ---------------------------------------------------------------------------
# Sign-pattern sweeps
# ---------------------------------------------------------------------------

class TestSweepSignPatterns:
    def test_tree_every_pattern_balanced(self):
        sweep = sweep_sign_patterns(path_graph(4))
        assert sweep.patterns_checked == 8
        assert len(sweep.balanced_patterns) == 8
        assert sweep.disagreements == ()

    def test_triangle_even_popcount_patterns(self):
        sweep = sweep_sign_patterns(cycle_graph(3))
        assert sweep.patterns_checked == 8
        assert set(sweep.balanced_patterns) == {
            p for p in range(8) if bin(p).count("1") % 2 == 0
        }
        assert sweep.disagreements == ()

    def test_k4_balanced_count_is_cut_space_size(self):
        sweep = sweep_sign_patterns(complete_graph(4))
        assert sweep.patterns_checked == 64
        assert len(sweep.balanced_patterns) == 8  # 2 ** (n - 1)
        assert sweep.disagreements == ()

    def test_sweep_agrees_with_scalar_checks(self):
        for g in connected_graphs(4):
            sweep = sweep_sign_patterns(g)
            balanced = set(sweep.balanced_patterns)
            for pattern in range(1 << g.m):
                sg = signed_graph_from_pattern(g, pattern, sweep.edge_order)
                assert is_balanced_oracle(sg)[0] == (pattern in balanced)
                assert is_balanced_fast(sg)[0] == (pattern in balanced)

    def test_more_than_32_edges_raises_before_allocating(self, monkeypatch):
        import sumsign.graphs as graphs_module

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep started work")

        # The sweep lists cycles through graphs.cycle_masks, whose cached
        # lister is patched here; the patch must be live for small graphs.
        monkeypatch.setattr(graphs_module, "_cycle_masks", refuse)
        with pytest.raises(AssertionError, match="started work"):
            sweep_sign_patterns(complete_graph(4))
        with pytest.raises(BoundExceeded, match="32 edges"):
            sweep_sign_patterns(complete_graph(9))  # 36 edges

    def test_plane_tables_are_built_once_per_width(self):
        import sumsign.verify as verify_module

        tables = verify_module._plane_tables
        tables.cache_clear()
        graphs = connected_graphs(7)
        for g in graphs:
            sweep_sign_patterns(g)
        k = verify_module._SWEEP_CHUNK.bit_length() - 1
        assert tables.cache_info().misses == len({min(g.m, k) for g in graphs})
        assert tables.cache_info().maxsize == verify_module._PLANE_TABLE_WIDTHS

    def test_small_chunks_give_the_same_sweep(self, monkeypatch):
        # With 8 patterns per chunk, every plane from bit 3 up is constant
        # within a chunk.
        import sumsign.verify as verify_module

        atlas_14 = next(g for g in connected_graphs(7) if g.m == 14)
        graphs = [cycle_graph(4), complete_graph(4), complete_bipartite_graph(3, 3),
                  atlas_14, cycle_graph(16), path_graph(22)]
        assert [g.m for g in graphs] == [4, 6, 9, 14, 16, 21]
        expected = [sweep_sign_patterns(g) for g in graphs]
        monkeypatch.setattr(verify_module, "_SWEEP_CHUNK", 8)
        assert [sweep_sign_patterns(g) for g in graphs] == expected

    # The grouped kernel against a recount of each pattern on each mask. The
    # fast side is run as is and without its last fundamental cycle, so
    # that the sweep must report real disagreements. Graphs up to 14 edges
    # are recounted on every pattern; the 19-edge graph on every balanced
    # pattern and a seeded sample. At 8 patterns per chunk, every graph has
    # high bits; at the default size, only the 19-edge graph does.
    @pytest.mark.parametrize("chunk", [None, 8], ids=["default", "8"])
    def test_sweep_equals_a_literal_recount(self, monkeypatch, chunk):
        import sumsign.verify as verify_module

        def even(masks, pattern):
            return all((mask & pattern).bit_count() % 2 == 0 for mask in masks)

        atlas_14 = next(g for g in connected_graphs(7) if g.m == 14)
        dense = next(g for g in connected_graphs(7) if g.m >= 19)
        if chunk is not None:
            monkeypatch.setattr(verify_module, "_SWEEP_CHUNK", chunk)
        cases = [(g, fundamental_cycle_masks(g)[:drop])
                 for g in (complete_graph(5), complete_bipartite_graph(3, 3), atlas_14)
                 for drop in (None, -1)]
        cases.append((dense, fundamental_cycle_masks(dense)))
        assert [(g.m, len(fast)) for g, fast in cases] == [
            (10, 6), (10, 5), (9, 4), (9, 3), (14, 9), (14, 8), (19, 13)]
        rng = random.Random(2025)
        for g, fast in cases:
            oracle = [mask for _, mask in cycle_masks(g, max_vertices=g.n)]
            monkeypatch.setattr(verify_module, "fundamental_cycle_masks", lambda _: fast)
            sweep = sweep_sign_patterns(g)
            balanced = set(sweep.balanced_patterns)
            disagreements = set(sweep.disagreements)
            if g.m <= 14:
                patterns = range(1 << g.m)
            else:
                patterns = sorted(balanced | disagreements
                                  | {rng.randrange(1 << g.m) for _ in range(2000)})
            for p in patterns:
                assert (p in balanced) == even(oracle, p), (g.edges, p)
                assert (p in disagreements) == (even(oracle, p) != even(fast, p)), (g.edges, p)
            if len(fast) < g.m - g.n + 1:
                assert disagreements

    def test_pattern_round_trip(self):
        g = cycle_graph(3)
        sg = signed_graph_from_pattern(g, 0b101)
        assert sg.signs[g.edges[0]] is Sign.NEGATIVE
        assert sg.signs[g.edges[1]] is Sign.POSITIVE
        assert sg.signs[g.edges[2]] is Sign.NEGATIVE

    def test_pattern_outside_range_is_refused(self):
        g = cycle_graph(3)
        for pattern in (8, -1):
            with pytest.raises(ParseError, match="outside"):
                signed_graph_from_pattern(g, pattern)
        sg = signed_graph_from_pattern(g, 7)
        assert all(sg.signs[e] is Sign.NEGATIVE for e in g.edges)

    # 2.0 used to end in a TypeError from the shift; True read as pattern 1.
    @pytest.mark.parametrize("pattern", [2.0, True], ids=["float", "bool"])
    def test_pattern_that_is_no_int_is_refused(self, pattern):
        with pytest.raises(ParseError, match="sign pattern must be an int"):
            signed_graph_from_pattern(cycle_graph(3), pattern)

