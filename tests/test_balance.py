"""Balance and clusterability checks, and the equivalence of the two routes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumsign.graphs as graphs_module
from sumsign.balance import (
    CycleSignSummary,
    SignedGraph,
    cycle_sign_summaries,
    is_balanced_fast,
    is_balanced_oracle,
    is_clusterable,
    negative_edges,
)
from sumsign.errors import BoundExceeded, UnknownEdge
from sumsign.families import (
    complete_graph,
    connected_graphs,
    cycle_graph,
    path_graph,
    star_graph,
)
from sumsign.graphs import Graph, cycle_edges, cycle_masks, edge_key, simple_cycles
from sumsign.intsets import IntegerSet, Sign
from sumsign.labeling import Labeling, derive
from sumsign.verify import signed_graph_from_pattern, sweep_sign_patterns


def signed(graph, negatives=()):
    neg = {edge_key(*e) for e in negatives}
    signs = {
        e: Sign.NEGATIVE if e in neg else Sign.POSITIVE for e in graph.edges
    }
    return SignedGraph(graph=graph, signs=signs)


class TestBalanceExamples:
    def test_tree_vacuously_balanced(self):
        sg = signed(star_graph(5), negatives=[("c0", "v1"), ("c0", "v2")])
        assert is_balanced_oracle(sg) == (True, [])
        balanced, partition = is_balanced_fast(sg)
        assert balanced and partition is not None

    def test_triangle_one_negative(self):
        sg = signed(cycle_graph(3), negatives=[("v0", "v1")])
        balanced, summaries = is_balanced_oracle(sg)
        assert not balanced
        assert summaries[0].negative_edge_count == 1
        assert summaries[0].sign_product is Sign.NEGATIVE
        assert is_balanced_fast(sg) == (False, None)

    def test_c4_two_negatives(self):
        sg = signed(cycle_graph(4), negatives=[("v0", "v1"), ("v2", "v3")])
        balanced, summaries = is_balanced_oracle(sg)
        assert balanced
        assert summaries[0].negative_edge_count == 2
        assert is_balanced_fast(sg)[0]

    def test_all_positive_partition(self):
        sg = signed(cycle_graph(4))
        balanced, partition = is_balanced_fast(sg)
        assert balanced
        assert partition == (("v0", "v1", "v2", "v3"), ())

    def test_single_negative_edge_partition(self):
        g = Graph(["u", "v"], [("u", "v")])
        sg = signed(g, negatives=[("u", "v")])
        assert is_balanced_fast(sg) == (True, (("u",), ("v",)))

    def test_partition_separates_signs(self):
        sg = signed(cycle_graph(6), negatives=[("v0", "v1"), ("v3", "v4")])
        balanced, partition = is_balanced_fast(sg)
        assert balanced and partition is not None
        side = {v: i for i, part in enumerate(partition) for v in part}
        for e in sg.graph.edges:
            crossing = side[e[0]] != side[e[1]]
            assert crossing == (sg.signs[e] is Sign.NEGATIVE)

    def test_oracle_bound(self):
        sg = signed(path_graph(13))
        with pytest.raises(BoundExceeded):
            is_balanced_oracle(sg)
        assert is_balanced_oracle(sg, cycle_bound=13)[0]

    def test_derived_graph_accepted_directly(self):
        g = cycle_graph(3)
        slg = derive(
            g,
            Labeling(8, {"v0": IntegerSet([0, 1]), "v1": IntegerSet([0, 2]),
                         "v2": IntegerSet([0, 2, 4])}),
        )
        assert is_balanced_oracle(slg)[0]
        assert is_balanced_fast(slg)[0]
        assert negative_edges(slg) == ()


class TestSignedGraphValidation:
    def test_missing_sign_rejected(self):
        g = cycle_graph(3)
        with pytest.raises(UnknownEdge):
            SignedGraph(graph=g, signs={g.edges[0]: Sign.POSITIVE})

    def test_extra_sign_rejected(self):
        g = path_graph(2)
        with pytest.raises(UnknownEdge):
            SignedGraph(
                graph=g,
                signs={g.edges[0]: Sign.POSITIVE, ("x", "y"): Sign.NEGATIVE},
            )


class TestClusterability:
    def test_all_negative_triangle(self):
        result = is_clusterable(signed(cycle_graph(3), negatives=cycle_graph(3).edges))
        assert result.clusterable
        assert result.clusters == (("v0",), ("v1",), ("v2",))

    def test_triangle_one_negative(self):
        result = is_clusterable(signed(cycle_graph(3), negatives=[("v0", "v1")]))
        assert not result.clusterable
        cycle = result.violating_cycle
        assert cycle is not None
        negs = sum(
            1
            for e in cycle_edges(cycle)
            if e in {("v0", "v1")}
        )
        assert negs == 1 and len(cycle) == 3

    def test_two_positive_triangles_negative_bridge(self):
        g = Graph(
            ["a", "b", "c", "d", "e", "f"],
            [("a", "b"), ("b", "c"), ("a", "c"),
             ("d", "e"), ("e", "f"), ("d", "f"), ("c", "d")],
        )
        result = is_clusterable(signed(g, negatives=[("c", "d")]))
        assert result.clusterable
        assert result.clusters == (("a", "b", "c"), ("d", "e", "f"))

    def test_witness_cycle_has_exactly_one_negative(self):
        g = cycle_graph(5)
        sg = signed(g, negatives=[("v0", "v1")])
        result = is_clusterable(sg)
        assert not result.clusterable
        assert result.violating_cycle is not None
        negs = sum(
            1 for e in cycle_edges(result.violating_cycle)
            if sg.signs[e] is Sign.NEGATIVE
        )
        assert negs == 1

    def test_every_pattern_up_to_6_vertices_matches_the_cycle_definition(self):
        # Clusterable iff no cycle has exactly one negative edge (Davis 1967),
        # checked on every sign pattern of every connected graph on <= 6
        # vertices. A pattern is the negative edge mask: bit i is g.edges[i],
        # as in cycle_masks. Each witness must be a listed cycle of g.
        patterns = clusterable = 0
        for g in connected_graphs(6):
            index = {e: i for i, e in enumerate(g.edges)}
            masks = [mask for _, mask in cycle_masks(g, max_vertices=g.n)]
            listed = set(masks)
            for pattern in range(1 << g.m):
                result = is_clusterable(signed_graph_from_pattern(g, pattern))
                by_cycles = all((mask & pattern).bit_count() != 1 for mask in masks)
                assert result.clusterable == by_cycles, (g.edges, pattern)
                patterns += 1
                clusterable += by_cycles
                if by_cycles:
                    continue
                cycle = result.violating_cycle
                mask = sum(1 << index[e] for e in cycle_edges(cycle))
                assert len(set(cycle)) == len(cycle) == mask.bit_count()
                assert mask in listed and (mask & pattern).bit_count() == 1
        assert (patterns, clusterable) == (141_359, 10_446)


class TestEquivalenceSmall:
    def test_fast_equals_oracle_and_balance_implies_clusterable(self):
        # Scalar exhaustive check over every connected graph on <= 5
        # vertices and every sign pattern.
        for g in connected_graphs(5):
            for pattern in range(1 << g.m):
                sg = signed_graph_from_pattern(g, pattern)
                oracle, _ = is_balanced_oracle(sg)
                fast, partition = is_balanced_fast(sg)
                assert oracle == fast
                if oracle:
                    assert partition is not None
                    assert is_clusterable(sg).clusterable

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fast_equals_oracle_random_larger(self, data):
        graphs = [g for g in connected_graphs(6) if g.n == 6]
        g = data.draw(st.sampled_from(graphs))
        pattern = data.draw(st.integers(0, (1 << g.m) - 1))
        sg = signed_graph_from_pattern(g, pattern)
        assert is_balanced_oracle(sg)[0] == is_balanced_fast(sg)[0]


class TestCycleSummaries:
    def test_summary_invariant(self):
        sg = signed(cycle_graph(4), negatives=[("v0", "v1")])
        for summary in cycle_sign_summaries(sg):
            assert (summary.sign_product is Sign.POSITIVE) == (
                summary.negative_edge_count % 2 == 0
            )

    def test_summaries_equal_a_literal_recount(self):
        # Every pattern of every graph on <= 4 vertices, then a seeded sample
        # of patterns on every graph on <= 6 vertices; whole lists compared.
        def literal(sg):
            out = []
            for cycle in simple_cycles(sg.graph):
                neg = sum(1 for e in cycle_edges(cycle) if sg.signs[e] is Sign.NEGATIVE)
                product = Sign.POSITIVE if neg % 2 == 0 else Sign.NEGATIVE
                out.append(CycleSignSummary(cycle, neg, product))
            return out

        cases = [(g, p) for g in connected_graphs(4) for p in range(1 << g.m)]
        rng = random.Random(6)
        for g in connected_graphs(6):
            cases += [(g, rng.randrange(1 << g.m)) for _ in range(12)]
        for g, pattern in cases:
            sg = signed_graph_from_pattern(g, pattern)
            assert cycle_sign_summaries(sg) == literal(sg)


class TestSharedCycleListing:
    """The oracle and the sweep share graphs.cycle_masks' per-graph listing."""

    def test_bound_checked_on_every_call(self):
        g = path_graph(13)
        assert is_balanced_oracle(signed(g), cycle_bound=13)[0]
        with pytest.raises(BoundExceeded, match="limited to 12 vertices, graph has 13"):
            is_balanced_oracle(signed(g))
        with pytest.raises(BoundExceeded, match="limited to 12 vertices, graph has 13"):
            cycle_masks(g)

    def test_sweep_and_oracle_list_cycles_once(self, monkeypatch):
        calls = []
        listing = graphs_module.simple_cycles

        def counted(*args, **kwargs):
            calls.append(args[0])
            return listing(*args, **kwargs)

        monkeypatch.setattr(graphs_module, "simple_cycles", counted)
        graphs_module._cycle_masks.cache_clear()
        g = complete_graph(5)
        sweep = sweep_sign_patterns(g)
        balanced = set(sweep.balanced_patterns)
        for pattern in random.Random(5).sample(range(1 << g.m), 8):
            sg = signed_graph_from_pattern(g, pattern, sweep.edge_order)
            assert is_balanced_oracle(sg)[0] == (pattern in balanced)
        assert calls == [g]

    def test_listing_handed_out_is_not_the_memo(self):
        g = cycle_graph(4)
        sg = signed(g, negatives=[("v0", "v1")])
        before = is_balanced_oracle(sg)
        cycles = simple_cycles(g)
        cycles.clear()
        cycles.append(("v0", "v1", "v2"))
        assert simple_cycles(g) == [("v0", "v1", "v2", "v3")]
        assert is_balanced_oracle(sg) == before == (False, [
            CycleSignSummary(("v0", "v1", "v2", "v3"), 1, Sign.NEGATIVE)
        ])
