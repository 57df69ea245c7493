"""Balance and clusterability checks, and the equivalence of the two routes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumsign.graphs as graphs_module
from sumsign.balance import (
    CycleSignSummary,
    SignedGraph,
    is_balanced_fast,
    is_balanced_oracle,
    is_clusterable,
    negative_edges,
)
from sumsign.errors import BoundExceeded, ParseError, UnknownEdge
from sumsign.families import (
    complete_graph,
    connected_graphs,
    cycle_graph,
    path_graph,
    star_graph,
)
from sumsign.graphs import (
    Graph,
    bipartition,
    connected_components,
    cycle_masks,
    edge_key,
    simple_cycles,
    spanning_forest,
)
from sumsign.intsets import IntegerSet, Sign
from sumsign.labeling import Labeling, derive
from sumsign.verify import signed_graph_from_pattern, sweep_sign_patterns


def cycle_edges(cycle):
    """Edges traversed by a cyclic vertex sequence, in canonical form: the
    tests' own reference for a cycle's edges."""
    return tuple(
        edge_key(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    )


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

    def test_sign_that_is_not_a_sign_rejected(self):
        # "-" is Sign.NEGATIVE's value, not the sign; read as positive, the
        # all-negative triangle would pass every check as balanced.
        g = cycle_graph(3)
        with pytest.raises(ValueError, match=r"edge \('v0', 'v1'\) has sign '-'"):
            SignedGraph(graph=g, signs={e: "-" for e in g.edges})
        signs = {e: Sign.NEGATIVE for e in g.edges}
        signs[("v1", "v2")] = -1
        with pytest.raises(ValueError, match=r"edge \('v1', 'v2'\) has sign -1"):
            SignedGraph(graph=g, signs=signs)

    def test_a_sign_of_none_is_no_missing_sign(self):
        g = cycle_graph(3)
        signs = {e: Sign.POSITIVE for e in g.edges}
        signs[("v0", "v2")] = None
        with pytest.raises(ValueError, match=r"edge \('v0', 'v2'\) has sign None"):
            SignedGraph(graph=g, signs=signs)

    def test_the_first_fault_in_edge_order_is_reported(self):
        g = cycle_graph(3)
        assert g.edges == (("v0", "v1"), ("v0", "v2"), ("v1", "v2"))
        missing_first = {("v0", "v2"): -1, ("v1", "v2"): Sign.NEGATIVE}
        with pytest.raises(UnknownEdge, match=r"edge \('v0', 'v1'\) has no sign"):
            SignedGraph(graph=g, signs=missing_first)
        bad_first = {("v0", "v1"): 1, ("v0", "v2"): Sign.NEGATIVE}
        with pytest.raises(ValueError, match=r"edge \('v0', 'v1'\) has sign 1"):
            SignedGraph(graph=g, signs=bad_first)
        # Every edge fine but one extra: the extra is reported last.
        extra = {e: Sign.NEGATIVE for e in g.edges} | {("v0", "v3"): 1}
        with pytest.raises(UnknownEdge, match="non-edges"):
            SignedGraph(graph=g, signs=extra)

    def test_caller_dict_changed_later_changes_nothing(self):
        g = cycle_graph(3)
        signs = {e: Sign.NEGATIVE for e in g.edges}
        sg = SignedGraph(graph=g, signs=signs)
        verdicts = (is_balanced_fast(sg), is_balanced_oracle(sg), is_clusterable(sg))
        assert verdicts[0] == (False, None)
        for e in g.edges:
            signs[e] = "-"
        assert (is_balanced_fast(sg), is_balanced_oracle(sg), is_clusterable(sg)) == verdicts
        with pytest.raises(TypeError):
            sg.signs[g.edges[0]] = Sign.POSITIVE


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
        for summary in is_balanced_oracle(sg)[1]:
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
            assert is_balanced_oracle(sg)[1] == literal(sg)


def _set_and_dict_partition(g, negative):
    """A literal copy of the earlier sign partition: a side per vertex in a
    dict, folded over the spanning forest, with the negative edges in a set."""
    neg = set(negative)
    order, parent = spanning_forest(g)
    side = {}
    for v in order:
        p = parent[v]
        side[v] = 0 if p is None else side[p] ^ ((p, v) in neg or (v, p) in neg)
    for u, v in g.edges:
        if side[u] ^ side[v] != ((u, v) in neg):
            return None
    return (
        tuple(v for v in g.vertices if not side[v]),
        tuple(v for v in g.vertices if side[v]),
    )


class TestSignPartition:
    """is_balanced_fast's witness is Harary's criterion; bipartition is its all-negative case."""

    def test_every_pattern_up_to_5_vertices_matches_the_cycle_definition(self):
        checked = 0
        for g in connected_graphs(5):
            for pattern in range(1 << g.m):
                sg = signed_graph_from_pattern(g, pattern)
                negatives = set(negative_edges(sg))
                balanced, parts = is_balanced_fast(sg)
                assert (parts is None) == (not is_balanced_oracle(sg)[0]) == (not balanced)
                checked += 1
                if parts is None:
                    continue
                part0, part1 = parts
                assert sorted(part0 + part1) == list(g.vertices)
                assert g.vertices[0] in part0
                assert list(part0) == sorted(part0) and list(part1) == sorted(part1)
                side = {v: v in part1 for v in g.vertices}
                for u, v in g.edges:
                    assert (side[u] != side[v]) == ((u, v) in negatives)
        assert checked == 3247

    def test_bipartition_is_the_all_negative_witness(self):
        for g in connected_graphs(7):
            all_negative = SignedGraph(g, {e: Sign.NEGATIVE for e in g.edges})
            balanced, witness = is_balanced_fast(all_negative)
            assert bipartition(g) == witness
            assert (witness is not None) == balanced

    @pytest.mark.parametrize(
        "g",
        [
            # A triangle, a path, a 4-cycle and two isolated vertices.
            Graph(["a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k"],
                  [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"),
                   ("g", "h"), ("h", "i"), ("i", "j"), ("g", "j")]),
            # K4 beside a paw whose ids interleave with it, and an isolated vertex.
            Graph(["a", "b", "c", "d", "e", "f", "g", "h", "i"],
                  [("a", "c"), ("a", "e"), ("a", "g"), ("c", "e"), ("c", "g"), ("e", "g"),
                   ("b", "d"), ("d", "f"), ("b", "f"), ("f", "h")]),
            # Isolated vertices only, and one edge among them.
            Graph(["x", "y", "z"]),
            Graph(["x", "y", "z"], [("x", "z")]),
        ],
        ids=["triangle-path-c4-isolated", "k4-paw-interleaved", "isolated", "edge-and-isolated"],
    )
    def test_the_fold_equals_the_set_and_dict_fold(self, g):
        """On every pattern of a graph with several components, the witness
        is the one a literal side fold over a set of negative edges gives,
        and each component's smallest vertex is on side 0."""
        smallest = [comp[0] for comp in connected_components(g)]
        for pattern in range(1 << g.m):
            sg = signed_graph_from_pattern(g, pattern)
            negatives = negative_edges(sg)
            balanced, parts = is_balanced_fast(sg)
            assert parts == _set_and_dict_partition(g, negatives), pattern
            assert balanced == (parts is not None)
            if parts is not None:
                assert not set(smallest) & set(parts[1])


class TestCycleSignSummaryRecord:
    def test_record_keeps_its_fields_repr_equality_and_immutability(self):
        summary = CycleSignSummary(("v0", "v1", "v2"), 1, Sign.NEGATIVE)
        assert CycleSignSummary._fields == ("cycle", "negative_edge_count", "sign_product")
        assert repr(summary) == (
            "CycleSignSummary(cycle=('v0', 'v1', 'v2'), negative_edge_count=1, "
            "sign_product=<Sign.NEGATIVE: '-'>)"
        )
        same = CycleSignSummary(cycle=("v0", "v1", "v2"), negative_edge_count=1,
                                sign_product=Sign.NEGATIVE)
        other = CycleSignSummary(("v0", "v1", "v2"), 2, Sign.POSITIVE)
        assert summary == same and hash(summary) == hash(same)
        assert summary != other
        assert len({summary, same, other}) == 2
        for name in CycleSignSummary._fields:
            with pytest.raises(AttributeError):
                setattr(summary, name, None)


class TestSharedCycleListing:
    """The oracle and the sweep share graphs.cycle_masks' per-graph listing."""

    def test_bound_checked_on_every_call(self):
        g = path_graph(13)
        assert is_balanced_oracle(signed(g), cycle_bound=13)[0]
        with pytest.raises(BoundExceeded, match="limited to 12 vertices, graph has 13"):
            is_balanced_oracle(signed(g))
        with pytest.raises(BoundExceeded, match="limited to 12 vertices, graph has 13"):
            cycle_masks(g)

    # True used to be written into the BoundExceeded text as the bound.
    @pytest.mark.parametrize("bound", [True, 12.0], ids=["bool", "float"])
    def test_oracle_bound_must_be_an_int(self, bound):
        with pytest.raises(ParseError, match=f"^cycle bound must be an int, not {bound!r}$"):
            is_balanced_oracle(signed(cycle_graph(3)), cycle_bound=bound)

    def test_sweep_and_oracle_list_cycles_once(self):
        # The sweep fills the memo; the eight oracle calls and simple_cycles
        # read it.
        memo = graphs_module._cycle_masks
        memo.cache_clear()
        g = complete_graph(5)
        sweep = sweep_sign_patterns(g)
        balanced = set(sweep.balanced_patterns)
        for pattern in random.Random(5).sample(range(1 << g.m), 8):
            sg = signed_graph_from_pattern(g, pattern, sweep.edge_order)
            assert is_balanced_oracle(sg)[0] == (pattern in balanced)
        assert len(simple_cycles(g)) == 37
        info = memo.cache_info()
        assert (info.misses, info.hits) == (1, 9)

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
