"""Graph structure queries: bipartiteness, bridges, cycles, triangles."""

import copy
import hashlib
import pickle
import re
import time
from itertools import combinations, permutations

import pytest

import sumsign.graphs as graphs_module
from sumsign.errors import BoundExceeded, ParseError, UnknownEdge, UnknownVertex
from sumsign.families import (
    complete_graph,
    connected_graphs,
    cycle_graph,
    path_graph,
    star_graph,
)
from sumsign.graphs import (
    Graph,
    automorphism_chain,
    automorphism_count,
    automorphisms,
    bipartition,
    connected_components,
    cut_edges,
    cycle_masks,
    edge_key,
    format_graph,
    fundamental_cycle_masks,
    in_triangle,
    is_bipartite,
    parse_graph,
    simple_cycles,
    spanning_forest,
    vertices_on_cycles,
)


def cycle_edges(cycle):
    """Edges traversed by a cyclic vertex sequence, in canonical form: the
    tests' own reference for ``cycle_masks``."""
    return tuple(
        edge_key(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
    )


def brute_cycles(g):
    """Independent oracle: Hamiltonian circles of every vertex subset.

    A simple cycle on vertex set S is a cyclic arrangement of all of S with
    every consecutive pair adjacent; arrangements are canonicalized by
    anchoring at min(S) and orienting toward the smaller neighbor.
    """
    found = set()
    for size in range(3, g.n + 1):
        for subset in combinations(g.vertices, size):
            anchor = subset[0]
            for rest in permutations(subset[1:]):
                if rest[0] > rest[-1]:
                    continue
                seq = (anchor,) + rest
                if all(
                    g.has_edge(seq[i], seq[(i + 1) % size]) for i in range(size)
                ):
                    found.add(seq)
    return sorted(found, key=lambda c: (len(c), c))


class TestGraphBasics:
    def test_construction_canonicalizes(self):
        g = Graph(["b", "a", "c"], [("c", "a"), ("a", "c"), ("b", "a")])
        assert g.vertices == ("a", "b", "c")
        assert g.edges == (("a", "b"), ("a", "c"))
        assert g.neighbors("a") == ("b", "c")
        assert g.degree("a") == 2 and g.degree("c") == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(["a"], [("a", "a")])

    def test_rejects_undeclared_endpoint(self):
        with pytest.raises(UnknownVertex):
            Graph(["a"], [("a", "b")])

    def test_unknown_vertex_query(self):
        g = path_graph(2)
        with pytest.raises(UnknownVertex):
            g.neighbors("nope")

    def test_edge_key(self):
        assert edge_key("v", "u") == ("u", "v") == edge_key("u", "v")

    def test_isolated_vertices_allowed(self):
        g = Graph(["a", "b", "c"], [("a", "b")])
        assert g.degree("c") == 0
        assert connected_components(g) == [("a", "b"), ("c",)]


class TestEdge:
    """Graph.edge is the one rule that resolves an edge named by its ends."""

    def test_a_pair_names_its_edge_in_either_order(self):
        triangle = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        for u, v in triangle.edges:
            assert triangle.edge(u, v) == triangle.edge(v, u) == (u, v)

    @pytest.mark.parametrize(
        "pair, key",
        [(("a", "c"), ("a", "c")), (("c", "a"), ("a", "c")), (("a", "z"), ("a", "z")),
         (("a", "a"), ("a", "a"))],
        ids=["non-edge", "non-edge-reversed", "unknown-vertex", "loop"],
    )
    def test_a_pair_that_is_no_edge_is_refused(self, pair, key):
        path = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert path.edge("b", "a") == ("a", "b")
        with pytest.raises(UnknownEdge) as exc:
            path.edge(*pair)
        assert str(exc.value) == f"edge {key} is not in the graph"


class TestGraphFormat:
    def test_round_trip(self):
        graphs = list(connected_graphs(7))
        assert len(graphs) == 996
        graphs += [Graph(["a", "b", "c", "lonely"], [("a", "b"), ("b", "c")]),
                   Graph(["u*v", "a:b", "é", "x#"], [("u*v", "a:b"), ("a:b", "é"), ("é", "x#")])]
        for g in graphs:
            assert parse_graph(format_graph(g)) == g

    def test_vertex_keyword_round_trips_or_is_refused(self):
        # "vertex vertex" declares an isolated vertex named vertex.
        g = Graph(["a", "vertex"], [])
        assert format_graph(g) == "vertex a\nvertex vertex\n"
        assert parse_graph(format_graph(g)) == g
        # As an edge endpoint it would be written back as "vertex w".
        for text in ("w vertex\n", "a b\nvertex w\nb vertex\n"):
            with pytest.raises(ParseError) as exc:
                parse_graph(text)
            assert exc.value.line == text.count("\n")

    def test_hash_vertex_id_is_refused(self):
        # format_graph would write the edge (#x, y) as "#x y", a comment line.
        for text in ("y #x\n", "a b\nvertex #x\n"):
            with pytest.raises(ParseError, match="may not begin with '#'") as exc:
                parse_graph(text)
            assert exc.value.line == text.count("\n")
        # Ordinary ids, a '#' inside one included, still round-trip.
        for g in (Graph(["a", "b", "x#"], [("a", "x#"), ("b", "x#")]),
                  Graph(["u-1", "v.2", "w_3", "lonely"], [("u-1", "v.2")])):
            assert parse_graph(format_graph(g)) == g

    @pytest.mark.parametrize(
        "vertices, edges, bad",
        [
            ([1, 2], [(1, 2)], 1),  # would be read back as the strings '1', '2'
            (["a b", "c"], [("a b", "c")], "a b"),
            (["a\tb"], [], "a\tb"),
            (["a\u00a0b"], [], "a\u00a0b"),
            ([""], [], ""),
            (["#x", "y"], [("#x", "y")], "#x"),
            ([1, "a"], [], 1),  # used to end in a TypeError from the sort
            (["a", "vertex"], [("a", "vertex")], "vertex"),
        ],
        ids=["ints", "space", "tab", "no-break-space", "empty", "hash", "mixed-types",
             "vertex-endpoint"],
    )
    def test_id_that_cannot_be_written_back_is_refused(self, vertices, edges, bad):
        with pytest.raises(ValueError, match=re.escape(f"vertex id {bad!r} ")):
            Graph(vertices, edges)

    def test_str_as_the_vertex_list_is_refused(self):
        # Read as its characters, 'v0' used to give the vertices '0' and 'v'.
        with pytest.raises(ValueError, match="not a str"):
            Graph("v0")
        with pytest.raises(ValueError, match="not a str"):
            Graph.from_edges([("a", "b")], isolated="v0")

    def test_comments_and_blanks(self):
        g = parse_graph("# a comment\n\na b\nvertex z\n")
        assert g.vertices == ("a", "b", "z")
        assert g.edges == (("a", "b"),)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("a b\na b c d\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError):
            parse_graph("a a\n")


class TestBipartite:
    def test_single_edge(self):
        g = Graph(["u", "v"], [("u", "v")])
        assert is_bipartite(g)
        assert bipartition(g) == (("u",), ("v",))

    def test_triangle(self):
        assert not is_bipartite(cycle_graph(3))
        assert bipartition(cycle_graph(3)) is None

    def test_even_cycle(self):
        g = cycle_graph(4)
        parts = bipartition(g)
        assert parts is not None
        part_of = {v: i for i, part in enumerate(parts) for v in part}
        assert all(part_of[u] != part_of[v] for u, v in g.edges)

    def test_odd_even_cycles(self):
        for n in range(3, 10):
            assert is_bipartite(cycle_graph(n)) == (n % 2 == 0)


class TestCutEdges:
    def test_path_all_bridges(self):
        g = path_graph(3)
        assert cut_edges(g) == g.edges

    def test_triangle_none(self):
        assert cut_edges(cycle_graph(3)) == ()

    def test_triangle_with_pendant(self):
        g = Graph(["u", "v", "w", "x"], [("u", "v"), ("v", "w"), ("u", "w"), ("u", "x")])
        assert cut_edges(g) == (("u", "x"),)


class TestSimpleCycles:
    def test_tree_acyclic(self):
        assert simple_cycles(star_graph(5)) == []

    def test_c5_single_cycle(self):
        cycles = simple_cycles(cycle_graph(5))
        assert len(cycles) == 1
        assert len(cycles[0]) == 5

    def test_k4_seven_cycles(self):
        cycles = simple_cycles(complete_graph(4))
        assert len(cycles) == 7
        assert sorted(len(c) for c in cycles) == [3, 3, 3, 3, 4, 4, 4]
        assert cycles == brute_cycles(complete_graph(4))

    def test_bound_enforced(self):
        with pytest.raises(BoundExceeded):
            simple_cycles(path_graph(13))
        assert simple_cycles(path_graph(13), max_vertices=13) == []

    # True and 2.5 used to be written into the BoundExceeded text, and 3.5
    # to pass as a bound.
    @pytest.mark.parametrize("bound", [True, 2.5, 3.5], ids=["bool", "float-under", "float-over"])
    def test_bound_must_be_an_int(self, bound):
        for listing in (simple_cycles, cycle_masks):
            with pytest.raises(ParseError) as exc:
                listing(cycle_graph(3), bound)
            assert str(exc.value) == f"cycle bound must be an int, not {bound!r}"

    def test_long_path_and_long_cycle_need_no_recursion(self):
        names = [f"v{i:05d}" for i in range(5000)]
        path = Graph(names, list(zip(names, names[1:])))
        assert simple_cycles(path, max_vertices=6000) == []
        # Every vertex of a cycle anchors a search, and the first one walks
        # the whole ring, deeper than the default recursion limit.
        ring = names[:1500]
        g = Graph(ring, list(zip(ring, ring[1:])) + [(ring[-1], ring[0])])
        assert simple_cycles(g, max_vertices=1500) == [tuple(ring)]

    def test_a_long_ring_is_listed_in_linear_time(self):
        # Once the first search has listed the ring, the rest of it peels
        # away, so no other vertex starts a walk round it.
        ring = [f"v{i:05d}" for i in range(10_000)]
        g = Graph(ring, list(zip(ring, ring[1:])) + [(ring[-1], ring[0])])
        start = time.perf_counter()
        assert simple_cycles(g, max_vertices=10_000) == [tuple(ring)]
        assert time.perf_counter() - start < 5.0

    def test_cycle_edges(self):
        assert cycle_edges(("a", "b", "c")) == (("a", "b"), ("b", "c"), ("a", "c"))

    def test_matches_oracle_on_small_connected_graphs(self):
        for g in connected_graphs(6):
            assert simple_cycles(g) == brute_cycles(g)


class TestCycleMasks:
    def test_masks_follow_simple_cycles(self):
        for g in connected_graphs(6):
            index = {e: i for i, e in enumerate(g.edges)}
            expected = tuple(
                (c, sum(1 << index[e] for e in cycle_edges(c))) for c in simple_cycles(g)
            )
            assert cycle_masks(g) == expected

    def test_connected_7_listing_is_pinned(self):
        # The brute-force comparison stops at connected:6; on 7 vertices the
        # listing, masks and order are pinned by count and sha256.
        digest = hashlib.sha256()
        count = 0
        for g in connected_graphs(7):
            listing = cycle_masks(g)
            count += len(listing)
            digest.update(repr(listing).encode() + b"\n")
        assert count == 39_512
        assert digest.hexdigest() == (
            "b3b1562b7e01fc61c4312b3a82898c5c1694be7eb405e1b12f1d5c2b59b4fce9"
        )

    def test_memo_holds_a_bounded_number_of_graphs(self):
        from sumsign.verify import sweep_sign_patterns

        memo = graphs_module._cycle_masks
        assert memo.cache_info().maxsize == graphs_module._CYCLE_MEMO_GRAPHS
        for g in connected_graphs(7):
            sweep_sign_patterns(g)
        assert 0 < memo.cache_info().currsize <= graphs_module._CYCLE_MEMO_GRAPHS


class TestInTriangle:
    def test_star_center(self):
        assert not in_triangle(star_graph(5), "c0")

    def test_k3_vertex(self):
        assert in_triangle(cycle_graph(3), "v0")

    def test_c4_vertex(self):
        assert not in_triangle(cycle_graph(4), "v1")

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            in_triangle(cycle_graph(3), "zz")


class TestStructuralInvariants:
    def test_bridges_are_exactly_cycle_free_edges(self):
        # Exhaustive over every connected graph on up to 7 vertices.
        for g in connected_graphs(7):
            on_cycle = set()
            for cycle in simple_cycles(g):
                on_cycle.update(cycle_edges(cycle))
            assert set(cut_edges(g)) == set(g.edges) - on_cycle

    def test_on_cycle_vertices_and_fundamental_cycles_match_cycle_listing(self):
        for g in connected_graphs(7):
            cycles = simple_cycles(g)
            assert vertices_on_cycles(g) == {v for c in cycles for v in c}
            index = {e: i for i, e in enumerate(g.edges)}
            cycle_masks = {
                sum(1 << index[e] for e in cycle_edges(c)) for c in cycles
            }
            masks = fundamental_cycle_masks(g)
            assert len(masks) == g.m - g.n + 1
            assert all(mask in cycle_masks for mask in masks)

    def test_bipartite_iff_no_odd_cycle(self):
        for g in connected_graphs(7):
            has_odd = any(len(c) % 2 == 1 for c in simple_cycles(g))
            assert is_bipartite(g) == (not has_odd)

    def test_vertices_on_cycles(self):
        g = Graph(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
        )
        assert vertices_on_cycles(g) == {"a", "b", "c"}


def test_vendored_atlas_equals_networkx_atlas():
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    expected = [
        Graph([f"v{i}" for i in h.nodes()], [(f"v{u}", f"v{v}") for u, v in h.edges()])
        for h in graph_atlas_g()
        if 1 <= h.number_of_nodes() <= 7 and nx.is_connected(h)
    ]
    assert len(expected) == 996
    for n in range(1, 8):
        assert list(connected_graphs(n)) == [g for g in expected if g.n <= n]


class TestMemo:
    """Each Graph memoizes its forest, bipartition, masks and text, read-only."""

    @staticmethod
    def memoized(g):
        return (
            graphs_module.spanning_forest(g),
            bipartition(g),
            fundamental_cycle_masks(g),
            format_graph(g),
        )

    @staticmethod
    def fresh(g):
        return Graph(g.vertices, g.edges)

    @pytest.mark.parametrize("g", [cycle_graph(4), complete_graph(4), path_graph(3)])
    def test_values_are_immutable_and_unchanged_by_attempts(self, g):
        (order, parent), parts, masks, _ = self.memoized(g)
        attempts = [
            lambda: order.append("x"),
            lambda: parent.__setitem__("x", None),
            lambda: parent.pop(g.vertices[0]),
            lambda: masks.append(0),
            lambda: masks.__setitem__(0, 0),
        ]
        if parts is not None:
            attempts.append(lambda: parts[0].append("x"))
        for attempt in attempts:
            with pytest.raises((AttributeError, TypeError)):
                attempt()
        assert self.memoized(g) == self.memoized(self.fresh(g))
        first = self.memoized(g)
        assert all(a is b for a, b in zip(first, self.memoized(g)))

    def test_forest_from_given_roots_is_read_only_and_not_memoized(self):
        g = path_graph(4)
        order, parent = graphs_module.spanning_forest(g, ["v3"])
        assert order == ("v3", "v2", "v1", "v0")
        with pytest.raises(TypeError):
            parent["v3"] = "v2"
        assert graphs_module.spanning_forest(g)[0] == ("v0", "v1", "v2", "v3")

    def test_queries_match_a_fresh_graph(self):
        for g in connected_graphs(6):
            self.memoized(g)
            assert cut_edges(g) == cut_edges(self.fresh(g))
            assert vertices_on_cycles(g) == vertices_on_cycles(self.fresh(g))
            assert self.memoized(g) == self.memoized(self.fresh(g))

    def test_filled_and_unfilled_graphs_stay_equal_and_share_the_cycle_cache(self):
        filled, unfilled = complete_graph(5), complete_graph(5)
        self.memoized(filled)
        assert filled._memo and not unfilled._memo
        assert filled == unfilled and hash(filled) == hash(unfilled)
        assert len({filled, unfilled}) == 1
        graphs_module._cycle_masks.cache_clear()
        cycle_masks(unfilled)
        cycle_masks(filled)
        info = graphs_module._cycle_masks.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_bridges_and_cycle_vertices_are_memoized_apart(self):
        # A triangle with a pendant edge, read in both orders.
        edges = [("u", "v"), ("v", "w"), ("u", "w"), ("u", "x")]
        for reads in ((cut_edges, vertices_on_cycles), (vertices_on_cycles, cut_edges)):
            g = Graph(["u", "v", "w", "x"], edges)
            first = [read(g) for read in reads]
            assert all(read(g) is value for read, value in zip(reads, first))
            assert cut_edges(g) == (("u", "x"),)
            assert vertices_on_cycles(g) == frozenset({"u", "v", "w"})

    def test_construction_fills_nothing(self):
        assert Graph(["a", "b"], [("a", "b")])._memo == {}

    def test_each_query_keeps_its_own_entry(self):
        # A triangle with a pendant edge: every query has a value to keep.
        edges = [("u", "v"), ("v", "w"), ("u", "w"), ("u", "x")]
        g = Graph(["u", "v", "w", "x"], edges)
        queries = [
            format_graph, graphs_module._forest, fundamental_cycle_masks,
            graphs_module._steps, bipartition, cut_edges, vertices_on_cycles,
            automorphism_chain,
        ]
        values = [query(g) for query in queries]
        assert len(g._memo) == len(queries)
        for query, value in zip(queries, values):
            assert g._memo[query.__wrapped__] is value is query(g)
            assert value == query(self.fresh(g))


class TestCopies:
    @pytest.mark.parametrize(
        "copy_of",
        [
            lambda g: pickle.loads(pickle.dumps(g)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trip_rebuilds_with_an_empty_memo(self, copy_of):
        g = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c")])
        format_graph(g)
        bipartition(g)
        twin = copy_of(g)
        assert twin == g and hash(twin) == hash(g)
        assert twin.vertices == g.vertices and twin.edges == g.edges
        assert twin._memo == {}
        assert format_graph(twin) == format_graph(g)
        assert cut_edges(twin) == cut_edges(g) == ()
        with pytest.raises(AttributeError):
            twin.edges = ()


class TestAutomorphisms:
    def test_the_chain_equals_an_n_factorial_brute_force(self):
        """On every member of connected:6 (connected:5's among them), the
        group's size, its listing and each level's orbit and transversal
        equal those of the n! vertex maps that keep the edges."""
        for g in connected_graphs(6):
            pos = {v: i for i, v in enumerate(g.vertices)}
            edges = set(g.edges)
            brute = [
                s for s in permutations(range(g.n))
                if all(edge_key(g.vertices[s[pos[u]]], g.vertices[s[pos[v]]]) in edges for u, v in g.edges)
            ]
            assert automorphism_count(g) == len(brute)
            listed = automorphisms(g)
            assert len(listed) == len(set(listed)) and set(listed) == set(brute)
            chain = automorphism_chain(g)
            base = [w for w, _ in chain]
            assert base == [pos[v] for v in spanning_forest(g)[0]]
            for k, (w, transversal) in enumerate(chain):
                fixing = [s for s in brute if all(s[b] == b for b in base[:k])]
                assert [x for x, _ in transversal] == sorted({s[w] for s in fixing})
                for x, s in transversal:
                    assert s in fixing and s[w] == x
