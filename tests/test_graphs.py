"""Graph structure queries: bipartiteness, bridges, cycles, triangles."""

from itertools import combinations, permutations

import pytest

from sumsign.errors import BoundExceeded, ParseError, UnknownVertex
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
    cut_edges,
    cycle_edges,
    edge_key,
    format_graph,
    fundamental_cycle_masks,
    in_triangle,
    is_bipartite,
    is_connected,
    parse_graph,
    simple_cycles,
    vertices_on_cycles,
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
        assert not is_connected(g)


class TestGraphFormat:
    def test_round_trip(self):
        g = Graph(["a", "b", "c", "lonely"], [("a", "b"), ("b", "c")])
        assert parse_graph(format_graph(g)) == g

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

    def test_cycle_edges(self):
        assert cycle_edges(("a", "b", "c")) == (("a", "b"), ("b", "c"), ("a", "c"))

    def test_matches_oracle_on_small_connected_graphs(self):
        for g in connected_graphs(6):
            assert simple_cycles(g) == brute_cycles(g)


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
