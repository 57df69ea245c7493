"""Labeled-graph transforms and their induced labelings."""

import pytest

from sumsign import transforms
from sumsign.balance import is_balanced_fast, is_balanced_oracle
from sumsign.errors import (
    DegreeNotTwo,
    InjectivityCollision,
    UnknownEdge,
    UnknownVertex,
    VertexInTriangle,
)
from sumsign.families import connected_graphs, cycle_graph, path_graph, complete_graph
from sumsign.graphs import Graph, cut_edges, edge_key, in_triangle
from sumsign.intsets import IntegerSet, Sign, sumset
from sumsign.labeling import Labeling, derive
from sumsign.transforms import (
    delete_vertex,
    elementary_transformation,
    spanned_subgraph,
    subdivide_edge,
)
from sumsign.verify import SearchBounds, enumerate_aiasl

TRIANGLE = Graph(["u", "v", "w"], [("u", "v"), ("u", "w"), ("v", "w")])


def lab(universe_max, **sets):
    return Labeling(universe_max, {v: IntegerSet(s) for v, s in sets.items()})


def balanced_triangle():
    return derive(TRIANGLE, lab(8, u=[0, 1], v=[0, 2], w=[0, 2, 4]))


def one_negative_triangle():
    # vw carries {0,1,2,3,4}, size 5, the only negative edge.
    return derive(TRIANGLE, lab(4, u=[0, 1], v=[0, 2], w=[0, 1, 2]))


def singleton_c4():
    # Every edge label is a singleton: four negative edges, balanced.
    g = cycle_graph(4)
    return derive(g, lab(3, v0=[0], v1=[1], v2=[2], v3=[3]))


class TestDeleteVertex:
    def test_leaf_deletion_keeps_labels(self):
        g = path_graph(3)
        slg = derive(g, lab(4, v0=[0], v1=[1], v2=[0, 2]))
        outcome = delete_vertex(slg, "v2")
        assert outcome.result.graph.vertices == ("v0", "v1")
        assert outcome.result.labeling.get("v0") == IntegerSet([0])
        assert outcome.result.signs[("v0", "v1")] == slg.signs[("v0", "v1")]
        assert outcome.removed_vertices == ("v2",)
        assert outcome.removed_edges == (("v1", "v2"),)

    def test_balanced_c4_stays_balanced(self):
        slg = singleton_c4()
        assert is_balanced_oracle(slg)[0]
        outcome = delete_vertex(slg, "v0")
        assert is_balanced_oracle(outcome.result)[0]
        assert outcome.result.graph.edges == (("v1", "v2"), ("v2", "v3"))

    def test_unknown_vertex(self):
        with pytest.raises(UnknownVertex):
            delete_vertex(balanced_triangle(), "zz")

    def test_balance_preserved_exhaustively_small(self):
        bounds = SearchBounds(universe_max=2, max_label_size=2)
        for g in (cycle_graph(3), cycle_graph(4), path_graph(4)):
            for labeling in enumerate_aiasl(g, bounds):
                slg = derive(g, labeling)
                if not is_balanced_fast(slg)[0]:
                    continue
                for v in g.vertices:
                    assert is_balanced_fast(delete_vertex(slg, v).result)[0]


class TestSpannedSubgraph:
    def test_identity(self):
        slg = balanced_triangle()
        outcome, removed = spanned_subgraph(slg, TRIANGLE.edges)
        assert removed == 0
        assert outcome.result.graph == slg.graph
        assert outcome.result.signs == slg.signs

    def test_drop_single_negative_edge(self):
        slg = one_negative_triangle()
        assert not is_balanced_oracle(slg)[0]
        outcome, removed = spanned_subgraph(slg, [("u", "v"), ("u", "w")])
        assert removed == 1
        assert is_balanced_oracle(outcome.result)[0]

    def test_drop_two_negatives_from_c4(self):
        g = cycle_graph(4)
        slg = derive(g, lab(2, v0=[0], v1=[1], v2=[0, 1], v3=[2]))
        assert sorted(str(s) for s in slg.signs.values()) == ["+", "+", "-", "-"]
        keep = [e for e in g.edges if slg.signs[e] is Sign.POSITIVE]
        outcome, removed = spanned_subgraph(slg, keep)
        assert removed == 2
        assert is_balanced_oracle(outcome.result)[0]
        # All vertices retained, including the now-isolated one.
        assert outcome.result.graph.vertices == g.vertices

    def test_unknown_edge(self):
        with pytest.raises(UnknownEdge):
            spanned_subgraph(balanced_triangle(), [("u", "zz")])


class TestSubdivideEdge:
    def test_cut_edge_of_k2(self):
        g = Graph(["u", "v"], [("u", "v")])
        slg = derive(g, lab(4, u=[0, 1], v=[0, 2]))
        outcome = subdivide_edge(slg, ("u", "v"))
        result = outcome.result
        assert result.graph.n == 3 and result.graph.m == 2
        assert is_balanced_oracle(result)[0]
        w = outcome.added_vertices[0]
        assert result.labeling.get(w) == IntegerSet([0, 1, 2, 3])

    def test_triangle_subdivision_breaks_balance(self):
        slg = balanced_triangle()
        assert is_balanced_oracle(slg)[0]
        outcome = subdivide_edge(slg, ("u", "v"))
        result = outcome.result
        w = outcome.added_vertices[0]
        # Inherited label and derived signs on the new 4-cycle.
        assert result.labeling.get(w) == IntegerSet([0, 1, 2, 3])
        assert len(result.edge_label("u", w)) == 5
        assert result.sign("u", w) is Sign.NEGATIVE
        assert len(result.edge_label(w, "v")) == 6
        assert result.sign(w, "v") is Sign.POSITIVE
        assert result.sign("v", "w") is Sign.POSITIVE
        assert result.sign("u", "w") is Sign.POSITIVE
        assert not is_balanced_oracle(result)[0]

    def test_injectivity_collision(self):
        g = Graph(["u", "v"], [("u", "v")])
        slg = derive(g, lab(2, u=[0], v=[1, 2]))
        with pytest.raises(InjectivityCollision):
            subdivide_edge(slg, ("u", "v"))

    def test_unknown_edge(self):
        with pytest.raises(UnknownEdge):
            subdivide_edge(balanced_triangle(), ("u", "zz"))

    def test_induced_conditions(self):
        slg = balanced_triangle()
        outcome = subdivide_edge(slg, ("v", "w"))
        result = outcome.result
        new = outcome.added_vertices[0]
        # (i) carried labels unchanged, (iii) new vertex inherits the edge label.
        for v in slg.graph.vertices:
            assert result.labeling.get(v) == slg.labeling.get(v)
        assert result.labeling.get(new) == slg.edge_labels[("v", "w")]
        # (ii) new edge labels are endpoint sumsets.
        for u, w in outcome.added_edges:
            assert result.edge_labels[(u, w)] == sumset(
                result.labeling.get(u), result.labeling.get(w)
            )

    def test_cut_edge_preserves_balance_exhaustively_small(self):
        bounds = SearchBounds(universe_max=2, max_label_size=2)
        for g in (path_graph(4), Graph(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")],
        )):
            cut = set(cut_edges(g))
            for labeling in enumerate_aiasl(g, bounds):
                slg = derive(g, labeling)
                if not is_balanced_fast(slg)[0]:
                    continue
                for e in cut:
                    try:
                        outcome = subdivide_edge(slg, e)
                    except InjectivityCollision:
                        continue
                    assert is_balanced_fast(outcome.result)[0]


class TestElementaryTransformation:
    def test_path_middle_vertex(self):
        g = path_graph(3)
        slg = derive(g, lab(4, v0=[0, 1], v1=[4], v2=[2, 3]))
        outcome = elementary_transformation(slg, "v1")
        result = outcome.result
        assert result.graph.vertices == ("v0", "v2")
        assert result.graph.edges == (("v0", "v2"),)
        assert result.edge_labels[("v0", "v2")] == IntegerSet([2, 3, 4])
        assert is_balanced_oracle(result)[0]

    def test_c4_vertex_on_cycle_breaks_balance(self):
        slg = singleton_c4()
        assert is_balanced_oracle(slg)[0]
        outcome = elementary_transformation(slg, "v1")
        result = outcome.result
        assert result.graph.m == 3
        assert result.edge_labels[("v0", "v2")] == IntegerSet([2])
        assert not is_balanced_oracle(result)[0]

    def test_degree_not_two(self):
        g = complete_graph(4)
        slg = derive(g, lab(4, v0=[0], v1=[1], v2=[2], v3=[3]))
        with pytest.raises(DegreeNotTwo):
            elementary_transformation(slg, "v0")

    def test_vertex_in_triangle(self):
        with pytest.raises(VertexInTriangle):
            elementary_transformation(balanced_triangle(), "u")

    def test_cycle_free_vertex_preserves_balance_exhaustively_small(self):
        # Degree-2 vertices off every cycle: middle vertices of a path.
        g = path_graph(4)
        bounds = SearchBounds(universe_max=2, max_label_size=2)
        for labeling in enumerate_aiasl(g, bounds):
            slg = derive(g, labeling)
            for v in ("v1", "v2"):
                outcome = elementary_transformation(slg, v)
                assert is_balanced_fast(outcome.result)[0]

    def test_provenance_lines_stable(self):
        outcome = elementary_transformation(singleton_c4(), "v1")
        lines = outcome.provenance_lines()
        assert "removed_vertex = v1" in lines
        assert "added_edge = v0 v2" in lines
        assert lines == elementary_transformation(singleton_c4(), "v1").provenance_lines()


def literal_rebuild(slg, vertices, edges, new_label=None):
    """The result of a transform built by hand: a fresh Graph on ``vertices``
    and ``edges``, every old vertex keeping its label, the one vertex not in
    slg taking ``new_label``, and ``derive`` for the edges."""
    labels = {
        v: slg.labeling.get(v) if slg.graph.has_vertex(v) else new_label
        for v in vertices
    }
    return derive(Graph(vertices, edges), Labeling(slg.labeling.universe_max, labels))


def each_transform(slg):
    """(transform call, literal rebuild) for every transform of slg: each
    vertex deleted, each edge left out of a spanned subgraph, each edge
    subdivided and each eligible vertex replaced by an edge."""
    g = slg.graph
    for v in g.vertices:
        yield (
            lambda v=v: delete_vertex(slg, v),
            lambda v=v: literal_rebuild(
                slg, [x for x in g.vertices if x != v], [e for e in g.edges if v not in e]
            ),
        )
    for e in g.edges:
        keep = [f for f in g.edges if f != e]
        yield (
            lambda keep=keep: spanned_subgraph(slg, keep)[0],
            lambda keep=keep: literal_rebuild(slg, g.vertices, keep),
        )
    for u, v in g.edges:
        if any(slg.labeling.get(x) == slg.edge_labels[(u, v)] for x in g.vertices):
            continue  # the inherited label collides: no transform
        w = f"{u}*{v}"
        yield (
            lambda e=(u, v): subdivide_edge(slg, e),
            lambda u=u, v=v, w=w: literal_rebuild(
                slg,
                [*g.vertices, w],
                [e for e in g.edges if e != (u, v)] + [(u, w), (w, v)],
                new_label=slg.edge_labels[(u, v)],
            ),
        )
    for v in g.vertices:
        if g.degree(v) == 2 and not in_triangle(g, v):
            a, b = g.neighbors(v)
            yield (
                lambda v=v: elementary_transformation(slg, v),
                lambda v=v, a=a, b=b: literal_rebuild(
                    slg,
                    [x for x in g.vertices if x != v],
                    [e for e in g.edges if v not in e] + [edge_key(a, b)],
                ),
            )


class TestTransformPlans:
    """Equal transforms of one graph share the result graph of one plan."""

    def test_equal_transforms_share_the_result_graph(self):
        g = cycle_graph(4)
        slg = singleton_c4()
        other = derive(g, lab(4, v0=[0], v1=[1, 2], v2=[4], v3=[3]))
        first = elementary_transformation(slg, "v1").result
        assert elementary_transformation(slg, "v1").result.graph is first.graph
        again = elementary_transformation(other, "v1").result
        assert again.graph is first.graph
        assert again.labeling.get("v2") == IntegerSet([4])
        assert subdivide_edge(other, ("v2", "v3")).result.graph is (
            subdivide_edge(other, ("v2", "v3")).result.graph
        )

    def test_same_neighbours_give_different_plans(self):
        # v1 and v3 of C4 both have the neighbours v0 and v2, so both
        # transforms add the edge v0 v2; only the dropped vertex differs.
        slg = singleton_c4()
        one = elementary_transformation(slg, "v1")
        three = elementary_transformation(slg, "v3")
        assert one.result.graph.vertices == ("v0", "v2", "v3")
        assert three.result.graph.vertices == ("v0", "v1", "v2")
        assert three.removed_edges == (("v0", "v3"), ("v2", "v3"))

    def test_members_with_the_same_ids_get_their_own_result_graphs(self):
        path, ring = path_graph(4), cycle_graph(4)
        labels = lab(3, v0=[0], v1=[1], v2=[2], v3=[3])
        from_path = delete_vertex(derive(path, labels), "v2").result.graph
        from_ring = delete_vertex(derive(ring, labels), "v2").result.graph
        assert from_path is not from_ring
        assert from_path.edges == (("v0", "v1"),)
        assert from_ring.edges == (("v0", "v1"), ("v0", "v3"))

    def test_every_transform_equals_a_literal_rebuild(self, monkeypatch):
        # Each transform runs twice through the memo and once around it;
        # all three must agree with a rebuild by hand.
        bounds = SearchBounds(universe_max=2, max_label_size=2)
        cases = [
            pair
            for g in connected_graphs(4)
            for labeling in enumerate_aiasl(g, bounds)
            for pair in each_transform(derive(g, labeling))
        ]
        shared = [(transform(), transform()) for transform, _ in cases]
        with monkeypatch.context() as m:
            m.setattr(transforms, "_plan", transforms._plan.__wrapped__)
            around = [transform() for transform, _ in cases]
        assert len(cases) > 20_000
        for (_, rebuild), (first, second), alone in zip(cases, shared, around):
            expected = rebuild()
            lines = alone.provenance_lines()
            assert second.result.graph is first.result.graph
            for outcome in (first, second, alone):
                result = outcome.result
                assert result.graph == expected.graph
                assert result.labeling.items() == expected.labeling.items()
                assert dict(result.signs) == dict(expected.signs)
                assert dict(result.edge_labels) == dict(expected.edge_labels)
            assert first.provenance_lines() == lines
