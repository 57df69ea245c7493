"""Deriving signed labeled graphs and validating the labeling conditions."""

import copy
import pickle
from fractions import Fraction

import pytest

from sumsign.errors import (
    AdmissibilityViolation,
    DuplicateLabel,
    MissingLabel,
    NotApLabel,
    ParseError,
    UniverseViolation,
    UnknownVertex,
)
from sumsign.graphs import Graph, parse_graph
from sumsign.intsets import IntegerSet, Sign, ap_profile
from sumsign.labeling import (
    Labeling,
    derive,
    deterministic_ratio,
    format_labeling,
    iasi_collisions,
    parse_labeling,
    predicted_sign,
    validate_aiasl,
    validate_iasi,
)

K2 = Graph(["u", "v"], [("u", "v")])
TRIANGLE = Graph(["u", "v", "w"], [("u", "v"), ("u", "w"), ("v", "w")])
PATH3 = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])


def lab(universe_max, **sets):
    return Labeling(universe_max, {v: IntegerSet(s) for v, s in sets.items()})


def brute_sumset(a, b):
    return sorted({x + y for x in a for y in b})


class TestDerive:
    def test_k2_even_sumset(self):
        slg = derive(K2, lab(4, u=[0, 1], v=[0, 2]))
        assert list(slg.edge_labels[("u", "v")]) == brute_sumset([0, 1], [0, 2])
        assert slg.edge_labels[("u", "v")] == IntegerSet([0, 1, 2, 3])
        assert slg.signs[("u", "v")] is Sign.POSITIVE

    def test_k2_singleton_sumset(self):
        slg = derive(K2, lab(1, u=[0], v=[1]))
        assert slg.edge_labels[("u", "v")] == IntegerSet([1])
        assert slg.signs[("u", "v")] is Sign.NEGATIVE

    def test_triangle_all_positive(self):
        slg = derive(TRIANGLE, lab(8, u=[0, 1], v=[0, 2], w=[0, 2, 4]))
        sizes = {e: len(slg.edge_labels[e]) for e in TRIANGLE.edges}
        assert sizes == {("u", "v"): 4, ("u", "w"): 6, ("v", "w"): 4}
        assert all(s is Sign.POSITIVE for s in slg.signs.values())

    def test_missing_label(self):
        with pytest.raises(MissingLabel):
            derive(TRIANGLE, lab(4, u=[0], v=[1]))

    def test_label_for_vertex_not_in_graph(self):
        with pytest.raises(UnknownVertex, match="zz"):
            derive(K2, lab(4, u=[0], v=[1], zz=[3]))

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            derive(K2, lab(4, u=[0, 1], v=[0, 1]))

    def test_strict_universe_vertex(self):
        with pytest.raises(UniverseViolation):
            derive(K2, lab(2, u=[0], v=[5]), strict=True)

    def test_strict_universe_edge(self):
        bad = lab(3, u=[0, 2], v=[1, 3])
        derive(K2, bad)  # lenient mode allows the edge label to escape
        with pytest.raises(UniverseViolation):
            derive(K2, bad, strict=True)

    def test_deterministic(self):
        a = derive(TRIANGLE, lab(8, u=[0, 1], v=[0, 2], w=[0, 2, 4]))
        b = derive(TRIANGLE, lab(8, u=[0, 1], v=[0, 2], w=[0, 2, 4]))
        assert a.edge_labels == b.edge_labels and a.signs == b.signs
        assert format_labeling(a.labeling) == format_labeling(b.labeling)


class TestIasi:
    def test_single_edge_always_injective(self):
        assert validate_iasi(derive(K2, lab(4, u=[0, 1], v=[0, 2])))

    def test_path_distinct_edge_labels(self):
        slg = derive(PATH3, lab(2, a=[0], b=[1], c=[0, 2]))
        assert validate_iasi(slg)
        assert slg.edge_labels[("a", "b")] == IntegerSet([1])
        assert slg.edge_labels[("b", "c")] == IntegerSet([1, 3])

    def test_translated_singletons_still_injective(self):
        slg = derive(PATH3, lab(3, a=[1], b=[2], c=[3]))
        assert validate_iasi(slg)

    def test_mixed_sizes_distinct_edge_labels(self):
        slg = derive(PATH3, lab(4, a=[0, 4], b=[1], c=[2, 3]))
        assert slg.edge_labels[("a", "b")] == IntegerSet([1, 5])
        assert slg.edge_labels[("b", "c")] == IntegerSet([3, 4])
        assert validate_iasi(slg)

    def test_collision_found_by_construction(self):
        # {0,2} + {0,1} = {0,1} + {0,1,2} = {0,1,2,3}
        slg = derive(PATH3, lab(2, a=[0, 2], b=[0, 1], c=[0, 1, 2]))
        assert not validate_iasi(slg)
        assert iasi_collisions(slg) == [((("a", "b")), ("b", "c"))]


class TestAiasl:
    def test_admissible_ratio_two(self):
        check = validate_aiasl(derive(K2, lab(4, u=[0, 1], v=[0, 2])))
        assert check.ok and bool(check)

    def test_ratio_exceeds_size(self):
        slg = derive(K2, lab(8, u=[0, 1], v=[0, 3, 6]))
        check = validate_aiasl(slg)
        assert not check.ok
        assert check.edge_failures[0][0] == ("u", "v")
        assert "exceeds" in check.edge_failures[0][1]
        # The sumset is indeed not a progression.
        assert ap_profile(slg.edge_labels[("u", "v")]) is None
        assert list(slg.edge_labels[("u", "v")]) == [0, 1, 3, 4, 6, 7]

    def test_non_progression_vertex_label(self):
        check = validate_aiasl(derive(K2, lab(4, u=[0, 1], v=[0, 1, 3])))
        assert not check.ok
        assert check.vertex_failures[0][0] == "v"

    def test_non_integer_ratio_reported_per_edge(self):
        slg = derive(PATH3, lab(8, a=[0, 2, 4], b=[1, 4, 7], c=[0]))
        check = validate_aiasl(slg)
        assert not check.ok
        failing = [e for e, _ in check.edge_failures]
        assert failing == [("a", "b")]

    def test_admissible_edge_label_is_progression_with_min_diff(self):
        # Exhaustive over admissible pairs: first <= 4, diff <= 3, len <= 4.
        aps = [
            tuple(f + i * d for i in range(length))
            for f in range(5)
            for d in range(1, 4)
            for length in range(2, 5)
        ] + [(f,) for f in range(5)]
        for xs in aps:
            for ys in aps:
                if set(xs) == set(ys):
                    continue
                labeling = lab(30, u=xs, v=ys)
                slg = derive(K2, labeling)
                if not validate_aiasl(slg).ok:
                    continue
                profile = ap_profile(slg.edge_labels[("u", "v")])
                assert profile is not None
                diffs = [
                    xs[1] - xs[0] if len(xs) > 1 else None,
                    ys[1] - ys[0] if len(ys) > 1 else None,
                ]
                real = [d for d in diffs if d is not None]
                if real and len(slg.edge_labels[("u", "v")]) > 1:
                    assert profile.diff == min(real)


class TestDeterministicRatio:
    def test_plain_ratio(self):
        slg = derive(K2, lab(4, u=[0, 1], v=[0, 2]))
        assert deterministic_ratio(slg, ("u", "v")) == 2

    def test_singleton_convention(self):
        slg = derive(K2, lab(8, u=[0, 3], v=[5]))
        assert deterministic_ratio(slg, ("u", "v")) == 1

    def test_fractional_ratio(self):
        slg = derive(K2, lab(8, u=[0, 2, 4], v=[1, 4, 7]))
        assert deterministic_ratio(slg, ("u", "v")) == Fraction(3, 2)

    def test_not_ap_error(self):
        slg = derive(K2, lab(8, u=[0, 1, 3], v=[0]))
        with pytest.raises(NotApLabel):
            deterministic_ratio(slg, ("u", "v"))


class TestPredictedSign:
    def test_odd_ratio_different_parity(self):
        # k=1, sizes 2 and 3: positive.
        slg = derive(K2, lab(8, u=[0, 1], v=[2, 3, 4]))
        assert predicted_sign(slg, ("u", "v")) is Sign.POSITIVE
        assert slg.signs[("u", "v")] is Sign.POSITIVE

    def test_even_ratio_even_min_diff_endpoint(self):
        # k=2, smaller-difference endpoint has size 2: positive.
        slg = derive(K2, lab(8, u=[0, 1], v=[0, 2, 4]))
        assert predicted_sign(slg, ("u", "v")) is Sign.POSITIVE
        assert slg.signs[("u", "v")] is Sign.POSITIVE

    def test_odd_ratio_same_parity(self):
        # k=1, sizes 3 and 3: negative.
        slg = derive(K2, lab(8, u=[0, 1, 2], v=[3, 4, 5]))
        assert predicted_sign(slg, ("u", "v")) is Sign.NEGATIVE
        assert slg.signs[("u", "v")] is Sign.NEGATIVE

    def test_inadmissible_edge_raises(self):
        slg = derive(K2, lab(8, u=[0, 1], v=[0, 3, 6]))
        with pytest.raises(AdmissibilityViolation):
            predicted_sign(slg, ("u", "v"))

    def test_exhaustive_consistency_small(self):
        # Every admissible pair with first <= 4, diff <= 3, len <= 4:
        # the parity prediction equals the derived sign.
        aps = [(f,) for f in range(5)] + [
            tuple(f + i * d for i in range(length))
            for f in range(5)
            for d in range(1, 4)
            for length in range(2, 5)
        ]
        checked = 0
        for xs in aps:
            for ys in aps:
                if set(xs) == set(ys):
                    continue
                slg = derive(K2, lab(30, u=xs, v=ys))
                if not validate_aiasl(slg).ok:
                    continue
                assert predicted_sign(slg, ("u", "v")) is slg.signs[("u", "v")]
                checked += 1
        assert checked > 1000


class TestLabelingFormat:
    def test_round_trip(self):
        labeling = lab(8, u=[0, 1], v=[0, 2], w=[0, 2, 4])
        assert parse_labeling(format_labeling(labeling)) == labeling

    def test_vertex_id_with_colon_round_trips(self):
        labeling = Labeling(3, {"a:b": {0, 1}, "c": {2}})
        assert format_labeling(labeling) == "universe_max = 3\na:b: {0,1}\nc: {2}\n"
        assert parse_labeling(format_labeling(labeling)) == labeling
        # parse_graph takes this id, so its labeling line must read back too.
        labeling = Labeling(3, {"universe_max=3": {0, 1}, "c": {2}})
        assert parse_graph("universe_max=3 c\n").vertices == ("c", "universe_max=3")
        assert parse_labeling(format_labeling(labeling)) == labeling

    def test_inferred_universe(self):
        labeling = parse_labeling("u: {0,5}\nv: {1}\n")
        assert labeling.universe_max == 5

    def test_parse_errors(self):
        with pytest.raises(ParseError) as exc:
            parse_labeling("universe_max = 4\nu {0}\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError):
            parse_labeling("universe_max = x\n")
        with pytest.raises(DuplicateLabel):
            parse_labeling("u: {0}\nu: {1}\n")

    def test_second_universe_max_is_refused(self):
        with pytest.raises(ParseError, match="universe_max given twice") as exc:
            parse_labeling("universe_max = 3\nu: {0,1}\nuniverse_max = 9\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "bad",
        ["#c", "a b", "x\nz", "a\u00a0b", "", 1],
        ids=["hash", "space", "newline", "nbsp", "empty", "int"],
    )
    def test_id_that_cannot_be_written_back_is_refused(self, bad):
        with pytest.raises(ValueError, match="vertex id"):
            Labeling(3, {bad: [1], "c": [2]})

    # parse_labeling refuses each of these as a bad universe_max value.
    @pytest.mark.parametrize("bad", [2.5, True, "3"], ids=["float", "bool", "str"])
    def test_universe_max_that_is_no_int_is_refused(self, bad):
        with pytest.raises(ValueError, match=f"universe_max {bad!r} must be an int"):
            Labeling(bad, {"u": [1]})

    def test_id_with_whitespace_is_a_parse_error(self):
        with pytest.raises(ParseError, match="whitespace") as exc:
            parse_labeling("universe_max = 3\nu: {0}\na b: {1}\n")
        assert exc.value.line == 3


class TestCopies:
    @pytest.mark.parametrize(
        "copy_of",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_labeling_round_trips(self, copy_of):
        labeling = lab(8, u=[0, 1], v=[0, 2], w=[0, 2, 4])
        twin = copy_of(labeling)
        assert twin == labeling and hash(twin) == hash(labeling)
        assert format_labeling(twin) == format_labeling(labeling)
        assert derive(TRIANGLE, twin).signs == derive(TRIANGLE, labeling).signs
        with pytest.raises(AttributeError):
            twin.universe_max = 9
