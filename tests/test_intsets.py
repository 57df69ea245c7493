"""Sets, sumsets, progression profiles and their pair rule, parity, and the cardinality formula."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import sumsign.intsets as intsets_module
import sumsign.labeling
from sumsign.errors import AdmissibilityViolation, EmptyLabel, ParseError
from sumsign.intsets import (
    ApProfile,
    IntegerSet,
    Parity,
    Sign,
    ap_pair,
    ap_profile,
    ap_sumset_cardinality,
    parse_set_literal,
    set_parity,
    sign_of_size,
    sumset,
)
from sumsign.search import SearchBounds, _LabelingSpace, _progressions


def brute_sumset(a, b):
    """Independent oracle: enumerate every pairwise sum."""
    return sorted({x + y for x in a for y in b})


def is_progression(elems):
    """Independent oracle: all consecutive differences equal."""
    if len(elems) < 2:
        return True
    gaps = {b - a for a, b in zip(elems, elems[1:])}
    return len(gaps) == 1


finite_sets = st.frozensets(st.integers(0, 40), min_size=1, max_size=8)


class TestIntegerSet:
    def test_normalizes_sorted_deduplicated(self):
        s = IntegerSet([4, 2, 2, 0])
        assert s.elements == (0, 2, 4)
        assert len(s) == 3
        assert 2 in s and 3 not in s

    def test_rejects_empty(self):
        with pytest.raises(EmptyLabel):
            IntegerSet([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IntegerSet([-1, 2])

    def test_text_round_trip(self):
        s = IntegerSet([0, 2, 4])
        assert s.to_text() == "{0,2,4}"
        assert parse_set_literal("{ 0 , 2 ,4 }") == s

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_set_literal("0,2,4")
        with pytest.raises(ParseError):
            parse_set_literal("{0,x}")
        with pytest.raises(EmptyLabel):
            parse_set_literal("{}")


class TestSumset:
    def test_zero_identity(self):
        assert sumset(IntegerSet([0]), IntegerSet([0])) == IntegerSet([0])

    def test_small_example(self):
        a, b = IntegerSet([1, 2]), IntegerSet([3, 5])
        assert list(sumset(a, b)) == brute_sumset([1, 2], [3, 5]) == [4, 5, 6, 7]

    def test_progression_pair(self):
        a, b = IntegerSet([0, 1]), IntegerSet([0, 2, 4])
        assert list(sumset(a, b)) == brute_sumset([0, 1], [0, 2, 4]) == [0, 1, 2, 3, 4, 5]

    @given(finite_sets, finite_sets)
    def test_commutative(self, xs, ys):
        a, b = IntegerSet(xs), IntegerSet(ys)
        assert sumset(a, b) == sumset(b, a)

    @given(finite_sets, finite_sets)
    def test_size_bounds(self, xs, ys):
        a, b = IntegerSet(xs), IntegerSet(ys)
        n = len(sumset(a, b))
        assert max(len(a), len(b)) <= n <= len(a) * len(b)

    @given(finite_sets, finite_sets)
    def test_matches_brute_force(self, xs, ys):
        assert list(sumset(IntegerSet(xs), IntegerSet(ys))) == brute_sumset(xs, ys)

    @given(finite_sets, finite_sets)
    def test_result_equals_the_checked_construction(self, xs, ys):
        result = sumset(IntegerSet(xs), IntegerSet(ys))
        expected = IntegerSet(brute_sumset(xs, ys))
        assert type(result) is IntegerSet
        assert result == expected and hash(result) == hash(expected)
        assert result.elements == expected.elements
        assert type(result.elements) is tuple
        with pytest.raises(AttributeError):
            result.elements = ()

    @pytest.mark.parametrize(
        "copy_of",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_copies_round_trip(self, copy_of):
        for s in (IntegerSet([0, 2, 4]), sumset(IntegerSet([1]), IntegerSet([0, 3]))):
            twin = copy_of(s)
            assert twin == s and hash(twin) == hash(s) and twin.to_text() == s.to_text()


class TestMemos:
    """``sumset``'s bounded pair memo and the text an ``IntegerSet`` keeps."""

    def test_sumset_memo_is_bounded_and_its_results_are_checked_sets(self):
        sets = tuple(_progressions(8, 3))
        memo = intsets_module._sumset
        assert memo.cache_info().maxsize == intsets_module._SUMSET_MEMO_PAIRS
        # The 1,891 unordered pairs overflow the memo, so later pairs evict
        # earlier ones and the second pass reads back both kinds.
        assert len(sets) * (len(sets) + 1) // 2 > intsets_module._SUMSET_MEMO_PAIRS
        for _ in range(2):
            for a in sets:
                for b in sets:
                    result = sumset(a, b)
                    expected = IntegerSet(brute_sumset(a, b))
                    assert type(result) is IntegerSet
                    assert result.elements == expected.elements
                    assert result == expected and hash(result) == hash(expected)
        assert 0 < memo.cache_info().currsize <= intsets_module._SUMSET_MEMO_PAIRS

    def test_equal_operands_give_the_identical_result(self):
        a, b = IntegerSet([0, 2]), IntegerSet([1, 2, 3])
        first = sumset(a, b)
        assert sumset(IntegerSet([2, 0]), IntegerSet([3, 2, 1])) is first
        assert sumset(b, a) is first and a + b is first

    def test_every_candidate_text_equals_an_uncached_rendering(self):
        for s in _progressions(8, 3):
            rendered = "{" + ",".join(str(x) for x in s.elements) + "}"
            assert s.to_text() == rendered
            assert s.to_text() is s.to_text()
            assert repr(s) == f"IntegerSet({rendered})"
        assert sumset(IntegerSet([1]), IntegerSet([0, 9])).to_text() == "{1,10}"

    @pytest.mark.parametrize(
        "copy_of",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_a_set_with_its_text_kept_copies_and_compares_as_before(self, copy_of):
        for make in (lambda: IntegerSet([0, 2, 4]), lambda: sumset(IntegerSet([0, 2]), IntegerSet([0, 2]))):
            s, fresh = make(), IntegerSet([0, 2, 4])
            assert s.to_text() == "{0,2,4}"
            assert pickle.dumps(s) == pickle.dumps(fresh)
            twin = copy_of(s)
            for other in (twin, fresh):
                assert other == s and hash(other) == hash(s)
                assert not other < s and not s < other
            assert s != IntegerSet([0, 2]) and IntegerSet([0, 2]) < s
            assert twin.to_text() == "{0,2,4}"
            with pytest.raises(AttributeError):
                s._text = "{1}"
            assert s.to_text() == "{0,2,4}"


class TestApProfile:
    def test_singleton(self):
        assert ap_profile(IntegerSet([3])) == ApProfile(first=3, diff=None, length=1)

    def test_progression(self):
        assert ap_profile(IntegerSet([2, 5, 8])) == ApProfile(first=2, diff=3, length=3)

    def test_not_a_progression(self):
        assert ap_profile(IntegerSet([1, 2, 4])) is None

    def test_profile_agrees_with_oracle(self):
        for s in [(0, 1), (0, 3, 6, 9), (1, 2, 4), (5,), (2, 4, 7)]:
            got = ap_profile(IntegerSet(s))
            assert (got is not None) == is_progression(list(s))

    @given(st.integers(0, 30), st.integers(1, 9), st.integers(2, 8))
    def test_profile_of_a_built_progression(self, first, diff, length):
        s = IntegerSet(range(first, first + length * diff, diff))
        assert ap_profile(s) == ApProfile(first=first, diff=diff, length=length)

    def test_invalid_profiles_rejected(self):
        with pytest.raises(ValueError):
            ApProfile(first=0, diff=None, length=2)
        with pytest.raises(ValueError):
            ApProfile(first=0, diff=1, length=1)
        with pytest.raises(ValueError):
            ApProfile(first=0, diff=0, length=3)


class TestParity:
    def test_examples(self):
        assert set_parity(IntegerSet([0, 1])) is Parity.EVEN
        assert set_parity(IntegerSet([7])) is Parity.ODD
        assert set_parity(IntegerSet([0, 2, 4])) is Parity.ODD

    def test_sign_of_size(self):
        assert sign_of_size(4) is Sign.POSITIVE
        assert sign_of_size(1) is Sign.NEGATIVE
        assert str(sign_of_size(2)) == "+"


class TestApSumsetCardinality:
    def test_singleton_translation(self):
        assert ap_sumset_cardinality(1, 5, 1) == 5

    def test_small_cases_against_oracle(self):
        # (m=2, n=2, k=2): {0,1} + {0,2}
        assert ap_sumset_cardinality(2, 2, 2) == len(brute_sumset([0, 1], [0, 2])) == 4
        # (m=3, n=3, k=1): {0,1,2} + {0,1,2}
        assert ap_sumset_cardinality(3, 3, 1) == len(brute_sumset([0, 1, 2], [0, 1, 2])) == 5

    def test_admissibility_violation(self):
        with pytest.raises(AdmissibilityViolation):
            ap_sumset_cardinality(2, 3, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ap_sumset_cardinality(0, 1, 1)

    def test_exhaustive_small(self):
        # Formula == brute force for first <= 6, diff <= 3, m <= 4, k <= m.
        for first_a in range(7):
            for diff_a in range(1, 4):
                for m in range(1, 5):
                    a = [first_a + i * diff_a for i in range(m)]
                    for k in range(1, m + 1):
                        for first_b in range(7):
                            for n in range(1, 5):
                                b = [first_b + j * k * diff_a for j in range(n)]
                                assert ap_sumset_cardinality(m, n, k) == len(
                                    brute_sumset(a, b)
                                )

    def test_sumset_of_admissible_pair_is_progression(self):
        # diff(B) = k * diff(A), k <= |A| forces A + B to be a progression
        # with the same difference as A.
        for diff_a in range(1, 5):
            for m in range(2, 6):
                a = IntegerSet(range(0, m * diff_a, diff_a))
                for k in range(1, m + 1):
                    for n in range(2, 6):
                        b = IntegerSet(3 + j * k * diff_a for j in range(n))
                        profile = ap_profile(sumset(a, b))
                        assert profile is not None
                        assert profile.diff == diff_a


class TestApPair:
    @pytest.mark.parametrize("bounds", [(8, 3), (20, 5)])
    def test_admits_exactly_the_pairs_whose_sumset_is_a_progression(self, bounds):
        sets = tuple(_progressions(*bounds))
        profiles = [ap_profile(s) for s in sets]
        for i, a in enumerate(sets):
            for j in range(i + 1, len(sets)):
                small, large, k = ap_pair(profiles[i], profiles[j])
                total = ap_profile(sumset(a, sets[j]))
                assert (k is not None) == (total is not None)
                assert ap_pair(profiles[j], profiles[i])[2] == k
                if k is not None:
                    assert total.length == small.length + k * (large.length - 1)

    def test_endpoint_order(self):
        single, d1, d2 = ApProfile(5, None, 1), ApProfile(0, 1, 3), ApProfile(0, 2, 2)
        assert ap_pair(d2, single) == (single, d2, 1)
        assert ap_pair(d2, d1) == (d1, d2, 2)
        tie = ApProfile(1, 1, 2)
        assert ap_pair(tie, d1)[:2] == (tie, d1)
        assert ap_pair(d1, tie)[:2] == (d1, tie)

    def test_rejects_fractional_and_oversized_ratios(self):
        # 3/2 does not divide; 3 exceeds the two-element smaller endpoint.
        assert ap_pair(ApProfile(0, 2, 3), ApProfile(0, 3, 2))[2] is None
        assert ap_pair(ApProfile(0, 1, 2), ApProfile(0, 3, 2))[2] is None
        assert ap_pair(ApProfile(0, 1, 3), ApProfile(0, 3, 2))[2] == 3

    def test_search_space_builds_no_fraction(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("the search space built a Fraction")

        monkeypatch.setattr(sumsign.labeling, "Fraction", no_fraction)
        space = _LabelingSpace(SearchBounds(8, 3))
        assert len(space.sets) == 61 and any(space.compat)
