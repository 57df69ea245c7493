"""Finite sets of non-negative integers and their sumset arithmetic.

The value layer of the package: immutable integer sets, sumsets,
arithmetic-progression detection, the integer admissibility rule of two
progressions (``ap_pair``), cardinality parity, and the closed-form
cardinality of a sumset of two compatible progressions.

Every value here is immutable, so what is derived from one is computed once:
an ``IntegerSet`` keeps its ``to_text`` rendering once asked for it, and
``sumset`` hands out one result per operand pair from a bounded memo, keyed
on the element tuples, that holds the last ``_SUMSET_MEMO_PAIRS`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import AdmissibilityViolation, EmptyLabel, ParseError

_SUMSET_MEMO_PAIRS = 1024  # operand pairs whose sumset sumset holds


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"

    def __str__(self) -> str:
        return self.value


class Sign(Enum):
    POSITIVE = "+"
    NEGATIVE = "-"

    def __str__(self) -> str:
        return self.value


def size_parity(n: int) -> Parity:
    return Parity.EVEN if n % 2 == 0 else Parity.ODD


def sign_of_size(n: int) -> Sign:
    """Sign attached to a set of cardinality n: (-1)**n, written as +/-."""
    return Sign.POSITIVE if n % 2 == 0 else Sign.NEGATIVE


# The sign of a size of parity i, for readers that index it by ``n & 1``.
_SIGN_OF_PARITY = (sign_of_size(0), sign_of_size(1))


class IntegerSet:
    """Immutable, sorted, duplicate-free set of non-negative integers.

    Never empty. Supports ``len``, iteration, membership, equality, hashing,
    ordering (lexicographic on the element tuple) and ``A + B`` as sumset.
    The ``to_text`` rendering is kept once made; equality, hashing and
    ordering read the elements alone. Copies and pickles are rebuilt through
    the constructor, with no text kept.
    """

    __slots__ = ("elements", "_text")

    def __init__(self, elements: Iterable[int]):
        seen = sorted(set(elements))
        if not seen:
            raise EmptyLabel("integer set must be non-empty")
        for x in seen:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValueError(f"integer set elements must be ints, got {x!r}")
            if x < 0:
                raise ValueError(f"integer set elements must be non-negative, got {x}")
        object.__setattr__(self, "elements", tuple(seen))
        object.__setattr__(self, "_text", None)

    def __setattr__(self, name, value):
        raise AttributeError("IntegerSet is immutable")

    def __reduce__(self):
        return IntegerSet, (self.elements,)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: object) -> bool:
        return x in self.elements

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntegerSet) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __lt__(self, other: "IntegerSet") -> bool:
        return self.elements < other.elements

    def __add__(self, other: "IntegerSet") -> "IntegerSet":
        return sumset(self, other)

    def __repr__(self) -> str:
        return f"IntegerSet({self.to_text()})"

    def to_text(self) -> str:
        """Render as a set literal, e.g. ``{0,2,4}``."""
        text = self._text
        if text is None:
            text = "{" + ",".join(map(str, self.elements)) + "}"
            object.__setattr__(self, "_text", text)
        return text


def sumset(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """All pairwise sums {x + y : x in a, y in b}. Commutative.

    Equal operands, in either order, give the same immutable result while
    their pair is among the last ``_SUMSET_MEMO_PAIRS`` the memo holds.
    """
    x, y = a.elements, b.elements
    return _sumset(x, y) if x <= y else _sumset(y, x)


@lru_cache(maxsize=_SUMSET_MEMO_PAIRS)
def _sumset(a: tuple[int, ...], b: tuple[int, ...]) -> IntegerSet:
    # The sums of two valid sets are non-negative ints and at least one, so
    # the result is built without the constructor's element checks.
    result = object.__new__(IntegerSet)
    object.__setattr__(result, "elements", tuple(sorted({x + y for x in a for y in b})))
    object.__setattr__(result, "_text", None)
    return result


@dataclass(frozen=True)
class ApProfile:
    """(first term, common difference, length) view of a progression-valued set.

    ``diff`` is None exactly for singletons, whose common difference is
    undetermined.
    """

    first: int
    diff: int | None
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be positive")
        if (self.length == 1) != (self.diff is None):
            raise ValueError("diff is None exactly when length == 1")
        if self.diff is not None and self.diff < 1:
            raise ValueError("diff must be a positive integer")
        if self.first < 0:
            raise ValueError("first must be non-negative")


def ap_profile(s: IntegerSet) -> ApProfile | None:
    """Profile of s when its elements form an arithmetic progression, else None."""
    elems = s.elements
    if len(elems) == 1:
        return ApProfile(first=elems[0], diff=None, length=1)
    diff = elems[1] - elems[0]
    for prev, cur in zip(elems[1:], elems[2:]):
        if cur - prev != diff:
            return None
    return ApProfile(first=elems[0], diff=diff, length=len(elems))


def ap_pair(pa: ApProfile, pb: ApProfile) -> tuple[ApProfile, ApProfile, int | None]:
    """The progression rule of one edge, in integers: (small, large, k).

    small is the endpoint with the smaller common difference (a singleton
    counts as smallest; on a tie the first argument), large the other. k is
    the deterministic ratio large.diff / small.diff when the edge is
    admissible: it divides evenly and k <= small.length. Beside a singleton
    k = 1. Otherwise k is None.
    """
    if pa.diff is not None and (pb.diff is None or pb.diff < pa.diff):
        pa, pb = pb, pa
    if pa.diff is None:
        return pa, pb, 1
    k, rem = divmod(pb.diff, pa.diff)
    return pa, pb, k if rem == 0 and k <= pa.length else None


def set_parity(s: IntegerSet) -> Parity:
    """Parity of the cardinality of s."""
    return size_parity(len(s))


def ap_sumset_cardinality(m: int, n: int, k: int) -> int:
    """Sumset cardinality m + k*(n - 1) for two compatible progressions.

    Valid for progressions A of length m and B of length n whose common
    differences satisfy diff(B) = k * diff(A) with integer k <= m. The k <= m
    condition makes the shifted copies of A overlap or touch, so the sumset is
    itself a progression of length m + k*(n - 1).
    """
    if m < 1 or n < 1 or k < 1:
        raise ValueError("m, n, k must be positive integers")
    if k > m:
        raise AdmissibilityViolation(
            f"ratio k={k} exceeds the smaller-difference endpoint size m={m}"
        )
    return m + k * (n - 1)


def parse_digits(text: str, what: str, line: int | None = None) -> int:
    """A non-negative integer written in ASCII digits only.

    int() would also take '1_0', '+5', ' 7' or '\u0663'; those, and negative
    values, raise ParseError("bad <what> <text>").
    """
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"bad {what} {text!r}", line)
    return int(text)


def parse_set_literal(text: str, line: int | None = None) -> IntegerSet:
    """Parse ``{a,b,c}`` (whitespace-insensitive) into an IntegerSet."""
    stripped = text.strip()
    if not (stripped.startswith("{") and stripped.endswith("}")):
        raise ParseError(f"expected a set literal like {{0,2,4}}, got {text!r}", line)
    body = stripped[1:-1].strip()
    if not body:
        raise EmptyLabel(
            f"empty set literal{f' at line {line}' if line is not None else ''}"
        )
    return IntegerSet(
        parse_digits(piece.strip(), f"set element in {text!r}:", line)
        for piece in body.split(",")
    )
