"""Finite sets of non-negative integers and their sumset arithmetic.

The value layer of the package: immutable integer sets, sumsets,
arithmetic-progression detection, cardinality parity, and the closed-form
cardinality of a sumset of two compatible progressions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import AdmissibilityViolation, EmptyLabel, ParseError


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


class IntegerSet:
    """Immutable, sorted, duplicate-free set of non-negative integers.

    Never empty. Supports ``len``, iteration, membership, equality, hashing,
    ordering (lexicographic on the element tuple) and ``A + B`` as sumset.
    """

    __slots__ = ("elements",)

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

    def __setattr__(self, name, value):
        raise AttributeError("IntegerSet is immutable")

    @property
    def size(self) -> int:
        return len(self.elements)

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
        return "{" + ",".join(str(x) for x in self.elements) + "}"

    @classmethod
    def from_text(cls, text: str) -> "IntegerSet":
        return parse_set_literal(text)


def sumset(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """All pairwise sums {x + y : x in a, y in b}. Commutative."""
    return IntegerSet({x + y for x in a.elements for y in b.elements})


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

    def reconstruct(self) -> IntegerSet:
        step = self.diff if self.diff is not None else 0
        return IntegerSet(self.first + i * step for i in range(self.length))


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
    items = []
    for piece in body.split(","):
        piece = piece.strip()
        if not (piece.isascii() and piece.isdigit()):
            raise ParseError(f"bad set element {piece!r} in {text!r}", line)
        items.append(int(piece))
    return IntegerSet(items)
