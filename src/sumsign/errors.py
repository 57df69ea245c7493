"""Exception hierarchy shared by the whole package.

Every error carries a stable ``code`` string (used by the CLI and by
machine-readable output) and the CLI exit status it maps to: 2 for input
errors, 3 for exceeded search bounds. ``check_count`` and ``check_flag`` are
the one type check of a count and of a flag that a caller passes in.
"""

from __future__ import annotations


class SumsignError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"
    exit_code = 2


class AdmissibilityViolation(SumsignError):
    """A deterministic ratio exceeds the size of the smaller-difference endpoint."""

    code = "ADMISSIBILITY_VIOLATION"


class BoundExceeded(SumsignError):
    """A search or enumeration bound was violated."""

    code = "BOUND_EXCEEDED"
    exit_code = 3


class UnknownVertex(SumsignError):
    code = "UNKNOWN_VERTEX"


class UnknownEdge(SumsignError):
    code = "UNKNOWN_EDGE"


class MissingLabel(SumsignError):
    code = "MISSING_LABEL"


class DuplicateLabel(SumsignError):
    code = "DUPLICATE_LABEL"


class EmptyLabel(SumsignError):
    code = "EMPTY_LABEL"


class NotApLabel(SumsignError):
    """An operation that needs arithmetic-progression labels saw a non-AP label."""

    code = "NOT_AP_LABEL"


class UniverseViolation(SumsignError):
    """Strict mode only: a set-label escapes the universe {0..universe_max}."""

    code = "UNIVERSE_VIOLATION"


class InjectivityCollision(SumsignError):
    """An induced labeling would assign an already-used set to a new vertex."""

    code = "INJECTIVITY_COLLISION"


class DegreeNotTwo(SumsignError):
    code = "DEGREE_NOT_TWO"


class VertexInTriangle(SumsignError):
    code = "VERTEX_IN_TRIANGLE"


class NotBipartite(SumsignError):
    code = "NOT_BIPARTITE"


class UnknownTheorem(SumsignError):
    code = "UNKNOWN_THEOREM"


class ParseError(SumsignError):
    """Malformed input text; remembers the 1-based line number when known."""

    code = "PARSE_ERROR"

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def check_count(name: str, value: object) -> None:
    """Raise ParseError unless value is an int; a bool is no count."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{name} must be an int, not {value!r}")


def check_flag(name: str, value: object) -> None:
    """Raise ParseError unless value is a bool."""
    if not isinstance(value, bool):
        raise ParseError(f"{name} must be a bool, not {value!r}")
