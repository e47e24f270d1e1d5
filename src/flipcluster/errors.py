"""Exception types shared across the package."""

from __future__ import annotations

from fractions import Fraction


def excerpt(value: object) -> str:
    """A rejected input for an error message, so the message stays small
    whatever the input: a string's repr, or another value's str (a
    Fraction's canonical text), when that is short, else its first 60
    characters and the full length.  A value with no str, such as an int
    past the interpreter's limit on digits or a list nested past its
    recursion limit, is described by its size."""
    try:
        text = value if type(value) is str else str(value)
    except (ValueError, RecursionError):   # past the digit limit, or nested too deep
        return _size(value)
    if len(text) <= 60:
        return repr(text) if type(value) is str else text
    head = repr(text[:60]) if type(value) is str else text[:60]
    return f"{head}... ({len(text)} characters)"


def _size(value: object) -> str:
    """A value too long to print, by its type and, for an int or a
    Fraction, its bit lengths."""
    if type(value) is int:
        return f"<int of {value.bit_length()} bits>"
    if type(value) is Fraction:
        n, d = value.as_integer_ratio()
        return f"<Fraction of {n.bit_length()} bits over {d.bit_length()} bits>"
    return f"<{type(value).__name__} too long to print>"


class FlipClusterError(Exception):
    """Base class for all package-specific errors."""


class SegmentOverflow(FlipClusterError):
    """A computation ran off the end of a finite line segment.

    Raised when a parameter lies outside a line's range, or when a height
    is not transferable across a wall.  Carries the offending parameter,
    and the T-edge of the wall when there is one.
    """

    def __init__(self, message: str, *, edge: object = None, param: object = None):
        super().__init__(message)
        self.edge = edge
        self.param = param


class InvalidPointError(FlipClusterError, ValueError):
    """A point reference does not belong to the tree or piece in question."""


class NotOnLineError(FlipClusterError, ValueError):
    """A tree point was expected to lie on a given line but does not."""


class ClusterValidationError(FlipClusterError, ValueError):
    """An instance description violates the wellformedness rules.

    ``problems`` is a list of (code, context, message) triples; the string
    form lists every problem so a failing file can be fixed in one pass.
    """

    def __init__(self, problems: list[tuple[str, str, str]]):
        self.problems = problems
        lines = [f"[{code}] {ctx}: {msg}" for code, ctx, msg in problems]
        super().__init__("instance validation failed:\n" + "\n".join(lines))


class FeatureMapError(FlipClusterError, ValueError):
    """A feature-vertex map of marked trees breaks feature adjacency."""


class SizeCapError(FlipClusterError):
    """An exhaustive routine refused an input above its size cap."""


class NonConvexObjective(FlipClusterError):
    """The convexity certificate of a piecewise-linear objective failed."""


class ObjectiveStructureError(FlipClusterError):
    """A piecewise-linear objective couples variables in an unsupported shape."""


class RemeasureMismatch(FlipClusterError):
    """A minimized distance disagrees with its re-measure on ints at its own
    frame: the crossing path at the argmin does not have the minimized
    length."""


class GlueMismatch(FlipClusterError):
    """Two consecutive segments of a special path fail to glue: the exit of
    one, transferred across their wall, is not the entry of the next."""


class RationalTooLong(FlipClusterError, ValueError):
    """A rational has more digits than the interpreter writes as a string."""


class WitnessMismatch(FlipClusterError):
    """The isometry search built a triple that verify_good rejects."""
