"""Exception types shared across the package."""

from __future__ import annotations


def excerpt(value: object) -> str:
    """A rejected input for an error message, so the message stays small
    whatever the input: its repr when that is short, else the first 60
    characters of the string (of the repr, for another value) and the
    full length."""
    text = value if type(value) is str else repr(value)
    if len(text) <= 60:
        return repr(value)
    head = repr(text[:60]) if type(value) is str else text[:60]
    return f"{head}... ({len(text)} characters)"


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
    """A minimized distance disagrees with its re-measure on Fractions: the
    crossing path at the argmin does not have the minimized length."""


class GlueMismatch(FlipClusterError):
    """Two consecutive segments of a special path fail to glue: the exit of
    one, transferred across their wall, is not the entry of the next."""


class WitnessMismatch(FlipClusterError):
    """The isometry search built a triple that verify_good rejects."""
