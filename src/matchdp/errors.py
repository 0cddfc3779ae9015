"""Exception hierarchy shared by every matchdp module.

All domain failures derive from :class:`MatchDPError` so callers (and the
command line front end) can separate model errors from input parsing errors:
parsing problems raise :class:`ParseError`, everything else signals a
violated model precondition or a numerical procedure that gave up.
"""

from __future__ import annotations


class MatchDPError(Exception):
    """Base class for all matchdp domain errors."""


class ParseError(MatchDPError):
    """A graph, policy, or manifest file could not be parsed or validated."""


class WrongGraphClass(MatchDPError):
    """An operation was asked to run on a graph outside its supported class."""


class NotCompleteMinusOne(WrongGraphClass):
    """The reduction to the two-by-two model needs a complete-minus-one graph."""


class SubsetExplosion(MatchDPError):
    """Exhaustive subset enumeration would exceed the configured node budget."""


class ActionSpaceBudget(MatchDPError):
    """Enumerating admissible matchings would exceed the action budget."""


class Inadmissible(MatchDPError):
    """A matching vector violates the per-node availability constraints."""


class MissingDecision(MatchDPError, KeyError):
    """A table policy has no decision stored for a state and no fallback."""

    # KeyError's own str() would print the message in quotes.
    __str__ = MatchDPError.__str__


class Unstable(MatchDPError):
    """Arrival rates violate the strict subset drift condition."""

    def __init__(self, message: str, violations: tuple = ()):  # noqa: ANN001
        super().__init__(message)
        self.violations = violations


class NoConvergence(MatchDPError):
    """An iterative solver hit its backup limit before the span of a
    backup's change met tolerance; ``residual`` is the last span."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
