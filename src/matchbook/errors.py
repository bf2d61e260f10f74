"""Semantic exception hierarchy for the matchbook engine.

Every failure mode callers are expected to branch on gets its own class.
Configuration problems (anything that should make the CLI exit with status 2)
derive from :class:`InvalidConfig`; liquidity droughts (CLI exit status 3)
surface as :class:`NoLiquidity`.
"""

from __future__ import annotations


class MatchbookError(Exception):
    """Base class for all engine errors."""


class NonPositiveAsk(MatchbookError):
    """The internal ask is zero or negative; the book is ill-formed."""


class EmptyBook(MatchbookError):
    """An operation needed at least one candidate entry."""


class NoLiquidity(MatchbookError):
    """The reachable set is empty: no liquid entry to bid with."""


class StepBeforeSchedule(MatchbookError):
    """A threshold was requested for a step before the schedule starts."""


class NotExecuted(MatchbookError):
    """A post-execution operation was applied to an unexecuted agent."""


class OutOfRange(MatchbookError):
    """A value fell outside its documented domain."""


class InvalidConfig(MatchbookError):
    """A configuration value or combination is unusable."""


class MissingOverride(InvalidConfig):
    """An experiment runner did not receive a scenario constant it needs."""


class EmptyGrid(InvalidConfig):
    """A parameter sweep was requested with no grid points."""
