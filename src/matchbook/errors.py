"""Semantic exception hierarchy for the matchbook engine.

Every failure mode callers are expected to branch on gets its own class.
Configuration problems derive from :class:`InvalidConfig`.  A liquidity
drought is an ordinary outcome: ``PreferenceBook.metrics`` returns None for
it, and :class:`NoLiquidity` comes only from ``PreferenceBook.best_bid`` and
``PreferenceBook.v_reach``, the queries that need a liquid row.  Which
errors the CLI turns into which exit status is one table in ``cli.main``:
:class:`InvalidConfig`, :class:`NonPositiveAsk`, :class:`OutOfRange`,
``ValueError`` and ``OverflowError`` exit 2, :class:`NoLiquidity` exits 3,
and any other exception is a bug that keeps its traceback.
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
