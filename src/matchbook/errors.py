"""The two exceptions a caller tells apart.

:class:`InvalidConfig` is a refused configuration.  :class:`NoLiquidity` is
a drought, and comes only from ``PreferenceBook.best_bid`` and
``PreferenceBook.v_reach``, the queries that need a liquid row;
``PreferenceBook.metrics`` returns None for a drought instead.  Any other
argument outside its domain raises ``ValueError``, as ``max([])`` does, or
``OverflowError`` for a result past the float range.  Which errors the CLI
turns into which exit status is one table in ``cli.main``:
:class:`InvalidConfig`, ``ValueError`` and ``OverflowError`` exit 2,
:class:`NoLiquidity` exits 3, and any other exception is a bug that keeps
its traceback.
"""


class InvalidConfig(Exception):
    """A configuration value or combination is unusable.

    Not a ValueError: ``config_from_mapping`` wraps a ValueError from the
    objects it builds as "bad config for ...", and must pass this through.
    """


class NoLiquidity(Exception):
    """The reachable set is empty: no liquid entry to bid with."""
