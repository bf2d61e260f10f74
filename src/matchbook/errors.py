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
its traceback.  A message quotes a refused value through :func:`quoted`,
so a value of any length gives a short line.
"""

#: The most characters of a value's repr that a message quotes.
QUOTED_CHARS = 80


def cut(text: str, chars: int = QUOTED_CHARS) -> str:
    """``text``, cut after ``chars`` characters where it is longer."""
    return text if len(text) <= chars else f"{text[:chars]}... ({len(text)} characters)"


def quoted(value: object) -> str:
    """``repr(value)`` as :func:`cut` cuts it; an integer too long to print is named by its bit length."""
    try:
        return cut(repr(value))
    except ValueError:  # str() refuses an int of more than sys.get_int_max_str_digits() digits
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"


class InvalidConfig(Exception):
    """A configuration value or combination is unusable.

    Not a ValueError: ``config_from_mapping`` wraps a ValueError from the
    objects it builds as "bad config for ...", and must pass this through.
    """


class NoLiquidity(Exception):
    """The reachable set is empty: no liquid entry to bid with."""
