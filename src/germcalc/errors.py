"""Shared exception types, and the guard of the immutable value types.

Everything raised on purpose by this package derives from GermcalcError, so
callers (in particular the command line driver) can map failures to exit
codes without matching on message strings.
"""


class _Frozen:
    """Refuses attribute assignment and deletion; constructors use
    object.__setattr__, and so does the restore step of copy and pickle."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        """state is (None, slots), what copy and pickle save of a class
        with __slots__ and no __dict__."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class GermcalcError(Exception):
    """Base class for all errors raised by germcalc."""


class DimensionError(GermcalcError, ValueError):
    """Operands live in different variable counts."""


class PrecisionError(GermcalcError, ValueError):
    """A truncation degree is too small for the requested computation."""


class LimitError(GermcalcError, ValueError):
    """A degree past the packed key width, or a parser product past its term budget."""


class InversionError(GermcalcError, ValueError):
    """A formal map with singular linear part cannot be inverted."""


class CrossCheckError(GermcalcError, RuntimeError):
    """An independent re-check contradicts a verdict already reached, so
    the verdict cannot be trusted."""


class ParseError(GermcalcError, ValueError):
    """An expression or manifest could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
