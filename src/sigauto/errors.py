"""Exception types and the value classes' base, shared across the package."""


class Fields:
    """Field-wise ``==`` and ``repr`` over a subclass's ``__slots__``, in
    their order, as ``@dataclass`` writes them, without its code generation
    at import.  An instance is unhashable unless its class defines a hash."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class SigautoError(Exception):
    """Base class for every error raised by this package."""


class RejectedInputError(SigautoError, ValueError):
    """An observation or argument was malformed (non-finite, wrong arity)."""


class EmptyInputError(SigautoError, ValueError):
    """An operation that needs at least one observation got none."""


class StalenessError(SigautoError):
    """An incremental update was attempted against an out-of-sync structure."""


class TemporalOrderError(SigautoError):
    """An instant lies in the future of the accumulator or evaluation time."""


class ConfigError(SigautoError, ValueError):
    """Invalid parameter value or inconsistent plugin configuration."""


class UnknownStateError(SigautoError, KeyError):
    """A state id was queried that the model does not contain."""


class InsufficientHistoryError(SigautoError):
    """Not enough observations to anchor a lookahead frontier."""


class SnapshotError(SigautoError):
    """A persisted snapshot is unreadable, truncated or of a wrong version."""
