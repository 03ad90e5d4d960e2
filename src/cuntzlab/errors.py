"""Exception types shared across the package."""

__all__ = [
    "CuntzLabError",
    "EmptyWord",
    "AlphabetMismatch",
    "NotUnit",
    "NotUnitary",
    "NotPrefixFree",
    "Inconsistent",
    "NotNormalized",
    "NotInvariant",
    "ValidationFailed",
    "NotInCatalog",
    "SchemaError",
    "GateFailed",
]


class CuntzLabError(Exception):
    """Base class for all errors raised by this package."""


class EmptyWord(CuntzLabError):
    """A nonempty word was required."""


class AlphabetMismatch(CuntzLabError):
    """Operands live over different alphabets (different n)."""


class NotUnit(CuntzLabError):
    """A parameter vector was required to have norm 1."""


class NotUnitary(CuntzLabError):
    """A matrix was required to be unitary."""


class NotPrefixFree(CuntzLabError):
    """A set of words was required to be a prefix code."""


class Inconsistent(CuntzLabError):
    """A linear system that should admit a state solution does not."""


class NotNormalized(CuntzLabError):
    """A sandwich transform has mass other than 1, so it defines no state."""


class NotInvariant(CuntzLabError):
    """A subspace was required to be invariant under every s_i*."""


class ValidationFailed(CuntzLabError):
    """An extracted presentation failed its round-trip validation."""


class NotInCatalog(CuntzLabError):
    """The representation is outside the implemented catalog."""


class SchemaError(CuntzLabError):
    """An input document does not match the expected schema."""


class GateFailed(CuntzLabError):
    """A parsed state failed its positivity sanity gate."""
