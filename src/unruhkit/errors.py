"""Exception types shared across the package."""


class UnruhKitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(UnruhKitError):
    """A scalar argument lies outside its physical domain."""


class NotHermitianError(UnruhKitError):
    """Matrix asymmetry exceeds the Hermiticity tolerance."""


class NotPSDError(UnruhKitError):
    """Matrix has an eigenvalue too negative to be treated as positive semidefinite."""


class NegativeRadicandError(UnruhKitError):
    """A closed-form surd argument is negative beyond the round-off clamp window."""


class SingularPointError(UnruhKitError):
    """A closed-form expression is evaluated where one of its terms is undefined."""


class FamilyEvalError(UnruhKitError):
    """A parametrized state family failed to produce a usable matrix."""


class ParseError(UnruhKitError):
    """A sweep specification (flags or config file) is malformed."""


class UnknownPresetError(UnruhKitError):
    """Requested figure preset name does not exist."""
