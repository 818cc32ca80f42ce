"""Exception types shared across the package."""


class EwlError(Exception):
    """Base class for all ewlext errors."""


class DomainError(EwlError):
    """An angle is outside its allowed domain after reduction."""


class ExactnessError(EwlError):
    """Exact arithmetic was requested but the inputs do not support it."""


class ToleranceError(EwlError):
    """Float values lie too close to the comparison tolerance to be
    compared reliably."""


class InvalidClassParams(EwlError):
    """Extension-class parameters violate a defining congruence.

    The message names the violated congruence.
    """


class NotDiscreteError(EwlError):
    """The requested family has a continuous parameter set.

    ``congruence`` describes the defining constraint instead of a finite list.
    """

    def __init__(self, message, congruence):
        super().__init__(message)
        self.congruence = congruence


class DimensionMismatchError(EwlError):
    """Two games or vectors have incompatible dimensions."""
