"""Exception hierarchy shared by every module.

All exceptions carry a ``details`` dict so the command line layer can emit
machine readable error objects without parsing message strings.
"""

from __future__ import annotations


class AdiakitError(Exception):
    """Base class for everything raised intentionally by this package."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details


class ShapeError(AdiakitError, ValueError):
    """An array has the wrong shape (non-square, length mismatch, ...)."""


class InputError(AdiakitError, ValueError):
    """A value is malformed: bad norm, non-Hermitian input, invalid index."""


class DomainError(AdiakitError, ValueError):
    """A scalar argument lies outside its admissible range (e.g. s not in [0, 1])."""


class ConfigError(AdiakitError, ValueError):
    """Unknown model name, missing parameter, malformed scenario field."""


class DegeneracyError(AdiakitError):
    """An eigenvalue gap closed (or crossed zero) along the drive path."""


class CrossingError(AdiakitError):
    """Jordan block structure changed, or eigenvalue curves collided, mid-track."""


class ConditioningError(AdiakitError):
    """A similarity or divisor became numerically untrustworthy.

    ``result`` holds the best-effort object computed before the check fired,
    when one exists.
    """

    def __init__(self, message: str, result=None, **details):
        super().__init__(message, **details)
        self.result = result


class StiffnessError(AdiakitError):
    """Planned steps exceed the budget, or a generator is not finite."""


class ResolutionError(AdiakitError):
    """A grid is too coarse to resolve phases or gauge continuity."""


class NumericalError(AdiakitError):
    """An internal numerical decision could not be made reliably."""
