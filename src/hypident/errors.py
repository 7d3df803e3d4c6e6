"""Exception types shared across the package."""

from __future__ import annotations


class HypidentError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HypidentError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateConfigurationError(HypidentError, RuntimeError):
    """The check is not usable at this point: the kernel quadratic has a double
    root or a root at 0 or 1, a pass would be vacuous (scale <= tolerance), or
    |Re t| exceeds the main identity's cancellation cap."""


class UsageError(HypidentError, ValueError):
    """Invalid run configuration (CLI exit code 64)."""
