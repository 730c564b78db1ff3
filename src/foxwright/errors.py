"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "FoxWrightError",
    "DomainError",
    "ParameterError",
    "DivergentSeriesError",
    "GridError",
    "NoConvergenceError",
    "SingularTransformError",
]


class FoxWrightError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FoxWrightError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ParameterError(FoxWrightError, ValueError):
    """A parameter tuple violates its structural constraints."""


class DivergentSeriesError(FoxWrightError, ValueError):
    """The requested series has no positive radius of convergence."""


class NoConvergenceError(FoxWrightError, ArithmeticError):
    """The stop rule did not fire within the configured term budget."""


class SingularTransformError(DomainError):
    """A parameter transform is singular for these inputs (division by zero)."""


class GridError(FoxWrightError, ValueError):
    """An evaluation grid is empty, unordered, or infeasible for the suite."""
