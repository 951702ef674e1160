"""Exception types shared across the package.

The split mirrors how failures surface at the command line: configuration
problems (bad inputs, impossible parameter combinations) versus consistency
problems detected while computing.
"""

__all__ = [
    "CoopD2DError",
    "ConfigurationError",
    "DivergenceError",
    "EnumerationBudgetError",
    "ConsistencyError",
    "SingularChannelError",
]


class CoopD2DError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(CoopD2DError, ValueError):
    """Invalid or inconsistent user-supplied configuration."""


class DivergenceError(ConfigurationError):
    """A requested moment integral does not converge.

    Raised instead of returning inf/nan so callers can distinguish a
    mathematically divergent request from a numerical failure.
    """


class EnumerationBudgetError(CoopD2DError):
    """Exact enumeration refused because the term count exceeds the budget."""


class ConsistencyError(CoopD2DError):
    """Derived quantities violate an internal conservation law."""


class SingularChannelError(CoopD2DError):
    """Composite channel unusable even after the conditioning fallback."""
