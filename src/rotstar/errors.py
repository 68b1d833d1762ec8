"""The package's error types, one per exit code of ``rotstar.cli``: 2 for a
``ConfigError``, 3 for a ``SolverError`` and 4 for an
``AmbiguousClassificationError``.  Any other exception is a bug."""

__all__ = ["ConfigError", "SolverError", "AmbiguousClassificationError"]


class ConfigError(ValueError):
    """A wrong request: an invalid config, or an analysis the star does not
    admit (e.g. the reduced form of a Rayleigh-unstable rotation)."""


class SolverError(RuntimeError):
    """A computation that applies to the request failed: no SCF convergence,
    a grid too small for the star, a star without a surface, and the like."""


class AmbiguousClassificationError(RuntimeError):
    """An eigenvalue could not be classified as essential-cluster or discrete."""
