"""Shared exception types, and the ceiling on what one build may allocate."""

MAX_VALUES = 50_000_000  # values one array of a build may hold (400 MB of float64); a larger build is refused


class CarlesonLabError(Exception):
    """Base class for all library errors."""


class OutsideDomainError(CarlesonLabError, ValueError):
    """A point lies outside the domain the operation requires."""


class ParameterError(CarlesonLabError, ValueError):
    """An argument is outside its documented range."""


class ValidationError(CarlesonLabError, ValueError):
    """A composite input (measure, spec file, point set) violates its invariants."""


class AnalysisError(CarlesonLabError, RuntimeError):
    """A numerical procedure could not produce a trustworthy result."""


class CoverageError(AnalysisError):
    """A candidate net is too sparse to certify a covering construction."""
