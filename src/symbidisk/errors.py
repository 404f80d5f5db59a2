"""Semantic exceptions shared across the package."""


class SymbidiskError(Exception):
    """Base error for this package."""


class ValidationError(SymbidiskError, ValueError):
    """Inputs violate a documented precondition (domain, shape, range)."""


class NumericsError(SymbidiskError):
    """A numerical routine could not meet its contract."""

