"""Exception taxonomy shared across the package."""

from __future__ import annotations

__all__ = [
    "CaError", "OutOfDomainError", "DomainMismatchError", "OutOfRangeError", "NotElementaryError",
    "NotOneDimensionalError", "LatticeTooSmallError", "NeighborhoodMismatchError", "AlphabetMismatchError",
    "CenterNotInNeighborhoodError", "ResourceCapExceededError", "RuleFormatError",
]


class CaError(Exception):
    """Base class for all errors raised by this package."""


class OutOfDomainError(CaError):
    """A cell required by an operation lies outside the window's domain."""


class DomainMismatchError(CaError):
    """Two window configurations do not share the same domain."""


class OutOfRangeError(CaError, ValueError):
    """An argument the call does not accept: a number outside its
    documented range, a value that is not an integer where one is required
    (a bool, float or str), a table of the wrong length, repeated offsets
    or cells, or an unknown scheme.  It is also a ValueError, so callers
    that catch ValueError keep working."""


class NotElementaryError(CaError):
    """The rule is not a binary radius-1 one-dimensional rule."""


class NotOneDimensionalError(CaError):
    """The operation is only defined for one-dimensional rules."""


class LatticeTooSmallError(CaError):
    """The cyclic lattice is too short to host the rule's neighborhood."""


class NeighborhoodMismatchError(CaError):
    """Two rules were expected to share a neighborhood but do not."""


class AlphabetMismatchError(CaError):
    """Two rules were expected to share an alphabet but do not."""


class CenterNotInNeighborhoodError(CaError):
    """The operation requires offset 0 to belong to the neighborhood."""


class ResourceCapExceededError(CaError):
    """An enumeration would exceed the configured resource cap."""


class RuleFormatError(CaError):
    """A rule document is malformed."""
