"""Semantic exception hierarchy.  A plain ValueError marks an argument out of its
range (a grid too small, an unknown mode); the CLI exits 2 on it and on every
ShockcopError but ReconstructionError, which exits 1."""


class ShockcopError(Exception):
    """Base error for this package."""


class DescriptorError(ShockcopError, ValueError):
    """A CLI descriptor string could not be parsed."""


class TableFormatError(ShockcopError, ValueError):
    """A table file is unreadable or malformed (see :mod:`shockcop.tables`), or a table is invalid."""


class GeneratorValidationError(ShockcopError):
    """A generator failed the condition set of its declared class.

    Carries the full validation report in ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class GeneratorKindError(ShockcopError, ValueError):
    """A derived-function kind was requested for an incompatible generator class."""


class IllegalModelError(ShockcopError, ValueError):
    """A shock model combines a coupling and combiner with no supported copula family."""


class ShockStructureError(ShockcopError):
    """Shock-distribution inputs violate the margin/component ordering precondition."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ReconstructionError(ShockcopError):
    """A reconstruction hypothesis or postcondition failed.

    ``assumption`` names the failed condition; ``witness`` locates it.
    """

    def __init__(self, assumption, message, witness=None):
        super().__init__(f"{assumption}: {message}")
        self.assumption = assumption
        self.witness = witness


class MalformedCdfError(ShockcopError):
    """A quantile transform returned an infinite value for an interior probability."""
