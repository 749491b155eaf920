"""Exception types shared across the toolkit.

CapeskitError covers everything caused by bad input (files, configs,
incompatible grids); the CLI maps it to exit code 2. Anything else that
escapes is an internal failure and maps to exit code 1. It subclasses
ValueError, so validators that raise it still raise a ValueError.
"""


class CapeskitError(ValueError):
    """Base class for user/input errors."""


class GridFormatError(CapeskitError):
    """Malformed GRD1 file. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SpecMismatchError(CapeskitError):
    """Binary field operation on grids with different GridSpecs."""


class UnitError(CapeskitError):
    """Field carries the wrong units tag for the requested operation."""


class ScoreUndefinedError(CapeskitError):
    """Score requested over zero samples or a zero-variance field."""


class DegenerateBenchmarkError(CapeskitError):
    """Synthetic benchmark config cannot produce the required anomaly
    category coverage."""
