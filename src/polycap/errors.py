"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError -> 2, ResourceLimitError -> 3;
any other exception ends in one 'error:' line and exit code 4.
"""
from __future__ import annotations


class PolycapError(Exception):
    """Base class for package errors."""


class InputError(PolycapError):
    """Malformed or out-of-contract input (bad file, bad dimensions, bad scalars)."""


class ResourceLimitError(PolycapError):
    """Requested size exceeds a hard cap; refused instead of running open-ended."""


class NotHyperbolicError(PolycapError):
    """A pencil produced roots incompatible with hyperbolicity.

    Carries the offending roots so diagnostics can report them.
    """

    def __init__(self, message: str, roots=()):
        super().__init__(message)
        self.roots = tuple(roots)
