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
    """Requested size exceeds a hard cap, or a float result leaves the float
    range; refused instead of running open-ended or reporting inf."""

