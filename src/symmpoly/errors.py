"""Error types shared across the package.

Everything user-input related derives from ValueError so callers can catch
broadly; the CLI maps these to exit code 2.

Every integer argument of the package follows one rule, ``_is_int``: an
integer, numpy's included, and never a bool. ``_check_int`` adds the range
of the site and the error class it raises.
"""
from typing import Optional, Type

import numpy as np


class SymmpolyError(ValueError):
    """Base class for domain/usage errors raised by this package."""


class InvalidDimensionError(SymmpolyError):
    """A dimension argument is outside its valid range."""


class InvalidSizeError(SymmpolyError):
    """A size/count argument is outside its valid range."""


class DegenerateEdgeError(SymmpolyError):
    """An edge vector is too short for a stable angle computation."""


class DegenerateTorsionError(SymmpolyError):
    """A neighbor edge projects to (nearly) zero in the normal plane."""


class BoundUndefinedError(SymmpolyError):
    """Closed-form bound evaluated outside its validity range."""


class DomainError(SymmpolyError):
    """Parameter outside the mathematical domain of an operation."""


class SupportError(DomainError):
    """Density argument lies outside the distribution's support."""


class ResolutionError(SymmpolyError):
    """Histogram grid too fine for the sample size (bias-dominated)."""


class ReliabilityError(RuntimeError):
    """Too many excluded (degenerate) samples for a trustworthy estimate."""


class ParseError(SymmpolyError):
    """Malformed input record; message names the offending line."""


def _is_int(value) -> bool:
    """An integer, numpy's included, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(name: str, value, lo: int, hi: Optional[int] = None, *,
               error: Type[Exception]) -> int:
    """``value`` as a Python int, so that powers such as n**4 do not overflow
    a fixed-width integer; ``error`` unless it is an integer with
    lo <= value (<= hi, if given)."""
    if not _is_int(value) or value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise error(f"{name} must be an integer {span}, got {value!r}")
    return int(value)
