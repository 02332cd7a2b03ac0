"""Exception types shared across the package.

Configuration problems are ValueErrors so callers that only know stdlib
semantics still catch them; solver problems are RuntimeErrors.  Index
problems in the reduction helpers raise the builtin IndexError / ValueError
directly and are not duplicated here.
"""

from __future__ import annotations


class EntflowError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EntflowError, ValueError):
    """A network configuration violates its contract."""


class NegativeRateError(ConfigError):
    """A rate, frequency, or bath occupation is negative."""


class LengthMismatchError(ConfigError):
    """A per-node or per-bath list has the wrong length."""

    def __init__(self, field: str, expected: int, got: int):
        super().__init__(f"{field}: expected length {expected}, got {got}")
        self.field = field
        self.expected = expected
        self.got = got


class ZeroModesError(ConfigError):
    """The chain must contain at least one node besides the source."""


class EigenFailureError(EntflowError, RuntimeError):
    """The dense eigensolver did not converge."""


class UnstableError(EntflowError, RuntimeError):
    """A steady state was requested for dynamics with no decaying fixed point."""


class ResidualTooLargeError(EntflowError, RuntimeError):
    """A computed solution failed its own residual check."""


class SingularSystemError(EntflowError, RuntimeError):
    """A steady-state linear system is singular (marginal dynamics)."""


class ComplexEigenvalueError(EntflowError, ValueError):
    """A partially transposed spectrum came out complex; the input covariance
    matrix was not a physical two-mode state."""


class NonpositiveOccupationError(EntflowError, ValueError):
    """Effective temperature is undefined for occupation <= 0."""


class MissingDirectionError(EntflowError, ValueError):
    """A figure dataset needs a sweep for a direction that was not supplied."""
