"""Exception hierarchy for the varheat package.

Every error raised on a numerical or contract violation derives from
:class:`VarheatError`, so callers can catch one type at the CLI boundary.
Configuration problems use :class:`ConfigError` (separate exit code).
"""


class VarheatError(Exception):
    """Base class for all numerical / contract errors in this package."""


class DomainError(VarheatError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class NonPositiveConductivity(VarheatError, ValueError):
    """A conductivity sample is zero or negative somewhere on [0, 1]."""


class MalformedTable(VarheatError, ValueError):
    """A tabulated coefficient file violates its format contract."""


class ToleranceNotReached(VarheatError):
    """A refinement or quadrature error estimate misses its tolerance."""


class OrderTooHigh(VarheatError, ValueError):
    """A term table would exceed its tuple limit (cost ~ quad_order**n)."""


class ShiftTooSmall(VarheatError, ValueError):
    """Regularization shift below the travel-time span; overflow risk."""


class RootMissed(VarheatError):
    """The root finder found fewer roots than modes requested, or could not
    certify them by sign changes."""


class NoConvergence(VarheatError):
    """A solver or an approximation failed to converge or to resolve."""


class DenominatorNearZero(VarheatError):
    """The contour passes too close to a zero of the denominator."""


class TailTooLarge(VarheatError):
    """The contour ends too early to bound the truncation error at some time."""


class SingularPartition(VarheatError, ValueError):
    """An interface partition has a zero-width or disordered cell."""


class TooManyTerms(VarheatError, ValueError):
    """A brute-force enumeration would exceed its term budget."""


class ConfigError(Exception):
    """A run configuration file or CLI option is invalid (exit code 2)."""
