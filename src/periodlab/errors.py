"""Exception taxonomy shared by the verification modules.

The class of an error decides how a CLI run ends.  ``ConfigError`` (an
input a layer refuses, before or during its work), ``PrecisionExhausted``
and ``QuadratureNotConverged`` (a numerical limit) end it with exit
status 2 and one ``error:`` line.  ``ReconstructionFailed``,
``UniquenessFailed`` and ``AuditFailed`` are the failing outcomes of a
check: the handler that runs the check records them and the run exits 1.
"""


class PeriodLabError(Exception):
    """Base class for all package errors."""


class ConfigError(PeriodLabError, ValueError):
    """An input refused by the layer that owns the rule: a malformed or
    inconsistent configuration, flag or argument, or one above a work
    bound.  Also a ValueError, so library callers may catch either."""


class ReduciblePolynomial(ConfigError):
    """The extension or k0 polynomial has a repeated root, found exactly
    (``towers.check_tower``) before any root is sought."""


# -- numerical limits ---------------------------------------------------------

class PrecisionExhausted(PeriodLabError):
    """The working precision cannot place the roots or hold a value: the
    root finder did not converge, two distinct roots lie within its
    tolerance, or a value to reconstruct is so large that the rounding of
    its working digits is above that tolerance."""


class QuadratureNotConverged(PeriodLabError):
    """Quadrature missed its tolerance or node budget, or its cross-check disagreed."""


# -- failing checks -----------------------------------------------------------

class ReconstructionFailed(PeriodLabError):
    """A numeric value is not near a small-height rational."""


class UniquenessFailed(PeriodLabError):
    """Scan found zero or several Weyl elements matching the torus weight."""


class AuditFailed(PeriodLabError):
    """The normalizing branch of a constant term contradicts its vanishing
    token, so a summand would keep its pole at s = 0."""
