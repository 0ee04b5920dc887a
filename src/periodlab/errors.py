"""Exception taxonomy shared by the verification modules."""


class PeriodLabError(Exception):
    """Base class for all package errors."""


# -- field towers -----------------------------------------------------------

class NotTotallyImaginary(PeriodLabError):
    """A declared k0 is not totally real at working precision."""


class ReduciblePolynomial(PeriodLabError):
    """Extension polynomial has coincident roots at working precision."""


class PrecisionExhausted(PeriodLabError):
    """The root finder did not converge."""


class ReconstructionFailed(PeriodLabError):
    """A numeric value is not near a small-height rational."""


class UnsupportedTower(PeriodLabError):
    """Exact element arithmetic requested outside the rational-base case."""


class InvalidGaloisPermutation(PeriodLabError):
    """Permutation does not commute with conjugation or does not descend."""


# -- weights ---------------------------------------------------------------

class NonDominant(PeriodLabError):
    """Weight entries are not weakly decreasing."""


class NotRegularAlgebraic(PeriodLabError):
    """eta value strictly between 0 and n where a two-sided value is needed."""


class InconsistentSum(PeriodLabError):
    """eta_i + eta_ibar varies across conjugate pairs."""


class AmbiguousSign(PeriodLabError):
    """Archimedean sign undefined: eta strictly between 0 and n."""


# -- Weyl/Kostant ------------------------------------------------------------

class UniquenessFailed(PeriodLabError):
    """Scan found zero or several Weyl elements matching the torus weight."""


# -- L-factors ---------------------------------------------------------------

class PoleHit(PeriodLabError):
    """Gamma shift ratio evaluated at a pole."""


# -- intertwining ------------------------------------------------------------

class ConvergenceRegionViolated(PeriodLabError):
    """Archimedean integral requested outside the enforced region."""


class QuadratureNotConverged(PeriodLabError):
    """Quadrature missed its tolerance or node budget, or its cross-check disagreed."""


class AuditFailed(PeriodLabError):
    """A constant-term term retains a pole, or the branch flags disagree."""


# -- CLI ---------------------------------------------------------------------

class ConfigError(PeriodLabError):
    """Malformed or inconsistent run configuration."""
