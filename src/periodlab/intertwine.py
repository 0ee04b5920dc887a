"""Degenerate principal-series sections and intertwining integrals.

Non-archimedean places: the spherical vector of the induced model
transforms under the mirabolic parabolic through the inducing character,
so its value depends only on the minimal valuation ("content") of the
last row.  The intertwining integral over the (n-k)-dimensional
unipotent slice is evaluated exactly by shell decomposition: the
integration lattice is partitioned by the valuation vector, each shell
contributes its volume times (aX)^t, and the resulting geometric series
are summed in closed form as rational functions in X = q^{-s}: the
shell t = 0 and the two series over t >= 1 are summed as numerators over
the one denominator 1 - q^{n-k} aX.  The result is compared with the
product-formula target

    (1 - aX) / (1 - a q^{n-k} X).

Complex places: the minimal-type basis sections

    phi_beta(g) = prod_j g[n,j]^{beta_j} / (sum_j |g[n,j]|^2)^{eta_bar + s}

are integrated numerically over the same slice with the twice-Lebesgue
measure per complex coordinate (local constant c_v = 1).  Angular
integrals are trigonometric-monomial circle integrals (evaluated with an
exact-for-trig trapezoid rule); the radial integral over [0, inf)^(n-k)
is one tensor-product double-exponential sum in complex arithmetic,
checked whole against its polar form, a scalar integral of an independent
rule (see ``quadrature``).  The target is the Gamma_C shift-ratio product

    prod_{t=1..n-k} 2*pi / (s + eta_bar - t)

for the distinguished multi-index beta0 = (0, ..., 0, eta_bar - eta),
and 0 otherwise.  When k = n there is no integral: the value is the
section at the identity, whose last row is e_n, so it is 1 for beta0 and
0 otherwise.

The symbolic constant-term assembly lists one summand per k with its
global L-ratio token, its normalizing prefactor and the extra factor
required when the global value at 0 vanishes, and audits that the
normalizing branch matches the declared vanishing order.

The archimedean path is floating point: importing this module loads only
``lfactors``, ``quadrature`` and ``errors``.  The exact arithmetic of the
shell sums (``laurent`` and, through it, ``cyclotomic``) is imported by
the functions that build exact values, as ``import periodlab.laurent as
laurent``: once loaded, a lookup in ``sys.modules`` (see ``lfactors``).
"""

from __future__ import annotations

import cmath

from .lfactors import VanishingToken, gamma_ratio, normalizing_factor, unramified_lratio
from .errors import AuditFailed, ConfigError
from . import quadrature


# -- results ----------------------------------------------------------------------


class IntertwineResult:
    """Computed value, closed-form target and a pass/fail verdict."""

    def __init__(self, value, target, verdict: bool, tolerance: float = 0.0,
                 error_estimate: float = 0.0) -> None:
        self.value = value
        self.target = target
        self.verdict = verdict
        self.tolerance = tolerance
        self.error_estimate = error_estimate


# -- non-archimedean shell sums ----------------------------------------------------


def shell_sum(n: int, k: int, a: Cyc, q: int) -> LaurentRatio:
    """Exact value of the spherical intertwining integral at the identity.

    The integrand on the shell where the most negative coordinate
    valuation is -t equals (aX)^t; the shell where all coordinates are
    integral has volume 1 and the shell at level t >= 1 has volume
    q^{mt} - q^{m(t-1)} (m = n - k integration coordinates).  Summing the
    two geometric series gives the value; the summation is an identity of
    rational functions regardless of convergence.  The shell t = 0 and
    the two series are summed as numerators over the one denominator
    1 - q^m aX.
    """
    import periodlab.laurent as laurent

    m = n - k
    if m == 0:
        return laurent.LaurentRatio.one(a.n)
    # sum_{t>=1} q^{mt} (aX)^t = q^m aX / den and
    # sum_{t>=1} q^{m(t-1)} (aX)^t = aX / den over den = 1 - q^m aX; the
    # shell t = 0 is den / den
    XPoly, field = laurent.XPoly, a.n
    scaled = a * q**m
    den = XPoly(field, {0: laurent.Cyc.rational(1, field), 1: -scaled})
    return laurent.LaurentRatio(den + XPoly(field, {1: scaled}) - XPoly(field, {1: a}), den)


def nonarch_intertwining(n: int, k: int, a: Cyc, q: int) -> IntertwineResult:
    """Shell-sum evaluation against the product-formula target, exactly."""
    if not 1 <= k <= n:
        raise ConfigError("k out of range")
    value = shell_sum(n, k, a, q)
    target = unramified_lratio(n, k, a, q)
    return IntertwineResult(value=value, target=target, verdict=(value == target))


# -- archimedean numerical integrals ------------------------------------------------


# Largest |eta|, and largest |Re s| and |Im s|, an archimedean integral
# takes: its integrand is evaluated in doubles, which hold every integer up
# to 2^53, and a larger s overflows them.
MAX_ETA = 2**53


def _convergence_bound(n: int, k: int, eta_high: int, beta_sum_inner: int) -> float:
    """Smallest admissible Re(s): the radial integral needs
    2(eta_high + Re s) > 2(n - k) + sum of inner beta entries.  A float:
    ``arch_section`` holds every entry within MAX_ETA."""
    return (n - k) + beta_sum_inner / 2.0 - eta_high


def arch_section(n: int, eta_pair: tuple[int, int], beta: tuple[int, ...]) -> None:
    """Check the minimal-type section an archimedean integral integrates:
    raises ConfigError unless eta_low <= 0, eta_high >= n, both lie within
    MAX_ETA, and beta has n nonnegative entries summing to
    eta_high - eta_low."""
    eta_low, eta_high = eta_pair
    if eta_low > 0 or eta_high < n:
        raise ConfigError("eta pair must satisfy eta_low <= 0 and eta_high >= n")
    if max(eta_high, -eta_low) > MAX_ETA:
        raise ConfigError("eta pair entries must lie within 2^53, the integers a double holds")
    if len(beta) != n:
        raise ConfigError("beta must have length n")
    if any(b < 0 for b in beta):
        raise ConfigError("beta entries must be nonnegative")
    if sum(beta) != eta_high - eta_low:
        raise ConfigError("beta entries must sum to eta_high - eta_low")


def arch_intertwining(
    n: int,
    k: int,
    eta_pair: tuple[int, int],
    beta: tuple[int, ...],
    s: complex,
    tol: float = 1e-9,
) -> IntertwineResult:
    """Numerically integrate the section over the rank n-k slice.

    The slice matrix has last row (0, ..., 0, u_k, ..., u_{n-1}, 1); the
    integrand's angular dependence in each coordinate is a pure phase
    e^{i beta_j theta_j}, so the integral factors into circle integrals
    times one (n-k)-dimensional radial integral, which
    ``quadrature.halfline_with_fallback`` evaluates in one call, to the
    relative tolerance ``tol``: ConfigError unless it is positive and finite.
    """
    if not 0 < tol < float("inf"):
        raise ConfigError(f"tol must be a positive number, got {tol}")
    if not 1 <= k <= n:
        raise ConfigError("k out of range")
    arch_section(n, eta_pair, beta)
    if max(abs(s.real), abs(s.imag)) > MAX_ETA:
        raise ConfigError(f"s = {s} has a part beyond 2^53 in absolute value")
    eta_low, eta_high = eta_pair
    m = n - k
    is_beta0 = tuple(beta) == (0,) * (n - 1) + (eta_high - eta_low,)

    if m == 0:
        # no integral: the section at the identity, whose last row is e_n
        value = complex(1) if is_beta0 else 0j
        return IntertwineResult(value=value, target=value, verdict=True)

    # positions 1..k-1 of the last row are zero: a positive beta there
    # kills the integrand identically
    if any(beta[j] > 0 for j in range(k - 1)):
        return IntertwineResult(value=0j, target=0j, verdict=True)

    inner = [beta[j] for j in range(k - 1, n - 1)]  # exponents on u_k..u_{n-1}
    bound = _convergence_bound(n, k, eta_high, sum(inner))
    if s.real <= bound + 0.5:
        raise ConfigError(
            f"Re(s) = {s.real} not above the enforced bound {bound + 0.5}"
        )

    angular = complex(1)
    for b in inner:
        angular *= quadrature.trapezoid_circle(b)

    # (1 + |u|^2)^-(eta_high + s) as a function of |u|^2; a real power when s is real
    power = -(eta_high + s) if s.imag else -(eta_high + s.real)
    radial, radial_err = quadrature.halfline_with_fallback(
        lambda u: (1.0 + u) ** power, [b + 1 for b in inner], tol
    )
    # each coordinate's twice-Lebesgue measure gives r^(beta+1) * 2 dr
    radial *= 2.0 ** m
    radial_err *= 2.0 ** m
    value = angular * radial

    shift_product = gamma_ratio(eta_high, m, s)
    if is_beta0:
        target = shift_product
        verdict_tol = 1e-6 * abs(target)
    else:
        target = complex(0)
        verdict_tol = 1e-8 * abs(shift_product)
    # the circle integrals are 0 unless every b is 0, where the trapezoid sum
    # of ones is exact: all of a nonzero-b angular factor is rounding
    angular_err = abs(angular) if any(inner) else 0.0
    return IntertwineResult(
        value=value,
        target=target,
        verdict=abs(value - target) <= verdict_tol,
        tolerance=verdict_tol,
        error_estimate=abs(angular) * radial_err + angular_err * abs(radial),
    )


# -- constant-term assembly -----------------------------------------------------------


class ConstantTermEntry:
    """One summand k: its L-ratio token, its prefactor
    (i^{deg/2} * Delta)^{k - n} and its delta symbol; equal by value."""

    def __init__(self, k: int, lratio_token: str, prefactor: complex, delta_symbol: str) -> None:
        self.k = k
        self.lratio_token = lratio_token
        self.prefactor = prefactor
        self.delta_symbol = delta_symbol

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConstantTermEntry):
            return NotImplemented
        return vars(self) == vars(other)


def assemble_constant_term(
    n: int,
    token: VanishingToken,
    delta_constant: complex,
    degree_over_q: int,
    delta_branch: str | None = None,
) -> list[ConstantTermEntry]:
    """Symbolic constant-term expansion, audited for holomorphy at s = 0.

    Token semantics: the global L-function of the character is entire
    (two-sided case) and vanishes at 0 to the declared order.  Each
    summand k < n carries the ratio L(s - n + k)/L(s), whose pole order
    at s = 0 equals the declared vanishing order of the denominator; the
    k = n summand is 1.  The normalizing branch the token selects
    (``lfactors.normalizing_factor``) has a zero of that same order, so
    every summand is holomorphic exactly when the branch in use is that
    one: AuditFailed refuses a ``delta_branch`` that contradicts the
    token.  A rank n above ``weights.MAX_RANK`` raises ConfigError, and an
    odd degree with a vanishing token raises ConfigError, before that; after
    it, so does a prefactor that is not a finite nonzero complex double.
    """
    from .weights import MAX_RANK  # here: the archimedean path loads no weights

    if n > MAX_RANK:
        raise ConfigError(f"rank {n} is above the limit of {MAX_RANK}")
    branch, symbol = normalizing_factor(token, degree_over_q)
    if delta_branch not in (None, branch):
        raise AuditFailed(
            f"normalizing branch {delta_branch!r} contradicts vanishing order "
            f"{token.order_zero}"
        )
    base = (1j) ** (degree_over_q // 2) * complex(delta_constant)
    entries = []
    for k in range(1, n + 1):
        try:
            prefactor = base ** (k - n)
        except (ZeroDivisionError, OverflowError):
            prefactor = 0j
        if not prefactor or not cmath.isfinite(prefactor):
            raise ConfigError(f"the prefactor of term_{k} is not a finite nonzero complex double")
        lratio_token = f"L(s{k - n:+d},eta)/L(s,eta)" if k < n else "1"
        entries.append(ConstantTermEntry(k, lratio_token, prefactor, symbol))
    return entries
