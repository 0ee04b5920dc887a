"""Numerical quadrature for the archimedean intertwining integrals.

The radial integrands here are smooth, rational-type and decaying on
[0, inf).  The primary path is adaptive Gauss-Kronrod quadrature
(QUADPACK via scipy), run separately on real and imaginary parts so
complex parameters are supported, after the substitution r = t/(1 - t)
onto [0, 1).

The fallback is a self-contained double-exponential (exp-sinh) rule for
[0, inf): nodes

    x_k = exp((pi/2) * sinh(k h)),   dx = (pi/2) * cosh(k h) * x_k dt,

with level doubling until two successive levels agree.  It runs only
when Gauss-Kronrod raises, returns a non-finite value or misses its error
bound; the two routes are never run on the same integral to compare
them.  Each route reports its own error estimate.
"""

from __future__ import annotations

import math

from scipy.integrate import quad

from .errors import QuadratureNotConverged


def adaptive_quad_01(f, tol: float = 1e-10) -> tuple[complex, float]:
    """Integrate a complex-valued function on [0, 1] adaptively."""
    re, re_err = quad(lambda t: f(t).real, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200)
    im, im_err = quad(lambda t: f(t).imag, 0.0, 1.0, epsabs=tol, epsrel=tol, limit=200)
    return complex(re, im), re_err + im_err


def integrate_halfline(f, tol: float = 1e-10) -> tuple[complex, float]:
    """Integral of f over [0, inf) via r = t/(1-t)."""

    def g(t):
        if t >= 1.0:
            return 0j
        r = t / (1.0 - t)
        return f(r) / (1.0 - t) ** 2

    return adaptive_quad_01(g, tol)


def exp_sinh_halfline(f, tol: float = 1e-10, max_level: int = 12) -> tuple[complex, float]:
    """Double-exponential quadrature on [0, inf); independent of scipy."""
    h = 1.0
    previous = None
    value = 0j
    for level in range(max_level):
        total = 0j
        k = 0
        # sum outwards in both directions until terms are negligible
        while True:
            contributed = False
            for sign in ((1,) if k == 0 else (1, -1)):
                t = sign * k * h
                u = 0.5 * math.pi * math.sinh(t)
                if abs(u) > 600.0:  # node far outside double range
                    continue
                x = math.exp(u)
                w = 0.5 * math.pi * math.cosh(t) * x
                if x > 1e280 or w < 1e-300:
                    continue
                term = f(x) * w
                if abs(term) > 1e-280:
                    contributed = True
                total += term
            if k > 4 and not contributed:
                break
            if k > 4000:  # pragma: no cover - runaway integrand
                raise QuadratureNotConverged("exp-sinh node budget exhausted")
            k += 1
        value = total * h
        if previous is not None:
            err = abs(value - previous)
            scale = max(abs(value), 1.0)
            if err <= tol * scale:
                return value, err
        previous = value
        h /= 2.0
    raise QuadratureNotConverged("exp-sinh failed to reach tolerance")


def halfline_with_fallback(f, tol: float = 1e-10) -> tuple[complex, float]:
    """Gauss-Kronrod primary, exp-sinh fallback on failure."""
    try:
        value, err = integrate_halfline(f, tol)
        if math.isfinite(abs(value)) and err <= max(10 * tol, 1e-6 * max(abs(value), 1.0)):
            return value, err
    except Exception:
        pass
    return exp_sinh_halfline(f, tol)


def trapezoid_circle(exponent: int, points: int = 256) -> complex:
    """Trapezoid rule for the full-circle integral of e^{i * exponent * t}.

    The rule is exact for trigonometric polynomials of degree < points,
    so the result is 2*pi for exponent 0 and numerically zero otherwise;
    it is used to keep the angular factors an honest numerical statement.
    """
    total = 0j
    for k in range(points):
        theta = 2 * math.pi * k / points
        total += complex(math.cos(exponent * theta), math.sin(exponent * theta))
    return total * (2 * math.pi / points)
