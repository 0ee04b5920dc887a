"""Exact local L-factor arithmetic and finite-field Gauss sums.

Non-archimedean unramified factors live in X = q^{-s}: the standard
factor is 1/(1 - aX) with a the Hecke character's value on a uniformizer,
so the ratio attached to the k-th constant-term summand is

    (1 - aX) / (1 - a q^{n-k} X),

an exact rational function over a cyclotomic coefficient field.

Archimedean factors are only ever consumed through ratios of shifted
Gamma_C values, which satisfy value(s)/value(s+1)-type recursions with
steps 2*pi/(s + m - t); these are evaluated in floating point.

Gauss sums are the conductor-exponent-one specialization: a finite sum
over the units of a residue field, exact in Q(zeta_{lcm(q-1, p)}).

``cyclotomic``, ``laurent`` and ``intpoly`` are imported by the functions
that build exact values, so ``gamma_ratio``'s callers load no exact
arithmetic.
"""

from __future__ import annotations

import itertools
import math

from .errors import ConfigError


# -- unramified ratios ---------------------------------------------------------


def unramified_lratio(n: int, k: int, a: Cyc, q: int) -> LaurentRatio:
    """L(s - n + k)/L(s) for the unramified character with value a at a
    uniformizer of residue size q: (1 - aX)/(1 - a q^{n-k} X)."""
    if not 1 <= k <= n:
        raise ConfigError("k out of range")
    from .laurent import LaurentRatio, XPoly

    field = a.n
    one = XPoly.const(field, 1)
    num = one - XPoly.monomial(field, 1, a)
    den = one - XPoly.monomial(field, 1, a * q ** (n - k))
    return LaurentRatio(num, den)


# -- archimedean shift ratios ----------------------------------------------------


def gamma_ratio(m: int, j: int, s: complex) -> complex:
    """prod_{t=1..j} 2*pi/(s + m - t); floating point, poles rejected."""
    if j < 0:
        raise ConfigError("negative step count")
    out = complex(1)
    for t in range(1, j + 1):
        denom = s + m - t
        if abs(denom) < 1e-12:
            raise ConfigError(f"shift ratio hits a pole at step t = {t}")
        out *= 2 * math.pi / denom
    return out


# -- vanishing-order tokens ------------------------------------------------------


class VanishingToken:
    """Declared order of vanishing of the global character L-value at 0.

    ``order_zero`` is 0 (nonvanishing) or 1 (vanishing to order >= 1).
    The global function is taken to be entire (true in the two-sided
    case).  Actual L-values are never computed here.
    """

    def __init__(self, order_zero: int) -> None:
        if order_zero not in (0, 1):
            raise ConfigError("order flag must be 0 (nonzero) or 1 (vanishing)")
        self.order_zero = order_zero


def normalizing_factor(token: VanishingToken, deg: int) -> tuple[str, str]:
    """The holomorphy-restoring factor from the vanishing token, as
    (branch, symbol).

    Nonvanishing: the branch "one", whose factor is 1.  Vanishing: the
    branch "compensated", whose factor i^{deg/2} * Delta * L(s)/L(s-1) is
    carried symbolically; its zero at s = 0 cancels the pole of each ratio.
    """
    if token.order_zero == 0:
        return "one", "1"
    if deg % 2:
        raise ConfigError("field degree must be even")
    return "compensated", f"i^{deg // 2} * Delta * L(s)/L(s-1)"


# -- finite fields and Gauss sums -------------------------------------------------


class FiniteField:
    """GF(p^e) as F_p[x]/(f) for the first irreducible monic f in lex order.

    Elements are coefficient tuples.  Deterministic: the modulus and the
    chosen multiplicative generator depend only on q.
    """

    def __init__(self, q: int) -> None:
        from .intpoly import factorize, mul, pseudo_divmod

        # the product and division of F_p[x] are intpoly's, bound here once:
        # an import inside ``mul`` would cost about as much as the product
        self._poly_mul, self._poly_divmod = mul, pseudo_divmod
        self.q = q
        ((self.p, self.e),) = factorize(q).items()
        self.modulus = self._find_modulus()
        self.zero = (0,) * self.e
        self.one = (1,) + (0,) * (self.e - 1)
        self.generator = self._find_generator()

    def _find_modulus(self) -> tuple[int, ...]:
        e = self.e
        if e == 1:
            return (0, 1)
        # irreducible iff every monic factor of degree 1..e//2 leaves a
        # remainder over F_p: the remainder over Z, reduced mod p
        for tail in self._tuples(e):
            coeffs = tail + (1,)
            if all(
                any(c % self.p for c in self._poly_divmod(coeffs, factor + (1,))[1])
                for d in range(1, e // 2 + 1)
                for factor in self._tuples(d)
            ):
                return coeffs
        raise AssertionError("no irreducible polynomial found")

    def _tuples(self, length: int):
        """Coefficient tuples in lex order, the last coordinate fastest."""
        return itertools.product(range(self.p), repeat=length)

    def mul(self, a, b):
        """a * b: the product over Z, divided exactly by the monic modulus;
        the remainder reduced mod p and padded to e coefficients."""
        _, rem = self._poly_divmod(self._poly_mul(a, b), self.modulus)
        p = self.p
        rem = [c % p for c in rem]
        return tuple(rem + [0] * (self.e - len(rem)))

    def pow(self, a, k: int):
        out = self.one
        base = a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def _find_generator(self):
        """First element, in enumeration order, with a^((q-1)/r) != 1 for
        every prime r dividing q - 1."""
        from .intpoly import factorize

        exponents = [(self.q - 1) // r for r in factorize(self.q - 1)]
        for a in self._tuples(self.e):
            if a != self.zero and all(self.pow(a, x) != self.one for x in exponents):
                return a
        raise AssertionError("no generator found")

    def trace(self, a) -> int:
        """Trace to the prime field, as an integer mod p."""
        acc = self.zero
        x = a
        for _ in range(self.e):
            acc = tuple((u + v) % self.p for u, v in zip(acc, x))
            x = self.pow(x, self.p)
        assert all(c == 0 for c in acc[1:]), "trace not in the prime field"
        return acc[0]


class GaussSumSpec:
    """Multiplicative character by its value on the fixed generator of
    GF(q)^x, additive character x -> zeta_p^{trace(x)}."""

    def __init__(self, q: int, chi_order: int, chi_index: int = 1) -> None:
        from .cyclotomic import check_order
        from .intpoly import factorize

        try:
            # N = lcm(q - 1, p) is p (q - 1), and the order work of p M is at
            # least that of M for p prime to M: refuse a huge q before factoring it
            check_order(q - 1)
            factors = factorize(q)
            if len(factors) == 1:
                check_order(math.lcm(q - 1, *factors))
        except ConfigError as exc:
            raise ConfigError(f"GF({q}) is above the limit: {exc}") from None
        if len(factors) != 1:
            raise ConfigError(f"{q} is not a prime power")
        # chi(gen)^(q-1) must be 1
        if (chi_index * (q - 1)) % chi_order != 0:
            raise ConfigError("character value is not well-defined on GF(q)^x")
        self.q = q
        self.chi_order = chi_order
        self.chi_index = chi_index

    def is_trivial(self) -> bool:
        return self.chi_index % self.chi_order == 0


def gauss_sum(spec: GaussSumSpec) -> tuple[Cyc, complex]:
    """sum over x in GF(q)^x of chi(x)^{-1} psi(x); exact and float.

    This is the conductor-exponent-one shell of the local integral with an
    unramified additive alignment; the exact value lives in
    Q(zeta_{lcm(q-1, p)}).
    """
    from .cyclotomic import Cyc

    field = FiniteField(spec.q)
    p, q = field.p, field.q
    ncyc = math.lcm(q - 1, p)
    # chi(gen) is a (q-1)-th root of unity: rewrite it as zeta_{q-1}^j
    j = (spec.chi_index * (q - 1)) // spec.chi_order
    step = (j * (ncyc // (q - 1))) % ncyc
    # how often each zeta_ncyc^e occurs; reduced once at the end
    counts: dict[int, int] = {}
    x = field.one
    for t in range(q - 1):
        tr = field.trace(x)
        e = (-step * t + tr * (ncyc // p)) % ncyc
        counts[e] = counts.get(e, 0) + 1
        x = field.mul(x, field.generator)
    total = Cyc._from_exponent_dict(ncyc, counts)
    return total, total.to_complex()

