"""Exact polynomials and rational functions in X over Q(zeta_N).

``X`` plays the role of q^{-s} in unramified local L-factor ratios, so a
ratio of two polynomials in X with cyclotomic coefficients stores an
L-factor quotient exactly.  A ratio keeps the numerator and denominator
it was built from.  Ratios multiply and compare: two ratios whose
denominators are equal polynomials are compared through their numerators
over that one denominator, other ratios cross-multiply.  The gcd-reduced
form over the field of coefficients, with a normalized denominator, is
computed only to print a ratio, with one pseudo-division that inverts no
coefficient: its remainders give the gcd, its quotients the reduced pair.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyc


class XPoly:
    """Polynomial in X with ``Cyc`` coefficients, stored sparsely."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[int, Cyc]) -> None:
        """Degrees are nonnegative; zero coefficients are dropped."""
        self.n = n
        self.coeffs = {d: c for d, c in coeffs.items() if not c.is_zero()}

    @staticmethod
    def const(n: int, c) -> "XPoly":
        return XPoly.monomial(n, 0, c)

    @staticmethod
    def monomial(n: int, deg: int, c) -> "XPoly":
        if deg < 0:
            raise ValueError("negative degree")
        return XPoly(n, {deg: c if isinstance(c, Cyc) else Cyc.rational(c, n)})

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "XPoly") -> "XPoly":
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out[d] + c if d in out else c
        return XPoly(self.n, out)

    def __sub__(self, other: "XPoly") -> "XPoly":
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out[d] - c if d in out else -c
        return XPoly(self.n, out)

    def __mul__(self, other) -> "XPoly":
        # XPoly first: isinstance misses on Fraction run its ABCMeta hook
        if not isinstance(other, XPoly) and isinstance(other, (Cyc, int, Fraction)):
            return XPoly(self.n, {d: c * other for d, c in self.coeffs.items()})
        out: dict[int, Cyc] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                p = c1 * c2
                out[d] = out[d] + p if d in out else p
        return XPoly(self.n, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def leading(self) -> Cyc:
        if self.is_zero():
            raise ValueError("zero polynomial")
        return self.coeffs[self.degree()]

    def pseudo_divmod(self, den: "XPoly") -> tuple["XPoly", "XPoly"]:
        """(q, r) with lead(den)^m * self = q * den + r and deg r < deg den,
        for a nonzero ``den``, where m, the number of terms of q, counts the
        steps: each scales by lead(den) and cancels a nonzero top term, so
        no coefficient is inverted.  A monic ``den`` divides exactly."""
        lead, dd = den.leading(), den.degree()
        rem = dict(self.coeffs)
        quot: dict[int, Cyc] = {}
        while rem:
            d = max(rem)
            if d < dd:
                break
            c = rem.pop(d)
            if c.is_zero():
                continue
            rem = {k: v * lead for k, v in rem.items()}
            quot = {k: v * lead for k, v in quot.items()}
            quot[d - dd] = c
            for dj, cj in den.coeffs.items():
                if dj != dd:
                    key = d - dd + dj
                    rem[key] = rem[key] - c * cj if key in rem else -(c * cj)
        return XPoly(self.n, quot), XPoly(self.n, rem)

    def gcd(self, other: "XPoly") -> "XPoly":
        """The monic gcd, 1 when constant: remainders by pseudo-division,
        then one inversion of the last remainder's leading coefficient."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.pseudo_divmod(b)[1]
        if a.is_zero():
            return a
        one = Cyc.rational(1, self.n)
        if a.degree() == 0:
            return XPoly(self.n, {0: one})
        inv = a.leading().inverse()
        monic = {d: c * inv for d, c in a.coeffs.items()}
        monic[a.degree()] = one
        return XPoly(self.n, monic)

    def galois(self, j: int) -> "XPoly":
        return XPoly(self.n, {d: c.galois(j) for d, c in self.coeffs.items()})

    def evaluate(self, x: complex) -> complex:
        return sum(c.to_complex() * x**d for d, c in self.coeffs.items())

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for d in sorted(self.coeffs):
            c = self.coeffs[d]
            cs = repr(c)
            if d == 0:
                parts.append(f"({cs})")
            elif d == 1:
                parts.append(f"({cs})*X")
            else:
                parts.append(f"({cs})*X^{d}")
        return " + ".join(parts)


class LaurentRatio:
    """A quotient of two ``XPoly`` values; the denominator is nonzero.

    The stored pair is not reduced, so two ratios of one rational
    function may store different pairs; ``==`` compares the numerators
    when the denominators are equal and cross-multiplies otherwise, and
    ``repr`` prints the unique reduced form.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: XPoly, den: XPoly) -> None:
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.n != den.n:
            raise ValueError("mixed coefficient fields")
        self.num = num
        self.den = den

    @staticmethod
    def one(n: int = 1) -> "LaurentRatio":
        return LaurentRatio(XPoly.const(n, 1), XPoly.const(n, 1))

    def _reduced(self) -> tuple[XPoly, XPoly]:
        """The coprime pair with den(0) = 1 when possible, else a monic den."""
        num, den = self.num, self.den
        if num.is_zero():
            return num, XPoly.const(den.n, 1)
        g = num.gcd(den)
        if g.degree() > 0:
            num = num.pseudo_divmod(g)[0]
            den = den.pseudo_divmod(g)[0]
        const = den.coeffs.get(0)
        inv = const.inverse() if const is not None else den.leading().inverse()
        return num * inv, den * inv

    def __mul__(self, other: "LaurentRatio") -> "LaurentRatio":
        return LaurentRatio(self.num * other.num, self.den * other.den)

    def __eq__(self, other):
        if not isinstance(other, LaurentRatio):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def galois(self, j: int) -> "LaurentRatio":
        """Coefficientwise Galois twist; X is fixed."""
        return LaurentRatio(self.num.galois(j), self.den.galois(j))

    def evaluate(self, x: complex) -> complex:
        """num(x) / den(x) of the stored pair, so a common zero of the two
        raises ZeroDivisionError."""
        return self.num.evaluate(x) / self.den.evaluate(x)

    def __repr__(self):
        num, den = self._reduced()
        return f"[{num!r}] / [{den!r}]"
