"""Exact polynomials and rational functions in X over Q(zeta_N).

``X`` plays the role of q^{-s} in unramified local L-factor ratios, so a
ratio of two polynomials in X with cyclotomic coefficients stores an
L-factor quotient exactly.  A ratio keeps the numerator and denominator
it was built from.  Ratios multiply and compare: two ratios whose
denominators are equal polynomials are compared through their numerators
over that one denominator, other ratios cross-multiply.  The gcd-reduced
form over the field of coefficients, with a normalized denominator, is
computed only to print a ratio.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import Cyc


class XPoly:
    """Polynomial in X with ``Cyc`` coefficients, stored sparsely."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[int, Cyc] | None = None) -> None:
        self.n = n
        cs = {}
        for d, c in (coeffs or {}).items():
            # Cyc first: isinstance misses on Fraction run its ABCMeta hook
            if not isinstance(c, Cyc) and isinstance(c, (int, Fraction)):
                c = Cyc.rational(c, n)
            if not c.is_zero():
                if d < 0:
                    raise ValueError("negative degree")
                cs[d] = c
        self.coeffs = cs

    @staticmethod
    def _of(n: int, coeffs: dict[int, Cyc]) -> "XPoly":
        """From ``Cyc`` coefficients at nonnegative degrees, as the
        arithmetic below builds them; zero coefficients are dropped."""
        out = object.__new__(XPoly)
        out.n = n
        out.coeffs = {d: c for d, c in coeffs.items() if not c.is_zero()}
        return out

    @staticmethod
    def const(n: int, c) -> "XPoly":
        return XPoly.monomial(n, 0, c)

    @staticmethod
    def monomial(n: int, deg: int, c) -> "XPoly":
        if deg < 0:
            raise ValueError("negative degree")
        return XPoly._of(n, {deg: c if isinstance(c, Cyc) else Cyc.rational(c, n)})

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "XPoly") -> "XPoly":
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out[d] + c if d in out else c
        return XPoly._of(self.n, out)

    def __sub__(self, other: "XPoly") -> "XPoly":
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out[d] - c if d in out else -c
        return XPoly._of(self.n, out)

    def __mul__(self, other) -> "XPoly":
        # XPoly first: isinstance misses on Fraction run its ABCMeta hook
        if not isinstance(other, XPoly) and isinstance(other, (Cyc, int, Fraction)):
            return XPoly._of(self.n, {d: c * other for d, c in self.coeffs.items()})
        out: dict[int, Cyc] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                p = c1 * c2
                out[d] = out[d] + p if d in out else p
        return XPoly._of(self.n, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def leading(self) -> Cyc:
        if self.is_zero():
            raise ValueError("zero polynomial")
        return self.coeffs[self.degree()]

    def divmod(self, den: "XPoly") -> tuple["XPoly", "XPoly"]:
        if den.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        inv_lead = den.leading().inverse()
        dd = den.degree()
        rem = dict(self.coeffs)
        quot: dict[int, Cyc] = {}
        while rem:
            d = max(rem)
            if d < dd:
                break
            c = rem[d] * inv_lead
            quot[d - dd] = c
            for dj, cj in den.coeffs.items():
                key = d - dd + dj
                val = rem.get(key, Cyc.rational(0, self.n)) - c * cj
                if val.is_zero():
                    rem.pop(key, None)
                else:
                    rem[key] = val
        return XPoly._of(self.n, quot), XPoly._of(self.n, rem)

    def _pseudo_rem(self, den: "XPoly") -> "XPoly":
        """The remainder of lead(den)^m * self by den, for the least m that
        needs no division: each step scales by lead(den) and cancels the
        top term, so no coefficient is inverted; ``den`` is nonzero."""
        lead, dd = den.leading(), den.degree()
        rem = dict(self.coeffs)
        while rem:
            d = max(rem)
            if d < dd:
                break
            c = rem.pop(d)
            rem = {k: v * lead for k, v in rem.items()}
            for dj, cj in den.coeffs.items():
                if dj == dd:
                    continue
                key = d - dd + dj
                val = rem[key] - c * cj if key in rem else -(c * cj)
                if val.is_zero():
                    rem.pop(key, None)
                else:
                    rem[key] = val
        return XPoly._of(self.n, rem)

    def gcd(self, other: "XPoly") -> "XPoly":
        """The monic gcd, 1 when constant: remainders by pseudo-division,
        then one inversion of the last remainder's leading coefficient."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a._pseudo_rem(b)
        if a.is_zero():
            return a
        one = Cyc.rational(1, self.n)
        if a.degree() == 0:
            return XPoly._of(self.n, {0: one})
        inv = a.leading().inverse()
        monic = {d: c * inv for d, c in a.coeffs.items()}
        monic[a.degree()] = one
        return XPoly._of(self.n, monic)

    def galois(self, j: int) -> "XPoly":
        return XPoly._of(self.n, {d: c.galois(j) for d, c in self.coeffs.items()})

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
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
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
