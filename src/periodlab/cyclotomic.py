"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a dense vector of integer numerators over one positive
common denominator, in lowest terms, in the power basis
1, zeta, ..., zeta^{phi(N)-1}, reduced modulo the N-th cyclotomic
polynomial.  The form is canonical, so equality is exact and compares
integers.  Fractions appear only at the edges: the constructor from
rational coefficients, printing, and the extended Euclid of ``inverse``.
Every element also carries a complex float shadow (``to_complex``) for
cross-checks against numerics.

Supported structure maps: the Galois action zeta -> zeta^j for j coprime
to N, complex conjugation, the norm-squared z * conj(z), and inversion.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of an integer n >= 1, by trial division up to sqrt(n)."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = 1
    return out


def _int_poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    """Exact division of integer polynomials, ``den`` monic."""
    num = list(num)
    dn = len(den) - 1
    if dn < 0 or den[-1] != 1:
        raise ValueError("denominator must be monic")
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dn] = c
        for j, d in enumerate(den):
            num[i - dn + j] -= c * d
    while num and num[-1] == 0:
        num.pop()
    return quot, num


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = _int_poly_divmod(poly, list(cyclotomic_polynomial(d)))
            if r:
                raise AssertionError("cyclotomic division not exact")
            poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row e-phi(n) is zeta^e in the power basis, as the (index, integer
    coefficient) pairs with a nonzero coefficient, for every exponent
    phi(n) <= e < n and every exponent e <= 2 phi(n) - 2 of a product of
    two reduced elements (for prime n the latter pass n)."""
    phi_poly = cyclotomic_polynomial(n)
    deg = len(phi_poly) - 1
    rows = []
    # zeta^deg = -(lower part of Phi_n)
    current = [-c for c in phi_poly[:deg]]
    rows.append(tuple(current))
    for _ in range(deg + 1, max(n, 2 * deg - 1)):
        shifted = [0] + current[:-1]
        if current[-1]:
            top = current[-1]
            shifted = [s + top * r for s, r in zip(shifted, rows[0])]
        current = shifted
        rows.append(tuple(current))
    return tuple(tuple((i, r) for i, r in enumerate(row) if r) for row in rows)


@lru_cache(maxsize=None)
def _powers(n: int) -> tuple[complex, ...]:
    """z**i for z = exp(2 pi i / n) and 0 <= i < phi(n), each power taken
    by itself, not by repeated multiplication, for the float shadow."""
    z = cmath.exp(2j * cmath.pi / n)
    return tuple(z**i for i in range(len(cyclotomic_polynomial(n)) - 1))


def _xgcd_fraction_poly(a: list[Fraction], b: list[Fraction]):
    """Extended Euclid over Q[x]; returns (g, u, v) with u*a + v*b = g."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def divmod_q(num, den):
        num = list(num)
        dn = len(den) - 1
        lead = den[-1]
        quot = [Fraction(0)] * max(len(num) - dn, 0)
        for i in range(len(num) - 1, dn - 1, -1):
            if num[i] == 0:
                continue
            c = num[i] / lead
            quot[i - dn] = c
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
        return trim(quot), trim(num)

    r0, r1 = trim(list(a)), trim(list(b))
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]

    def sub_mul(p, q, m):
        # p - q*m
        res = list(p) + [Fraction(0)] * max(0, len(q) + len(m) - 1 - len(p))
        for i, qc in enumerate(q):
            if qc == 0:
                continue
            for j, mc in enumerate(m):
                res[i + j] -= qc * mc
        return trim(res)

    while r1:
        q, r = divmod_q(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub_mul(u0, u1, q)
        v0, v1 = v1, sub_mul(v0, v1, q)
    return r0, u0, v0


def _reduce_exponents(n: int, terms) -> list[int]:
    """Integer coefficients of sum c * zeta^e over (e, c) in ``terms``."""
    rows = _reduction_rows(n)
    deg = len(cyclotomic_polynomial(n)) - 1
    out = [0] * deg
    for e, c in terms:
        if not c:
            continue
        e %= n
        if e < deg:
            out[e] += c
        else:
            for i, r in rows[e - deg]:
                out[i] += c * r
    return out


class Cyc:
    """An element of Q(zeta_N), reduced mod the cyclotomic polynomial.

    ``nums`` are the integer numerators of the power-basis coefficients
    and ``den`` their positive common denominator, with
    gcd(den, *nums) = 1, so every element has exactly one form.
    """

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, coeffs) -> None:
        """From rational power-basis coefficients, zero-padded to phi(N)."""
        deg = len(cyclotomic_polynomial(n)) - 1
        fracs = [Fraction(x) for x in list(coeffs)[:deg]]
        fracs += [Fraction(0)] * (deg - len(fracs))
        # with each Fraction in lowest terms, their lcm is already coprime
        # to the scaled numerators
        den = math.lcm(*(f.denominator for f in fracs))
        self.n = n
        self.nums = tuple(f.numerator * (den // f.denominator) for f in fracs)
        self.den = den

    @staticmethod
    def _make(n: int, nums: list[int], den: int) -> "Cyc":
        """The element nums / den (den > 0), brought to lowest terms."""
        g = math.gcd(den, *nums) if den != 1 else 1
        if g != 1:
            nums = [a // g for a in nums]
            den //= g
        out = object.__new__(Cyc)
        out.n = n
        out.nums = tuple(nums)
        out.den = den
        return out

    # -- constructors --------------------------------------------------------

    @staticmethod
    def rational(r, n: int = 1) -> "Cyc":
        r = Fraction(r)
        deg = len(cyclotomic_polynomial(n)) - 1
        return Cyc._make(n, [r.numerator] + [0] * (deg - 1), r.denominator)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyc":
        return Cyc._from_exponent_dict(n, {k % n: 1})

    @staticmethod
    def _from_exponent_dict(n: int, d: dict[int, Fraction]) -> "Cyc":
        """sum d[e] * zeta^e for rational (int or Fraction) d[e]."""
        den = math.lcm(*(c.denominator for c in d.values()))
        terms = ((e, c.numerator * (den // c.denominator)) for e, c in d.items())
        return Cyc._make(n, _reduce_exponents(n, terms), den)

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "Cyc") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed cyclotomic orders {self.n} and {other.n}")

    def __add__(self, other):
        if not isinstance(other, Cyc):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyc.rational(other, self.n)
        self._check(other)
        if self.den == other.den:
            return Cyc._make(self.n, [a + b for a, b in zip(self.nums, other.nums)], self.den)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        return Cyc._make(
            self.n, [a * sa + b * sb for a, b in zip(self.nums, other.nums)], den
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyc._make(self.n, [-a for a in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Cyc):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return Cyc._make(
                self.n, [a * other.numerator for a in self.nums], self.den * other.denominator
            )
        self._check(other)
        deg = len(self.nums)
        right = [(j, b) for j, b in enumerate(other.nums) if b]
        conv = [0] * (2 * deg - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in right:
                    conv[i + j] += a * b
        out = conv[:deg]
        for row, c in zip(_reduction_rows(self.n), conv[deg:]):
            if c:
                for i, r in row:
                    out[i] += c * r
        return Cyc._make(self.n, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc.rational(1, self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Cyc):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyc.rational(other, self.n)
        return self.n == other.n and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.n, self.nums, self.den))

    def is_zero(self) -> bool:
        return not any(self.nums)

    # -- field structure -------------------------------------------------------

    def inverse(self) -> "Cyc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        phi = [Fraction(x) for x in cyclotomic_polynomial(self.n)]
        # invert the integer vector nums, then multiply by den
        g, u, _ = _xgcd_fraction_poly([Fraction(a) for a in self.nums], phi)
        if len(g) != 1:
            raise AssertionError("cyclotomic polynomial not coprime to element")
        scale = self.den / g[0]
        return Cyc._from_exponent_dict(self.n, {i: coef * scale for i, coef in enumerate(u)})

    def galois(self, j: int) -> "Cyc":
        """Apply zeta -> zeta^j; requires gcd(j, N) = 1."""
        if math.gcd(j, self.n) != 1:
            raise ValueError(f"{j} not coprime to {self.n}")
        terms = ((i * j, a) for i, a in enumerate(self.nums))
        return Cyc._make(self.n, _reduce_exponents(self.n, terms), self.den)

    def conj(self) -> "Cyc":
        return self.galois(self.n - 1) if self.n > 1 else self

    def norm_squared(self) -> "Cyc":
        return self * self.conj()

    # -- views ----------------------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.nums[0], self.den)

    def to_complex(self) -> complex:
        # int true division is correctly rounded, so a / den is float(Fraction(a, den))
        return sum(
            (complex(a / self.den) * z for a, z in zip(self.nums, _powers(self.n))), 0j
        )

    def __repr__(self):
        terms = []
        for i, num in enumerate(self.nums):
            if num == 0:
                continue
            a = Fraction(num, self.den)
            if i == 0:
                terms.append(str(a))
            elif i == 1:
                terms.append(f"{a}*z{self.n}")
            else:
                terms.append(f"{a}*z{self.n}^{i}")
        return " + ".join(terms) if terms else "0"
