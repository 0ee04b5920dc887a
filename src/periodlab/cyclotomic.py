"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is a dense vector of Fractions in the power basis
1, zeta, ..., zeta^{phi(N)-1}, reduced modulo the N-th cyclotomic
polynomial.  Equality is therefore exact.  Every element also carries a
complex float shadow (``to_complex``) for cross-checks against numerics.

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
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row e-phi(n) is zeta^e written in the power basis, for phi(n) <= e < n."""
    phi_poly = cyclotomic_polynomial(n)
    deg = len(phi_poly) - 1
    rows = []
    # zeta^deg = -(lower part of Phi_n)
    current = [-c for c in phi_poly[:deg]]
    rows.append(tuple(current))
    for _ in range(deg + 1, n):
        shifted = [0] + current[:-1]
        if current[-1]:
            top = current[-1]
            shifted = [s + top * r for s, r in zip(shifted, rows[0])]
        current = shifted
        rows.append(tuple(current))
    return tuple(rows)


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


class Cyc:
    """An element of Q(zeta_N), reduced mod the cyclotomic polynomial."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, coeffs) -> None:
        deg = len(cyclotomic_polynomial(n)) - 1
        c = list(coeffs) + [Fraction(0)] * deg
        self.n = n
        self.c = tuple(Fraction(x) for x in c[:deg])

    # -- constructors --------------------------------------------------------

    @staticmethod
    def rational(r, n: int = 1) -> "Cyc":
        deg = len(cyclotomic_polynomial(n)) - 1
        return Cyc(n, [Fraction(r)] + [0] * (deg - 1))

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyc":
        return Cyc._from_exponent_dict(n, {k % n: Fraction(1)})

    @staticmethod
    def _from_exponent_dict(n: int, d: dict[int, Fraction]) -> "Cyc":
        deg = len(cyclotomic_polynomial(n)) - 1
        rows = _reduction_rows(n)
        out = [Fraction(0)] * deg
        for e, coef in d.items():
            if coef == 0:
                continue
            e %= n
            if e < deg:
                out[e] += coef
            else:
                for i, r in enumerate(rows[e - deg]):
                    if r:
                        out[i] += coef * r
        return Cyc(n, out)

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "Cyc") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed cyclotomic orders {self.n} and {other.n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other, self.n)
        self._check(other)
        return Cyc(self.n, [a + b for a, b in zip(self.c, other.c)])

    __radd__ = __add__

    def __neg__(self):
        return Cyc(self.n, [-a for a in self.c])

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other, self.n)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyc(self.n, [a * other for a in self.c])
        self._check(other)
        deg = len(self.c)
        conv: dict[int, Fraction] = {}
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            for j, b in enumerate(other.c):
                if b == 0:
                    continue
                conv[i + j] = conv.get(i + j, Fraction(0)) + a * b
        return Cyc._from_exponent_dict(self.n, conv)

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
        if isinstance(other, (int, Fraction)):
            other = Cyc.rational(other, self.n)
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.n == other.n and self.c == other.c

    def __hash__(self):
        return hash((self.n, self.c))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.c)

    # -- field structure -------------------------------------------------------

    def inverse(self) -> "Cyc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        phi = [Fraction(x) for x in cyclotomic_polynomial(self.n)]
        g, u, _ = _xgcd_fraction_poly(list(self.c), phi)
        if len(g) != 1:
            raise AssertionError("cyclotomic polynomial not coprime to element")
        scale = 1 / g[0]
        inv = {i: coef * scale for i, coef in enumerate(u)}
        return Cyc._from_exponent_dict(self.n, inv)

    def galois(self, j: int) -> "Cyc":
        """Apply zeta -> zeta^j; requires gcd(j, N) = 1."""
        if math.gcd(j, self.n) != 1:
            raise ValueError(f"{j} not coprime to {self.n}")
        return Cyc._from_exponent_dict(
            self.n, {(i * j) % self.n: a for i, a in enumerate(self.c) if a != 0}
        )

    def conj(self) -> "Cyc":
        return self.galois(self.n - 1) if self.n > 1 else self

    def norm_squared(self) -> "Cyc":
        return self * self.conj()

    # -- views ----------------------------------------------------------------

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.c[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.c[0]

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.n)
        return sum((complex(a) * z**i for i, a in enumerate(self.c)), 0j)

    def __repr__(self):
        terms = []
        for i, a in enumerate(self.c):
            if a == 0:
                continue
            if i == 0:
                terms.append(str(a))
            elif i == 1:
                terms.append(f"{a}*z{self.n}")
            else:
                terms.append(f"{a}*z{self.n}^{i}")
        return " + ".join(terms) if terms else "0"
