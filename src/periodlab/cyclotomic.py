"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored sparsely, as one map {exponent mod N: integer
numerator} over one positive common denominator, read in
Q[x]/(x^N - 1).  A product convolves the two maps with exponents taken
mod N, a sum or a difference merges them in one pass, and the Galois
action zeta -> zeta^j maps each exponent e to j*e mod N; none of them
reduces modulo the N-th cyclotomic polynomial Phi_N.  An element of few
terms, such as c * zeta^e, so stays small even at a prime N, where
zeta^{N-1} is dense in the power basis.  Each of them then drops the zero
terms and cancels the common factor of the denominator and the terms;
negation flips the signs alone, since it can create neither.

The canonical form -- integer numerators over one positive denominator,
in lowest terms, in the power basis 1, zeta, ..., zeta^{phi(N)-1} reduced
modulo Phi_N -- is computed on demand, at most once per element.  It
decides hashing and rationality, and equality of elements stored in
different forms; it is what ``repr``, the complex float shadow
(``to_complex``) and the read-only ``nums``/``den`` view show.  Two
elements with identical stored maps and denominators compare equal
without it: equality compares the stored forms first and computes the
canonical ones only when those differ.  The inverse is the Galois norm
quotient x^{-1} = prod_{j != 1} sigma_j(x) / N(x), whose
denominator N(x) is rational; one stored term c * zeta^e inverts in
closed form.

Supported structure maps: the Galois action, complex conjugation, the
norm-squared z * conj(z), and inversion.

``check_order`` is the package's one bound on the order N: it refuses an
N whose work is above MAX_ORDER_WORK, before any O(N) work, and returns
phi(N) from the factorization of N (``intpoly.factorize``).
``Cyc.zeta`` and ``cyclotomic_polynomial`` call it, and so do the Gauss
sums and the CLI's local-ratio commands; the canonical form and the float
shadow go through ``cyclotomic_polynomial``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .errors import ConfigError
from .intpoly import factorize, pseudo_divmod


# Bound on the work Q(zeta_N) may take, fitted by timing.  With f = phi(N),
# Phi_N by exact division costs about N (N - f) integer steps, the rows
# that reduce zeta^e modulo Phi_N hold f (N - f) entries at about 4 steps
# each, and the tables linear in N (x^N - 1, the float shadow's powers)
# about 36 N: (N - f)(N + 4 f) + 36 N in all.  The largest N <= 2,000 is
# N = 2000 itself; the slowest, N = 1980 and 1995, take about 0.35 s on a
# 2-vCPU host, as do the slowest admitted N above 2,000 (6887 = 71 * 97,
# 7171 = 71 * 101) and the largest admitted prime, 153,949.
MAX_ORDER_WORK = 6_312_000


def check_order(n: int) -> int:
    """phi(n); ConfigError if Q(zeta_n) needs more than MAX_ORDER_WORK
    steps, before any O(n) work.  factorize(n) runs only for n below
    MAX_ORDER_WORK / 37, since the work of n > 1 is at least 37 n."""
    if n > 1 and 37 * n > MAX_ORDER_WORK:
        raise ConfigError(f"Q(zeta_{n}) is above the order work limit of {MAX_ORDER_WORK}")
    f = n
    for p in factorize(n):
        f = f // p * (p - 1)
    work = (n - f) * (n + 4 * f) + 36 * n
    if work > MAX_ORDER_WORK:
        raise ConfigError(
            f"Q(zeta_{n}) needs {work} steps, above the order work limit of {MAX_ORDER_WORK}"
        )
    return f


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial;
    ConfigError above the order bound (``check_order``)."""
    check_order(n)
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            q, r = pseudo_divmod(poly, cyclotomic_polynomial(d))
            if r:
                raise AssertionError("cyclotomic division not exact")
            poly = q
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row e-phi(n) is zeta^e in the power basis, as the (index, integer
    coefficient) pairs with a nonzero coefficient, for every exponent
    phi(n) <= e < n; a prime n has one row."""
    phi_poly = cyclotomic_polynomial(n)
    deg = len(phi_poly) - 1
    # zeta^deg = -(lower part of Phi_n)
    current = [-c for c in phi_poly[:deg]]
    rows = [current]
    for _ in range(deg + 1, n):
        top = current[-1]
        current = [0] + current[:-1]
        if top:
            current = [s + top * r for s, r in zip(current, rows[0])]
        rows.append(current)
    return tuple(tuple((i, r) for i, r in enumerate(row) if r) for row in rows)


@lru_cache(maxsize=None)
def _powers(n: int) -> tuple[complex, ...]:
    """z**i for z = exp(2 pi i / n) and 0 <= i < phi(n), each power taken
    by itself, not by repeated multiplication, for the float shadow."""
    z = cmath.exp(2j * cmath.pi / n)
    return tuple(z**i for i in range(len(cyclotomic_polynomial(n)) - 1))


class Cyc:
    """An element sum_e terms[e] * zeta_N^e / den of Q(zeta_N).

    The stored map need not be reduced modulo Phi_N, so one element may
    be stored in several ways.  ``nums`` and ``den`` are its canonical
    form: the integer numerators of the power-basis coefficients and
    their positive common denominator, with gcd(den, *nums) = 1.
    """

    __slots__ = ("n", "_terms", "_den", "_form")

    def __init__(self, n: int, coeffs) -> None:
        """From at most phi(N) rational power-basis coefficients, zero-padded."""
        deg = len(cyclotomic_polynomial(n)) - 1
        fracs = [Fraction(x) for x in coeffs]
        if len(fracs) > deg:
            raise ValueError(f"{len(fracs)} coefficients for Q(zeta_{n}), of degree {deg}")
        fracs += [Fraction(0)] * (deg - len(fracs))
        # with each Fraction in lowest terms, their lcm is already coprime
        # to the scaled numerators, so this is the canonical form
        den = math.lcm(*(f.denominator for f in fracs))
        nums = tuple(f.numerator * (den // f.denominator) for f in fracs)
        self.n = n
        self._terms = {i: a for i, a in enumerate(nums) if a}
        self._den = den
        self._form = (nums, den)

    @staticmethod
    def _make(n: int, terms: dict[int, int], den: int) -> "Cyc":
        """The element sum terms[e] zeta^e / den (den > 0), with zero
        terms dropped and the common factor of den and terms cancelled."""
        terms = {e: a for e, a in terms.items() if a}
        g = math.gcd(den, *terms.values()) if den != 1 else 1
        if g != 1:
            terms = {e: a // g for e, a in terms.items()}
            den //= g
        out = object.__new__(Cyc)
        out.n = n
        out._terms = terms
        out._den = den
        out._form = None
        return out

    # -- constructors --------------------------------------------------------

    @staticmethod
    def rational(r, n: int = 1) -> "Cyc":
        if isinstance(r, int):
            return Cyc._make(n, {0: int(r)}, 1)
        r = Fraction(r)
        return Cyc._make(n, {0: r.numerator}, r.denominator)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyc":
        """zeta_n^k; ConfigError above the order bound (``check_order``)."""
        check_order(n)
        return Cyc._from_exponent_dict(n, {k % n: 1})

    @staticmethod
    def _from_exponent_dict(n: int, d: dict[int, Fraction]) -> "Cyc":
        """sum d[e] * zeta^e for rational (int or Fraction) d[e]."""
        den = math.lcm(*(c.denominator for c in d.values()))
        terms: dict[int, int] = {}
        for e, c in d.items():
            e %= n
            terms[e] = terms.get(e, 0) + c.numerator * (den // c.denominator)
        return Cyc._make(n, terms, den)

    # -- canonical form --------------------------------------------------------

    def _canonical(self) -> tuple[tuple[int, ...], int]:
        """(nums, den), reduced modulo Phi_N and in lowest terms; cached."""
        if self._form is None:
            rows = _reduction_rows(self.n)
            deg = len(cyclotomic_polynomial(self.n)) - 1
            out = [0] * deg
            for e, c in self._terms.items():
                if e < deg:
                    out[e] += c
                else:
                    for i, r in rows[e - deg]:
                        out[i] += c * r
            den = self._den
            g = math.gcd(den, *out) if den != 1 else 1
            if g != 1:
                out = [a // g for a in out]
                den //= g
            self._form = (tuple(out), den)
        return self._form

    @property
    def nums(self) -> tuple[int, ...]:
        return self._canonical()[0]

    @property
    def den(self) -> int:
        return self._canonical()[1]

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "Cyc") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed cyclotomic orders {self.n} and {other.n}")

    def _merge(self, other, sign: int):
        """self + sign * other for sign = 1 or -1, in one merge of the maps."""
        if not isinstance(other, Cyc):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyc.rational(other, self.n)
        self._check(other)
        den = math.lcm(self._den, other._den)
        sa, sb = den // self._den, sign * (den // other._den)
        out = dict(self._terms) if sa == 1 else {e: a * sa for e, a in self._terms.items()}
        for e, b in other._terms.items():
            out[e] = out.get(e, 0) + b * sb
        return Cyc._make(self.n, out, den)

    def __add__(self, other):
        return self._merge(other, 1)

    __radd__ = __add__

    def __neg__(self):
        # negating keeps every stored term nonzero and gcd(den, terms) = 1,
        # so the result needs none of _make's filtering
        out = object.__new__(Cyc)
        out.n = self.n
        out._terms = {e: -a for e, a in self._terms.items()}
        out._den = self._den
        out._form = None
        return out

    def __sub__(self, other):
        return self._merge(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Cyc):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return Cyc._make(
                self.n,
                {e: a * other.numerator for e, a in self._terms.items()},
                self._den * other.denominator,
            )
        self._check(other)
        n = self.n
        right = other._terms.items()
        out: dict[int, int] = {}
        for e, a in self._terms.items():
            for f, b in right:
                k = e + f
                if k >= n:
                    k -= n
                out[k] = out.get(k, 0) + a * b
        return Cyc._make(n, out, self._den * other._den)

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
        if self.n != other.n:
            return False
        # identical stored forms are one element; different ones may be too
        if self._den == other._den and self._terms == other._terms:
            return True
        return self._canonical() == other._canonical()

    def __hash__(self):
        return hash((self.n,) + self._canonical())

    def is_zero(self) -> bool:
        # c * zeta^e with c != 0 is a unit, so an element of at most one
        # stored term is zero only when it stores none
        if len(self._terms) <= 1:
            return not self._terms
        return not any(self.nums)

    # -- field structure -------------------------------------------------------

    def inverse(self) -> "Cyc":
        """prod_{j != 1} sigma_j(x) / N(x), with the norm N(x) rational;
        one stored term c * zeta^e inverts in closed form."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if len(self._terms) == 1:
            ((e, c),) = self._terms.items()
            return Cyc._from_exponent_dict(self.n, {-e: Fraction(self._den, c)})
        # x = whole / den with integer numerators, so the products below
        # run on integers and cancel common factors once, at the end
        n = self.n
        whole = Cyc._make(n, self._terms, 1)
        others = Cyc.rational(1, n)
        for j in range(2, n):
            if math.gcd(j, n) == 1:
                others = others * whole.galois(j)
        return others * Fraction(self._den, (whole * others).rational_value())

    def galois(self, j: int) -> "Cyc":
        """Apply zeta -> zeta^j; requires gcd(j, N) = 1."""
        n = self.n
        if math.gcd(j, n) != 1:
            raise ValueError(f"{j} not coprime to {n}")
        return Cyc._make(n, {e * j % n: a for e, a in self._terms.items()}, self._den)

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
        nums, den = self._canonical()
        return Fraction(nums[0], den)

    def to_complex(self) -> complex:
        nums, den = self._canonical()
        # int true division is correctly rounded, so a / den is float(Fraction(a, den))
        return sum((complex(a / den) * z for a, z in zip(nums, _powers(self.n))), 0j)

    def __repr__(self):
        nums, den = self._canonical()
        terms = []
        for i, num in enumerate(nums):
            if num == 0:
                continue
            a = Fraction(num, den)
            if i == 0:
                terms.append(str(a))
            elif i == 1:
                terms.append(f"{a}*z{self.n}")
            else:
                terms.append(f"{a}*z{self.n}^{i}")
        return " + ".join(terms) if terms else "0"
