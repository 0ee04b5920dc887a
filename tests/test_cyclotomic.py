import cmath
import math
import operator
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab.cyclotomic import Cyc, check_order, cyclotomic_polynomial

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _mobius(n: int) -> int:
    """mu(n) by trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _mobius_product(n: int) -> tuple[int, ...]:
    """prod_{d | n} (x^d - 1)^mu(n/d), low to high: the factors with
    mu = 1 multiplied in, then those with mu = -1 divided out, each
    division solving p = q (x^d - 1) from the bottom, q_j = q_{j-d} - p_j."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(n // d) == 1:
            poly = [(poly[j - d] if j >= d else 0) - (poly[j] if j < len(poly) else 0)
                    for j in range(len(poly) + d)]
    for d in divisors:
        if _mobius(n // d) == -1:
            quot = []
            for j in range(len(poly) - d):
                quot.append((quot[j - d] if j >= d else 0) - poly[j])
            assert all(poly[j] == (quot[j - d] if j >= d else 0)
                       for j in range(len(quot), len(poly)))
            poly = quot
    return tuple(poly)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for n in [*range(1, 301), 336, 1980, 2000]:
        assert cyclotomic_polynomial(n) == _mobius_product(n), n


def test_zeta_powers_and_reduction():
    z = Cyc.zeta(12)
    assert z**12 == Cyc.rational(1, 12)
    assert z**6 == Cyc.rational(-1, 12)
    # zeta_4 inside Q(zeta_12)
    i = z**3
    assert i * i == Cyc.rational(-1, 12)


def test_float_shadow():
    z = Cyc.zeta(7, 3)
    assert abs(z.to_complex() - cmath.exp(2j * cmath.pi * 3 / 7)) < 1e-12


def test_inverse():
    x = Cyc.zeta(12, 5) + Cyc.rational(Fraction(3, 2), 12)
    assert x * x.inverse() == Cyc.rational(1, 12)
    with pytest.raises(ZeroDivisionError):
        Cyc.rational(0, 12).inverse()


def test_galois_and_conj():
    z = Cyc.zeta(12)
    assert z.galois(5) == Cyc.zeta(12, 5)
    assert z.conj() == Cyc.zeta(12, 11)
    # applying sigma_j then sigma_{j^-1 mod 12} restores
    x = Cyc.zeta(12, 2) + Cyc.rational(7, 12)
    assert x.galois(5).galois(5) == x  # 5*5 = 25 = 1 mod 12


def test_norm_squared_root_of_unity():
    for k in range(12):
        assert Cyc.zeta(12, k).norm_squared() == Cyc.rational(1, 12)


def test_more_than_phi_coefficients_rejected():
    assert Cyc(3, [1, 2]) == 1 + 2 * Cyc.zeta(3) and Cyc(3, [1]) == 1
    for n, coeffs in ((3, [1, 2, 3]), (12, [0] * 5), (7, range(7))):
        with pytest.raises(ValueError, match="coefficients"):
            Cyc(n, coeffs)


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        Cyc.zeta(12) * Cyc.zeta(8)


def test_float_shadow_pinned():
    """Values recorded from the Fraction-vector representation; each
    element has a denominator other than 1, up to about 10^100."""
    cases = [
        (Cyc(12, [Fraction(1, 3), Fraction(-5, 7), 0, Fraction(2, 9)]),
         "(-0.2852562407984086-0.13492063492063489j)"),
        ((Cyc.rational(1, 7) - Cyc.zeta(7, 5) * 125).inverse(),
         "(0.001837507728182676-0.007771257656775742j)"),
        ((Cyc.zeta(336, 101) + Fraction(3, 11)).inverse(),
         "(-0.04408130487453966-1.050899835687183j)"),
        (Cyc.zeta(15, 4) * Fraction(22, 7) - Fraction(1, 13),
         "(-0.40544110433570196+3.125640242586001j)"),
    ]
    for x, shadow in cases:
        assert x.den > 1
        assert repr(x.to_complex()) == shadow


# -- independent oracle: Fraction polynomials reduced by long division --------------
# The reference below shares no code with Cyc or its reduction rows: it
# multiplies polynomials with Fraction coefficients and reduces them by
# long division modulo the cyclotomic polynomial.

# 7: a product's exponents pass N; 1009: a prime above 1,000, where
# zeta^1008 is dense in the power basis
ORACLE_ORDERS = [1, 3, 4, 7, 12, 15, 336, 1009]
# Orders at which only monomials c * zeta^e are inverted: the norm product
# of a dense element there runs over 1,007 conjugates
MONOMIAL_INVERSE_ORDERS = {1009}


def ref_reduce(poly: list[Fraction], n: int) -> list[Fraction]:
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    rem = list(poly) + [Fraction(0)] * max(0, deg - len(poly))
    phi_terms = [(i, p) for i, p in enumerate(phi) if p]
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        if c:
            for i, p in phi_terms:
                rem[top - deg + i] -= c * p
    return rem[:deg]


def ref_mul(a: list[Fraction], b: list[Fraction], n: int) -> list[Fraction]:
    # Phi_n divides x^n - 1, so exponents may be taken mod n first; the long
    # division then starts below x^n, not at x^(2 phi(n) - 2)
    prod = [Fraction(0)] * n
    b_terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b_terms:
                prod[(i + j) % n] += x * y
    return ref_reduce(prod, n)


def ref_galois(a: list[Fraction], j: int, n: int) -> list[Fraction]:
    # Phi_n divides x^n - 1, so exponents may be taken mod n first
    poly = [Fraction(0)] * n
    for i, x in enumerate(a):
        poly[(i * j) % n] += x
    return ref_reduce(poly, n)


def coefficients(x: Cyc) -> list[Fraction]:
    """The power-basis coefficients of x, checking its canonical form."""
    assert x.den > 0 and math.gcd(x.den, *x.nums) == 1
    return [Fraction(a, x.den) for a in x.nums]


@st.composite
def oracle_case(draw):
    n = draw(st.sampled_from(ORACLE_ORDERS))
    deg = len(cyclotomic_polynomial(n)) - 1
    entry = st.tuples(
        st.integers(0, deg - 1),
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
    )

    def vector():
        v = [Fraction(0)] * deg
        for i, c in draw(st.lists(entry, max_size=6)):
            v[i] = c
        return v

    j = draw(st.sampled_from([j for j in range(1, n + 1) if math.gcd(j, n) == 1]))
    return n, vector(), vector(), j


@settings(max_examples=150, deadline=None, derandomize=True)
@given(oracle_case())
def test_cyc_against_fraction_polynomial_oracle(case):
    n, va, vb, j = case
    a, b = Cyc(n, va), Cyc(n, vb)
    assert coefficients(a) == va
    assert coefficients(a + b) == [x + y for x, y in zip(va, vb)]
    assert coefficients(a - b) == [x - y for x, y in zip(va, vb)]
    assert coefficients(-a) == [-x for x in va]
    assert coefficients(a * b) == ref_mul(va, vb, n)
    assert coefficients(a * vb[0]) == [x * vb[0] for x in va]
    assert coefficients(a.galois(j)) == ref_galois(va, j, n)
    assert (a == b) == (va == vb)
    assert ((a + b) - b == a) and hash((a + b) - b) == hash(a)
    assert (a == va[0]) == (not any(va[1:]))
    if n in MONOMIAL_INVERSE_ORDERS:  # keep the first nonzero term of a
        first = next((i for i, c in enumerate(va) if c), None)
        va = [c if i == first else Fraction(0) for i, c in enumerate(va)]
        a = Cyc(n, va)
    if not any(va):
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        one = [Fraction(1)] + [Fraction(0)] * (len(va) - 1)
        assert ref_mul(va, coefficients(a.inverse()), n) == one


# -- independent closed form at a prime order -----------------------------------------
# For a prime N the power basis is 1, zeta, ..., zeta^{N-2}, and
# zeta^{N-1} = -(1 + zeta + ... + zeta^{N-2}).  So sum c_e zeta^e has the
# coordinates v_i - v_{N-1}, where v folds the exponents mod N.


def prime_closed_form(terms: dict[int, Fraction], n: int) -> list[Fraction]:
    v = [Fraction(0)] * n
    for e, c in terms.items():
        v[e % n] += c
    return [x - v[-1] for x in v[:-1]]


def from_terms(terms: dict[int, Fraction], n: int) -> Cyc:
    return sum((Cyc.zeta(n, e) * c for e, c in terms.items()), Cyc.rational(0, n))


def test_prime_order_1999_against_closed_form():
    n = 1999
    ta = {0: Fraction(3, 4), 5: Fraction(-2), 1998: Fraction(7, 3)}
    tb = {1: Fraction(1, 5), 1000: Fraction(1), 1997: Fraction(-6)}
    a, b = from_terms(ta, n), from_terms(tb, n)
    assert coefficients(a) == prime_closed_form(ta, n)
    product: dict[int, Fraction] = {}
    for e, c in ta.items():
        for f, d in tb.items():
            product[e + f] = product.get(e + f, 0) + c * d
    assert coefficients(a * b) == prime_closed_form(product, n)
    j = 1234
    assert coefficients(a.galois(j)) == prime_closed_form({e * j: c for e, c in ta.items()}, n)
    x = Cyc.zeta(n, 1998) * Fraction(-125, 3)
    assert coefficients(x.inverse()) == prime_closed_form({1: Fraction(-3, 125)}, n)
    minus_one = Cyc._from_exponent_dict(n, {e: 1 for e in range(1, n)})
    assert minus_one == -1 and minus_one != 1 and minus_one.is_rational()
    assert hash(minus_one) == hash(Cyc.rational(-1, n))


def test_prime_order_20011_in_bounded_memory():
    """Q(zeta_20011) under a 1.5 GB address-space limit.  The float shadow
    of zeta^20010 sums its 20,010 power-basis terms, which carries about
    1e-11 of rounding error, hence the tolerance."""
    pytest.importorskip("resource")
    code = textwrap.dedent(
        f"""
        import cmath, resource
        resource.setrlimit(resource.RLIMIT_AS, ({1536 * 2**20}, {1536 * 2**20}))
        from periodlab.cyclotomic import Cyc
        assert Cyc.zeta(20011, 1) * Cyc.zeta(20011, 20010) == 1
        z = Cyc.zeta(20011, 20010).to_complex()
        assert abs(z - cmath.exp(2j * cmath.pi * 20010 / 20011)) <= 1e-10
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_is_zero_agrees_with_canonical_form():
    """The one-term shortcut of is_zero against the canonical form; three
    stored terms 1 + zeta_3 + zeta_3^2 reduce to zero."""
    z3 = Cyc.zeta(3)
    three = Cyc.rational(1, 3) + z3 + Cyc.zeta(3, 2)
    assert len(three._terms) == 3
    cases = [
        three,
        Cyc.rational(0, 3),
        Cyc.rational(0, 12) * Cyc.zeta(12, 5),
        z3,
        Cyc.zeta(12, 7) * Fraction(-3, 5),
        Cyc.zeta(7, 3) - Cyc.zeta(7, 3),
        Cyc.zeta(7, 3) + Cyc.zeta(7, 4),
        Cyc.rational(2, 5),
    ]
    for x in cases:
        assert x.is_zero() == (not any(x.nums)), x
    assert three.is_zero()


STORAGE_ORDERS = [1, 12, 336, 1009]


def equal_and_hash_alike(x: Cyc, y: Cyc) -> bool:
    return x == y and y == x and not x != y and hash(x) == hash(y)


@pytest.mark.parametrize("n", STORAGE_ORDERS)
def test_equality_and_hash_across_storage(n):
    """Elements stored in different forms compare equal and hash alike;
    identical stored forms compare equal before either is reduced."""
    f = len(cyclotomic_polynomial(n)) - 1
    for e in sorted({f, (f + n - 1) // 2, n - 1, n}):
        power = Cyc.zeta(n, e)
        reduced = Cyc(n, power.nums)
        assert equal_and_hash_alike(power, reduced), (n, e)
    # one stored form in two fields: the orders are compared first
    assert Cyc.rational(2, n) != Cyc.rational(2, n + 1)
    if n % 2 == 0:
        zero = Cyc.rational(1, n) + Cyc.zeta(n, n // 2)
        assert len(zero._terms) == 2
        assert equal_and_hash_alike(zero, Cyc.rational(0, n)) and zero == 0
    for one in (Cyc.rational(1, n), 1, Fraction(1)):
        x = Cyc.zeta(n, n - 1) * Fraction(3, 4) + Cyc.zeta(n, 1) * Fraction(-5, 6)
        product = x * one
        assert product == x and product._form is None and x._form is None, (n, one)
        assert equal_and_hash_alike(product, x)


@pytest.mark.parametrize("n", STORAGE_ORDERS[1:])
def test_distinct_elements_with_one_denominator_are_unequal(n):
    half = Fraction(1, 2)
    pairs = [
        (Cyc.zeta(n, 1), Cyc.zeta(n, 2)),
        (Cyc.zeta(n, 1) * half, (Cyc.zeta(n, 1) + Cyc.zeta(n, 2)) * half),
        (Cyc.zeta(n, n - 1) * 3, Cyc.zeta(n, n - 1) * 2),
        (Cyc.rational(1, n), Cyc.rational(0, n) + Cyc.zeta(n, n // 2 + 1)),
    ]
    for x, y in pairs:
        assert x._den == y._den and x._terms != y._terms
        assert x != y and y != x and not x == y, (n, x, y)


@pytest.mark.parametrize("n", STORAGE_ORDERS)
def test_rational_from_int_fraction_and_bool(n):
    for value, forms in ((3, (3, Fraction(3))), (1, (True, 1, Fraction(1)))):
        built = [Cyc.rational(r, n) for r in forms]
        for x in built:
            assert all(type(a) is int for a in x._terms.values())
            assert equal_and_hash_alike(x, built[0]) and repr(x) == repr(built[0]) == str(value)
    assert Cyc.rational(False, n).is_zero() and Cyc.rational(0, n) == 0


def test_order_bound_admits_every_order_to_2000_and_20011():
    for n in range(1, 2001):
        check_order(n)
    check_order(20011)
    check_order(153949)  # the largest admitted prime


@pytest.mark.parametrize("n", [9240, 30030, 2310, 153953, 10**18])
def test_order_bound_refuses_before_work(n):
    """Above the bound, zeta, the canonical form and Phi_N itself are
    refused at once; unbounded, Cyc.zeta(30030, 30029) == Cyc.zeta(30030, 1)
    ran past 60 s."""
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="order work limit"):
        Cyc.zeta(n, n - 1)
    with pytest.raises(ValueError, match="order work limit"):
        cyclotomic_polynomial(n)
    with pytest.raises(ValueError, match="order work limit"):
        Cyc.rational(1, n) == Cyc.rational(2, n)
    assert time.perf_counter() - t0 < 0.1


def test_foreign_operands_negative_powers_and_refusals():
    """A float operand is refused by the operator protocol, a rational on
    the left subtracts, a negative power inverts, and galois and
    rational_value refuse what they cannot do."""
    z = Cyc.zeta(12)
    for op in (operator.add, operator.mul):
        with pytest.raises(TypeError):
            op(z, 1.5)
    assert z.__eq__(1.5) is NotImplemented and z != 1.5
    assert 1 - z == Cyc.rational(1, 12) - z and Fraction(1, 2) - z == -(z - Fraction(1, 2))
    assert z ** -2 == Cyc.zeta(12, 10)
    x = z + 2
    assert x ** -2 * x * x == 1
    with pytest.raises(ValueError, match="4 not coprime to 12"):
        z.galois(4)
    with pytest.raises(ValueError, match="element is not rational"):
        z.rational_value()
