"""LaurentRatio keeps the pair it is built from: ratios with equal
denominators compare their numerators, other ratios cross-multiply, and
the printed form is the reduced one, whichever pair a rational function
was built from."""

import math
import random
import time
from fractions import Fraction

import pytest

from periodlab.cyclotomic import Cyc
from periodlab.intertwine import shell_sum
from periodlab.laurent import LaurentRatio, XPoly
from periodlab.lfactors import unramified_lratio

N = 12


def poly(*coeffs) -> XPoly:
    """c0 + c1 X + ... with coefficients in Q(zeta_12), given as ``Cyc``
    values or rationals."""
    return XPoly(N, {d: c if isinstance(c, Cyc) else Cyc.rational(c, N)
                     for d, c in enumerate(coeffs)})


ZETA = Cyc.zeta(N, 1)
F = poly(1, -ZETA)                 # 1 - zeta X
G = poly(Cyc.rational(2, N), 3)    # 2 + 3X
H = poly(1, 0, ZETA)               # 1 + zeta X^2
P = poly(ZETA, 1, 5)               # zeta + X + 5X^2


def test_unreduced_ratio_equals_and_prints_as_reduced():
    r1 = LaurentRatio(P * F, P * G)
    r2 = LaurentRatio(F, G)
    assert r1.num == P * F and r1.den == P * G  # stored as built
    assert r1 == r2
    assert repr(r1) == repr(r2)
    assert r1 != LaurentRatio(F, H)


def test_printed_form_is_normalized():
    # den(0) = 1 when den has a constant term, else den is monic
    assert repr(LaurentRatio(F * 3, G * 3)) == repr(LaurentRatio(F * Fraction(1, 2), G * Fraction(1, 2)))
    assert repr(LaurentRatio(F, G)).endswith(" / [(1) + (3/2)*X]")
    assert repr(LaurentRatio(poly(0, 2), poly(0, 0, 4))) == "[(1/2)] / [(1)*X]"
    assert repr(LaurentRatio(poly(), G)) == "[0] / [(1)]"


def test_is_one_on_unreduced_pair():
    r = LaurentRatio(P * F, P * F)
    assert r.num.degree() == 3
    assert r == LaurentRatio.one(r.num.n)
    assert LaurentRatio(F, G) != LaurentRatio.one(F.n)


def test_monomials_of_negative_degree_are_refused():
    assert XPoly.const(N, 0).is_zero() and XPoly.monomial(N, 2, ZETA) == poly(0, 0, ZETA)
    for c in (1, 0, ZETA):
        with pytest.raises(ValueError, match="negative degree"):
            XPoly.monomial(N, -1, c)


def test_ratios_are_unhashable():
    for value in (LaurentRatio(F, G), F):
        with pytest.raises(TypeError):
            hash(value)


def assert_shell_sum_prints_as_product_formula(n, k, a, q):
    value, target = shell_sum(n, k, a, q), unramified_lratio(n, k, a, q)
    assert value == target, (n, k, a, q)
    assert repr(value) == repr(target), (n, k, a, q)


def test_shell_sum_prints_as_product_formula_on_criterion_1_grid():
    for n in range(1, 5):
        for k in range(1, n + 1):
            for q in (2, 3, 5):
                for j in range(12):
                    assert_shell_sum_prints_as_product_formula(n, k, Cyc.zeta(12, j), q)


@pytest.mark.parametrize("n,k,j,q", [(2, 1, 1, 2), (3, 1, 97, 3), (4, 2, 335, 5), (4, 4, 5, 2)])
def test_shell_sum_prints_as_product_formula_over_q_zeta_336(n, k, j, q):
    assert_shell_sum_prints_as_product_formula(n, k, Cyc.zeta(336, j), q)


# -- the shared-denominator shortcut against explicit cross multiplication ------


def sparse_poly(rng: random.Random, n: int) -> XPoly:
    """Up to three nonzero terms of degree <= 3, each coefficient a sum of
    one or two c * zeta^e with e drawn from all of 0..N-1, so that
    exponents at or above phi(N) stay unreduced in the stored map."""
    coeffs = {}
    for d in rng.sample(range(4), rng.randint(1, 3)):
        c = Cyc.rational(0, n)
        for _ in range(rng.randint(1, 2)):
            c = c + Cyc.zeta(n, rng.randrange(n)) * Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 6))
        coeffs[d] = c
    return XPoly(n, coeffs)


def restated(p: XPoly) -> XPoly:
    """p stored in another form: times const(1), and at even N each
    coefficient plus the zero 1 + zeta^(N/2) as two more stored terms."""
    n = p.n
    if n % 2:
        return XPoly.const(n, 1) * p
    zero = Cyc.rational(1, n) + Cyc.zeta(n, n // 2)
    return XPoly.const(n, 1) * XPoly(n, {d: c + zero for d, c in p.coeffs.items()})


def same_function(r: LaurentRatio, num: XPoly, den: XPoly) -> bool:
    """r == num / den, decided by cross multiplication of XPoly values."""
    return r.num * den == num * r.den


@pytest.mark.parametrize("n", [1, 12, 336])
def test_shared_denominator_shortcuts_agree_with_cross_multiplication(n):
    """Each check is a bool, so that a failure prints no ratio: ``repr``
    reduces by a gcd, which at N = 336 inverts dense coefficients."""
    rng = random.Random(2600 + n)
    two = Cyc.rational(2, n)
    for case in range(25):
        a, b, d = sparse_poly(rng, n), sparse_poly(rng, n), sparse_poly(rng, n)
        checks = [(a + b) - b == a, a - b == a + b * Cyc.rational(-1, n)]
        for d2 in (d, restated(d)):
            r, s = LaurentRatio(a, d), LaurentRatio(b, d2)
            checks += [d2 == d, (r == s) == (a * d2 == b * d) == (a == b)]
        same, restated_same = LaurentRatio(a, d), LaurentRatio(a, restated(d))
        # one function over two denominators takes the cross multiplication
        doubled = LaurentRatio(a * two, d * two)
        checks += [
            # equal denominators: unequal numerators are unequal ratios
            (LaurentRatio(a, d) != LaurentRatio(b, restated(d))) == (a != b),
            same == restated_same,
            doubled == same,
            doubled != LaurentRatio(a + XPoly.const(n, 1), d),
        ]
        assert all(checks), (n, case, checks)


def test_reduced_form_inverts_no_remainder_coefficient():
    """A coprime pair at N = 336 whose Euclidean remainders have dense
    leading coefficients: inverting each one by its 95-conjugate norm
    product ran for minutes.  The gcd takes pseudo-remainders, which only
    multiply, so the print is immediate."""
    rng = random.Random(2936)
    a, d = sparse_poly(rng, 336), sparse_poly(rng, 336)
    r = LaurentRatio(a, d)
    t0 = time.perf_counter()
    text = repr(r)
    assert time.perf_counter() - t0 < 5.0
    num, den = r._reduced()
    assert text == f"[{num!r}] / [{den!r}]"
    assert same_function(r, num, den)
    assert a.gcd(d) == XPoly.const(336, 1)


def test_gcd_is_monic_and_cancels_a_common_factor():
    assert P.gcd(F) == XPoly.const(N, 1)
    g = (P * F).gcd(P * G)
    assert g == P * Fraction(1, 5)
    assert XPoly(N, {}).gcd(XPoly(N, {})).is_zero()


# -- pseudo-division -----------------------------------------------------------------


@pytest.mark.parametrize("n", [7, 12])
def test_pseudo_divmod_identity_on_sparse_polynomials(n):
    """lead(den)^m * num = q * den + r with deg r < deg den, where m is the
    number of terms of q, checked by multiplication only for seeded sparse
    polynomials over Q(zeta_7) and Q(zeta_12) and non-monic divisors, and
    pinned for a dividend whose top term after one step is an exact zero;
    a monic divisor of degree 4 gives the exact quotient and remainder."""
    rng = random.Random(3400 + n)
    for case in range(30):
        num = sparse_poly(rng, n) * sparse_poly(rng, n) + sparse_poly(rng, n)
        den = sparse_poly(rng, n)
        while den.is_zero():  # at even N a coefficient may cancel
            den = sparse_poly(rng, n)
        if den.leading() == 1:
            den = den * Cyc.zeta(n, 1)
        lead = den.leading()
        assert lead != 1
        q, r = num.pseudo_divmod(den)
        m = len(q.coeffs)
        assert m <= max(num.degree() - den.degree() + 1, 0), (n, case)
        assert num * lead ** m == q * den + r, (n, case)
        assert r.degree() < den.degree(), (n, case)
        # a X den + low cancels its X^deg(den) term in the first step, so
        # the zero left there is skipped, not a second step
        a = Cyc.zeta(n, case) * (case + 1)
        low = XPoly(n, {d: c for d, c in sparse_poly(rng, n).coeffs.items() if d < den.degree()})
        assert (XPoly.monomial(n, 1, a) * den + low).pseudo_divmod(den) == (
            XPoly.monomial(n, 1, a * lead), low * lead), (n, case)

        f, rest = sparse_poly(rng, n), sparse_poly(rng, n)
        monic = sparse_poly(rng, n) + XPoly.monomial(n, 4, 1)
        assert (f * monic + rest).pseudo_divmod(monic) == (f, rest), (n, case)
        assert (f * monic).pseudo_divmod(monic) == (f, XPoly(n, {})), (n, case)


def test_pseudo_divmod_below_the_divisor_degree_and_by_zero():
    assert G.pseudo_divmod(P) == (XPoly(N, {}), G)
    assert XPoly(N, {}).pseudo_divmod(G) == (XPoly(N, {}), XPoly(N, {}))
    with pytest.raises(ValueError, match="zero polynomial"):
        G.pseudo_divmod(XPoly(N, {}))


def test_refusals_and_foreign_comparisons():
    """A zero or foreign-field denominator is refused; a polynomial or a
    ratio compared with another type is unequal to it."""
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        LaurentRatio(F, XPoly(N, {}))
    with pytest.raises(ValueError, match="mixed coefficient fields"):
        LaurentRatio(F, XPoly.const(7, 1))
    with pytest.raises(ValueError, match="zero polynomial"):
        XPoly(N, {}).leading()
    assert F.__eq__(1) is NotImplemented and F != 1
    assert LaurentRatio(F, G).__eq__(F) is NotImplemented and LaurentRatio(F, G) != F


# -- stored forms -------------------------------------------------------------------


def lowest_terms(x: Cyc) -> bool:
    """x stores no zero term, over a positive denominator prime to its terms."""
    return all(x._terms.values()) and x._den > 0 and math.gcd(x._den, *x._terms.values()) == 1


def stores_no_zero(p: XPoly) -> bool:
    return all(not c.is_zero() and lowest_terms(c) for c in p.coeffs.values())


@pytest.mark.parametrize("n", [1, 12, 336])
def test_operations_keep_the_stored_forms_the_fast_paths_rely_on(n):
    """Negation and subtraction of Cyc skip the zero filter and the gcd of
    the general sum, and XPoly drops a zero coefficient only in its
    constructor: under forced cancellations, -x and x - y store no zero
    term and stay in lowest terms, and XPoly's +, -, * and pseudo_divmod
    store no zero coefficient.  At N = 12 and 336, 1 + zeta^(N/3) +
    zeta^(2N/3) is a zero stored as three terms."""
    rng = random.Random(4000 + n)
    one = Cyc.rational(1, n)
    hidden = Cyc._from_exponent_dict(n, {0: 1, n // 3: 1, 2 * n // 3: 1}) if n % 3 == 0 else one - one
    assert hidden.is_zero()
    for case in range(30):
        f, g = sparse_poly(rng, n), sparse_poly(rng, n)
        a, b = f.coeffs[max(f.coeffs)], g.coeffs[max(g.coeffs)] * Fraction(rng.randint(1, 9), 7)
        cycs = [-a, -(a - b), a - a, a + (-a), -a + a, a - b, b - a, (a + b) - b - a,
                a - Fraction(1, 3), 2 - a, a + hidden - a, -hidden]
        assert all(lowest_terms(x) for x in cycs), (n, case)
        assert not (a - a)._terms and not (a + (-a))._terms and not (-a + a)._terms
        line, const = XPoly(n, {0: one, 1: -a}), XPoly.const(n, 1)  # 1 - aX, 1
        zeros = [line + XPoly.monomial(n, 1, a) - const, line + XPoly(n, {1: a + hidden}) - const,
                 line - line, line + line * -1, f - f, f * g - g * f]
        assert all(p.is_zero() and not p.coeffs for p in zeros), (n, case)
        polys = [f + g, f - g, f * g, f * line, XPoly(n, {0: hidden, 1: a})]
        for den in (line, g):
            polys += [*(f * den).pseudo_divmod(den), *f.pseudo_divmod(den)]
        assert all(stores_no_zero(p) for p in polys), (n, case)
        assert polys[4] == XPoly.monomial(n, 1, a)
