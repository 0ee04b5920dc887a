"""LaurentRatio keeps the pair it is built from: equality is cross
multiplication and the printed form is the reduced one, whichever pair
a rational function was built from."""

from fractions import Fraction

import pytest

from periodlab.cyclotomic import Cyc
from periodlab.intertwine import shell_sum
from periodlab.laurent import LaurentRatio, XPoly
from periodlab.lfactors import unramified_lratio

N = 12


def poly(*coeffs) -> XPoly:
    """c0 + c1 X + ... with coefficients in Q(zeta_12)."""
    return XPoly(N, dict(enumerate(coeffs)))


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


def test_ratios_are_unhashable():
    with pytest.raises(TypeError):
        hash(LaurentRatio(F, G))


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
