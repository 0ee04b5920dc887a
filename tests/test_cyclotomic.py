import cmath
from fractions import Fraction

import pytest

from periodlab.cyclotomic import Cyc, cyclotomic_polynomial, factorize


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_factorize():
    """The factorization multiplies back, with prime keys, for every n <= 2000."""
    assert factorize(1) == {}
    assert factorize(1000003) == {1000003: 1}
    assert factorize(2**10 * 3**5 * 7) == {2: 10, 3: 5, 7: 1}
    for n in range(1, 2001):
        f = factorize(n)
        assert all(p > 1 and all(p % d for d in range(2, p)) for p in f)
        product = 1
        for p, e in f.items():
            product *= p**e
        assert product == n


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


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        Cyc.zeta(12) * Cyc.zeta(8)
