"""``intpoly`` against a reference over Q written here: polynomials as
lists of ``Fraction`` coefficients, low degree first, [] for 0, with
schoolbook product and long division by a field element.  The
factorization multiplies back, and the squarefree rule of a tower's d
that rests on it agrees with a trial division by squares written here."""

import math
import random
from fractions import Fraction

import pytest

from periodlab.errors import ConfigError
from periodlab.intpoly import factorize, mul, pseudo_divmod
from periodlab.towers import MAX_BASE_DISC, FieldTower


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * y
    return _trim(out)


def _ref_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return _trim(out)


def _ref_divmod(num, den):
    """(Q, R) over Q with num = Q den + R and deg R < deg den."""
    rem = [Fraction(x) for x in num]
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for i in range(len(rem) - len(den), -1, -1):
        t = rem[i + len(den) - 1] / den[-1]
        quot[i] = t
        for j, d in enumerate(den):
            rem[i + j] -= t * d
    return _trim(quot), _trim(rem)


def _random_poly(rng, degree, monic=False):
    """Integer coefficients in [-9, 9], about half of them 0, and a
    nonzero leading one (1 when ``monic``); [] for degree -1."""
    if degree < 0:
        return []
    low = [rng.choice((0, rng.randint(-9, 9))) for _ in range(degree)]
    lead = 1 if monic else rng.choice([c for c in range(-9, 10) if c])
    return low + [lead]


def _check_pseudo_divmod(num, den):
    """The identity c num = q den + r with deg r < deg den, for the c > 0
    that the reference quotient gives, which must be |lead den|^k; returns c."""
    q, r = pseudo_divmod(num, den)
    assert q == _trim(q) and r == _trim(r)
    assert len(r) < len(den)
    ref_q, ref_r = _ref_divmod(num, den)
    c = Fraction(q[-1]) / ref_q[-1] if ref_q else Fraction(1)
    assert c.denominator == 1 and c > 0
    assert _ref_mul([c], num) == _ref_add(_ref_mul(q, den), r)
    assert q == _ref_mul([c], ref_q) and r == _ref_mul([c], ref_r)
    lead = abs(den[-1])
    assert any(c == lead**k for k in range(max(len(num) - len(den) + 2, 1)))
    return c


def test_mul_equals_the_reference():
    rng = random.Random(20261020)
    for _ in range(400):
        a = _random_poly(rng, rng.randint(-1, 12))
        b = _random_poly(rng, rng.randint(-1, 12))
        assert mul(a, b) == _ref_mul(a, b)
    assert mul([], [1, 2]) == mul([3], []) == []


def test_pseudo_divmod_identity():
    rng = random.Random(32)
    for _ in range(400):
        den = _random_poly(rng, rng.randint(0, 8))
        num = _random_poly(rng, rng.randint(-1, 16))
        _check_pseudo_divmod(num, den)


def test_pseudo_divmod_by_a_monic_divisor_is_exact_division():
    rng = random.Random(7)
    for _ in range(400):
        den = _random_poly(rng, rng.randint(0, 8), monic=True)
        num = _random_poly(rng, rng.randint(-1, 16))
        assert _check_pseudo_divmod(num, den) == 1
        quot = _random_poly(rng, rng.randint(-1, 8))
        assert pseudo_divmod(mul(quot, den), den) == (quot, [])


def test_pseudo_divmod_edge_cases():
    assert pseudo_divmod([], [1, 1]) == ([], [])
    assert pseudo_divmod([5, 3], [0, 0, 1]) == ([], [5, 3])
    assert pseudo_divmod([4, 6], [3]) == ([12, 18], [])  # c = 3^2
    # one step cancels x^2 and none x, so c = 2: 2(1 + x^2) = (-x)(-2x) + 2
    assert pseudo_divmod([1, 0, 1], [0, -2]) == ([0, -1], [2])


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


def _squarefree(d):
    """No k >= 2 with k^2 dividing d."""
    return all(d % (k * k) for k in range(2, math.isqrt(d) + 1))


def _accepted(d):
    try:
        FieldTower(base_disc=d, extension_poly=(0, 1))
    except ConfigError as exc:
        assert str(exc) == f"d = {d} must be a squarefree positive integer"
        return False
    return True


# near MAX_BASE_DISC = 10^12: the largest prime below it; 4 p for the largest
# prime p below 10^12 / 4, refused only after the trial division reaches
# sqrt(p); 999983 * 1000003, the primes either side of 10^6; 999983^2
NEAR_THE_LIMIT = [999999999989, 4 * 249999999973, 999983 * 1000003, 999983**2, MAX_BASE_DISC]


@pytest.mark.parametrize("d", NEAR_THE_LIMIT)
def test_squarefree_rule_near_the_limit(d):
    assert d <= MAX_BASE_DISC
    assert _accepted(d) == _squarefree(d)


def test_squarefree_rule_below_ten_thousand():
    """d is accepted iff every exponent of factorize(d) is 1."""
    assert [d for d in range(1, 10**4 + 1) if _accepted(d)] == [
        d for d in range(1, 10**4 + 1) if _squarefree(d)
    ]
