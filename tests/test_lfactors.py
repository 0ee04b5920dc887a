import functools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab.cyclotomic import Cyc
from periodlab.errors import ConfigError
from periodlab.intpoly import factorize
from periodlab.laurent import LaurentRatio
from periodlab.lfactors import (
    FiniteField,
    GaussSumSpec,
    VanishingToken,
    gamma_ratio,
    gauss_sum,
    normalizing_factor,
    unramified_lratio,
)


# -- unramified ratios -------------------------------------------------------------


def test_lratio_k_equals_n_is_one():
    a = Cyc.zeta(12, 5)
    assert unramified_lratio(3, 3, a, 2) == LaurentRatio.one(12)


def test_lratio_formula_n2():
    a = Cyc.zeta(12, 1)
    r = unramified_lratio(2, 1, a, 3)
    # evaluate both sides at a few points
    for s in (2.0, 3.5, 1.0 + 0.7j):
        x = 3.0 ** (-s)
        az = a.to_complex()
        expected = (1 - az * x) / (1 - az * 3 * x)
        assert abs(r.evaluate(x) - expected) < 1e-12


def test_telescoping():
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            a = Cyc.zeta(12, 7)
            # L(s-1)/L(s) of the twist with value a 5^(n-i-1) is L(s-n+i)/L(s-n+i+1)
            steps = [unramified_lratio(2, 1, a * 5 ** (n - i - 1), 5) for i in range(k, n)]
            prod = functools.reduce(operator.mul, steps, unramified_lratio(n, n, a, 5))
            assert prod == unramified_lratio(n, k, a, 5)


def test_lratio_positive_and_tends_to_one():
    a = Cyc.zeta(12, 5)  # |a| = 1
    r = unramified_lratio(3, 1, a, 2)
    prev = None
    for s in (5.0, 8.0, 12.0, 20.0):
        v = r.evaluate(complex(2) ** -s)
        assert v.real > 0
        dist = abs(v - 1)
        if prev is not None:
            assert dist < prev
        prev = dist
    assert abs(r.evaluate(complex(2) ** -30.0) - 1) < 1e-7


def test_sigma_twist_lratio():
    rational = Cyc.rational(2, 12)
    r = unramified_lratio(2, 1, rational, 5)
    assert r.galois(5) == r
    a = Cyc.zeta(12, 4)  # primitive cube root of unity
    r2 = unramified_lratio(2, 1, a, 5)
    tw = r2.galois(11)  # complex conjugation
    assert tw == unramified_lratio(2, 1, a.conj(), 5)
    assert tw.galois(11) == r2


# -- Gamma shifts --------------------------------------------------------------------


def test_gamma_ratio_values():
    assert gamma_ratio(2, 0, 1.0) == 1
    assert abs(gamma_ratio(2, 1, 1.0) - math.pi) < 1e-14
    assert abs(gamma_ratio(2, 2, 3.0) - math.pi**2 / 3) < 1e-14


def test_gamma_ratio_pole():
    with pytest.raises(ConfigError, match="shift ratio hits a pole at step t = 1"):
        gamma_ratio(2, 1, -1.0)  # s + m - 1 = 0


@given(
    m=st.integers(2, 6),
    j1=st.integers(0, 3),
    j2=st.integers(0, 3),
    s=st.floats(1.0, 5.0),
)
@settings(max_examples=100, deadline=None)
def test_gamma_ratio_cocycle(m, j1, j2, s):
    from hypothesis import assume

    # stay away from poles: cancellation in s + m - t amplifies rounding
    assume(all(abs(s + m - t) > 1e-2 for t in range(1, j1 + j2 + 1)))
    lhs = gamma_ratio(m, j1, s) * gamma_ratio(m - j1, j2, s)
    rhs = gamma_ratio(m, j1 + j2, s)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


# -- Gauss sums ------------------------------------------------------------------------


def test_trivial_character():
    for q in (3, 4, 5, 7, 9):
        g, approx = gauss_sum(GaussSumSpec(q=q, chi_order=1, chi_index=0))
        assert g.is_rational() and g.rational_value() == -1
        assert abs(approx + 1) < 1e-12


def test_quadratic_q3_exact():
    g, approx = gauss_sum(GaussSumSpec(q=3, chi_order=2, chi_index=1))
    # i*sqrt(3) = 2*zeta_6 - 1 in Q(zeta_6)
    assert g == Cyc.zeta(6, 1) * 2 - Cyc.rational(1, 6)
    assert abs(approx - 1j * math.sqrt(3)) < 1e-12


def test_quadratic_q5_float():
    _, approx = gauss_sum(GaussSumSpec(q=5, chi_order=2, chi_index=1))
    assert abs(approx - math.sqrt(5)) < 1e-12


def test_norm_squared_small_fields():
    for q in (3, 4, 5, 7, 8, 9):
        for t in range(1, q - 1):
            g, _ = gauss_sum(GaussSumSpec(q=q, chi_order=q - 1, chi_index=t))
            assert g.norm_squared() == Cyc.rational(q, g.n)


def test_involution_identity():
    """G(chi^{-1}) = chi(-1) * conj(G(chi)), checked exactly for q <= 13."""
    for q in (3, 4, 5, 7, 8, 9, 11, 13):
        field = FiniteField(q)
        minus_one = tuple((-c) % field.p for c in field.one)
        # -1 = gen^((q-1)/2) for odd q; for even q, -1 = 1
        for t in range(1, q - 1):
            g, _ = gauss_sum(GaussSumSpec(q=q, chi_order=q - 1, chi_index=t))
            ginv, _ = gauss_sum(GaussSumSpec(q=q, chi_order=q - 1, chi_index=q - 1 - t))
            if q % 2 == 0:
                chi_minus_one = Cyc.rational(1, g.n)
            else:
                # chi(-1) = zeta_{q-1}^{t(q-1)/2} = (-1)^t
                chi_minus_one = Cyc.rational((-1) ** t, g.n)
            assert ginv == chi_minus_one * g.conj()


def _order(field: FiniteField, a) -> int:
    """Multiplicative order of the unit a, by repeated multiplication."""
    x, k = a, 1
    while x != field.one:
        x, k = field.mul(x, a), k + 1
    return k


def test_finite_field_structure():
    f9 = FiniteField(9)
    assert f9.p == 3 and f9.e == 2
    assert _order(f9, f9.generator) == 8
    assert f9.trace(f9.one) == 2  # Tr(1) = e * 1 = 2 mod 3
    f8 = FiniteField(8)
    assert f8.p == 2 and f8.e == 3
    assert _order(f8, f8.generator) == 7


@pytest.mark.parametrize("q", [16, 32, 64, 81, 128, 243, 256])
def test_prime_power_fields(q):
    """Only a field has an element of order q - 1; the Gauss sum over it
    has |G|^2 = q exactly."""
    field = FiniteField(q)
    assert _order(field, field.generator) == q - 1
    g, _ = gauss_sum(GaussSumSpec(q=q, chi_order=q - 1, chi_index=1))
    assert g.norm_squared() == Cyc.rational(q, g.n)


def test_character_validation():
    with pytest.raises(ValueError) as exc:
        GaussSumSpec(q=5, chi_order=3, chi_index=1)  # 3 does not divide 4
    assert str(exc.value) == "character value is not well-defined on GF(q)^x"


def test_cyclotomic_order_bound():
    """N = lcm(q - 1, p) is refused above the order bound, before any work."""
    GaussSumSpec(q=43, chi_order=42)  # N = 1806
    GaussSumSpec(q=512, chi_order=511)  # N = 1022
    for q in (47, 1024, 1000003, 10**30 + 57):  # N = 2162, 2046, ...
        with pytest.raises(ValueError, match="the limit"):
            GaussSumSpec(q=q, chi_order=2)
    with pytest.raises(ValueError) as exc:
        GaussSumSpec(q=6, chi_order=5)
    assert str(exc.value) == "6 is not a prime power"


def test_gauss_admission_below_5000():
    """GF(q) for a prime power q < 5,000 is admitted exactly when
    N = lcm(q - 1, p) <= 2000 (30 of the 711)."""
    prime_powers, admitted = [], []
    for q in range(2, 5000):
        primes = list(factorize(q))
        if len(primes) != 1:
            continue
        prime_powers.append(q)
        try:
            GaussSumSpec(q=q, chi_order=1)
        except ValueError:
            assert math.lcm(q - 1, primes[0]) > 2000, q
        else:
            assert math.lcm(q - 1, primes[0]) <= 2000, q
            admitted.append(q)
    assert (len(admitted), len(prime_powers)) == (30, 711)


# Exact relations between Gauss sums.  GaussSumSpec(q, q - 1, j) is the
# character chi(gen^t) = zeta_{q-1}^{jt} on the fixed generator, and gauss_sum
# sums chi^-1(x) psi(x), psi(x) = zeta_p^{trace(x)}.


def _lift(x: Cyc, n: int) -> Cyc:
    """x in Q(zeta_m) read in Q(zeta_n), for m dividing n."""
    step = n // x.n
    return Cyc._from_exponent_dict(n, {i * step: Fraction(c, x.den) for i, c in enumerate(x.nums)})


def _discrete_logs(field: FiniteField) -> dict:
    """{x: t} with x = gen^t, over GF(q)^x."""
    logs, x = {}, field.one
    for t in range(field.q - 1):
        logs[x] = t
        x = field.mul(x, field.generator)
    return logs


def _hasse_davenport_failures() -> list[tuple[int, int]]:
    """(q, j) for prime q and every chi of GF(q)^x where the lifting relation
    -G(chi o N) = (-G(chi))^2 fails, N(x) = x^(q + 1) the norm from GF(q^2);
    q = 13 needs Q(zeta_2184), above the order bound."""
    failures = []
    for q in (2, 3, 5, 7, 11):
        base_logs = _discrete_logs(FiniteField(q))
        big = FiniteField(q * q)
        (norm_gen, *rest) = big.pow(big.generator, q + 1)  # generates GF(q)^x
        assert not any(rest)
        ell = base_logs[(norm_gen,)]  # chi o N (gen) = chi(gen)^ell
        for j in range(q - 1):
            g, _ = gauss_sum(GaussSumSpec(q=q, chi_order=q - 1, chi_index=j))
            lifted, _ = gauss_sum(GaussSumSpec(q=q * q, chi_order=q - 1, chi_index=j * ell))
            if -lifted != _lift(-g, lifted.n) ** 2:
                failures.append((q, j))
    return failures


def test_hasse_davenport_lifting():
    assert _hasse_davenport_failures() == []


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11, 13])
def test_jacobi_factorization(q):
    """G(chi1) G(chi2) = J(chi1^-1, chi2^-1) G(chi1 chi2) for chi1 chi2
    nontrivial, J(a, b) = sum a(x) b(1 - x) counted from a discrete-log
    table: no additive character, no trace."""
    field = FiniteField(q)
    logs = _discrete_logs(field)
    ncyc = math.lcm(q - 1, field.p)
    unit = ncyc // (q - 1)  # zeta_{q-1} = zeta_ncyc^unit
    pairs = [(j1, j2) for j1 in range(q - 1) for j2 in range(q - 1) if (j1 + j2) % (q - 1)]
    for j1, j2 in random.Random(q).sample(pairs, 8):
        counts: dict[int, int] = {}
        for x, t in logs.items():
            y = tuple((a - b) % field.p for a, b in zip(field.one, x))
            if y in logs:  # x != 1
                e = -unit * (j1 * t + j2 * logs[y])
                counts[e] = counts.get(e, 0) + 1
        jacobi = Cyc._from_exponent_dict(ncyc, counts)
        g1, g2, g12 = (gauss_sum(GaussSumSpec(q=q, chi_order=q - 1, chi_index=j))[0]
                       for j in (j1, j2, j1 + j2))
        assert g1 * g2 == jacobi * g12, (j1, j2)


def _galois_law_failures() -> list[tuple[int, int, int]]:
    """(q, j, c) where sigma_c(G(chi)) = chi^c(c) G(chi^c) fails, for a seeded
    sample of 24 pairs per field: chi(gen^t) = zeta_{q-1}^{jt}, and c prime
    to N = lcm(q - 1, p), read in F_p inside GF(q).  sigma_c sends
    chi^-1(x) psi(x) to (chi^c)^-1(x) psi(c x), since c trace(x) = trace(c x)."""
    rng = random.Random(25)
    failures = []
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49):
        field = FiniteField(q)
        logs = _discrete_logs(field)
        n = math.lcm(q - 1, field.p)
        units = [c for c in range(1, n) if math.gcd(c, n) == 1]
        sums = {}

        def gauss(j):
            j %= q - 1
            if j not in sums:
                sums[j] = gauss_sum(GaussSumSpec(q=q, chi_order=q - 1, chi_index=j))[0]
            return sums[j]

        for _ in range(24):
            j, c = rng.randrange(q - 1), rng.choice(units)
            t = logs[(c % field.p,) + field.zero[1:]]  # c = gen^t
            chi_c_at_c = Cyc.zeta(n, n // (q - 1) * j * c * t % n)
            if gauss(j).galois(c) != chi_c_at_c * gauss(j * c):
                failures.append((q, j, c))
    return failures


def test_galois_law():
    """The exact Galois law of Gauss sums; it pins the argument of G(chi),
    which |G|^2 = q leaves free, and fails with chi in place of chi^-1."""
    assert _galois_law_failures() == []


def test_first_coordinate_for_trace_is_rejected(monkeypatch):
    """Regression: psi(x) = zeta_p^{x_0} in place of zeta_p^{trace(x)} keeps
    |G|^2 = q, and the Jacobi relation too (it scales every G(chi) by
    chi(b) for one b), but not the lifting relation."""
    monkeypatch.setattr(FiniteField, "trace", lambda self, a: a[0])
    g, _ = gauss_sum(GaussSumSpec(q=9, chi_order=8, chi_index=1))
    assert g.norm_squared() == Cyc.rational(9, g.n)
    assert len(_hasse_davenport_failures()) > 0


# -- tokens and normalization -----------------------------------------------------------


def test_vanishing_token_validation():
    VanishingToken(order_zero=0)
    VanishingToken(order_zero=1)
    with pytest.raises(ValueError) as exc:
        VanishingToken(order_zero=2)
    assert str(exc.value) == "order flag must be 0 (nonzero) or 1 (vanishing)"


def test_normalizing_factor_branches():
    assert normalizing_factor(VanishingToken(order_zero=0), 2) == ("one", "1")
    assert normalizing_factor(VanishingToken(order_zero=1), 2) == (
        "compensated", "i^1 * Delta * L(s)/L(s-1)"
    )


def test_lratio_k_out_of_range_and_negative_gamma_steps_refused():
    with pytest.raises(ConfigError, match="k out of range"):
        unramified_lratio(3, 0, Cyc.zeta(12), 2)
    with pytest.raises(ConfigError, match="negative step count"):
        gamma_ratio(2, -1, 1.0)
