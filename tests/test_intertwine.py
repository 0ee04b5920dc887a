import cmath
import itertools
import math
import random
import time

import mpmath
import pytest

from periodlab.cyclotomic import Cyc
from periodlab.errors import AuditFailed, ConfigError, QuadratureNotConverged
from periodlab import intertwine
from periodlab.intertwine import (
    arch_intertwining,
    arch_section,
    assemble_constant_term,
    nonarch_intertwining,
    shell_sum,
)
from periodlab.laurent import LaurentRatio, XPoly
from periodlab.lfactors import VanishingToken, gamma_ratio, unramified_lratio
from periodlab import quadrature


# -- sections ----------------------------------------------------------------------


@pytest.mark.parametrize("eta_pair, beta, message", [
    ((0, 2), (0, 2, 0), "beta must have length n"),
    ((0, 2), (-1, 3), "beta entries must be nonnegative"),
    ((0, 2), (0, 1), "beta entries must sum to eta_high - eta_low"),
    # the eta pair is checked first
    ((1, 2), (0, 2, 0), "eta pair must satisfy eta_low <= 0 and eta_high >= n"),
    ((0, 2**53 + 1), (0, 1), "eta pair entries must lie within 2^53, the integers a double holds"),
])
def test_section_validation(eta_pair, beta, message):
    with pytest.raises(ConfigError) as exc:
        arch_section(2, eta_pair, beta)
    assert str(exc.value) == message


# -- shell sums ---------------------------------------------------------------------


def test_shell_sum_reduces_to_product_formula():
    a = Cyc.zeta(12, 1)
    assert shell_sum(2, 1, a, 3) == unramified_lratio(2, 1, a, 3)


def test_shell_sum_k_equals_n():
    a = Cyc.zeta(12, 4)
    assert shell_sum(3, 3, a, 2) == LaurentRatio.one(12)


def test_shell_sum_numeric_lattice():
    """Brute-force shell enumeration over valuation vectors agrees with
    the closed-form rational function inside the convergence region."""
    import itertools

    q, n, k, s = 3, 3, 1, 2.5
    m = n - k
    a = Cyc.zeta(12, 1)
    az = a.to_complex()
    x = q ** (-s)
    total = 0j
    T = 40  # |a q^m x| ~ 0.58: tail beyond T is ~ 0.58^T
    for vec in itertools.product(range(-T, T + 1), repeat=m):
        vol = 1.0
        for c in vec:
            vol *= q ** (-c) * (1 - 1 / q)
        t = max(0, -min(vec))
        total += vol * (az * x) ** t
    closed = shell_sum(n, k, a, q).evaluate(x)
    assert abs(total - closed) < 1e-8


def test_nonarch_intertwining_verdicts():
    for q in (2, 3, 5):
        for j in (0, 1, 5, 7):
            res = nonarch_intertwining(3, 1, Cyc.zeta(12, j), q)
            assert res.verdict


def exact_arith_sample(seed: int = 2901) -> list:
    """Two seeded exponents j per (n, k, q) of the exact-arith grid:
    N = 336, 1 <= k < n <= 4, q in {2, 3, 5}."""
    rng = random.Random(seed)
    return [(n, k, q, j)
            for n in (2, 3, 4) for k in range(1, n) for q in (2, 3, 5)
            for j in rng.sample(range(1, 336), 2)]


def coefficients(ratio: LaurentRatio) -> list:
    return list(ratio.num.coeffs.values()) + list(ratio.den.coeffs.values())


def test_nonarch_verdict_needs_no_canonical_form():
    """The value and the target store one pair of polynomials, so the
    verdict comes from the stored forms: no coefficient reduces modulo
    Phi_336."""
    for n, k, q, j in exact_arith_sample():
        res = nonarch_intertwining(n, k, Cyc.zeta(336, j), q)
        assert res.verdict, (n, k, q, j)
        assert all(c._form is None for c in coefficients(res.value) + coefficients(res.target)), \
            (n, k, q, j)


def shell_sum_with(numerator):
    """A shell sum whose numerator over den = 1 - q^m aX is
    numerator(den, q^m aX, a); the true one is den + q^m aX - aX."""
    def shell_sum(n, k, a, q):
        scaled = XPoly.monomial(a.n, 1, a * q ** (n - k))
        den = XPoly.const(a.n, 1) - scaled
        return LaurentRatio(numerator(den, scaled, a), den)
    return shell_sum


@pytest.mark.parametrize("numerator", [
    pytest.param(lambda den, scaled, a: scaled - XPoly.monomial(a.n, 1, a), id="no-shell-zero"),
    pytest.param(lambda den, scaled, a: den + scaled, id="no-minus-aX"),
    # the X coefficients of the numerators differ but share one denominator
    pytest.param(lambda den, scaled, a: den + scaled - XPoly.monomial(a.n, 1, a * a), id="a-squared"),
])
def test_broken_shell_sum_fails_the_verdict(numerator, monkeypatch):
    monkeypatch.setattr(intertwine, "shell_sum", shell_sum_with(numerator))
    for n, k, q, j in exact_arith_sample():
        assert not nonarch_intertwining(n, k, Cyc.zeta(336, j), q).verdict, (n, k, q, j)


def test_restated_shell_sum_passes_through_the_canonical_form(monkeypatch):
    """An X coefficient stored as a + 1 + zeta^168, the same element in
    another form, still equals the target's a: the comparison falls back
    to the canonical form."""
    zero = Cyc.rational(1, 336) + Cyc.zeta(336, 168)
    restated = shell_sum_with(lambda den, scaled, a: den + scaled - XPoly.monomial(a.n, 1, a + zero))
    monkeypatch.setattr(intertwine, "shell_sum", restated)
    for n, k, q, j in exact_arith_sample():
        res = nonarch_intertwining(n, k, Cyc.zeta(336, j), q)
        assert res.verdict, (n, k, q, j)
        assert res.value.num.coeffs[1]._form is not None


# -- archimedean -----------------------------------------------------------------------


def test_arch_pi_example():
    res = arch_intertwining(2, 1, (0, 2), (0, 2), 1.0)
    assert abs(res.value - math.pi) < 1e-6 * math.pi
    assert res.verdict


def test_arch_angular_vanishing():
    res = arch_intertwining(2, 1, (0, 2), (1, 1), 1.0)
    assert abs(res.value) < 1e-8 * math.pi
    assert res.verdict


def test_arch_k_equals_n():
    res = arch_intertwining(2, 2, (0, 2), (0, 2), 0.5)
    assert abs(res.value - 1) < 1e-12
    res0 = arch_intertwining(2, 2, (0, 2), (1, 1), 0.5)
    assert res0.value == 0


def test_arch_identically_zero_branch():
    # beta positive on a zero entry of the slice's last row
    res = arch_intertwining(3, 2, (0, 3), (1, 0, 2), 2.0)
    assert res.value == 0 and res.verdict


def test_arch_2d_matches_shift_product():
    res = arch_intertwining(3, 1, (0, 3), (0, 0, 3), 2.0)
    target = gamma_ratio(3, 2, 2.0)
    assert abs(res.value - target) < 1e-6 * abs(target)


def test_arch_complex_s():
    s = 1.5 + 0.25j
    res = arch_intertwining(2, 1, (-1, 2), (0, 3), s)
    target = gamma_ratio(2, 1, s)
    assert abs(res.value - target) < 1e-6 * abs(target)
    assert res.verdict


def test_arch_transitivity_cocycle():
    """Multi-step values factor through single shift steps."""
    s = 2.0
    v21 = arch_intertwining(3, 1, (0, 3), (0, 0, 3), s).value
    step1 = gamma_ratio(3, 1, s)
    step2 = gamma_ratio(2, 1, s)  # next step down has m - 1
    assert abs(v21 - step1 * step2) < 1e-6 * abs(v21)


@pytest.mark.parametrize("s", [2.0, 1.5 + 0.5j])
@pytest.mark.parametrize("beta", [(0, 0, 0, 4), (0, 1, 0, 3), (0, 0, 0, 0, 5), (1, 0, 0, 0, 4)])
def test_arch_slice_dimensions_3_and_4(beta, s):
    n = len(beta)
    t0 = time.perf_counter()
    res = arch_intertwining(n, 1, (0, n), beta, s)
    elapsed = time.perf_counter() - t0
    target = gamma_ratio(n, n - 1, s)
    if beta == (0,) * (n - 1) + (n,):
        assert abs(res.value - target) <= 1e-9 * abs(target)
    else:
        assert abs(res.value) <= 1e-8 * abs(target)
    assert res.verdict
    assert elapsed < 5.0


@pytest.mark.parametrize("s", [2.0, 1.5 + 0.5j])
def test_arch_slice_dimension_5_converges_or_refuses(s, monkeypatch):
    """beta0 at n = 6 either converges within 10 s, or raises before it sums
    a level over the point budget: all the points it summed fit in one."""
    summed = 0
    new_points_sum = quadrature._new_points_sum

    def counted(g, groups):
        def g_counted(u):
            nonlocal summed
            summed += 1
            return g(u)

        return new_points_sum(g_counted, groups)

    monkeypatch.setattr(quadrature, "_new_points_sum", counted)
    t0 = time.perf_counter()
    try:
        res = arch_intertwining(6, 1, (0, 6), (0, 0, 0, 0, 0, 6), s)
    except QuadratureNotConverged:
        assert summed <= quadrature.MAX_POINTS
    else:
        target = gamma_ratio(6, 5, s)
        assert abs(res.value - target) <= 1e-9 * abs(target)
    assert time.perf_counter() - t0 < 10.0


def exact_radial(powers, e):
    """int over [0, inf)^m of (1 + |x|^2)^-e prod x_j^p_j dx
    = prod_j Gamma((p_j + 1) / 2) / 2 * Gamma(e - a) / Gamma(e),
    a = sum_j (p_j + 1) / 2."""
    a = sum(p + 1 for p in powers) / 2
    value = mpmath.gamma(e - a) / mpmath.gamma(e)
    for p in powers:
        value *= mpmath.gamma((p + 1) / 2) / 2
    return complex(value)


EXACT_POWERS = [(1,), (4,), (1, 1), (2, 1), (3, 3), (1, 1, 1), (2, 1, 1), (1, 1, 2), (3, 1, 2)]
# (powers, d) with d = e - a: the radial integrand decays like |x|^(-2d - 1),
# and the intertwining integrals admit d > 0.5.  As specified by Bailey et al.
# (digit doubling) the estimate let the true error reach 6 to 14 times tol at
# d = 1.25 and 1.5 in dimensions 2 to 4.
EXACT_CASES = (
    [(powers, d) for powers in EXACT_POWERS for d in (1.0, 1.25, 1.5, 2.0, 2.5 + 1j, 4.0)]
    + [(powers, d) for powers in [(1, 1, 1, 1), (2, 1, 1, 1)] for d in (2.0, 2.5 + 1j, 4.0)]
)
# Near the slowest admitted decay the estimate is still optimistic: over
# d = 0.55, 0.6, ..., 2 these integrals end 1.1 to 2.5 times over tol.
SLOW_DECAY_CASES = [((1, 1), 0.6), ((2, 1), 0.6), ((3, 3), 0.8), ((1, 1, 1), 0.65),
                    ((2, 1, 1), 0.65), ((3, 1, 2), 0.75)]


def check_exact_value(powers, d, tol=1e-9):
    e = sum(p + 1 for p in powers) / 2 + d
    value, err = quadrature.quad(lambda u: (1.0 + u) ** -e, list(powers), tol)
    exact = exact_radial(powers, e)
    assert abs(value - exact) <= tol * abs(exact)
    assert err <= tol * abs(value)


@pytest.mark.parametrize("powers, d", EXACT_CASES, ids=lambda v: str(v).replace(" ", ""))
def test_tensor_rule_exact_values(powers, d):
    check_exact_value(powers, d)


@pytest.mark.xfail(strict=True, reason="three-level estimate optimistic near the slowest decay")
@pytest.mark.parametrize("powers, d", SLOW_DECAY_CASES, ids=lambda v: str(v).replace(" ", ""))
def test_tensor_rule_exact_values_slow_decay(powers, d):
    check_exact_value(powers, d)


# The polar check catches the optimistic estimate; the rerun at a quarter of
# tol fixes the cases with m <= 2 and (1, 1, 1), and spends the node budget
# on the other two with m = 3.
SLOW_DECAY_RAISES = [((2, 1, 1), 0.65), ((3, 1, 2), 0.75)]
# int x^501 (1 + x^2)^-1001 dx = B(251, 750) / 2 ~ 1.4e-246: the peak at
# x ~ 0.58 is about 0.02 wide in t, so the polar check's coarse levels miss
# it and agree on a value near 0 that only a relative stop refuses.
NARROW_PEAK = ((501,), 750.0)


@pytest.mark.parametrize("powers, d", SLOW_DECAY_CASES + [NARROW_PEAK],
                         ids=lambda v: str(v).replace(" ", ""))
def test_polar_check_on_slow_decay(powers, d, tol=1e-9):
    e = sum(p + 1 for p in powers) / 2 + d
    g = lambda u: (1.0 + u) ** -e
    if (powers, d) in SLOW_DECAY_RAISES:
        with pytest.raises(QuadratureNotConverged):
            quadrature.halfline_with_fallback(g, list(powers), tol)
    else:
        value, _ = quadrature.halfline_with_fallback(g, list(powers), tol)
        exact = exact_radial(powers, e)
        assert abs(value - exact) <= tol * abs(exact)


def plain_tensor_sum(g, powers, h):
    """h^m times the sum over the full product grid t_j = k h, |t_j| <= 4, of
    g(sum x_j^2) prod_j w_j x_j^p_j at the exp-sinh nodes; for the integrands
    below the terms beyond |t| = 4 are below 1e-16 of the sum."""
    k_max = int(4 / h)
    columns = []
    for p in powers:
        column = []
        for k in range(-k_max, k_max + 1):
            x = math.exp(0.5 * math.pi * math.sinh(k * h))
            column.append((x * x, 0.5 * math.pi * math.cosh(k * h) * x * x ** p))
        columns.append(column)
    total = 0j
    for point in itertools.product(*columns):
        total += math.prod(a for _, a in point) * g(sum(x2 for x2, _ in point))
    return total * h ** len(powers)


@pytest.mark.parametrize("powers, h", [
    ((1, 2), 1 / 8), ((2, 1), 1 / 8), ((2, 2), 1 / 8),
    ((1, 1, 2), 1 / 4), ((2, 1, 1), 1 / 4), ((1, 2, 1), 1 / 4), ((3, 1, 3), 1 / 4),
])
@pytest.mark.parametrize("e", [6.0, 5.5 + 2j])
def test_multiset_sum_matches_plain_tensor_sum(powers, h, e):
    g = lambda u: (1.0 + u) ** -e
    for step, value, _ in quadrature._level_sums(g, powers):
        if step == h:
            break
    plain = plain_tensor_sum(g, powers, h)
    assert abs(value - plain) <= 1e-13 * abs(plain)


def test_arch_k_out_of_range():
    for k in (0, 3):
        with pytest.raises(ValueError):
            arch_intertwining(2, k, (0, 2), (0, 2), 1.0)


def test_arch_region_enforced():
    with pytest.raises(ConfigError, match="not above the enforced bound"):
        arch_intertwining(2, 1, (0, 2), (0, 2), -2.0)


def test_quadrature_cross_check():
    g = lambda u: 2.0 * cmath.exp(-3.0 * math.log1p(u))
    a, _ = quadrature.quad(g, [1], 1e-10)
    b, _ = quadrature.exp_sinh_halfline(lambda r: g(r * r) * r, 1e-10)
    assert abs(a - b) < 1e-8
    assert abs(a - 0.5) < 1e-10  # integral of 2r/(1+r^2)^3 = 1/2


def test_tensor_rule_two_dimensions():
    # int int x y (1 + x^2 + y^2)^-E dx dy = 1 / (4 (E - 1)(E - 2))
    for e in (3.0, 4.5 + 2j):
        value, _ = quadrature.quad(lambda u: (1.0 + u) ** -e, [1, 1], 1e-10)
        exact = 1 / (4 * (e - 1) * (e - 2))
        assert abs(value - exact) < 1e-10 * abs(exact)


def test_cross_check_disagreement_raises(monkeypatch):
    exp_sinh = quadrature.exp_sinh_halfline

    def off_by_1e6(f, tol):
        value, err = exp_sinh(f, tol)
        return value * (1 + 1e-6), err

    g = lambda u: (1.0 + u) ** -4.0
    quadrature.halfline_with_fallback(g, [1, 1], 1e-10)
    monkeypatch.setattr(quadrature, "exp_sinh_halfline", off_by_1e6)
    for powers in ([1], [1, 1]):
        with pytest.raises(QuadratureNotConverged):
            quadrature.halfline_with_fallback(g, powers, 1e-10)


def quad_off_by(first, later):
    """``quadrature.quad`` with its value times 1 + first on the first call
    and times 1 + later on every call after it."""
    quad = quadrature.quad
    calls = []

    def off(g, powers, tol):
        value, err = quad(g, powers, tol)
        calls.append(tol)
        return value * (1 + (first if len(calls) == 1 else later)), err

    return off, calls


def test_rerun_rescues_one_wrong_answer(monkeypatch):
    g = lambda u: (1.0 + u) ** -4.0
    exact = exact_radial((1, 1), 4.0)
    off, calls = quad_off_by(1e-8, 0.0)
    monkeypatch.setattr(quadrature, "quad", off)
    value, _ = quadrature.halfline_with_fallback(g, [1, 1], 1e-10)
    assert calls == [1e-10, quadrature.RERUN_TOL * 1e-10]
    assert abs(value - exact) <= 1e-10 * abs(exact)


def test_rerun_that_disagrees_again_raises(monkeypatch):
    g = lambda u: (1.0 + u) ** -4.0
    off, calls = quad_off_by(1e-8, 1e-8)
    monkeypatch.setattr(quadrature, "quad", off)
    with pytest.raises(QuadratureNotConverged):
        quadrature.halfline_with_fallback(g, [1, 1], 1e-10)
    assert len(calls) == 2


def test_polar_form_matches_exact_radial():
    """The polar check's value to 1e-12 of the Beta closed form; that it runs
    without the tensor rule is a row of test_oracle_ledger.py."""
    for powers, d in [((1,), 2.0), ((1, 1), 0.6), ((2, 1, 3), 2.5 + 1j), ((2, 1, 1, 1), 4.0)]:
        e = sum(p + 1 for p in powers) / 2 + d
        exact = exact_radial(powers, e)
        polar = quadrature._polar(lambda u: (1.0 + u) ** -e, powers, abs(exact), 1e-10)
        assert abs(polar * abs(exact) - exact) <= 1e-12 * abs(exact)


def slice_integrand(p, e, u):
    """x -> (1 + u + x^2)^-e x^p, the shape the cross-check integrates."""

    def f(x):
        y = (1.0 + u + x * x) ** -e
        for _ in range(p):
            y *= x
        return y

    return f


def finest_level(xs):
    """The largest L such that some node x = exp((pi/2) sinh(k 2^-L)) in xs
    has an odd k: the last level a rule summed."""
    top = quadrature.XCHECK_LEVELS - 1
    level = 0
    for x in xs:
        k = round(math.asinh(2.0 * math.log(x) / math.pi) * 2**top)
        if k:
            level = max(level, top - ((k & -k).bit_length() - 1))
    return level


def recorded_run(f, tol):
    """(exp_sinh_halfline's value or exception type, the nodes x at which
    f was called)."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    try:
        outcome = quadrature.exp_sinh_halfline(g, tol)[0]
    except QuadratureNotConverged as exc:
        outcome = type(exc)
    return outcome, xs


def slice_exact(p, e, u):
    """int_0^inf x^p (1 + u + x^2)^-e dx = (1 + u)^(a - e) B(a, e - a) / 2,
    a = (p + 1) / 2, for Re e > a."""
    a = (p + 1) / 2
    log_value = (mpmath.loggamma(a) + mpmath.loggamma(e - a) - mpmath.loggamma(e)
                 + (a - e) * mpmath.log(1 + u))
    return complex(mpmath.exp(log_value)) / 2


# tail x^(p - 2e) = x^(-1 - 2d): d = 0.55 is the slowest decay the
# intertwining integrals admit; at d = 0 the integral diverges, and the rule
# must spend its levels and raise
XCHECK_GRID = [
    (p, (p + 1) / 2 + d, u, tol)
    for p in range(4)
    for d in (0.55, 1.0, 2.0, 4.5, 1.5 + 2j, 0.75 - 1j, 0.0)
    for u in (0.0, 1.5, 40.0)
    for tol in ((1e-10,) if d == 0.0 else (1e-6, 1e-10, 1e-12))
]


def test_exp_sinh_matches_the_beta_closed_form():
    """Within tol relative of the Beta closed form wherever the integral
    converges, also at u = 40 where it falls to 1e-9; raises where it
    diverges."""
    for p, e, u, tol in XCHECK_GRID:
        value, _ = recorded_run(slice_integrand(p, e, u), tol)
        case = (p, e, u, tol)
        if e == (p + 1) / 2:
            assert value is QuadratureNotConverged, case
        else:
            exact = slice_exact(p, e, u)
            assert abs(value - exact) <= tol * abs(exact), case


def test_exp_sinh_evaluates_each_node_once():
    """f is called once at each node of the tables of levels 0 to L, the
    finest level summed, and nowhere else."""
    for p, e, u, tol in XCHECK_GRID[::7]:
        _, xs = recorded_run(slice_integrand(p, e, u), tol)
        assert len(xs) == len(set(xs))
        table = [x for level in range(finest_level(xs) + 1)
                 for x, _ in quadrature._xcheck_rows(level)]
        assert sorted(xs) == sorted(table)


def test_exp_sinh_matches_exact_slice():
    """The scalar rule alone; that it runs without the tensor rule is a row
    of test_oracle_ledger.py."""
    value, _ = quadrature.exp_sinh_halfline(slice_integrand(1, 3.0, 0.0), 1e-10)
    assert abs(value - 0.25) < 1e-10  # int x / (1 + x^2)^3 dx = 1/4


def test_trapezoid_circle():
    assert abs(quadrature.trapezoid_circle(0) - 2 * math.pi) < 1e-12
    assert quadrature.trapezoid_circle(0) is quadrature.trapezoid_circle(0)  # cached
    for b in (1, 2, 5):
        assert abs(quadrature.trapezoid_circle(b)) < 1e-12
    # multiples of CIRCLE_POINTS (65792 = 256 * 257 also of the next count)
    for b in (256, -256, 512, 65792):
        assert abs(quadrature.trapezoid_circle(b)) < 1e-10


# -- constant term ------------------------------------------------------------------------


def test_constant_term_nonvanishing_branch():
    entries = assemble_constant_term(3, VanishingToken(order_zero=0), 2j, 2)
    assert [e.lratio_token for e in entries] == [
        "L(s-2,eta)/L(s,eta)",
        "L(s-1,eta)/L(s,eta)",
        "1",
    ]
    assert all(e.delta_symbol == "1" for e in entries)
    assert entries[-1].prefactor == 1


def test_constant_term_vanishing_branch():
    entries = assemble_constant_term(3, VanishingToken(order_zero=1), 2j, 2)
    assert all(e.delta_symbol == "i^1 * Delta * L(s)/L(s-1)" for e in entries)


def test_constant_term_flip_fails():
    with pytest.raises(AuditFailed):
        assemble_constant_term(3, VanishingToken(order_zero=1), 2j, 2, delta_branch="one")
    with pytest.raises(AuditFailed):
        assemble_constant_term(
            3, VanishingToken(order_zero=0), 2j, 2, delta_branch="compensated"
        )


def test_constant_term_refusals_come_before_the_branch_audit():
    """A rank above MAX_RANK, and an odd degree with a vanishing token,
    are refused as ConfigError even with a contradicting branch."""
    from periodlab.weights import MAX_RANK

    with pytest.raises(ConfigError, match="above the limit"):
        assemble_constant_term(MAX_RANK + 1, VanishingToken(order_zero=0), 2j, 2,
                               delta_branch="compensated")
    with pytest.raises(ConfigError, match="field degree must be even"):
        assemble_constant_term(3, VanishingToken(order_zero=1), 2j, 3, delta_branch="one")


def _expected_terms(n, order, degree, delta):
    """The summands k = 1..n as (L-ratio token, delta symbol, prefactor),
    the prefactor (i^{deg/2} * Delta)^{k - n} by polar form."""
    symbol = "1" if order == 0 else f"i^{degree // 2} * Delta * L(s)/L(s-1)"
    scale = cmath.rect(abs(delta), cmath.phase(delta) + math.pi / 2 * (degree // 2))
    return [(f"L(s-{n - k},eta)/L(s,eta)" if k < n else "1", symbol, scale ** (k - n))
            for k in range(1, n + 1)]


def test_constant_term_audit_over_the_grid():
    """Every n <= 5, vanishing order, degree 2, 4, 6 and requested branch:
    the assembly returns exactly when no branch or the token's branch is
    requested, and then gives the expected summands; any other branch
    raises AuditFailed."""
    delta = 2j
    for n, order, degree, branch in itertools.product(
        range(1, 6), (0, 1), (2, 4, 6), (None, "one", "compensated", "foo")
    ):
        token_branch = "one" if order == 0 else "compensated"
        args = (n, VanishingToken(order_zero=order), delta, degree)
        if branch in (None, token_branch):
            entries = assemble_constant_term(*args, delta_branch=branch)
            expected = _expected_terms(n, order, degree, delta)
            assert [e.k for e in entries] == list(range(1, n + 1))
            assert [(e.lratio_token, e.delta_symbol) for e in entries] == [
                (tok, sym) for tok, sym, _ in expected
            ]
            for e, (_, _, prefactor) in zip(entries, expected):
                assert abs(e.prefactor - prefactor) <= 1e-12 * abs(prefactor)
        else:
            with pytest.raises(AuditFailed, match=f"normalizing branch {branch!r} contradicts"):
                assemble_constant_term(*args, delta_branch=branch)


def test_constant_term_n1_edge():
    entries = assemble_constant_term(1, VanishingToken(order_zero=0), 2j, 2)
    assert len(entries) == 1
    assert entries[0].lratio_token == "1"


def test_constant_term_depends_only_on_summary_data():
    """Twisting the weight data permutes embeddings but leaves the token
    summary (n, vanishing order, normalizing constant, degree) fixed, so
    the report is reproduced term by term."""
    a = assemble_constant_term(3, VanishingToken(order_zero=1), 2j, 4)
    b = assemble_constant_term(3, VanishingToken(order_zero=1), 2j, 4)
    assert a == b


def test_constant_term_prefactors():
    entries = assemble_constant_term(3, VanishingToken(order_zero=0), 2j, 2)
    # i^1 * 2i = -2; prefactors are (-2)^(k-3)
    assert abs(entries[0].prefactor - 0.25) < 1e-12
    assert abs(entries[1].prefactor + 0.5) < 1e-12


def test_nonarch_k_out_of_range_and_foreign_entry_comparison():
    with pytest.raises(ConfigError, match="k out of range"):
        nonarch_intertwining(2, 3, Cyc.zeta(12), 2)
    entry = assemble_constant_term(3, VanishingToken(order_zero=0), 2j, 2)[0]
    assert entry.__eq__(vars(entry)) is NotImplemented and entry != vars(entry)


def test_quad_refuses_an_integrand_zero_at_every_node():
    with pytest.raises(QuadratureNotConverged, match="underflows at every node"):
        quadrature.quad(lambda u: 0.0, [0])


def test_three_level_error_of_equal_levels_is_rounding():
    """A level sum equal to the one before it is known to the rounding of
    a double, not better."""
    assert quadrature._three_level_error(1.5, 1.0 + 1j, 1.0 + 1j, 5, 9) == quadrature.ROUNDING
