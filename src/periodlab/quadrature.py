"""Numerical quadrature for the archimedean intertwining integrals.

The radial part of an intertwining integral over an m-dimensional complex
slice is, after the angles are integrated out, an integral over [0, inf)^m
of a function of the squared radius times a monomial:

    I = int g(x_1^2 + ... + x_m^2) * x_1^p_1 * ... * x_m^p_m  dx.

``quad`` evaluates it with the tensor product of the double-exponential
(exp-sinh) rule of Takahasi & Mori (1974) in every coordinate, with nodes

    x_k = exp((pi/2) * sinh(k h)),   w_k = (pi/2) * cosh(k h) * x_k,

and one step h for all coordinates.  Complex values are summed in one pass.
The integrand is symmetric in the coordinates that share a power, so each
group of r such coordinates runs over multisets of node indices (sorted
index tuples), each weighted by its multinomial count: C(N + r - 1, r)
points in place of N^r for N nodes a coordinate.  The level doubles (h
halves) in all coordinates together; the sum of a level reuses the
previous level's nodes and adds only the new ones.  The doubling stops on
the three-level error estimate of Bailey, Jeyabalan & Li (2005) over the
sums of the last three levels, with the digit growth per level of the
double-exponential rate exp(-c N / log N) in place of their doubling
(``_three_level_error``).  Each coordinate's nodes are cut outward from
t = 0 where the scale of the integrand's marginal in that coordinate has
fallen below a small share of its peak, or where x^p * w would overflow.
A level whose new points number more than MAX_POINTS raises
``QuadratureNotConverged`` before it is summed.  In practice that admits
m = 4 (the intertwining integrals of n = 5, k = 1 at s = 2 and 1.5 + 0.5i)
and, when all powers are equal, m = 5 (n = 6, k = 1, beta0 at s = 2, but
not at s = 1.5 + 0.5i).  A slower decay needs finer levels: n = 5 at
s = 0.5 is refused.

``halfline_with_fallback`` is the entry the intertwining code calls: the
tensor rule, checked whole against the polar form (Folland 2001)

    I = prod_j Gamma((p_j + 1)/2) / (2^(m-1) Gamma(P/2)) * int_0^inf g(r^2) r^(P-1) dr,

P = sum_j (p_j + 1), one scalar integral for every m, which
``exp_sinh_halfline`` evaluates, a scalar exp-sinh rule that shares no code
with ``quad``.  Its own table (``_xcheck_rows``) holds every node with
|t| <= XCHECK_T_MAX at level 0 and only the new (odd) nodes at each finer
level, so each level adds its whole table to a running sum and every node
is evaluated once.  It stops when the last two levels agree to tol relative
to the value.
"""

from __future__ import annotations

import bisect
import collections
import functools
import math
from operator import mul

from .errors import QuadratureNotConverged

T_MAX = 6.0        # |t| bound of the node table: x and x^2 stay finite and normal
LOG_HUGE = 700.0   # log of the largest x^p * w a node may carry (float max ~ e^709)
MAX_LEVEL = 8      # h = 1/256
ROUNDING = 2.0 ** -52  # relative spacing of doubles: the floor of the error estimate
MAX_POINTS = 2_000_000  # bound on the multiset points one level evaluates
# A node whose marginal scale is below this share of the peak no longer
# changes a double-precision sum (2^-53 ~ 1.1e-16).
LOG_NEGLIGIBLE = math.log(1e-17)
RERUN_TOL = 0.25  # tolerance of the tensor rule's one rerun, in units of the requested one
XCHECK_LEVELS = 12  # step halvings of the scalar exp-sinh rule, from h = 1
XCHECK_T_MAX = 6.0  # |t| bound of the scalar rule's own table: x and w stay normal
CIRCLE_POINTS = 256  # trapezoid nodes on the circle


@functools.lru_cache(maxsize=None)
def _nodes(level: int) -> tuple[tuple[float, float, float, float, float], ...]:
    """Exp-sinh nodes (x, x^2, w, log x, log w) of step h = 2^-level for
    t = k h, |t| <= T_MAX; the middle entry is t = 0 and entry 2i of a
    level is entry i of the level before."""
    h = 2.0 ** -level
    k_max = int(T_MAX / h)
    table = []
    for k in range(-k_max, k_max + 1):
        log_x = 0.5 * math.pi * math.sinh(k * h)
        x = math.exp(log_x)
        w = 0.5 * math.pi * math.cosh(k * h) * x
        table.append((x, x * x, w, log_x, math.log(w)))
    return tuple(table)


def _cut(table, g, power: int, others: int) -> tuple[int, int]:
    """Index range [lo, hi] of one coordinate's nodes at one level.

    Walking outward from t = 0, a direction stops before the first node
    where x^power * w would overflow, or where the marginal scale

        w * x^power * (1 + x^2)^(others / 2) * |g(x^2)|

    is negligible beside the largest seen, or where g(x^2) underflows to 0;
    for g(u) = (1 + u)^-E this is the integrand's marginal in the
    coordinate up to a constant factor.  Such a g decays in u, and under a
    narrow peak at x = 0 it underflows already at t = 0: the walk then
    starts from the first node toward x = 0 where it does not, and raises
    ``QuadratureNotConverged`` if there is none.
    """
    start = len(table) // 2
    while g(table[start][1]) == 0.0:
        start -= 1
        if start < 0:
            raise QuadratureNotConverged("the integrand underflows at every node")
    log_peak = -math.inf
    ends = []
    for step in (1, -1):
        k = start - step
        while 0 <= k + step < len(table):
            _, x2, _, log_x, log_w = table[k + step]
            log_term = log_w + power * log_x
            size = abs(g(x2))
            if log_term > LOG_HUGE or size == 0.0:
                break
            log_scale = log_term + 0.5 * others * math.log1p(x2) + math.log(size)
            log_peak = max(log_peak, log_scale)
            if log_scale < LOG_NEGLIGIBLE + log_peak:
                break
            k += step
        ends.append(k)
    return ends[1], ends[0]


def _three_level_error(s2: complex, s1: complex, s0: complex, n1: int, n0: int) -> float:
    """Relative error estimate of the level sum s0 from the two levels before
    it, s1 and s2, after Bailey, Jeyabalan & Li (2005); n1 and n0 are the
    innermost coordinate's node counts at the levels of s1 and s0:

        E = max(10^(D1^2 / D2), 10^(growth * D1), ROUNDING),
        D_i = log10(|s0 - s_i| / |s0|).

    Their second term has growth = 2, the digit doubling of an error that
    falls like exp(-c N) in the node count N.  The double-exponential rule's
    error falls like exp(-c N / log N) (Sugihara 1997), so the digit growth
    of the last step is n0 log(n1) / (n1 log(n0)), 1.5 to 1.75 at the levels
    that stop.  With growth = 2 the true error of (1 + |x|^2)^-e x_1 x_2 x_3
    reached 20 times tol for a real e and 32 times for a complex one.
    ROUNDING is their rounding term: a double sum is not known closer than
    that.  1.0, no estimate, unless both differences lie below |s0| and s1
    has more than one node.
    """
    scale, d1, d2 = abs(s0), abs(s0 - s1), abs(s0 - s2)
    if d1 == 0.0:
        return ROUNDING
    if not (d1 < scale and 0.0 < d2 < scale and n1 > 1):
        return 1.0
    growth = n0 * math.log(n1) / (n1 * math.log(n0))
    d1, d2 = math.log10(d1 / scale), math.log10(d2 / scale)
    return max(10.0 ** max(d1 * d1 / d2, growth * d1), ROUNDING)


def _new_points_sum(g, groups) -> complex:
    """Sum of count * weight * g(u) over one level's multiset points that hold
    at least one new node.

    ``groups`` lists (nodes, size) per distinct power, the innermost
    coordinate's group last; nodes are (x^2, w x^p, old) per index.  The
    integrand is symmetric in the coordinates of a group, so a group of size
    r runs over non-decreasing index tuples i_1 <= ... <= i_r, weighted by
    the multinomial count r! / prod(multiplicity!).  The last coordinate is
    summed in one pass over its indices >= i_{r-1}.
    """
    slots = [(nodes, k) for nodes, size in groups for k in range(1, size + 1)]
    last = len(slots) - 1
    inner = slots[last][0]
    x2s = [x2 for x2, _, _ in inner]
    ws = [a for _, a, _ in inner]
    new_at = [i for i, (_, _, old) in enumerate(inner) if not old]
    new_x2 = [x2s[i] for i in new_at]
    new_w = [ws[i] for i in new_at]

    def walk(depth, prev, run, u, weight, count, all_old):
        # coordinate k of its group; prev: the group's last index so far, run:
        # its multiplicity; count: the multinomial count of the indices placed
        nodes, k = slots[depth]
        if k == 1:
            prev = -1
        if depth == last:
            if all_old:  # the previous level's sum holds index prev and below
                j = bisect.bisect_right(new_at, prev)
                part = sum(map(mul, new_w[j:], map(g, map(u.__add__, new_x2[j:]))))
                return weight * (count * k) * part
            part = (count * k) * sum(
                map(mul, ws[prev + 1:], map(g, map(u.__add__, x2s[prev + 1:])))
            )
            if prev >= 0:
                part += (count * k // (run + 1)) * (ws[prev] * g(u + x2s[prev]))
            return weight * part
        total = 0j
        for i in range(max(prev, 0), len(nodes)):
            x2, a, old = nodes[i]
            mu = run + 1 if i == prev else 1
            total += walk(depth + 1, i, mu, u + x2, weight * a, count * k // mu,
                          all_old and old)
        return total

    return walk(0, -1, 0, 0.0, 1.0, 1, True)


def _level_sums(g, powers):
    """Yield (h, value, inner_nodes) per level, h = 2^-level: the rule's
    value at step h and the innermost coordinate's node count.  A level
    whose new multiset points exceed MAX_POINTS raises
    ``QuadratureNotConverged`` before any of them is summed."""
    m = len(powers)
    total_power = sum(p + 1 for p in powers)
    sizes = collections.Counter(powers)
    order = [p for p in sizes if p != powers[-1]] + [powers[-1]]
    raw = 0j  # sum of count * weight * g over the current level's multisets
    ranges = {}
    for level in range(MAX_LEVEL + 1):
        table = _nodes(level)
        groups, points, old_points = [], 1, 1
        for p in order:
            lo, hi = _cut(table, g, p, total_power - p - 1)
            old = ranges.get(p)
            if old is not None:  # the previous level's nodes: even indices in 2*old
                old = (2 * old[0], 2 * old[1])
                lo, hi = min(lo, old[0]), max(hi, old[1])
            ranges[p] = (lo, hi)
            nodes = [
                (table[i][1], table[i][2] * table[i][0] ** p,
                 old is not None and i % 2 == 0 and old[0] <= i <= old[1])
                for i in range(lo, hi + 1)
            ]
            size = sizes[p]
            groups.append((nodes, size))
            points *= math.comb(len(nodes) + size - 1, size)
            old_points *= math.comb(sum(old for _, _, old in nodes) + size - 1, size)
        if points - old_points > MAX_POINTS:
            raise QuadratureNotConverged("tensor exp-sinh node budget exhausted")
        raw += _new_points_sum(g, groups)
        h = 2.0 ** -level
        yield h, raw * h ** m, len(groups[-1][0])


def quad(g, powers, tol: float = 1e-10) -> tuple[complex, float]:
    """Tensor exp-sinh rule for int over [0, inf)^m of g(sum x_j^2) prod x_j^p_j.

    ``powers`` are the integer exponents p_1..p_m; the last coordinate is
    the innermost.  Returns (value, error): error is ``_three_level_error``
    of the final level times |value|, an estimate of the absolute error
    that is at most tol * |value|.
    """
    sums, nodes = [], []
    for _, value, inner_nodes in _level_sums(g, powers):
        sums.append(value)
        nodes.append(inner_nodes)
        if len(sums) < 3:
            continue
        rel = _three_level_error(*sums[-3:], *nodes[-2:])
        if rel <= tol:
            return value, rel * abs(value)
    raise QuadratureNotConverged("tensor exp-sinh rule failed to reach tolerance")


def _polar(g, powers, scale: float, tol: float) -> complex:
    """The polar form of ``quad``'s integral over scale; with scale = |value|
    the scalar rule's stopping test is relative."""
    degree = sum(p + 1 for p in powers) - 1  # the power of r, P - 1
    log_constant = (sum(math.lgamma((p + 1) / 2) for p in powers)
                    - math.lgamma((degree + 1) / 2) - (len(powers) - 1) * math.log(2))
    factor = math.exp(log_constant) / scale

    def radial(r):
        y = g(r * r) * factor
        log_power = degree * math.log(r)
        if abs(log_power) < LOG_HUGE:
            return y * r ** degree
        # r^(P-1) is no double: take the product's size in logs, where the
        # decay of g(r^2) has already offset it
        log_size = math.log(abs(y)) + log_power if y else -math.inf
        return y / abs(y) * math.exp(log_size) if log_size > -LOG_HUGE else 0j

    return exp_sinh_halfline(radial, tol)[0]


def halfline_with_fallback(g, powers, tol: float = 1e-10) -> tuple[complex, float]:
    """``quad``'s (value, error), checked against ``_polar`` at tol * |value|.
    On a disagreement ``quad`` reruns once at RERUN_TOL * tol, and a second
    disagreement raises ``QuadratureNotConverged``."""
    value, err = quad(g, powers, tol)
    scale = abs(value) or 1.0
    polar = _polar(g, powers, scale, tol)
    if abs(polar - value / scale) > tol:
        value, err = quad(g, powers, RERUN_TOL * tol)
        if abs(polar - value / scale) > tol:
            raise QuadratureNotConverged(
                f"tensor rule and polar exp-sinh check disagree: "
                f"{value!r} vs {polar * scale!r}"
            )
    return value, err


@functools.lru_cache(maxsize=None)
def _xcheck_rows(level: int) -> tuple[tuple[float, float], ...]:
    """Nodes (x, w) of the scalar exp-sinh rule that are new at step
    h = 2^-level: every t = k h with |t| <= XCHECK_T_MAX at level 0, the
    odd k at a finer level.  There x lies in [2.5e-138, 4.0e137] and w is a
    normal double, so x^2 is finite."""
    h = 2.0 ** -level
    k_max = int(XCHECK_T_MAX / h)
    nodes = []
    for k in range(-k_max, k_max + 1):
        if level == 0 or k % 2:
            x = math.exp(0.5 * math.pi * math.sinh(k * h))
            nodes.append((x, 0.5 * math.pi * math.cosh(k * h) * x))
    return tuple(nodes)


def exp_sinh_halfline(f, tol: float = 1e-10) -> tuple[complex, float]:
    """Double-exponential quadrature on [0, inf); independent of ``quad``.

    Level 0 sums the nodes t = k h, h = 1, |t| <= XCHECK_T_MAX; each finer
    level halves h and adds only its new nodes, the odd k, to the running
    sum, so every node is evaluated once.  The level's value is h times the
    running sum; the rule stops when two successive values differ by at
    most tol * |value| and returns (value, their difference).  It raises
    ``QuadratureNotConverged`` after XCHECK_LEVELS levels.
    """
    total = 0j  # sum of f(x) * w over every node visited so far
    previous = None
    for level in range(XCHECK_LEVELS):
        for x, w in _xcheck_rows(level):
            total += f(x) * w
        value = total * 2.0 ** -level
        if previous is not None and abs(value - previous) <= tol * abs(value):
            return value, abs(value - previous)
        previous = value
    raise QuadratureNotConverged("exp-sinh failed to reach tolerance")


@functools.lru_cache(maxsize=1024)
def trapezoid_circle(exponent: int) -> complex:
    """Trapezoid rule for the full-circle integral of e^{i * exponent * t}.

    N nodes are exact for e^{i b t} when N does not divide b, so the rule
    takes the least such N >= CIRCLE_POINTS (CIRCLE_POINTS at b = 0); the
    N that it skips all divide b, so their lcm bounds |b|.  The result is
    2*pi for exponent 0 and numerically zero otherwise; it is used to keep
    the angular factors an honest numerical statement.
    """
    points = CIRCLE_POINTS
    while exponent and exponent % points == 0:
        points += 1
    total = 0j
    for k in range(points):
        theta = 2 * math.pi * k / points
        total += complex(math.cos(exponent * theta), math.sin(exponent * theta))
    return total * (2 * math.pi / points)
