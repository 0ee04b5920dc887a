"""Integers and integer polynomials.  An integer's factorization by trial
division; integer polynomials as coefficient lists, low degree first, []
for 0: the product, one pseudo-division (exact division by a monic
divisor, as for the cyclotomic polynomials and the moduli of finite
fields) and Sturm chains, which count distinct real roots with no root
sought.  Standard library only (von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 2-3 and 6; Cohen 1993, 3.1-3.3).
"""

from __future__ import annotations

import math
from collections.abc import Sequence


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


def mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product a * b, skipping the zero coefficients of ``a``."""
    if not a or not b:
        return []
    res = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b, i):
            res[j] += x * y
    return res


def pseudo_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """(q, r) with c * num = q * den + r and deg r < deg den, for a nonzero
    ``den``, where c = |lead den|^k > 0 and k counts the steps that
    cancelled a nonzero leading coefficient.  A monic ``den`` gives c = 1:
    exact division."""
    dn = len(den) - 1
    scale, sign = abs(den[-1]), 1 if den[-1] > 0 else -1
    rem = list(num)
    quot = [0] * max(len(rem) - dn, 0)
    for i in range(len(rem) - 1, dn - 1, -1):
        t = rem[i]
        if t == 0:
            continue
        if scale != 1:
            rem = [scale * x for x in rem]
            quot = [scale * x for x in quot]
        t *= sign
        quot[i - dn] = t
        for j, d in enumerate(den, i - dn):
            rem[j] -= t * d
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def sturm_chain(poly: Sequence[int]) -> list[list[int]]:
    """Sturm chain of a nonconstant integer polynomial: poly, its
    derivative, then each negated pseudo-remainder over its content, a
    positive multiple of the negated remainder.  The last term is
    gcd(poly, poly') up to a constant factor."""
    chain = [list(poly), [i * c for i, c in enumerate(poly)][1:]]
    while len(chain[-1]) > 1:
        _, r = pseudo_divmod(chain[-2], chain[-1])
        if not r:
            break
        content = math.gcd(*r)
        chain.append([-x // content for x in r])
    return chain


def real_root_count(chain: list[list[int]]) -> int:
    """Distinct real roots of the chain's polynomial (Sturm's theorem):
    the sign changes at -infinity minus those at +infinity."""
    def changes(signs):
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    at_plus = [1 if p[-1] > 0 else -1 for p in chain]
    at_minus = [s if (len(p) - 1) % 2 == 0 else -s for s, p in zip(at_plus, chain)]
    return changes(at_minus) - changes(at_plus)
