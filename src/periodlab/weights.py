"""Integer calculus on dominant weights and character infinity types.

A weight system assigns to every embedding of k two dominant integer
n-tuples (mu, nu) and one integer (chi, the differential of a Hecke
character at that embedding).  The derived quantity

    eta_i = sum(mu^i) + sum(nu^i) + n * chi_i

drives everything else: regular-algebraicity (eta outside the open
interval (0, n)), the two-sided condition (per conjugate pair, one value
<= 0 and the other >= n), the balanced predicate (the trivial
representation occurs in the four-fold tensor product), membership in
the positive half B+ (balanced and eta_i + eta_ibar >= n), and the
archimedean fourth-root-of-unity constant.

The balanced test here is the fast path: because the auxiliary highest
weight attached to eta is a one-row shape up to a determinant twist, the
tensor condition collapses to a single horizontal-strip (interlacing)
check per embedding.  An independent, slower character-peeling oracle
lives in ``charpeel``.

``grid`` and ``weight_system_from_eta`` raise ConfigError, before building
anything, above MAX_GRID_POINTS points and above rank MAX_RANK.
"""

from __future__ import annotations

import itertools
import math

from .errors import ConfigError


def _check_dominant(t: tuple[int, ...], label: str) -> None:
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ConfigError(f"{label} = {t} is not weakly decreasing")


class WeightSystem:
    """Dominant weights mu, nu and character type chi over an embedding set;
    equal and printed by value."""

    def __init__(
        self,
        n: int,
        mu: dict[int, tuple[int, ...]],
        nu: dict[int, tuple[int, ...]],
        chi: dict[int, int],
    ) -> None:
        if n < 2:
            raise ConfigError("rank must be at least 2")
        for label, m in (("mu", mu), ("nu", nu)):
            for i, t in m.items():
                if len(t) != n:
                    raise ConfigError(f"{label}[{i}] has length {len(t)} != n")
                _check_dominant(t, f"{label}[{i}]")
        if set(mu) != set(nu) or set(mu) != set(chi):
            raise ConfigError("mu, nu, chi must be keyed by the same embeddings")
        self.n = n
        self.mu = mu
        self.nu = nu
        self.chi = chi

    def __eq__(self, other) -> bool:  # unhashable: the maps are dicts
        if not isinstance(other, WeightSystem):
            return NotImplemented
        return (self.n, self.mu, self.nu, self.chi) == (other.n, other.mu, other.nu, other.chi)

    def __repr__(self) -> str:
        return f"WeightSystem(n={self.n!r}, mu={self.mu!r}, nu={self.nu!r}, chi={self.chi!r})"

    def embeddings(self) -> list[int]:
        return sorted(self.mu)

    def eta(self) -> dict[int, int]:
        """Recomputed on every call; never stored."""
        return {
            i: sum(self.mu[i]) + sum(self.nu[i]) + self.n * self.chi[i]
            for i in self.mu
        }


# Largest rank weight_system_from_eta builds (wedge-sign's work is ~ n^2).
MAX_RANK = 1000
# Most points grid builds; balanced keeps every point in memory.
MAX_GRID_POINTS = 10**5


def grid(n: int, entry_bound: int, degree: int) -> list[WeightSystem]:
    """Every weight system over embeddings 0..degree-1 with dominant mu, nu
    and chi, all entries in -B..B: (C(n + 2B, n)^2 (2B + 1))^degree points
    for B = entry_bound, refused above MAX_GRID_POINTS before any is built."""
    if entry_bound < 0:
        raise ConfigError(f"entry_bound must be at least 0, got {entry_bound}")
    values = 2 * entry_bound + 1
    if min(n, values - 1) > MAX_GRID_POINTS.bit_length():
        # C(n + values - 1, n) >= 2^min(n, values - 1): no need for the huge binomial
        raise ConfigError(f"weights.grid has more than {MAX_GRID_POINTS} points, the limit")
    count = (math.comb(n + values - 1, n) ** 2 * values) ** degree
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"weights.grid has {count} points, above the limit of {MAX_GRID_POINTS}")
    rng = range(-entry_bound, entry_bound + 1)
    doms = [t for t in itertools.product(rng, repeat=n) if all(t[i] >= t[i + 1] for i in range(n - 1))]
    per_emb = [(mu, nu, chi) for mu in doms for nu in doms for chi in rng]
    return [
        WeightSystem(
            n=n,
            mu={i: c[0] for i, c in enumerate(combo)},
            nu={i: c[1] for i, c in enumerate(combo)},
            chi={i: c[2] for i, c in enumerate(combo)},
        )
        for combo in itertools.product(per_emb, repeat=degree)
    ]


def weight_system_from_eta(n: int, eta: dict[int, int]) -> WeightSystem:
    """A weight system with nu = 0, chi = 0 and mu placed to realize eta;
    a rank above MAX_RANK is refused before any tuple is built."""
    if n > MAX_RANK:
        raise ConfigError(f"rank {n} is above the limit of {MAX_RANK}")
    mu = {}
    for i, e in eta.items():
        if e <= 0:
            mu[i] = (0,) * (n - 1) + (e,)
        else:
            mu[i] = (e,) + (0,) * (n - 1)
    zero = {i: (0,) * n for i in eta}
    return WeightSystem(n=n, mu=mu, nu=zero, chi={i: 0 for i in eta})


def is_regular_algebraic(eta: dict[int, int], n: int) -> bool:
    return all(e * (e - n) >= 0 for e in eta.values())


def is_case_pm(eta: dict[int, int], n: int, emb: Layout) -> bool:
    """Per conjugate pair: min(eta_i, eta_ibar) <= 0 and max >= n."""
    for i, j in emb.pairs():
        lo, hi = min(eta[i], eta[j]), max(eta[i], eta[j])
        if lo > 0 or hi < n:
            return False
    return True


def highest_weight_from_eta(eta_value: int, n: int) -> tuple[int, ...]:
    """Highest weight of the auxiliary representation attached to eta.

    Defined only for eta <= 0 (one-row shape (-eta, 0, ..., 0)) and
    eta >= n (the determinant-twisted dual (-1, ..., -1, n-1-eta)).
    """
    if eta_value <= 0:
        return (-eta_value,) + (0,) * (n - 1)
    if eta_value >= n:
        return (-1,) * (n - 1) + (n - 1 - eta_value,)
    raise ConfigError(
        f"eta = {eta_value} lies strictly between 0 and {n}"
    )


def _is_horizontal_strip(lam: tuple[int, ...], base: tuple[int, ...]) -> bool:
    n = len(lam)
    if any(lam[i] < base[i] for i in range(n)):
        return False
    return all(base[i] >= lam[i + 1] for i in range(n - 1))


def balanced_at(
    mu: tuple[int, ...], nu: tuple[int, ...], chi: int, eta_value: int, n: int
) -> bool:
    """Does the trivial rep occur in F_mu (x) F_nu (x) F_eta (x) det^chi?

    With the one-row structure of the eta weight this is a Pieri
    interlacing condition; the strip size comes out automatically equal
    to |eta| shifted, so only the interlacing needs checking.
    """
    dual = lambda t: tuple(-x for x in reversed(t))
    if eta_value <= 0:
        lam = tuple(x - chi for x in dual(nu))
        base = mu
    elif eta_value >= n:
        lam = tuple(x - (1 - chi) for x in nu)
        base = dual(mu)
    else:
        raise ConfigError(f"eta = {eta_value} strictly between 0 and {n}")
    return _is_horizontal_strip(lam, base)


def is_balanced(w: WeightSystem, emb: Layout) -> bool:
    """True iff the balanced condition holds at every embedding.

    Requires regular-algebraicity and the two-sided condition; without
    them the result is False.
    """
    eta = w.eta()
    if not (is_regular_algebraic(eta, w.n) and is_case_pm(eta, w.n, emb)):
        return False
    return all(
        balanced_at(w.mu[i], w.nu[i], w.chi[i], eta[i], w.n)
        for i in w.embeddings()
    )


def in_b_plus(w: WeightSystem, emb: Layout) -> bool:
    """Balanced and eta_i + eta_ibar >= n; the sum must not vary by pair."""
    eta = w.eta()
    sums = {eta[i] + eta[j] for i, j in emb.pairs()}
    if len(sums) > 1:
        raise ConfigError(f"eta pair sums differ across places: {sorted(sums)}")
    total = sums.pop()
    return is_balanced(w, emb) and total >= w.n


class ArchConstant:
    """Per-place signs and exponents with the accumulated unit value.

    value = prod over places of (sign * i)^exponent, a fourth root of
    unity stored exactly as a Gaussian integer (re, im).
    """

    def __init__(self, signs: dict[int, int], exponents: dict[int, int],
                 value: tuple[int, int]) -> None:
        self.signs = signs  # keyed by the chosen embedding of the place
        self.exponents = exponents
        self.value = value


def arch_exponent(w: WeightSystem, place_pair: tuple[int, int]) -> int:
    """sum over both embeddings of the place of
    sum_{a + b <= n} (mu_a + nu_b + chi)."""
    n = w.n
    expo = 0
    for i in place_pair:
        for a in range(1, n):
            for b in range(1, n - a + 1):
                expo += w.mu[i][a - 1] + w.nu[i][b - 1] + w.chi[i]
    return expo


def arch_unit_value(sign: int, exponent: int) -> tuple[int, int]:
    """(sign * i)^exponent as an exact Gaussian unit (re, im)."""
    k = exponent % 4
    if k == 0:
        return (1, 0)
    if k == 1:
        return (0, sign)
    if k == 2:
        return (-1, 0)
    return (0, -sign)


def archimedean_constant(w: WeightSystem, emb: Layout) -> ArchConstant:
    """The product over places of (sign * i)^e, with e = arch_exponent and
    sign +1 when eta <= 0 at the chosen embedding, -1 when >= n."""
    eta = w.eta()
    n = w.n
    signs: dict[int, int] = {}
    exponents: dict[int, int] = {}
    re, im = 1, 0
    for iv, iv_bar in emb.pairs():
        e_iv = eta[iv]
        if e_iv <= 0:
            sign = 1
        elif e_iv >= n:
            sign = -1
        else:
            raise ConfigError(
                f"eta = {e_iv} at the chosen embedding is strictly between 0 and {n}"
            )
        expo = arch_exponent(w, (iv, iv_bar))
        signs[iv] = sign
        exponents[iv] = expo
        sr, si = arch_unit_value(sign, expo)
        re, im = re * sr - im * si, re * si + im * sr
    return ArchConstant(signs=signs, exponents=exponents, value=(re, im))


def sigma_twist(w: WeightSystem, g: GaloisPermutation) -> WeightSystem:
    """Precompose all three weight maps with the inverse permutation."""
    ginv = g.inverse()
    return WeightSystem(
        n=w.n,
        mu={i: w.mu[ginv(i)] for i in w.mu},
        nu={i: w.nu[ginv(i)] for i in w.nu},
        chi={i: w.chi[ginv(i)] for i in w.chi},
    )
