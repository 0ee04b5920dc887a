"""Tower declarations and the index layout of their embeddings, in exact
arithmetic.

A tower k0 <= k1 = k0(sqrt(-d)) <= k = k1(theta) is declared by a
squarefree d > 0 and a monic integer polynomial f of theta; k0 = Q unless
a totally real k0 is declared by its own monic integer polynomial.

With m = [k:k1], the [k:Q] embeddings k -> C are the indices 0 .. [k:Q] - 1:
the embedding t = 2w + s of k1 (w the embedding of k0, s = 0 for the "+"
sign of sqrt(-d)) carries the fiber t*m .. t*m + m - 1.  So conj(i) = i +- m,
the restriction to k1 is i // m and the CM type is the "+" fibers, and no
root of any polynomial is needed to know them.  ``cmfield.build_field``
attaches numeric images to this layout.

A declared d is squarefree when every exponent of its factorization
(``intpoly.factorize``) is 1.  ``check_tower`` decides without roots
whether a declaration can be built: the degree bound, then a Sturm chain
over the integers (``intpoly``) that tells whether f and k0_poly are
squarefree and counts the real roots of k0_poly.  ``delta_double`` is the
constant Delta as the complex double nearest its exact value.  This
module loads neither mpmath nor ``cyclotomic``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from fractions import Fraction

from .errors import ConfigError, ReduciblePolynomial
from .intpoly import factorize, real_root_count, sturm_chain

K1Pair = tuple[Fraction, Fraction]

# Largest accepted d: its squarefree test is trial division up to sqrt(d).
MAX_BASE_DISC = 10**12
# Largest accepted [k:Q]: the Sturm chains, the Weyl counts and the weight
# maps of every config command grow with it.  It is the largest degree that
# cmfield.MAX_FIELD_WORK admits at 2 digits, the least precision
# cmfield.check_precision admits: 54^3 * 252^2 <= 1.1e10 < 56^3 * 252^2.
MAX_DEGREE = 54


def _integer(value, what: str) -> int:
    """A config value that is an integer (1, 1.0, "1") as an int;
    ConfigError for any other number, where int() would truncate."""
    try:
        exact = Fraction(value)
    except OverflowError:  # an infinite float
        raise ConfigError(f"{what} {value!r} is not an integer") from None
    if exact.denominator != 1:
        raise ConfigError(f"{what} {value!r} is not an integer")
    return exact.numerator


def inversions(seq) -> int:
    """Number of pairs a < b with seq[a] > seq[b]; its parity is the sign
    of the permutation that sorts ``seq``.  Walks ``seq`` from the right,
    counting the entries already seen that are below each one by
    bisection of the sorted list of them."""
    count = 0
    seen: list = []
    for x in reversed(seq):
        at = bisect_left(seen, x)
        count += at
        seen.insert(at, x)
    return count


class FieldTower:
    """Declaration of a tower k0 <= k1 = k0(sqrt(-d)) <= k = k1(theta)."""

    def __init__(
        self,
        base_disc: int,
        extension_poly: tuple[int, ...],
        k1_basis: tuple[K1Pair, K1Pair] = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        declared_k0_poly: tuple[int, ...] | None = None,
    ) -> None:
        if base_disc > MAX_BASE_DISC:
            raise ConfigError(f"d = {base_disc} is above the limit of {MAX_BASE_DISC}")
        if base_disc <= 0 or any(e > 1 for e in factorize(base_disc).values()):
            raise ConfigError(f"d = {base_disc} must be a squarefree positive integer")
        if not extension_poly or extension_poly[-1] != 1:
            raise ConfigError("extension polynomial must be monic (trailing coefficient 1)")
        if len(extension_poly) < 2:
            raise ConfigError("extension polynomial must have degree >= 1")
        if declared_k0_poly is not None:
            if declared_k0_poly[-1] != 1 or len(declared_k0_poly) < 3:
                raise ConfigError("k0 polynomial must be monic of degree >= 2")
        (a1, b1), (a2, b2) = k1_basis
        if a1 * b2 - a2 * b1 == 0:
            raise ConfigError("k1 basis is not a basis of k1 over k0: its determinant is 0")
        self.base_disc = base_disc
        self.extension_poly = extension_poly  # low-to-high, monic
        self.k1_basis = k1_basis
        self.declared_k0_poly = declared_k0_poly

    @property
    def theta_degree(self) -> int:
        return len(self.extension_poly) - 1

    @property
    def k0_degree(self) -> int:
        return 1 if self.declared_k0_poly is None else len(self.declared_k0_poly) - 1

    @property
    def degree_over_q(self) -> int:
        return 2 * self.k0_degree * self.theta_degree

    @staticmethod
    def from_config(cfg: dict) -> "FieldTower":
        kwargs = {
            "base_disc": _integer(cfg["d"], "d"),
            "extension_poly": tuple(
                _integer(c, "extension_poly entry") for c in cfg["extension_poly"]
            ),
        }
        if cfg.get("k1_basis") is not None:
            kwargs["k1_basis"] = tuple(
                (Fraction(a), Fraction(b)) for a, b in cfg["k1_basis"]
            )
        if cfg.get("k0_poly") is not None:
            kwargs["declared_k0_poly"] = tuple(_integer(c, "k0_poly entry") for c in cfg["k0_poly"])
        return FieldTower(**kwargs)


class Layout:
    """The [k:Q] embeddings of a tower as indices, with conjugation,
    restriction to k1, the labels (k0 index, sign) of the k1 embeddings and
    the CM type (the "+" fibers, one embedding per conjugate pair)."""

    def __init__(self, tower: FieldTower) -> None:
        m, degree = tower.theta_degree, tower.degree_over_q
        self.tower = tower
        self.conjugation = tuple(i + m if (i // m) % 2 == 0 else i - m for i in range(degree))
        self.restriction_k1 = tuple(i // m for i in range(degree))
        self.k1_labels = [(w, sign) for w in range(tower.k0_degree) for sign in (+1, -1)]
        self.cm_type = tuple(i for i in range(degree) if (i // m) % 2 == 0)

    @property
    def degree(self) -> int:
        return len(self.conjugation)

    def conj(self, i: int) -> int:
        return self.conjugation[i]

    def pairs(self) -> list[tuple[int, int]]:
        """Conjugate pairs (iota_v, conj(iota_v)), one per archimedean place."""
        return [(i, self.conjugation[i]) for i in self.cm_type]

    def fibers(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, t in enumerate(self.restriction_k1):
            out.setdefault(t, []).append(i)
        return out

    def is_admissible(self, perm: Sequence[int]) -> bool:
        """Commutes with conjugation and descends through restriction."""
        n = self.degree
        if sorted(perm) != list(range(n)):
            return False
        for i in range(n):
            if perm[self.conjugation[i]] != self.conjugation[perm[i]]:
                return False
        seen: dict[int, int] = {}
        for i in range(n):
            src = self.restriction_k1[i]
            dst = self.restriction_k1[perm[i]]
            if seen.setdefault(src, dst) != dst:
                return False
        return True


class GaloisPermutation:
    """Permutation shadow of a field automorphism acting on embeddings;
    equal and hashed by ``perm``."""

    def __init__(self, perm: tuple[int, ...]) -> None:
        self.perm = perm

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaloisPermutation):
            return NotImplemented
        return self.perm == other.perm

    def __hash__(self) -> int:
        return hash(self.perm)

    def __call__(self, i: int) -> int:
        return self.perm[i]

    def inverse(self) -> "GaloisPermutation":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return GaloisPermutation(tuple(inv))

    def compose(self, other: "GaloisPermutation") -> "GaloisPermutation":
        """self after other."""
        return GaloisPermutation(tuple(self.perm[j] for j in other.perm))

    def validate(self, emb: Layout) -> None:
        if not emb.is_admissible(self.perm):
            raise ConfigError(f"{self.perm} is not an admissible shadow")

    def descended_k1(self, emb: Layout) -> tuple[int, ...]:
        self.validate(emb)
        n_k1 = len(emb.k1_labels)
        out = [-1] * n_k1
        for i in range(emb.degree):
            out[emb.restriction_k1[i]] = emb.restriction_k1[self.perm[i]]
        return tuple(out)

    def sign(self) -> int:
        return (-1) ** inversions(self.perm)


def identity_permutation(emb: Layout) -> GaloisPermutation:
    return GaloisPermutation(tuple(range(emb.degree)))


def conjugation_permutation(emb: Layout) -> GaloisPermutation:
    return GaloisPermutation(emb.conjugation)


# -- exact validation -----------------------------------------------------------

def check_tower(tower: FieldTower) -> None:
    """Refuse a declaration before any root is sought: ConfigError when
    [k:Q] is above MAX_DEGREE, ReduciblePolynomial when k0_poly has a
    repeated root, ConfigError when k0 is not totally real,
    ReduciblePolynomial when f has a repeated root."""
    if tower.degree_over_q > MAX_DEGREE:
        raise ConfigError(f"[k:Q] = {tower.degree_over_q} is above the limit of {MAX_DEGREE}")
    if tower.declared_k0_poly is not None:
        chain = sturm_chain(tower.declared_k0_poly)
        if len(chain[-1]) > 1:
            raise ReduciblePolynomial("k0 polynomial has coincident roots")
        real = real_root_count(chain)
        if real < tower.k0_degree:
            raise ConfigError(
                f"declared k0 is not totally real: k0 polynomial has {real} real roots "
                f"of {tower.k0_degree}"
            )
    if len(sturm_chain(tower.extension_poly)[-1]) > 1:
        raise ReduciblePolynomial(
            "extension polynomial has coincident roots; embeddings would not be distinct"
        )


# -- the constant Delta -----------------------------------------------------------

def lower_norm(tower: FieldTower) -> tuple[Fraction, Fraction]:
    """delta1 = disc(k1/k0) for the declared basis of k1 over k0, the exact
    det of its trace form, and N = N_{k0/Q}(delta1) = delta1^[k0:Q]."""
    (a1, b1), (a2, b2) = tower.k1_basis
    d = tower.base_disc
    # Tr_{k1/k0}(x y) for x = a+b*s, y = c+e*s, s^2 = -d: 2(ac - d*be)
    def tr(x, y):
        return 2 * (x[0] * y[0] - d * x[1] * y[1])

    basis = [(a1, b1), (a2, b2)]
    gram = [[tr(x, y) for y in basis] for x in basis]
    delta1 = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    return delta1, delta1 ** tower.k0_degree


def _sqrt_double(x: Fraction) -> float:
    """The double nearest sqrt(x) for a rational x > 0, ties to even; inf
    beyond the largest double."""
    # Scaled by 4^e, the root's integer part has at least 55 bits, so every
    # double and every midpoint between two near the root is a multiple of
    # 2^-e: one sticky bit below that integer part then rounds as the root.
    e = (110 - x.numerator.bit_length() + x.denominator.bit_length()) // 2 + 1
    scaled = x * Fraction(4) ** e
    root = math.isqrt(scaled.numerator // scaled.denominator)
    sticky = int(root * root != scaled)
    try:
        return float(Fraction(2 * root + sticky) / Fraction(2) ** (e + 1))
    except OverflowError:
        return math.inf


def delta_double(tower: FieldTower) -> complex:
    """Delta = sqrt(N)^m, principal root, m = [k:k1], as the complex double
    nearest its exact value: |N|^(m/2) * i^m for N < 0, |N|^(m/2) for N > 0."""
    _, norm = lower_norm(tower)
    m = tower.theta_degree
    size = _sqrt_double(abs(norm) ** m)
    if norm > 0 or m % 4 == 0:
        return complex(size, 0.0)
    return [complex(0.0, size), complex(-size, 0.0), complex(0.0, -size)][m % 4 - 1]
