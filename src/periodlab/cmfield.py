"""Number-field towers k0 <= k1 <= k with a CM step, and their embeddings.

A tower is declared by a squarefree d > 0 and a monic integer polynomial f:
k1 = k0(sqrt(-d)) and k = k1(theta) for a root theta of f.  By default
k0 = Q; an optional totally real k0 can be declared by its own integer
polynomial.  The tower constants read the images of the generators under
each embedding, so they exist for every declared k0; exact elements in
coordinates (user bases, ``evaluate``) require k0 = Q.

Embeddings k -> C are represented numerically at a requested working
precision.  The set carries its conjugation involution, the restriction
to k1, a CM type (one embedding per conjugate pair) and a fixed total
order: embeddings are grouped into fibers over the ordered embeddings of
k1, fibers over the "+" half are sorted by the image of theta, and the
conjugate fibers inherit the transported order, which makes conjugation
order-preserving between paired fibers.

Exact values (disc(k/Q), the norm N_{k1/Q}(disc(k/k1)) as the product of
the fiber determinants of the trace form, the constant in the
square-root identity) are obtained from high-precision numerics by
rational reconstruction; each reconstruction ships a certificate (value,
residual, bound).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp, mpc, mpf

from . import DEFAULT_MAX_DENOMINATOR
from .cyclotomic import factorize
from .errors import ConfigError, PrecisionExhausted, ReconstructionFailed, ReduciblePolynomial

# An element of k (over k0 = Q) is a polynomial in theta whose
# coefficients are pairs (a, b) <-> a + b*sqrt(-d), with a, b rational.
K1Pair = tuple[Fraction, Fraction]
KElement = tuple[K1Pair, ...]

DEFAULT_PRECISION = 50
# Largest accepted d: its squarefree test is trial division up to sqrt(d).
MAX_BASE_DISC = 10**12
# Largest work [k:Q]^3 * (digits + 250)^2 of building a field and checking
# its constants: the trace forms are [k:Q]-square matrices of digits-digit
# numbers, and below about 250 digits the cost of an mpmath operation is
# its overhead.  Fitted by timing fresh field-check processes: 0.1-0.27 s
# per 10^9 steps for [k:Q] from 4 to 64 and up to 10,000 digits (less at
# [k:Q] = 2), so the slowest admitted run takes about 3 s on a 2-vCPU host
# ([k:Q] = 48 at 50 digits: 2.1-2.8 s; x^12 - c over Q(sqrt -d) at 140
# digits: 0.6 s).
MAX_FIELD_WORK = 11 * 10**9


def tolerance(precision: int) -> mpf:
    """Root separation and reconstruction tolerance at ``precision`` digits."""
    return mpf(10) ** (-(precision // 2))


def inversions(seq) -> int:
    """Number of pairs a < b with seq[a] > seq[b]; its parity is the sign
    of the permutation that sorts ``seq``."""
    count = 0
    for a, x in enumerate(seq):
        for y in seq[a + 1:]:
            count += x > y
    return count


def mpf_to_fraction(x) -> Fraction:
    """Exact Fraction equal to a finite mpf (dyadic rational)."""
    sign, man, exp, _ = mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def reconstruct_fraction(value, max_denominator: int, tol) -> tuple[Fraction, mpf]:
    """Nearest small-height rational with its residual; raises if too far."""
    exact = mpf_to_fraction(value)
    cand = exact.limit_denominator(max_denominator)
    residual = abs(mpf(value) - mpf(cand.numerator) / mpf(cand.denominator))
    if residual > tol:
        raise ReconstructionFailed(
            f"value {mp.nstr(mpf(value), 20)} not within {mp.nstr(tol, 3)} of a "
            f"rational with denominator <= {max_denominator}"
        )
    return cand, residual


def parse_element(data) -> KElement:
    """Parse a field element from nested lists [[a, b], ...] (theta powers)."""
    out = []
    for pair in data:
        if isinstance(pair, (int, str)):
            out.append((Fraction(pair), Fraction(0)))
        else:
            a, b = pair
            out.append((Fraction(a), Fraction(b)))
    return tuple(out)


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


class Embedding:
    """Numeric images of the tower generators under one embedding k -> C."""

    def __init__(self, k0_image: mpf | None, sqrt_image: mpc, theta_image: mpc) -> None:
        self.k0_image = k0_image
        self.sqrt_image = sqrt_image  # image of sqrt(-d)
        self.theta_image = theta_image


class EmbeddingSet:
    """All [k:Q] embeddings with conjugation, restriction, CM type, order."""

    def __init__(self, tower, precision, embeddings, conjugation, restriction,
                 k1_labels, cm_type):
        self.tower = tower
        self.precision = precision
        self.embeddings: list[Embedding] = embeddings
        self.conjugation: tuple[int, ...] = conjugation
        self.restriction_k1: tuple[int, ...] = restriction
        self.k1_labels: list[tuple[int, int]] = k1_labels  # (k0 index, sign)
        self.cm_type: tuple[int, ...] = cm_type

    @property
    def degree(self) -> int:
        return len(self.embeddings)

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

    def tolerance(self) -> mpf:
        return tolerance(self.precision)

    # -- element evaluation ---------------------------------------------------

    def evaluate(self, element: KElement, i: int) -> mpc:
        if self.tower.declared_k0_poly is not None:
            raise ConfigError("exact elements require k0 = Q")
        emb = self.embeddings[i]
        with mp.workdps(self.precision + 15):
            acc = mpc(0)
            power = mpc(1)
            for a, b in element:
                coeff = mpc(a.numerator) / a.denominator + (
                    mpc(b.numerator) / b.denominator
                ) * emb.sqrt_image
                acc += coeff * power
                power *= emb.theta_image
            return acc

    # -- admissible permutations ----------------------------------------------

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

    def validate(self, emb: EmbeddingSet) -> None:
        if not emb.is_admissible(self.perm):
            raise ConfigError(f"{self.perm} is not an admissible shadow")

    def descended_k1(self, emb: EmbeddingSet) -> tuple[int, ...]:
        self.validate(emb)
        n_k1 = len(emb.k1_labels)
        out = [-1] * n_k1
        for i in range(emb.degree):
            out[emb.restriction_k1[i]] = emb.restriction_k1[self.perm[i]]
        return tuple(out)

    def sign(self) -> int:
        return (-1) ** inversions(self.perm)


def identity_permutation(emb: EmbeddingSet) -> GaloisPermutation:
    return GaloisPermutation(tuple(range(emb.degree)))


def conjugation_permutation(emb: EmbeddingSet) -> GaloisPermutation:
    return GaloisPermutation(emb.conjugation)


# -- construction -------------------------------------------------------------

def _sorted_roots(poly: tuple[int, ...], precision: int, tol, coincident: str) -> list:
    """Roots of a monic integer polynomial (low-to-high), sorted by exact
    (re, im); raises ReduciblePolynomial(coincident) if two are within tol."""
    try:
        roots = mp.polyroots([mpf(c) for c in reversed(poly)], maxsteps=400, extraprec=precision)
    except mp.NoConvergence as exc:  # pragma: no cover - extreme inputs
        raise PrecisionExhausted(str(exc)) from None
    if any(abs(a - b) < tol for a, b in itertools.combinations(roots, 2)):
        raise ReduciblePolynomial(coincident)
    return sorted(roots, key=lambda r: (mpf_to_fraction(mp.re(r)), mpf_to_fraction(mp.im(r))))


def build_field(tower: FieldTower, precision: int = DEFAULT_PRECISION) -> EmbeddingSet:
    """Compute all embeddings of k with conjugation, restriction and order.

    With m = [k:k1], the k1 embedding t = 2w + s (root w of k0, s = 0 for
    the "+" sign of sqrt(-d)) carries the fiber t*m .. t*m + m - 1, whose
    theta images are the roots of f sorted by (re, im) for s = 0 and their
    conjugates for s = 1.  So conj(i) = i +- m and restriction_k1[i] = i // m.

    Raises ConfigError when the declared k0 is not totally real or, before
    any root is sought, when the work is above MAX_FIELD_WORK;
    ReduciblePolynomial when a polynomial has coincident roots, and
    PrecisionExhausted when the root finder does not converge.
    """
    work = tower.degree_over_q**3 * (precision + 250) ** 2
    if work > MAX_FIELD_WORK:
        raise ConfigError(
            f"a degree-{tower.degree_over_q} field at {precision} digits needs {work} steps, "
            f"above the field work limit of {MAX_FIELD_WORK}"
        )
    with mp.workdps(precision + 15):
        tol = tolerance(precision)

        if tower.declared_k0_poly is not None:
            k0_roots = _sorted_roots(
                tower.declared_k0_poly, precision, tol, "k0 polynomial has coincident roots"
            )
            if any(abs(mp.im(r)) > tol for r in k0_roots):
                raise ConfigError("declared k0 is not totally real at working precision")
            k0_roots = [mp.re(r) for r in k0_roots]
        else:
            k0_roots = [None]

        sqrt_pos = mpc(0, mp.sqrt(tower.base_disc))
        theta_sorted = [mpc(r) for r in _sorted_roots(
            tower.extension_poly, precision, tol,
            "extension polynomial has coincident roots; embeddings would not be distinct",
        )]
        theta_conj = [mp.conj(r) for r in theta_sorted]

        m = tower.theta_degree
        k1_labels = [(w_idx, sign) for w_idx in range(len(k0_roots)) for sign in (+1, -1)]
        embeddings = [
            Embedding(k0_roots[w_idx], sqrt_pos if sign > 0 else mp.conj(sqrt_pos), r)
            for w_idx, sign in k1_labels
            for r in (theta_sorted if sign > 0 else theta_conj)
        ]
        degree = len(embeddings)
        return EmbeddingSet(
            tower=tower,
            precision=precision,
            embeddings=embeddings,
            conjugation=tuple(i + m if (i // m) % 2 == 0 else i - m for i in range(degree)),
            restriction=tuple(i // m for i in range(degree)),
            k1_labels=k1_labels,
            cm_type=tuple(i for i in range(degree) if (i // m) % 2 == 0),
        )


# -- discriminants ------------------------------------------------------------

def _trace_values(values: list[list[mpc]], indices) -> list[list[mpc]]:
    """Gram matrix Tr(x_i x_j) summed over the given embedding indices."""
    size = len(values)
    gram = [[mpc(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            acc = mpc(0)
            for e in indices:
                acc += values[i][e] * values[j][e]
            gram[i][j] = acc
            gram[j][i] = acc
    return gram


def _basis_values(emb: EmbeddingSet, basis: Sequence[KElement]) -> list[list[mpc]]:
    return [[emb.evaluate(x, e) for e in range(emb.degree)] for x in basis]


def _product_values(emb: EmbeddingSet, k0_powers: int, k1_elements) -> list[list[mpc]]:
    """Images at every embedding of g^a * x * theta^c for a < k0_powers,
    x in ``k1_elements`` (pairs a + b*sqrt(-d)) and c < [k:k1], with g the
    k0 generator; read from the generator images, so any k0 is allowed."""
    rows = []
    for a_exp in range(k0_powers):
        for a, b in k1_elements:
            for c_exp in range(emb.tower.theta_degree):
                row = []
                for e in emb.embeddings:
                    v = (mpf(a.numerator) / a.denominator
                         + mpf(b.numerator) / b.denominator * e.sqrt_image)
                    if a_exp:
                        v *= e.k0_image ** a_exp
                    row.append(v * e.theta_image ** c_exp)
                rows.append(row)
    return rows


def _rational(emb: EmbeddingSet, value, what: str, max_denominator: int):
    """A numerically real ``value`` reconstructed as a Fraction; returns
    (value, certificate)."""
    tol = emb.tolerance()
    if abs(mp.im(value)) > tol:
        raise ReconstructionFailed(f"{what} is not real")
    frac, residual = reconstruct_fraction(mp.re(value), max_denominator, tol)
    cert = {
        "numeric": mp.nstr(mp.re(value), 20),
        "residual": mp.nstr(residual, 5),
        "max_denominator": max_denominator,
    }
    return frac, cert


def disc_constant_lower(tower: FieldTower, precision: int = DEFAULT_PRECISION):
    """Principal square root of N_{k0/Q}(disc(k1/k0)), to the power [k:k1].

    The k1/k0 step uses the tower's declared basis of k1 over k0; its
    discriminant is the exact rational det of the trace form.  Returns
    (complex value, exact data dict).
    """
    (a1, b1), (a2, b2) = tower.k1_basis
    d = tower.base_disc
    # Tr_{k1/k0}(x y) for x = a+b*s, y = c+e*s, s^2 = -d: 2(ac - d*be)
    def tr(x, y):
        return 2 * (x[0] * y[0] - d * x[1] * y[1])

    basis = [(a1, b1), (a2, b2)]
    gram = [[tr(x, y) for y in basis] for x in basis]
    delta1 = gram[0][0] * gram[1][1] - gram[0][1] * gram[1][0]
    norm = delta1 ** tower.k0_degree
    with mp.workdps(precision + 15):
        root = mp.sqrt(mpc(norm.numerator) / norm.denominator)
        value = root ** tower.theta_degree
    return value, {"disc_k1_over_k0": delta1, "norm_to_q": norm}


def disc_constant_upper(
    emb: EmbeddingSet,
    basis: Optional[Sequence[KElement]] = None,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
):
    """Principal square root of N_{k1/Q}(disc(k/k1)).

    disc(k/k1) at an embedding t of k1 is the determinant of the trace form
    over the fiber of embeddings above t, so the norm is the product of
    the fiber determinants; it is a nonnegative rational (a product of
    conjugate pairs).  Defaults to the power basis in theta; exact
    ``basis`` elements need k0 = Q, and ConfigError refuses a ``basis``
    whose norm is 0, which is no basis.  Returns (mpf value, exact data
    dict).
    """
    with mp.workdps(emb.precision + 15):
        if basis is None:
            values = _product_values(emb, 1, [(Fraction(1), Fraction(0))])
        elif len(basis) != emb.tower.theta_degree:
            raise ConfigError("basis over k1 must have [k:k1] elements")
        else:
            values = _basis_values(emb, basis)
        product = mpc(1)
        for indices in emb.fibers().values():
            product *= mp.det(_trace_values(values, indices))
        norm, cert = _rational(emb, product, "norm of disc(k/k1)", max_denominator)
        if norm == 0:
            raise ConfigError("not a basis of k over k1: the norm of its discriminant is 0")
        value = mp.sqrt(mpf(norm.numerator) / norm.denominator)
    return value, {"norm_to_q": norm, "certificate": cert}


def disc_over_q(emb: EmbeddingSet, max_denominator: int = DEFAULT_MAX_DENOMINATOR):
    """Discriminant of k over Q for the product basis: powers of the k0
    generator times the declared k1 basis times powers of theta."""
    tower = emb.tower
    with mp.workdps(emb.precision + 15):
        values = _product_values(emb, tower.k0_degree, tower.k1_basis)
        det = mp.det(_trace_values(values, range(emb.degree)))
        return _rational(emb, det, "discriminant over Q", max_denominator)


def check_discriminant_identity(
    emb: EmbeddingSet,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
    nabla=None,
):
    """Solve |disc(k)|^(1/2) = c * i^([k:Q]/2) * Delta * Nabla for rational c.

    Delta and Nabla are the two principal-branch square-root constants of
    the tower; disc(k) is computed from the product basis, so all three
    depend on basis choices and c is only canonical in Q^x, which is
    exactly what is certified.  ``nabla`` is the value of
    ``disc_constant_upper(emb, max_denominator=max_denominator)`` when the
    caller already has it; otherwise it is computed here.
    """
    tower = emb.tower
    with mp.workdps(emb.precision + 15):
        delta_k, cert_k = disc_over_q(emb, max_denominator=max_denominator)
        big, _ = disc_constant_lower(tower, precision=emb.precision)
        if nabla is None:
            nabla, _ = disc_constant_upper(emb, max_denominator=max_denominator)
        i_pow = mpc(0, 1) ** (emb.degree // 2)
        denom = i_pow * big * nabla
        if abs(denom) < emb.tolerance():
            raise ReconstructionFailed("degenerate normalizing constant")
        lhs = mp.sqrt(abs(mpf(delta_k.numerator) / delta_k.denominator))
        c_frac, cert_c = _rational(emb, lhs / denom, "identity constant", max_denominator)
        certificate = {
            "disc_k": delta_k,
            "disc_certificate": cert_k,
            "delta_constant": mp.nstr(big, 20),
            "nabla_constant": mp.nstr(nabla, 20),
            "c_numeric": cert_c["numeric"],
            "residual": cert_c["residual"],
            "max_denominator": max_denominator,
            "k1_maximality_asserted": True,
        }
        return c_frac, certificate
