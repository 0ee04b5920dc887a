"""Number-field towers k0 <= k1 <= k with a CM step, and their embeddings.

A tower is declared by a squarefree d > 0 and a monic integer polynomial f:
k1 = k0(sqrt(-d)) and k = k1(theta) for a root theta of f.  By default
k0 = Q; an optional totally real k0 can be declared by its own integer
polynomial (everything below except exact element arithmetic supports
that case; elements in coordinates require k0 = Q).

Embeddings k -> C are represented numerically at a requested working
precision.  The set carries its conjugation involution, the restriction
to k1, a CM type (one embedding per conjugate pair) and a fixed total
order: embeddings are grouped into fibers over the ordered embeddings of
k1, fibers over the "+" half are sorted by the image of theta, and the
conjugate fibers inherit the transported order, which makes conjugation
order-preserving between paired fibers.

Exact values (discriminants, the constant in the square-root identity)
are obtained from high-precision numerics by rational reconstruction;
each reconstruction ships a certificate (value, residual, bound).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp, mpc, mpf

from .errors import (
    InvalidGaloisPermutation,
    NotRational,
    NotTotallyImaginary,
    PrecisionExhausted,
    ReconstructionFailed,
    ReduciblePolynomial,
    UnsupportedTower,
)

# An element of k (over k0 = Q) is a polynomial in theta whose
# coefficients are pairs (a, b) <-> a + b*sqrt(-d), with a, b rational.
K1Pair = tuple[Fraction, Fraction]
KElement = tuple[K1Pair, ...]

DEFAULT_PRECISION = 50
DEFAULT_MAX_DENOMINATOR = 10**4


def _squarefree(n: int) -> bool:
    if n <= 0:
        return False
    m, p = n, 2
    while p * p <= m:
        if m % (p * p) == 0:
            return False
        if m % p == 0:
            m //= p
        p += 1
    return True


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


@dataclass(frozen=True)
class FieldTower:
    """Declaration of a tower k0 <= k1 = k0(sqrt(-d)) <= k = k1(theta)."""

    base_disc: int
    extension_poly: tuple[int, ...]  # low-to-high, monic
    k1_basis: tuple[K1Pair, K1Pair] = (
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    )
    declared_k0_poly: Optional[tuple[int, ...]] = None
    k1_maximality_asserted: bool = True

    def __post_init__(self):
        if not _squarefree(self.base_disc):
            raise ValueError(f"d = {self.base_disc} must be a squarefree positive integer")
        if not self.extension_poly or self.extension_poly[-1] != 1:
            raise ValueError("extension polynomial must be monic (trailing coefficient 1)")
        if len(self.extension_poly) < 2:
            raise ValueError("extension polynomial must have degree >= 1")
        if self.declared_k0_poly is not None:
            if self.declared_k0_poly[-1] != 1 or len(self.declared_k0_poly) < 3:
                raise ValueError("k0 polynomial must be monic of degree >= 2")

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
            "base_disc": int(cfg["d"]),
            "extension_poly": tuple(int(c) for c in cfg["extension_poly"]),
        }
        if cfg.get("k1_basis") is not None:
            kwargs["k1_basis"] = tuple(
                (Fraction(a), Fraction(b)) for a, b in cfg["k1_basis"]
            )
        if cfg.get("k0_poly") is not None:
            kwargs["declared_k0_poly"] = tuple(int(c) for c in cfg["k0_poly"])
        return FieldTower(**kwargs)


@dataclass(frozen=True)
class Embedding:
    """Numeric images of the tower generators under one embedding k -> C."""

    k0_image: Optional[mpf]
    sqrt_image: mpc  # image of sqrt(-d)
    theta_image: mpc


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
        return mpf(10) ** (-(self.precision // 2))

    # -- element evaluation ---------------------------------------------------

    def evaluate(self, element: KElement, i: int) -> mpc:
        if self.tower.declared_k0_poly is not None:
            raise UnsupportedTower("exact elements require k0 = Q")
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

    def admissible_permutations(self) -> list["GaloisPermutation"]:
        if self.degree > 8:
            raise UnsupportedTower("brute-force enumeration limited to degree <= 8")
        out = []
        for p in itertools.permutations(range(self.degree)):
            if self.is_admissible(p):
                out.append(GaloisPermutation(p))
        return out


@dataclass(frozen=True)
class GaloisPermutation:
    """Permutation shadow of a field automorphism acting on embeddings."""

    perm: tuple[int, ...]

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
            raise InvalidGaloisPermutation(f"{self.perm} is not an admissible shadow")

    def descended_k1(self, emb: EmbeddingSet) -> tuple[int, ...]:
        self.validate(emb)
        n_k1 = len(emb.k1_labels)
        out = [-1] * n_k1
        for i in range(emb.degree):
            out[emb.restriction_k1[i]] = emb.restriction_k1[self.perm[i]]
        return tuple(out)

    def sqrt_action(self, emb: EmbeddingSet) -> int:
        """+1 if the induced action fixes sqrt(-d), -1 if it conjugates it."""
        self.validate(emb)
        flip = None
        for i in range(emb.degree):
            s_src = emb.k1_labels[emb.restriction_k1[i]][1]
            s_dst = emb.k1_labels[emb.restriction_k1[self.perm[i]]][1]
            f = s_src * s_dst
            if flip is None:
                flip = f
            elif flip != f:
                raise InvalidGaloisPermutation(
                    "action on sqrt(-d) is not uniform across embeddings"
                )
        return flip if flip is not None else 1

    def sign(self) -> int:
        return (-1) ** inversions(self.perm)


def identity_permutation(emb: EmbeddingSet) -> GaloisPermutation:
    return GaloisPermutation(tuple(range(emb.degree)))


def conjugation_permutation(emb: EmbeddingSet) -> GaloisPermutation:
    return GaloisPermutation(emb.conjugation)


# -- construction -------------------------------------------------------------

def build_field(tower: FieldTower, precision: int = DEFAULT_PRECISION) -> EmbeddingSet:
    """Compute all embeddings of k with conjugation, restriction and order.

    Raises NotTotallyImaginary, ReduciblePolynomial or PrecisionExhausted
    when the declared tower cannot be verified at the given precision.
    """
    with mp.workdps(precision + 15):
        tol = mpf(10) ** (-(precision // 2))

        if tower.declared_k0_poly is not None:
            k0_coeffs = [mpf(c) for c in reversed(tower.declared_k0_poly)]
            k0_roots = mp.polyroots(k0_coeffs, maxsteps=200, extraprec=precision)
            for r in k0_roots:
                if abs(mp.im(r)) > tol:
                    raise NotTotallyImaginary(
                        "declared k0 is not totally real at working precision"
                    )
            k0_roots = sorted((mp.re(r) for r in k0_roots), key=lambda r: mpf_to_fraction(r))
            if len(k0_roots) > 1:
                dmin = min(
                    abs(a - b) for a, b in itertools.combinations(k0_roots, 2)
                )
                if dmin < tol:
                    raise ReduciblePolynomial("k0 polynomial has coincident roots")
        else:
            k0_roots = [None]

        sqrt_pos = mpc(0, mp.sqrt(tower.base_disc))
        if abs(mp.im(sqrt_pos)) <= tol:
            raise NotTotallyImaginary("sqrt(-d) is numerically real; k1 not imaginary")

        if tower.theta_degree == 0:
            raise ReduciblePolynomial("extension polynomial is constant")
        if tower.theta_degree == 1:
            theta_roots = [mpc(-tower.extension_poly[0])]
        else:
            f_coeffs = [mpf(c) for c in reversed(tower.extension_poly)]
            try:
                theta_roots = [
                    mpc(r)
                    for r in mp.polyroots(f_coeffs, maxsteps=400, extraprec=precision)
                ]
            except mp.NoConvergence as exc:  # pragma: no cover - extreme inputs
                raise PrecisionExhausted(str(exc)) from None
            dmin = min(
                abs(a - b) for a, b in itertools.combinations(theta_roots, 2)
            )
            if dmin < tol:
                raise ReduciblePolynomial(
                    "extension polynomial has coincident roots; "
                    "embeddings would not be distinct"
                )

        def root_key(r):
            return (mpf_to_fraction(mp.re(r)), mpf_to_fraction(mp.im(r)))

        theta_sorted = sorted(theta_roots, key=root_key)

        # k1 embeddings ordered with the "+" member of each pair first.
        k1_labels: list[tuple[int, int]] = []
        for w_idx in range(len(k0_roots)):
            k1_labels.append((w_idx, +1))
            k1_labels.append((w_idx, -1))

        embeddings: list[Embedding] = []
        restriction: list[int] = []
        fiber_positions: dict[tuple[int, int], list[int]] = {}
        for t_idx, (w_idx, sign) in enumerate(k1_labels):
            w_img = k0_roots[w_idx]
            s_img = sqrt_pos if sign > 0 else mp.conj(sqrt_pos)
            # conjugate fibers inherit the transported order from the "+" fiber
            roots_here = (
                theta_sorted if sign > 0 else [mp.conj(r) for r in theta_sorted]
            )
            positions = []
            for r in roots_here:
                positions.append(len(embeddings))
                embeddings.append(Embedding(w_img, s_img, mpc(r)))
                restriction.append(t_idx)
            fiber_positions[(w_idx, sign)] = positions

        conjugation = [0] * len(embeddings)
        for w_idx in range(len(k0_roots)):
            plus = fiber_positions[(w_idx, +1)]
            minus = fiber_positions[(w_idx, -1)]
            for p_i, m_i in zip(plus, minus):
                conjugation[p_i] = m_i
                conjugation[m_i] = p_i

        for i, j in enumerate(conjugation):
            if j == i:
                raise NotTotallyImaginary("conjugation has a fixed embedding")
            ei, ej = embeddings[i], embeddings[j]
            if (
                abs(ei.sqrt_image - mp.conj(ej.sqrt_image)) > tol
                or abs(ei.theta_image - mp.conj(ej.theta_image)) > tol
            ):
                raise PrecisionExhausted("conjugate embeddings fail to match")

        cm_type = tuple(
            i for i in range(len(embeddings))
            if k1_labels[restriction[i]][1] > 0
        )

        return EmbeddingSet(
            tower=tower,
            precision=precision,
            embeddings=embeddings,
            conjugation=tuple(conjugation),
            restriction=tuple(restriction),
            k1_labels=k1_labels,
            cm_type=cm_type,
        )


# -- discriminants ------------------------------------------------------------

def _trace_values(emb: EmbeddingSet, values: list[list[mpc]], indices) -> list[list[mpc]]:
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


def power_basis(emb: EmbeddingSet) -> list[KElement]:
    """theta powers 1, theta, ..., theta^{m-1} as exact elements (k0 = Q)."""
    m = emb.tower.theta_degree
    out = []
    for i in range(m):
        coeffs = [(Fraction(0), Fraction(0))] * m
        coeffs[i] = (Fraction(1), Fraction(0))
        out.append(tuple(coeffs))
    return out


def product_basis(emb: EmbeddingSet) -> list[KElement]:
    """k1_basis tensor theta powers: a Q-basis of k (k0 = Q)."""
    out = []
    for a, b in emb.tower.k1_basis:
        for p in power_basis(emb):
            # multiply (a + b sqrt(-d)) * theta^i exactly
            elem = tuple(
                (a * pa - emb.tower.base_disc * b * pb, a * pb + b * pa)
                for pa, pb in p
            )
            out.append(elem)
    return out


def _rational_det(emb: EmbeddingSet, values: list[list[mpc]], max_denominator: int):
    """det[Tr_{k/Q}(x_i x_j)] for basis images ``values``, reconstructed
    as a Fraction; returns (value, certificate)."""
    tol = emb.tolerance()
    det = mp.det(_trace_values(emb, values, range(emb.degree)))
    if abs(mp.im(det)) > tol:
        raise ReconstructionFailed("discriminant over Q is not real")
    frac, residual = reconstruct_fraction(mp.re(det), max_denominator, tol)
    cert = {
        "numeric": mp.nstr(mp.re(det), 20),
        "residual": mp.nstr(residual, 5),
        "max_denominator": max_denominator,
    }
    return frac, cert


def relative_discriminant(
    emb: EmbeddingSet,
    basis: Sequence[KElement],
    over: str = "Q",
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
):
    """det[Tr_{k/F}(x_i x_j)] for F = Q or k1, with reconstruction certificate.

    Returns (value, certificate); value is a Fraction for F = Q and a pair
    (a, b) <-> a + b*sqrt(-d) for F = k1.
    """
    with mp.workdps(emb.precision + 15):
        tol = emb.tolerance()
        values = _basis_values(emb, basis)
        if over == "Q":
            if len(basis) != emb.degree:
                raise ValueError("basis over Q must have [k:Q] elements")
            return _rational_det(emb, values, max_denominator)
        if over != "k1":
            raise ValueError("over must be 'Q' or 'k1'")
        if len(basis) != emb.tower.theta_degree:
            raise ValueError("basis over k1 must have [k:k1] elements")
        fibers = emb.fibers()
        dets = {}
        for t_idx, indices in fibers.items():
            dets[t_idx] = mp.det(_trace_values(emb, values, indices))
        # For Z[x] power bases the determinant is rational; otherwise it is
        # a genuine k1 element and we solve the conjugate pair for (a, b).
        plus = [t for t, (w, s) in enumerate(emb.k1_labels) if s > 0]
        minus = [t for t, (w, s) in enumerate(emb.k1_labels) if s < 0]
        d_plus = dets[plus[0]]
        d_minus = dets[minus[0]]
        if len(plus) > 1:
            spread = max(abs(dets[t] - d_plus) for t in plus)
            spread = max(spread, max(abs(dets[t] - d_minus) for t in minus))
            if spread > tol:
                raise UnsupportedTower(
                    "k1-valued discriminant varies across real embeddings of k0"
                )
        sq = mpc(0, mp.sqrt(emb.tower.base_disc))
        a_num = (d_plus + d_minus) / 2
        b_num = (d_plus - d_minus) / (2 * sq)
        if abs(mp.im(a_num)) > tol or abs(mp.im(b_num)) > tol:
            raise ReconstructionFailed("discriminant over k1 has unexpected phase")
        a_frac, ra = reconstruct_fraction(mp.re(a_num), max_denominator, tol)
        b_frac, rb = reconstruct_fraction(mp.re(b_num), max_denominator, tol)
        cert = {
            "numeric": (mp.nstr(mp.re(a_num), 20), mp.nstr(mp.re(b_num), 20)),
            "residual": mp.nstr(max(ra, rb), 5),
            "max_denominator": max_denominator,
        }
        return (a_frac, b_frac), cert


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

    Defaults to the power basis in theta.  The norm of an imaginary
    quadratic element a + b*sqrt(-d) is a^2 + d b^2 >= 0, so the value is
    a nonnegative real.  Returns (mpf value, exact data dict).
    """
    tower = emb.tower
    if tower.theta_degree == 1:
        return mpf(1), {"disc_k_over_k1": (Fraction(1), Fraction(0)), "norm_to_q": Fraction(1)}
    if basis is None:
        basis = power_basis(emb)
    (a, b), cert = relative_discriminant(emb, basis, over="k1", max_denominator=max_denominator)
    d = tower.base_disc
    norm_k1_to_q = a * a + d * b * b
    norm = norm_k1_to_q ** tower.k0_degree
    with mp.workdps(emb.precision + 15):
        value = mp.sqrt(mpf(norm.numerator) / norm.denominator)
    return value, {"disc_k_over_k1": (a, b), "norm_to_q": norm, "certificate": cert}


def disc_over_q(emb: EmbeddingSet, max_denominator: int = DEFAULT_MAX_DENOMINATOR):
    """Discriminant of k over Q for the product basis: powers of the k0
    generator times the declared k1 basis times powers of theta."""
    tower = emb.tower
    with mp.workdps(emb.precision + 15):
        values = []
        for a_exp in range(tower.k0_degree):
            for a, b in tower.k1_basis:
                for c_exp in range(tower.theta_degree):
                    row = []
                    for e in emb.embeddings:
                        v = (mpf(a.numerator) / a.denominator
                             + mpf(b.numerator) / b.denominator * e.sqrt_image)
                        if a_exp:
                            v *= e.k0_image ** a_exp
                        row.append(v * e.theta_image ** c_exp)
                    values.append(row)
        return _rational_det(emb, values, max_denominator)


def check_discriminant_identity(
    emb: EmbeddingSet,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
):
    """Solve |disc(k)|^(1/2) = c * i^([k:Q]/2) * Delta * Nabla for rational c.

    Delta and Nabla are the two principal-branch square-root constants of
    the tower; disc(k) is computed from the product basis, so all three
    depend on basis choices and c is only canonical in Q^x, which is
    exactly what is certified.
    """
    tower = emb.tower
    with mp.workdps(emb.precision + 15):
        tol = emb.tolerance()
        delta_k, cert_k = disc_over_q(emb, max_denominator=max_denominator)
        big, lower_data = disc_constant_lower(tower, precision=emb.precision)
        nabla, upper_data = disc_constant_upper(emb, max_denominator=max_denominator)
        deg = emb.degree
        if deg % 2 != 0:
            raise NotRational("field degree over Q is odd; no CM structure")
        i_pow = mpc(0, 1) ** (deg // 2)
        denom = i_pow * big * nabla
        if abs(denom) < tol:
            raise NotRational("degenerate normalizing constant")
        lhs = mp.sqrt(abs(mpf(delta_k.numerator) / delta_k.denominator))
        c_num = lhs / denom
        if abs(mp.im(c_num)) > tol:
            raise NotRational(
                f"constant has nonzero imaginary part {mp.nstr(mp.im(c_num), 5)}"
            )
        try:
            c_frac, residual = reconstruct_fraction(mp.re(c_num), max_denominator, tol)
        except ReconstructionFailed as exc:
            raise NotRational(str(exc)) from None
        certificate = {
            "disc_k": delta_k,
            "disc_certificate": cert_k,
            "delta_constant": mp.nstr(big, 20),
            "nabla_constant": mp.nstr(nabla, 20),
            "c_numeric": mp.nstr(mp.re(c_num), 20),
            "residual": mp.nstr(residual, 5),
            "max_denominator": max_denominator,
            "k1_maximality_asserted": tower.k1_maximality_asserted,
        }
        return c_frac, certificate


# -- Galois action on exact scalars -------------------------------------------

def apply_galois(x, g: GaloisPermutation, emb: EmbeddingSet):
    """Apply the induced action on Q(sqrt(-d)) coordinates.

    ``x`` is a Fraction (fixed by everything) or a pair (a, b) meaning
    a + b*sqrt(-d); the action is identity or conjugation, read off the
    permutation's effect on the embedding signs.
    """
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    a, b = x
    if g.sqrt_action(emb) > 0:
        return (Fraction(a), Fraction(b))
    return (Fraction(a), -Fraction(b))
