"""Numeric embeddings of a tower k0 <= k1 <= k with a CM step, and its
discriminant constants.

The declaration (``FieldTower``) and the index layout of the embeddings
(conjugation, restriction to k1, CM type) live in ``towers``, which loads
no mpmath.  Here each index of that layout gets the images of the tower
generators at a requested working precision: embeddings are grouped into
fibers over the ordered embeddings of k1, fibers over the "+" half are
sorted by the image of theta, and the conjugate fibers inherit the
transported order, which makes conjugation order-preserving between
paired fibers.  The tower constants read these images, so they exist for
every declared k0; exact elements in coordinates (user bases,
``evaluate``) require k0 = Q.  The working precision is this module's
alone: ``check_precision`` and MAX_FIELD_WORK bound it.

Exact values (disc(k/Q), the norm N_{k1/Q}(disc(k/k1)) as the product of
the fiber determinants of the trace form, the constant in the
square-root identity) are obtained from high-precision numerics by
rational reconstruction; each reconstruction ships a certificate (value,
residual, bound).  The constant Delta is not reconstructed: its exact
norm is ``towers.lower_norm``, which also gives its double
(``towers.delta_double``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp, mpc, mpf

from . import DEFAULT_MAX_DENOMINATOR
from .errors import ConfigError, PrecisionExhausted, ReconstructionFailed
from .towers import FieldTower, K1Pair, Layout, check_tower, lower_norm

# An element of k (over k0 = Q) is a polynomial in theta whose
# coefficients are pairs (a, b) <-> a + b*sqrt(-d), with a, b rational.
KElement = tuple[K1Pair, ...]


DEFAULT_PRECISION = 50
# Largest work [k:Q]^3 * (digits + 250)^2 of building a field and checking
# its constants: [k:Q]-square trace forms of digits-digit numbers, and below
# about 250 digits an mpmath operation costs its overhead.  Fitted by timing
# fresh field-check processes (0.1-0.27 s per 10^9 steps for [k:Q] from 4
# to 64 and up to 10,000 digits): the slowest admitted run takes about 3 s
# on a 2-vCPU host ([k:Q] = 48 at 50 digits).
MAX_FIELD_WORK = 11 * 10**9


def tolerance(precision: int) -> mpf:
    """Root separation and reconstruction tolerance at ``precision`` digits."""
    return mpf(10) ** (-(precision // 2))


def check_precision(precision: int, max_den: int) -> None:
    """Refuse a denominator bound below 1, and a precision whose
    ``tolerance`` is not below half the gap 1/max_den^2 between rationals
    with denominators up to max_den.  2 * max_den^2 is never a power of 10,
    so the least admissible precision // 2 is its number of digits."""
    if max_den < 1:
        raise ConfigError(f"--max-den must be at least 1, got {max_den}")
    least = 2 * len(str(2 * max_den * max_den))
    if precision < least:
        raise ConfigError(f"precision {precision} is below {least}, the least that separates "
                          f"rationals with denominators up to --max-den {max_den}")


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


class Embedding:
    """Numeric images of the tower generators under one embedding k -> C."""

    def __init__(self, k0_image: mpf | None, sqrt_image: mpc, theta_image: mpc) -> None:
        self.k0_image = k0_image
        self.sqrt_image = sqrt_image  # image of sqrt(-d)
        self.theta_image = theta_image


class EmbeddingSet(Layout):
    """A tower's layout (see ``towers``) with the numeric images of the
    generators at each of its [k:Q] embeddings."""

    def __init__(self, tower: FieldTower, precision: int, embeddings: list[Embedding]) -> None:
        super().__init__(tower)
        self.precision = precision
        self.embeddings = embeddings

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


# -- construction -------------------------------------------------------------

def _sorted_roots(poly: tuple[int, ...], precision: int, tol) -> list:
    """Roots of a squarefree monic integer polynomial (low-to-high), sorted
    by (re, im); raises PrecisionExhausted if two are within tol, which
    ``precision`` digits cannot tell apart."""
    try:
        roots = mp.polyroots([mpf(c) for c in reversed(poly)], maxsteps=400, extraprec=precision)
    except mp.NoConvergence as exc:  # pragma: no cover - extreme inputs
        raise PrecisionExhausted(str(exc)) from None
    if any(abs(a - b) < tol for a, b in itertools.combinations(roots, 2)):
        raise PrecisionExhausted(
            f"distinct roots lie within the tolerance {mp.nstr(tol, 3)} at {precision} digits; "
            "raise the precision"
        )
    return sorted(roots, key=lambda r: (mp.re(r), mp.im(r)))


def build_field(tower: FieldTower, precision: int = DEFAULT_PRECISION) -> EmbeddingSet:
    """The tower's layout (``towers.Layout``) with the numeric images of
    the generators at each embedding.

    The fiber t*m .. t*m + m - 1 of the k1 embedding t = 2w + s (root w of
    k0, s = 0 for the "+" sign of sqrt(-d)) gets as theta images the roots
    of f sorted by (re, im) for s = 0 and their conjugates for s = 1, which
    is the layout's conj(i) = i +- m and restriction_k1[i] = i // m.

    Before any root is sought, ConfigError refuses the work above
    MAX_FIELD_WORK, and ``towers.check_tower`` the degree above its bound,
    a repeated root and a k0 that is not totally real.  Then
    PrecisionExhausted refuses two roots closer than the tolerance and a
    root finder that does not converge.
    """
    work = tower.degree_over_q**3 * (precision + 250) ** 2
    if work > MAX_FIELD_WORK:
        raise ConfigError(f"a degree-{tower.degree_over_q} field at {precision} digits needs "
                          f"{work} steps, above the field work limit of {MAX_FIELD_WORK}")
    check_tower(tower)
    with mp.workdps(precision + 15):
        tol = tolerance(precision)

        if tower.declared_k0_poly is not None:
            k0_roots = [mp.re(r) for r in _sorted_roots(tower.declared_k0_poly, precision, tol)]
        else:
            k0_roots = [None]

        sqrt_pos = mpc(0, mp.sqrt(tower.base_disc))
        theta_sorted = [mpc(r) for r in _sorted_roots(tower.extension_poly, precision, tol)]
        theta_conj = [mp.conj(r) for r in theta_sorted]

        embeddings = [
            Embedding(k0_roots[w_idx], sqrt_pos if sign > 0 else mp.conj(sqrt_pos), r)
            for w_idx in range(len(k0_roots))
            for sign in (+1, -1)
            for r in (theta_sorted if sign > 0 else theta_conj)
        ]
        return EmbeddingSet(tower, precision, embeddings)


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
    """A numerically real ``value`` reconstructed as the Fraction with
    denominator <= max_denominator nearest the exact dyadic value of its
    real part; returns (value, certificate).  PrecisionExhausted when the
    rounding of the working digits, |value| * 10^-(precision + 15), is
    above the tolerance; ReconstructionFailed when the value is not real
    or that Fraction is beyond the tolerance."""
    tol = emb.tolerance()
    if abs(value) * mpf(10) ** -(emb.precision + 15) > tol:
        raise PrecisionExhausted(
            f"{what} is about {mp.nstr(abs(value), 3)}, more than {emb.precision} digits "
            "can reconstruct; raise the precision"
        )
    if abs(mp.im(value)) > tol:
        raise ReconstructionFailed(f"{what} is not real")
    real = mp.re(value)
    sign, man, exp, _ = real._mpf_
    frac = (Fraction(-man if sign else man) * Fraction(2) ** exp).limit_denominator(max_denominator)
    residual = abs(real - mpf(frac.numerator) / mpf(frac.denominator))
    if residual > tol:
        raise ReconstructionFailed(
            f"value {mp.nstr(real, 20)} not within {mp.nstr(tol, 3)} of a "
            f"rational with denominator <= {max_denominator}"
        )
    cert = {
        "numeric": mp.nstr(real, 20),
        "residual": mp.nstr(residual, 5),
        "max_denominator": max_denominator,
    }
    return frac, cert


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
    the tower, Delta = sqrt(N)^[k:k1] at working precision for the exact
    N of ``towers.lower_norm``; disc(k) is computed from the product
    basis, so all three depend on basis choices and c is only canonical
    in Q^x, which is exactly what is certified.  ``nabla`` is the value of
    ``disc_constant_upper(emb, max_denominator=max_denominator)`` when the
    caller already has it; otherwise it is computed here.
    """
    tower = emb.tower
    with mp.workdps(emb.precision + 15):
        delta_k, cert_k = disc_over_q(emb, max_denominator=max_denominator)
        _, norm = lower_norm(tower)
        big = mp.sqrt(mpc(norm.numerator) / norm.denominator) ** tower.theta_degree
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
