import random
from fractions import Fraction

import pytest
from mpmath import mp

from periodlab.cmfield import (
    FieldTower,
    GaloisPermutation,
    build_field,
    check_discriminant_identity,
    conjugation_permutation,
    disc_constant_lower,
    disc_constant_upper,
    disc_over_q,
    identity_permutation,
    power_basis,
    product_basis,
    relative_discriminant,
)
from periodlab.errors import ConfigError, ReduciblePolynomial


QI = FieldTower(base_disc=1, extension_poly=(0, 1))
QS3 = FieldTower(base_disc=3, extension_poly=(0, 1))
QZ8 = FieldTower(base_disc=1, extension_poly=(-2, 0, 1))       # Q(i)(sqrt 2)
QIC = FieldTower(base_disc=1, extension_poly=(-2, 0, 0, 1))    # Q(i)(cbrt 2)

TOWERS = [QI, QS3, QZ8, QIC]


@pytest.fixture(scope="module")
def built():
    return {t: build_field(t, 60) for t in TOWERS}


def test_embedding_counts(built):
    assert built[QI].degree == 2
    assert len(built[QI].pairs()) == 1
    assert built[QZ8].degree == 4
    assert built[QIC].degree == 6
    assert len(built[QIC].pairs()) == 3


def test_cubic_fibers(built):
    emb = built[QIC]
    fibers = emb.fibers()
    assert len(fibers) == 2
    assert all(len(v) == 3 for v in fibers.values())


def test_conjugation_is_fixed_point_free_involution(built):
    for emb in built.values():
        for i in range(emb.degree):
            assert emb.conj(i) != i
            assert emb.conj(emb.conj(i)) == i


def test_conjugation_order_preserving_between_fibers(built):
    for emb in built.values():
        for t, members in emb.fibers().items():
            images = [emb.conj(i) for i in members]
            assert images == sorted(images)


def test_restriction_commutes_with_conjugation(built):
    for emb in built.values():
        for i in range(emb.degree):
            t = emb.restriction_k1[i]
            tbar = emb.restriction_k1[emb.conj(i)]
            w, s = emb.k1_labels[t]
            wb, sb = emb.k1_labels[tbar]
            assert w == wb and s == -sb


@pytest.mark.parametrize("fields, message", [
    (dict(base_disc=12, extension_poly=(0, 1)), "d = 12 must be a squarefree positive integer"),
    (dict(base_disc=0, extension_poly=(0, 1)), "d = 0 must be a squarefree positive integer"),
    (dict(base_disc=10**12 + 1, extension_poly=(0, 1)),
     "d = 1000000000001 is above the limit of 1000000000000"),
    (dict(base_disc=1, extension_poly=(0, 2)),
     "extension polynomial must be monic (trailing coefficient 1)"),
    (dict(base_disc=1, extension_poly=(1,)), "extension polynomial must have degree >= 1"),
    (dict(base_disc=1, extension_poly=(0, 1), declared_k0_poly=(-2, 1)),
     "k0 polynomial must be monic of degree >= 2"),
], ids=["d-12", "d-0", "d-above-limit", "not-monic", "degree-0", "k0-degree-1"])
def test_tower_declaration_validation(fields, message):
    with pytest.raises(ValueError) as exc:
        FieldTower(**fields)
    assert type(exc.value) is ConfigError and str(exc.value) == message


def test_galois_permutation_equal_and_hashed_by_value(built):
    emb4 = built[QZ8]
    g = GaloisPermutation(tuple(range(4)))
    assert g == identity_permutation(emb4) and g != conjugation_permutation(emb4)
    assert hash(g) == hash(identity_permutation(emb4))
    assert len(set(emb4.admissible_permutations() + [g])) == 4
    assert g != tuple(range(4))


def test_declared_k0_not_totally_real_rejected():
    with pytest.raises(ConfigError, match="declared k0 is not totally real at working precision"):
        build_field(FieldTower(base_disc=1, extension_poly=(0, 1), declared_k0_poly=(1, 0, 1)), 40)


def test_reducible_polynomial_rejected():
    with pytest.raises(ReduciblePolynomial):
        build_field(FieldTower(base_disc=1, extension_poly=(1, 2, 1)), 40)  # (x+1)^2


def test_relative_discriminant_examples(built):
    d, _ = relative_discriminant(built[QI], product_basis(built[QI]))
    assert d == Fraction(-4)
    d3, _ = relative_discriminant(built[QS3], product_basis(built[QS3]))
    assert d3 == Fraction(-12)


def test_disc_over_q_matches_exact_product_basis(built):
    """The numeric product-basis route against the exact-element route."""
    for emb in built.values():
        d, _ = disc_over_q(emb)
        oracle, _ = relative_discriminant(emb, product_basis(emb))
        assert d == oracle


def _int_det(m):
    import copy

    m = [[Fraction(x) for x in row] for row in copy.deepcopy(m)]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for col in range(c, n):
                m[r][col] -= f * m[c][col]
    return det


def test_discriminant_square_class_invariance(built):
    """A rational change of basis scales the discriminant by det^2."""
    emb = built[QZ8]
    rng = random.Random(7)
    base = product_basis(emb)
    d0, _ = relative_discriminant(emb, base)
    trials = 0
    while trials < 3:
        m = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        det = _int_det(m)
        if det == 0:
            continue
        trials += 1
        newbase = []
        for row in m:
            elem = [
                (
                    sum(Fraction(row[b]) * base[b][p][0] for b in range(4)),
                    sum(Fraction(row[b]) * base[b][p][1] for b in range(4)),
                )
                for p in range(len(base[0]))
            ]
            newbase.append(tuple(elem))
        d1, _ = relative_discriminant(emb, newbase, max_denominator=10**6)
        assert d1 == d0 * det**2


def test_scaling_square_class(built):
    emb = built[QI]
    base = product_basis(emb)
    scaled = [tuple((3 * a, 3 * b) for a, b in x) for x in base]
    d0, _ = relative_discriminant(emb, base)
    d1, _ = relative_discriminant(emb, scaled)
    assert d1 == d0 * Fraction(3) ** (2 * emb.degree)


# Q(sqrt -3, sqrt 2) with the k1 basis {1, (1 + sqrt -3)/2}, the integers of k1
QS3_HALF = FieldTower(base_disc=3, extension_poly=(-2, 0, 1),
                      k1_basis=((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))))
K0_SQRT2 = FieldTower(base_disc=1, extension_poly=(-3, 0, 1), declared_k0_poly=(-2, 0, 1))
K0_SQRT5 = FieldTower(base_disc=3, extension_poly=(-2, 0, 0, 1), declared_k0_poly=(-5, 0, 1))


@pytest.mark.parametrize("tower", TOWERS + [QS3_HALF, K0_SQRT2, K0_SQRT5])
def test_tower_law(tower):
    """disc(k/Q) = disc(k0)^[k:k0] * N(disc(k1/k0))^[k:k1] * N(disc(k/k1)),
    with every factor exact."""
    emb = build_field(tower, 60)
    if tower.declared_k0_poly is None:
        disc_k0 = 1
    else:
        c, b, _ = tower.declared_k0_poly  # quadratic k0: disc = b^2 - 4c
        disc_k0 = b * b - 4 * c
    _, lower = disc_constant_lower(tower)
    _, upper = disc_constant_upper(emb)
    k_over_k0 = 2 * tower.theta_degree
    assert disc_over_q(emb)[0] == (
        disc_k0**k_over_k0 * lower["norm_to_q"] ** tower.theta_degree * upper["norm_to_q"]
    )


def test_delta_constants(built):
    v, _ = disc_constant_lower(QI)
    assert abs(complex(v) - 2j) < 1e-12
    v, _ = disc_constant_lower(QIC)
    assert abs(complex(v) - (-8j)) < 1e-12
    v, _ = disc_constant_lower(QS3)
    assert abs(complex(v) - complex(0, 2 * 3 ** 0.5)) < 1e-12


def test_delta_depends_only_on_d_and_extension_degree():
    """Same d and same [k:k1] give the same constant across towers."""
    a, _ = disc_constant_lower(FieldTower(base_disc=1, extension_poly=(-2, 0, 1)))
    b, _ = disc_constant_lower(FieldTower(base_disc=1, extension_poly=(-3, 0, 1)))
    assert abs(complex(a) - complex(b)) < 1e-12


def test_nabla_constants(built):
    v, _ = disc_constant_upper(built[QI])
    assert abs(float(v) - 1.0) < 1e-12
    v, _ = disc_constant_upper(built[QIC])
    assert abs(float(v) - 108.0) < 1e-10
    v, _ = disc_constant_upper(built[QZ8])
    assert abs(float(v) - 8.0) < 1e-10


def test_nabla_trivial_for_degree_one_extension(built):
    for t in (QI, QS3):
        v, data = disc_constant_upper(built[t])
        assert float(v) == 1.0
        assert data["norm_to_q"] == 1


def test_discriminant_identity(built):
    expected = {QI: -1, QS3: -1, QZ8: 1, QIC: -1}
    for t, c_want in expected.items():
        c, cert = check_discriminant_identity(built[t])
        assert c == Fraction(c_want)
        assert cert["k1_maximality_asserted"] is True


def test_identity_constant_under_scaled_basis(built):
    """User bases change disc by squares; c stays rational."""
    emb = built[QZ8]
    base = [tuple((2 * a, 2 * b) for a, b in x) for x in power_basis(emb)]
    v, data = disc_constant_upper(emb, basis=base)
    # scaling theta-basis by 2 multiplies the relative disc 8 by 2^(2*2) = 16,
    # and its norm to Q by 16^2
    assert data["norm_to_q"] == 128**2
    assert abs(float(v) - 128) < 1e-10


def test_admissible_permutations(built):
    emb4 = built[QZ8]
    perms = emb4.admissible_permutations()
    assert len(perms) == 4
    assert identity_permutation(emb4) in perms
    assert conjugation_permutation(emb4) in perms
    emb6 = built[QIC]
    assert len(emb6.admissible_permutations()) == 12


def test_invalid_permutation_rejected(built):
    emb = built[QZ8]
    # swapping one embedding with its conjugate only: breaks descent
    g = GaloisPermutation((2, 1, 0, 3))
    with pytest.raises(ConfigError, match="is not an admissible shadow"):
        g.validate(emb)


def test_declared_k0_tower():
    """Q(zeta12) presented over k0 = Q(sqrt 3): constants still computable."""
    t = FieldTower(base_disc=1, extension_poly=(0, 1), declared_k0_poly=(-3, 0, 1))
    emb = build_field(t, 50)
    assert emb.degree == 4
    assert len(emb.pairs()) == 2
    c, cert = check_discriminant_identity(emb)
    assert c != 0
    assert disc_over_q(emb)[0] == 2304


@pytest.mark.parametrize("tower", TOWERS + [K0_SQRT2, K0_SQRT5])
def test_index_layout_invariants(tower):
    """The images at conj(i) are the complex conjugates of those at i, and
    each "+" fiber lists its theta images sorted by (re, im)."""
    emb = build_field(tower, 60)
    tol = emb.tolerance()
    with mp.workdps(emb.precision + 15):  # the images carry these digits
        for i, e in enumerate(emb.embeddings):
            bar = emb.embeddings[emb.conj(i)]
            assert abs(bar.theta_image - mp.conj(e.theta_image)) <= tol
            assert abs(bar.sqrt_image - mp.conj(e.sqrt_image)) <= tol
    for t, members in emb.fibers().items():
        if emb.k1_labels[t][1] > 0:
            keys = [(mp.re(emb.embeddings[i].theta_image), mp.im(emb.embeddings[i].theta_image))
                    for i in members]
            assert keys == sorted(keys)
