import random
import time
from fractions import Fraction

import pytest
from mpmath import mp

from periodlab import cmfield
from periodlab.cmfield import (
    FieldTower,
    build_field,
    check_discriminant_identity,
    disc_constant_upper,
    disc_over_q,
)
from periodlab.towers import (
    GaloisPermutation,
    conjugation_permutation,
    delta_double,
    identity_permutation,
    lower_norm,
)
from periodlab.errors import ConfigError, ReconstructionFailed, ReduciblePolynomial

from oracles import admissible_permutations, exact_tower_discriminants, int_det, poly_disc


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
    (dict(base_disc=1, extension_poly=(0, 1),
          k1_basis=((Fraction(1), Fraction(0)), (Fraction(2), Fraction(0)))),
     "k1 basis is not a basis of k1 over k0: its determinant is 0"),
], ids=["d-12", "d-0", "d-above-limit", "not-monic", "degree-0", "k0-degree-1", "k1-singular"])
def test_tower_declaration_validation(fields, message):
    with pytest.raises(ValueError) as exc:
        FieldTower(**fields)
    assert type(exc.value) is ConfigError and str(exc.value) == message


@pytest.mark.parametrize("field, message", [
    ({"d": 1, "extension_poly": [0, 1], "k0_poly": ["-2.5", 0, 1]},
     "k0_poly entry '-2.5' is not an integer"),
    ({"d": float("inf"), "extension_poly": [0, 1]}, "d inf is not an integer"),
])
def test_config_values_must_be_integers(field, message):
    with pytest.raises(ConfigError) as exc:
        FieldTower.from_config(field)
    assert str(exc.value) == message


def test_integral_config_values_of_any_type_are_accepted():
    tower = FieldTower.from_config({"d": 1.0, "extension_poly": ["-2", 0, 1.0]})
    assert (tower.base_disc, tower.extension_poly) == (1, (-2, 0, 1))


def test_field_work_refused_before_roots():
    """qic.json at 10,000 digits: about 2.4 s of work, refused at once."""
    t0 = time.perf_counter()
    with pytest.raises(ConfigError, match="above the field work limit"):
        build_field(QIC, 10**4)
    assert time.perf_counter() - t0 < 1.0


def test_field_work_admits_the_sweep_corner():
    """x^12 - 5 over Q(sqrt -7) at 140 digits: [k:Q] = 24."""
    emb = build_field(FieldTower(base_disc=7, extension_poly=(-5,) + (0,) * 11 + (1,)), 140)
    assert emb.degree == 24


def test_galois_permutation_equal_and_hashed_by_value(built):
    emb4 = built[QZ8]
    g = GaloisPermutation(tuple(range(4)))
    assert g == identity_permutation(emb4) and g != conjugation_permutation(emb4)
    assert hash(g) == hash(identity_permutation(emb4))
    assert len(set(admissible_permutations(emb4) + [g])) == 4
    assert g != tuple(range(4))


def test_declared_k0_not_totally_real_rejected():
    with pytest.raises(ConfigError, match="declared k0 is not totally real: k0 polynomial has 0"):
        build_field(FieldTower(base_disc=1, extension_poly=(0, 1), declared_k0_poly=(1, 0, 1)), 40)


def test_reducible_polynomial_rejected():
    with pytest.raises(ReduciblePolynomial):
        build_field(FieldTower(base_disc=1, extension_poly=(1, 2, 1)), 40)  # (x+1)^2


def test_disc_over_q_examples(built):
    assert disc_over_q(built[QI])[0] == Fraction(-4)
    assert disc_over_q(built[QS3])[0] == Fraction(-12)


def test_poly_disc_examples():
    """The exact oracle's polynomial discriminants: x, x^2 + x + 1,
    x^2 - 2, x^3 - 2 and x^3 + x + 1 (-4p^3 - 27q^2 = -31)."""
    got = [poly_disc(g) for g in [(0, 1), (1, 1, 1), (-2, 0, 1), (-2, 0, 0, 1), (1, 1, 0, 1)]]
    assert got == [1, -3, 8, -108, -31]


def theta_basis(rows):
    """Elements sum_j rows[i][j] theta^j of k over k1, as exact coordinates."""
    return [tuple((Fraction(c), Fraction(0)) for c in row) for row in rows]


@pytest.mark.parametrize("tower", [QZ8, QIC], ids=["QZ8", "QIC"])
def test_discriminant_square_class_invariance(built, tower):
    """A rational change M of the theta basis over k1 scales disc(k/k1) by
    det(M)^2 at each of the two embeddings of k1, so its norm by det(M)^4;
    the user basis goes through EmbeddingSet.evaluate."""
    emb = built[tower]
    m = tower.theta_degree
    _, base = disc_constant_upper(emb)
    rng = random.Random(7)
    trials = 0
    while trials < 3:
        rows = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        det = int_det(rows)
        if det == 0:
            continue
        trials += 1
        _, data = disc_constant_upper(emb, basis=theta_basis(rows))
        assert data["norm_to_q"] == base["norm_to_q"] * det**4


# Q(sqrt -3, sqrt 2) with the k1 basis {1, (1 + sqrt -3)/2}, the integers of k1
QS3_HALF = FieldTower(base_disc=3, extension_poly=(-2, 0, 1),
                      k1_basis=((Fraction(1), Fraction(0)), (Fraction(1, 2), Fraction(1, 2))))
K0_SQRT2 = FieldTower(base_disc=1, extension_poly=(-3, 0, 1), declared_k0_poly=(-2, 0, 1))
K0_SQRT5 = FieldTower(base_disc=3, extension_poly=(-2, 0, 0, 1), declared_k0_poly=(-5, 0, 1))


ALL_TOWERS = TOWERS + [QS3_HALF, K0_SQRT2, K0_SQRT5]


@pytest.mark.parametrize("tower", ALL_TOWERS)
def test_tower_discriminants_match_exact_oracle(tower):
    """disc_over_q and the norm in disc_constant_upper, both reconstructed
    from numeric trace forms, against the exact polynomial discriminants."""
    emb = build_field(tower, 60)
    disc_k, norm_upper = exact_tower_discriminants(tower)
    assert disc_over_q(emb)[0] == disc_k
    assert disc_constant_upper(emb)[1]["norm_to_q"] == norm_upper


@pytest.mark.parametrize("tower", ALL_TOWERS)
def test_tower_law(tower):
    """disc(k/Q) = disc(k0)^[k:k0] * N(disc(k1/k0))^[k:k1] * N(disc(k/k1)),
    with every factor exact."""
    emb = build_field(tower, 60)
    if tower.declared_k0_poly is None:
        disc_k0 = 1
    else:
        c, b, _ = tower.declared_k0_poly  # quadratic k0: disc = b^2 - 4c
        disc_k0 = b * b - 4 * c
    _, lower = lower_norm(tower)
    _, upper = disc_constant_upper(emb)
    k_over_k0 = 2 * tower.theta_degree
    assert disc_over_q(emb)[0] == (
        disc_k0**k_over_k0 * lower ** tower.theta_degree * upper["norm_to_q"]
    )


def test_delta_constants():
    assert abs(delta_double(QI) - 2j) < 1e-12
    assert abs(delta_double(QIC) - (-8j)) < 1e-12
    assert abs(delta_double(QS3) - complex(0, 2 * 3 ** 0.5)) < 1e-12


def test_delta_depends_only_on_d_and_extension_degree():
    """Same d and same [k:k1] give the same constant across towers."""
    a = delta_double(FieldTower(base_disc=1, extension_poly=(-2, 0, 1)))
    b = delta_double(FieldTower(base_disc=1, extension_poly=(-3, 0, 1)))
    assert abs(a - b) < 1e-12


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
    v, data = disc_constant_upper(emb, basis=theta_basis([[2, 0], [0, 2]]))
    # scaling theta-basis by 2 multiplies the relative disc 8 by 2^(2*2) = 16,
    # and its norm to Q by 16^2
    assert data["norm_to_q"] == 128**2
    assert abs(float(v) - 128) < 1e-10


def test_singular_k_basis_refused(built):
    with pytest.raises(ConfigError, match="not a basis of k over k1"):
        disc_constant_upper(built[QZ8], basis=theta_basis([[1, 0], [2, 0]]))


def test_admissible_permutations(built):
    emb4 = built[QZ8]
    perms = admissible_permutations(emb4)
    assert len(perms) == 4
    assert identity_permutation(emb4) in perms
    assert conjugation_permutation(emb4) in perms
    emb6 = built[QIC]
    assert len(admissible_permutations(emb6)) == 12


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


def test_rational_refuses_a_value_that_is_not_real(built):
    """The reconstruction reads a real part only when the imaginary part is
    within the tolerance."""
    emb = built[QI]
    assert cmfield._rational(emb, mp.mpc(3, 0) / 4, "value", 10)[0] == Fraction(3, 4)
    with pytest.raises(ReconstructionFailed, match="value is not real"):
        cmfield._rational(emb, mp.mpc(3, 1) / 4, "value", 10)
