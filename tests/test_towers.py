"""The exact side of a tower against the numeric one: the index layout
against the data read off ``build_field``'s images, the Sturm count
against ``mpmath.polyroots`` and the double Delta against mpmath's; and
the inversion count against the pair-by-pair oracle."""

import random
from fractions import Fraction

import pytest
from mpmath import mp, mpc

from periodlab.cmfield import MAX_FIELD_WORK, FieldTower, build_field, check_precision
from periodlab.errors import ConfigError, ReduciblePolynomial
from periodlab.intpoly import real_root_count, sturm_chain
from periodlab.towers import (
    MAX_DEGREE,
    Layout,
    check_tower,
    delta_double,
    inversions,
    lower_norm,
)

from oracles import inversions as pairwise_inversions
from test_cmfield import ALL_TOWERS

# x^k - c over Q(sqrt -d): a fixed sample of the 132 towers with c in
# {2, 3, 5}, k = 2..12 and d in {1, 2, 3, 7}, all fields by Capelli's criterion
SWEEP = [FieldTower(base_disc=d, extension_poly=(-c,) + (0,) * (k - 1) + (1,))
         for d, c, k in [(1, 2, 12), (1, 5, 12), (2, 3, 5), (3, 2, 7), (7, 5, 12), (7, 3, 2),
                         (2, 5, 9), (3, 3, 4)]]


def numeric_index_data(emb):
    """Conjugation, restriction to k1, k1 labels and CM type read off the
    numeric images alone: conj(i) is the embedding whose images are the
    complex conjugates of those at i; the k1 embeddings are the distinct
    (k0 image, sqrt(-d) image), labelled by the rank of the k0 image and
    the sign of Im sqrt(-d), in the order they first appear."""
    tol = emb.tolerance()
    images = emb.embeddings
    with mp.workdps(emb.precision + 15):
        conj = []
        for e in images:
            matches = [j for j, f in enumerate(images)
                       if f.k0_image == e.k0_image
                       and abs(f.theta_image - mp.conj(e.theta_image)) <= tol
                       and abs(f.sqrt_image - mp.conj(e.sqrt_image)) <= tol]
            assert len(matches) == 1
            conj.append(matches[0])
        k0_images = sorted({e.k0_image for e in images}, key=lambda x: 0 if x is None else x)
        keys = [(k0_images.index(e.k0_image), 1 if mp.im(e.sqrt_image) > 0 else -1)
                for e in images]
    labels = list(dict.fromkeys(keys))
    return {
        "conjugation": tuple(conj),
        "restriction_k1": tuple(labels.index(key) for key in keys),
        "k1_labels": labels,
        "cm_type": tuple(i for i, (_, sign) in enumerate(keys) if sign > 0),
    }


@pytest.mark.parametrize("tower", ALL_TOWERS + SWEEP)
def test_layout_equals_the_index_data_of_the_images(tower):
    emb = build_field(tower, 50)
    layout = Layout(tower)
    assert layout.degree == emb.degree == len(emb.embeddings)
    assert numeric_index_data(emb) == {
        "conjugation": layout.conjugation,
        "restriction_k1": layout.restriction_k1,
        "k1_labels": layout.k1_labels,
        "cm_type": layout.cm_type,
    }
    assert layout.pairs() == emb.pairs() and layout.fibers() == emb.fibers()


def _product(*factors):
    """Coefficients (low-to-high) of a product of integer polynomials."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return tuple(out)


def _random_polys(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.choice([-3, -1, 1, 2])]
        out.append(tuple(coeffs))
    return out


X = (0, 1)
STURM_POLYS = [
    # repeated roots, up to triple ones: polyroots does not converge on a
    # quadruple root at these digits
    _product(X, X), _product(X, X, X), _product((-1, 1), (-1, 1)),
    _product((-1, 1), (-1, 1), (2, 1)), _product((1, 0, 1), (1, 0, 1)),
    _product((-1, 1), (-1, 1), (-1, 1), (1, 1)), _product((-2, 0, 1), (-2, 0, 1)),
    _product((-3, 1), (-3, 1), (1, 1, 1)), _product((4, -4, 1), (-5, 0, 1)),
    _product((1, 1), (1, 1), (1, 1), (2, 0, 1)), _product((-2, 1), (-2, 1), (-2, 1), (5, 1)),
    # clustered roots: 1 and 1.001, 1/2 and 1/2 + 10^-4, the two roots of a
    # Mignotte polynomial x^8 - 2 (10x - 1)^2 near 1/10, sqrt 2 and sqrt 2.0001
    _product((-1000, 1000), (-1001, 1000)), _product((-5000, 10000), (-5001, 10000)),
    (-2, 40, -200, 0, 0, 0, 0, 0, 1), _product((-20000, 0, 10000), (-20001, 0, 10000)),
    _product((-1000, 1000), (-1001, 1000), (1, 0, 1)),
    # all real, none real, mixed
    _product(*[(-i, 1) for i in range(1, 9)]), _product((1, 0, 1), (2, 0, 1), (3, 0, 1), (5, 0, 1)),
    (-2, 0, 0, 1), (1, 1, 0, 1), (-1, -1, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0, 0, 1),
    (-3, 0, 0, 0, 0, 0, 0, 0, 1), _product((-3, 0, 1), (-5, 0, 1), (-7, 0, 1)),
] + _random_polys(35, seed=23)


def _numeric_roots(poly):
    """(squarefree, distinct real roots) from mpmath.polyroots at 60
    digits: roots within 10^-12 of each other are one root, and a root
    within 10^-12 of the real line is real."""
    with mp.workdps(60):
        roots = mp.polyroots(list(reversed(poly)), maxsteps=2000, extraprec=400)
        distinct = []
        for r in roots:
            if all(abs(r - s) > mp.mpf(10) ** -12 for s in distinct):
                distinct.append(r)
        real = sum(1 for r in distinct if abs(mp.im(r)) < mp.mpf(10) ** -12)
    return len(distinct) == len(roots), real


@pytest.mark.parametrize("poly", STURM_POLYS, ids=[str(p) for p in STURM_POLYS])
def test_sturm_count_equals_polyroots(poly):
    assert len(STURM_POLYS) >= 50 and max(len(p) for p in STURM_POLYS) == 9
    chain = sturm_chain(poly)
    assert (len(chain[-1]) == 1, real_root_count(chain)) == _numeric_roots(poly)


def _delta_tower(d, m, k0=None, **kwargs):
    return FieldTower(base_disc=d, extension_poly=(-2,) + (0,) * (m - 1) + (1,),
                      declared_k0_poly=k0, **kwargs)


# k1 basis {10^40, 10^40 sqrt(-7)}: |Delta| = 28^2 * 10^320 is beyond the doubles
HUGE_BASIS = ((Fraction(10**40), Fraction(0)), (Fraction(0), Fraction(10**40)))
DELTA_TOWERS = [
    _delta_tower(d, m, k0) for d in (1, 2, 3, 7) for m in range(1, 7) for k0 in (None, (-5, 0, 1))
] + [
    ALL_TOWERS[4], _delta_tower(7, 4, k1_basis=HUGE_BASIS),
    # |N|^m above 2^53, where sqrt(float(|N|^m)) misses the nearest double
    _delta_tower(10**9 + 7, 7), _delta_tower(10**9 + 7, 5, (1, -3, 0, 1)),
    _delta_tower(999_999_999_989, 7),
]


@pytest.mark.parametrize("tower", DELTA_TOWERS)
def test_delta_double_equals_mpmath(tower):
    """The double against sqrt(N)^m in 65-digit mpmath, rounded part by part."""
    _, norm = lower_norm(tower)
    with mp.workdps(65):
        reference = complex(mp.sqrt(mpc(norm.numerator) / norm.denominator) ** tower.theta_degree)
    assert delta_double(tower) == reference


@pytest.mark.parametrize("fields, error, message", [
    (dict(extension_poly=(1, 2, 1)), ReduciblePolynomial, "extension polynomial has coincident"),
    # a fourth power, on which the root finder does not converge
    (dict(extension_poly=(16, -32, 24, -8, 1)), ReduciblePolynomial,
     "extension polynomial has coincident"),
    (dict(extension_poly=(0, 1), declared_k0_poly=(1, 0, 1)), ConfigError,
     "declared k0 is not totally real: k0 polynomial has 0 real roots of 2"),
    (dict(extension_poly=(0, 1), declared_k0_poly=(-1, 1, -1, 1)), ConfigError,
     "declared k0 is not totally real: k0 polynomial has 1 real roots of 3"),
    (dict(extension_poly=(0, 1), declared_k0_poly=(4, -4, 1)), ReduciblePolynomial,
     "k0 polynomial has coincident roots"),
], ids=["f-square", "f-fourth-power", "k0-no-real-root", "k0-one-real-root", "k0-square"])
def test_check_tower_refusals(fields, error, message):
    """Each refusal also ends build_field, before any root is sought."""
    tower = FieldTower(base_disc=1, **fields)
    with pytest.raises(error) as exc:
        check_tower(tower)
    assert type(exc.value) is error and str(exc.value).startswith(message)
    with pytest.raises(error) as exc:
        build_field(tower, 50)
    assert type(exc.value) is error and str(exc.value).startswith(message)



def test_check_tower_bounds_the_degree():
    """x^27 - 2 over Q(i) has [k:Q] = MAX_DEGREE = 54 and x^28 - 2 is
    refused: the largest even degree whose field work cmfield admits at 2
    digits, the least precision it admits."""
    check_tower(FieldTower(base_disc=1, extension_poly=(-2,) + (0,) * 26 + (1,)))
    with pytest.raises(ConfigError, match=r"^\[k:Q\] = 56 is above the limit of 54$"):
        check_tower(FieldTower(base_disc=1, extension_poly=(-2,) + (0,) * 27 + (1,)))
    check_precision(2, 1)
    with pytest.raises(ConfigError):
        check_precision(1, 1)
    assert MAX_DEGREE**3 * 252**2 <= MAX_FIELD_WORK < (MAX_DEGREE + 2) ** 3 * 252**2


def test_inversions_equals_the_pairwise_count():
    """Seeded: the empty and one-element sequences, a random and the
    reversed permutation of each length up to 30, and label triples
    drawn from few values, so that many entries tie."""
    rng = random.Random(2030)
    cases = [(), (7,), [(1, 2, 0)]]
    for length in range(31):
        perm = list(range(length))
        cases.append(perm[::-1])
        rng.shuffle(perm)
        cases.append(perm)
    for _ in range(200):
        cases.append([(rng.randrange(3), rng.randrange(1, 4), rng.randrange(2))
                      for _ in range(rng.randrange(40))])
    for seq in cases:
        assert inversions(seq) == pairwise_inversions(seq), seq
    assert inversions(list(range(30))[::-1]) == 30 * 29 // 2
