import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab.charpeel import balanced_at_oracle, character, dimension, multiplicity, schur_polynomial
from periodlab.cmfield import FieldTower, build_field
from periodlab.towers import conjugation_permutation, identity_permutation
from periodlab.errors import ConfigError
from periodlab.weights import (
    ArchConstant,
    WeightSystem,
    arch_exponent,
    arch_unit_value,
    archimedean_constant,
    balanced_at,
    grid,
    highest_weight_from_eta,
    in_b_plus,
    is_balanced,
    is_case_pm,
    is_regular_algebraic,
    sigma_twist,
    weight_system_from_eta,
)

from oracles import admissible_permutations, trivial_multiplicity


@pytest.fixture(scope="module")
def emb2():
    return build_field(FieldTower(base_disc=1, extension_poly=(0, 1)), 50)


@pytest.fixture(scope="module")
def emb4():
    return build_field(FieldTower(base_disc=1, extension_poly=(-2, 0, 1)), 50)


def ws(n, mu0, mu1, nu0, nu1, chi0, chi1):
    return WeightSystem(n=n, mu={0: mu0, 1: mu1}, nu={0: nu0, 1: nu1}, chi={0: chi0, 1: chi1})


# -- eta ------------------------------------------------------------------------


def test_eta_examples():
    w = ws(2, (0, 0), (0, 0), (0, 0), (0, 0), 0, 0)
    assert w.eta() == {0: 0, 1: 0}
    w = ws(2, (1, 0), (1, 0), (0, -1), (0, -1), 1, 1)
    assert w.eta() == {0: 2, 1: 2}
    w3 = WeightSystem(
        n=3, mu={0: (2, 1, 0), 1: (2, 1, 0)}, nu={0: (0, 0, 0), 1: (0, 0, 0)},
        chi={0: -1, 1: -1},
    )
    assert w3.eta() == {0: 0, 1: 0}


@given(
    mu=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    nu=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    chi=st.integers(-4, 4),
    scale=st.integers(0, 3),
)
@settings(max_examples=200, deadline=None)
def test_eta_linear_in_weights_affine_in_chi(mu, nu, chi, scale):
    mu = tuple(sorted(mu, reverse=True))
    nu = tuple(sorted(nu, reverse=True))
    base = ws(2, mu, mu, nu, nu, chi, chi).eta()[0]
    scaled_mu = tuple(scale * x for x in mu)
    assert ws(2, scaled_mu, scaled_mu, nu, nu, chi, chi).eta()[0] == base + (scale - 1) * sum(mu)
    assert ws(2, mu, mu, nu, nu, chi + 1, chi + 1).eta()[0] == base + 2


@pytest.mark.parametrize("n, mu, nu, chi, message", [
    (1, {0: (0,)}, {0: (0,)}, {0: 0}, "rank must be at least 2"),
    (2, {0: (0, 0)}, {0: (0,)}, {0: 0}, "nu[0] has length 1 != n"),
    (2, {0: (0, 1)}, {0: (0, 0)}, {0: 0}, "mu[0] = (0, 1) is not weakly decreasing"),
    (2, {0: (0, 0)}, {1: (0, 0)}, {0: 0}, "mu, nu, chi must be keyed by the same embeddings"),
    (2, {0: (0, 0)}, {0: (0, 0)}, {0: 0, 1: 0}, "mu, nu, chi must be keyed by the same embeddings"),
], ids=["rank-1", "short-nu", "non-dominant", "nu-keys", "chi-keys"])
def test_weight_system_validation(n, mu, nu, chi, message):
    with pytest.raises(ConfigError) as exc:
        WeightSystem(n=n, mu=mu, nu=nu, chi=chi)
    assert type(exc.value) is ConfigError and str(exc.value) == message


# -- predicates --------------------------------------------------------------------


def test_regular_algebraic():
    assert is_regular_algebraic({0: 0, 1: 0}, 2)
    assert not is_regular_algebraic({0: 1, 1: 0}, 2)
    assert is_regular_algebraic({0: 2, 1: 2}, 2)
    assert is_regular_algebraic({0: 3, 1: -1}, 3)


def test_case_pm(emb2):
    assert is_case_pm({0: 0, 1: 2}, 2, emb2)
    assert not is_case_pm({0: 1, 1: 1}, 2, emb2)
    assert is_case_pm({0: -2, 1: 5}, 3, emb2)


def test_case_pm_implies_regular(emb2):
    for e0 in range(-4, 5):
        for e1 in range(-4, 5):
            eta = {0: e0, 1: e1}
            for n in (2, 3):
                if is_case_pm(eta, n, emb2):
                    assert is_regular_algebraic(eta, n)


def test_eta_highest_weight():
    assert highest_weight_from_eta(0, 3) == (0, 0, 0)
    assert highest_weight_from_eta(-2, 3) == (2, 0, 0)
    assert highest_weight_from_eta(4, 3) == (-1, -1, -2)
    with pytest.raises(ConfigError, match="strictly between 0 and 3"):
        highest_weight_from_eta(1, 3)


def test_eta_highest_weight_dominant_under_two_sided():
    for n in (2, 3, 4):
        for e in range(-5, 6):
            if e <= 0 or e >= n:
                t = highest_weight_from_eta(e, n)
                assert all(t[i] >= t[i + 1] for i in range(n - 1))


# -- balanced -----------------------------------------------------------------------


def test_balanced_trivial(emb2):
    w = ws(2, (0, 0), (0, 0), (0, 0), (0, 0), 0, 0)
    # eta = 0 everywhere: fails the two-sided condition (max < n), so False
    assert not is_balanced(w, emb2)


def test_balanced_char_twist_point(emb2):
    w = ws(2, (0, 0), (0, 0), (0, 0), (0, 0), 0, 1)
    assert w.eta() == {0: 0, 1: 2}
    assert is_balanced(w, emb2)
    assert in_b_plus(w, emb2)


def test_balanced_matches_oracle_small_grid(emb2):
    doms = [t for t in itertools.product(range(-1, 2), repeat=2) if t[0] >= t[1]]
    count = 0
    for mu, nu, chi in itertools.product(doms, doms, range(-1, 2)):
        eta = sum(mu) + sum(nu) + 2 * chi
        if not (eta <= 0 or eta >= 2):
            continue
        fast = balanced_at(mu, nu, chi, eta, 2)
        slow = balanced_at_oracle(mu, nu, chi, eta, 2)
        assert fast == slow, (mu, nu, chi, eta)
        count += 1
    assert count > 50


def test_balanced_n3_samples():
    import random

    rng = random.Random(11)
    for _ in range(60):
        mu = tuple(sorted((rng.randint(-2, 2) for _ in range(3)), reverse=True))
        nu = tuple(sorted((rng.randint(-2, 2) for _ in range(3)), reverse=True))
        chi = rng.randint(-2, 2)
        eta = sum(mu) + sum(nu) + 3 * chi
        if 0 < eta < 3:
            continue
        assert balanced_at(mu, nu, chi, eta, 3) == balanced_at_oracle(mu, nu, chi, eta, 3)


def test_in_b_plus(emb2, emb4):
    # eta (0, 2): sum 2 >= n = 2
    w = ws(2, (0, 0), (0, 0), (0, 0), (0, 0), 0, 1)
    assert in_b_plus(w, emb2)
    # eta (-1, 2): sum 1 < 2, balanced or not it is out
    w2 = ws(2, (0, -1), (0, 0), (0, 0), (0, 0), 0, 1)
    assert w2.eta() == {0: -1, 1: 2}
    assert not in_b_plus(w2, emb2)
    # coexisting pairs (0,3) and (-1,4): sums equal -> no error (deg-4 field)
    w3 = WeightSystem(
        n=3,
        mu={0: (0, 0, 0), 1: (0, 0, -1), 2: (3, 0, 0), 3: (4, 0, 0)},
        nu={i: (0, 0, 0) for i in range(4)},
        chi={i: 0 for i in range(4)},
    )
    eta = w3.eta()
    assert eta == {0: 0, 1: -1, 2: 3, 3: 4}
    in_b_plus(w3, emb4)  # consistent sums: must not raise
    # inconsistent sums raise
    w4 = WeightSystem(
        n=3,
        mu={0: (0, 0, 0), 1: (0, 0, 0), 2: (3, 0, 0), 3: (4, 0, 0)},
        nu={i: (0, 0, 0) for i in range(4)},
        chi={i: 0 for i in range(4)},
    )
    with pytest.raises(ConfigError, match="eta pair sums differ across places"):
        in_b_plus(w4, emb4)


# -- archimedean constant ---------------------------------------------------------------


def test_arch_constant_trivial(emb2):
    w = ws(2, (0, 0), (0, 0), (0, 0), (0, 0), 0, 1)
    a = archimedean_constant(w, emb2)
    assert isinstance(a, ArchConstant)


def test_arch_exponent_examples(emb2):
    w = ws(2, (1, 0), (2, 0), (0, 0), (0, 0), 0, 0)
    assert arch_exponent(w, (0, 1)) == 3
    assert arch_unit_value(1, 3) == (0, -1)  # i^3 = -i
    w3 = WeightSystem(
        n=3, mu={0: (0,) * 3, 1: (0,) * 3}, nu={0: (0,) * 3, 1: (0,) * 3},
        chi={0: 1, 1: 1},
    )
    assert arch_exponent(w3, (0, 1)) == 6
    assert arch_unit_value(1, 6) == (-1, 0)
    assert arch_unit_value(-1, 6) == (-1, 0)


def test_arch_constant_zero_weights(emb2):
    # n = 2: only the pair (1,1) contributes, e = chi_0 + chi_1 = 1
    w = ws(2, (0, 0), (0, 0), (0, 0), (0, 0), 0, 1)
    a = archimedean_constant(w, emb2)
    assert a.exponents == {0: 1}
    assert a.signs == {0: 1}  # eta = 0 at the chosen embedding
    assert a.value == (0, 1)
    # all-zero data gives the unit
    w0 = ws(2, (0, 0), (0, 0), (0, 0), (0, 0), 0, 1)
    assert archimedean_constant(w0, emb2).exponents[0] == 1


def test_arch_constant_ambiguous(emb2):
    w = ws(2, (1, 0), (0, 0), (0, 0), (0, 0), 0, 0)  # eta = (1, 0)
    with pytest.raises(ConfigError, match="at the chosen embedding is strictly between 0 and 2"):
        archimedean_constant(w, emb2)


# -- twisting -----------------------------------------------------------------------------


def test_sigma_twist_identity_and_conj(emb2):
    w = ws(2, (1, 0), (2, 1), (0, 0), (0, -1), 0, 1)
    ident = identity_permutation(emb2)
    conj = conjugation_permutation(emb2)
    assert sigma_twist(w, ident) == w
    assert repr(sigma_twist(w, ident)) == repr(w)
    tw = sigma_twist(w, conj)
    assert tw.mu[0] == w.mu[1] and tw.mu[1] == w.mu[0]
    assert tw.chi[0] == w.chi[1]


def test_arch_sign_transformation_law(emb2, emb4):
    """Per-place signs transport along the permutation, flipping exactly
    when the chosen embedding is carried into the conjugate half; the
    exponents transport unchanged."""
    w4 = WeightSystem(
        n=2,
        mu={0: (0, 0), 1: (0, 0), 2: (2, 0), 3: (3, 0)},
        nu={i: (0, 0) for i in range(4)},
        chi={i: 0 for i in range(4)},
    )
    base = archimedean_constant(w4, emb4)
    for g in admissible_permutations(emb4):
        tw = sigma_twist(w4, g)
        got = archimedean_constant(tw, emb4)
        for iv in emb4.cm_type:
            src = g.inverse()(iv)
            # the place of src is represented by its cm_type member
            src_rep = src if src in emb4.cm_type else emb4.conj(src)
            flip = 1 if src in emb4.cm_type else -1
            assert got.signs[iv] == flip * base.signs[src_rep]
            assert got.exponents[iv] == base.exponents[src_rep]


def test_balanced_invariant_under_twist(emb2, emb4):
    w = ws(2, (0, 0), (0, 0), (0, 0), (0, 0), 0, 1)
    for g in admissible_permutations(emb2):
        assert is_balanced(sigma_twist(w, g), emb2) == is_balanced(w, emb2)
    w4 = WeightSystem(
        n=2,
        mu={0: (0, 0), 1: (1, 0), 2: (0, 0), 3: (0, -1)},
        nu={i: (0, 0) for i in range(4)},
        chi={0: 1, 1: 1, 2: 0, 3: 0},
    )
    vals = {is_balanced(sigma_twist(w4, g), emb4) for g in admissible_permutations(emb4)}
    assert len(vals) == 1


# -- oracle internals ----------------------------------------------------------------------


def test_schur_dimensions():
    assert sum(schur_polynomial((1, 0), 2).values()) == 2
    assert sum(schur_polynomial((2, 1, 0), 3).values()) == 8
    assert schur_polynomial((0, 0, 0), 3) == {(0, 0, 0): 1}


@pytest.mark.parametrize("factors, mult", [
    ([(1, 0), (0, -1)], 1),  # V (x) V* contains the trivial exactly once
    ([(1, 0), (1, 0)], 0),
    ([(1, -1), (1, -1)], 1),  # adjoint-type product for n = 2
    ([(2, 0), (0, -2), (1, -1)], 1),
])
def test_trivial_multiplicity_basics(factors, mult):
    """The full-product peel of the oracle and charpeel's peel down to the
    trivial weight."""
    assert trivial_multiplicity(factors, 2) == mult
    assert multiplicity((0, 0), factors, 2) == mult


def test_weyl_dimension_matches_character_size():
    """The Weyl dimension formula against the sum of the tableau
    character's coefficients, and its cap."""
    for n in (1, 2, 3, 4):
        for w in itertools.product(range(-2, 3), repeat=n):
            if all(w[i] >= w[i + 1] for i in range(n - 1)):
                size = sum(character(w, n).values())
                assert dimension(w, 10**6) == size
                assert dimension(w, size - 1) > size - 1
    assert dimension((10**9, 0, -10**9), 10**6) == 10**6 + 1


def peel_sample(seed=23, count=60):
    """Two-sided (mu, nu, chi, eta, n) at one embedding, n <= 4, entries in
    -2..2 (-1..1 at n = 4, where the full product is slow)."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        n = rng.randint(2, 4)
        b = 2 if n < 4 else 1
        mu, nu = (tuple(sorted((rng.randint(-b, b) for _ in range(n)), reverse=True))
                  for _ in range(2))
        chi = rng.randint(-b, b)
        eta = sum(mu) + sum(nu) + n * chi
        if not 0 < eta < n:
            points.append((mu, nu, chi, eta, n))
    return points


def test_dual_peel_matches_full_product_peel():
    """charpeel peels the product of three characters against the dual of
    the largest factor; the reference peels the full product of all four
    down to the trivial weight."""
    for mu, nu, chi, eta, n in peel_sample():
        full = trivial_multiplicity([mu, nu, highest_weight_from_eta(eta, n), (chi,) * n], n)
        assert balanced_at_oracle(mu, nu, chi, eta, n) == (full >= 1)


# -- work bounds ------------------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: grid(2, 2, 2),
    lambda: grid(10**6, 10**6, 2),
    lambda: grid(2, -1, 2),
    lambda: weight_system_from_eta(1001, {0: 0, 1: 1001}),
    lambda: weight_system_from_eta(10**18, {0: 0, 1: 10**18}),
    lambda: balanced_at_oracle((2000, 0), (0, -2000), 0, 0, 2),
    lambda: balanced_at_oracle((7,) * 3 + (0,) * 3, (0,) * 3 + (-7,) * 3, 0, 0, 6),
], ids=["grid-1265625-points", "grid-n-and-bound-1e6", "grid-bound-minus-1", "rank-1001",
        "rank-1e18", "peel-n2-a2000", "peel-n6-a7"])
def test_builder_refused_before_work(build):
    t0 = time.perf_counter()
    with pytest.raises(ValueError):
        build()
    assert time.perf_counter() - t0 < 1.0


def test_rank_limit_is_admitted():
    assert weight_system_from_eta(1000, {0: 0, 1: 1000}).n == 1000


def test_foreign_comparison_eta_gap_unit_powers_and_non_partitions():
    w = ws(2, (0, 0), (0, 0), (0, 0), (0, 0), 0, 1)
    assert w.__eq__(w.eta()) is NotImplemented and w != w.eta()
    with pytest.raises(ConfigError, match="eta = 1 strictly between 0 and 2"):
        balanced_at((0, 0), (0, 0), 0, 1, 2)
    assert [arch_unit_value(1, e) for e in range(-1, 5)] == [
        (0, -1), (1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)]
    assert arch_unit_value(-1, 1) == (0, -1)
    for shape in ((1, 2), (1, -1)):
        with pytest.raises(ValueError, match="is not a partition"):
            schur_polynomial(shape, 2)
