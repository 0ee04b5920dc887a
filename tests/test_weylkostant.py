import inspect
import itertools
import math
import random
import time

import pytest

from periodlab.cmfield import FieldTower, build_field
from periodlab.towers import conjugation_permutation, identity_permutation
from periodlab.weights import sigma_twist, weight_system_from_eta
from periodlab import weylkostant
from periodlab.weylkostant import (
    WedgeMonomial,
    WeylElement,
    cycle_oneline,
    cycles_str,
    distinguished_weyl,
    inversions,
    invert_oneline,
    kostant_lines,
    length_generating_function,
    weyl_count,
    omega_monomial,
    omega_transfer_sign,
    sigma_decompose,
    sigma_on_monomial,
    wedge_sigma_sign,
)

from periodlab.errors import ConfigError, UniquenessFailed

from oracles import admissible_permutations, coset_reps, elements_of_length
from oracles import inversions as oracle_inversions
from test_acceptance import _case_pm_etas


@pytest.fixture(scope="module")
def emb2():
    return build_field(FieldTower(base_disc=1, extension_poly=(0, 1)), 50)


@pytest.fixture(scope="module")
def emb4():
    return build_field(FieldTower(base_disc=1, extension_poly=(-2, 0, 1)), 50)


@pytest.fixture(scope="module")
def emb6():
    return build_field(FieldTower(base_disc=1, extension_poly=(-2, 0, 0, 1)), 50)


def aligned_eta(emb, n):
    return {i: (0 if i in emb.cm_type else n) for i in range(emb.degree)}


# -- coset representatives ------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coset_reps_match_cycle_formula(n):
    """The brute-force coset representatives are the cycles (k k+1 ... n),
    one of each length 0..n-1."""
    reps = coset_reps(n)
    assert sorted(reps) == sorted(cycle_oneline(k, n, n) for k in range(1, n + 1))
    assert sorted(inversions(r) for r in reps) == list(range(n))


def test_cycle_oneline_matches_matrix_convention():
    # (1 2 3): 1->2->3->1, so w(3) = 1, w(1) = 2
    c = cycle_oneline(1, 3, 3)
    assert c == (2, 3, 1)
    assert invert_oneline(c) == (3, 1, 2)
    assert cycles_str(c) == "(1 2 3)"
    assert cycles_str((1, 2, 3)) == "e"


# -- Kostant lines ------------------------------------------------------------------


def test_line_count_and_generating_function(emb2):
    w = weight_system_from_eta(2, aligned_eta(emb2, 2))
    counts = [len(kostant_lines(w, emb2, p)) for p in range(0, 3)]
    assert counts == [1, 2, 1]
    assert sum(counts) == math.factorial(2) ** emb2.degree


def test_line_count_n3_two_embeddings(emb2):
    w = weight_system_from_eta(3, aligned_eta(emb2, 3))
    # generating function ([3]_q!)^2 with [3]_q! = 1 + 2q + 2q^2 + q^3
    expected = [1, 4, 8, 10, 8, 4, 1]
    counts = [len(kostant_lines(w, emb2, p)) for p in range(0, 7)]
    assert counts == expected
    assert counts == length_generating_function(3, 2)
    assert sum(counts) == 36 == math.factorial(3) ** 2


def test_length_generating_function_matches_enumeration(emb4):
    w = weight_system_from_eta(2, aligned_eta(emb4, 2))
    gen = length_generating_function(2, emb4.degree)
    counts = [len(kostant_lines(w, emb4, p)) for p in range(len(gen))]
    assert counts == gen == [1, 4, 6, 4, 1]


def test_degree_zero_line(emb2):
    w = weight_system_from_eta(2, {0: 0, 1: 2})
    (line,) = kostant_lines(w, emb2, 0)
    assert line.element.components == ((1, 2), (1, 2))
    # weight of the dual vector: minus the eta highest weight per embedding
    assert line.torus_weight == ((0, 0), (1, 1))
    assert line.wedge.labels == ()


def test_line_weight_restriction_example(emb2):
    w = weight_system_from_eta(2, {0: 0, 1: 2})
    el, cert = distinguished_weyl(w, emb2, 2)
    assert el.components == ((1, 2), (2, 1))
    from periodlab.weylkostant import make_line

    line = make_line(el, w, emb2)
    # restricted weight on t2: +2 at the conjugate embedding
    assert line.torus_weight[0] == (0, 0)
    assert line.torus_weight[1] == (0, 2)


# -- distinguished element -----------------------------------------------------------


def test_distinguished_weyl_n2(emb2):
    w = weight_system_from_eta(2, {0: 0, 1: 2})
    e1, c1 = distinguished_weyl(w, emb2, 1)
    assert e1.components == ((2, 1), (1, 2))
    e2, c2 = distinguished_weyl(w, emb2, 2)
    assert e2.components == ((1, 2), (2, 1))
    assert c1["matches"] == c2["matches"] == 1


def test_distinguished_weyl_lengths(emb2, emb4):
    for emb in (emb2, emb4):
        for n in (2, 3):
            w = weight_system_from_eta(n, aligned_eta(emb, n))
            for k in range(1, n + 1):
                el, cert = distinguished_weyl(w, emb, k)
                # per pair: (n-k) + (k-1) = n-1 inversions
                assert el.length() == (n - 1) * (emb.degree // 2)


def test_distinguished_weyl_full_scan_agrees(emb2, emb4):
    """The full scan returns the bottom-degree route's element: at n = 2
    over Q(i), and at n = 3 over the degree-4 field on two-sided points in
    both orientations of each conjugate pair, every k."""
    w = weight_system_from_eta(2, {0: 0, 1: 3})
    a, _ = distinguished_weyl(w, emb2, 1)
    b, cert = distinguished_weyl(w, emb2, 1, full_scan=True)
    assert a == b
    assert cert["scanned"] == 4
    (p, pbar), (q, qbar) = emb4.pairs()
    for one, two in [((0, 3), (-4, 4)), ((-2, 4), (0, 3))]:
        for at_p, at_q in itertools.product((one, one[::-1]), (two, two[::-1])):
            w = weight_system_from_eta(3, {p: at_p[0], pbar: at_p[1], q: at_q[0], qbar: at_q[1]})
            for k in (1, 2, 3):
                a, _ = distinguished_weyl(w, emb4, k)
                b, cert = distinguished_weyl(w, emb4, k, full_scan=True)
                assert a == b, (w.eta(), k)
                assert cert["scanned"] == 6**4 and cert["matches"] == 1


@pytest.mark.parametrize("k", [0, 3])
def test_distinguished_weyl_refuses_k_out_of_range(emb2, k):
    with pytest.raises(ConfigError, match="k out of range"):
        distinguished_weyl(weight_system_from_eta(2, aligned_eta(emb2, 2)), emb2, k)


def test_wrong_closed_form_is_caught_by_the_scan(emb4, monkeypatch):
    """The scan does not read cycle_oneline, so it still finds its one
    match, and a wrong closed form is reported against it."""
    w = weight_system_from_eta(3, aligned_eta(emb4, 3))
    monkeypatch.setattr(weylkostant, "cycle_oneline", lambda a, b, n: tuple(range(1, n + 1)))
    with pytest.raises(UniquenessFailed, match="closed form disagrees with the scan match"):
        distinguished_weyl(w, emb4, 2)


def assert_scan_matches_lines(w, emb, k):
    """The scan's certificate against make_line over the same bottom-degree
    candidates: one line has the target torus weight, and it is the
    returned element."""
    n = w.n
    c_n = weylkostant.bottom_degree(n, emb)
    target = weylkostant._restricted_target(w, emb, k)
    lines = [
        weylkostant.make_line(WeylElement(components=c), w, emb)
        for c in weylkostant._elements_of_length(n, emb.degree, c_n)
    ]
    el, cert = distinguished_weyl(w, emb, k)
    assert [line.element for line in lines if line.torus_weight == target] == [el], (n, k, w.eta())
    assert cert["scanned"] == len(lines) == weyl_count(n, emb.degree, c_n)
    assert cert["matches"] == 1


@pytest.mark.parametrize("n", [2, 3])
def test_scan_agrees_with_make_line_deg2(emb2, n):
    """Every degree-2 point of criterion 3's grid."""
    for eta in _case_pm_etas(emb2, n):
        w = weight_system_from_eta(n, eta)
        for k in range(1, n + 1):
            assert_scan_matches_lines(w, emb2, k)


def test_scan_agrees_with_make_line_deg4(emb4):
    """Every third eta of criterion 3's n = 3 grid over the degree-4 field,
    134 with both orientations of each pair, k taken in turn."""
    etas = list(_case_pm_etas(emb4, 3))[::3]
    assert len(etas) == 134
    for index, eta in enumerate(etas):
        assert_scan_matches_lines(weight_system_from_eta(3, eta), emb4, 1 + index % 3)


def test_broken_line_weight_breaks_the_scan(emb4, monkeypatch):
    """The scan reads the torus weight through _line_weight_component, so
    swapping its inversion shift leaves no element to certify."""

    unshifted = weylkostant._line_weight_component

    def swapped(oneline, pairs, base):
        weight = list(unshifted(oneline, [], base))
        for (i, j) in pairs:
            weight[i - 1] += 1
            weight[j - 1] -= 1
        return tuple(weight)

    w = weight_system_from_eta(3, aligned_eta(emb4, 3))
    distinguished_weyl(w, emb4, 2)
    monkeypatch.setattr(weylkostant, "_line_weight_component", swapped)
    with pytest.raises(UniquenessFailed, match="scan found 0 matching elements"):
        distinguished_weyl(w, emb4, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("count", [2, 4])
def test_elements_of_length_order_is_the_rebuilt_tables(n, count):
    """The cached length table yields the tuples of a table rebuilt on every
    call, in the same order, at every total (and one past each end)."""
    max_len = n * (n - 1) // 2
    for total in range(-1, count * max_len + 2):
        expected = list(elements_of_length(n, count, total))
        assert list(weylkostant._elements_of_length(n, count, total)) == expected, total
        assert len(expected) == weyl_count(n, count, total)


def test_scan_computes_each_permutations_pairs_once(emb2, emb4, monkeypatch):
    """The certificate decides each (distinct eta value, permutation a
    candidate can hold) once, before its candidate loop: one
    _line_weight_component call per pair, one inverted_pairs call per
    permutation, and one dual highest weight per distinct eta value.  A
    permutation can hold a component when its length is at most the
    bottom degree (all of S_n for a full scan); the set is recounted here
    with the oracle's inversions."""
    pairs_calls, weight_calls, dual_calls = [], [], []
    pairs, weight = weylkostant.inverted_pairs, weylkostant._line_weight_component
    dual = weylkostant._dual_highest_weight

    def counted_pairs(c):
        pairs_calls.append(c)
        return pairs(c)

    def counted_weight(oneline, inverted, base):
        weight_calls.append((oneline, base))
        return weight(oneline, inverted, base)

    def counted_dual(eta_value, n):
        dual_calls.append(eta_value)
        return dual(eta_value, n)

    monkeypatch.setattr(weylkostant, "inverted_pairs", counted_pairs)
    monkeypatch.setattr(weylkostant, "_line_weight_component", counted_weight)
    monkeypatch.setattr(weylkostant, "_dual_highest_weight", counted_dual)
    cases = [
        # eta values 0 and 3, each at two of the four embeddings
        (emb4, weight_system_from_eta(3, aligned_eta(emb4, 3)), 2, False),
        # four distinct eta values
        (emb4, weight_system_from_eta(3, {0: -1, 2: 3, 1: 4, 3: 0}), 1, False),
        # bottom degree 3 < 6: 15 of the 24 permutations of S_4
        (emb2, weight_system_from_eta(4, {0: 0, 1: 4}), 2, False),
        (emb2, weight_system_from_eta(4, {0: -2, 1: 5}), 3, True),
    ]
    for emb, w, k, full_scan in cases:
        n = w.n
        c_n = weylkostant.bottom_degree(n, emb)
        held = [p for p in itertools.permutations(range(1, n + 1))
                if full_scan or oracle_inversions(p) <= c_n]
        # one dual highest weight per distinct eta value
        values = {dual(v, n) for v in w.eta().values()}
        assert len(values) == len(set(w.eta().values()))
        pairs_calls.clear()
        weight_calls.clear()
        dual_calls.clear()
        el, cert = distinguished_weyl(w, emb, k, full_scan=full_scan)
        assert sorted(pairs_calls) == sorted(held), (n, full_scan)
        assert sorted(weight_calls) == sorted(itertools.product(held, values)), (n, full_scan)
        assert sorted(dual_calls) == sorted(set(w.eta().values()))
        assert cert["scanned"] == weyl_count(n, emb.degree, None if full_scan else c_n)
        assert cert["matches"] == 1
        # a second certificate builds its own table
        distinguished_weyl(w, emb, k, full_scan=full_scan)
        assert len(pairs_calls) == 2 * len(held)
        assert len(weight_calls) == 2 * len(held) * len(values)
        assert len(dual_calls) == 2 * len(values)


def test_weylkostant_caches_are_bounded_and_keyed_by_integers(emb4):
    """Every lru_cache in the module has a finite maxsize and takes integer
    arguments only, so no cache holds a weight system, a candidate or a
    verdict; and a certificate grows no module-level container."""
    caches = {name: obj for name, obj in vars(weylkostant).items()
              if hasattr(obj, "cache_parameters")}
    assert caches
    for name, cached in caches.items():
        assert cached.cache_parameters()["maxsize"] is not None, name
        params = inspect.signature(cached.__wrapped__).parameters.values()
        assert all(param.annotation == "int" for param in params), name

    def sizes():
        return {name: len(obj) for name, obj in vars(weylkostant).items()
                if isinstance(obj, (dict, list, set))}

    w = weight_system_from_eta(3, aligned_eta(emb4, 3))
    before = sizes()
    distinguished_weyl(w, emb4, 1)
    distinguished_weyl(w, emb4, 3, full_scan=True)
    assert sizes() == before


def test_distinguished_weyl_deg6(emb6):
    """x^3 - 2 over Q(i), n = 3: 3,599 bottom-degree candidates per k."""
    w = weight_system_from_eta(3, aligned_eta(emb6, 3))
    for k in (1, 2, 3):
        el, cert = distinguished_weyl(w, emb6, k)
        assert cert["scanned"] == 3599
        assert cert["matches"] == 1
        assert el.length() == cert["bottom_degree"] == 6


# -- wedge monomials ------------------------------------------------------------------


def test_wedge_sorting_sign():
    m = WedgeMonomial.from_labels([(1, 2, 1), (1, 2, 0)])
    assert m.sign == -1
    assert m.labels == ((1, 2, 0), (1, 2, 1))
    with pytest.raises(ValueError):
        WedgeMonomial.from_labels([(1, 2, 0), (1, 2, 0)])
    with pytest.raises(ValueError):
        WedgeMonomial.from_labels([(2, 1, 0)])


def test_records_equal_and_hashed_by_value():
    m = WedgeMonomial.from_labels([(1, 2, 1), (1, 2, 0)])
    same = WedgeMonomial(sign=-1, labels=((1, 2, 0), (1, 2, 1)))
    assert m == same and hash(m) == hash(same)
    assert m != WedgeMonomial(sign=1, labels=same.labels)
    a, b = cycle_oneline(1, 2, 2), (1, 2)
    w = WeylElement(components=(a, b))
    assert w == WeylElement(components=((2, 1), (1, 2))) and w != WeylElement(components=(b, a))
    assert len({w, WeylElement(components=(a, b)), WeylElement(components=(b, a))}) == 2
    assert w != (a, b)
    assert m != m.labels and m.labels != m


def test_wedge_sigma_sign_identity_and_singleton(emb2):
    w = weight_system_from_eta(2, {0: 0, 1: 2})
    m = omega_monomial(w, emb2, 1)
    assert wedge_sigma_sign(m, identity_permutation(emb2), emb2) == 1
    single = WedgeMonomial.from_labels([(1, 2, 0)])
    for g in admissible_permutations(emb2):
        assert wedge_sigma_sign(single, g, emb2) == 1
    unsorted = WedgeMonomial(sign=1, labels=((1, 2, 1), (1, 2, 0)))
    with pytest.raises(ValueError, match="monomial labels are not sorted"):
        wedge_sigma_sign(unsorted, identity_permutation(emb2), emb2)


def test_wedge_cocycle(emb4):
    """Relabeling sign is multiplicative along composition."""
    rng = random.Random(3)
    w = weight_system_from_eta(3, aligned_eta(emb4, 3))
    perms = admissible_permutations(emb4)
    for _ in range(10):
        g, h = rng.choice(perms), rng.choice(perms)
        for k in (1, 2, 3):
            m = omega_monomial(w, emb4, k)
            mh = sigma_on_monomial(m, h, emb4)
            lhs = wedge_sigma_sign(m, g.compose(h), emb4)
            rhs = wedge_sigma_sign(
                WedgeMonomial(sign=1, labels=mh.labels), g, emb4
            ) * wedge_sigma_sign(m, h, emb4)
            assert lhs == rhs


def test_wedge_sign_by_cycle_count(emb4, emb6):
    """The relabeling sign against an oracle that shares no code with it:
    (-1)^(L - cycles) of the permutation sorting the relabeled labels, for
    the generator monomials at n = 3 of every eta that puts 0 at one
    embedding of each conjugate pair and 3 at the other."""
    for emb in (emb4, emb6):
        for low in itertools.product(*emb.pairs()):
            eta = {i: (0 if i in low else 3) for i in range(emb.degree)}
            w = weight_system_from_eta(3, eta)
            for k in (1, 2, 3):
                m = omega_monomial(w, emb, k)
                for g in admissible_permutations(emb):
                    relabeled = [(g(e), i, j) for (i, j, e) in m.labels]
                    order = sorted(range(len(relabeled)), key=relabeled.__getitem__)
                    seen, cycles = set(), 0
                    for start in range(len(order)):
                        if start not in seen:
                            cycles += 1
                            a = start
                            while a not in seen:
                                seen.add(a)
                                a = order[a]
                    assert wedge_sigma_sign(m, g, emb) == (-1) ** (len(order) - cycles)


def test_omega_monomial_supports(emb2):
    w = weight_system_from_eta(3, {0: 0, 1: 3})
    m = omega_monomial(w, emb2, 2)
    # column covector at the conjugate embedding, row covector at the low one
    assert set(m.labels) == {(1, 2, 1), (2, 3, 0)}
    m3 = omega_monomial(w, emb2, 3)
    assert set(m3.labels) == {(1, 3, 1), (2, 3, 1)}


def test_transfer_sign_k_independent(emb4, emb6):
    """The generator-line transfer sign does not depend on k.

    This is the invariant that makes the normalized-operator equivariance
    square commute; the per-k sign law can fail at n = 2 (see the
    acceptance suite) but the k-ratio never does.
    """
    for emb in (emb4, emb6):
        for n in (2, 3):
            w = weight_system_from_eta(n, aligned_eta(emb, n))
            for g in admissible_permutations(emb):
                signs = {
                    omega_transfer_sign(w, emb, k, g) for k in range(1, n + 1)
                }
                assert len(signs) == 1


def test_transfer_sign_epsilon_law_n3(emb4, emb6):
    """At n = 3 the transfer sign equals the fiber-trivial signature power."""
    for emb in (emb4, emb6):
        w = weight_system_from_eta(3, aligned_eta(emb, 3))
        for g in admissible_permutations(emb):
            _, _, eps = sigma_decompose(g, emb)
            for k in (1, 2, 3):
                assert omega_transfer_sign(w, emb, k, g) == eps ** (3 - k)


def test_relabeled_generator_has_the_twisted_support(emb2, emb4, emb6):
    """omega_transfer_sign compares signs only: for every admissible g the
    relabeled generator monomial has the labels of the twisted data's
    generator, over random two-sided etas at each k."""
    rng = random.Random(17)
    for emb in (emb2, emb4, emb6):
        for n in (2, 3):
            for _ in range(5):
                eta = {}
                for i, j in emb.pairs():
                    low, high = rng.randint(-3, 0), rng.randint(n, n + 3)
                    eta[i], eta[j] = (low, high) if rng.random() < 0.5 else (high, low)
                w = weight_system_from_eta(n, eta)
                for g in admissible_permutations(emb):
                    for k in range(1, n + 1):
                        moved = sigma_on_monomial(omega_monomial(w, emb, k), g, emb)
                        assert moved.labels == omega_monomial(sigma_twist(w, g), emb, k).labels


# -- order/fiber factorization ----------------------------------------------------------


def test_sigma_decompose_identity_and_conj(emb4):
    ident = identity_permutation(emb4)
    s1, s2, eps = sigma_decompose(ident, emb4)
    assert s1 == ident and s2 == ident and eps == 1
    conj = conjugation_permutation(emb4)
    s1, s2, eps = sigma_decompose(conj, emb4)
    assert s1 == conj
    assert s2 == identity_permutation(emb4)
    assert eps == 1


def test_sigma_decompose_three_cycles(emb6):
    """Mirrored 3-cycles within the two fibers: fiber-trivial with sign +1."""
    fibers = emb6.fibers()
    plus = fibers[0]
    minus = fibers[1]
    perm = list(range(6))
    for src, dst in zip(plus, plus[1:] + plus[:1]):
        perm[src] = dst
    for src, dst in zip(minus, minus[1:] + minus[:1]):
        perm[src] = dst
    from periodlab.towers import GaloisPermutation

    g = GaloisPermutation(tuple(perm))
    g.validate(emb6)
    s1, s2, eps = sigma_decompose(g, emb6)
    assert s1 == identity_permutation(emb6)
    assert s2 == g
    assert eps == 1


def test_sigma_decompose_properties(emb4, emb6):
    for emb in (emb4, emb6):
        for g in admissible_permutations(emb):
            s1, s2, eps = sigma_decompose(g, emb)
            assert s2.compose(s1) == g
            assert eps in (-1, 1)
            assert eps * eps == 1
            # s2 fiber-trivial
            for i in range(emb.degree):
                assert emb.restriction_k1[s2(i)] == emb.restriction_k1[i]


# -- work bounds ------------------------------------------------------------------


def test_weyl_count_matches_enumeration(emb2):
    w = weight_system_from_eta(3, aligned_eta(emb2, 3))
    for p in range(-1, 9):
        assert weyl_count(3, emb2.degree, p) == len(kostant_lines(w, emb2, p))
    assert weyl_count(3, emb2.degree) == math.factorial(3) ** emb2.degree


@pytest.mark.parametrize("scan", [
    lambda emb: kostant_lines(weight_system_from_eta(9, aligned_eta(emb, 9)), emb, 36),
    lambda emb: distinguished_weyl(weight_system_from_eta(7, aligned_eta(emb, 7)), emb, 1,
                                   full_scan=True),
], ids=["kostant_lines-n9", "distinguished_weyl-n7-full-scan"])
def test_weyl_enumeration_refused_before_work(scan, emb2):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="100000"):
        scan(emb2)
    assert time.perf_counter() - t0 < 1.0


def test_kostant_lines_refused_above_entry_bound(emb2):
    """n = 8, p = 7 over Q(i): 55,320 lines of 2,931,960 integers, refused
    before a line is built; the largest admitted degree at n = 8 is built."""
    w = weight_system_from_eta(8, aligned_eta(emb2, 8))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="55320 lines of degree 7 hold 2931960 entries"):
        kostant_lines(w, emb2, 7)
    assert time.perf_counter() - t0 < 1.0
    count = weyl_count(8, emb2.degree, 3)
    assert count * (2 * emb2.degree * 8 + 3 * 3) <= weylkostant.MAX_KOSTANT_ENTRIES
    assert len(kostant_lines(w, emb2, 3)) == count == 530
