"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py``.  All tolerances are
pinned here.  Criterion 6 is implemented exactly as stated; its n = 2
instances are known to fail for embedding permutations that reverse the
order of the conjugate pairs (the left side of the asserted sign law is
independent of k while the right side is not, so no sign convention can
satisfy it; the k-independent transfer invariant that does hold is
covered in test_weylkostant.py).  The failure is deliberate and
documented rather than masked.
"""

import itertools
import math
import random
import time

import pytest

from periodlab.charpeel import balanced_at_oracle
from periodlab.cmfield import FieldTower, build_field, check_discriminant_identity
from periodlab.cyclotomic import Cyc
from periodlab.errors import AuditFailed
from periodlab.intertwine import (
    arch_intertwining,
    assemble_constant_term,
    nonarch_intertwining,
)
from periodlab.lfactors import GaussSumSpec, VanishingToken, gauss_sum
from periodlab.towers import delta_double
from periodlab.weights import (
    WeightSystem,
    archimedean_constant,
    balanced_at,
    in_b_plus,
    is_balanced,
    is_case_pm,
    is_regular_algebraic,
    sigma_twist,
    weight_system_from_eta,
)
from periodlab.weylkostant import (
    distinguished_weyl,
    kostant_lines,
    length_generating_function,
    omega_transfer_sign,
    sigma_decompose,
)
from periodlab.lfactors import unramified_lratio
from periodlab.intertwine import shell_sum

from oracles import admissible_permutations


TOWERS = {
    "deg2": FieldTower(base_disc=1, extension_poly=(0, 1)),
    "deg2b": FieldTower(base_disc=3, extension_poly=(0, 1)),
    "deg4": FieldTower(base_disc=1, extension_poly=(-2, 0, 1)),
    "deg6": FieldTower(base_disc=1, extension_poly=(-2, 0, 0, 1)),
}


def _emb(name, precision=50):
    return build_field(TOWERS[name], precision)


def report(num, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({title}): {status}{' -- ' + detail if detail else ''}")
    return ok


# -- 1 ---------------------------------------------------------------------------


def test_criterion_1_nonarch_product_formula():
    """Shell sums equal the closed-form ratios exactly; n <= 4, q in
    {2,3,5}, a over the 12th roots of unity; zero tolerance; < 10 s."""
    t0 = time.time()
    checked = 0
    failures = []
    for n in (1, 2, 3, 4):
        for k in range(1, n + 1):
            for q in (2, 3, 5):
                for j in range(12):
                    res = nonarch_intertwining(n, k, Cyc.zeta(12, j), q)
                    checked += 1
                    if not res.verdict:
                        failures.append((n, k, q, j))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10.0
    assert report(
        1, "non-archimedean product formula", ok,
        f"{checked} cases, {elapsed:.2f}s, failures: {failures[:5]}"
    )


# -- 2 ---------------------------------------------------------------------------


ETA_PAIRS = {
    2: [(0, 2), (-1, 2), (0, 3), (-1, 3), (-2, 2), (-2, 4)],
    3: [(0, 3), (-1, 3), (0, 4), (-1, 4), (-2, 3), (-2, 5)],
}
S_SAMPLES = [1.0, 2.0, 1.5 + 0.5j]


def _off_target_betas(n, k, m):
    """Two admissible beta values different from the distinguished one."""
    outs = []
    if m >= 1:
        b = [0] * n
        b[0] = 1
        b[-1] = m - 1
        outs.append(tuple(b))
    if n >= 3 and m >= 1:
        b = [0] * n
        b[1] = 1
        b[-1] = m - 1
        outs.append(tuple(b))
    elif m >= 2:
        b = [0] * n
        b[0] = 2
        b[-1] = m - 2
        outs.append(tuple(b))
    return [b for b in outs if b != (0,) * (n - 1) + (m,)]


def test_criterion_2_arch_intertwining():
    """Quadrature matches the shift-ratio product to 1e-6 relative for the
    distinguished index and vanishes to 1e-8 x its magnitude otherwise;
    n in {2, 3}, all k, 6 eta pairs, 3 s samples; < 60 s."""
    t0 = time.time()
    checked = 0
    failures = []
    for n in (2, 3):
        for k in range(1, n + 1):
            for (lo, hi) in ETA_PAIRS[n]:
                m = hi - lo
                beta0 = (0,) * (n - 1) + (m,)
                for s in S_SAMPLES:
                    res = arch_intertwining(n, k, (lo, hi), beta0, s)
                    checked += 1
                    if not res.verdict:
                        failures.append((n, k, lo, hi, s, "beta0"))
                    for beta in _off_target_betas(n, k, m):
                        res = arch_intertwining(n, k, (lo, hi), beta, s)
                        checked += 1
                        if not res.verdict:
                            failures.append((n, k, lo, hi, s, beta))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    assert report(
        2, "archimedean intertwining values", ok,
        f"{checked} integrals, {elapsed:.2f}s, failures: {failures[:5]}"
    )


# -- 3 ---------------------------------------------------------------------------


def _case_pm_etas(emb, n, bound=4):
    """All two-sided eta assignments with entries bounded by ``bound``."""
    lo_vals = range(-bound, 1)
    hi_vals = range(n, bound + 1)
    per_pair = [(lo, hi) for lo in lo_vals for hi in hi_vals]
    per_pair += [(hi, lo) for lo in lo_vals for hi in hi_vals]
    pairs = emb.pairs()
    for combo in itertools.product(per_pair, repeat=len(pairs)):
        eta = {}
        for (iv, ivb), (a, b) in zip(pairs, combo):
            eta[iv], eta[ivb] = a, b
        yield eta


def test_criterion_3_distinguished_element():
    """Uniqueness scan certifies the closed form on exhaustive two-sided
    grids (entries up to 4) for n <= 3 over the degree-2 and degree-4
    fields; line counts match the group order. Exact."""
    failures = []
    scanned_etas = 0
    for name in ("deg2", "deg4"):
        emb = _emb(name)
        for n in (2, 3):
            for eta in _case_pm_etas(emb, n):
                scanned_etas += 1
                w = weight_system_from_eta(n, eta)
                for k in range(1, n + 1):
                    try:
                        _, cert = distinguished_weyl(w, emb, k)
                        if cert["matches"] != 1:
                            failures.append((name, n, k, tuple(eta.items())))
                    except Exception as exc:
                        failures.append((name, n, k, tuple(eta.items()), str(exc)))
            # line counts over all degrees, against the generating function
            w = weight_system_from_eta(
                n, {i: (0 if i in emb.cm_type else n) for i in range(emb.degree)}
            )
            max_p = emb.degree * n * (n - 1) // 2
            counts = [len(kostant_lines(w, emb, p)) for p in range(max_p + 1)]
            if sum(counts) != math.factorial(n) ** emb.degree:
                failures.append((name, n, "count", sum(counts)))
            if counts != length_generating_function(n, emb.degree):
                failures.append((name, n, "generating-function"))
    ok = not failures
    assert report(
        3, "distinguished Weyl element uniqueness", ok,
        f"{scanned_etas} eta grids, failures: {failures[:5]}"
    )


# -- 4 ---------------------------------------------------------------------------


def test_criterion_4_balanced_oracle_equivalence():
    """Fast interlacing test vs character peeling: full n = 2 grid with
    entries in [-2, 2] (per-embedding data on both members of the pair),
    plus >= 500 sampled n = 3 systems. Exact."""
    emb2 = _emb("deg2")
    doms = [
        t for t in itertools.product(range(-2, 3), repeat=2) if t[0] >= t[1]
    ]
    combos = [
        (mu, nu, chi)
        for mu in doms
        for nu in doms
        for chi in range(-2, 3)
    ]
    # per-embedding table: eta, fast and oracle verdicts where defined
    table = []
    mismatch = 0
    for mu, nu, chi in combos:
        eta = sum(mu) + sum(nu) + 2 * chi
        if eta <= 0 or eta >= 2:
            fast = balanced_at(mu, nu, chi, eta, 2)
            slow = balanced_at_oracle(mu, nu, chi, eta, 2)
            if fast != slow:
                mismatch += 1
            table.append((eta, fast, slow))
        else:
            table.append((eta, None, None))

    # full pair grid through the gating shared with is_balanced
    pair_mismatch = 0
    n_pairs = 0
    for e1, f1, o1 in table:
        for e2, f2, o2 in table:
            n_pairs += 1
            gate = min(e1, e2) <= 0 and max(e1, e2) >= 2
            fast_pair = bool(gate and f1 and f2)
            oracle_pair = bool(gate and o1 and o2)
            if fast_pair != oracle_pair:
                pair_mismatch += 1

    # public API spot check on random pairs
    rng = random.Random(2024)
    api_mismatch = 0
    for _ in range(2000):
        (mu1, nu1, chi1), (mu2, nu2, chi2) = rng.choice(combos), rng.choice(combos)
        w = WeightSystem(
            n=2, mu={0: mu1, 1: mu2}, nu={0: nu1, 1: nu2}, chi={0: chi1, 1: chi2}
        )
        eta = w.eta()
        gate = min(eta[0], eta[1]) <= 0 and max(eta[0], eta[1]) >= 2
        expect = bool(
            gate
            and balanced_at(mu1, nu1, chi1, eta[0], 2)
            and balanced_at(mu2, nu2, chi2, eta[1], 2)
        )
        if is_balanced(w, emb2) != expect:
            api_mismatch += 1

    # sampled n = 3 grid
    rng3 = random.Random(515)
    pool = []
    for _ in range(120):
        mu = tuple(sorted((rng3.randint(-2, 2) for _ in range(3)), reverse=True))
        nu = tuple(sorted((rng3.randint(-2, 2) for _ in range(3)), reverse=True))
        chi = rng3.randint(-2, 2)
        eta = sum(mu) + sum(nu) + 3 * chi
        pool.append((mu, nu, chi, eta))
    oracle_memo = {}
    n3_mismatch = 0
    n3_points = 0
    for _ in range(500):
        a = rng3.choice(pool)
        b = rng3.choice(pool)
        w = WeightSystem(
            n=3, mu={0: a[0], 1: b[0]}, nu={0: a[1], 1: b[1]}, chi={0: a[2], 1: b[2]}
        )
        n3_points += 1
        fast = is_balanced(w, emb2)
        gate = min(a[3], b[3]) <= 0 and max(a[3], b[3]) >= 3
        gate = gate and all(e * (e - 3) >= 0 for e in (a[3], b[3]))
        if gate:
            slow = all(
                oracle_memo.setdefault(c, balanced_at_oracle(c[0], c[1], c[2], c[3], 3))
                for c in (a, b)
            )
        else:
            slow = False
        if fast != slow:
            n3_mismatch += 1

    ok = mismatch == 0 and pair_mismatch == 0 and api_mismatch == 0 and n3_mismatch == 0
    assert report(
        4, "balanced-set oracle equivalence", ok,
        f"{len(combos)} per-embedding combos, {n_pairs} pairs, "
        f"{n3_points} n=3 samples; mismatches: {mismatch}/{pair_mismatch}/"
        f"{api_mismatch}/{n3_mismatch}"
    )


# -- 5 ---------------------------------------------------------------------------


def test_criterion_5_discriminant_identity():
    """Recovered constant passes rational reconstruction (denominator
    <= 1e4) at 60-digit precision for all four bundled towers, and the
    identity's working-precision Delta rounds to ``towers.delta_double``."""
    failures = []
    values = {}
    for name, tower in TOWERS.items():
        emb = build_field(tower, 60)
        try:
            c, cert = check_discriminant_identity(emb, max_denominator=10**4)
            values[name] = str(c)
            delta = delta_double(tower)
            if c == 0 or c.denominator > 10**4:
                failures.append(name)
            if abs(complex(cert["delta_constant"].replace(" ", "")) - delta) > 1e-15 * abs(delta):
                failures.append((name, "Delta"))
        except Exception as exc:
            failures.append((name, str(exc)))
    ok = not failures
    assert report(5, "discriminant identity", ok, f"constants: {values}")


# -- 6 ---------------------------------------------------------------------------


def test_criterion_6_wedge_sign_vs_epsilon():
    """Generator-monomial relabeling sign vs the fiber-trivial signature
    power, for ALL admissible permutations (brute-forced) of the degree-4
    and degree-6 fields, n in {2, 3}, all k. Exact as stated.

    Known to fail at n = 2 for permutations that reverse the order of the
    conjugate pairs: the measured sign is the pair-permutation signature
    to the power n - 1 (independent of k), which cannot equal a
    k-dependent right-hand side.  Kept as stated; see the k-independence
    test in test_weylkostant.py for the invariant that does hold.
    """
    violations = []
    checked = 0
    for name in ("deg4", "deg6"):
        emb = _emb(name)
        perms = admissible_permutations(emb)
        for n in (2, 3):
            eta = {i: (0 if i in emb.cm_type else n) for i in range(emb.degree)}
            w = weight_system_from_eta(n, eta)
            for k in range(1, n + 1):
                for g in perms:
                    _, _, eps = sigma_decompose(g, emb)
                    got = omega_transfer_sign(w, emb, k, g)
                    checked += 1
                    if got != eps ** (n - k):
                        violations.append((name, n, k, g.perm, got, eps ** (n - k)))
    ok = not violations
    assert report(
        6, "wedge sign vs fiber-trivial signature", ok,
        f"{checked} checks, violations: {len(violations)} "
        f"(all at n=2: {all(v[1] == 2 for v in violations)})"
    )


# -- 7 ---------------------------------------------------------------------------


def test_criterion_7_gauss_sums():
    """|G(chi)|^2 = q exactly for every nontrivial character of GF(q)^x,
    q in {3,4,5,7,8,9,11,13,25,27,49}; the q = 3 quadratic case equals
    i*sqrt(3) exactly."""
    failures = []
    checked = 0
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 25, 27, 49):
        for t in range(1, q - 1):
            checked += 1
            g, _ = gauss_sum(GaussSumSpec(q=q, chi_order=q - 1, chi_index=t))
            if g.norm_squared() != Cyc.rational(q, g.n):
                failures.append((q, t))
    g3, _ = gauss_sum(GaussSumSpec(q=3, chi_order=2, chi_index=1))
    exact_ok = g3 == Cyc.zeta(6, 1) * 2 - Cyc.rational(1, 6)  # = i*sqrt(3)
    ok = not failures and exact_ok
    assert report(
        7, "Gauss sums", ok,
        f"{checked} characters, q=3 quadratic exact: {exact_ok}, failures: {failures[:5]}"
    )


# -- 8 ---------------------------------------------------------------------------


def test_criterion_8_constant_term_audit():
    """Both vanishing-order branches audit holomorphic (the assembly
    returns its n terms); flipping the normalizing branch against the
    declared order raises the audit error."""
    delta = delta_double(TOWERS["deg2"])
    results = []
    for n in (2, 3):
        for ord0 in (0, 1):
            entries = assemble_constant_term(n, VanishingToken(order_zero=ord0), delta, 2)
            results.append(len(entries) == n)
    flips = 0
    for ord0, wrong in ((0, "compensated"), (1, "one")):
        with pytest.raises(AuditFailed):
            assemble_constant_term(
                3, VanishingToken(order_zero=ord0), delta, 2,
                delta_branch=wrong,
            )
        flips += 1
    ok = all(results) and flips == 2
    assert report(
        8, "constant-term holomorphy audit", ok,
        f"branches: {results}, flip checks: {flips}"
    )


# -- 9 ---------------------------------------------------------------------------


def _random_weight_system(rng, n, degree):
    mu, nu, chi = {}, {}, {}
    for i in range(degree):
        mu[i] = tuple(sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True))
        nu[i] = tuple(sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True))
        chi[i] = rng.randint(-3, 3)
    return WeightSystem(n=n, mu=mu, nu=nu, chi=chi)


def test_criterion_9_sigma_equivariance():
    """Predicates and exact identities are invariant under twisting by 20
    random admissible embedding permutations per field. Exact."""
    rng = random.Random(99)
    failures = []
    for name in TOWERS:
        emb = _emb(name)
        perms = admissible_permutations(emb)
        gs = [rng.choice(perms) for _ in range(20)]
        n = 2
        # predicate invariance on random systems
        for _ in range(5):
            w = _random_weight_system(rng, n, emb.degree)
            eta = w.eta()
            base = (
                is_regular_algebraic(eta, n),
                is_case_pm(eta, n, emb),
                is_balanced(w, emb),
            )
            for g in gs:
                tw = sigma_twist(w, g)
                eta_t = tw.eta()
                got = (
                    is_regular_algebraic(eta_t, n),
                    is_case_pm(eta_t, n, emb),
                    is_balanced(tw, emb),
                )
                if got != base:
                    failures.append((name, "predicates", g.perm))
        # aligned two-sided system: exponent multiset, scan, transfer signs
        eta = {i: (0 if i in emb.cm_type else n) for i in range(emb.degree)}
        w = weight_system_from_eta(n, eta)
        base_exponents = sorted(archimedean_constant(w, emb).exponents.values())
        base_bplus = in_b_plus(w, emb)
        for g in gs:
            tw = sigma_twist(w, g)
            a = archimedean_constant(tw, emb)
            # exponents sum over both embeddings of a place: a permuted
            # multiset; signs flip with the pair orientation and are
            # checked by their transformation law in the unit suite
            if sorted(a.exponents.values()) != base_exponents:
                failures.append((name, "arch-exponents", g.perm))
            if in_b_plus(tw, emb) != base_bplus:
                failures.append((name, "b-plus", g.perm))
            for k in range(1, n + 1):
                try:
                    _, cert = distinguished_weyl(tw, emb, k)
                    if cert["matches"] != 1:
                        failures.append((name, "scan", k, g.perm))
                except Exception as exc:
                    failures.append((name, "scan-error", k, g.perm, str(exc)))
            signs = {omega_transfer_sign(w, emb, k, g) for k in range(1, n + 1)}
            if len(signs) != 1:
                failures.append((name, "transfer-k-dependence", g.perm))
        # line count invariance
        base_counts = [len(kostant_lines(w, emb, p)) for p in range(0, 3)]
        for g in gs[:5]:
            tw = sigma_twist(w, g)
            counts = [len(kostant_lines(tw, emb, p)) for p in range(0, 3)]
            if counts != base_counts:
                failures.append((name, "line-counts", g.perm))

    # coefficient-field Galois equivariance of the exact ratio identity
    for j in (5, 7, 11):
        a = Cyc.zeta(12, 1)
        lhs = shell_sum(3, 1, a, 2).galois(j)
        rhs = shell_sum(3, 1, a.galois(j), 2)
        if lhs != rhs or rhs != unramified_lratio(3, 1, a.galois(j), 2):
            failures.append(("lratio-galois", j))
    # Galois images of Gauss sums keep norm q
    for q, j in ((5, 3), (7, 5), (9, 5)):
        g, _ = gauss_sum(GaussSumSpec(q=q, chi_order=q - 1, chi_index=1))
        if g.galois(j).norm_squared() != Cyc.rational(q, g.n):
            failures.append(("gauss-galois", q, j))

    ok = not failures
    assert report(9, "sigma equivariance", ok, f"failures: {failures[:5]}")
