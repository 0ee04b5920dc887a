"""One table of the package's kernels and their independent oracles.

Each row computes the fast path's values first.  Then it patches the fast
path's private helpers to raise and runs the oracle, which must reach the
same values without them.  A row names the helpers that both routes share
on purpose; they stay intact.  A second run traces both routes with
``sys.setprofile``: the ``periodlab`` functions that both run must be
among the declared shares, where a class covers its methods, and each
declared share must run on both, so a shared helper that the break list
misses still fails its row.  The row "exact-layout" reads its first
values from the golden data instead, so it shares nothing: the README
runs of the five config commands but field-check, recorded when they ran
on ``build_field``'s numeric embeddings, must print the same bytes on the
exact layout with every root finder broken.

The row "weyl-line-weights" checks the torus weights of the Kostant
lines at one embedding against the Weyl character formula, which is
Kostant's theorem at the level of Euler characteristics:

    sum_{w in S_n} (-1)^{l(w)} x^{w.L} = ch F_L * prod_{i<j} (1 - x_j / x_i),

with L the line's base weight, the dual of ``highest_weight_from_eta``,
and ch F_L from semistandard tableaux (``charpeel.character``).  L + rho
is regular, so the weights w.L are distinct and the identity fixes every
line's weight and degree parity.

The row "wedge-transfer-sign" checks ``omega_transfer_sign``, which
builds both generator monomials and sorts their labels, against the block
law sgn(pi)^(n-1): pi is the permutation g induces on the conjugate
pairs, each listed by its eta <= 0 member in embedding order.  It covers
the four towers of the acceptance suite, n = 2 to 5, every k, every
admissible permutation and every orientation of the pairs; it tests the
function, not criterion 6's stated law.

Gauss sums get no row: the Hasse-Davenport and Jacobi relations and the
Galois law compare outputs of ``lfactors.gauss_sum`` with each other;
there is no second route to keep apart from the first.
"""

import functools
import itertools
import json
import operator
import sys

import mpmath
import pytest

from periodlab import charpeel, cmfield, intertwine, lfactors, quadrature, weights, weylkostant
from periodlab.cmfield import build_field, disc_constant_upper, disc_over_q
from periodlab.cyclotomic import Cyc
from periodlab.towers import FieldTower, GaloisPermutation, Layout

from oracles import admissible_permutations, exact_tower_discriminants, transfer_sign
from test_acceptance import TOWERS
from test_cmfield import ALL_TOWERS
from test_golden_cli import CASES, GOLDEN, case_id, run
from test_weights import peel_sample


def tower_discriminants():
    out = []
    for tower in ALL_TOWERS:
        emb = build_field(tower, 60)
        out.append((disc_over_q(emb)[0], disc_constant_upper(emb)[1]["norm_to_q"]))
    return out


LAYOUT_COMMANDS = {"balanced", "kostant", "find-wk", "wedge-sign", "constant-term"}
LAYOUT_CASES = [(fmt, argv) for fmt, argv in CASES if LAYOUT_COMMANDS & set(argv)]


def recorded_layout_runs():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return [golden[case_id(fmt, argv)] for fmt, argv in LAYOUT_CASES]


POINTS = peel_sample(seed=11, count=40)
LRATIO_CASES = [(3, 1, Cyc.zeta(12, 1), 3), (4, 2, Cyc.zeta(12, 5), 2),
                (2, 1, Cyc.zeta(6, 1), 5), (3, 3, Cyc.zeta(4, 1), 2), (5, 1, Cyc.zeta(8, 3), 7)]
# (powers, d) of the radial integrals int (1 + |x|^2)^-e prod x_j^p_j dx,
# e = sum (p_j + 1) / 2 + d
POLAR_CASES = [((1,), 2.0), ((1, 1), 0.6), ((2, 1, 3), 2.5 + 1j), ((2, 1, 1, 1), 4.0)]
TENSOR_RULE = [(quadrature, name) for name in
               ("_nodes", "_cut", "_three_level_error", "_new_points_sum", "_level_sums", "quad")]


def radial(powers, d):
    e = sum(p + 1 for p in powers) / 2 + d
    return lambda u: (1.0 + u) ** -e


def polar_check(fast):
    """The polar form of each radial integral over the fast path's
    magnitude, so that the scalar rule stops relative to the value; the
    scalar rule builds its own node table."""
    quadrature._xcheck_rows.cache_clear()
    return [quadrature._polar(radial(p, d), p, abs(v), 1e-10) * abs(v)
            for (p, d), v in zip(POLAR_CASES, fast)]


def scalar_rule(fast):
    """int x (1 + x^2)^-3 dx = 1/4 by the scalar exp-sinh rule alone."""
    quadrature._xcheck_rows.cache_clear()
    return [quadrature.exp_sinh_halfline(lambda x: x * (1.0 + x * x) ** -3.0, 1e-10)[0]]


QI_LAYOUT = Layout(FieldTower(base_disc=1, extension_poly=(0, 1)))  # k = Q(i)
# (n, eta at the embedding read); both sides of eta at every n <= 6
WEYL_CASES = [(n, eta) for n in range(2, 7) for eta in (-3, 0, n, n + 2)]


def signed_line_weights(n, eta):
    """sum of (-1)^degree x^(torus weight at embedding 0) over the lines of
    S_n at embedding 0, the conjugate embedding held at the identity."""
    w = weights.weight_system_from_eta(n, {0: eta, 1: n - eta})
    identity = tuple(range(1, n + 1))
    out = {}
    for perm in itertools.permutations(identity):
        line = weylkostant.make_line(weylkostant.WeylElement((perm, identity)), w, QI_LAYOUT)
        key = line.torus_weight[0]
        out[key] = out.get(key, 0) + (-1) ** line.degree
    return {e: c for e, c in out.items() if c}


def weyl_character_side(n, eta):
    """ch F_L * prod_{i<j} (1 - x_j / x_i) for L = (-mu_n, ..., -mu_1)."""
    mu = weights.highest_weight_from_eta(eta, n)
    poly = charpeel.character(tuple(-x for x in reversed(mu)), n)
    for i, j in itertools.combinations(range(n), 2):
        shift = [0] * n
        shift[i], shift[j] = -1, 1
        nxt = dict(poly)
        for e, c in poly.items():
            key = tuple(a + b for a, b in zip(e, shift))
            nxt[key] = nxt.get(key, 0) - c
        poly = {e: c for e, c in nxt.items() if c}
    return poly


@functools.cache
def wedge_cases():
    """(layout, n, k, eta, perm) over every tower, n = 2 to 5, k, orientation of
    the conjugate pairs and admissible permutation; the low and high values
    vary with the pair so that no two pairs carry the same eta."""
    cases = []
    for tower in TOWERS.values():
        emb = Layout(tower)
        perms = [g.perm for g in admissible_permutations(emb)]
        for n in range(2, 6):
            for flips in itertools.product((False, True), repeat=len(emb.pairs())):
                eta = {}
                for index, ((i, j), flip) in enumerate(zip(emb.pairs(), flips)):
                    low, high = -index, n + index
                    eta[i], eta[j] = (high, low) if flip else (low, high)
                cases += [(emb, n, k, eta, perm) for k in range(1, n + 1) for perm in perms]
    return cases


def fast_transfer_signs():
    return [weylkostant.omega_transfer_sign(weights.weight_system_from_eta(n, eta), emb, k,
                                            GaloisPermutation(perm))
            for emb, n, k, eta, perm in wedge_cases()]


def close(fast, oracle):
    return all(abs(o - f) <= 1e-8 * abs(f) for f, o in zip(fast, oracle))


# name: (fast path, oracle of the fast values, helpers broken while the
#        oracle runs, helpers both routes share on purpose, agreement)
ROWS = {
    "tower-discriminants": (
        tower_discriminants,
        lambda fast: [exact_tower_discriminants(tower) for tower in ALL_TOWERS],
        [(cmfield, "_trace_values"), (cmfield, "_product_values"), (cmfield, "_basis_values"),
         (cmfield, "_rational"), (cmfield, "build_field"), (mpmath.mp, "det")],
        ("towers.FieldTower.k0_degree", "towers.FieldTower.theta_degree"),
        operator.eq,
    ),
    "exact-layout": (
        recorded_layout_runs,
        lambda fast: [run(fmt, argv) for fmt, argv in LAYOUT_CASES],
        [(cmfield, "build_field"), (cmfield, "_sorted_roots"), (mpmath.mp, "polyroots")],
        (),
        operator.eq,
    ),
    "balanced": (
        lambda: [weights.balanced_at(*point) for point in POINTS],
        lambda fast: [charpeel.balanced_at_oracle(*point) for point in POINTS],
        [(weights, "balanced_at"), (weights, "_is_horizontal_strip"), (weights, "is_balanced")],
        (),
        operator.eq,
    ),
    "weyl-line-weights": (
        lambda: [signed_line_weights(*case) for case in WEYL_CASES],
        lambda fast: [weyl_character_side(*case) for case in WEYL_CASES],
        [(weylkostant, "_line_weight_component"), (weylkostant, "make_line"),
         (weylkostant, "inverted_pairs")],
        ("weights.highest_weight_from_eta",),
        operator.eq,
    ),
    "wedge-transfer-sign": (
        fast_transfer_signs,
        lambda fast: [transfer_sign(eta, perm, n) for _emb, n, _k, eta, perm in wedge_cases()],
        [(weylkostant.WedgeMonomial, "from_labels"), (weylkostant, "omega_monomial"),
         (weylkostant, "sigma_on_monomial")],
        (),
        operator.eq,
    ),
    "l-ratios": (
        lambda: [lfactors.unramified_lratio(*case) for case in LRATIO_CASES],
        lambda fast: [intertwine.shell_sum(*case) for case in LRATIO_CASES],
        [(lfactors, "unramified_lratio"), (intertwine, "unramified_lratio")],
        ("cyclotomic.Cyc", "laurent.XPoly", "laurent.LaurentRatio"),
        operator.eq,
    ),
    "polar-check": (
        lambda: [quadrature.quad(radial(p, d), list(p), 1e-10)[0] for p, d in POLAR_CASES],
        polar_check,
        TENSOR_RULE + [(lfactors, "gamma_ratio")],
        (),
        close,
    ),
    "scalar-rule": (
        lambda: [quadrature.quad(lambda u: (1.0 + u) ** -3.0, [1], 1e-10)[0]],
        scalar_rule,
        TENSOR_RULE,
        (),
        close,
    ),
}


def broken(*args, **kwargs):
    raise AssertionError("the oracle used a helper of the fast path")


@pytest.mark.parametrize("name", ROWS)
def test_oracle_runs_without_the_fast_path(name, monkeypatch):
    fast, oracle, breaks, _shares, agree = ROWS[name]
    expected = fast()
    for module, attr in breaks:
        monkeypatch.setattr(module, attr, broken)
    assert agree(expected, oracle(expected))


def traced(thunk):
    """thunk() and the "module.qualname" of each ``periodlab`` function that
    runs in it, its caches cleared first so that a cached function runs too."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("periodlab."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    seen = set()

    def profile(frame, event, _arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("periodlab."):
                seen.add(f"{module[len('periodlab.'):]}.{frame.f_code.co_qualname}")

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = thunk()
    finally:
        sys.setprofile(previous)
    return result, seen


def covers(share: str, name: str) -> bool:
    """A share names a function or a class, which covers its methods and
    whatever they define."""
    return name == share or name.startswith(share + ".")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="code objects carry co_qualname from 3.11")
@pytest.mark.parametrize("name", ROWS)
def test_routes_share_only_what_the_row_declares(name):
    """The package functions that both the fast path and the oracle run
    are the row's declared shares, and each declared share runs on both."""
    fast, oracle, _breaks, shares, _agree = ROWS[name]
    expected, fast_calls = traced(fast)
    _, oracle_calls = traced(lambda: oracle(expected))
    both = fast_calls & oracle_calls
    assert sorted(f for f in both if not any(covers(s, f) for s in shares)) == []
    assert [s for s in shares if not any(covers(s, f) for f in both)] == []
