"""Brute-force and exact oracles that the tests check the package against.

No command runs these.  Each takes another route than the code it checks:

* ``admissible_permutations`` filters all [k:Q]! permutations of the
  embeddings through ``EmbeddingSet.is_admissible``;
* ``coset_reps`` filters all n! permutations for the minimal-length
  representatives of the (n-1, 1) parabolic;
* ``inversions`` compares every pair of entries, where
  ``towers.inversions`` bisects a sorted list of the entries seen;
* ``elements_of_length`` is the bottom-degree enumeration of
  ``weylkostant._elements_of_length`` with its length table rebuilt on
  every call (and lengths counted pair by pair), where the package takes
  the table from a cache keyed by n; both must yield the same tuples in
  the same order, since ``kostant`` prints its lines in that order;
* ``transfer_sign`` is the sign law sgn(pi)^(n-1) of the generator
  monomials' blocks, where ``weylkostant.omega_transfer_sign`` builds and
  sorts both monomials.  It twists eta itself and imports nothing;
* ``trivial_multiplicity`` peels the full product of all four characters
  down to the trivial weight, where ``charpeel`` peels the product of
  three against the dual of the largest factor;
* ``exact_tower_discriminants`` gives disc(k/Q) and N_{k1/Q}(disc(k/k1))
  as exact rationals from the discriminants of the tower's polynomials
  (Cohen 1993, section 3.3).  It imports no mpmath and nothing of
  ``cmfield``: it reads the declaration's attributes only.
"""

import itertools
from fractions import Fraction


def admissible_permutations(emb):
    """Every admissible permutation of the embeddings, as GaloisPermutation."""
    from periodlab.towers import GaloisPermutation

    return [
        GaloisPermutation(p)
        for p in itertools.permutations(range(emb.degree))
        if emb.is_admissible(p)
    ]


def coset_reps(n):
    """One-line permutations w of 1..n that keep the simple roots
    e_i - e_{i+1}, i <= n - 2, positive: w(i) < w(i+1)."""
    return [
        p for p in itertools.permutations(range(1, n + 1))
        if all(p[i] < p[i + 1] for i in range(n - 2))
    ]


def inversions(seq):
    """Number of pairs a < b with seq[a] > seq[b], pair by pair."""
    count = 0
    for a, x in enumerate(seq):
        for y in seq[a + 1:]:
            count += x > y
    return count


def elements_of_length(n, count, total):
    """All tuples of ``count`` permutations of 1..n with inversion total
    ``total``, in the order ``weylkostant._elements_of_length`` yields
    them, with the length table rebuilt on every call."""
    by_len = {}
    for p in itertools.permutations(range(1, n + 1)):
        by_len.setdefault(inversions(p), []).append(p)
    max_len = n * (n - 1) // 2

    def rec(remaining_slots, budget):
        if remaining_slots == 0:
            if budget == 0:
                yield ()
            return
        if budget > max_len * remaining_slots or budget < 0:
            return
        for ln, perms in by_len.items():
            if ln > budget:
                continue
            for tail in rec(remaining_slots - 1, budget - ln):
                for p in perms:
                    yield (p,) + tail

    yield from rec(count, total)


def transfer_sign(eta, perm, n):
    """Sign taking the relabeled generator monomial of ``eta`` (a dict from
    embedding to eta) to the generator monomial of eta o g^-1, for the
    admissible embedding permutation g = ``perm`` (a tuple, i -> perm[i]).

    Each embedding with eta <= 0 carries one block of n - 1 labels (its
    row and its conjugate's column), and the blocks stand in embedding
    order.  An admissible g commutes with conjugation, so it moves whole
    blocks: the source's i-th block lands on the twisted data's pi(i)-th.
    Exchanging blocks of n - 1 labels gives sgn(pi)^((n-1)^2) =
    sgn(pi)^(n-1) (Bourbaki, Algebra I, ch. III, section 7)."""
    twisted = {perm[e]: value for e, value in eta.items()}
    low = sorted(e for e, value in eta.items() if value <= 0)
    twisted_low = sorted(e for e, value in twisted.items() if value <= 0)
    pi = [twisted_low.index(perm[e]) for e in low]
    return (-1) ** (inversions(pi) * (n - 1))


def trivial_multiplicity(factors, n):
    """Multiplicity of the trivial rep in a tensor product of irreducibles
    of the dominant weights ``factors``: peels the lexicographically
    highest weight of the full product character until the leader falls
    below zero."""
    from periodlab.charpeel import character, product_character

    poly = product_character(character(w, n) for w in factors)
    zero = (0,) * n
    mult = 0
    while poly:
        leader = max(poly)
        if leader < zero:
            break
        coeff = poly[leader]
        if leader == zero:
            mult = coeff
        for e, c in character(leader, n).items():
            v = poly.get(e, 0) - coeff * c
            if v:
                poly[e] = v
            else:
                poly.pop(e, None)
    return mult


def int_det(m):
    """Determinant of a rational matrix by Fraction elimination."""
    m = [[Fraction(x) for x in row] for row in m]
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


def poly_disc(g):
    """Discriminant of the integer polynomial g (coefficients low to high):
    (-1)^(d(d-1)/2) Res(g, g') / lc(g), the resultant being the
    determinant of the Sylvester matrix of g and g'."""
    d = len(g) - 1
    high = list(reversed(g))
    deriv = [c * (d - i) for i, c in enumerate(high[:-1])]
    size = 2 * d - 1
    rows = [[0] * i + high + [0] * (size - d - 1 - i) for i in range(d - 1)]
    rows += [[0] * i + deriv + [0] * (size - d - i) for i in range(d)]
    return (-1) ** (d * (d - 1) // 2) * int_det(rows) / high[0]


def exact_tower_discriminants(tower):
    """(disc(k/Q), N_{k1/Q}(disc(k/k1))) for the product basis of a declared
    tower.  With m = [k:k1], r = [k0:Q], f the extension polynomial and
    delta1 = -4 d det(k1_basis)^2 the discriminant of k1 over k0:

        disc(k/Q) = disc(k0)^(2m) * delta1^(m r) * disc(f)^(2r),
        N_{k1/Q}(disc(k/k1)) = disc(f)^(2r).
    """
    m, r = tower.theta_degree, tower.k0_degree
    disc_k0 = 1 if tower.declared_k0_poly is None else poly_disc(tower.declared_k0_poly)
    (a1, b1), (a2, b2) = tower.k1_basis
    delta1 = -4 * tower.base_disc * (a1 * b2 - a2 * b1) ** 2
    norm_upper = poly_disc(tower.extension_poly) ** (2 * r)
    return disc_k0 ** (2 * m) * delta1 ** (m * r) * norm_upper, norm_upper
