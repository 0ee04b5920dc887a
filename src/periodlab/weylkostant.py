"""Weyl-group machinery over the index layout of a tower's embeddings.

Contents:

* enumeration of nilpotent-cohomology lines: one line per element of the
  absolute Weyl group (a product of symmetric groups indexed by the
  embeddings), carrying its torus weight and wedge monomial;
* the distinguished bottom-degree element w(k), built from the cycle
  closed form per embedding and certified unique by an exhaustive scan:
  a table built once per certificate holds, for each distinct eta value,
  the permutations whose torus weight is the induced-character target;
  every candidate is visited and looked up in it one embedding at a time,
  so a candidate is dropped at its first embedding that misses; no line
  is built, and the dual highest weight is computed once per distinct
  eta value of the certificate;
* formal wedge monomials of nilpotent covectors with the sign calculus
  for Galois relabeling, including the transfer sign of the generator
  monomials;
* the order-preserving/fiber-trivial factorization g = s2 o s1 of an
  admissible embedding permutation, with the signature of s2.

``weyl_count`` counts the elements an enumeration visits (n!^d in all, or
those of one length).  ``kostant_lines`` and ``distinguished_weyl`` raise
ConfigError, before any work, when they would enumerate more than
MAX_WEYL_CANDIDATES elements; ``kostant_lines`` also when its lines would
hold more than MAX_KOSTANT_ENTRIES integers, and ``omega_monomial`` when
its monomial would hold more than MAX_WEDGE_LABELS labels.
"""

from __future__ import annotations

import functools
import itertools

from .towers import GaloisPermutation, Layout, inversions
from .errors import ConfigError, UniquenessFailed
from .intpoly import mul
from .weights import WeightSystem, highest_weight_from_eta, sigma_twist

OneLine = tuple[int, ...]  # w(1), ..., w(n) with values in 1..n


def inverted_pairs(w: OneLine) -> list[tuple[int, int]]:
    """Positions (i, j), 1-based, with i < j and w(i) > w(j)."""
    n = len(w)
    return [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if w[i] > w[j]
    ]


def cycle_oneline(a: int, b: int, n: int) -> OneLine:
    """The cycle (a a+1 ... b) as a one-line permutation of 1..n."""
    out = list(range(1, n + 1))
    for j in range(a, b):
        out[j - 1] = j + 1
    out[b - 1] = a
    return tuple(out)


def invert_oneline(w: OneLine) -> OneLine:
    out = [0] * len(w)
    for j, i in enumerate(w, start=1):
        out[i - 1] = j
    return tuple(out)


def cycles_str(w: OneLine) -> str:
    """Cycle notation, fixed points omitted; identity prints as 'e'."""
    seen = [False] * len(w)
    parts = []
    for start in range(1, len(w) + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        j = w[start - 1]
        while j != start:
            cyc.append(j)
            seen[j - 1] = True
            j = w[j - 1]
        if len(cyc) > 1:
            parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "e"


class WeylElement:
    """An element of the absolute Weyl group: one permutation per embedding;
    equal and hashed by ``components``."""

    def __init__(self, components: tuple[OneLine, ...]) -> None:
        self.components = components  # indexed by embedding position

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def length(self) -> int:
        return sum(inversions(c) for c in self.components)

    def component(self, i: int) -> OneLine:
        return self.components[i]

    def describe(self) -> str:
        return " | ".join(cycles_str(c) for c in self.components)


# -- Kostant lines -------------------------------------------------------------


class WedgeMonomial:
    """A signed, sorted wedge of covector labels (i, j, embedding); equal
    and hashed by (sign, labels).

    The fixed total order is embedding-position major, then (i, j)
    lexicographic.  Re-sorting an out-of-order label list multiplies the
    sign by the signature of the sorting permutation.
    """

    def __init__(self, sign: int, labels: tuple[tuple[int, int, int], ...]) -> None:
        self.sign = sign
        self.labels = labels

    def __eq__(self, other) -> bool:
        if not isinstance(other, WedgeMonomial):
            return NotImplemented
        return (self.sign, self.labels) == (other.sign, other.labels)

    def __hash__(self) -> int:
        return hash((self.sign, self.labels))

    @staticmethod
    def from_labels(labels, sign: int = 1) -> "WedgeMonomial":
        labels = [(i, j, e) for (i, j, e) in labels]
        for (i, j, _e) in labels:
            if not i < j:
                raise ConfigError(f"label ({i},{j}) needs i < j")
        if len(set(labels)) != len(labels):
            raise ConfigError("repeated covector label; wedge vanishes")
        keyed = [(e, i, j) for (i, j, e) in labels]
        sgn = sign * (-1) ** inversions(keyed)
        ordered = tuple((i, j, e) for (e, i, j) in sorted(keyed))
        return WedgeMonomial(sign=sgn, labels=ordered)


class KostantLine:
    """One line of nilpotent cohomology: Weyl element, degree, torus weight
    (per embedding) and the canonical wedge monomial of its covectors."""

    def __init__(self, element: WeylElement, degree: int,
                 torus_weight: tuple[tuple[int, ...], ...], wedge: WedgeMonomial) -> None:
        self.element = element
        self.degree = degree
        self.torus_weight = torus_weight
        self.wedge = wedge


def _line_weight_component(
    oneline: OneLine, pairs: list[tuple[int, int]], base: tuple[int, ...]
) -> tuple[int, ...]:
    """Torus weight of the line attached to w at one embedding, given w's
    inverted pairs and the dual highest weight of the embedding's eta.

    The line is spanned by the dual wedge of the covectors at w's
    inversions, tensored with w applied to the highest weight vector of
    the dual representation (highest weight (-mu_n, ..., -mu_1)).  The
    permutation acts on weights by (w . L)_i = L_{w(i)}, which makes the
    result the dot-action weight w(L + rho) - rho, as a cross-check with
    the nilpotent-cohomology theorem confirms.
    """
    weight = [base[i - 1] for i in oneline]
    for (i, j) in pairs:
        weight[i - 1] -= 1
        weight[j - 1] += 1
    return tuple(weight)


def _dual_highest_weight(eta_value: int, n: int) -> tuple[int, ...]:
    """(-mu_n, ..., -mu_1) for mu = highest_weight_from_eta(eta_value, n)."""
    return tuple(-x for x in reversed(highest_weight_from_eta(eta_value, n)))


def make_line(element: WeylElement, w: WeightSystem, emb: Layout) -> KostantLine:
    """The line of ``element``: one pass over each component's inverted
    pairs gives its degree, torus weight and wedge labels."""
    eta = w.eta()
    n = w.n
    weights = []
    labels = []
    for pos in range(emb.degree):
        comp = element.component(pos)
        pairs = inverted_pairs(comp)
        base = _dual_highest_weight(eta[pos], n)
        weights.append(_line_weight_component(comp, pairs, base))
        labels.extend((i, j, pos) for (i, j) in pairs)
    return KostantLine(
        element=element,
        degree=len(labels),
        torus_weight=tuple(weights),
        wedge=WedgeMonomial.from_labels(labels),
    )


@functools.lru_cache(maxsize=4)
def _permutations_by_length(n: int) -> tuple[tuple[int, tuple[OneLine, ...]], ...]:
    """(length, permutations of that length) pairs of S_n, each length in
    the order it first occurs in ``itertools.permutations`` and each
    permutation in that order within its length.  At most n = 8 is
    enumerated (MAX_WEYL_CANDIDATES), so an entry holds up to 40,320
    permutations."""
    by_len: dict[int, list[OneLine]] = {}
    for p in itertools.permutations(range(1, n + 1)):
        by_len.setdefault(inversions(p), []).append(p)
    return tuple((ln, tuple(perms)) for ln, perms in by_len.items())


def _elements_of_length(n: int, count: int, total: int):
    """All tuples of ``count`` permutations with inversion total ``total``."""
    by_len = _permutations_by_length(n)
    max_len = n * (n - 1) // 2

    def rec(remaining_slots, budget):
        if remaining_slots == 0:
            if budget == 0:
                yield ()
            return
        if budget > max_len * remaining_slots or budget < 0:
            return
        for ln, perms in by_len:
            if ln > budget:
                continue
            for tail in rec(remaining_slots - 1, budget - ln):
                for p in perms:
                    yield (p,) + tail

    yield from rec(count, total)


def kostant_lines(w: WeightSystem, emb: Layout, p: int) -> list[KostantLine]:
    """All cohomology lines in degree p: one per absolute Weyl element of
    length p.  ConfigError, before any line is built, above
    MAX_WEYL_CANDIDATES elements or MAX_KOSTANT_ENTRIES entries."""
    count = weyl_count(w.n, emb.degree, p)
    # a line holds its element and torus weight (n integers per embedding
    # each) and its p wedge labels (three integers each)
    entries = count * (2 * emb.degree * w.n + 3 * p)
    if entries > MAX_KOSTANT_ENTRIES:
        raise ConfigError(
            f"the {count} lines of degree {p} hold {entries} entries, "
            f"above the limit of {MAX_KOSTANT_ENTRIES}"
        )
    return [make_line(WeylElement(components=c), w, emb) for c in _elements_of_length(w.n, emb.degree, p)]


# Most Weyl group elements one enumeration may visit.
MAX_WEYL_CANDIDATES = 10**5
# Most integers the lines of one kostant_lines call may hold, fitted by
# timing: a fresh `kostant` process that builds and prints the lines takes
# about 7 us per integer in records format, so the slowest admitted runs
# take under 2 s on a 2-vCPU host (n = 4, p = 19 over a degree-4 field:
# 1.7 s); n = 8, p = 7 over Q(i) (55,320 lines) is refused.
MAX_KOSTANT_ENTRIES = 250_000
# Most labels of one generator monomial: sorting it counts its inversions,
# five times per wedge-sign run.  Fitted to the pairwise count, which took
# 1.5-2.5 s per fresh wedge-sign process at 2,997 labels (n = 1,000 over a
# degree-6 field, or n = 112 over a degree-54 one) on a 2-vCPU host; with
# the count by bisection those runs take 0.15-0.22 s.  The bound is kept,
# so the same inputs are refused.
MAX_WEDGE_LABELS = 3000


def weyl_count(n: int, emb_count: int, length: int | None = None) -> int:
    """Elements of S_n^emb_count of the given length (all when None), as
    enumerated; ConfigError above MAX_WEYL_CANDIDATES.  Every enumeration
    lists S_n first, so n! is bounded first and a huge n costs nothing."""
    size = 1
    for i in range(2, n + 1):
        size *= i
        if size > MAX_WEYL_CANDIDATES:
            raise ConfigError(f"S_{n} has more than {MAX_WEYL_CANDIDATES} elements, the limit")
    if length is None:
        count = size**emb_count
    else:
        gen = length_generating_function(n, emb_count)
        count = gen[length] if 0 <= length < len(gen) else 0
    if count > MAX_WEYL_CANDIDATES:
        raise ConfigError(f"the scan would visit {count} Weyl elements, above the limit of {MAX_WEYL_CANDIDATES}")
    return count


def length_generating_function(n: int, emb_count: int) -> list[int]:
    """Coefficients of the inversion generating function of the absolute
    Weyl group: the q-factorial prod_i (1 + q + ... + q^i) raised to the
    number of embeddings."""
    poly = [1]
    for i in range(1, n):
        step = [1] * (i + 1)
        poly = mul(poly, step)
    out = [1]
    for _ in range(emb_count):
        out = mul(out, poly)
    return out


def bottom_degree(n: int, emb: Layout) -> int:
    """(n-1) * [k:Q] / 2."""
    return (n - 1) * (emb.degree // 2)


def _restricted_target(w: WeightSystem, emb: Layout, k: int) -> tuple[tuple[int, ...], ...]:
    """Expected torus weight per embedding, in embedding order.

    Variable t_k carries eta - (n-k) at the embedding, variables past k
    carry 1 and earlier ones 0; this is minus the algebraic part of the
    induced torus character at s = 0.
    """
    eta = w.eta()
    n = w.n
    return tuple(
        (0,) * (k - 1) + (eta[pos] - (n - k),) + (1,) * (n - k)
        for pos in range(emb.degree)
    )


def distinguished_weyl(
    w: WeightSystem, emb: Layout, k: int, full_scan: bool = False
) -> tuple[WeylElement, dict]:
    """The closed-form element w(k) plus a uniqueness certificate.

    Per embedding the element is the inverse cycle (k ... n) where eta <= 0
    and the cycle (1 ... k) where eta >= n.  The certificate scans all
    absolute Weyl elements of bottom degree (or the full group when
    ``full_scan``) and checks that exactly one of them has the induced
    character target as its torus weight at every embedding.

    The target at an embedding depends only on its eta value, so the
    weight is decided once per (distinct eta value, permutation a
    candidate can hold): those of length at most the bottom degree, or
    all of S_n when ``full_scan``.  Each decision computes the
    permutation's inverted pairs once and the weight with
    ``_line_weight_component`` (the formula ``make_line`` uses) from the
    eta value's dual highest weight, computed once per call, and the
    hits form a table that lives for this call only.  Each candidate is
    then looked up one embedding at a time and dropped at its first miss;
    it matches only when every embedding hits.  Every candidate is
    visited, so ``scanned`` and ``matches`` are exact counts.  A
    candidate stays a tuple of components: no ``WeylElement``, line,
    wedge monomial or sort is built for it.
    """
    n = w.n
    if not 1 <= k <= n:
        raise ConfigError("k out of range")
    c_n = bottom_degree(n, emb)
    weyl_count(n, emb.degree, None if full_scan else c_n)
    eta = w.eta()
    comps = []
    for pos in range(emb.degree):
        if eta[pos] <= 0:
            comps.append(invert_oneline(cycle_oneline(k, n, n)))
        elif eta[pos] >= n:
            comps.append(cycle_oneline(1, k, n))
        else:
            raise ConfigError(f"eta = {eta[pos]} admits no closed form")
    element = WeylElement(components=tuple(comps))

    target = _restricted_target(w, emb, k)
    wanted = {eta[pos]: target[pos] for pos in range(emb.degree)}
    bases = {value: _dual_highest_weight(value, n) for value in wanted}
    hits: dict[int, set[OneLine]] = {value: set() for value in wanted}
    for length, perms in _permutations_by_length(n):
        if full_scan or length <= c_n:
            for c in perms:
                pairs = inverted_pairs(c)
                for value, weight in wanted.items():
                    if _line_weight_component(c, pairs, bases[value]) == weight:
                        hits[value].add(c)
    allowed = [hits[eta[pos]] for pos in range(emb.degree)]
    matches = []
    scanned = 0
    if full_scan:
        candidates = itertools.product(
            itertools.permutations(range(1, n + 1)), repeat=emb.degree
        )
    else:
        candidates = _elements_of_length(n, emb.degree, c_n)
    for cand in candidates:
        scanned += 1
        for c, hit in zip(cand, allowed):
            if c not in hit:
                break
        else:
            matches.append(cand)
    if len(matches) != 1:
        raise UniquenessFailed(
            f"scan found {len(matches)} matching elements (scanned {scanned})"
        )
    if matches[0] != element.components:
        raise UniquenessFailed("closed form disagrees with the scan match")
    certificate = {
        "scanned": scanned,
        "matches": 1,
        "length": element.length(),
        "bottom_degree": c_n,
        "full_scan": full_scan,
    }
    return element, certificate


# -- generator monomials and Galois signs --------------------------------------


def omega_monomial(w: WeightSystem, emb: Layout, k: int) -> WedgeMonomial:
    """The generator wedge monomial of the degree-k induced model.

    For each embedding with eta <= 0 (taken in embedding order) the block
    is the k-th-column covectors at the conjugate embedding followed by
    the k-th-row covectors at the embedding itself.  The monomial is
    stored canonically sorted; the sign records the parity of sorting
    this defining arrangement.  ConfigError, before any label is built,
    when the monomial would hold more than MAX_WEDGE_LABELS labels.
    """
    n = w.n
    eta = w.eta()
    count = (n - 1) * sum(1 for pos in range(emb.degree) if eta[pos] <= 0)
    if count > MAX_WEDGE_LABELS:
        raise ConfigError(f"the generator monomial has {count} labels, above the limit of {MAX_WEDGE_LABELS}")
    labels = []
    for pos in range(emb.degree):
        if eta[pos] <= 0:
            bar = emb.conj(pos)
            if eta[bar] < n:
                raise ConfigError("two-sided condition fails at a pair")
            labels.extend((t, k, bar) for t in range(1, k))
            labels.extend((k, t, pos) for t in range(k + 1, n + 1))
    return WedgeMonomial.from_labels(labels)


def wedge_sigma_sign(m: WedgeMonomial, g: GaloisPermutation, emb: Layout) -> int:
    """Parity of re-sorting the monomial after relabeling embeddings by g.

    The monomial must be in canonical (sorted) label order; the returned
    sign is the signature of the permutation that restores sorted order
    after each label (i, j, e) is moved to (i, j, g(e)).
    """
    if list(m.labels) != sorted(m.labels, key=lambda l: (l[2], l[0], l[1])):
        raise ValueError("monomial labels are not sorted")
    return sigma_on_monomial(m, g, emb).sign * m.sign


def sigma_on_monomial(m: WedgeMonomial, g: GaloisPermutation, emb: Layout) -> WedgeMonomial:
    """The relabeled monomial in canonical form, sign tracked."""
    g.validate(emb)
    return WedgeMonomial.from_labels(
        [(i, j, g(e)) for (i, j, e) in m.labels], sign=m.sign
    )


def omega_transfer_sign(
    w: WeightSystem, emb: Layout, k: int, g: GaloisPermutation
) -> int:
    """Coefficient (+-1) taking the relabeled generator monomial to the
    generator monomial of the twisted weight data.

    This is the sign through which an embedding permutation acts on the
    bottom-degree generator line, with the defining arrangements of both
    source and target taken into account.  It is independent of k (tested
    property), which is the content of the normalized-operator
    equivariance square.
    """
    src = omega_monomial(w, emb, k)
    dst = omega_monomial(sigma_twist(w, g), emb, k)
    # an admissible g commutes with conj, so the relabeled monomial has dst's labels
    return sigma_on_monomial(src, g, emb).sign * dst.sign


# -- order/fiber factorization --------------------------------------------------


def sigma_decompose(
    g: GaloisPermutation, emb: Layout
) -> tuple[GaloisPermutation, GaloisPermutation, int]:
    """Factor g = s2 o s1 with s1 order-preserving between fibers and s2
    fiber-trivial; returns (s1, s2, signature of s2 on the embeddings)."""
    descended = g.descended_k1(emb)
    fibers = emb.fibers()
    s1 = [0] * emb.degree
    # every fiber has [k:k1] members, and s1 moves fiber t to fiber
    # descended[t] as g does, so s2 fixes every fiber
    for t, members in fibers.items():
        for a, b in zip(members, fibers[descended[t]]):
            s1[a] = b
    s1p = GaloisPermutation(tuple(s1))
    s2p = g.compose(s1p.inverse())
    return s1p, s2p, s2p.sign()
