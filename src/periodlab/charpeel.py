"""Character-peeling oracle for tensor-product multiplicities.

Deliberately slower and independent of the Pieri fast path in
``weights``: characters of irreducible GL(n, C) representations are
expanded as honest Laurent polynomials (Schur polynomials computed by
enumerating semistandard tableaux, shifted by determinant powers for
weights with negative entries).  The trivial representation occurs in
F_1 (x) F_2 (x) F_3 (x) F_4 as often as the dual F_big* of the factor of
largest dimension occurs in the product of the other three.  So only
those three characters are multiplied, and irreducible characters are
peeled off the lexicographically highest surviving weight until the
leader falls below the highest weight of F_big*.

``balanced_at_oracle`` computes the Weyl dimensions of the four factors,
as exact integers, before any tableau is built, and raises ConfigError
when the product of the three smaller ones, times n plus the cells of
their shapes (each monomial is an n-tuple, each tableau is filled cell
by cell), is above MAX_PEEL_WORK.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def schur_polynomial(shape: tuple[int, ...], n: int) -> dict[tuple[int, ...], int]:
    """Monomial expansion of the Schur polynomial s_shape(x_1..x_n).

    Enumerates semistandard tableaux with entries in 1..n by backtracking
    over the cells in reading order, with no recursion; each tableau
    contributes its content vector.  A cell with h cells below it in its
    column takes at most n - h, and every filling within these caps
    completes, so the search visits no dead end.
    """
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)) or shape[-1] < 0:
        raise ValueError(f"{shape} is not a partition")
    # cells in reading order; left[i] and up[i] index the neighbours'
    # values, or the sentinels vals[size] = 1 and vals[size + 1] = 0
    size = sum(shape)
    if not size:
        return {(0,) * n: 1}
    height = [sum(1 for length in shape if length > c) for c in range(shape[0])]
    left, up, cap = [], [], []
    start = above = 0  # first cells of this row and of the row above
    for r, length in enumerate(shape):
        for c in range(length):
            left.append(start + c - 1 if c else size)
            up.append(above + c if r else size + 1)
            cap.append(n - (height[c] - 1 - r))
        above, start = start, start + length
    vals = [0] * size + [1, 0]  # 0: cell not filled
    content = [0] * n
    result: dict[tuple[int, ...], int] = {}
    i = 0
    while i >= 0:
        v = vals[i]
        if v:
            content[v - 1] -= 1
        # weakly above the left neighbour, strictly above the cell above
        v = max(v + 1, vals[left[i]], vals[up[i]] + 1)
        if v > cap[i]:
            vals[i] = 0
            i -= 1
            continue
        vals[i] = v
        content[v - 1] += 1
        if i + 1 < size:
            i += 1
        else:
            key = tuple(content)
            result[key] = result.get(key, 0) + 1
    return result


def character(weight: tuple[int, ...], n: int) -> dict[tuple[int, ...], int]:
    """Laurent character of the irreducible of dominant integer weight:
    the Schur polynomial of weight - weight[-1] times det^weight[-1]."""
    shift = weight[-1]
    shape = tuple(w - shift for w in weight)
    monos = schur_polynomial(shape, n)
    if shift == 0:
        return dict(monos)
    return {tuple(e + shift for e in k): v for k, v in monos.items()}


def product_character(factors) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] | None = None
    for f in factors:
        if out is None:
            out = dict(f)
            continue
        nxt: dict[tuple[int, ...], int] = {}
        for e1, c1 in out.items():
            for e2, c2 in f.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                nxt[key] = nxt.get(key, 0) + c1 * c2
        out = nxt
    return out or {}


# Largest work estimate of one oracle point (see balanced_at_oracle),
# fitted by timing: 0.16-0.6 us per step over points with n <= 10, so an
# admitted point takes at most about 0.6 s on a 2-vCPU host; a fresh
# `balanced --oracle` at mu = (998, 0), nu = (0, -998) over Q(i) takes 0.7 s.
MAX_PEEL_WORK = 10**6


def dimension(weight: tuple[int, ...], cap: int) -> int:
    """Weyl dimension prod_{i<j} (w_i - w_j + j - i) / (j - i) of the
    irreducible of dominant ``weight``, as an exact integer; a value above
    ``cap`` once a partial product exceeds it, since every factor is at
    least 1.  Pairs of equal entries (factor 1) are skipped by runs."""
    from fractions import Fraction

    n = len(weight)
    dim = Fraction(1)
    run_end = n
    for i in range(n - 1, -1, -1):
        if i + 1 < n and weight[i] != weight[i + 1]:
            run_end = i + 1
        for j in range(run_end, n):
            dim *= Fraction(weight[i] - weight[j] + j - i, j - i)
            if dim > cap:
                return cap + 1
    return int(dim)


def multiplicity(target: tuple[int, ...], factors, n: int) -> int:
    """Multiplicity of the irreducible of highest weight ``target`` in the
    tensor product of the irreducibles of the dominant weights ``factors``.

    Peels weights in decreasing lexicographic order until ``target`` or a
    weight below it: the highest surviving weight is the highest weight
    of a constituent, and every weight of a constituent is a weight of the
    product, so the support is sorted once and never grows.
    """
    poly = product_character(character(w, n) for w in factors)
    for leader in sorted(poly, reverse=True):
        if leader <= target:
            return poly[leader] if leader == target else 0
        coeff = poly[leader]
        if coeff:
            for e, c in character(leader, n).items():
                poly[e] -= coeff * c
    return 0


def balanced_at_oracle(
    mu: tuple[int, ...], nu: tuple[int, ...], chi: int, eta_value: int, n: int
) -> bool:
    """Brute-force balanced test at one embedding via character peeling;
    ConfigError, before any tableau is built, above MAX_PEEL_WORK."""
    from .errors import ConfigError
    from .weights import highest_weight_from_eta

    factors = [mu, nu, highest_weight_from_eta(eta_value, n), (chi,) * n]
    dims = [dimension(w, MAX_PEEL_WORK) for w in factors]
    big = factors.pop(dims.index(max(dims)))
    dims.remove(max(dims))
    # each monomial is an n-tuple, and each tableau of the product's
    # constituents has at most as many cells as the factors' shapes
    work = n + sum(sum(w) - n * w[-1] for w in factors)
    for d in dims:
        work *= d
    if work > MAX_PEEL_WORK:
        raise ConfigError(
            f"character peeling at n = {n} needs more than {MAX_PEEL_WORK} steps, the limit"
        )
    return multiplicity(tuple(-x for x in reversed(big)), factors, n) >= 1
