"""periodlab: a verification laboratory for the computational kernels behind
degenerate Eisenstein constant terms.

The package checks, against independent oracles, the explicit objects that
enter constant-term and rationality computations for GL(n) x GL(n)
convolutions over fields containing a CM subfield:

* ``towers``      -- tower declarations and the index layout of their
                     embeddings (conjugation, restriction, CM type), checked
                     exactly by Sturm chains; Galois permutation shadows;
                     the constant Delta, exact and as a correctly
                     rounded double;
* ``cmfield``     -- numeric embeddings on that layout, the constant Nabla
                     and the square-root discriminant identity;
* ``weights``     -- integer calculus on dominant weights and character
                     infinity types (regularity, the two-sided sign
                     condition, the balanced predicate, archimedean units);
* ``charpeel``    -- the slow independent oracle for the balanced
                     predicate, by peeling product characters;
* ``weylkostant`` -- Weyl-group combinatorics: nilpotent-cohomology
                     lines, the distinguished bottom-degree element, wedge
                     monomials and Galois relabeling signs;
* ``intpoly``     -- integers and integer polynomials: factorization,
                     product, pseudo-division and Sturm chains;
* ``cyclotomic``  -- exact arithmetic in cyclotomic fields Q(zeta_N);
* ``laurent``     -- polynomials and ratios in X = q^{-s} over Q(zeta_N);
                     ratios with equal denominators compare their
                     numerators, other ratios cross-multiply, and the
                     reduced form is computed only to print a ratio, by
                     one pseudo-division that inverts no coefficient;
* ``lfactors``    -- exact local L-factor ratios, Gamma_C shift ratios,
                     finite-field Gauss sums, vanishing-order tokens and
                     the normalizing factor they select;
* ``intertwine``  -- spherical shell sums (non-archimedean), numerical
                     intertwining integrals (complex places) and the
                     symbolic constant-term assembly, audited by
                     checking its normalizing branch against the token;
* ``quadrature``  -- the double-exponential rules behind the complex-place
                     integrals, with an independent polar check of each;
* ``errors``      -- the package's exception classes, all under PeriodLabError;
* ``cli``         -- command-line front end emitting verification reports.
"""

__version__ = "0.1.0"

# Default denominator bound of rational reconstruction (``cmfield``) and of
# the CLI's --max-den; kept here so the CLI reads it without loading mpmath.
DEFAULT_MAX_DENOMINATOR = 10**4
