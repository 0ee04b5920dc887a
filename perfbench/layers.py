"""Reference figures for single layers, one case per row.

    python3 perfbench/layers.py

Each case is timed in this process for at least SECONDS_PER_CASE (and at
least three repetitions) with the harness's reference loop run
after every repetition; the table gives the median time of one call and
that median in reference-loop units.  These figures are for the README;
they are not part of the gated benchmark.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from run import reference_loop  # noqa: E402

sys.path.insert(0, str(workloads.SRC))

from periodlab import cmfield, intertwine, lfactors, weights, weylkostant  # noqa: E402
from periodlab.cyclotomic import Cyc, cyclotomic_polynomial  # noqa: E402

SECONDS_PER_CASE = 2.0
TOWERS = {
    "deg2": cmfield.FieldTower(base_disc=1, extension_poly=(0, 1)),
    "deg4": cmfield.FieldTower(base_disc=1, extension_poly=(-2, 0, 1)),
    "deg6": cmfield.FieldTower(base_disc=1, extension_poly=(-2, 0, 0, 1)),
}


def dense_cyc(n: int, rng: random.Random) -> Cyc:
    deg = len(cyclotomic_polynomial(n)) - 1
    return Cyc(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg)])


def cases():
    rng = random.Random(2024)
    for n in (12, 336):
        a, b = dense_cyc(n, rng), dense_cyc(n, rng)
        yield f"Cyc mul, N = {n} (dense operands)", lambda a=a, b=b: a * b
        # the shape the L-factor ratios invert: 1 - q^m zeta^j
        two_term = Cyc.rational(1, n) - Cyc.zeta(n, 5) * 125
        yield f"Cyc inverse, N = {n} (1 - 125 zeta^5)", two_term.inverse
    # A dense operand at N = 336 is left out: its inverse ran for over 60 s
    # without finishing.
    yield "Cyc inverse, N = 12 (dense operand)", dense_cyc(12, rng).inverse
    for prec in (50, 100, 200):
        yield f"build_field deg4, precision {prec}", (
            lambda p=prec: cmfield.build_field(TOWERS["deg4"], p))
    for q in (49, 125, 243):
        spec = lfactors.GaussSumSpec(q=q, chi_order=q - 1, chi_index=1)
        yield f"gauss_sum q = {q}", lambda spec=spec: lfactors.gauss_sum(spec)
    for n in (2, 3, 4):
        for s in (2.0, 1.5 + 0.5j):
            beta0 = (0,) * (n - 1) + (n,)
            yield (f"arch_intertwining dim {n - 1}, s = {s}",
                   lambda n=n, s=s, b=beta0: intertwine.arch_intertwining(n, 1, (0, n), b, complex(s)))
    for name in ("deg2", "deg4", "deg6"):
        emb = cmfield.build_field(TOWERS[name], 50)
        n = 3
        eta = {i: (0 if i in emb.cm_type else n) for i in range(emb.degree)}
        w = weights.weight_system_from_eta(n, eta)
        yield (f"distinguished_weyl {name}, n = 3, k = 2",
               lambda w=w, emb=emb: weylkostant.distinguished_weyl(w, emb, 2))


def main() -> int:
    print("| case | reps | median ms | median ref units |")
    print("|---|---|---|---|")
    for label, fn in cases():
        call_s, ref_s = [], []
        start = time.perf_counter()
        while len(call_s) < 3 or time.perf_counter() - start < SECONDS_PER_CASE:
            t0 = time.perf_counter()
            fn()
            call_s.append(time.perf_counter() - t0)
            r0 = time.perf_counter()
            reference_loop()
            ref_s.append(time.perf_counter() - r0)
        med = statistics.median(call_s)
        print(f"| {label} | {len(call_s)} | {med * 1000:.3f} | "
              f"{med / statistics.median(ref_s):.1f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
