"""The four benchmark workloads: inputs from a seed, the timed call, and
an independent checker for every output.

Each workload is a fixed list of checks.  The seed only decides what the
list holds where the workload draws inputs (exact-arith) and the order in
which the list is run; every pass runs the whole list, so the mix of
checks is the same at any speed.  ``periodlab`` is imported inside
``setup`` so that set-up time includes the imports.

The checkers recompute the expected result from the paper's closed forms
with code of their own and never call the function under test.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> dict:
    """Environment for a fresh interpreter that imports periodlab from src/."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# -- weyl-certify -----------------------------------------------------------------


DEG4_TOWER = dict(base_disc=1, extension_poly=(-2, 0, 1))  # x^2 - 2 over Q(i)
DEG4 = 4  # [k:Q] of that tower


def cycle(a: int, b: int, n: int) -> tuple[int, ...]:
    """One-line form of the cycle (a a+1 ... b) in S_n."""
    images = {i: i for i in range(1, n + 1)}
    for i in range(a, b):
        images[i] = i + 1
    images[b] = a
    return tuple(images[i] for i in range(1, n + 1))


def inverse(w: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(1, len(w) + 1), key=lambda i: w[i - 1]))


def inversion_count(w: tuple[int, ...]) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def weyl_closed_form(eta: dict[int, int], n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The paper's w(k): the inverse cycle (k ... n) where eta <= 0 and the
    cycle (1 ... k) where eta >= n, embedding by embedding."""
    return tuple(
        inverse(cycle(k, n, n)) if eta[pos] <= 0 else cycle(1, k, n)
        for pos in range(len(eta))
    )


def check_weyl(inp, out) -> bool:
    eta, n, k = inp[0], inp[1], inp[2]
    element, cert = out
    lengths = sum(inversion_count(c) for c in element.components)
    return (
        tuple(element.components) == weyl_closed_form(eta, n, k)
        and cert["matches"] == 1
        and lengths == (n - 1) * DEG4 // 2
    )


class WeylCertify:
    """One uniqueness certificate of the distinguished Weyl element per
    check: the degree-4 tower, n = 3, every k, over criterion 3's two-sided
    eta grid with entries in [-4, 4] (1,200 certificates)."""

    n = 3
    bound = 4
    rss_of = "self"
    check = staticmethod(check_weyl)

    def setup(self, seed: int) -> list:
        from periodlab import cmfield, weights, weylkostant

        self._wk = weylkostant
        self.emb = cmfield.build_field(cmfield.FieldTower(**DEG4_TOWER), 50)
        n = self.n
        one_way = [(lo, hi) for lo in range(-self.bound, 1) for hi in range(n, self.bound + 1)]
        per_pair = one_way + [(hi, lo) for lo, hi in one_way]
        inputs = []
        for combo in itertools.product(per_pair, repeat=len(self.emb.pairs())):
            eta = {}
            for (iv, ivb), (a, b) in zip(self.emb.pairs(), combo):
                eta[iv], eta[ivb] = a, b
            system = weights.weight_system_from_eta(n, eta)
            inputs.extend((eta, n, k, system) for k in range(1, n + 1))
        random.Random(seed).shuffle(inputs)
        return inputs

    def run(self, inp):
        return self._wk.distinguished_weyl(inp[3], self.emb, inp[2])


# -- arch-quad --------------------------------------------------------------------


ARCH_N, ARCH_K = 3, 1  # slice dimension n - k = 2
ARCH_ETA_PAIRS = [(0, 3), (-1, 3), (0, 4), (-1, 4), (-2, 3), (-2, 5)]
ARCH_S = [1.0, 2.0, 1.5 + 0.5j]


def shift_ratio_product(s: complex, eta_high: int, m: int) -> complex:
    """prod_{t=1..m} 2 pi / (s + eta_high - t)."""
    out = complex(1)
    for t in range(1, m + 1):
        out *= 2 * math.pi / (s + eta_high - t)
    return out


def arch_betas(n: int, m: int) -> list[tuple[int, ...]]:
    """beta0 = (0, ..., 0, m) and criterion 2's two off-target betas."""
    beta0 = (0,) * (n - 1) + (m,)
    off = [(1,) + (0,) * (n - 2) + (m - 1,), (0, 1) + (0,) * (n - 3) + (m - 1,)]
    return [beta0] + off


def check_arch(inp, out) -> bool:
    (lo, hi), beta, s = inp
    m = ARCH_N - ARCH_K
    product = shift_ratio_product(s, hi, m)
    if beta == (0,) * (ARCH_N - 1) + (hi - lo,):
        return abs(out.value - product) <= 1e-6 * abs(product)
    return abs(out.value) <= 1e-8 * abs(product)


class ArchQuad:
    """One archimedean intertwining integral per check at slice dimension
    2: criterion 2's six eta pairs x three s values x (beta0 and two
    off-target betas), 54 integrals."""

    rss_of = "self"
    check = staticmethod(check_arch)

    def setup(self, seed: int) -> list:
        from periodlab import intertwine

        self._it = intertwine
        inputs = [
            ((lo, hi), beta, s)
            for lo, hi in ARCH_ETA_PAIRS
            for s in ARCH_S
            for beta in arch_betas(ARCH_N, hi - lo)
        ]
        random.Random(seed).shuffle(inputs)
        return inputs

    def run(self, inp):
        eta_pair, beta, s = inp
        return self._it.arch_intertwining(ARCH_N, ARCH_K, eta_pair, beta, complex(s))


# -- exact-arith -------------------------------------------------------------------


EXACT_ORDER = 336  # phi(336) = 96
EXACT_Q = (2, 3, 5)
EXACT_DRAWS = 4  # exponents j drawn per (n, k, q)
# Points X where the ratio is read; all lie well inside |X| < 1/2 and away
# from every pole 1/(a q^(n-k)).
EXACT_X = (0.3, 0.21 + 0.17j, -0.05 - 0.26j)


def lratio_closed_form(a: complex, q: int, m: int, x: complex) -> complex:
    """(1 - a X) / (1 - a q^m X) in complex floats."""
    return (1 - a * x) / (1 - a * q**m * x)


def check_exact(inp, out) -> bool:
    n, k, q, j = inp
    if not out.verdict:
        return False
    a = cmath.exp(2j * math.pi * j / EXACT_ORDER)
    for x in EXACT_X:
        expected = lratio_closed_form(a, q, n - k, x)
        if not abs(out.value.evaluate(x) - expected) <= 1e-9 * abs(expected):
            return False
    return True


class ExactArith:
    """One exact shell-sum identity per check over Q(zeta_336): every
    1 <= k < n <= 4, q in {2, 3, 5}, four seeded exponents j per triple for
    a = zeta_336^j (72 identities)."""

    rss_of = "self"
    check = staticmethod(check_exact)

    def setup(self, seed: int) -> list:
        from periodlab import intertwine
        from periodlab.cyclotomic import Cyc

        self._it = intertwine
        rng = random.Random(seed)
        inputs = []
        for n in (2, 3, 4):
            for k in range(1, n):
                for q in EXACT_Q:
                    for j in rng.sample(range(1, EXACT_ORDER), EXACT_DRAWS):
                        inputs.append((n, k, q, j))
        rng.shuffle(inputs)
        self._a = {j: Cyc.zeta(EXACT_ORDER, j) for (_, _, _, j) in inputs}
        return inputs

    def run(self, inp):
        n, k, q, j = inp
        return self._it.nonarch_intertwining(n, k, self._a[j], q)


# -- cli-cold ----------------------------------------------------------------------


QI_CONFIG = str(ROOT / "configs" / "qi.json")  # d = 1, k = Q(i), [k:Q] = 2
QI_DEGREE = 2

# The ten commands of the README's CLI section.
README_COMMANDS = [
    ["--config", QI_CONFIG, "field-check"],
    ["--config", QI_CONFIG, "balanced", "--oracle"],
    ["--config", QI_CONFIG, "kostant", "--n", "2", "--p", "1"],
    ["--config", QI_CONFIG, "find-wk", "--n", "2", "--k", "2", "--eta", "0,2"],
    ["--config", QI_CONFIG, "wedge-sign", "--n", "3", "--k", "2", "--g", "conj"],
    ["gauss", "--q", "7", "--chi-order", "6", "--chi-index", "2"],
    ["lratio", "--n", "3", "--k", "1", "--a", "12,5", "--q", "2"],
    ["intertwine-nonarch", "--n", "4", "--k", "2", "--a", "12,1", "--q", "5"],
    ["intertwine-arch", "--n", "2", "--k", "1", "--eta", "0,2", "--beta", "0,2", "--s", "1"],
    ["--config", QI_CONFIG, "constant-term", "--n", "3", "--ord0", "pos"],
]


def mahonian(n: int) -> list[int]:
    """Number of permutations of S_n by inversion count."""
    row = [1]
    for size in range(2, n + 1):
        nxt = [0] * (len(row) + size - 1)
        for inv, count in enumerate(row):
            for extra in range(size):
                nxt[inv + extra] += count
        row = nxt
    return row


def kostant_line_count(n: int, embeddings: int, p: int) -> int:
    """Coefficient of q^p in the Mahonian polynomial of S_n to the power
    ``embeddings``: the number of absolute Weyl elements of length p."""
    poly = [1]
    for _ in range(embeddings):
        base = mahonian(n)
        out = [0] * (len(poly) + len(base) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(base):
                out[i + j] += x * y
        poly = out
    return poly[p] if p < len(poly) else 0


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _record(report: dict, name: str) -> dict:
    return next(r for r in report["records"] if r["name"] == name)


def check_cli(argv: list[str], out) -> bool:
    """Exit status 0, a report with no failing record, and the values the
    harness can compute itself for gauss, intertwine-arch and kostant."""
    returncode, stdout = out
    if returncode != 0:
        return False
    try:
        report = json.loads(stdout)
        if report["summary"]["fail"] != 0:
            return False
        command = report["command"]
        if command == "gauss":
            g = complex(_record(report, "value_float")["got"].replace("i", "j"))
            return abs(abs(g) ** 2 - int(_flag(argv, "--q"))) <= 1e-9
        if command == "intertwine-arch":
            n, k = int(_flag(argv, "--n")), int(_flag(argv, "--k"))
            eta_high = int(_flag(argv, "--eta").split(",")[1])
            expected = shift_ratio_product(complex(float(_flag(argv, "--s"))), eta_high, n - k)
            got = complex(_record(report, "integral")["got"].replace("i", "j"))
            return abs(got - expected) <= 1e-6 * abs(expected)
        if command == "kostant":
            expected = kostant_line_count(
                int(_flag(argv, "--n")), QI_DEGREE, int(_flag(argv, "--p"))
            )
            lines = sum(1 for r in report["records"] if r["name"][5:].isdigit())
            return _record(report, "line_count")["got"] == expected and lines == expected
        return True
    except (ValueError, KeyError, StopIteration, TypeError):
        return False


class CliCold:
    """One fresh ``python -m periodlab.cli`` process per check, the ten
    README commands in turn."""

    rss_of = "children"
    check = staticmethod(check_cli)

    def setup(self, seed: int) -> list:
        import periodlab.cli  # noqa: F401  (set-up of this workload is the CLI import)

        self._env = child_env()
        inputs = [list(argv) for argv in README_COMMANDS]
        random.Random(seed).shuffle(inputs)
        return inputs

    def run(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "periodlab.cli", *argv],
            cwd=ROOT, env=self._env, capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout


WORKLOADS = {
    "weyl-certify": WeylCertify,
    "arch-quad": ArchQuad,
    "exact-arith": ExactArith,
    "cli-cold": CliCold,
}
