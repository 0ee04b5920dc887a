"""Command-line front end.

Subcommands run one verification suite each and emit a report: an inputs
echo, one record per check (name, expected, got, tolerance, verdict) and
summary counts.  Output is deterministic: stable key order, floats try
15 significant digits, no timestamps.  Exit status is 0 exactly when
every record passes and no error occurred.  The class of an error decides
the rest (see ``errors``): a handler records only its own check's failure
class, as a failing record (exit 1), and ``main`` alone reports every
other package error with one ``error:`` line (exit 2).

Structured configs are JSON files; see README for the schema.  Flags
override config scalars.  The global flags (--format, --config,
--precision, --tol, --max-den) may come before or after the subcommand;
one written after it wins.  Only field-check reads --precision and
--max-den, and only intertwine-arch reads --tol.

Importing this module loads no periodlab layer: the prologue in ``main``
and each handler import the layers they run, so a subcommand loads only
what it uses.  The records here and in the layers are plain classes, so
no command loads ``dataclasses``.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import operator
import re
import sys

from . import DEFAULT_MAX_DENOMINATOR
from .errors import AuditFailed, ConfigError, PeriodLabError, ReconstructionFailed, UniquenessFailed


# -- report plumbing ------------------------------------------------------------


def fmt_value(v) -> object:
    """Canonical JSON-friendly rendering with 15 significant digits."""
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    # a Fraction exists only once fractions is loaded: no import for the float paths
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(v, fractions.Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 else str(v.numerator)
    if isinstance(v, float):
        return f"{v:.15g}"
    if isinstance(v, complex):
        return f"{v.real:.15g}{v.imag:+.15g}i"
    if isinstance(v, (tuple, list)):
        return [fmt_value(x) for x in v]
    if isinstance(v, dict):
        return {str(k): fmt_value(x) for k, x in sorted(v.items(), key=lambda kv: str(kv[0]))}
    raise TypeError(f"no report rendering for {type(v).__name__}")


class Record:
    def __init__(self, name: str, expected, got, tolerance, verdict: bool) -> None:
        self.name = name
        self.expected = expected
        self.got = got
        self.tolerance = tolerance
        self.verdict = verdict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "expected": fmt_value(self.expected),
            "got": fmt_value(self.got),
            "tolerance": fmt_value(self.tolerance),
            "verdict": "pass" if self.verdict else "fail",
        }


class Report:
    def __init__(self, command: str, inputs: dict) -> None:
        self.command = command
        self.inputs = inputs
        self.records: list[Record] = []

    def add(self, name, expected, got, tolerance=0, verdict=None) -> None:
        if verdict is None:
            verdict = expected == got
        self.records.append(Record(name, expected, got, tolerance, verdict))

    def summary(self) -> dict:
        passed = sum(1 for r in self.records if r.verdict)
        return {"pass": passed, "fail": len(self.records) - passed, "total": len(self.records)}

    def all_pass(self) -> bool:
        return all(r.verdict for r in self.records)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": fmt_value(self.inputs),
            "records": [r.to_dict() for r in self.records],
            "summary": self.summary(),
        }


def render(report: Report, fmt: str = "records") -> str:
    """Deterministic serialization: 'records' is JSON, and 'table', the only
    other ``--format`` choice, is aligned text."""
    if fmt == "records":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    doc = report.to_dict()
    headers = ["name", "expected", "got", "tolerance", "verdict"]
    rows = [[str(r[h]) for h in headers] for r in doc["records"]]
    widths = [
        max([len(h)] + [len(row[i]) for row in rows]) for i, h in enumerate(headers)
    ]
    lines = [f"# {doc['command']}"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    s = doc["summary"]
    lines.append(f"summary: {s['pass']} pass / {s['fail']} fail / {s['total']} total")
    return "\n".join(lines) + "\n"


# -- config ---------------------------------------------------------------------


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def field_config(cfg: dict, read):
    """read(the config's field section), a malformed entry a ConfigError."""
    if "field" not in cfg:
        raise ConfigError("config lacks a 'field' section")
    try:
        return read(cfg["field"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad field config: {exc}") from None


def weight_points(cfg: dict, degree: int) -> list[weights.WeightSystem]:
    """Explicit points, or the dominant grid over all ``degree`` embeddings
    of the field, from the config."""
    from . import weights

    wc = cfg.get("weights")
    if wc is None:
        raise ConfigError("config lacks a 'weights' section")
    try:
        n = int(wc["n"])
        if n < 2:
            raise ConfigError(f"weights.n must be at least 2, got {n}")
        if "points" in wc:
            points = [
                weights.WeightSystem(
                    n=n,
                    mu={int(i): tuple(v) for i, v in pt["mu"].items()},
                    nu={int(i): tuple(v) for i, v in pt["nu"].items()},
                    chi={int(i): int(v) for i, v in pt["chi"].items()},
                )
                for pt in wc["points"]
            ]
            if any(w.embeddings() != list(range(degree)) for w in points):
                raise ConfigError(f"each weight point must be keyed by the embeddings 0..{degree - 1}")
        elif "grid" in wc:
            grid = wc["grid"]
            if grid.get("embeddings") != degree:
                raise ConfigError(
                    f"weights.grid.embeddings must equal the field degree {degree}, "
                    f"got {grid.get('embeddings')!r}"
                )
            points = weights.grid(n, int(grid["entry_bound"]), degree)
        else:
            raise ConfigError("weights section needs 'points' or 'grid'")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"bad weights: {type(exc).__name__}: {exc}") from None
    return points


def parse_unit(spec: str) -> tuple[int, int]:
    """Character value spec 'order,index' -> (order, index)."""
    try:
        order, index = (int(x) for x in spec.split(","))
    except ValueError:
        raise ConfigError(f"bad root-of-unity spec {spec!r}; expected 'order,index'") from None
    if order < 1:
        raise ConfigError(f"bad root-of-unity spec {spec!r}; the order must be at least 1")
    return order, index


# Most decimal digits of q^(n-k), which lratio and intertwine-nonarch print.
MAX_POWER_DIGITS = 1000
# Largest work estimate of lratio and intertwine-nonarch (see check_local_work).
MAX_LOCAL_WORK = 2 * 10**8


def check_local_work(args, order: int, telescoping: bool) -> None:
    """Refuse an lratio or intertwine-nonarch run before any work: a root
    of unity of an order N that cyclotomic.check_order refuses, a q^(n-k)
    of more than MAX_POWER_DIGITS digits, or a work estimate above
    MAX_LOCAL_WORK.

    With f = phi(N) coordinates per element of Q(zeta_N), m = n - k and D
    the digits of q^m, printing a reduced ratio inverts elements of
    Q(zeta_N) for about f^2 (2 D + 40) steps, and lratio's telescoping
    product of m degree-one ratios (``telescoping``) adds about
    m^3 D^1.5 / 150 steps on the integers of its coefficients.  Every
    factor of that product has the same a = zeta^e, so each coefficient is
    one stored term c zeta^(ie), whatever f is.
    """
    from . import cyclotomic

    f = cyclotomic.check_order(order)
    m = args.n - args.k
    if m > MAX_POWER_DIGITS / math.log10(args.q):  # exact int/float comparison
        raise ConfigError(f"q^(n-k) has more than {MAX_POWER_DIGITS} digits, the limit")
    digits = m * math.log10(args.q)
    work = f * f * (2 * digits + 40)
    if telescoping:
        work += m**3 * digits**1.5 / 150
    if work > MAX_LOCAL_WORK:
        raise ConfigError(f"the work estimate {work:.3g} is above the limit of {MAX_LOCAL_WORK:.0e}")


def parse_ints(spec: str, flag: str) -> tuple[int, ...]:
    """Comma list of integers, e.g. '0,2'."""
    try:
        return tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise ConfigError(f"bad {flag} {spec!r}; expected a comma list of integers") from None


def parse_s(spec: str) -> complex:
    """Finite complex number written 're' or 're,im'."""
    parts = spec.split(",")
    try:
        if len(parts) > 2:
            raise ValueError(spec)
        s = complex(*(float(x) for x in parts))
    except ValueError:
        raise ConfigError(f"bad --s {spec!r}; expected 're' or 're,im'") from None
    if not cmath.isfinite(s):
        raise ConfigError(f"bad --s {spec!r}; s must be finite")
    return s


# Smallest accepted value of each integer flag; --k must also lie in 1..n.
LOWER_BOUNDS = {"n": 1, "p": 0, "q": 2, "chi_order": 1}


def check_flags(args) -> None:
    """Reject out-of-range numeric flags before any work is done."""
    for name, low in LOWER_BOUNDS.items():
        value = getattr(args, name, low)
        if value < low:
            raise ConfigError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")
    if hasattr(args, "k") and not 1 <= args.k <= args.n:
        raise ConfigError(f"--k must lie in 1..{args.n}, got {args.k}")


# -- subcommands ------------------------------------------------------------------
#
# Handlers take the parsed flags.  For the commands that need a field, main
# has already set args.cfg, args.tower and args.emb, the towers.Layout of
# the checked tower, which reads no root; field-check builds its numeric
# field itself.  For those that take --n/--eta main has also set args.w,
# the weight system with that eta.


def cmd_field_check(args) -> Report:
    from . import cmfield, towers

    cfg, tower = args.cfg, args.tower
    precision = field_config(cfg, lambda fc: towers._integer(
        fc.get("precision_digits", cmfield.DEFAULT_PRECISION), "precision_digits"))
    if args.precision is not None:
        precision = args.precision
    cmfield.check_precision(precision, args.max_den)
    emb = cmfield.build_field(tower, precision)
    report = Report("field-check", {
        "d": tower.base_disc,
        "extension_poly": list(tower.extension_poly),
        "precision": precision,
        "k1_maximality_asserted": True,
    })
    report.add("embedding_count", tower.degree_over_q, emb.degree)
    invol = all(emb.conj(emb.conj(i)) == i and emb.conj(i) != i for i in range(emb.degree))
    report.add("conjugation_fixed_point_free_involution", True, invol)
    commutes = all(
        emb.restriction_k1[emb.conj(i)]
        == emb.restriction_k1[emb.conj(j)]
        for i in range(emb.degree)
        for j in range(emb.degree)
        if emb.restriction_k1[i] == emb.restriction_k1[j]
    )
    report.add("restriction_commutes_with_conjugation", True, commutes)
    delta = towers.delta_double(tower)
    report.add("delta_constant", delta, delta)
    k_basis = cfg["field"].get("k_basis")
    try:
        if k_basis is not None:
            k_basis = [cmfield.parse_element(e) for e in k_basis]
        nab, _ = cmfield.disc_constant_upper(emb, basis=k_basis, max_denominator=args.max_den)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad field.k_basis: {exc}") from None
    except ReconstructionFailed as exc:
        nab = None
        report.add("nabla_constant", True, f"error: {exc}", verdict=False)
    else:
        report.add("nabla_constant", complex(nab), complex(nab))
    # the identity uses the power basis: hand over nab when it is that one
    power_nabla = nab if k_basis is None else None
    try:
        c, cert = cmfield.check_discriminant_identity(
            emb, max_denominator=args.max_den, nabla=power_nabla
        )
    except ReconstructionFailed as exc:
        report.add("identity_constant_rational", True, f"error: {exc}", verdict=False)
    else:
        report.add("identity_constant_rational", True, True)
        report.add("identity_constant", c, c)
        report.add("disc_over_q", cert["disc_k"], cert["disc_k"])
    return report


def cmd_balanced(args) -> Report:
    from . import charpeel, weights

    points = weight_points(args.cfg, args.emb.degree)
    report = Report("balanced", {
        "n": points[0].n if points else None,
        "points": len(points),
        "oracle": bool(args.oracle),
    })
    for idx, w in enumerate(points):
        eta = w.eta()
        regular = weights.is_regular_algebraic(eta, w.n)
        two_sided = weights.is_case_pm(eta, w.n, args.emb)
        fast = weights.is_balanced(w, args.emb)
        if args.oracle:
            if regular and two_sided:
                oracle = all(
                    charpeel.balanced_at_oracle(w.mu[i], w.nu[i], w.chi[i], eta[i], w.n)
                    for i in w.embeddings()
                )
            else:
                oracle = False
            report.add(f"point_{idx}", oracle, fast)
        else:
            report.add(f"point_{idx}", fast, fast)
    return report


def cmd_kostant(args) -> Report:
    from . import weylkostant

    w, emb = args.w, args.emb
    report = Report("kostant", {"n": w.n, "eta": w.eta(), "degree": args.p})
    lines = weylkostant.kostant_lines(w, emb, args.p)
    report.add("line_count", weylkostant.weyl_count(w.n, emb.degree, args.p), len(lines))
    for i, line in enumerate(lines):
        desc = {
            "element": line.element.describe(),
            "length": line.degree,
            "torus_weight": [list(t) for t in line.torus_weight],
            "monomial": [list(l) for l in line.wedge.labels],
            "sign": line.wedge.sign,
        }
        report.add(f"line_{i}", desc, desc)
    return report


def _eta_from_args(args) -> dict[int, int]:
    emb, n = args.emb, args.n
    if args.eta is None:
        # default: 0 on the chosen half, n on conjugates
        return {i: (0 if i in emb.cm_type else n) for i in range(emb.degree)}
    vals = parse_ints(args.eta, "--eta")
    if len(vals) == 2 and emb.degree > 2:
        eta = {}
        for iv, ivb in emb.pairs():
            eta[iv], eta[ivb] = vals
        return eta
    if len(vals) != emb.degree:
        raise ConfigError("eta list must match the embedding count (or give a pair)")
    return {i: vals[i] for i in range(emb.degree)}


def cmd_find_wk(args) -> Report:
    from . import weylkostant

    w = args.w
    report = Report("find-wk", {"n": w.n, "k": args.k, "eta": w.eta(), "full_scan": args.full_scan})
    try:
        element, cert = weylkostant.distinguished_weyl(w, args.emb, args.k, full_scan=args.full_scan)
    except UniquenessFailed as exc:
        report.add("unique_match", 1, f"error: {exc}", verdict=False)
    else:
        report.add("element", element.describe(), element.describe())
        report.add("length", cert["bottom_degree"], cert["length"])
        report.add("unique_match", 1, cert["matches"])
    return report


def cmd_wedge_sign(args) -> Report:
    from . import weylkostant

    w, emb, n = args.w, args.emb, args.n
    g = _permutation_from_args(args, emb)
    report = Report("wedge-sign", {"n": n, "k": args.k, "eta": w.eta(), "g": list(g.perm)})
    m = weylkostant.omega_monomial(w, emb, args.k)
    parity = weylkostant.wedge_sigma_sign(m, g, emb)
    transfer = weylkostant.omega_transfer_sign(w, emb, args.k, g)
    _, _, eps = weylkostant.sigma_decompose(g, emb)
    report.add("monomial", [list(l) for l in m.labels], [list(l) for l in m.labels])
    report.add("resort_parity", parity, parity)
    report.add("transfer_sign", eps ** (n - args.k), transfer)
    report.add("epsilon_sigma2", eps, eps)
    return report


def _permutation_from_args(args, emb) -> towers.GaloisPermutation:
    from . import towers

    if args.g == "id":
        return towers.identity_permutation(emb)
    if args.g == "conj":
        return towers.conjugation_permutation(emb)
    try:
        perm = tuple(int(x) for x in args.g.split(","))
    except ValueError:
        raise ConfigError("permutation must be 'id', 'conj' or a 0-based list") from None
    g = towers.GaloisPermutation(perm)
    g.validate(emb)
    return g


def cmd_gauss(args) -> Report:
    from . import cyclotomic, lfactors

    spec = lfactors.GaussSumSpec(q=args.q, chi_order=args.chi_order, chi_index=args.chi_index)
    report = Report("gauss", {"q": args.q, "chi_order": args.chi_order, "chi_index": args.chi_index})
    exact, approx = lfactors.gauss_sum(spec)
    report.add("value_float", approx, approx)
    if spec.is_trivial():
        report.add("trivial_is_minus_one", True, exact.is_rational() and exact.rational_value() == -1)
    else:
        report.add("norm_squared_equals_q", True,
                   exact.norm_squared() == cyclotomic.Cyc.rational(args.q, exact.n))
    return report


def cmd_lratio(args) -> Report:
    from . import cyclotomic, lfactors

    order, index = parse_unit(args.a)
    check_local_work(args, order, telescoping=True)
    a = cyclotomic.Cyc.zeta(order, index)
    report = Report("lratio", {"n": args.n, "k": args.k, "a": [order, index], "q": args.q})
    ratio = lfactors.unramified_lratio(args.n, args.k, a, args.q)
    report.add("ratio", repr(ratio), repr(ratio))
    # L(s-1)/L(s) of the twist with value a q^(n-i-1) is L(s-n+i)/L(s-n+i+1)
    steps = [
        lfactors.unramified_lratio(2, 1, a * args.q ** (args.n - i - 1), args.q)
        for i in range(args.k, args.n)
    ]
    tele = functools.reduce(operator.mul, steps, lfactors.unramified_lratio(args.n, args.n, a, args.q))
    report.add("telescoping_product_matches", True, tele == ratio)
    return report


def cmd_intertwine_nonarch(args) -> Report:
    from . import cyclotomic, intertwine

    order, index = parse_unit(args.a)
    check_local_work(args, order, telescoping=False)
    a = cyclotomic.Cyc.zeta(order, index)
    res = intertwine.nonarch_intertwining(args.n, args.k, a, args.q)
    report = Report(
        "intertwine-nonarch",
        {"n": args.n, "k": args.k, "a": [order, index], "q": args.q},
    )
    report.add("shell_sum", repr(res.target), repr(res.value), verdict=res.verdict)
    return report


def cmd_intertwine_arch(args) -> Report:
    from . import intertwine

    eta_pair = parse_ints(args.eta, "--eta")
    beta = parse_ints(args.beta, "--beta")
    s = parse_s(args.s)
    if len(eta_pair) != 2:
        raise ConfigError(f"bad --eta {args.eta!r}; expected the pair 'low,high'")
    report = Report(
        "intertwine-arch",
        {"n": args.n, "k": args.k, "eta": list(eta_pair), "beta": list(beta), "s": s},
    )
    res = intertwine.arch_intertwining(args.n, args.k, eta_pair, beta, s, args.tol)
    report.add("integral", res.target, res.value, tolerance=res.tolerance, verdict=res.verdict)
    report.add("error_estimate", res.error_estimate, res.error_estimate)
    return report


def cmd_constant_term(args) -> Report:
    from . import intertwine, lfactors, towers

    emb = args.emb
    token = lfactors.VanishingToken(order_zero=0 if args.ord0 == "0" else 1)
    report = Report(
        "constant-term",
        {"n": args.n, "ord0": args.ord0, "degree": emb.degree, "flip_branch": args.flip_branch},
    )
    branch = None
    if args.flip_branch:
        branch = "compensated" if token.order_zero == 0 else "one"
    try:
        entries = intertwine.assemble_constant_term(
            args.n, token, towers.delta_double(args.tower), emb.degree, delta_branch=branch
        )
    except AuditFailed as exc:
        report.add("holomorphic_at_zero", True, f"error: {exc}", verdict=False)
    else:
        report.add("holomorphic_at_zero", True, True)
        for e in entries:
            desc = {
                "lratio": e.lratio_token,
                "prefactor": e.prefactor,
                "delta": e.delta_symbol,
                # the audit returned, so the branch matches the token and
                # its zero cancels the pole of every summand
                "pole_order": 0,
            }
            report.add(f"term_{e.k}", desc, desc)
    return report


# -- driver ----------------------------------------------------------------------

# What main derives from the flags before the handler runs (see above):
# nothing, the index layout, the layout and weights.
NO_FIELD, LAYOUT, WEIGHTS = 0, 1, 2

INT = {"type": int, "required": True}
ETA = {"default": None, "help": "comma list per embedding, or one pair"}
UNIT = {"required": True, "help": "root of unity 'order,index'"}
FLAG = {"action": "store_true"}

# subcommand: (handler, prologue, help, {flag: add_argument keywords})
COMMANDS = {
    "field-check": (cmd_field_check, LAYOUT, "tower invariants and the discriminant identity", {}),
    "balanced": (cmd_balanced, LAYOUT, "balanced predicate over a weight grid", {
        "--oracle": dict(FLAG, help="compare with character peeling"),
    }),
    "kostant": (cmd_kostant, WEIGHTS, "cohomology lines in a given degree", {
        "--n": INT, "--p": INT, "--eta": ETA,
    }),
    "find-wk": (cmd_find_wk, WEIGHTS, "distinguished bottom-degree element", {
        "--n": INT, "--k": INT, "--eta": ETA, "--full-scan": FLAG,
    }),
    "wedge-sign": (cmd_wedge_sign, WEIGHTS, "Galois relabeling signs of generator monomials", {
        "--n": INT, "--k": INT, "--eta": ETA,
        "--g": {"required": True, "help": "'id', 'conj' or 0-based permutation list"},
    }),
    "gauss": (cmd_gauss, NO_FIELD, "finite-field Gauss sum", {
        "--q": INT, "--chi-order": INT, "--chi-index": {"type": int, "default": 1},
    }),
    "lratio": (cmd_lratio, NO_FIELD, "unramified local L-factor ratio", {
        "--n": INT, "--k": INT, "--a": UNIT, "--q": INT,
    }),
    "intertwine-nonarch": (cmd_intertwine_nonarch, NO_FIELD, "shell sum vs product formula", {
        "--n": INT, "--k": INT, "--a": UNIT, "--q": INT,
    }),
    "intertwine-arch": (cmd_intertwine_arch, NO_FIELD, "numerical intertwining integral", {
        "--n": INT, "--k": INT,
        "--eta": {"required": True, "help": "pair 'low,high'"},
        "--beta": {"required": True, "help": "comma list of exponents"},
        "--s": {"required": True, "help": "'re,im' or 're'"},
    }),
    "constant-term": (cmd_constant_term, LAYOUT, "symbolic expansion with holomorphy audit", {
        "--n": INT,
        "--ord0": {"choices": ("0", "pos"), "required": True},
        "--flip-branch": dict(FLAG, help="deliberately select the wrong normalizing branch"),
    }),
}


# Flags every subcommand accepts, written before or after its name; a
# command that does not read one ignores its value.
GLOBAL_FLAGS = {
    "--format": {"choices": ("records", "table"), "default": "records"},
    "--config": {"default": None, "help": "JSON config file"},
    "--precision": {"type": int, "default": None, "help": "working decimal digits of field-check"},
    "--tol": {"type": float, "default": 1e-9, "help": "quadrature tolerance of intertwine-arch"},
    "--max-den": {"type": int, "default": DEFAULT_MAX_DENOMINATOR,
                  "help": "denominator bound of field-check's rational reconstruction"},
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="periodlab", description=__doc__)
    for flag, keywords in GLOBAL_FLAGS.items():
        p.add_argument(flag, **keywords)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text, flags) in COMMANDS.items():
        s = sub.add_parser(name, help=help_text)
        for flag, keywords in GLOBAL_FLAGS.items():
            # own action objects; SUPPRESS keeps a value given before the name
            s.add_argument(flag, **dict(keywords, default=argparse.SUPPRESS))
        for flag, keywords in flags.items():
            s.add_argument(flag, **keywords)
    return p


# A word that starts like a negative number: '-1,3', '-0.5,1', '-.5'.
NEGATIVE = re.compile(r"-\.?\d")


def join_negative_values(argv: list[str]) -> list[str]:
    """Write '--eta -1,3' as '--eta=-1,3'.  argparse takes a separate word
    that starts with '-' and is not a plain negative number for a flag, and
    no flag here starts with '-' and a digit."""
    out: list[str] = []
    for word in argv:
        if out and NEGATIVE.match(word) and out[-1].startswith("--") and "=" not in out[-1]:
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(join_negative_values(argv))
    handler, prologue, _, _ = COMMANDS[args.command]
    try:
        check_flags(args)
        if prologue != NO_FIELD:
            from . import towers

            args.cfg = load_config(args.config)
            args.tower = field_config(args.cfg, towers.FieldTower.from_config)
            towers.check_tower(args.tower)
            args.emb = towers.Layout(args.tower)
        if prologue == WEIGHTS:
            from . import weights

            args.w = weights.weight_system_from_eta(args.n, _eta_from_args(args))
        report = handler(args)
    except PeriodLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    sys.stdout.write(render(report, args.format))
    return 0 if report.all_pass() else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
