import contextlib
import io
import json
import math
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from periodlab import cmfield, cyclotomic, intertwine, lfactors, weights, weylkostant
from periodlab.cli import fmt_value, main
from periodlab.errors import ConfigError, PrecisionExhausted
from oracles import exact_tower_discriminants
from test_golden_cli import GOLDEN, README_COMMANDS, case_id

QI_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "qi.json")
QIC_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "qic.json")
# x^24 - 2 over Q(i), [k:Q] = 48
X24_CONFIG = str(Path(__file__).resolve().parent / "data" / "x24_over_qi.json")


CONFIG = {
    "field": {"d": 1, "extension_poly": [0, 1], "precision_digits": 50},
    "weights": {
        "n": 2,
        "points": [
            {
                "mu": {"0": [0, 0], "1": [0, 0]},
                "nu": {"0": [0, 0], "1": [0, 0]},
                "chi": {"0": 0, "1": 1},
            }
        ],
    },
}

EMPTY_GRID = {
    "field": {"d": 1, "extension_poly": [0, 1], "precision_digits": 40},
    "weights": {"n": 2, "points": []},
}


@pytest.fixture()
def config_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(CONFIG))
    return str(p)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_field_check_qi(config_file, capsys, monkeypatch):
    """Without a k_basis, Nabla is computed once and serves both records."""
    nabla_calls = []
    upper = cmfield.disc_constant_upper
    monkeypatch.setattr(cmfield, "disc_constant_upper",
                        lambda *a, **kw: nabla_calls.append(a) or upper(*a, **kw))
    code, out = run_cli(["--config", config_file, "field-check"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_name = {r["name"]: r for r in doc["records"]}
    assert by_name["identity_constant"]["got"] == "-1"
    assert doc["summary"]["fail"] == 0
    assert len(nabla_calls) == 1


@pytest.mark.parametrize("field, nabla, identity", [
    ({"d": 1, "k0_poly": [-2, 0, 1], "extension_poly": [-3, 0, 1]}, "144+0i", "64"),
    ({"d": 3, "k0_poly": [-5, 0, 1], "extension_poly": [-2, 0, 0, 1]}, "11664+0i", "-8000"),
])
def test_field_check_declared_k0(field, nabla, identity, tmp_path, capsys):
    """Towers over k0 != Q with [k:k1] >= 2 get every tower constant."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"field": field}))
    code, out = run_cli(["--config", str(p), "field-check"], capsys)
    assert code == 0
    by_name = {r["name"]: r["got"] for r in json.loads(out)["records"]}
    assert by_name["nabla_constant"] == nabla
    assert by_name["identity_constant"] == identity


@pytest.mark.parametrize("k_basis", [[[[1, 0]]], [[[1, 0]], [[0, 0], [1, "x"]]], 5])
def test_bad_k_basis_exits_2(k_basis, tmp_path, capsys):
    """A k_basis of the wrong length or with a malformed entry is a config error."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"field": {"d": 1, "extension_poly": [-2, 0, 1], "k_basis": k_basis}}))
    code = main(["--config", str(p), "field-check"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: bad field.k_basis: ") and captured.err.count("\n") == 1


def test_unreconstructed_nabla_is_a_failing_record(capsys):
    """The basis 1/2, theta/3 of x^2 - 2 over Q(i) has N(disc(k/k1)) = 4/81,
    beyond --max-den 30: nabla_constant fails its record and the run exits
    1, while the identity, on the power basis, still passes."""
    data = str(Path(__file__).resolve().parent / "data" / "k_basis_halves_thirds.json")
    code = main(["--config", data, "field-check", "--max-den", "30"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    records = {r["name"]: r for r in json.loads(captured.out)["records"]}
    assert [name for name, r in records.items() if r["verdict"] != "pass"] == ["nabla_constant"]
    assert records["nabla_constant"]["got"].startswith(
        "error: value 0.049382716049382716049 not within 1.0e-25 of a rational with denominator <= 30"
    )
    assert records["disc_over_q"]["got"] == "1024"
    code, out = run_cli(["--config", data, "field-check", "--max-den", "81"], capsys)
    assert code == 0
    assert {r["name"]: r["got"] for r in json.loads(out)["records"]}["nabla_constant"] == "0.222222222222222+0i"


def test_determinism(config_file, capsys):
    _, out1 = run_cli(["--config", config_file, "balanced", "--oracle"], capsys)
    _, out2 = run_cli(["--config", config_file, "balanced", "--oracle"], capsys)
    assert out1.encode() == out2.encode()


def test_round_trip(config_file, capsys):
    _, out = run_cli(["--config", config_file, "field-check"], capsys)
    doc = json.loads(out)
    assert doc["command"] == "field-check"
    assert doc["summary"]["total"] == len(doc["records"])


def test_empty_grid_passes(tmp_path, capsys):
    p = tmp_path / "empty.json"
    p.write_text(json.dumps(EMPTY_GRID))
    code, out = run_cli(["--config", str(p), "balanced"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["total"] == 0


def test_table_format(config_file, capsys):
    code, out = run_cli(["--config", config_file, "--format", "table", "field-check"], capsys)
    assert code == 0
    assert out.startswith("# field-check")
    assert "summary:" in out


def test_exit_status_on_failure(config_file, capsys):
    code, _ = run_cli(
        ["--config", config_file, "constant-term", "--n", "3", "--ord0", "pos", "--flip-branch"],
        capsys,
    )
    assert code == 1


def test_config_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code = main(["--config", str(p), "field-check"])
    assert code == 2


ARCH = ["intertwine-arch", "--n", "2", "--k", "1", "--eta", "0,2"]
ARGUMENT_ERRORS = [
    ["intertwine-nonarch", "--n", "2", "--k", "1", "--a", "0,1", "--q", "2"],
    ["lratio", "--n", "2", "--k", "1", "--a", "0,1", "--q", "2"],
    ["--config", QI_CONFIG, "kostant", "--n", "1", "--p", "0"],
    ["--config", QI_CONFIG, "kostant", "--n", "2", "--p", "-1"],
    ["gauss", "--q", "6", "--chi-order", "5"],
    ["gauss", "--q", "7", "--chi-order", "4"],
    ["gauss", "--q", "7", "--chi-order", "0"],
    ["--config", QI_CONFIG, "find-wk", "--n", "2", "--k", "5"],
    ["--config", QI_CONFIG, "find-wk", "--n", "2", "--k", "1", "--eta", "a,b"],
    ["--config", QI_CONFIG, "wedge-sign", "--n", "2", "--k", "3", "--g", "conj"],
    ["lratio", "--n", "3", "--k", "0", "--a", "12,5", "--q", "2"],
    ["lratio", "--n", "3", "--k", "1", "--a", "12,5", "--q", "1"],
    ARCH + ["--beta", "0,2", "--s", "abc"],
    ARCH + ["--beta", "0,2", "--s", "nan"],
    ARCH + ["--beta", "0,2", "--s", "1,2,3"],
    ARCH + ["--beta", "0,3", "--s", "1"],
    ARCH + ["--beta", "0,2,0", "--s", "1"],
    ["intertwine-arch", "--n", "2", "--k", "1", "--eta", "0", "--beta", "0,2", "--s", "1"],
    ["intertwine-arch", "--n", "2", "--k", "1", "--eta", "1,2", "--beta", "0,1", "--s", "1"],
    ["intertwine-arch", "--n", "2", "--k", "3", "--eta", "0,2", "--beta", "0,2", "--s", "1"],
    ["--tol", "0"] + ARCH + ["--beta", "0,2", "--s", "1"],
    ["intertwine-arch", "--n", "2", "--k", "1", "--eta", f"0,{2 * 10**400}",
     "--beta", f"{10**400},{10**400}", "--s", "1"],
    ARCH + ["--beta", "0,2", "--s", "1,1e308"],
    ["--config", QI_CONFIG, "constant-term", "--n", "0", "--ord0", "pos"],
    ["--max-den", "0", "--config", QI_CONFIG, "field-check"],
    ["--precision", "0", "--config", QI_CONFIG, "field-check"],
    ["--precision", "1", "--config", QI_CONFIG, "field-check"],
    ["--precision", "4", "--config", QI_CONFIG, "field-check"],
    ["--config", QI_CONFIG, "field-check", "--precision", "5"],
    ["--precision", "17", "--config", QI_CONFIG, "field-check"],
    ["--precision", "25", "--max-den", "10000000", "--config", QI_CONFIG, "field-check"],
    # work bounds: Q(zeta_N) for N = lcm(q - 1, p), and the Weyl elements a scan visits
    ["gauss", "--q", "101", "--chi-order", "2"],
    ["gauss", "--q", "1000003", "--chi-order", "2"],
    ["gauss", "--q", str(10**30 + 57), "--chi-order", "2"],
    ["--config", QI_CONFIG, "kostant", "--n", "9", "--p", "30"],
    ["--config", QI_CONFIG, "kostant", "--n", "1000000", "--p", "1"],
    ["--config", QI_CONFIG, "kostant", "--n", "8", "--p", "7"],
    ["--config", QI_CONFIG, "find-wk", "--n", "7", "--k", "1", "--full-scan"],
    ["--config", QI_CONFIG, "find-wk", "--n", "1000000", "--k", "1"],
    ["--config", QI_CONFIG, "wedge-sign", "--n", "1000000", "--k", "1", "--g", "conj"],
    # 23,976 labels in the generator monomial
    ["--config", X24_CONFIG, "wedge-sign", "--n", "1000", "--k", "1", "--g", "conj"],
    ["--config", QI_CONFIG, "constant-term", "--n", "10000000000", "--ord0", "pos"],
    # lratio and intertwine-nonarch: the order of the root of unity, the digits
    # of q^(n - k) and the work estimate
    ["intertwine-nonarch", "--n", "3", "--k", "1", "--a", "20011,1", "--q", "2"],
    ["lratio", "--n", "2", "--k", "1", "--a", "20011,1", "--q", "2"],
    ["lratio", "--n", "500", "--k", "1", "--a", "12,5", "--q", "2"],
    ["lratio", "--n", "200", "--k", "1", "--a", "1999,5", "--q", "2"],
    ["lratio", "--n", "100000", "--k", "1", "--a", "12,5", "--q", "2"],
    ["intertwine-nonarch", "--n", "20000", "--k", "1", "--a", "12,5", "--q", "2"],
    ["intertwine-nonarch", "--n", str(10**400), "--k", "1", "--a", "12,5", "--q", "2"],
    ["intertwine-nonarch", "--n", "2", "--k", "1", "--a", "1999,1998", "--q", str(10**6)],
    # orders that cyclotomic.check_order refuses
    ["lratio", "--n", "3", "--k", "1", "--a", "2002,1", "--q", "2"],
    ["intertwine-nonarch", "--n", "3", "--k", "1", "--a", "2310,1", "--q", "2"],
    ["--config", QI_CONFIG, "wedge-sign", "--n", "2", "--k", "1", "--g", "abc"],
    # no --config: an empty config, which lacks the field section
    ["find-wk", "--n", "2", "--k", "1"],
]


@pytest.mark.parametrize("argv", ARGUMENT_ERRORS, ids=" ".join)
def test_argument_error_exits_2(argv, capsys):
    t0 = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert elapsed < 1.0


def _qi_config(**weights):
    return {"field": {"d": 1, "extension_poly": [0, 1]}, "weights": weights}


POINT = CONFIG["weights"]["points"][0]
CONFIG_ERRORS = {
    "grid-embeddings-1": _qi_config(n=2, grid={"entry_bound": 1, "embeddings": 1}),
    "grid-embeddings-3": _qi_config(n=2, grid={"entry_bound": 1, "embeddings": 3}),
    "grid-embeddings-4": _qi_config(n=2, grid={"entry_bound": 1, "embeddings": 4}),
    "grid-1265625-points": _qi_config(n=2, grid={"entry_bound": 2, "embeddings": 2}),
    "grid-n-and-bound-1e6": _qi_config(n=10**6, grid={"entry_bound": 10**6, "embeddings": 2}),
    "grid-entry-bound-minus-1": _qi_config(n=2, grid={"entry_bound": -1, "embeddings": 2}),
    "n-0-no-points": _qi_config(n=0, points=[]),
    "mu-length-1": _qi_config(n=2, points=[dict(POINT, mu={"0": [0], "1": [0, 0]})]),
    "point-without-nu": _qi_config(n=2, points=[{"mu": POINT["mu"], "chi": POINT["chi"]}]),
    "weights-without-n": _qi_config(points=[POINT]),
    "point-on-one-embedding": _qi_config(n=2, points=[{"mu": {"0": [0, 0]}, "nu": {"0": [0, 0]},
                                                       "chi": {"0": 0}}]),
    "n-1": _qi_config(n=1, points=[{"mu": {"0": [0], "1": [0]}, "nu": {"0": [0], "1": [0]},
                                     "chi": {"0": 0, "1": 1}}]),
    "precision-digits-4": dict(CONFIG, field=dict(CONFIG["field"], precision_digits=4)),
    "d-1e18-plus-3": dict(CONFIG, field=dict(CONFIG["field"], d=10**18 + 3)),
    "k0-poly-not-totally-real": dict(CONFIG, field=dict(CONFIG["field"], k0_poly=[1, 0, 1])),
    # declarations that are no tower: int() would truncate these to d = 1 and x
    "d-1.5": dict(CONFIG, field=dict(CONFIG["field"], d=1.5)),
    "extension-poly-0.5": dict(CONFIG, field=dict(CONFIG["field"], extension_poly=[0.5, 1])),
    "k1-basis-singular": dict(CONFIG, field=dict(CONFIG["field"], k1_basis=[[1, 0], [2, 0]])),
    "k1-basis-three-elements": dict(CONFIG, field=dict(CONFIG["field"],
                                                       k1_basis=[[1, 0], [0, 1], [1, 1]])),
    "k-basis-singular": dict(CONFIG, field={"d": 1, "extension_poly": [-2, 0, 1],
                                            "k_basis": [[1], [2]]}),
    # the degree of the field, and the work of building it at a precision
    "extension-degree-100": dict(CONFIG, field=dict(CONFIG["field"],
                                                    extension_poly=[-2] + [0] * 99 + [1])),
    "extension-degree-28": dict(CONFIG, field=dict(CONFIG["field"],
                                                   extension_poly=[-2] + [0] * 27 + [1])),
    "precision-digits-100000": dict(CONFIG, field=dict(CONFIG["field"], precision_digits=100000)),
    # int() would truncate this to 60 digits
    "precision-digits-60.7": dict(CONFIG, field=dict(CONFIG["field"], precision_digits=60.7)),
    # repeated roots: x^2 over Q(i), and (x - 2)^2 for k0
    "extension-poly-square": dict(CONFIG, field=dict(CONFIG["field"], extension_poly=[0, 0, 1])),
    "k0-poly-square": dict(CONFIG, field=dict(CONFIG["field"], k0_poly=[4, -4, 1])),
    # a Delta whose prefactors leave the doubles, and a discriminant over Q
    # of 121 digits, which 50 digits cannot reconstruct
    "k1-basis-1e-200": dict(CONFIG, field=dict(CONFIG["field"],
                                               k1_basis=[["1e-200", 0], [0, "1e-200"]])),
    "k1-basis-1/1000": dict(CONFIG, field=dict(CONFIG["field"],
                                               k1_basis=[["1/1000", 0], [0, "1/1000"]])),
    "k1-basis-1e200": dict(CONFIG, field=dict(CONFIG["field"],
                                              k1_basis=[["1e200", 0], [0, "1e200"]])),
    "k1-basis-1e30": dict(CONFIG, field=dict(CONFIG["field"],
                                             k1_basis=[["1e30", 0], [0, "1e30"]])),
    # (x - 2)^4, on which the root finder does not converge
    "extension-poly-fourth-power": dict(CONFIG, field=dict(CONFIG["field"],
                                                           extension_poly=[16, -32, 24, -8, 1])),
    # one point whose character peeling is above charpeel.MAX_PEEL_WORK
    "peel-work-above-limit": _qi_config(n=2, points=[{"mu": {"0": [2000, 0], "1": [2000, 0]},
                                                      "nu": {"0": [0, -2000], "1": [0, -2000]},
                                                      "chi": {"0": 0, "1": 1}}]),
    # a config without one of the sections a command reads
    "no-field-section": {"weights": CONFIG["weights"]},
    "no-weights-section": {"field": CONFIG["field"]},
    "weights-without-points-or-grid": _qi_config(n=2),
    # a k basis is read exactly only over k0 = Q
    "k-basis-over-declared-k0": {"field": {"d": 1, "k0_poly": [-2, 0, 1], "extension_poly": [-3, 0, 1],
                                           "k_basis": [[1], [0, 1]]}},
}
# the commands of a CONFIG_ERRORS case, when they are not balanced alone:
# a tower refused before balanced builds its layout is refused, for the same
# reason, before field-check seeks a root; only field-check reads the precision
BOTH = [["balanced"], ["field-check"]]
CONFIG_COMMANDS = [["field-check"], ["balanced"], ["kostant", "--n", "2", "--p", "1"],
                   ["find-wk", "--n", "2", "--k", "2"],
                   ["wedge-sign", "--n", "3", "--k", "2", "--g", "conj"],
                   ["constant-term", "--n", "3", "--ord0", "pos"]]
CONFIG_ERROR_COMMANDS = {
    "k-basis-singular": [["field-check"]],
    "peel-work-above-limit": [["balanced", "--oracle"]],
    "precision-digits-4": [["field-check"]],
    "precision-digits-100000": [["field-check"]],
    "precision-digits-60.7": [["field-check"]],
    "extension-degree-100": CONFIG_COMMANDS,
    "extension-degree-28": CONFIG_COMMANDS,
    "k1-basis-1e-200": [["constant-term", "--n", "3", "--ord0", "0"]],
    "k1-basis-1/1000": [["constant-term", "--n", "200", "--ord0", "0"]],
    "k1-basis-1e200": [["constant-term", "--n", "3", "--ord0", "0"]],
    "k1-basis-1e30": [["field-check"]],
    "k0-poly-not-totally-real": BOTH,
    "extension-poly-square": BOTH,
    "k0-poly-square": BOTH,
    "extension-poly-fourth-power": BOTH,
    "k-basis-over-declared-k0": [["field-check"]],
}
# the reason the error line of each tower case, and of each missing section, must give
TOWER_REASONS = {
    "precision-digits-4": "precision 4 is below 18",
    "d-1e18-plus-3": "d = 1000000000000000003 is above the limit",
    "k0-poly-not-totally-real": "declared k0 is not totally real",
    "d-1.5": "d 1.5 is not an integer",
    "extension-poly-0.5": "extension_poly entry 0.5 is not an integer",
    "k1-basis-singular": "k1 basis is not a basis of k1 over k0",
    "k1-basis-three-elements": "bad field config: too many values to unpack",
    "k-basis-singular": "not a basis of k over k1",
    "extension-degree-100": "[k:Q] = 200 is above the limit of 54",
    "extension-degree-28": "[k:Q] = 56 is above the limit of 54",
    "precision-digits-100000": "above the field work limit",
    "precision-digits-60.7": "precision_digits 60.7 is not an integer",
    "extension-poly-square": "extension polynomial has coincident roots",
    "k0-poly-square": "k0 polynomial has coincident roots",
    "extension-poly-fourth-power": "extension polynomial has coincident roots",
    "k1-basis-1e-200": "the prefactor of term_1 is not a finite nonzero complex double",
    "k1-basis-1/1000": "the prefactor of term_1 is not a finite nonzero complex double",
    "k1-basis-1e200": "the prefactor of term_1 is not a finite nonzero complex double",
    "k1-basis-1e30": "discriminant over Q is about 4.0e+120, more than 50 digits can reconstruct",
    "no-field-section": "config lacks a 'field' section",
    "no-weights-section": "config lacks a 'weights' section",
    "weights-without-points-or-grid": "weights section needs 'points' or 'grid'",
    "k-basis-over-declared-k0": "bad field.k_basis: exact elements require k0 = Q",
}


@pytest.mark.parametrize("name", CONFIG_ERRORS)
def test_config_error_exits_2(name, tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(CONFIG_ERRORS[name]))
    for command in CONFIG_ERROR_COMMANDS.get(name, [["balanced"]]):
        t0 = time.perf_counter()
        code = main(["--config", str(p)] + command)
        elapsed = time.perf_counter() - t0
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert TOWER_REASONS.get(name, "") in captured.err
        assert elapsed < 1.0


def test_roots_within_the_tolerance_are_a_precision_limit(tmp_path, capsys):
    """The Mignotte polynomial x^8 - 2(100x - 1)^2 is squarefree, with two
    real roots about 1.4e-10 apart: 18 digits (tolerance 1e-9) cannot tell
    them apart, which is a precision limit and no repeated root.  30 digits
    separate the roots but cannot hold the 48-digit norm of disc(k/k1),
    whose reconstruction would print a wrong disc_over_q; 120 digits print
    the exact one."""
    poly = [-2, 400, -20000, 0, 0, 0, 0, 0, 1]
    with pytest.raises(PrecisionExhausted):
        cmfield.build_field(cmfield.FieldTower(1, tuple(poly)), 18)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"field": {"d": 1, "extension_poly": poly}}))
    code = main(["--config", str(p), "field-check", "--precision", "18"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: distinct roots lie within the tolerance 1.0e-9 at 18 digits; raise the precision\n"
    )
    assert main(["--config", str(p), "field-check", "--precision", "30"]) == 2
    assert capsys.readouterr().err == (
        "error: norm of disc(k/k1) is about 2.28e+47, more than 30 digits can reconstruct; "
        "raise the precision\n"
    )
    code, out = run_cli(["--config", str(p), "field-check", "--precision", "120"], capsys)
    assert code == 0
    records = {r["name"]: r["got"] for r in json.loads(out)["records"]}
    disc_k, _ = exact_tower_discriminants(cmfield.FieldTower(1, tuple(poly)))
    assert records["disc_over_q"] == str(disc_k)


# README commands that read no precision, --max-den or --tol: the five
# layout commands and gauss
UNREAD = [argv for argv in README_COMMANDS
          if argv[0] == "--config" and argv[2] != "field-check" or argv[0] == "gauss"]


def test_unread_settings_change_no_output(tmp_path):
    """Each layout command prints the README bytes, and exits as there, with
    no precision setting at all, with any --precision, --max-den or --tol,
    and with any precision_digits in its config; gauss with any --tol or
    --max-den.  Only field-check reads the precision and --max-den, and
    only intertwine-arch --tol."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    qi = json.loads(Path(QI_CONFIG).read_text(encoding="utf-8"))
    configs = {}
    for digits in (None, 4, 60.7, 100000):
        field = {key: v for key, v in qi["field"].items() if key != "precision_digits"}
        if digits is not None:
            field["precision_digits"] = digits
        configs[digits] = tmp_path / f"qi-{digits}.json"
        configs[digits].write_text(json.dumps(dict(qi, field=field)))
    flags = [["--precision", "2"], ["--precision", "17"], ["--max-den", "0"], ["--tol", "0"]]
    for argv in UNREAD:
        for fmt in ("records", "table"):
            expected = golden[case_id(fmt, argv)]
            runs = [(["--max-den", "0"], argv), (["--tol", "0"], argv)]
            if argv[0] == "--config":
                runs = [(extra, ["--config", str(path)] + argv[2:])
                        for path in configs.values() for extra in [[]] + flags]
            for extra, words in runs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(["--format", fmt] + extra + words)
                assert {"exit": code, "stdout": out.getvalue()} == expected, extra + words


@pytest.mark.parametrize("command", CONFIG_COMMANDS[1:], ids=" ".join)
def test_degree_54_tower_runs_the_layout_commands(command, tmp_path, capsys):
    """x^27 - 2 over Q(i), [k:Q] = 54 = towers.MAX_DEGREE, at the default
    precision: the layout commands run, and find-wk stops only at its scan
    bound (the bottom degree 27 has C(54, 27) elements)."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"field": {"d": 1, "extension_poly": [-2] + [0] * 26 + [1]},
                             "weights": {"n": 2, "points": []}}))
    code = main(["--config", str(p)] + command)
    captured = capsys.readouterr()
    if command[0] == "find-wk":
        assert code == 2
        assert captured.err == ("error: the scan would visit 1946939425648112 Weyl elements, "
                                "above the limit of 100000\n")
    else:
        assert code == 0
        assert {r["verdict"] for r in json.loads(captured.out)["records"]} <= {"pass"}


@pytest.mark.parametrize("n, a", [(6, 3), (8, 2), (6, 4)])
def test_balanced_oracle_point_runs_in_under_a_second(n, a, tmp_path, capsys):
    """One two-sided point over Q(i), mu = (a^h, 0^h) and nu = (0^h, -a^h)
    at both embeddings, h = n/2: the peel against the dual of the largest
    factor multiplies one character of dimension 980 to 4116."""
    h = n // 2
    mu, nu = [a] * h + [0] * h, [0] * h + [-a] * h
    point = {"mu": {"0": mu, "1": mu}, "nu": {"0": nu, "1": nu}, "chi": {"0": 0, "1": 1}}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(_qi_config(n=n, points=[point])))
    t0 = time.perf_counter()
    code, out = run_cli(["--config", str(p), "balanced", "--oracle"], capsys)
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert json.loads(out)["records"][0]["got"] is True
    assert elapsed < 1.0


@st.composite
def arch_argv(draw):
    """intertwine-arch flag values (n, k, eta, beta, s): a well-formed
    section with a random s, then at most one field replaced by junk."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    lo, hi = draw(st.integers(-3, 0)), draw(st.integers(n, n + 4))
    cuts = sorted(draw(st.lists(st.integers(0, hi - lo), min_size=n - 1, max_size=n - 1)))
    beta = [b - a for a, b in zip([0] + cuts, cuts + [hi - lo])]
    s = f"{draw(st.floats(-2, 12))!r},{draw(st.floats(-20, 20))!r}"
    fields = [str(n), str(k), f"{lo},{hi}", ",".join(map(str, beta)), s]
    junk = st.one_of(st.text(max_size=5), st.integers(-2, 9).map(str),
                     st.lists(st.integers(-2, 9), max_size=6).map(lambda b: ",".join(map(str, b))))
    spoiled = draw(st.integers(0, 2 * len(fields) - 1))
    if spoiled < len(fields):
        fields[spoiled] = draw(junk)
    return fields


@settings(max_examples=100, deadline=timedelta(seconds=20), derandomize=True)
@given(arch_argv())
def test_intertwine_arch_fuzz(argv):
    n, k, eta, beta, s = argv
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            # --flag=value; the other fuzz tests write each value as its own word
            code = main(["intertwine-arch", f"--n={n}", f"--k={k}", f"--eta={eta}",
                         f"--beta={beta}", f"--s={s}"])
        except SystemExit as exc:  # argparse rejects a non-integer --n or --k
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def run_words(argv):
    """Exit status and stderr of main(argv); argparse's own errors included."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# words that replace a well-formed value: negative numbers, comma lists
# that start with '-', and text
JUNK = st.one_of(st.integers(-9, 0).map(str), st.text(max_size=5),
                 st.lists(st.integers(-9, 9), min_size=1, max_size=3).map(
                     lambda xs: ",".join(map(str, xs))))


SMALL_Q = st.integers(2, 12)
# (n - k, order, q) per limit of lratio and intertwine-nonarch: values inside
# it, at it and beyond it
LOCAL_REGIMES = {
    "small": st.tuples(st.integers(0, 6), st.one_of(st.integers(1, 24), st.just(336)), SMALL_Q),
    "order": st.tuples(st.integers(0, 3), st.sampled_from([2000, 2001, 20011]), SMALL_Q),
    "digits": st.tuples(st.sampled_from([1000, 1001, 3322, 3323, 10**400]), st.integers(1, 24),
                        st.sampled_from([2, 10])) | st.tuples(
                            st.just(1), st.integers(1, 24), st.sampled_from([10**1000, 10**1001])),
    "work": st.tuples(st.sampled_from([50, 1000]), st.sampled_from([24, 336, 2000]), SMALL_Q),
}


@st.composite
def local_argv(draw):
    """lratio / intertwine-nonarch flag values (n, k, a, q) in one regime of
    LOCAL_REGIMES, then at most one value replaced by junk."""
    m, order, q = draw(st.sampled_from(sorted(LOCAL_REGIMES)).flatmap(LOCAL_REGIMES.get))
    k = draw(st.integers(1, 3))
    fields = [str(k + m), str(k), f"{order},{draw(st.integers(-50, 50))}", str(q)]
    spoiled = draw(st.integers(0, 3 * len(fields) - 1))
    if spoiled < len(fields):
        fields[spoiled] = draw(JUNK)
    return fields


@settings(max_examples=100, deadline=timedelta(seconds=20), derandomize=True)
@given(st.sampled_from(["lratio", "intertwine-nonarch"]), local_argv())
def test_local_ratio_fuzz(command, argv):
    n, k, a, q = argv
    code, err = run_words([command, "--n", n, "--k", k, "--a", a, "--q", q])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=60, deadline=timedelta(seconds=20), derandomize=True)
@given(
    st.one_of(st.integers(-3, 32), st.sampled_from([1024, 2001, 2003, 2187, 10**30 + 57])),
    st.one_of(st.integers(-3, 12), st.sampled_from([16, 31, 2002])),
    st.integers(-7, 7),
)
def test_gauss_fuzz(q, chi_order, chi_index):
    code, err = run_words(["gauss", "--q", str(q), "--chi-order", str(chi_order),
                           "--chi-index", str(chi_index)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# (config, n, kostant degrees) on both sides of the field commands' work
# bounds: admitted runs of at most 8,867 Weyl elements (find-wk --n 7), and runs
# refused by n!, by the count of one length, by the full scan or by the rank
WEYL_REGIMES = [
    (QI_CONFIG, st.integers(2, 4), st.integers(-1, 13)),
    (QIC_CONFIG, st.just(2), st.integers(-1, 7)),
    (QIC_CONFIG, st.just(4), st.integers(0, 36).filter(lambda p: not 4 <= p <= 6 and not 30 <= p <= 32)),
    (QI_CONFIG, st.sampled_from([6, 7, 9, 1000, 1001, 10**6]), st.integers(0, 40)),
]
# --g values per config: admissible ones and one that is not
PERMUTATIONS = {QI_CONFIG: ["id", "conj", "1,0", "0,1,2"],
                QIC_CONFIG: ["id", "conj", "1,2,0,4,5,3", "1,0,3,2,5,4"]}


@st.composite
def field_argv(draw):
    """A field command (kostant, find-wk, wedge-sign, constant-term) with
    its flags, then at most one flag value replaced by junk."""
    command = draw(st.sampled_from(["kostant", "find-wk", "find-wk --full-scan", "wedge-sign",
                                    "constant-term"]))
    config, n, p = draw(st.sampled_from(WEYL_REGIMES))
    n, k = draw(n), draw(st.integers(1, 3))
    emb_count = 2 if config == QI_CONFIG else 6
    low, high = draw(st.integers(-2, 1)), draw(st.integers(min(n, 9) - 1, min(n, 9) + 1))
    eta = draw(st.sampled_from([[], ["--eta", f"{low},{high}"], ["--eta", f"{high},{low}"],
                                ["--eta", ",".join(map(str, [low, high] * (emb_count // 2)))]]))
    if command == "kostant":
        words = ["--n", str(n), "--p", str(draw(p))] + eta
    elif command.startswith("find-wk"):
        words = ["--n", str(n), "--k", str(min(k, n))] + eta + command.split()[1:]
    elif command == "wedge-sign":
        # past the rank bound only: an admitted n up to 1,000 costs up to 1 s
        n = n if n <= 4 else draw(st.sampled_from([1001, 10**6]))
        words = ["--n", str(n), "--k", str(min(k, n)), "--g", draw(st.sampled_from(PERMUTATIONS[config]))]
        words += eta
    else:
        words = ["--n", str(min(n, 6)), "--ord0", draw(st.sampled_from(["0", "pos"]))]
        words += draw(st.sampled_from([[], ["--flip-branch"]]))
    values = [i for i in range(1, len(words)) if words[i - 1].startswith("--")]
    spoiled = draw(st.integers(0, 3 * len(values) - 1))
    if spoiled < len(values):
        words[values[spoiled]] = draw(JUNK)
    return ["--config", config, command.split()[0]] + words


@settings(max_examples=60, deadline=timedelta(seconds=5), derandomize=True)
@given(field_argv())
def test_field_command_fuzz(argv):
    code, err = run_words(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# (n, entry_bound) of a weights.grid on both sides of its point bound, over
# Q(i) or Q(i, sqrt 2), and malformed; (2, 1) over Q(i) builds 11,664
# points and is left to test_grid_mode
GRIDS = [(2, 0), (3, 0), (10, 0), (2, 2), (4, 1), (3, 2), (10**6, 10**6), (2, -1), (1, 0),
         (0, 1), (-1, 1), (2, "1")]


@st.composite
def weight_point(draw, n, embeddings):
    """A point keyed by the embeddings 0..embeddings-1: dominant mu, nu of
    length n and chi, with entries in -2..2, one of them maybe spoiled."""
    def tuples():
        return {str(i): sorted(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), reverse=True)
                for i in range(embeddings)}
    point = {"mu": tuples(), "nu": tuples(), "chi": {str(i): draw(st.integers(-2, 2)) for i in range(embeddings)}}
    spoil = draw(st.sampled_from([None] * 6 + ["short", "increasing", "no-nu"]))
    if spoil == "short":
        point["mu"]["0"] = point["mu"]["0"][1:]
    elif spoil == "increasing":
        point["nu"]["0"] = [-1, 1] + point["nu"]["0"][2:]
    elif spoil == "no-nu":
        del point["nu"]
    return point


# ways to spoil a well-formed config document
CONFIG_SPOILERS = [
    lambda doc: doc["weights"].update(n=1),
    lambda doc: doc["weights"].update(n=0),
    lambda doc: doc["weights"].update(grid={"entry_bound": 0, "embeddings": 3}),
    lambda doc: doc["field"].update(precision_digits=4),
    lambda doc: doc["field"].update(extension_poly=[1, 0, 1]),
    lambda doc: doc["field"].update(extension_poly="x"),
    lambda doc: doc["field"].update(d=0),
    lambda doc: doc["field"].update(d="x"),
    lambda doc: doc.pop("weights"),
    lambda doc: doc.pop("field"),
]


@st.composite
def field_config(draw):
    """A small config document over Q(i) or Q(i, sqrt 2) with explicit
    weight points or a grid, then maybe spoiled once."""
    poly = draw(st.sampled_from([[0, 1], [-2, 0, 1]]))
    field = {"d": draw(st.sampled_from([1, 2])), "extension_poly": poly,
             "precision_digits": draw(st.sampled_from([30, 60]))}
    degree = 2 * len(poly) - 2
    if draw(st.booleans()):
        n, bound = draw(st.sampled_from(GRIDS))
        weights = {"n": n, "grid": {"entry_bound": bound, "embeddings": degree}}
    else:
        n = draw(st.sampled_from([2, 3]))
        weights = {"n": n, "points": draw(st.lists(weight_point(n, degree), max_size=3))}
    doc = {"field": field, "weights": weights}
    spoiled = draw(st.integers(0, 2 * len(CONFIG_SPOILERS) - 1))
    if spoiled < len(CONFIG_SPOILERS):
        CONFIG_SPOILERS[spoiled](doc)
    return doc


@settings(max_examples=40, deadline=timedelta(seconds=5), derandomize=True)
@given(field_config(), st.sampled_from([["field-check"], ["balanced"], ["balanced", "--oracle"]]))
def test_field_config_fuzz(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("fuzz") / "cfg.json"
    path.write_text(json.dumps(doc))
    code, err = run_words(["--config", str(path)] + command)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


ARCH_N2 = ["intertwine-arch", "--n", "2", "--k", "1"]
ARCH_N3 = ["intertwine-arch", "--n", "3", "--k", "2"]
FIND_WK = ["--config", QI_CONFIG, "find-wk", "--n", "2", "--k", "1"]
# (values as separate words, the same values written --flag=value)
NEGATIVE_VALUES = [
    (ARCH_N2 + ["--eta", "-1,3", "--beta", "0,4", "--s", "-0.5,1"],
     ARCH_N2 + ["--eta=-1,3", "--beta", "0,4", "--s=-0.5,1"]),
    (ARCH_N3 + ["--eta", "-2,3", "--beta", "1,1,3", "--s", "-.5"],
     ARCH_N3 + ["--eta=-2,3", "--beta", "1,1,3", "--s=-.5"]),
    (FIND_WK + ["--eta", "-1,3"], FIND_WK + ["--eta=-1,3"]),
    (["--config", QI_CONFIG, "kostant", "--n", "2", "--p", "-1"],
     ["--config", QI_CONFIG, "kostant", "--n", "2", "--p=-1"]),
    (["lratio", "--n", "3", "--k", "1", "--q", "2", "--a", "-12,5"],
     ["lratio", "--n", "3", "--k", "1", "--q", "2", "--a=-12,5"]),
]


@pytest.mark.parametrize("separate, joined", NEGATIVE_VALUES, ids=lambda argv: " ".join(argv))
def test_negative_value_as_separate_word(separate, joined, capsys):
    """'--eta -1,3' and '--eta=-1,3' print the same bytes and exit alike."""
    first = main(separate), capsys.readouterr()
    second = main(joined), capsys.readouterr()
    assert first == second


README_ARGV = {argv[2] if argv[0] == "--config" else argv[0]: argv for argv in README_COMMANDS}
# Modules whose loading the table below pins; every other module is free.
WATCHED = ("dataclasses", "fractions", "inspect", "mpmath", "numpy", "scipy")
CYCLOTOMIC = ["cyclotomic", "errors", "fractions", "intpoly"]  # what exact arithmetic loads
TOWERS = ["errors", "fractions", "intpoly", "towers"]  # what a config's index layout loads
CMFIELD = ["cmfield", "mpmath"] + TOWERS  # what field-check's numeric field loads
WEIGHTS = TOWERS + ["weights"]
LOADED = {
    # one layer imported
    "errors": ["errors"],
    "intpoly": ["intpoly"],
    "quadrature": ["errors", "quadrature"],
    "cyclotomic": CYCLOTOMIC,
    "laurent": CYCLOTOMIC + ["laurent"],
    "lfactors": ["errors", "lfactors"],
    "intertwine": ["errors", "intertwine", "lfactors", "quadrature"],
    "towers": TOWERS,
    "cmfield": CMFIELD,
    "weights": ["errors", "weights"],
    "weylkostant": WEIGHTS + ["weylkostant"],
    "charpeel": ["charpeel"],
    "cli": ["cli", "errors"],
    # one arch_intertwining call: no exact arithmetic
    "arch_intertwining": ["errors", "intertwine", "lfactors", "quadrature"],
    # main(argv) of each README command
    "field-check": ["cli"] + CMFIELD,
    "balanced": ["charpeel", "cli"] + WEIGHTS,
    "kostant": ["cli"] + WEIGHTS + ["weylkostant"],
    "find-wk": ["cli"] + WEIGHTS + ["weylkostant"],
    "wedge-sign": ["cli"] + WEIGHTS + ["weylkostant"],
    "gauss": ["cli", "lfactors"] + CYCLOTOMIC,
    "lratio": ["cli", "laurent", "lfactors"] + CYCLOTOMIC,
    "intertwine-nonarch": ["cli", "intertwine", "laurent", "lfactors", "quadrature"] + CYCLOTOMIC,
    "intertwine-arch": ["cli", "errors", "intertwine", "lfactors", "quadrature"],
    "constant-term": ["cli", "intertwine", "lfactors", "quadrature"] + WEIGHTS,
}


def _run_fresh(case: str) -> str:
    """The code a fresh interpreter runs for one case of LOADED."""
    if case in README_ARGV:
        return ("import contextlib, io, sys\n"
                "from periodlab.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert main({README_ARGV[case]!r}) == 0\n")
    if case == "arch_intertwining":
        return ("from periodlab.intertwine import arch_intertwining\n"
                "assert arch_intertwining(3, 1, (0, 3), (0, 0, 3), 2.0).verdict\n")
    return f"import periodlab.{case}\n"


@pytest.mark.parametrize("case", LOADED)
def test_fresh_interpreter_loads_only_what_runs(case):
    """No layer, README command or arch integral loads dataclasses or
    inspect; each loads only its own periodlab layers, mpmath only with
    field-check's numeric field, and the archimedean path no exact
    arithmetic, not even fractions."""
    code = _run_fresh(case) + (
        "import sys\n"
        f"print(sorted(m.removeprefix('periodlab.') for m in sys.modules "
        f"if m in {WATCHED!r} or m.startswith('periodlab.')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str(sorted(LOADED[case]))


def test_format_after_subcommand_matches_format_before(capsys):
    gauss = ["gauss", "--q", "7", "--chi-order", "6"]
    after = run_cli(gauss + ["--format", "table"], capsys)
    before = run_cli(["--format", "table"] + gauss, capsys)
    assert after == before
    assert after[1].startswith("# gauss")


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "5", "gauss", "--q", "7", "--chi-order", "6"])
    assert exc.value.code == 2


def test_gauss_subcommand(capsys):
    code, out = run_cli(["gauss", "--q", "7", "--chi-order", "6", "--chi-index", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert {r["name"] for r in doc["records"]} == {"value_float", "norm_squared_equals_q"}


def test_lratio_subcommand(capsys):
    code, out = run_cli(["lratio", "--n", "3", "--k", "1", "--a", "12,5", "--q", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_name = {r["name"]: r for r in doc["records"]}
    assert by_name["telescoping_product_matches"]["verdict"] == "pass"


@pytest.mark.parametrize("argv", [
    ["lratio", "--n", "17", "--k", "1", "--a", "1999,5", "--q", "2"],
    ["intertwine-nonarch", "--n", "17", "--k", "1", "--a", "2003,2002", "--q", "2"],
], ids=" ".join)
def test_local_work_admits_prime_orders(argv, capsys):
    """Prime orders next to the work bound, refused while the estimate
    charged m^2 phi(N)^2 to lratio's product and N > 2000 to both."""
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert {r["verdict"] for r in json.loads(out)["records"]} == {"pass"}


def test_intertwine_subcommands(config_file, capsys):
    code, _ = run_cli(["intertwine-nonarch", "--n", "4", "--k", "2", "--a", "12,1", "--q", "5"], capsys)
    assert code == 0
    code, _ = run_cli(
        ["intertwine-arch", "--n", "2", "--k", "1", "--eta", "0,2", "--beta", "0,2", "--s", "1"],
        capsys,
    )
    assert code == 0


def test_intertwine_arch_near_the_convergence_bound(capsys):
    """Decay d = 0.6, where the tensor rule's own estimate is optimistic:
    the integral must still end within the default tol of 1e-9."""
    code, out = run_cli(["intertwine-arch", "--n", "3", "--k", "1", "--eta", "0,3",
                         "--beta", "0,0,3", "--s=-0.4"], capsys)
    assert code == 0
    record = {r["name"]: r for r in json.loads(out)["records"]}["integral"]
    got, expected = (complex(record[key].replace("i", "j")) for key in ("got", "expected"))
    assert abs(expected - (2 * math.pi) ** 2 / (1.6 * 0.6)) <= 1e-14 * abs(expected)
    assert abs(got - expected) <= 1e-9 * abs(expected)


def test_intertwine_arch_huge_exponents_end_in_a_fresh_process():
    """beta = 10^9 in the polar check's radial factor r^(P - 1): O(1) work per
    node, so the whole process ends well within 2 s."""
    argv = ["intertwine-arch", "--n", "2", "--k", "1", "--beta", "1000000000,1000000000",
            "--eta", "0,2000000000", "--s", "1"]
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "periodlab.cli", *argv], capture_output=True,
                         text=True, timeout=60)
    assert time.perf_counter() - t0 < 2.0
    assert out.returncode == 0 and "Traceback" not in out.stderr


def assert_all_records_pass(argv, capsys):
    code, out = run_cli(argv, capsys)
    assert code == 0
    assert {r["verdict"] for r in json.loads(out)["records"]} == {"pass"}


@pytest.mark.parametrize("argv, status", [
    pytest.param(argv, status, id=" ".join(argv)) for argv, status in [
        (ARCH_N2 + ["--eta", "0,2000000000", "--beta", "0,2000000000", "--s", "1"], 2),
        (ARCH_N2 + ["--eta", "0,2", "--beta", "0,2", "--s", "1e15"], 2),
        (["intertwine-arch", "--n", "3", "--k", "1", "--eta", "0,3", "--beta", "0,0,3",
          "--s", "1000000"], 0),
    ]
])
def test_intertwine_arch_underflow_at_the_centre_is_no_zero(argv, status, capsys):
    """g(1) underflows under a narrow peak at x = 0: the quadrature must
    not sum the empty cut to a converged 0 and fail the record, but find
    the peak or give up with exit status 2."""
    if status == 0:
        assert_all_records_pass(argv, capsys)
        return
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


@pytest.mark.parametrize("beta", ["500,500", "600,400"])
def test_intertwine_arch_narrow_peak_off_the_centre_passes(beta, capsys):
    """The polar check's radial integrand has a peak about 0.02 wide in t
    and an integral near 1e-246 (beta 500,500): the coarse levels miss the
    peak and agree near 0, which the relative stop does not take for
    convergence."""
    assert_all_records_pass(ARCH_N2 + ["--eta", "0,1000", "--beta", beta, "--s", "1"], capsys)


def test_intertwine_arch_exponent_divisible_by_circle_points(capsys):
    """beta = 256 is a multiple of the default 256 circle nodes: the angular
    factor is 0, not the aliased 2*pi that the radial factor hid."""
    code, out = run_cli(["intertwine-arch", "--n", "2", "--k", "1", "--eta", "0,512",
                         "--beta", "256,256", "--s", "1"], capsys)
    assert code == 0
    record = {r["name"]: r for r in json.loads(out)["records"]}["integral"]
    assert abs(complex(record["got"].replace("i", "j"))) < 1e-135


def test_wedge_sign_subcommand(config_file, capsys):
    code, out = run_cli(
        ["--config", config_file, "wedge-sign", "--n", "3", "--k", "2", "--g", "conj"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    by_name = {r["name"]: r for r in doc["records"]}
    assert by_name["epsilon_sigma2"]["got"] == 1


def test_grid_mode(tmp_path, capsys):
    cfg = {
        "field": {"d": 1, "extension_poly": [0, 1], "precision_digits": 40},
        "weights": {"n": 2, "grid": {"entry_bound": 1, "embeddings": 2}},
    }
    p = tmp_path / "grid.json"
    p.write_text(json.dumps(cfg))
    code, out = run_cli(["--config", str(p), "balanced"], capsys)
    assert code == 0
    doc = json.loads(out)
    # 6 dominant pairs x 6 x 3 chi values per embedding, squared
    assert doc["summary"]["total"] == (6 * 6 * 3) ** 2


def test_field_check_user_basis(tmp_path, capsys):
    cfg = {
        "field": {
            "d": 1,
            "extension_poly": [-2, 0, 1],
            "precision_digits": 50,
            "k_basis": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]],  # {1, 2*theta}
        }
    }
    p = tmp_path / "basis.json"
    p.write_text(json.dumps(cfg))
    code, out = run_cli(["--config", str(p), "field-check"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_name = {r["name"]: r for r in doc["records"]}
    # disc(k/k1) for {1, 2 theta} is 4 * 8 = 32; norm 1024; sqrt = 32
    assert by_name["nabla_constant"]["got"] == "32+0i"


def test_kostant_count_record(capsys, tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(CONFIG))
    code, out = run_cli(["--config", str(p), "kostant", "--n", "3", "--p", "2", "--eta", "0,3"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_name = {r["name"]: r for r in doc["records"]}
    assert by_name["line_count"]["expected"] == 8
    assert by_name["line_count"]["got"] == 8


def test_installed_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "periodlab.cli", "gauss", "--q", "3", "--chi-order", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "norm_squared_equals_q" in out.stdout


# -- the exception class decides the exit status -----------------------------------


@pytest.mark.parametrize("call", [
    lambda: weylkostant.weyl_count(8, 2),
    lambda: cyclotomic.check_order(10**6),
    lambda: lfactors.GaussSumSpec(6, 1),
    lambda: intertwine.arch_section(2, (1, 2), (0, 1)),
    lambda: weights.grid(2, 2, 2),
    lambda: cmfield.FieldTower(12, (0, 1)),
    lambda: intertwine.arch_intertwining(2, 1, (0, 2), (0, 2), 1.0, tol=0),
], ids=["weyl_count", "check_order", "GaussSumSpec", "arch_section", "grid", "FieldTower",
        "arch_intertwining"])
def test_layer_refusal_is_a_config_error_and_a_value_error(call):
    with pytest.raises(ConfigError) as exc:
        call()
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("module, name, argv", [
    (weylkostant, "distinguished_weyl", ["--config", QI_CONFIG, "find-wk", "--n", "2", "--k", "1"]),
    (cmfield, "check_discriminant_identity", ["--config", QI_CONFIG, "field-check"]),
    (intertwine, "assemble_constant_term",
     ["--config", QI_CONFIG, "constant-term", "--n", "3", "--ord0", "pos"]),
], ids=["find-wk", "field-check", "constant-term"])
def test_refusal_inside_a_check_exits_2(module, name, argv, monkeypatch, capsys):
    """A ConfigError raised where a handler runs its check is no failing
    record: main reports it alone."""
    def refuse(*args, **kwargs):
        raise ConfigError("refused")

    monkeypatch.setattr(module, name, refuse)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: refused\n"


def test_unrenderable_value_is_refused():
    """A report value of no JSON-friendly type is a programming error, not
    a config error."""
    assert fmt_value({"b": (1.5, None), "a": 1j}) == {"a": "0+1i", "b": ["1.5", None]}
    with pytest.raises(TypeError, match="no report rendering for object"):
        fmt_value(object())
