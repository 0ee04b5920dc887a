"""Differential corpus: CLI runs beyond the README commands.

Each case runs ``cli.main`` in-process; its exit status and the SHA-256 of
its stdout must equal the recorded ones in ``data/cli_corpus.json``.  The
cases cover ``lratio`` and ``intertwine-nonarch`` at roots of unity of
order 1, 2, 12, 336, 331, 443 and 1999, ``gauss`` at prime and
prime-power q, every field command over Q(i) and Q(i, 2^(1/3)), and
``intertwine-arch`` off the README's run, in both output formats, plus
one refused run at each work bound, and ``intertwine-arch`` at slice
dimensions 2 to 5 (the last refused) in records format and one table
case, one ``field-check`` whose nabla_constant fails its record, one whose
identity_constant_rational fails (a 1e-200 k1 basis), and ``find-wk`` on
an eta that is not two-sided, which certifies no element.  A
config path in a case is relative to the repository root.  On
a mismatch, the test id names the case, so it can be rerun by hand for a
full diff.  Re-record only for a deliberate change of a report, with
``PYTHONPATH=src python tests/test_cli_corpus.py``; it prints each case it
adds, removes or changes.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from periodlab.cli import main

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "tests" / "data" / "cli_corpus.json"

LOCAL = [
    # (n, k, order, index, q)
    (1, 1, 1, 0, 2),
    (3, 1, 1, 0, 3),
    (2, 1, 2, 1, 5),
    (4, 2, 2, 1, 9),
    (3, 2, 12, 5, 2),
    (5, 1, 12, 7, 3),
    (4, 3, 12, 1, 9),
    (3, 1, 336, 101, 2),
    (2, 2, 336, 5, 5),
    (2, 1, 331, 330, 3),
    (3, 2, 331, 7, 9),
    (2, 1, 443, 442, 2),
    (2, 1, 1999, 1998, 2),
    (3, 1, 1999, 5, 2),
]
REFUSED = [
    ["lratio", "--n", "3", "--k", "1", "--a", "20011,1", "--q", "2"],
    ["intertwine-nonarch", "--n", "1634", "--k", "1", "--a", "1999,1998", "--q", "2"],
]
GAUSS = [
    # (q, chi_order, chi_index)
    (7, 6, 1),
    (7, 3, 2),
    (8, 7, 3),
    (9, 8, 1),
    (9, 1, 0),
    (25, 12, 5),
    (32, 31, 1),
    (43, 42, 11),
    (49, 16, 3),
    # prime powers p^e, e >= 2, at the full character order: these pin the
    # modulus and the generator FiniteField chooses
    (16, 15, 1),
    (27, 26, 1),
    (64, 63, 1),
    (81, 80, 1),
    (121, 120, 1),
    (125, 124, 1),
    (128, 127, 1),
    (243, 242, 1),
    (256, 255, 1),
    (512, 511, 1),
]
QI = ["--config", "configs/qi.json"]
QIC = ["--config", "configs/qic.json"]
FIND_WK = [
    # (config, n, eta orientations): every k, by bottom degree and by full scan
    (QI, 2, ("0,2", "2,0")),
    (QI, 3, ("0,3", "3,0")),
    (QIC, 2, ("0,2", "2,0")),
]
FIELD = (
    [cfg + ["field-check"] for cfg in (QI, QIC)]
    + [QI + ["balanced"], QI + ["balanced", "--oracle"]]
    + [QI + ["kostant", "--n", "2", "--p", str(p)] for p in range(4)]
    + [QI + ["kostant", "--n", "3", "--p", str(p)] for p in range(4)]
    + [QIC + ["kostant", "--n", "2", "--p", "3"]]
    + [cfg + ["find-wk", "--n", str(n), "--k", str(k), "--eta", eta] + scan
       for cfg, n, etas in FIND_WK for eta in etas for k in range(1, n + 1)
       for scan in ([], ["--full-scan"])]
    + [QI + ["find-wk", "--n", "2", "--k", "1", "--eta", "1,1"]]  # no closed form: refused, exit 2
    # not two-sided: no bottom-degree match, and a full-scan match of the wrong length (exit 1)
    + [QI + ["find-wk", "--n", "2", "--k", "1", "--eta", "0,0"] + scan for scan in ([], ["--full-scan"])]
    + [QI + ["wedge-sign", "--n", "3", "--k", "2", "--g", g] for g in ("id", "conj", "1,0")]
    + [QIC + ["wedge-sign", "--n", "2", "--k", "1", "--g", g] for g in ("conj", "1,2,0,4,5,3")]
    + [cfg + ["constant-term", "--n", "3", "--ord0", ord0] + flip
       for cfg in (QI, QIC) for ord0 in ("0", "pos") for flip in ([], ["--flip-branch"])]
    + [["intertwine-arch", "--n", "2", "--k", "2", "--eta", "0,2", "--beta", "0,2", "--s", "1"],
       ["intertwine-arch", "--n", "3", "--k", "3", "--eta", "-1,3", "--beta", "1,1,2", "--s", "2"],
       ["intertwine-arch", "--n", "2", "--k", "1", "--eta", "0,2", "--beta", "1,1", "--s", "1"],
       ["intertwine-arch", "--n", "2", "--k", "1", "--eta", "0,2", "--beta", "0,2", "--s", "1,0.5"]]
)
# one refused run per work bound of the field commands: grid points, Weyl
# elements by length and by full scan, and the rank (wedge-sign, find-wk and
# constant-term)
FIELD_REFUSED = [
    ["--config", "tests/data/grid_n2_b2.json", "balanced"],
    QI + ["kostant", "--n", "9", "--p", "30"],
    QI + ["find-wk", "--n", "7", "--k", "1", "--full-scan"],
    QI + ["wedge-sign", "--n", "1001", "--k", "1", "--g", "conj"],
    QI + ["find-wk", "--n", "1001", "--k", "1"],
    QI + ["constant-term", "--n", "1001", "--ord0", "pos"],
]
# intertwine-arch at slice dimensions m = n - k of 2 to 5, the last refused;
# records format only, plus one table case below
ARCH_SLICES = (
    [["intertwine-arch", "--n", "3", "--k", "1", "--eta=-1,3", "--beta", beta, "--s", s]
     for beta in ("0,0,4", "1,0,3") for s in ("2", "1.5,0.5")]
    + [["intertwine-arch", "--n", "4", "--k", "1", "--eta", "0,4", "--beta", "0,0,0,4",
        "--s", "1.5,0.5"],
       ["intertwine-arch", "--n", "5", "--k", "1", "--eta", "0,5", "--beta", "1,0,0,0,4",
        "--s", "2"],
       ["intertwine-arch", "--n", "6", "--k", "1", "--eta", "0,6", "--beta", "0,0,0,0,0,6",
        "--s", "1.5,0.5"]]
)
FORMATS = ("records", "table")


def local_argv(cmd, n, k, order, index, q):
    return [cmd, "--n", str(n), "--k", str(k), "--a", f"{order},{index}", "--q", str(q)]


COMMANDS = (
    [local_argv(cmd, *c) for c in LOCAL for cmd in ("lratio", "intertwine-nonarch")]
    + [["intertwine-nonarch", "--n", "1634", "--k", "1", "--a", "443,442", "--q", "2"]]
    + REFUSED
    + [["gauss", "--q", str(q), "--chi-order", str(o), "--chi-index", str(i)] for q, o, i in GAUSS]
    + FIELD
    + FIELD_REFUSED
)
CASES = [" ".join(["--format", fmt] + argv) for argv in COMMANDS for fmt in FORMATS]
# 11,664 points: one format is enough
CASES.append("--format records --config configs/grid_n2.json balanced")
# a k_basis whose norm of disc(k/k1), 4/81, is beyond --max-den: a failing record
CASES.append("--format records --config tests/data/k_basis_halves_thirds.json field-check --max-den 30")
CASES += [" ".join(["--format", "records"] + argv) for argv in ARCH_SLICES]
CASES.append(" ".join(["--format", "table"] + ARCH_SLICES[4]))
# a valid k1_basis of 1e-200 over Q(i): delta_constant underflows to 0 and
# identity_constant_rational fails with "degenerate normalizing constant"
CASES.append("--format records --config tests/data/k1_basis_1e-200.json field-check")


def run(case: str) -> dict:
    argv = [str(REPO / w) if w.endswith(".json") else w for w in case.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_every_case(corpus):
    assert sorted(corpus) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_case_is_byte_identical(case, corpus):
    assert run(case) == corpus[case]


def changes(old: dict, new: dict) -> list[str]:
    """One line per case added, removed or changed from ``old`` to ``new``."""
    lines = [f"added: {c}" for c in sorted(new.keys() - old.keys())]
    lines += [f"removed: {c}" for c in sorted(old.keys() - new.keys())]
    for case in sorted(old.keys() & new.keys()):
        before, after = old[case], new[case]
        if before != after:
            exit_note = f" (exit {before['exit']} -> {after['exit']})" if before["exit"] != after["exit"] else ""
            lines.append(f"changed: {case}{exit_note}")
    return lines


if __name__ == "__main__":
    old = json.loads(CORPUS.read_text(encoding="utf-8")) if CORPUS.exists() else {}
    data = {case: run(case) for case in CASES}
    for line in changes(old, data):
        print(line)
    CORPUS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {CORPUS}")
