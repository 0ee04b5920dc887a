"""Differential corpus: CLI runs beyond the README commands.

Each case runs ``cli.main`` in-process; its exit status and the SHA-256 of
its stdout must equal the recorded ones in ``data/cli_corpus.json``.  The
cases cover ``lratio`` and ``intertwine-nonarch`` at roots of unity of
order 1, 2, 12, 336, 331, 443 and 1999, and ``gauss`` at prime and
prime-power q, in both output formats.  On a mismatch, the test id names
the case, so it can be rerun by hand for a full diff.  Re-record only for
a deliberate change of a report, with
``PYTHONPATH=src python tests/test_cli_corpus.py``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from periodlab.cli import main

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.json"

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
]
FORMATS = ("records", "table")


def local_argv(cmd, n, k, order, index, q):
    return [cmd, "--n", str(n), "--k", str(k), "--a", f"{order},{index}", "--q", str(q)]


COMMANDS = (
    [local_argv(cmd, *c) for c in LOCAL for cmd in ("lratio", "intertwine-nonarch")]
    + [["intertwine-nonarch", "--n", "1634", "--k", "1", "--a", "443,442", "--q", "2"]]
    + REFUSED
    + [["gauss", "--q", str(q), "--chi-order", str(o), "--chi-index", str(i)] for q, o, i in GAUSS]
)
CASES = [" ".join(["--format", fmt] + argv) for argv in COMMANDS for fmt in FORMATS]


def run(case: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(case.split())
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


@pytest.fixture(scope="module")
def corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_covers_every_case(corpus):
    assert sorted(corpus) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_cli_case_is_byte_identical(case, corpus):
    assert run(case) == corpus[case]


if __name__ == "__main__":
    data = {case: run(case) for case in CASES}
    CORPUS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {CORPUS}")
