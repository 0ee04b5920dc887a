"""Byte-for-byte guard on the README's CLI commands.

Each of the ten commands of the README's CLI section runs in both output
formats; its exit status and stdout must equal the recorded ones in
``data/readme_cli_golden.json``.  After a deliberate change of a report,
rewrite the data with ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import importlib
import io
import json
import pkgutil
import re
from pathlib import Path

import pytest

import periodlab
from periodlab.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "readme_cli_golden.json"
QI_CONFIG = str(HERE.parent / "configs" / "qi.json")

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
FORMATS = ("records", "table")
CASES = [(fmt, argv) for argv in README_COMMANDS for fmt in FORMATS]


def case_id(fmt: str, argv: list[str]) -> str:
    """The command as the README writes it, with its format."""
    shown = ["configs/qi.json" if a == QI_CONFIG else a for a in argv]
    return " ".join(["--format", fmt] + shown)


def run(fmt: str, argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["--format", fmt] + argv)
    return {"exit": code, "stdout": out.getvalue()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("fmt,argv", CASES, ids=[case_id(f, a) for f, a in CASES])
def test_readme_command_is_byte_identical(fmt, argv, golden):
    assert run(fmt, argv) == golden[case_id(fmt, argv)]


def test_readme_module_names_resolve():
    """Every backticked `module.NAME` the README gives for a periodlab
    module exists there; `weights.n` is a config key, not a name."""
    modules = {m.name for m in pkgutil.iter_modules(periodlab.__path__)}
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    names = {(mod, name) for mod, name in re.findall(r"`(\w+)\.(\w+)`", readme) if mod in modules}
    assert len(names) > 10
    missing = [f"{mod}.{name}" for mod, name in sorted(names - {("weights", "n")})
               if not hasattr(importlib.import_module(f"periodlab.{mod}"), name)]
    assert missing == []


if __name__ == "__main__":
    data = {case_id(f, a): run(f, a) for f, a in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}")
