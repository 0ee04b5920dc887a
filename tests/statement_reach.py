"""Statement reach of the package under a pytest run: which statements of
src/periodlab never run.

    PYTHONPATH=src:tests python -m pytest -p statement_reach -q

A pytest plugin, loaded by name (pytest collects ``test_*.py`` only, so a
plain tier-1 run does not load it).  It installs one trace function with
``sys.settrace`` and ``threading.settrace`` when pytest configures, and
records the lines run in frames whose code lives under src/periodlab.
It reads a module's source when the trace first meets a frame of it,
which is when the module is imported, so a source edited during the run
is reported as it ran.  At the end of the session it counts the ``ast``
statements of each module (from that snapshot, or from the file of a
module never run), docstrings left out, and prints the count per module
and each statement that never ran, as ``module:line  source``.

A statement has run when a line event fell on one of its header lines
(from its first decorator or keyword to the line before its body) or when
one of the statements it contains has run.  ``global`` and ``nonlocal``
compile to no code and are not counted.  Only this interpreter is seen: a
test that runs the package in a fresh interpreter adds nothing.  The
trace slows tier-1 about fourfold (45 s to 166 s on a 2-vCPU host).
"""

import ast
import sys
import threading
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "periodlab"
PREFIX = str(PACKAGE) + "/"
BODIES = ("body", "orelse", "finalbody", "handlers", "cases")

lines_run: dict[str, set[int]] = {}
sources: dict[str, str] = {}  # each module's source when first met


def _local(frame, event, arg):
    if event == "line":
        lines_run[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None
    if filename not in lines_run:
        lines_run[filename] = set()
        sources[filename] = Path(filename).read_text(encoding="utf-8")
    return _local


def _is_docstring(node, parent) -> bool:
    return (isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and parent.body and parent.body[0] is node
            and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _children(node) -> list:
    """The statements directly inside a compound statement."""
    out = []
    for field in BODIES:
        for child in getattr(node, field, None) or []:
            out.extend(child.body if isinstance(child, (ast.ExceptHandler, ast.match_case))
                       else [child])
    return out


def _header(node) -> range:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    inner = _children(node)
    return range(first, min(c.lineno for c in inner) if inner else node.end_lineno + 1)


def never_run(source: str, run: set[int]) -> tuple[list, list]:
    """The counted statements of one module's source, and those of them
    that never ran."""
    counted, missed = [], []

    def visit(node, parent) -> bool:
        """Whether ``node`` ran; counts it and its contents."""
        inner = [visit(child, node) for child in _children(node)]
        ran = any(inner) or any(line in run for line in _header(node))
        if not isinstance(node, (ast.Global, ast.Nonlocal)) and not _is_docstring(node, parent):
            counted.append(node)
            if not ran:
                missed.append(node)
        return ran

    tree = ast.parse(source)
    for node in tree.body:
        visit(node, tree)
    return counted, missed


def pytest_configure(config):
    sys.settrace(_global)
    threading.settrace(_global)


def report(package: Path = PACKAGE) -> list[str]:
    """The summary: the total, the count per module, and each statement
    that never ran, against each module's source as it ran."""
    totals, missed_by = Counter(), {}
    for path in sorted(package.glob("*.py")):
        source = sources.get(str(path)) or path.read_text(encoding="utf-8")
        counted, missed = never_run(source, lines_run.get(str(path), set()))
        totals[path.stem] = len(counted)
        missed_by[path.stem] = (source.splitlines(), missed)
    lines = [f"{sum(len(m) for _, m in missed_by.values())} of {sum(totals.values())} "
             "statements never ran"]
    lines += [f"  {stem}: {len(missed)} of {totals[stem]}"
              for stem, (_, missed) in missed_by.items()]
    for stem, (source_lines, missed) in missed_by.items():
        lines += [f"{stem}:{node.lineno}  {source_lines[node.lineno - 1].strip()}"
                  for node in missed]
    return lines


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("statement reach")
    for line in report():
        terminalreporter.write_line(line)
