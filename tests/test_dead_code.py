"""Dead-code guard: every top-level function, class, method and
module-level assigned name of the package (dunders excepted) is named
somewhere in src/ or perfbench/ besides its own definition, every method
is also read as an attribute (``.name``) there, and every error class but
the base is raised somewhere in src/.  A use in tests/ alone does not
count: test-only code lives in tests/ (see oracles.py).

Names are matched as words, not resolved: a method used only by tests
still passes when another method of the same name is used.
``XPoly.galois`` and ``LaurentRatio.galois`` are that case, since
``Cyc.galois`` shares their name."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "periodlab"
SEARCHED = ("src", "perfbench")
# Paper kernels that acceptance criterion 9 checks and no command prints.
# Moved into tests/, criterion 9 would test test code.
TESTED_KERNELS = {"in_b_plus", "archimedean_constant"}


def _definitions(tree):
    """(name, line, is_method) of the module's functions, classes and
    their methods, and of the names its top-level assignments bind."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, False
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno, True


def test_every_definition_is_used():
    defined = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, line, is_method in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if not (name.startswith("__") and name.endswith("__")):
                defined.append((name, f"{path.relative_to(ROOT)}:{line}", is_method))
    sites = Counter(name for name, _, _ in defined)
    words, attributes = Counter(), Counter()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            words.update(re.findall(r"\w+", text))
            attributes.update(re.findall(r"\.\s*(\w+)", text))
    unused = sorted(where + " " + name for name, where, is_method in defined
                    if (words[name] <= sites[name] or is_method and not attributes[name])
                    and name not in TESTED_KERNELS)
    assert not unused, "named only at their definitions: " + ", ".join(unused)


def test_every_error_class_is_raised():
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if isinstance(node.exc.func, ast.Name):
                    raised.add(node.exc.func.id)
    never = sorted(classes - raised - {"PeriodLabError"})
    assert not never, "error classes never raised in src/: " + ", ".join(never)
