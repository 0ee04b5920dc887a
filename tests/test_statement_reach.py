"""The statement-reach tool reports each module against its source as the
trace first met it, not as the file reads at the end of the session."""

from types import SimpleNamespace

import statement_reach

SOURCE = "x = 1\nif x:\n    y = 2\nelse:\n    y = 3\n"


def test_report_reads_each_module_as_first_met(tmp_path, monkeypatch):
    package = tmp_path / "periodlab"
    package.mkdir()
    module = package / "mod.py"
    module.write_text(SOURCE)
    monkeypatch.setattr(statement_reach, "PREFIX", str(package) + "/")
    monkeypatch.setattr(statement_reach, "lines_run", {})
    monkeypatch.setattr(statement_reach, "sources", {})
    frame = SimpleNamespace(f_code=SimpleNamespace(co_filename=str(module)), f_lineno=0)
    trace = statement_reach._global(frame, "call", None)
    for line in (1, 2, 3):
        frame.f_lineno = line
        trace(frame, "line", None)
    expected = ["1 of 4 statements never ran", "  mod: 1 of 4", "mod:5  y = 3"]
    assert statement_reach.report(package) == expected
    # edited after the module ran: three statements shift every line
    module.write_text("z = 0\n" * 3 + SOURCE)
    assert statement_reach.report(package) == expected
    # a module the trace never met is read from its file
    (package / "other.py").write_text("w = 0\n")
    assert statement_reach.report(package) == [
        "2 of 5 statements never ran", "  mod: 1 of 4", "  other: 1 of 1",
        "mod:5  y = 3", "other:1  w = 0",
    ]
