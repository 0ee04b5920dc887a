"""Self-test of the benchmark's checkers: each accepts a real output and
rejects a deliberately perturbed one, so the checks can fail.

    python3 -m pytest perfbench/test_checkers.py
    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import copy
import io
import json
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

sys.path.insert(0, str(workloads.SRC))


def cli_output(argv):
    """(exit status, stdout) of one CLI command, run in this process."""
    from periodlab import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(list(argv))
    return status, buf.getvalue()


def edit_report(out, edit):
    status, stdout = out
    report = json.loads(stdout)
    edit(report)
    return status, json.dumps(report)


def command(name):
    return next(argv for argv in workloads.README_COMMANDS if name in argv)


class InputTests(unittest.TestCase):
    def test_sizes_and_seeding(self):
        for name, size in (
            ("weyl-certify", 1200), ("arch-quad", 54), ("exact-arith", 72), ("cli-cold", 10)
        ):
            first = workloads.WORKLOADS[name]().setup(7)
            again = workloads.WORKLOADS[name]().setup(7)
            other = workloads.WORKLOADS[name]().setup(8)
            self.assertEqual(len(first), size, name)
            self.assertEqual(repr(first), repr(again), name)
            self.assertNotEqual(repr(first), repr(other), name)


class WeylCheckerTests(unittest.TestCase):
    def setUp(self):
        wl = workloads.WeylCertify()
        self.inp = next(i for i in wl.setup(1) if i[2] == 2)
        self.out = wl.run(self.inp)

    def test_accepts_real_certificate(self):
        self.assertTrue(workloads.check_weyl(self.inp, self.out))

    def test_rejects_wrong_element(self):
        element, cert = self.out
        comps = list(element.components)
        comps[0], comps[1] = comps[1], comps[0]
        if comps == list(element.components):
            comps[0] = tuple(range(1, self.inp[1] + 1))
        bad = SimpleNamespace(components=tuple(comps))
        self.assertFalse(workloads.check_weyl(self.inp, (bad, cert)))

    def test_rejects_wrong_match_count(self):
        element, cert = self.out
        self.assertFalse(workloads.check_weyl(self.inp, (element, dict(cert, matches=2))))

    def test_rejects_wrong_length(self):
        element, cert = self.out
        longer = tuple(tuple(reversed(c)) for c in element.components)
        self.assertFalse(workloads.check_weyl(self.inp, (SimpleNamespace(components=longer), cert)))


class ArchCheckerTests(unittest.TestCase):
    def setUp(self):
        self.wl = workloads.ArchQuad()
        inputs = [i for i in self.wl.setup(1) if i[0] == (0, 4) and i[2] == 2.0]
        self.on = next(i for i in inputs if i[1] == (0, 0, 4))
        self.off = next(i for i in inputs if i[1] != (0, 0, 4))

    def test_accepts_real_integrals(self):
        for inp in (self.on, self.off):
            self.assertTrue(workloads.check_arch(inp, self.wl.run(inp)))

    def test_rejects_perturbed_value(self):
        out = self.wl.run(self.on)
        bad = SimpleNamespace(value=out.value * (1 + 1e-5))
        self.assertFalse(workloads.check_arch(self.on, bad))

    def test_rejects_nonzero_off_target(self):
        product = workloads.shift_ratio_product(2.0, 4, 2)
        bad = SimpleNamespace(value=1e-7 * abs(product))
        self.assertFalse(workloads.check_arch(self.off, bad))


class ExactCheckerTests(unittest.TestCase):
    def setUp(self):
        self.wl = workloads.ExactArith()
        inputs = self.wl.setup(1)
        self.inp = next(i for i in inputs if i[:3] == (2, 1, 2))
        self.other = next(i for i in inputs if i[:3] == (2, 1, 2) and i != self.inp)
        self.out = self.wl.run(self.inp)

    def test_accepts_real_identity(self):
        self.assertTrue(workloads.check_exact(self.inp, self.out))

    def test_rejects_failed_verdict(self):
        bad = SimpleNamespace(verdict=False, value=self.out.value)
        self.assertFalse(workloads.check_exact(self.inp, bad))

    def test_rejects_ratio_of_another_input(self):
        bad = SimpleNamespace(verdict=True, value=self.wl.run(self.other).value)
        self.assertFalse(workloads.check_exact(self.inp, bad))


class CliCheckerTests(unittest.TestCase):
    def test_accepts_every_readme_command(self):
        for argv in workloads.README_COMMANDS:
            self.assertTrue(workloads.check_cli(argv, cli_output(argv)), argv)

    def test_rejects_exit_status_and_failing_record(self):
        argv = command("lratio")
        status, stdout = cli_output(argv)
        self.assertFalse(workloads.check_cli(argv, (1, stdout)))
        bad = edit_report((status, stdout), lambda r: r["summary"].update(fail=1))
        self.assertFalse(workloads.check_cli(argv, bad))
        self.assertFalse(workloads.check_cli(argv, (0, "not json")))

    def test_rejects_perturbed_gauss_value(self):
        argv = command("gauss")

        def edit(report):
            rec = next(r for r in report["records"] if r["name"] == "value_float")
            g = complex(rec["got"].replace("i", "j")) * (1 + 1e-6)
            rec["got"] = f"{g.real:.15g}{g.imag:+.15g}i"

        self.assertFalse(workloads.check_cli(argv, edit_report(cli_output(argv), edit)))

    def test_rejects_perturbed_integral(self):
        argv = command("intertwine-arch")

        def edit(report):
            rec = next(r for r in report["records"] if r["name"] == "integral")
            rec["got"] = "3.1416+0i"

        self.assertFalse(workloads.check_cli(argv, edit_report(cli_output(argv), edit)))

    def test_rejects_wrong_line_count(self):
        argv = command("kostant")
        out = cli_output(argv)

        def drop_line(report):
            report["records"] = [r for r in report["records"] if r["name"] != "line_0"]

        def bump_count(report):
            next(r for r in report["records"] if r["name"] == "line_count")["got"] += 1

        for edit in (drop_line, bump_count):
            self.assertFalse(workloads.check_cli(argv, edit_report(copy.deepcopy(out), edit)))


if __name__ == "__main__":
    unittest.main()
