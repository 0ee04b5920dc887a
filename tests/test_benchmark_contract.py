"""The benchmark imports periodlab by name; a rename in src/ or an output
its checker rejects would only show when the benchmark is run.  Install
the traced run's wrappers, and run a few checks of every workload, here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_with_perfbench(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with src/ and perfbench/ on the path."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_tracing_installs_on_every_patched_name():
    out = run_with_perfbench("import tracing; tracing.install()")
    assert out.returncode == 0, out.stderr


CHECK_EVERY_WORKLOAD = """
import workloads
for name, workload in workloads.WORKLOADS.items():
    w = workload()
    for inp in w.setup(1)[:3]:
        assert w.check(inp, w.run(inp)), (name, inp)
"""


def test_every_workload_checker_accepts_the_first_outputs():
    out = run_with_perfbench(CHECK_EVERY_WORKLOAD)
    assert out.returncode == 0, out.stderr


ONE_QUAD_AND_ONE_POLAR_CALL_PER_CHECK = """
import tracing, workloads
tracer = tracing.install()
w = workloads.WORKLOADS["arch-quad"]()
inputs = w.setup(1)
for inp in inputs:
    assert w.check(inp, w.run(inp)), inp
counts = tracer.counts["checks"]
assert counts["quadrature.gk.calls"] == len(inputs), counts
assert counts["quadrature.fallback.calls"] == len(inputs), counts
"""


def test_arch_quad_check_makes_one_quad_and_one_polar_call():
    """``quadrature.gk.calls`` counts ``quad`` and ``quadrature.fallback.calls``
    counts ``exp_sinh_halfline``: one of each per arch-quad check, the
    tensor rule and the polar check of its whole integral."""
    out = run_with_perfbench(ONE_QUAD_AND_ONE_POLAR_CALL_PER_CHECK)
    assert out.returncode == 0, out.stderr
