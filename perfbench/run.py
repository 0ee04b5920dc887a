"""periodlab benchmark harness (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``periodlab`` is imported from ``src/``.
One invocation runs one workload in this fresh interpreter.  A single
caller runs the checks in a closed loop (each check starts when the
previous one returns), in whole passes over the workload's input list,
starting passes until ``--seconds`` have gone by.  Every output goes
through the workload's independent checker; a check that raises or is
rejected counts as failed.

After every check the harness times a fixed pure-Python reference loop,
so that a check's cost can be given in units of that loop
(``check_cost_ref``), which follows the host's speed as it drifts.  The
reference loop's time is not counted in the info line's ``checks_per_s``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
wrappers of ``tracing.py``, runs the same loop, then in-process passes
over the README commands and fresh-interpreter import probes, and prints
the per-layer metrics.  The last line of stdout is the result object;
the line before it carries figures that are not gated.
"""

import time

T0 = time.perf_counter()  # harness start: set-up time is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

SETUP_SAMPLES = 7  # this process's set-up plus six fresh interpreters
IMPORT_PROBES = 3  # fresh interpreters per import-time probe (traced runs)
README_PASSES = 3  # in-process passes over the README commands (traced runs)
# After each check the reference loop runs at least once and until it has
# taken this share of the check's time, so its samples cover the run's
# timeline as the checks do, whatever a check costs.
REF_SHARE = 0.05
SEGMENT_S = 1.0
OUT_DIR = workloads.ROOT / "perfbench" / "out"


def reference_loop() -> None:
    """Fixed pure-Python work, about a millisecond, in two parts that
    resemble the benchmarked layers: integer and dict operations (Weyl
    scans) and Fraction arithmetic (exact cyclotomic arithmetic)."""
    acc = 0
    table = {}
    for i in range(1000):
        key = (i * 7919) % 97
        table[key] = table.get(key, 0) + (acc & 255)
        acc = (acc * 31 + key) % 1000003
    frac = Fraction(0)
    for i in range(1, 60):
        frac += Fraction(i, i + 7) * Fraction(3, i + 1)


def tail_percentile(samples: list[float]):
    """The highest of p50..p99.9 with at least ten samples beyond it, or
    None below forty samples."""
    n = len(samples)
    if n < 40:
        return None
    ordered = sorted(samples)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = (p, ordered[min(n - 1, int(p / 100 * n))])
    return {"p": best[0], "ms": best[1] * 1000}


def measure(wl, inputs, seconds: float, tracer=None) -> dict:
    """Whole passes over ``inputs`` until ``seconds`` have gone by."""
    check_s, refs_after = [], []
    attempted = failed = passes = 0
    incorrect = False
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for inp in inputs:
            t0 = time.perf_counter()
            try:
                out = wl.run(inp)
            except Exception as exc:  # a raising check is a failed operation
                out, ok = exc, False
            else:
                ok = None
            dt = time.perf_counter() - t0
            if ok is None:
                ok = wl.check(inp, out)
                incorrect = incorrect or not ok
            attempted += 1
            failed += not ok
            check_s.append(dt)
            if tracer is not None:
                tracer.check_done()
            refs = []
            while not refs or sum(refs) < REF_SHARE * dt:
                r0 = time.perf_counter()
                reference_loop()
                refs.append(time.perf_counter() - r0)
            refs_after.append(refs)
        passes += 1
    wall = time.perf_counter() - start
    return {
        "check_s": check_s, "refs_after": refs_after, "attempted": attempted,
        "failed": failed, "incorrect": incorrect, "passes": passes,
        "busy_s": wall - sum(sum(refs) for refs in refs_after),
    }


def cost_in_ref_units(check_s: list, refs_after: list) -> float:
    """Mean cost of one check in reference-loop units.

    The host's speed changes from one second to the next, so the run is
    cut into consecutive segments of about SEGMENT_S and the checks of
    each segment are divided by the median reference loop of that
    segment.  The mean over whole passes is used, not the median: on
    arch-quad the median check hardly follows the host's speed while
    the pass total does."""
    total, seg_check, seg_refs, seg_time = 0.0, 0.0, [], 0.0
    for i, (dt, refs) in enumerate(zip(check_s, refs_after)):
        seg_check += dt
        seg_refs.extend(refs)
        seg_time += dt + sum(refs)
        if seg_time >= SEGMENT_S or i == len(check_s) - 1:
            total += seg_check / statistics.median(seg_refs)
            seg_check, seg_refs, seg_time = 0.0, [], 0.0
    return total / len(check_s)


def peak_rss_mb(who: str) -> float:
    which = resource.RUSAGE_CHILDREN if who == "children" else resource.RUSAGE_SELF
    return resource.getrusage(which).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def fresh_setup_s(workload: str, seed: int) -> float:
    """Set-up time of this workload in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def import_s(module: str) -> float:
    """Import time of one module in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import " + module
        + "; print(time.perf_counter() - t)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=workloads.child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def readme_pass(tracer) -> bool:
    """The README commands in this process, under the tracer's README scope."""
    import contextlib
    import io

    from periodlab import cli

    tracer.set_scope("readme")
    ok = True
    for _ in range(README_PASSES):
        for argv in workloads.README_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                ok = cli.main(list(argv)) == 0 and ok
            tracer.check_done()
    tracer.set_scope("checks")
    return ok


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (workloads.SRC / "periodlab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no periodlab sources under {workloads.SRC}\n")
        return 2
    sys.path.insert(0, str(workloads.SRC))
    wl = workloads.WORKLOADS[args.workload]()

    if args.setup_only:
        wl.setup(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    if args.trace:
        import tracing

        tracer = tracing.install()
        inputs = wl.setup(args.seed)
        run = measure(wl, inputs, args.seconds, tracer)
        readme_ok = readme_pass(tracer)
        metrics, sources = tracer.layer_metrics()
        for metric, module in tracing.IMPORT_METRICS:
            value = statistics.median(import_s(module) for _ in range(IMPORT_PROBES))
            metrics[metric] = {"value": value, "unit": "s"}
            sources[metric] = "import-probe"
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_path)
        correct = not run["incorrect"] and readme_ok
        info = {"sources": sources, "trace_file": str(trace_path.relative_to(workloads.ROOT))}
    else:
        inputs = wl.setup(args.seed)
        setups = [time.perf_counter() - T0]
        run = measure(wl, inputs, args.seconds)
        rss = peak_rss_mb(wl.rss_of)
        setups += [fresh_setup_s(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "check_cost_ref": {
                "value": cost_in_ref_units(run["check_s"], run["refs_after"]), "unit": "ref"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
        correct = not run["incorrect"]
        info = {"setup_samples_s": setups}

    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": len(run["check_s"]), "passes": run["passes"],
        "check_p50_ms": statistics.median(run["check_s"]) * 1000,
        "checks_per_s": (run["attempted"] - run["failed"]) / run["busy_s"],
        "tail": tail_percentile(run["check_s"]),
        "ref_p50_ms": statistics.median(r for refs in run["refs_after"] for r in refs) * 1000,
        "attempted": run["attempted"], "failed": run["failed"],
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct, "attempted": run["attempted"], "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
