"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --seeds 10 --out perfbench/out/set-a.json
    python3 perfbench/spread.py --report perfbench/out/set-a.json perfbench/out/set-b.json

Runs the benchmark command of BENCHMARK.json once per seed and workload
(seeds in the outer loop, so each workload's runs are spread over the
whole set), then prints, per workload and metric, the median, the
quartiles of ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median next to the metric's bound.  ``--report`` prints the
same for saved sets and, for two sets, how far the second median moved
in the metric's "worse" direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Raw wall-time figures from each run's info line; reported next to the
# gated metrics but not gated (see README, "Run-to-run spread").
UNGATED = [("check_p50_ms", "lower"), ("checks_per_s", "higher")]


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(bench: dict, workload: str, seed: int, seconds: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def summarize(runs: list[dict], bench: dict) -> list[dict]:
    rows = []
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        rows.append(quartiles(metric["name"], values, metric["bound"]))
    for name, _ in UNGATED:
        rows.append(quartiles(name, [r["info"][name] for r in runs], "none"))
    return rows


def quartiles(name: str, values: list, bound) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"metric": name, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound}


def report(sets: list[dict], bench: dict) -> None:
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    better.update(UNGATED)
    for workload in sets[0]["runs"]:
        print(f"\n### {workload}\n")
        print("| metric | " + " | ".join(
            f"set {i + 1}: median [Q1, Q3] | spread" for i in range(len(sets))
        ) + (" | set 2 vs 1, worse by |" if len(sets) == 2 else ""))
        print("|---" * (1 + 2 * len(sets) + (len(sets) == 2)) + "|")
        summaries = [summarize(s["runs"][workload], bench) for s in sets]
        for i, row in enumerate(summaries[0]):
            cells = [row["metric"]]
            for summ in summaries:
                r = summ[i]
                cells += [f"{r['median']:.4g} [{r['q1']:.4g}, {r['q3']:.4g}]",
                          f"{r['spread']:.3f} (bound {r['bound']})"]
            if len(sets) == 2:
                a, b = summaries[0][i]["median"], summaries[1][i]["median"]
                worse = (b - a) / a if better[row["metric"]] == "lower" else (a - b) / a
                cells.append(f"{worse:+.3f}")
            print("| " + " | ".join(cells) + " |")
        shares = [
            {r["failed"] / r["attempted"] for r in s["runs"][workload]} for s in sets
        ]
        print(f"\nfailed share per run: {shares}")
        for i, s in enumerate(sets):
            ref = quartiles("ref", [r["info"]["ref_p50_ms"] for r in s["runs"][workload]], None)
            print(f"set {i + 1}: reference loop median {ref['median']:.4g} ms "
                  f"[{ref['q1']:.4g}, {ref['q3']:.4g}], spread {ref['spread']:.3f}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--report", type=Path, nargs="+", default=None)
    args = p.parse_args(argv)
    bench = load_benchmark()

    if args.report:
        report([json.loads(path.read_text()) for path in args.report], bench)
        return 0

    names = [w["name"] for w in bench["workloads"]]
    runs: dict[str, list] = {name: [] for name in names}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in names:
            result = run_once(bench, name, seed, bench["run_seconds"])
            runs[name].append(result)
            print(name, seed, json.dumps(result["metrics"]), file=sys.stderr, flush=True)
    saved = {"seeds": [args.first_seed, args.first_seed + args.seeds - 1], "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(saved, indent=1))
    report([saved], bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
