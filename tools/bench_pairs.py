"""Run the benchmark in alternating parent/change pairs and summarise it.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10]
                                 [--seed 0] [--seconds S]

PARENT and CHANGE are two frontlab checkouts.  Pair k (seed = --seed + k)
runs `python3 perfbench/run.py --workload W --seed SEED` in each checkout,
from its root, with that checkout's own perfbench/ and
PYTHONDONTWRITEBYTECODE=1; the parent runs first on even seeds and the
change first on odd ones.  --seconds is passed on to run.py.

For each end-to-end metric of CHANGE's BENCHMARK.json it prints the median
and interquartile range (IQR) of both sides, the number of pairs the change
won, the bound (in the metric's unit) and a verdict: "worse" when the
change's median is worse than the parent's by more than the bound,
"unresolved" when the parent's IQR is wider than the bound, and "no
regression" otherwise.  Then the attempted and failed operations of each
side, and whether every run reported correct: true; a run that reports a
wrong output ends the tool with exit code 1.

The peak resident set of a run depends on the length of the checkout's
path, so two checkouts whose absolute paths differ in length are refused.
Nothing is written under either checkout's perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(checkout: Path, workload: str, seed: int, seconds) -> dict:
    """The last stdout line of one perfbench/run.py run, as a dict."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{checkout}: perfbench/run.py exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def summarize(pairs: list, end_to_end: list) -> dict:
    """Medians, IQRs, wins and verdicts of (parent, change) run results.

    pairs holds (parent, change) dicts as run.py prints them; end_to_end is
    BENCHMARK.json's list of {"name", "better", "bound"} entries.
    """
    rows = []
    for spec in end_to_end:
        name, bound = spec["name"], float(spec["bound"])
        sign = 1.0 if spec["better"] == "lower" else -1.0
        values = [[run["metrics"][name]["value"] for run in side] for side in zip(*pairs)]
        (p25, p50, p75), (c25, c50, c75) = (np.percentile(v, [25, 50, 75]) for v in values)
        if sign * (c50 - p50) > bound:
            verdict = "worse"
        elif p75 - p25 > bound:
            verdict = "unresolved"
        else:
            verdict = "no regression"
        rows.append({"name": name, "unit": spec.get("unit", ""), "bound": bound,
                     "parent_median": p50, "parent_iqr": p75 - p25,
                     "change_median": c50, "change_iqr": c75 - c25,
                     "won": sum(sign * (c - p) < 0.0 for p, c in zip(*values)),
                     "verdict": verdict})
    return {"pairs": len(pairs), "metrics": rows,
            "attempted": [sum(run["attempted"] for run in side) for side in zip(*pairs)],
            "failed": [sum(run["failed"] for run in side) for side in zip(*pairs)],
            "all_correct": all(run["correct"] for pair in pairs for run in pair)}


def report(summary: dict) -> str:
    lines = []
    for r in summary["metrics"]:
        lines.append(f"{r['name']}: parent {r['parent_median']:.6g} (IQR {r['parent_iqr']:.3g}), "
                     f"change {r['change_median']:.6g} (IQR {r['change_iqr']:.3g}) {r['unit']}; "
                     f"change won {r['won']} of {summary['pairs']}; bound {r['bound']:g}: "
                     f"{r['verdict']}")
    (pa, ca), (pf, cf) = summary["attempted"], summary["failed"]
    lines.append(f"operations: parent {pf} of {pa} failed, change {cf} of {ca} failed")
    lines.append(f"every run correct: {str(summary['all_correct']).lower()}")
    return "\n".join(lines)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    for tree in (parent, change):
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"{tree} has no perfbench/run.py", file=sys.stderr)
            return 2
    if len(str(parent)) != len(str(change)):
        print(f"checkout paths differ in length ({len(str(parent))} and {len(str(change))} "
              "characters), which moves peak_rss_mb; use paths of equal length",
              file=sys.stderr)
        return 2
    if args.pairs < 1:
        print("--pairs must be >= 1", file=sys.stderr)
        return 2
    end_to_end = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for seed in range(args.seed, args.seed + args.pairs):
        order = (parent, change) if seed % 2 == 0 else (change, parent)
        res = {tree: run_once(tree, args.workload, seed, args.seconds) for tree in order}
        for tree, run in res.items():
            if not run["correct"]:
                print(f"{tree}: wrong output at seed {seed}", file=sys.stderr)
                return 1
        pairs.append((res[parent], res[change]))
        print(f"seed {seed}: " + "; ".join(
            f"{side} " + ", ".join(f"{k} {v['value']:.6g}" for k, v in r["metrics"].items())
            for side, r in zip(("parent", "change"), pairs[-1])), flush=True)
    print(report(summarize(pairs, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
