"""frontlab benchmark: time-to-checked-answer of frontlab commands.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a frontlab checkout; frontlab is imported from its
src/.  Each frontlab command runs in a fresh process (child.py), as a user
pays for it: interpreter start, imports, the command, its files.  A run
repeats whole rounds of its workload's operations while another round is
expected to end within --seconds (at least one round), checks every output
against an independent reference (checks.py), and reports per-round medians.

--trace 0 reports the end-to-end metrics: setup_s (interpreter start plus
`import frontlab.cli`: the median over every start in the run, times the
commands in a round), wall_s (time inside frontlab.cli.main, summed over a
round) and peak_rss_mb (largest peak resident set of a round's processes).  --trace 1 runs each round twice,
untraced and traced, and reports the per-layer metrics of tracing.py plus
trace.overhead_s, the traced minus the untraced wall time of a round.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  An output that disagrees with its reference ends the run with
correct = false and exit code 1; a checkout without frontlab, or a command
that cannot start, ends it with exit code 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
CALL_TIMEOUT_S = 150
SETUP_PROBES = 5
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no frontlab, or a command did not start)."""


def invoke(name: str, args: list) -> dict:
    """Run child.py with `args` in a fresh interpreter and time it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              capture_output=True, text=True, env=env,
                              timeout=CALL_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} did not finish within {CALL_TIMEOUT_S} s") from exc
    end = time.monotonic()
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    if not lines or "ready" not in lines[0]:
        raise BenchError(f"{name}: frontlab did not start:\n{proc.stderr.strip()}")
    ready = lines[0]["ready"]
    if args and len(lines) < 2:
        # frontlab raised instead of returning an exit code: a failed operation
        sys.stderr.write(f"{name} crashed:\n{proc.stderr.strip()}\n")
        return {"code": "crash", "setup_s": ready - start, "wall_s": end - ready,
                "maxrss_kb": 0}
    return dict(lines[-1], setup_s=ready - start)


def run_round(ops: list, trace_dir) -> dict:
    """Every operation once, in order; outputs checked as they arrive."""
    out = {"setup_s": [], "wall_s": 0.0, "peak_kb": 0, "failed": [], "warnings": 0,
           "bytes": 0, "dumps": []}
    for op in ops:
        shutil.rmtree(op.outdir, ignore_errors=True)
        op.outdir.mkdir(parents=True)
        trace_file = "-" if trace_dir is None else str(trace_dir / f"{op.name}.json")
        res = invoke(op.name, [trace_file, op.command, "--config", str(op.config),
                               "--out", str(op.outdir)])
        ok = res["code"] == 0
        if not ok:
            out["failed"].append(f"{op.name} (exit {res['code']})")
        op.check(op.outdir, ok)
        out["setup_s"].append(res["setup_s"])
        out["wall_s"] += res["wall_s"]
        out["peak_kb"] = max(out["peak_kb"], res["maxrss_kb"])
        out["warnings"] += checks.boundary_warnings(op.outdir)
        out["bytes"] += sum(p.stat().st_size for p in op.outdir.rglob("*") if p.is_file())
        if trace_dir is not None and res["code"] != "crash":
            with open(trace_file) as fh:
                out["dumps"].append(json.load(fh))
    return out


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = WORKLOADS[name](seed, work)
    for op in ops:
        op.outdir = work / "out" / op.name
    start = time.monotonic()
    # import-only starts add setup samples where rounds hold few commands
    setups = [] if trace else [invoke("setup probe", [])["setup_s"]
                               for _ in range(SETUP_PROBES)]
    trace_dir = None
    if trace:
        trace_dir = work / "trace"
        trace_dir.mkdir()
    rounds, plain = [], []  # plain: the untraced twin of each traced round
    while True:
        began = time.monotonic()
        if trace:
            plain.append(run_round(ops, None))
        rounds.append(run_round(ops, trace_dir))
        now = time.monotonic()
        # start another round only if one more, as long as the last, fits
        if now + (now - began) - start > seconds:
            break
    all_rounds = rounds + plain
    result = {"rounds": len(rounds), "attempted": len(ops) * len(all_rounds),
              "failed": sum(len(r["failed"]) for r in all_rounds),
              "failed_ops": sorted(set(f for r in all_rounds for f in r["failed"])),
              "warnings": rounds[0]["warnings"], "absent": [], "metrics": {}}
    if not trace:
        setups += [s for r in rounds for s in r["setup_s"]]
        result["metrics"] = {
            "setup_s": statistics.median(setups) * len(ops),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_kb"] for r in rounds) / 1024.0,
        }
        return result
    per_round = []
    for r, twin in zip(rounds, plain):
        layers, result["absent"] = tracing.summarize(r["dumps"])
        layers["cli.write.bytes"] = r["bytes"]
        layers["trace.overhead_s"] = r["wall_s"] - twin["wall_s"]
        per_round.append(layers)
    result["metrics"] = {key: statistics.median(m[key] for m in per_round)
                         for key in per_round[0]}
    for key, value in result["metrics"].items():
        if unit(key) != "s":
            result["metrics"][key] = int(value)  # identical in every round
    return result


def unit(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith(".elements"):
        return "elements"
    return "count" if metric.endswith(".calls") else "s"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "frontlab" / "cli.py").is_file():
        print(f"perfbench: no frontlab source under {ROOT / 'src'}; "
              "run from the root of a frontlab checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except checks.Mismatch as exc:
        print(f"perfbench: wrong output in {name}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    metrics = {}
    for name, res in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        shown = ", ".join(f"{k} {v:.6g} {unit(k)}" for k, v in res["metrics"].items())
        print(f"{name}: {shown}")
        failed = f" ({', '.join(res['failed_ops'])})" if res["failed_ops"] else ""
        print(f"{name}: rounds {res['rounds']}, attempted {res['attempted']}, "
              f"failed {res['failed']}{failed}, "
              f"boundary warnings per round {res['warnings']}")
        if res["absent"]:
            print(f"{name}: absent (traced name no longer in frontlab): "
                  + ", ".join(res["absent"]))
        for key, value in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit(key)}
    print(json.dumps({"correct": True,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
