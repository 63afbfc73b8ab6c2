"""Compare the outputs of two frontlab checkouts on the shipped scenarios.

    python3 tools/diff_outputs.py PARENT CHANGE

Runs the six shipped scenarios (scenarios/*.ini, each through the command
its name starts with) and `spectrum` + `simulate` on the gasless and
exo_endo templates of perfbench/scenarios/ in both checkouts, each command
in a fresh interpreter with that checkout's src/ on the path.  Every run
reads the scenario files of CHANGE, so both sides get the same input; no
scenario file is written to.

For every output file it prints either "byte-identical" or, per numeric
column or key, the largest relative difference |a - b| / max(|a|, |b|) and
the largest |a - b| over the column's largest |a| (entries near 0 make the
first large for round-off), and each text or JSON field that changed.  It exits 1 when any exit
code, any `*_passed` / `overall_pass` / `status` value or the set of files
written differs between the two checkouts, and 0 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = ("front", "spectrum", "sweep", "verify", "simulate")
PERFBENCH_RUNS = [(cmd, f"perfbench/scenarios/{name}.ini")
                  for name in ("gasless", "exo_endo") for cmd in ("spectrum", "simulate")]


def runs(change: Path) -> list:
    """(command, scenario path relative to a checkout) of every run."""
    shipped = []
    for path in sorted((change / "scenarios").glob("*.ini")):
        cmd = path.stem.split("_")[0]
        if cmd not in COMMANDS:
            raise SystemExit(f"no command for scenario {path.name}")
        shipped.append((cmd, f"scenarios/{path.name}"))
    return shipped + PERFBENCH_RUNS


def run_one(checkout: Path, cmd: str, config: Path, out: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "frontlab.cli", cmd, "--config", str(config),
                           "--out", str(out)], env=env, cwd=out.parent,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode


def is_verdict(name: str) -> bool:
    return name.endswith("_passed") or name in ("overall_pass", "status", "exit_code")


def rel_diff(a: str, b: str):
    """Relative difference of two numeric strings, or None if either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if math.isinf(x) or math.isinf(y) or math.isnan(x) or math.isnan(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def table(path: Path) -> dict:
    """name -> list of values: CSV columns, `key: value` lines or flattened JSON."""
    text = path.read_text()
    if path.suffix == ".json":
        flat = {}

        def walk(prefix, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(f"{prefix}{k}.", v)
            else:
                flat[prefix[:-1]] = [json.dumps(value)]
        walk("", json.loads(text))
        return flat
    lines = text.splitlines()
    if path.suffix == ".csv":
        head = lines[0].split(",")
        if rel_diff(head[0], head[0]) is not None:  # no header row
            head, rows = [f"column {j}" for j in range(len(head))], lines
        else:
            rows = lines[1:]
        cols = {name: [] for name in head}
        for line in rows:
            for name, cell in zip(head, line.split(",")):
                cols[name].append(cell)
        return cols
    return {k: [v] for k, _, v in (line.partition(": ") for line in lines)}


def compare(a: Path, b: Path) -> tuple:
    """(report lines, whether a verdict changed) for one file in both trees;
    the lines are None when the files are byte-identical."""
    if a.read_bytes() == b.read_bytes():
        return None, False
    ta, tb = table(a), table(b)
    lines, verdict = [], False
    for name in sorted(set(ta) | set(tb), key=lambda n: (n not in ta, n)):
        va, vb = ta.get(name), tb.get(name)
        if va is None or vb is None or len(va) != len(vb):
            lines.append(f"{name}: {len(va or [])} values -> {len(vb or [])} values")
            verdict |= is_verdict(name)
            continue
        if va == vb:
            continue
        diffs = [rel_diff(x, y) for x, y in zip(va, vb)]
        if all(d is not None for d in diffs) and not is_verdict(name):
            x, y = ([float(v) for v in col] for col in (va, vb))
            scale = max(max(map(abs, x)), max(map(abs, y)))
            lines.append(f"{name}: largest relative difference {max(diffs):.3g}, largest "
                         f"difference {max(abs(p - q) for p, q in zip(x, y)) / scale:.3g} "
                         f"of the column's largest magnitude")
        else:
            changed = [(x, y) for x, y in zip(va, vb) if x != y]
            lines.append(f"{name}: {changed[0][0]} -> {changed[0][1]}"
                         + (f" (and {len(changed) - 1} more)" if len(changed) > 1 else ""))
            verdict |= is_verdict(name)
    return lines or ["differs only in formatting"], verdict


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/diff_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    for tree in (parent, change):
        if not (tree / "src" / "frontlab").is_dir():
            print(f"{tree} is not a frontlab checkout", file=sys.stderr)
            return 2
    failed = False
    with tempfile.TemporaryDirectory(prefix="diff_outputs_") as tmp:
        for i, (cmd, rel) in enumerate(runs(change)):
            outs, codes = [], []
            for side, tree in (("parent", parent), ("change", change)):
                out = Path(tmp) / side / f"{i:02d}_{cmd}_{Path(rel).stem}"
                out.parent.mkdir(exist_ok=True)
                codes.append(run_one(tree, cmd, change / rel, out))
                outs.append(out)
            print(f"== {cmd} {rel}: exit {codes[0]} / {codes[1]}")
            if codes[0] != codes[1]:
                print("  EXIT CODE CHANGED")
                failed = True
            names = [{p.relative_to(o) for p in o.rglob("*") if p.is_file()} for o in outs]
            for name in sorted(names[0] ^ names[1]):
                print(f"  {name}: only in {'parent' if name in names[0] else 'change'}")
                failed = True
            for name in sorted(names[0] & names[1]):
                lines, verdict = compare(outs[0] / name, outs[1] / name)
                print(f"  {name}: byte-identical" if lines is None else f"  {name}:")
                for line in lines or []:
                    print(f"    {line}")
                if verdict:
                    print("    VERDICT CHANGED")
                    failed = True
    print("verdicts and exit codes changed" if failed else "no exit code or verdict changed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
