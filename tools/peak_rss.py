"""Peak resident set of one frontlab command, in KiB.

    python3 tools/peak_rss.py CHECKOUT COMMAND --config FILE

Runs `frontlab.cli.main([COMMAND, "--config", FILE, "--out", DIR])` in a
fresh interpreter with CHECKOUT/src as its PYTHONPATH and
PYTHONDONTWRITEBYTECODE=1, so frontlab compiles from source as it does in
the benchmark.  When main returns, the child reads its VmHWM from
/proc/self/status; the tool prints that figure, in KiB, and exits with the
command's exit code.  The benchmark reports only the largest peak of a
round; this gives the peak of each command on its own.

DIR is a temporary directory, removed afterwards, which is also the child's
working directory: nothing is written under CHECKOUT.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = """
import sys
import frontlab.cli
code = frontlab.cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def peak_rss_kib(checkout: Path, command: str, config: Path) -> tuple[int, int]:
    """(VmHWM in KiB, exit code) of one command run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, command, "--config", str(config.resolve()),
             "--out", str(Path(tmp) / "out")],
            cwd=tmp, env=env, capture_output=True, text=True)
    lines = proc.stdout.split()
    if not lines or not lines[-1].isdigit():
        raise SystemExit(f"{command} exited {proc.returncode} without a peak:\n"
                         f"{proc.stderr.strip()}")
    return int(lines[-1]), proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("command")
    parser.add_argument("--config", type=Path, required=True)
    args = parser.parse_args(argv)
    kib, code = peak_rss_kib(args.checkout, args.command, args.config)
    print(kib)
    return code


if __name__ == "__main__":
    sys.exit(main())
