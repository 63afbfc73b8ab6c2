"""tools/peak_rss.py: one command's peak resident set, in a fresh interpreter."""

import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "peak_rss.py"

TINY_SPECTRUM = """
    [model]
    kind = combustion
    epsilon = 0.5
    kappa = 1.0
    c = 1.0

    [weights]
    alpha = 0.4

    [grid]
    d = 1

    [spectrum]
    m = 11
    envelope_t_max = 1.0
"""


def run_tool(tmp_path, text):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(textwrap.dedent(text))
    return subprocess.run([sys.executable, str(TOOL), str(REPO), "spectrum", "--config",
                           str(cfg)], cwd=tmp_path, capture_output=True, text=True)


def test_prints_the_peak_in_kib(tmp_path):
    proc = run_tool(tmp_path, TINY_SPECTRUM)
    assert proc.returncode == 0, proc.stderr
    kib = int(proc.stdout.strip())
    # numpy alone takes more than 10 MiB; a machine-sized figure is a unit error
    assert 10 * 1024 < kib < 10 * 1024 * 1024
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.ini"]


def test_passes_on_the_exit_code(tmp_path):
    proc = run_tool(tmp_path, TINY_SPECTRUM.replace("m = 11", "m = 4"))
    assert proc.returncode == 2
    assert int(proc.stdout.strip()) > 0
