"""Every numpy transform in frontlab is made by Grid.forward or Grid.inverse.

Those two methods hold the half-spectrum layout of the real transform (the
halved last axis and the order of the one-axis calls that keeps them
rfftn/irfftn bit for bit); a transform made anywhere else would be a second
layout.  The frequency helpers fftfreq and rfftfreq belong to Grid too.
The package source is read with ast, so nothing is imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "frontlab"
TRANSFORMS = {kind + suffix for kind in ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")
              for suffix in ("", "2", "n")}
FREQUENCIES = {"fftfreq", "rfftfreq"}


def misplaced(source: str) -> list:
    """(line, name, scope) of each call of a transform or frequency helper, or
    import of one by name, outside its place: Grid.forward/Grid.inverse, or
    for the helpers any Grid method."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + (node.name,)
        names = []
        if isinstance(node, ast.Call):
            func = node.func
            names = [getattr(func, "attr", getattr(func, "id", None))]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        for name in names:
            if name in TRANSFORMS and scope[:2] not in (("Grid", "forward"), ("Grid", "inverse")):
                found.append((node.lineno, name, ".".join(scope)))
            elif name in FREQUENCIES and scope[:1] != ("Grid",):
                found.append((node.lineno, name, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_transforms_are_made_by_grid_alone():
    found = {path.name: misplaced(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
    assert "sim.py" in found and "norms.py" in found


def test_the_guard_sees_transforms_outside_grid():
    source = """
import numpy as np
from numpy.fft import irfftn

class Grid:
    def forward(self, u):
        return np.fft.rfft(u)

    def rxi(self, axis):
        return np.fft.rfftfreq(8)

    def other(self, u):
        return np.fft.fft2(u)

def measure(u):
    xi = np.fft.fftfreq(8)
    return np.fft.rfftn(u)
"""
    assert misplaced(source) == [(3, "irfftn", ""), (13, "fft2", "Grid.other"),
                                 (16, "fftfreq", "measure"), (17, "rfftn", "measure")]
