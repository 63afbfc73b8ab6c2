"""The simulator reaches a model only through the model.Model interface.

sim.py names neither concrete model class (read with ast, so nothing is
imported), and an object that has only the members of Model runs.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from frontlab.model import ModelParams
from frontlab.sim import Grid, Perturbation, run

SIM = Path(__file__).resolve().parents[1] / "src" / "frontlab" / "sim.py"
CONCRETE = {"ModelParams", "BlockSystem"}


def concrete_names(source: str) -> list:
    """(line, name) of each name, attribute, import or string annotation
    that is a concrete model class."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for alias in node.names for part in (alias.name, alias.asname)]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in CONCRETE]
    return found


def test_sim_names_no_concrete_model():
    assert concrete_names(SIM.read_text()) == []


def test_the_guard_sees_concrete_models():
    source = """
from .model import BlockSystem as Block
from . import model

def run(m: "ModelParams", other: model.BlockSystem):
    return isinstance(m, ModelParams)
"""
    assert sorted(concrete_names(source)) == [(2, "BlockSystem"), (5, "BlockSystem"),
                                              (5, "ModelParams"), (6, "ModelParams")]


class LinearModel:
    """The members of model.Model and nothing else: the combustion
    linearization at epsilon = 0.5, kappa = 1, c = 1, with a midpoint stage
    that leaves u as it is."""

    c = 1.0
    n = 2
    n1 = 1
    diffusion = np.array([1.0, 0.5])
    linearization = ModelParams(0.5, 1.0, 1.0).linearization

    def stage_rate(self, v) -> float:
        return 0.0

    def midpoint_stage(self, u, dt: float, work) -> float:
        return 0.0

    def describe(self) -> dict:
        return {"kind": "linear"}


@pytest.mark.filterwarnings("error")  # no boundary warning either
def test_a_duck_typed_model_runs_both_paths_alike():
    # with N = 0 the Strang steps of a nonlinear run are exp(dt S) in two
    # halves, so its records match the linear run's one propagator per segment
    grid = Grid(L=30.0, N=256)
    pert = Perturbation(amplitude=0.1, widths=(2.0,))
    runs = [run(LinearModel(), grid, pert, 0.25, T=4.0, dt=0.05, record_every=5,
                nonlinear=nonlinear) for nonlinear in (True, False)]
    strang, linear = (r.series for r in runs)
    assert len(strang) == 17 and np.array_equal(strang.times, linear.times)
    assert strang.columns.keys() == linear.columns.keys()
    for (name, k), col in linear.columns.items():
        rtol = 1e-12 if name.startswith("norm0") else 1e-10
        assert np.allclose(strang.columns[(name, k)], col, rtol=rtol, atol=0.0), (name, k)
    assert np.allclose(runs[0].snapshots[1].data, runs[1].snapshots[1].data,
                       rtol=0.0, atol=1e-12 * np.max(np.abs(runs[1].snapshots[1].data)))
