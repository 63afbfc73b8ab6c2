"""Linear runs of sweep_kappa.ini (kappa = 1) against the box-free reference
of oracles.reference_series, on three boxes at the scenario's spacing.

The unweighted norms do not depend on the box.  The weighted norm does
(ROADMAP item 2): the run evolves v and weighs it by e^(alpha z) only when
it measures, so on the short box the left tail of v1 wraps to the right
end, where the weight is e^16, and on the long box FFT round-off is
amplified by up to e^64.  Those two boxes are expected failures until the
weighted field is evolved itself; they must then pass.
"""

import functools
import warnings
from pathlib import Path

import numpy as np
import pytest

from frontlab.cli import _build_model, _simulation_inputs, load_scenario
from frontlab.sim import run
from oracles import reference_series

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "sweep_kappa.ini"
BOX_DEPENDENT = pytest.mark.xfail(strict=True, reason="the weighted norm depends on the "
                                                      "box (ROADMAP item 2)")


@functools.lru_cache(maxsize=None)
def linear_run(L: float, N: int):
    """(NormSeries of the scenario's linear run on [-L, L) with N points,
    reference_series at its record times)."""
    scenario = load_scenario(SCENARIO)
    scenario.set_override("grid", "l", str(L))
    scenario.set_override("grid", "n", str(N))
    model, alpha = _build_model(scenario)
    inputs = _simulation_inputs(scenario, model)
    assert inputs["nonlinear"] is False and model.kappa == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # boundary contamination
        series = run(model, alpha=alpha, **inputs).series
    return series, reference_series(model, inputs["grid"], inputs["perturbation"], alpha,
                                    series.times)


def worst_relative(series, ref, name: str) -> float:
    got = series.column(name, 0)
    return float(np.max(np.abs(got - ref[name]) / ref[name]))


@pytest.mark.parametrize("L,N", [pytest.param(40.0, 512, marks=BOX_DEPENDENT),
                                 (80.0, 1024),
                                 pytest.param(160.0, 2048, marks=BOX_DEPENDENT)])
def test_weighted_norm_matches_the_reference(L, N):
    series, ref = linear_run(L, N)
    assert len(series) == 61
    assert worst_relative(series, ref, "normalpha_v") <= 1e-6


@pytest.mark.parametrize("L,N", [(40.0, 512), (80.0, 1024), (160.0, 2048)])
def test_second_block_matches_the_reference(L, N):
    series, ref = linear_run(L, N)
    assert worst_relative(series, ref, "norm0_v2") <= 1e-12
