"""The benchmark's workloads: seeded scenario files and the operations on them.

Every operation is one frontlab command on one generated scenario file.  The
templates in scenarios/ are copies of the shipped scenarios (plus one
gasless and one exo_endo scenario); seed FIXED_SEED writes them back with
their own values, any other seed draws the swept physical parameters
(speed bracket, sweep kappas, perturbation centres) from ranges in which
every check in checks.py holds.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

FIXED_SEED = 0
TEMPLATES = Path(__file__).resolve().parent / "scenarios"
SWEEP_VALUES = 13          # enough kappas that one sweep pass takes seconds


@dataclass
class Op:
    """One frontlab call; check(outdir, ok) raises checks.Mismatch on a wrong output."""

    name: str
    command: str
    config: Path
    check: Callable[[Path, bool], None]
    outdir: Path = field(init=False)


def _scenario(template: str, overrides: dict, path: Path) -> configparser.ConfigParser:
    """Write `template` with `overrides` {(section, key): value} to `path`."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(TEMPLATES / template)
    for (section, key), value in overrides.items():
        parser.set(section, key, value)
    with open(path, "w") as fh:
        parser.write(fh)
    return parser


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def shoot(seed: int, work: Path) -> list:
    """Front shooting on the reduced system: 67 RK45 shots at the fixed seed."""
    rng = np.random.default_rng(seed)
    over = {}
    if seed != FIXED_SEED:
        over = {("front", "c_min"): _fmt(rng.uniform(0.05, 0.15)),
                ("front", "c_max"): _fmt(rng.uniform(1.8, 2.2))}
    sc = _scenario("front_shoot.ini", over, work / "front_shoot.ini")
    kappa = sc.getfloat("model", "kappa")
    return [Op("front", "front", work / "front_shoot.ini",
               lambda out, ok: checks.front(out, ok, kappa))]


def verify2d(seed: int, work: Path) -> list:
    """The 2D stability experiment on a 256 x 128 grid, 1000 Strang steps."""
    rng = np.random.default_rng(seed)
    over = {}
    if seed != FIXED_SEED:
        over = {("perturbation", "center"):
                f"{_fmt(rng.uniform(37.0, 42.0))}, {_fmt(rng.uniform(-5.0, 5.0))}"}
    sc = _scenario("verify_theorem_2d.ini", over, work / "verify_2d.ini")
    return [Op("verify_2d", "verify", work / "verify_2d.ini",
               lambda out, ok: checks.verify(out, ok, sc))]


def sweep1d(seed: int, work: Path) -> list:
    """A linear 1D verify sweep over model.kappa on one shared N = 512 grid."""
    rng = np.random.default_rng(seed)
    if seed == FIXED_SEED:
        kappas = np.linspace(0.5, 2.0, SWEEP_VALUES)
        over = {}
    else:
        kappas = np.sort(rng.uniform(0.5, 2.0, SWEEP_VALUES))
        over = {("perturbation", "center"): _fmt(rng.uniform(22.0, 28.0))}
    over[("sweep", "values")] = ", ".join(f"{k:g}" if seed == FIXED_SEED else _fmt(k)
                                         for k in kappas)
    sc = _scenario("sweep_kappa.ini", over, work / "sweep_kappa.ini")
    return [Op("sweep", "sweep", work / "sweep_kappa.ini",
               lambda out, ok: checks.sweep(out, ok, sc))]


def survey1d(seed: int, work: Path) -> list:
    """Spectra of the three models, block-system runs, and the box-doubling pair.

    The verify pair (L = 50 / N = 1024 and L = 200 / N = 4096, same spacing
    and same perturbation) does not depend on the seed: the L = 200 run fails
    every time today, because the weighted norm is formed after an unweighted
    evolution and round-off at the right end is amplified by up to e^(alpha L).
    """
    rng = np.random.default_rng(seed)
    ops = []
    for model in ("combustion", "gasless", "exo_endo"):
        template = "spectrum_combustion.ini" if model == "combustion" else f"{model}.ini"
        over = {}
        if model != "combustion" and seed != FIXED_SEED:
            over = {("perturbation", "center"): _fmt(rng.uniform(30.0, 40.0))}
        path = work / f"{model}.ini"
        sc = _scenario(template, over, path)
        ops.append(Op(f"spectrum_{model}", "spectrum", path,
                      lambda out, ok, sc=sc: checks.spectrum(out, ok, sc)))
        if model == "gasless":
            ops.append(Op("simulate_gasless", "simulate", path,
                          lambda out, ok, sc=sc: checks.simulate_gasless(out, ok, sc)))
        elif model == "exo_endo":
            ops.append(Op("simulate_exo_endo", "simulate", path,
                          lambda out, ok, sc=sc: checks.simulate_exo_endo(out, ok, sc)))
    small = _scenario("verify_theorem.ini", {}, work / "verify_L50.ini")
    large = _scenario("verify_theorem.ini", {("grid", "l"): "200", ("grid", "n"): "4096"},
                      work / "verify_L200.ini")
    l50 = Op("verify_L50", "verify", work / "verify_L50.ini",
             lambda out, ok: checks.verify(out, ok, small))
    ops.append(l50)
    ops.append(Op("verify_L200", "verify", work / "verify_L200.ini",
                  lambda out, ok: checks.same_unweighted_norms(out, l50.outdir, large)))
    return ops


WORKLOADS = {"shoot": shoot, "verify2d": verify2d, "sweep1d": sweep1d, "survey1d": survey1d}
