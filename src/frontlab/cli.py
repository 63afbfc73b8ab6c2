"""Scenario-driven command line: spectrum, front, simulate, verify, sweep.

A scenario is one INI-style file with named sections and key = value
entries; the subcommand selects the workflow and `--out` the artifact
directory.  Every resolved setting (defaults included) is echoed into the
output summary so each artifact is self-describing, and all CSV output uses
17 significant digits with newline endings, making reruns byte-identical.

Every command is a (scenario, outdir) -> (exit code, metrics) function
that writes its own artifacts; one runner, _execute, runs it and writes
summary.txt.  Exit codes: 0 all checks passed, 1 scientific failure (a
verdict, a bracketing or shooting failure, a front certificate that fails,
or a guard that trips mid-run), 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import front as _front
from . import norms as _norms
from . import sim as _sim
from . import spectral as _spectral
from .model import Model, ModelParams, make_exo_endo_system, make_gasless_system

__all__ = ["ConfigError", "Scenario", "load_scenario", "cmd_spectrum", "cmd_front",
           "cmd_simulate", "cmd_verify", "cmd_sweep", "main"]


class ConfigError(Exception):
    """Scenario file is missing, malformed, or semantically invalid."""


_REQUIRED = object()


@dataclass
class Scenario:
    """Parsed scenario with every accessed key recorded for the summary."""

    raw: configparser.ConfigParser
    resolved: dict = field(default_factory=dict)

    def get(self, section: str, key: str, kind=str, default=_REQUIRED):
        try:
            text = self.raw.get(section, key)
        except (configparser.NoSectionError, configparser.NoOptionError):
            if default is _REQUIRED:
                raise ConfigError(f"missing required setting [{section}] {key}")
            self.resolved[f"{section}.{key}"] = _fmt_value(default)
            return default
        try:
            value = _parse_value(text, kind)
        except (ValueError, OverflowError) as exc:  # int("inf") overflows
            raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
        self.resolved[f"{section}.{key}"] = _fmt_value(value)
        return value

    def has(self, section: str, key: str) -> bool:
        return self.raw.has_option(section, key)

    def set_override(self, section: str, key: str, value: str) -> None:
        if not self.raw.has_section(section):
            self.raw.add_section(section)
        self.raw.set(section, key, value)


def _parse_value(text: str, kind):
    text = text.strip()
    if kind is bool:
        low = text.lower()
        if low in ("true", "yes", "on", "1"):
            return True
        if low in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"expected a boolean, got {text!r}")
    if kind is float:
        if math.isnan(value := float(text)):
            raise ValueError("nan is not a number")
        return value
    if kind is int:
        val = float(text)
        if val != int(val):
            raise ValueError(f"expected an integer, got {text!r}")
        return int(val)
    if kind == "floats":
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    if kind == "ints":
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    return text


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ", ".join(_fmt_value(v) for v in value)
    return str(value)


def load_scenario(path) -> Scenario:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser diagnostics carry [line N] markers
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    return Scenario(raw=parser)


def _build_model(scenario: Scenario) -> tuple[Model, float]:
    """(model, alpha) of the scenario; alpha is validated against the model's c."""
    kind = scenario.get("model", "kind", str, "combustion")
    if kind == "combustion":
        model = ModelParams(epsilon=scenario.get("model", "epsilon", float, 0.5),
                            kappa=scenario.get("model", "kappa", float, 1.0),
                            c=scenario.get("model", "c", float, 1.0))
    elif kind == "exo_endo":
        args = {k: scenario.get("model", k, float) for k in
                ("d2", "d3", "sigma", "tau", "a2", "a3", "b2", "b3")}
        model = make_exo_endo_system(args["d2"], args["d3"], args["sigma"],
                                     args["tau"], (args["a2"], args["a3"]),
                                     (args["b2"], args["b3"]),
                                     c=scenario.get("model", "c", float, 1.0))
    elif kind == "gasless":
        model = make_gasless_system(scenario.get("model", "beta", float),
                                    c=scenario.get("model", "c", float, 1.0))
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    return model, _resolve_alpha(scenario, model.c)


def _resolve_alpha(scenario: Scenario, c: float) -> float:
    """[weights] alpha: "optimal" is exactly c/2, an explicit value lies in (0, c/2)."""
    text = scenario.get("weights", "alpha", str, "optimal")
    if text.strip().lower() == "optimal":
        return _spectral.optimal_weight(c)[0]
    try:
        alpha = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for [weights] alpha: {text!r}") from exc
    if not 0.0 < alpha < c / 2.0:
        raise ConfigError(f"[weights] alpha must lie in the admissible band (0, c/2) = "
                          f"(0, {c / 2}), got {alpha}")
    return alpha


def _build_grid(scenario: Scenario) -> _sim.Grid:
    d = scenario.get("grid", "d", int, 1)
    L = scenario.get("grid", "l", "floats", (50.0,) * d)
    N = scenario.get("grid", "n", "ints", (1024,) if d == 1 else (256, 128))
    if len(L) != d or len(N) != d:
        raise ConfigError(f"[grid] l and n need d = {d} entries each, got {len(L)} and {len(N)}")
    return _sim.Grid(L=L, N=N)


def _build_perturbation(scenario: Scenario, grid: _sim.Grid, ncomp: int) -> _sim.Perturbation:
    shape = scenario.get("perturbation", "shape", str, "gaussian")
    if scenario.has("perturbation", "eta") and scenario.has("perturbation", "amplitude"):
        raise ConfigError("[perturbation] give either eta or amplitude, not both")
    if scenario.has("perturbation", "amplitude"):
        eta = None
        amplitude = scenario.get("perturbation", "amplitude", float)
    else:
        eta = scenario.get("perturbation", "eta", float, 1e-3)
        amplitude = None
    center = scenario.get("perturbation", "center", "floats", (0.0,) * grid.d)
    widths = scenario.get("perturbation", "width", "floats", (2.0,) * grid.d)
    mask = scenario.get("perturbation", "mask", "ints", (1,) * ncomp)
    return _sim.Perturbation(shape=shape, amplitude=amplitude, eta=eta,
                             center=center, widths=widths, mask=mask)


def _write_summary(outdir: Path, scenario: Scenario, metrics: dict) -> None:
    lines = [f"scenario.{k}: {v}" for k, v in sorted(scenario.resolved.items())]
    lines += [f"{k}: {_fmt_value(v)}" for k, v in metrics.items()]
    (outdir / "summary.txt").write_text("\n".join(lines) + "\n")


def _execute(command: Callable[[Scenario, Path], tuple[int, dict]], scenario: Scenario,
             outdir: Path) -> tuple[int, dict]:
    """Run command(scenario, outdir) and write its summary.txt: where every
    command ends.

    A ValueError is a setting the library rejected: a ConfigError (exit 2,
    no summary).  A guard that trips mid-run is a scientific failure: exit
    1, its message the summary's `error`.
    """
    try:
        code, metrics = command(scenario, outdir)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except (_sim.SimulationError, _front.StepUnderflowError) as exc:
        code, metrics = 1, {"error": str(exc)}
    _write_summary(outdir, scenario, metrics)
    return code, metrics


def cmd_spectrum(scenario: Scenario, outdir: Path) -> tuple[int, dict]:
    """Abscissas, sweeps, optimal weight, and the semigroup envelope constant."""
    model, alpha = _build_model(scenario)
    d = scenario.get("grid", "d", int, 1)
    if d < 1:
        raise ConfigError(f"[grid] d must be >= 1, got {d}")
    m = scenario.get("spectrum", "m", int, 401 if d == 1 else 101)
    if m < 3 or m % 2 == 0:
        raise ConfigError(f"[spectrum] m must be an odd integer >= 3, got {m}")
    R_text = scenario.get("spectrum", "r", str, "auto")
    R = None
    if R_text.strip().lower() != "auto":
        try:
            R = float(R_text)
        except ValueError as exc:
            raise ConfigError(f"bad value for [spectrum] r: {R_text!r}") from exc
        if not 0.0 < R < math.inf:
            raise ConfigError(f"[spectrum] r must be positive and finite, got {R}")

    sym_u = _spectral.SymbolMatrix.of(model, d=d)
    sym_w = _spectral.SymbolMatrix.of(model, d=d, alpha=alpha)
    sym_w1 = replace(sym_w, d=1)  # the 1D weighted symbol
    closed_u = _spectral.closed_form_abscissa(sym_u)
    closed_w = _spectral.closed_form_abscissa(sym_w)
    astar, vstar = _spectral.optimal_weight(model.c)

    sw_u = _spectral.sweep_symbol(sym_u, R=R, m=m)
    sw_w = _spectral.sweep_symbol(sym_w, R=R, m=m)
    _spectral.write_spectrum_csv(outdir / "spectrum_unweighted.csv", sw_u)
    _spectral.write_spectrum_csv(outdir / "spectrum_weighted.csv", sw_w)

    metrics = {
        "alpha": alpha,
        "abscissa_unweighted_closed": closed_u if closed_u is not None else "none",
        "abscissa_unweighted_realized": sw_u.realized_abscissa,
        "abscissa_weighted_closed": closed_w if closed_w is not None else "none",
        "abscissa_weighted_realized": sw_w.realized_abscissa,
        "sweep_extent": sw_u.extent,
        "sweep_certified": sw_u.certified and sw_w.certified,
        "alpha_star": astar,
        "abscissa_star": vstar,
    }
    if sym_u.is_triangular:
        metrics["block_abscissa_1"], metrics["block_abscissa_2"] = \
            _spectral.block_abscissas(model)
    metrics["zero_diffusion_block"] = bool(np.any(model.diffusion == 0.0))

    code = 0
    if sym_w.n == 2 and sym_w.is_triangular:
        t_max = scenario.get("spectrum", "envelope_t_max", float, 40.0)
        if not 0.0 < t_max < math.inf:
            raise ConfigError(f"[spectrum] envelope_t_max must be positive and finite, "
                              f"got {t_max}")
        t_grid = np.linspace(0.0, t_max, 801)
        xi_grid = np.linspace(-sw_w.extent, sw_w.extent, 401)
        try:
            K_est, nu = _spectral.semigroup_envelope(sym_w1, t_grid, xi_grid)
            metrics["nu"] = nu
            metrics["envelope_K"] = K_est
        except (ValueError, RuntimeError) as exc:
            metrics["envelope_error"] = str(exc)
            code = 1
    if d >= 2:
        # transverse frequencies only add (-inf, 0]: the abscissa is the 1D one
        sw_w1 = _spectral.sweep_symbol(sym_w1, R=sw_w.extent, m=m)
        gap = abs(sw_w1.realized_abscissa - sw_w.realized_abscissa)
        metrics["tensor_sum_difference"] = gap
        if gap > 1e-10:
            code = 1
    return code, metrics


FRONT_RESIDUAL_MAX = 1e-6   # largest |phi1(left) - 1/kappa| of a certified front


def cmd_front(scenario: Scenario, outdir: Path) -> tuple[int, dict]:
    """Shoot for the connecting orbit (eps = 0) or run a conservation orbit.

    The model is combustion, or gasless, which is combustion at eps = 0 and
    kappa = beta; any other [model] kind is a configuration error.  A shot
    profile whose left temperature misses 1/kappa by more than
    FRONT_RESIDUAL_MAX is a failed certificate: its artifacts are written
    and the command exits 1.
    """
    mode = scenario.get("front", "mode", str, "shoot")
    kind = scenario.get("model", "kind", str, "combustion")
    if kind == "gasless":
        eps, kappa = 0.0, scenario.get("model", "beta", float)
    elif kind == "combustion":
        eps = scenario.get("model", "epsilon", float, 0.0)
        kappa = scenario.get("model", "kappa", float, 1.0)
    else:
        raise ConfigError(f"front takes [model] kind combustion or gasless, got {kind!r}")
    tol = scenario.get("front", "tol", float, 1e-12)

    if mode == "shoot":
        if eps != 0.0:
            raise ConfigError("shooting requires [model] epsilon = 0")
        c_min = scenario.get("front", "c_min", float, 0.05)
        c_max = scenario.get("front", "c_max", float, 2.0)
        try:
            c_star, profile = _front.shoot_speed(kappa, (c_min, c_max), tol=tol)
        except _front.ShootingError as exc:
            _front.write_shots_csv(outdir / "shots.csv", exc.shots)
            return 1, {"error": str(exc), "shots": len(exc.shots)}
        _front.write_profile_csv(outdir / "profile.csv", profile.z, profile.states,
                                 profile.k_values - c_star / kappa)
        _front.write_shots_csv(outdir / "shots.csv", profile.shots)
        metrics = {
            "c_star": c_star,
            "phi1_left_residual": profile.residual_left,
            "right_end_residual": profile.residual_right,
            "k_drift_max": profile.k_drift,
            "phi2_monotone": profile.phi2_monotone,
            "refinement_iterations": profile.refinement_iterations,
            "shots": len(profile.shots),
            "samples": len(profile.z),
        }
        if not profile.residual_left <= FRONT_RESIDUAL_MAX:
            metrics["error"] = (f"the profile does not reach the burned state: "
                                f"|phi1(left) - 1/kappa| = {profile.residual_left:.3g} "
                                f"> {FRONT_RESIDUAL_MAX:g}")
        return (1 if "error" in metrics else 0), metrics

    if mode == "orbit":
        c = scenario.get("model", "c", float, 1.0)
        dim = 4 if eps > 0.0 else 3
        s0 = scenario.get("front", "s0", "floats", (0.0, 1.0, 0.0, 0.0)[:dim])
        span = scenario.get("front", "span", "floats", (0.0, 10.0))
        if len(span) != 2:
            raise ConfigError(f"[front] span takes two values, got {len(span)}")
        res = _front.integrate_orbit(ModelParams(epsilon=eps, kappa=kappa, c=c),
                                     np.asarray(s0), span, tol=tol)
        _front.write_profile_csv(outdir / "orbit.csv", res.z, res.states,
                                 res.k_values - res.k_values[0])
        return 0, {"k_drift_max": res.k_drift, "steps": res.nsteps, "samples": len(res.z)}

    raise ConfigError(f"unknown front mode {mode!r}")


def _write_snapshot(outdir: Path, tag: str, state: _sim.FieldState, meta: dict) -> None:
    """One CSV per component and a meta JSON: meta plus the time and the
    component count of state."""
    for comp in range(state.data.shape[0]):
        path = outdir / f"snapshot_{tag}_c{comp}.csv"
        values = state.data[comp].ravel().tolist()
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(map("{:.17g}".format, values)) + "\n")
    meta = dict(meta, t=state.t, components=int(state.data.shape[0]))
    (outdir / f"snapshot_{tag}_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _simulation_inputs(scenario: Scenario, model: Model) -> dict:
    """The keyword arguments of sim.run but alpha: the grid, the
    perturbation and the [time] settings."""
    grid = _build_grid(scenario)
    return dict(grid=grid, perturbation=_build_perturbation(scenario, grid, model.n),
                T=scenario.get("time", "t", float, 40.0),
                dt=scenario.get("time", "dt", float, 0.02),
                record_every=scenario.get("time", "record_every", int, 25),
                nonlinear=scenario.get("time", "nonlinear", bool, True))


def _run_simulation(outdir: Path, model: Model, alpha: float, inputs: dict):
    """sim.run on inputs; writes norms.csv and the snapshots."""
    result = _sim.run(model, alpha=alpha, **inputs)
    grid = inputs["grid"]
    _norms.write_norms_csv(outdir / "norms.csv", result.series)
    meta = {"block_split": model.n1, "grid": {"L": list(grid.L), "N": list(grid.N)},
            "model": dict(model.describe(), alpha=alpha)}
    for tag, state in zip(("initial", "final"), result.snapshots):
        _write_snapshot(outdir, tag, state, meta)
    return result


def cmd_simulate(scenario: Scenario, outdir: Path) -> tuple[int, dict]:
    """Integrate the perturbation equation; write the norm series and snapshots."""
    model, alpha = _build_model(scenario)
    result = _run_simulation(outdir, model, alpha, _simulation_inputs(scenario, model))
    e_col = result.series.column("normE_v", 0)
    metrics = {
        "steps": result.nsteps,
        "dt_effective": result.dt,
        "records": len(result.series),
        "final_normE": float(e_col[-1]),
        "sup_normE": float(np.max(e_col)),
        "boundary_warnings": len(result.warnings),
    }
    for msg in result.warnings:
        metrics.setdefault("boundary_warning", msg)
    return 0, metrics


def _expected_rates(model: Model, alpha: float) -> tuple[float, float]:
    """Sharp linear rates of verdict items 3 and 5, from the symbol's closed forms.

    Item 3: minus the weighted abscissa (c alpha - alpha^2 for combustion);
    item 5: minus the largest second-block family vertex (kappa e^-kappa).
    """
    sym = _spectral.SymbolMatrix.of(model, alpha=alpha)
    if not sym.is_triangular:
        raise ConfigError("verify needs a triangular linearization: its symbol has "
                          "no closed-form abscissa")
    return -_spectral.closed_form_abscissa(sym), -_spectral.block_abscissas(model)[1]


def cmd_verify(scenario: Scenario, outdir: Path) -> tuple[int, dict]:
    """Simulate, then render the stability-theorem verdict; exit 1 on failure.

    Negative bounds and a fit window holding fewer than
    norms.MIN_FIT_SAMPLES records are configuration errors, found before
    the run.  A model whose sharp rates are not both positive is outside
    the theorem: exit 1, also before the run.
    """
    model, alpha = _build_model(scenario)
    nu_expected, rho_expected = _expected_rates(model, alpha)
    rate_floor = scenario.get("verify", "rate_floor", float, 0.8)
    c1_cap = scenario.get("verify", "c1_cap", float, 10.0)
    if c1_cap < 0.0:
        raise ConfigError(f"[verify] c1_cap must be >= 0, got {c1_cap}")
    window = delta = None  # delta defaults to 10 |v0|_E, measured by the run
    if scenario.has("verify", "window"):
        window = scenario.get("verify", "window", "floats")
        if len(window) != 2 or not -math.inf < window[0] < window[1] < math.inf:
            raise ConfigError(f"[verify] window takes two finite times lo < hi, got {window}")
    if scenario.has("verify", "delta"):
        delta = scenario.get("verify", "delta", float)
        if delta < 0.0:
            raise ConfigError(f"[verify] delta must be >= 0, got {delta}")
    inputs = _simulation_inputs(scenario, model)
    times = _sim.record_times(inputs["T"], inputs["dt"], inputs["record_every"])
    fitted = int(np.sum(_norms.fit_window(times, window)[1]))
    if fitted < _norms.MIN_FIT_SAMPLES:
        raise ConfigError(f"the fit window holds {fitted} of the {len(times)} records, "
                          f"fewer than the {_norms.MIN_FIT_SAMPLES} a decay fit needs; "
                          "widen [verify] window or lower [time] record_every")
    for rate, what in ((nu_expected, "the weighted symbol (item 3)"),
                       (rho_expected, f"the second block, components {model.n1 + 1}-"
                                      f"{model.n} (item 5)")):
        if not rate > 0.0:  # + 0.0 prints -0.0 as 0
            return 1, {"error": f"theorem does not apply: the sharp rate of {what} is "
                                f"{rate + 0.0:.6g}, not positive", "overall_pass": False}
    try:
        result = _run_simulation(outdir, model, alpha, inputs)
    except _sim.SimulationError as exc:
        return 1, {"error": str(exc), "overall_pass": False}
    eta = float(result.series.column("normE_v", 0)[0])  # measured |v0|_E
    if delta is None:
        delta = scenario.get("verify", "delta", float, 10.0 * eta)
    report = _norms.verify_stability_theorem(
        result.series, eta=eta, delta=delta, nu_expected=nu_expected,
        rho_expected=rho_expected, rate_floor=rate_floor, c1_cap=c1_cap, window=window)
    (outdir / "verdict.txt").write_text(report.to_text())
    metrics = {"overall_pass": report.overall,
               "boundary_warnings": len(result.warnings)}
    for name in sorted(report.items):
        for key, val in report.items[name].items():
            metrics[f"{name}_{key}"] = val
    return (0 if report.overall else 1), metrics


COMMANDS = {
    "spectrum": cmd_spectrum,
    "front": cmd_front,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def cmd_sweep(scenario: Scenario, outdir: Path) -> tuple[int, dict]:
    """Run a sub-command once per swept value; aggregate one row per value.

    Per-value failures are recorded in their row and never abort the sweep;
    the sweep itself exits 0 unless its own configuration is invalid.
    """
    command = scenario.get("sweep", "command", str)
    if command not in COMMANDS:
        raise ConfigError(f"unknown sweep command {command!r}")
    axis = scenario.get("sweep", "axis", str)
    if "." not in axis:
        raise ConfigError("[sweep] axis must be section.key, e.g. weights.alpha")
    section, key = axis.split(".", 1)
    values_text = scenario.get("sweep", "values", str, "")
    values = [tok.strip() for tok in values_text.split(",") if tok.strip()]
    if not values:
        raise ConfigError("[sweep] values lists no value")

    rows = []
    for idx, value in enumerate(values):
        subdir = outdir / f"run_{idx:03d}"
        subdir.mkdir(parents=True, exist_ok=True)
        # a fresh parser copy keeps the override isolated per value
        sub = Scenario(raw=_copy_parser(scenario.raw))
        sub.set_override(section, key, value)
        try:
            code, metrics = _execute(COMMANDS[command], sub, subdir)
        except ConfigError as exc:
            code, metrics = 2, {"error": str(exc)}
        rows.append((idx, value, "ok" if code == 0 else "failed", code, metrics))

    metric_keys = sorted({k for row in rows for k in row[4]})
    with open(outdir / "sweep.csv", "w", newline="") as fh:
        fh.write("index,value,status,exit_code," + ",".join(metric_keys) + "\n")
        for idx, value, status, code, metrics in rows:
            cells = [str(idx), value, status, str(code)]
            cells += [_csv_cell(metrics[k]) if k in metrics else "" for k in metric_keys]
            fh.write(",".join(cells) + "\n")
    return 0, {"command": command, "axis": axis, "values": len(rows),
               "failed": sum(1 for r in rows if r[2] != "ok")}


def _csv_cell(value) -> str:
    """One sweep-table cell; free-text values must not break the row format."""
    text = _fmt_value(value)
    return text.replace(",", ";").replace("\n", " ")


def _copy_parser(parser: configparser.ConfigParser) -> configparser.ConfigParser:
    clone = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    for section in parser.sections():
        clone.add_section(section)
        for key, val in parser.items(section):
            clone.set(section, key, val)
    return clone


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="frontlab",
        description="Spectral and nonlinear stability laboratory for "
                    "combustion-type reaction-diffusion steady states.")
    parser.add_argument("command", choices=[*COMMANDS, "sweep"])
    parser.add_argument("--config", required=True, help="scenario file")
    parser.add_argument("--out", default="./out", help="artifact directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        scenario = load_scenario(args.config)
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # --out names a file, or a path under one
            raise ConfigError(f"cannot write to --out {args.out}: {exc}") from exc
        handler = cmd_sweep if args.command == "sweep" else COMMANDS[args.command]
        return _execute(handler, scenario, outdir)[0]
    except ConfigError as exc:
        print(f"frontlab: config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
