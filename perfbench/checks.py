"""Output checks, each against a computation made apart from frontlab.

Every check reads only the files a command wrote and the scenario it was
given, and recomputes what it compares with numpy/scipy: norms from the
snapshot CSVs, rates and abscissas from the model constants, two shots of
the front ODE with scipy's DOP853.  A mismatch raises Mismatch.  Checks
marked `ok` apply only when the command reported success; a failed command
is counted by the caller, not checked here.
"""

from __future__ import annotations

import configparser
import math
from pathlib import Path

import numpy as np


class Mismatch(AssertionError):
    """A frontlab output disagrees with its independent reference."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _close(got: float, want: float, rel: float, what: str) -> None:
    _expect(abs(got - want) <= rel * abs(want), f"{what}: got {got!r}, expected {want!r} "
            f"(relative tolerance {rel:g})")


def rho(kappa: float) -> float:
    """Sharp linear decay rate kappa e^-kappa of the v2 block."""
    return kappa * math.exp(-kappa)


def read_keys(path: Path) -> dict:
    """`key: value` lines of summary.txt / verdict.txt."""
    out = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition(": ")
        out[key] = val
    return out


def read_csv(path: Path) -> dict:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def _floats(sc: configparser.ConfigParser, section: str, key: str) -> list:
    return [float(tok) for tok in sc.get(section, key).split(",")]


def _grid(sc: configparser.ConfigParser) -> tuple:
    """Half-lengths, point counts, cell volume and the z coordinates."""
    L = _floats(sc, "grid", "l")
    N = [int(x) for x in _floats(sc, "grid", "n")]
    h = [2.0 * l / n for l, n in zip(L, N)]
    return L, N, float(np.prod(h)), -L[0] + h[0] * np.arange(N[0])


def _snapshot(outdir: Path, tag: str, N: list) -> np.ndarray:
    comps = []
    c = 0
    while (outdir / f"snapshot_{tag}_c{c}.csv").exists():
        text = (outdir / f"snapshot_{tag}_c{c}.csv").read_text()
        comps.append(np.array(text.split(), dtype=float).reshape(N))
        c += 1
    _expect(bool(comps), f"no {tag} snapshot in {outdir}")
    return np.stack(comps)


def snapshot_norms(outdir: Path, sc: configparser.ConfigParser) -> None:
    """H^0 norms of the first and last snapshot against the first and last row
    of norms.csv; at t = 0 the weighted norm too."""
    L, N, vol, z = _grid(sc)
    alpha = sc.getfloat("weights", "alpha")
    norms = read_csv(outdir / "norms.csv")
    k0 = norms["k"] == 0
    first, last = 0, int(np.sum(k0)) - 1
    v0 = _snapshot(outdir, "initial", N)
    vT = _snapshot(outdir, "final", N)
    _close(math.sqrt(vol * float(np.sum(v0**2))), norms["norm0_v"][k0][first], 1e-12,
           "unweighted norm of the initial snapshot")
    _close(math.sqrt(vol * float(np.sum(vT**2))), norms["norm0_v"][k0][last], 1e-12,
           "unweighted norm of the final snapshot")
    weight = np.exp(alpha * z).reshape((1, -1) + (1,) * (len(N) - 1))
    _close(math.sqrt(vol * float(np.sum((v0 * weight) ** 2))),
           norms["normalpha_v"][k0][first], 1e-12, "weighted norm of the initial snapshot")


def front(outdir: Path, ok: bool, kappa: float) -> None:
    """c* brackets the escape direction of two DOP853 shots; k = c*/kappa on the
    profile; the left temperature is 1/kappa."""
    if not ok:
        return
    c_star = float(read_keys(outdir / "summary.txt")["c_star"])
    prof = read_csv(outdir / "profile.csv")
    k = prof["phi3"] + c_star * prof["phi1"] + (c_star / kappa) * prof["phi2"]
    drift = float(np.max(np.abs(k - c_star / kappa)))
    _expect(drift <= 1e-9, f"first integral drifts {drift:.3e} from c*/kappa")
    left = abs(float(prof["phi1"][0]) - 1.0 / kappa)
    _expect(left <= 1e-6, f"|phi1(left) - 1/kappa| = {left:.3e}")
    low, high = _shot(c_star * (1 - 1e-6), kappa), _shot(c_star * (1 + 1e-6), kappa)
    _expect((low, high) == ("down", "up"),
            f"shots at c*(1 -/+ 1e-6) went {low}/{high}, so c* = {c_star!r} is no front speed")


def _shot(c: float, kappa: float, delta: float = 1e-8) -> str:
    """Integrate the reduced eps = 0 front field leftward from the unburned state."""
    from scipy.integrate import solve_ivp

    def rhs(_t, s):
        r = s[1] * math.exp(-1.0 / s[0]) if s[0] > 0.0 else 0.0
        return [-s[2], -(kappa / c) * r, c * s[2] + r]

    def up(_t, s):
        return s[0] - 1.5 / kappa

    def down(_t, s):
        return s[0] + 1e-6 / kappa

    up.terminal = down.terminal = True
    start = np.array([0.0, 1.0, 0.0]) + delta * np.array([1.0, 0.0, -c]) / math.hypot(1.0, c)
    sol = solve_ivp(rhs, (0.0, 5000.0), start, method="DOP853", rtol=1e-12, atol=1e-14,
                    events=(up, down))
    if sol.t_events[0].size:
        return "up"
    if sol.t_events[1].size:
        return "down"
    return "neither"


def verify(outdir: Path, ok: bool, sc: configparser.ConfigParser) -> None:
    """Snapshot norms, and the verdict's expected rates and floors from the scenario."""
    if not ok:
        return
    snapshot_norms(outdir, sc)
    c, kappa = sc.getfloat("model", "c"), sc.getfloat("model", "kappa")
    alpha = sc.getfloat("weights", "alpha")
    floor = sc.getfloat("verify", "rate_floor")
    verdict = read_keys(outdir / "verdict.txt")
    for item, want in (("item3", c * alpha - alpha**2), ("item5", rho(kappa))):
        _close(float(verdict[f"{item}_expected"]), want, 1e-12, f"{item} expected rate")
        _close(float(verdict[f"{item}_floor"]), floor * want, 1e-12, f"{item} floor")
        rate = float(verdict[f"{item}_rate"])
        _expect(rate >= floor * want, f"{item} rate {rate!r} below the floor {floor * want!r}")
    _expect(verdict["overall_pass"] == "true", "verify exited 0 without overall_pass")


def sweep(outdir: Path, ok: bool, sc: configparser.ConfigParser) -> None:
    """Every row passes and its item-5 rate is kappa e^-kappa (eps = 0, linear)."""
    if not ok:
        return
    rows = read_rows(outdir / "sweep.csv")
    values = [v.strip() for v in sc.get("sweep", "values").split(",")]
    _expect([r["value"] for r in rows] == values, "sweep rows do not match the swept values")
    for r in rows:
        _expect(r["status"] == "ok", f"sweep row kappa = {r['value']} failed")
        _close(float(r["item5_rate"]), rho(float(r["value"])), 1e-6,
               f"item-5 rate at kappa = {r['value']}")
        snapshot_norms(outdir / f"run_{int(r['index']):03d}", sc)


def read_rows(path: Path) -> list:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _diffusion_and_bdiag(sc: configparser.ConfigParser) -> tuple:
    """Diagonals of D and of B = Df(0), in closed form from the model constants."""
    kind = sc.get("model", "kind")
    if kind == "combustion":
        kappa = sc.getfloat("model", "kappa")
        return [1.0, sc.getfloat("model", "epsilon")], [0.0, -rho(kappa)]
    if kind == "gasless":
        return [1.0, 0.0], [0.0, -rho(sc.getfloat("model", "beta"))]
    if kind == "exo_endo":
        # the cold state switches every Arrhenius rate off: B = 0
        return [1.0, sc.getfloat("model", "d2"), sc.getfloat("model", "d3")], [0.0] * 3
    raise Mismatch(f"no reference for model kind {kind!r}")


def spectrum(outdir: Path, ok: bool, sc: configparser.ConfigParser) -> None:
    """Weighted closed-form abscissa = max_j (alpha^2 D_j - alpha c + B_jj)."""
    if not ok:
        return
    D, Bd = _diffusion_and_bdiag(sc)
    alpha, c = sc.getfloat("weights", "alpha"), sc.getfloat("model", "c")
    want = max(alpha**2 * d - alpha * c + b for d, b in zip(D, Bd))
    got = float(read_keys(outdir / "summary.txt")["abscissa_weighted_closed"])
    _expect(abs(got - want) <= 1e-12, f"weighted abscissa {got!r}, expected {want!r}")


def simulate_gasless(outdir: Path, ok: bool, sc: configparser.ConfigParser) -> None:
    """|v2|_0 decays at beta e^-beta: the fuel block has no diffusion."""
    if not ok:
        return
    snapshot_norms(outdir, sc)
    norms = read_csv(outdir / "norms.csv")
    k0 = norms["k"] == 0
    t, v2 = norms["t"][k0], norms["norm0_v2"][k0]
    late = t >= 0.25 * t[-1]
    slope = np.polyfit(t[late], np.log(v2[late]), 1)[0]
    _close(-float(slope), rho(sc.getfloat("model", "beta")), 1e-6, "gasless |v2|_0 decay rate")


def simulate_exo_endo(outdir: Path, ok: bool, sc: configparser.ConfigParser) -> None:
    """Below a temperature of 1e-3 every Arrhenius rate exp(-1/u) underflows to
    exactly 0, so each species solves v_t = D_j v_zz + c v_z: compare the final
    snapshot with the exact Fourier solution from the initial one."""
    if not ok:
        return
    snapshot_norms(outdir, sc)
    L, N, _vol, _z = _grid(sc)
    D, _ = _diffusion_and_bdiag(sc)
    c, T = sc.getfloat("model", "c"), sc.getfloat("time", "t")
    v0 = _snapshot(outdir, "initial", N)
    vT = _snapshot(outdir, "final", N)
    _expect(float(np.max(np.abs(v0[0]))) < 1e-3,
            "temperature perturbation too large for the linear reference")
    xi = 2.0 * np.pi * np.fft.fftfreq(N[0], d=2.0 * L[0] / N[0])
    for j, d in enumerate(D):
        exact = np.fft.ifft(np.fft.fft(v0[j]) * np.exp((-d * xi**2 + 1j * c * xi) * T)).real
        err = float(np.max(np.abs(vT[j] - exact)))
        _expect(err <= 1e-9 * float(np.max(np.abs(v0[j]))),
                f"exo_endo species {j} differs from the exact linear solution by {err:.3e}")


def same_unweighted_norms(outdir: Path, reference: Path, sc: configparser.ConfigParser) -> None:
    """The box-doubling pair: unweighted norms agree to 1e-9 relative.

    Applies whether or not the larger box passed its verdict; that verdict is
    the known failing operation."""
    big, small = read_csv(outdir / "norms.csv"), read_csv(reference / "norms.csv")
    _expect(np.array_equal(big["t"], small["t"]), "the two boxes recorded different times")
    for name in ("norm0_v1", "norm0_v2", "norm0_v"):
        diff = np.abs(big[name] - small[name])
        bad = diff > 1e-9 * np.abs(small[name])
        if np.any(bad):
            raise Mismatch(f"{name} differs by {float(np.max(diff[bad])):.3e} at t = "
                           f"{big['t'][bad][0]!r} between the boxes (relative tolerance 1e-9)")
    snapshot_norms(outdir, sc)


def boundary_warnings(outdir: Path) -> int:
    """Boundary-contamination warnings the command reported (never a failure)."""
    keys = read_keys(outdir / "summary.txt") if (outdir / "summary.txt").exists() else {}
    if "boundary_warnings" in keys:
        return int(keys["boundary_warnings"])
    sweep_csv = outdir / "sweep.csv"
    if sweep_csv.exists():
        return sum(int(r.get("boundary_warnings") or 0) for r in read_rows(sweep_csv))
    return 0
