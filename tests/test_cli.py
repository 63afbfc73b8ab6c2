import math
import textwrap
from pathlib import Path

import pytest

import numpy as np
from frontlab.cli import main


def write_config(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


BASE_SIM = """
    [model]
    kind = combustion
    epsilon = 0.5
    kappa = 1.0
    c = 1.0

    [weights]
    alpha = 0.4

    [grid]
    d = 1
    l = 20
    n = 128

    [time]
    t = 2.0
    dt = 0.05
    record_every = 5

    [perturbation]
    shape = gaussian
    eta = 1e-3
    center = 5.0
    width = 2.0
    mask = 0, 1
"""


class TestSpectrumCommand:
    def test_default_combustion(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0.5
            kappa = 1.0
            c = 1.0

            [weights]
            alpha = 0.4
        """)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "abscissa_unweighted_closed: 0" in summary
        assert "abscissa_weighted_closed: -0.2399" in summary
        assert (out / "spectrum_unweighted.csv").exists()
        assert (out / "spectrum_weighted.csv").exists()

    def test_optimal_weight(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0.5
            kappa = 1.0
            c = 1.0

            [weights]
            alpha = optimal
        """)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "alpha: 0.5" in summary
        assert "abscissa_star: -0.25" in summary
        assert "abscissa_weighted_closed: -0.25" in summary

    def test_2d_tensor_sum(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0.5
            kappa = 1.0
            c = 1.0

            [weights]
            alpha = 0.4

            [grid]
            d = 2

            [spectrum]
            m = 41
        """)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        line = [ln for ln in summary.splitlines() if ln.startswith("tensor_sum_difference")]
        assert line and float(line[0].split(": ")[1]) <= 1e-10

    def test_gasless_zero_diffusion_flagged(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = gasless
            beta = 1.0
            c = 1.0

            [weights]
            alpha = 0.3
        """)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        assert "zero_diffusion_block: true" in (out / "summary.txt").read_text()


class TestFrontCommand:
    def test_shoot(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0
            kappa = 1.0

            [front]
            mode = shoot
            c_min = 0.3
            c_max = 1.0
            tol = 1e-12
        """)
        out = tmp_path / "out"
        assert main(["front", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        c_star = float([ln for ln in summary.splitlines()
                        if ln.startswith("c_star")][0].split(": ")[1])
        resid = float([ln for ln in summary.splitlines()
                       if ln.startswith("phi1_left_residual")][0].split(": ")[1])
        assert 0.3 < c_star < 1.0
        assert resid <= 1e-6
        assert (out / "profile.csv").exists()

    def test_gasless_shoots_at_kappa_beta(self, tmp_path):
        # gasless is ModelParams(0, beta, c): its front is combustion's at
        # epsilon = 0 and kappa = beta
        outs = {}
        for name, model in (("gasless", "kind = gasless\nbeta = 2.0"),
                            ("combustion", "kind = combustion\nepsilon = 0\nkappa = 2.0")):
            cfg = write_config(tmp_path, f"[model]\n{model}\n", name=f"{name}.ini")
            outs[name] = tmp_path / name
            assert main(["front", "--config", cfg, "--out", str(outs[name])]) == 0
        gasless, combustion = (dict(ln.split(": ", 1) for ln in
                                    (out / "summary.txt").read_text().splitlines())
                               for out in outs.values())
        assert gasless["c_star"] == combustion["c_star"]
        assert abs(float(gasless["c_star"]) - 0.57072747473) > 0.1  # not kappa = 1's
        assert gasless["scenario.model.beta"] == "2"
        for name in ("profile.csv", "shots.csv"):
            assert (outs["gasless"] / name).read_bytes() == (outs["combustion"] / name).read_bytes()

    @pytest.mark.parametrize("kind", ["exo_endo", "flame"])
    def test_other_model_kinds_exit_2(self, tmp_path, capsys, kind):
        cfg = write_config(tmp_path, f"[model]\nkind = {kind}\n")
        assert main(["front", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "front takes [model] kind combustion or gasless" in capsys.readouterr().err

    def test_shoot_without_bracket_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0
            kappa = 1.0

            [front]
            mode = shoot
            c_min = 1.5
            c_max = 2.0
            tol = 1e-10
        """)
        out = tmp_path / "out"
        assert main(["front", "--config", cfg, "--out", str(out)]) == 1
        assert "error" in (out / "summary.txt").read_text()
        # the failed scan's shots are on disk: all 17 escape upward
        rows = (out / "shots.csv").read_text().splitlines()[1:]
        assert len(rows) == 17 and all(r.split(",")[3] == "up" for r in rows)

    def test_failed_certificate_exits_1(self, tmp_path):
        # tol = 1 stops every shot at once: the profile never nears 1/kappa
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0
            kappa = 1.0

            [front]
            mode = shoot
            tol = 1.0
        """)
        out = tmp_path / "out"
        assert main(["front", "--config", cfg, "--out", str(out)]) == 1
        summary = dict(ln.split(": ", 1)
                       for ln in (out / "summary.txt").read_text().splitlines())
        assert float(summary["phi1_left_residual"]) > 1e-6
        assert "burned state" in summary["error"]
        assert (out / "profile.csv").exists() and (out / "shots.csv").exists()

    def test_step_underflow_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0
            kappa = 1.0

            [front]
            mode = shoot
            c_min = 1.0
            c_max = 1e100
        """)
        out = tmp_path / "out"
        assert main(["front", "--config", cfg, "--out", str(out)]) == 1
        assert "underflow" in (out / "summary.txt").read_text()
        rows = (out / "shots.csv").read_text().splitlines()[1:]
        assert len(rows) == 1 and rows[0].split(",")[3] == "up"

    def test_orbit_step_underflow_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0.5
            c = 1e100

            [front]
            mode = orbit
            s0 = 0.1, 0.9, 0.0, 0.05
        """)
        out = tmp_path / "out"
        assert main(["front", "--config", cfg, "--out", str(out)]) == 1
        assert "underflow" in (out / "summary.txt").read_text()

    def test_shots_csv_records_every_shot(self, tmp_path):
        cfg = Path(__file__).resolve().parents[1] / "scenarios" / "front_shoot.ini"
        out = tmp_path / "out"
        assert main(["front", "--config", str(cfg), "--out", str(out)]) == 0
        summary = dict(ln.split(": ", 1)
                       for ln in (out / "summary.txt").read_text().splitlines())
        lines = (out / "shots.csv").read_text().splitlines()
        assert lines[0] == "c,tol,sign,reason,steps,miss"
        rows = [ln.split(",") for ln in lines[1:]]
        # the scan up to its first sign change, then the refinement: the
        # scan pair shot again at tol and the steps inside it
        scan = len(rows) - 2 - int(summary["refinement_iterations"])
        assert len(rows) == int(summary["shots"]) <= 25
        assert [int(r[2]) for r in rows[:scan]] == [-1] * (scan - 1) + [1]
        assert all(float(r[1]) == 1e-8 and r[5] == "nan" for r in rows[:scan])
        assert [r[0] for r in rows[scan:scan + 2]] == [r[0] for r in rows[scan - 2:scan]]
        assert all(float(r[1]) == 1e-12 for r in rows[scan:])
        # the miss carries the shot's sign
        assert all(math.copysign(1, float(r[5])) == int(r[2]) for r in rows[scan:])
        assert all(int(r[4]) > 0 for r in rows)
        last_escape = [r for r in rows if int(r[2]) >= 0][-1]
        assert float(last_escape[0]) == float(summary["c_star"])

    def test_known_limit_at_kappa_half(self, tmp_path):
        # c* is at float resolution (tests/test_front.py), but the closest
        # approach to the burned state misses 1/kappa = 2 by more than 1e-6
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0
            kappa = 0.5

            [front]
            c_min = 0.1
            c_max = 2.0
        """)
        out = tmp_path / "out"
        assert main(["front", "--config", cfg, "--out", str(out)]) == 1
        summary = dict(ln.split(": ", 1)
                       for ln in (out / "summary.txt").read_text().splitlines())
        assert "does not reach the burned state" in summary["error"]
        assert 1e-6 < float(summary["phi1_left_residual"]) < 2e-6
        assert (out / "profile.csv").exists()

    def test_orbit_conservation(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0.5
            kappa = 1.0
            c = 1.0

            [front]
            mode = orbit
            s0 = 0.1, 0.9, 0.0, 0.05
            span = 0, 8
            tol = 1e-10
        """)
        out = tmp_path / "out"
        assert main(["front", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        drift = float([ln for ln in summary.splitlines()
                       if ln.startswith("k_drift_max")][0].split(": ")[1])
        assert drift <= 1e-8

    def test_orbit_equilibrium_constant(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0.5
            kappa = 2.0
            c = 1.0

            [front]
            mode = orbit
            s0 = 0.5, 0, 0, 0
            span = 0, 5
            tol = 1e-10
        """)
        out = tmp_path / "out"
        assert main(["front", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "orbit.csv").read_text().splitlines()[1:]
        phi1 = np.array([float(r.split(",")[1]) for r in rows])
        assert np.max(np.abs(phi1 - 0.5)) <= 1e-12


class TestSimulateCommand:
    def test_writes_artifacts_and_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, BASE_SIM)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("norms.csv", "snapshot_final_c0.csv", "snapshot_final_c1.csv",
                     "summary.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / "snapshot_final_meta.json").exists()

    def test_rejects_overlong_dt(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_SIM + """
            [verify]
            delta = 1
        """)
        # amplitude large enough that the explicit-stage bound bites
        cfg2 = write_config(tmp_path, BASE_SIM.replace("eta = 1e-3", "amplitude = 500")
                            .replace("dt = 0.05", "dt = 0.9"), name="big.ini")
        code = main(["simulate", "--config", cfg2, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "exceeds the explicit-stage stability bound" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["simulate", "verify"])
    @pytest.mark.parametrize("dt,steps", [("1e-320", "inf"), ("1e-300", "4e+301")])
    def test_rejects_a_step_count_beyond_the_limit(self, tmp_path, capsys, cmd, dt, steps):
        # T / dt overflows (1e-320) or asks for 4e301 steps (1e-300): a
        # configuration error, not a traceback or a hang
        cfg = write_config(tmp_path, BASE_SIM.replace("t = 2.0", "t = 40").replace(
            "dt = 0.05", f"dt = {dt}"))
        assert main([cmd, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert (f"T / dt = {steps} steps exceeds the limit of 1e+08 steps per run"
                in capsys.readouterr().err)

    def test_stage_bound_tripping_mid_run_exits_1(self, tmp_path, capsys):
        # the initial field admits dt = 0.04 (bound 0.0467); at kappa = 6 the
        # fed v1 lowers the bound below dt at t = 0.16, inside the first record segment
        cfg = write_config(tmp_path, BASE_SIM.replace("kappa = 1.0", "kappa = 6.0")
                           .replace("eta = 1e-3", "amplitude = 20")
                           .replace("dt = 0.05", "dt = 0.04")
                           .replace("t = 2.0", "t = 1.0")
                           .replace("record_every = 5", "record_every = 10"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        assert ("error: dt = 0.04 exceeds the explicit-stage stability bound 3.968e-02 "
                "at t = 0.16") in (out / "summary.txt").read_text()

    def test_weighted_norm_overflow_mid_run_exits_1(self, tmp_path, capsys):
        # a centred field in a 2 L = 4096 box: after one step round-off fills
        # the box, and alpha z reaches 818.8 on its support
        shipped = Path(__file__).resolve().parents[1] / "scenarios" / "verify_theorem.ini"
        text = shipped.read_text()
        for old, new in (("l = 50", "l = 2048"), ("n = 1024", "n = 4096"),
                         ("center = 40.0", "center = 0.0"), ("t = 40.0", "t = 1.0"),
                         ("record_every = 25", "record_every = 1"),
                         ("window = 3.0, 38.0", "window = 0.0, 1.0")):
            assert old in text
            text = text.replace(old, new)
        cfg = write_config(tmp_path, text)
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        summary = (out / "summary.txt").read_text()
        assert ("error: weighted norm overflow: alpha * z reaches 818.8 > 700 on the field "
                "support (field is boundary-contaminated) at t = 0.02") in summary
        assert "overall_pass: false" in summary

    def test_snapshot_bytes_match_per_value_format(self, tmp_path):
        from frontlab.cli import _write_snapshot
        from frontlab.sim import FieldState

        rng = np.random.default_rng(5)
        data = rng.normal(scale=1e3, size=(2, 16)) ** 3
        data[0, :5] = [-0.0, 5e-324, 1e300, 1.0, -1.0]
        state = FieldState(t=0.5, data=data)
        _write_snapshot(tmp_path, "x", state, {"model": {"kind": "test"}})
        for comp in range(2):
            expect = "".join(f"{v:.17g}\n" for v in data[comp])
            assert (tmp_path / f"snapshot_x_c{comp}.csv").read_bytes() == expect.encode()

    def test_snapshot_written_in_blocks(self, tmp_path):
        # a verify2d field, 32,768 values a component: 4,128 KiB traced
        # when each file was formatted whole
        from frontlab.cli import _write_snapshot
        from frontlab.sim import FieldState
        from oracles import traced_peak

        data = np.random.default_rng(7).normal(size=(2, 256, 128)) ** 3
        data[1, 100, :4] = [np.nan, np.inf, -np.inf, -0.0]
        state = FieldState(t=2.0, data=data)
        peak, _ = traced_peak(lambda: _write_snapshot(tmp_path, "y", state, {}))
        assert peak < 512 * 1024
        for comp in range(2):
            expect = "".join(f"{v:.17g}\n" for v in data[comp].ravel())
            assert (tmp_path / f"snapshot_y_c{comp}.csv").read_bytes() == expect.encode()


class TestVerifyCommand:
    def test_linear_only_passes(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0.5
            kappa = 1.0
            c = 1.0

            [weights]
            alpha = 0.4

            [grid]
            d = 1
            l = 40
            n = 256

            [time]
            t = 12.0
            dt = 0.05
            record_every = 10
            nonlinear = false

            [perturbation]
            eta = 1e-3
            center = 18.0
            width = 2.0
            mask = 0, 1

            [verify]
            rate_floor = 0.9
            window = 2.0, 12.0
        """)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        verdict = (out / "verdict.txt").read_text()
        assert "overall_pass: true" in verdict
        assert (out / "norms.csv").exists()

    def test_too_few_fit_samples_exits_2(self, tmp_path, capsys):
        # t = 2, dt = 0.05, record_every = 5: 8 samples in the default window
        cfg = write_config(tmp_path, BASE_SIM)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "the fit window holds 8 of the 9 records" in err
        assert "[verify] window" in err and "[time] record_every" in err
        assert not (tmp_path / "o" / "norms.csv").exists()  # rejected before the run

    def test_failing_rate_exits_1(self, tmp_path):
        # alpha tiny: expected weighted rate 0.24 demanded via explicit
        # nu floor fails against a nearly unweighted (slow) measurement
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0.5
            kappa = 1.0
            c = 1.0

            [weights]
            alpha = 0.4

            [grid]
            d = 1
            l = 20
            n = 128

            [time]
            t = 3.0
            dt = 0.05
            record_every = 5

            [perturbation]
            eta = 1e-3
            center = 5.0
            width = 2.0
            mask = 1, 0

            [verify]
            delta = 1e-9
        """)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        assert "overall_pass: false" in (out / "verdict.txt").read_text()


class TestSweepCommand:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = Path(__file__).resolve().parents[1] / "scenarios" / "sweep_kappa.ini"
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            with pytest.warns(RuntimeWarning, match="boundary contamination"):
                assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        runs = sorted(p.name for p in outs[0].glob("run_*"))
        assert runs == sorted(p.name for p in outs[1].glob("run_*"))
        assert len(runs) == 3
        names = ["sweep.csv"] + [f"{run}/{name}" for run in runs
                                 for name in ("norms.csv", "verdict.txt")]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_alpha_sweep_with_poisoned_value(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0.5
            kappa = 1.0
            c = 1.0

            [weights]
            alpha = 0.4

            [sweep]
            command = spectrum
            axis = weights.alpha
            values = 0.1, 0.3, 0.7
        """)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 3
        # alpha = 0.7 >= c/2 violates the band: failed row, sweep still ok
        body = rows[1:]
        statuses = [r.split(",")[2] for r in body]
        assert statuses == ["ok", "ok", "failed"]
        assert (out / "run_000" / "summary.txt").exists()

    def test_empty_values(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion

            [sweep]
            command = spectrum
            axis = weights.alpha
            values =
        """)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert list(out.iterdir()) == []  # no header-only sweep.csv

    def test_fitted_weighted_rate_increases_with_alpha(self, tmp_path):
        # linear runs: the measured weighted decay rate tracks
        # c alpha - alpha^2, increasing toward the band edge
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0.5
            kappa = 1.0
            c = 1.0

            [grid]
            d = 1
            l = 30
            n = 256

            [time]
            t = 8.0
            dt = 0.05
            record_every = 5
            nonlinear = false

            [perturbation]
            eta = 1e-3
            center = 12.0
            width = 2.0
            mask = 0, 1

            [verify]
            rate_floor = 0.5
            window = 1.0, 8.0

            [sweep]
            command = verify
            axis = weights.alpha
            values = 0.15, 0.3, 0.45
        """)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        header = rows[0].split(",")
        col = header.index("item3_rate")
        rates = [float(r.split(",")[col]) for r in rows[1:]]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_weighted_rate_tracks_alpha(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = combustion
            epsilon = 0.5
            kappa = 1.0
            c = 1.0

            [sweep]
            command = spectrum
            axis = weights.alpha
            values = 0.1, 0.25, 0.4, 0.49
        """)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        header = rows[0].split(",")
        col = header.index("abscissa_weighted_closed")
        vals = [float(r.split(",")[col]) for r in rows[1:]]
        # c alpha - alpha^2 grows toward the band edge: abscissas decrease
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestExitCodes:
    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[model\nkind = combustion\n")
        assert main(["spectrum", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "line" in err.lower()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["spectrum", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, """
            [model]
            kind = gasless
        """)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "beta" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[model]\nkind = combustion\n")
        assert main(["explode", "--config", cfg]) == 2

    @pytest.mark.parametrize("command, section, setting, named", [
        ("spectrum", "spectrum", "m = 400", "[spectrum] m"),
        ("spectrum", "spectrum", "r = abc", "[spectrum] r"),
        ("spectrum", "spectrum", "r = -1", "[spectrum] r"),
        ("front", "front", "mode = orbit\nspan = 0, 1, 2", "[front] span"),
        ("front", "front", "c_min = 2\nc_max = 1", "c_bracket"),
        ("front", "front", "mode = orbit\ns0 = nan, 0.9, 0.0", "s0"),
        ("front", "front", "mode = orbit\nspan = 0, nan", "span"),
        ("front", "front", "mode = orbit\nspan = 0, inf", "span"),
        ("front", "front", "tol = 1e-300", "tol"),
        ("front", "front", "tol = 1e-100", "tol"),
        ("front", "front", "tol = inf", "tol"),
        ("front", "model", "kappa = inf", "kappa"),
        ("front", "front", "c_max = inf", "c_max"),
        ("front", "front", "mode = orbit\ntol = 1e-100", "tol"),
        ("spectrum", "model", "kappa = inf", "kappa must be positive and finite"),
        ("spectrum", "model", "c = inf", "c must be positive and finite"),
        ("simulate", "time", "t = inf", "T and dt must be positive and finite"),
        ("simulate", "time", "dt = inf", "T and dt must be positive and finite"),
        ("simulate", "time", "record_every = inf", "[time] record_every"),
        ("spectrum", "grid", "d = 0", "[grid] d"),
        ("simulate", "grid", "d = 1\nl = 50, 25\nn = 64, 32", "[grid] l and n need d = 1"),
        ("spectrum", "spectrum", "envelope_t_max = -1", "[spectrum] envelope_t_max"),
        ("simulate", "perturbation", "amplitude = nan", "[perturbation] amplitude"),
        ("simulate", "perturbation", "amplitude = inf", "amplitude must be"),
        ("simulate", "perturbation", "eta = nan", "[perturbation] eta"),
        ("simulate", "perturbation", "eta = inf", "eta must be"),
        ("simulate", "perturbation", "center = nan", "center must be finite"),
        ("simulate", "perturbation", "width = nan", "widths must be"),
        ("verify", "verify", "rate_floor = nan", "[verify] rate_floor"),
        ("verify", "verify", "c1_cap = nan", "[verify] c1_cap"),
        ("verify", "verify", "delta = nan\n[grid]\nl = 20\nn = 64\n[time]\nt = 1\ndt = 0.1",
         "[verify] delta"),
        ("verify", "verify", "delta = abc", "[verify] delta"),
        ("verify", "verify", "delta = -1", "[verify] delta must be >= 0"),
        ("verify", "verify", "c1_cap = -1", "[verify] c1_cap must be >= 0"),
        ("verify", "verify", "window = 4.0, 0.5", "[verify] window"),
        ("verify", "verify", "window = nan, 4.0", "[verify] window"),
        ("simulate", "grid", "l = inf", "half-lengths must be positive and finite"),
        ("spectrum", "spectrum", "r = inf", "[spectrum] r"),
        ("sweep", "sweep", "command = spectrum\naxis = weights.alpha\nvalues =", "[sweep] values"),
        ("simulate", "perturbation", "mask = 0, 2", "mask entries must be 0 or 1"),
        ("simulate", "perturbation", "mask = -1, 1", "mask entries must be 0 or 1"),
    ], ids=["m_even", "r_text", "r_negative", "span_three_values", "bracket_reversed",
            "s0_nan", "span_nan", "span_inf", "tol_1e-300", "tol_1e-100", "tol_inf",
            "kappa_inf", "c_max_inf", "orbit_tol_1e-100", "spectrum_kappa_inf",
            "spectrum_c_inf", "t_inf", "dt_inf", "record_every_inf", "d_zero",
            "d_disagrees_with_l_and_n", "envelope_t_max_negative", "amplitude_nan",
            "amplitude_inf", "eta_nan", "eta_inf", "center_nan", "width_nan",
            "rate_floor_nan", "c1_cap_nan", "delta_nan", "delta_text", "delta_negative",
            "c1_cap_negative", "window_reversed",
            "window_nan", "l_inf", "r_inf", "sweep_no_values", "mask_two", "mask_negative"])
    def test_bad_setting_exits_2(self, tmp_path, capsys, command, section, setting, named):
        model = "[model]\nkind = combustion\n"
        cfg = write_config(tmp_path, model + setting + "\n" if section == "model"
                           else f"{model}\n[{section}]\n{setting}\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        # the temporary path carries the test id, so it must not match `named`
        err = capsys.readouterr().err.replace(str(tmp_path), "")
        assert "frontlab: config error" in err and named in err
        assert not (tmp_path / "o" / "norms.csv").exists()  # rejected before any run


class TestShippedScenarios:
    @pytest.mark.parametrize("name,command", [
        ("spectrum_combustion.ini", "spectrum"),
        ("spectrum_2d_optimal.ini", "spectrum"),
        ("front_shoot.ini", "front"),
        ("verify_theorem.ini", "verify"),
        ("verify_theorem_2d.ini", "verify"),
        ("sweep_kappa.ini", "sweep"),
    ])
    def test_scenarios_parse_and_resolve(self, name, command):
        # every shipped scenario must at least build its model, grid, and
        # perturbation without touching the expensive run
        from pathlib import Path

        from frontlab.cli import (_build_grid, _build_model,
                                  _build_perturbation, load_scenario)

        path = Path(__file__).resolve().parents[1] / "scenarios" / name
        scenario = load_scenario(path)
        model, alpha = _build_model(scenario)
        assert alpha > 0
        if command in ("verify", "sweep"):
            grid = _build_grid(scenario)
            _build_perturbation(scenario, grid, model.n)


class TestBlockSystemModels:
    def test_exo_endo_spectrum(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = exo_endo
            d2 = 0.5
            d3 = 0.25
            sigma = 1.0
            tau = 1.0
            a2 = 1.0
            a3 = 1.0
            b2 = 1.0
            b3 = 1.0
            c = 1.0

            [weights]
            alpha = 0.3
        """)
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        # cold-state linearization vanishes: the weighted abscissa is the
        # largest family vertex alpha^2 D_j - alpha c, attained at the
        # unit-diffusion temperature family
        assert "abscissa_unweighted_closed: 0" in summary
        line = [ln for ln in summary.splitlines()
                if ln.startswith("abscissa_weighted_closed")][0]
        assert float(line.split(": ")[1]) == pytest.approx(
            0.3**2 - 0.3, abs=1e-12)
        # three species: CSV carries three eigenvalue pairs
        header = (out / "spectrum_weighted.csv").read_text().splitlines()[0]
        assert header.endswith("re_lambda_3,im_lambda_3")

    def test_exo_endo_simulate(self, tmp_path):
        cfg = write_config(tmp_path, """
            [model]
            kind = exo_endo
            d2 = 0.5
            d3 = 0.25
            sigma = 1.0
            tau = 1.0
            a2 = 1.0
            a3 = 1.0
            b2 = 1.0
            b3 = 1.0
            c = 1.0

            [weights]
            alpha = 0.3

            [grid]
            d = 1
            l = 20
            n = 64

            [time]
            t = 1.0
            dt = 0.05
            record_every = 5

            [perturbation]
            eta = 1e-3
            center = 5.0
            width = 2.0
            mask = 1, 1, 1
        """)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "snapshot_final_c2.csv").exists()


def joined(*parts):
    """Scenario text from separately indented blocks."""
    return "\n".join(textwrap.dedent(p) for p in parts)


GASLESS = """
    [model]
    kind = gasless
    beta = 1.0
    c = 1.0
"""

EXO_ENDO = """
    [model]
    kind = exo_endo
    d2 = 0.5
    d3 = 0.25
    sigma = 1.0
    tau = 1.0
    a2 = 1.0
    a3 = 1.0
    b2 = 1.0
    b3 = 1.0
    c = 2.0
"""

COMBUSTION = """
    [model]
    kind = combustion
    epsilon = 0.5
    kappa = 1.0
    c = 1.0
"""


class TestAlphaRule:
    """[weights] alpha is checked where the scenario is read, for every kind."""

    @pytest.mark.parametrize("model,c", [(COMBUSTION, 1.0), (GASLESS, 1.0), (EXO_ENDO, 2.0)],
                             ids=["combustion", "gasless", "exo_endo"])
    @pytest.mark.parametrize("factor", [0.0, 0.5, 0.7, -0.1])
    def test_outside_band_exits_2(self, tmp_path, capsys, model, c, factor):
        cfg = write_config(tmp_path, joined(model, f"[weights]\nalpha = {factor * c!r}\n"))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "admissible band" in capsys.readouterr().err

    def test_optimal_alpha_in_snapshot_meta(self, tmp_path):
        import json

        cfg = write_config(tmp_path, BASE_SIM.replace("alpha = 0.4", "alpha = optimal")
                           .replace("t = 2.0", "t = 0.2"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "snapshot_final_meta.json").read_text())
        assert meta["model"]["alpha"] == 0.5


class TestSpectrumBlockKinds:
    def test_gasless_2d_runs_envelope_and_tensor_sum(self, tmp_path):
        # d = 2 adds the tensor-sum check and gasless gets the envelope; both
        # can set exit code 1, neither does for an admissible alpha
        cfg = write_config(tmp_path, joined(GASLESS, """
            [weights]
            alpha = 0.3

            [grid]
            d = 2

            [spectrum]
            m = 41
        """))
        out = tmp_path / "out"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        summary = dict(ln.split(": ", 1) for ln in
                       (out / "summary.txt").read_text().splitlines() if ": " in ln)
        assert float(summary["tensor_sum_difference"]) <= 1e-10
        # nu = c alpha - alpha^2 D_1 with D_1 = 1 (the zero-diffusion block decays faster)
        assert float(summary["nu"]) == pytest.approx(0.3 - 0.3**2, abs=1e-12)
        assert 1.0 <= float(summary["envelope_K"]) < 1e6
        assert "envelope_error" not in summary


class TestVerifyEveryKind:
    def test_gasless_verify_passes_with_symbol_rates(self, tmp_path):
        cfg = write_config(tmp_path, joined(GASLESS, """
            [weights]
            alpha = 0.3

            [grid]
            d = 1
            l = 40
            n = 256

            [time]
            t = 12.0
            dt = 0.05
            record_every = 10
            nonlinear = false

            [perturbation]
            eta = 1e-3
            center = 18.0
            width = 2.0
            mask = 0, 1

            [verify]
            rate_floor = 0.9
            window = 2.0, 12.0
        """))
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        verdict = dict(line.split(": ", 1)
                       for line in (out / "verdict.txt").read_text().splitlines())
        # weighted families alpha^2 D_j - alpha c + B_jj with D = (1, 0)
        assert float(verdict["item3_expected"]) == 0.3 - 0.3**2
        assert float(verdict["item5_expected"]) == np.exp(-1.0)
        assert verdict["overall_pass"] == "true"

    def test_exo_endo_is_outside_the_theorem(self, tmp_path):
        # B = 0 at the cold state: the second block's sharp rate is 0, so a
        # fitted rate could only pass vacuously
        cfg = write_config(tmp_path, joined(EXO_ENDO, """
            [weights]
            alpha = 0.3

            [grid]
            l = 20
            n = 64

            [perturbation]
            mask = 1, 1, 1
        """))
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        summary = (out / "summary.txt").read_text()
        assert ("error: theorem does not apply: the sharp rate of the second block, "
                "components 2-3 (item 5) is 0, not positive") in summary
        assert "overall_pass: false" in summary
        assert sorted(p.name for p in out.iterdir()) == ["summary.txt"]  # nothing ran

    def test_combustion_rates_are_the_closed_forms(self):
        from frontlab.cli import _expected_rates
        from frontlab.model import ModelParams

        for kappa in np.linspace(0.5, 2.0, 13):
            for c, alpha in ((1.0, 0.4), (2.5, 0.7), (0.8, 0.1)):
                nu, rho = _expected_rates(ModelParams(epsilon=0.5, kappa=kappa, c=c), alpha)
                assert nu == c * alpha - alpha**2
                assert rho == kappa * np.exp(-kappa)

    def test_symbol_without_closed_form_is_config_error(self, tmp_path, monkeypatch):
        from frontlab import cli
        from frontlab.model import BlockSystem

        B = np.array([[0.0, -0.9, 0.4], [0.9, 0.0, -0.2], [0.0, 0.0, -0.5]])
        toy = BlockSystem(n1=2, n2=1, d1=[1.0, 0.5], d2=[0.2], A1=B[:2, :2],
                          f=lambda v: np.tensordot(B, v, axes=(1, 0)),
                          jac=lambda v: B.copy(), name="rotation-toy")
        monkeypatch.setattr(cli, "_build_model", lambda scenario: (toy, 0.3))
        ran = []
        monkeypatch.setattr(cli._sim, "run", lambda *a, **k: ran.append(1))
        cfg = write_config(tmp_path, BASE_SIM)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert ran == []


class TestCommandLine:
    def test_seed_option_is_gone(self, tmp_path):
        cfg = write_config(tmp_path, COMBUSTION)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "1"]) == 2

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        # the file itself, and a path under it
        cfg = write_config(tmp_path, COMBUSTION)
        taken = tmp_path / "taken"
        taken.write_text("")
        for out in (taken, taken / "o"):
            assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("frontlab: ")

    @staticmethod
    def block_kind_configs(tmp_path) -> tuple[str, str]:
        """Small gasless and exo_endo scenarios for spectrum and simulate."""
        gas = write_config(tmp_path, joined(GASLESS, """
            [weights]
            alpha = 0.3

            [grid]
            l = 20
            n = 64

            [time]
            t = 0.5
            dt = 0.05
            record_every = 5
        """), name="gasless.ini")
        exo = write_config(tmp_path, joined(EXO_ENDO.replace("c = 2.0", "c = 1.0"), """
            [weights]
            alpha = 0.3

            [grid]
            l = 20
            n = 64

            [time]
            t = 0.5
            dt = 0.05
            record_every = 5

            [perturbation]
            center = 5.0
            mask = 1, 1, 1
        """), name="exo.ini")
        return gas, exo

    @staticmethod
    def loaded_after(tmp_path, commands, modules) -> list:
        """Exit codes of the commands, run in order in one fresh interpreter,
        then whether each module was imported by then."""
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys\n"
            "from frontlab.cli import main\n"
            f"for cmd, cfg in {tuple(commands)!r}:\n"
            f"    print(main([cmd, '--config', cfg, '--out', {str(tmp_path / 'o')!r}]))\n"
            f"for name in {tuple(modules)!r}:\n"
            "    print(name in sys.modules)\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env={"PYTHONPATH": src, "PATH": ""}, check=True)
        return out.stdout.split()

    def test_closed_form_models_never_import_scipy_linalg(self, tmp_path):
        # scipy.linalg costs ~29 MiB of resident memory; only a symbol without
        # a closed-form exponential needs it
        gas, exo = self.block_kind_configs(tmp_path)
        sim_cfg = write_config(tmp_path, BASE_SIM.replace("record_every = 5", "record_every = 2"),
                               name="comb.ini")
        commands = [("spectrum", gas), ("simulate", gas), ("spectrum", exo),
                    ("simulate", exo), ("verify", sim_cfg)]
        assert self.loaded_after(tmp_path, commands, ["scipy.linalg", "scipy.fft"]) == \
            ["0"] * 5 + ["False", "False"]

    def test_block_kinds_never_import_numpy_random(self, tmp_path):
        # numpy.random costs ~15 ms and 5.7 MiB; the block-structure probe at
        # construction draws from the stdlib random module instead
        gas, exo = self.block_kind_configs(tmp_path)
        commands = [(cmd, cfg) for cfg in (gas, exo) for cmd in ("spectrum", "simulate")]
        assert self.loaded_after(tmp_path, commands, ["numpy.random"]) == ["0"] * 4 + ["False"]
