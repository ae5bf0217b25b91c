"""Config parsing and the four CLI subcommands, including the exit-code
contract and the CSV schema."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import reference
from regcrit import cli, config, criteria, norms, spectral
from regcrit import snapshot as snap
from regcrit import solver as solv
from regcrit.config import (
    ConfigError,
    build_calibration_config,
    build_criterion_config,
    build_solver_config,
    parse_config,
    parse_pairs,
    parse_seed_list,
)
from regcrit.criteria import SerrinPair


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


BASE = """
# reference-style run, scaled down for tests
grid.n = 16
fluid.mu = 0.1
time.dt = 1e-3
time.t_end = 0.02
init.kind = taylor_green
init.amplitude = 1.0
monitors.pairs = 4:8,5:5,6:4,inf:2
snapshots.stride = 10
output.dir = run
"""

#: damages to a calibration record's text, each with a word of the
#: ValueError that the reader raises on it
RECORD_DAMAGES = {
    # the repeated key comes last, so a reader that let the last value win
    # would run with c_cal = 1e-300
    "repeated_key": (lambda text: text + "p5.c_cal = 1e-300\n", "repeats"),
    "unknown_field": (lambda text: text + "p6.foo = 3\n", "unknown"),
    "label_p5.0": (lambda text: text.replace("p5.", "p5.0."), "label"),
    "label_p2": (lambda text: text.replace("p5.", "p2."), "label"),
    "label_pnan": (lambda text: text.replace("p5.", "pnan."), "label"),
}


class TestCommandLine:
    """A command line that the parser rejects is a usage error: exit 1, one
    line, where argparse exits with 2, the numerical-blowup code."""

    @pytest.mark.parametrize(
        "argv", [[], ["frobnicate"], ["simulate"], ["verify", "a", "b"]],
        ids=["no_command", "unknown_command", "missing_argument", "extra_argument"],
    )
    def test_usage_error_exits_one_with_one_line(self, capsys, argv):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1, err
        assert err.startswith("usage error: "), err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert "simulate" in out and err == ""


class TestConfigParsing:
    def test_full_parse_and_defaults(self, tmp_path):
        p = write_config(tmp_path / "a.cfg", BASE)
        raw = parse_config(p)
        assert raw.get_int("grid.n") == 16
        assert raw.get_float("grid.length", 2 * math.pi) == pytest.approx(2 * math.pi)
        assert raw.get_int("monitors.stride", 1) == 1

    def test_missing_key_reported(self, tmp_path):
        p = write_config(tmp_path / "a.cfg", "grid.n = 16\n")
        raw = parse_config(p)
        with pytest.raises(ConfigError, match="fluid.mu"):
            raw.get_float("fluid.mu")

    def test_bad_value_carries_line(self, tmp_path):
        p = write_config(tmp_path / "a.cfg", "grid.n = 16\nfluid.mu = fast\n")
        raw = parse_config(p)
        with pytest.raises(ConfigError, match="line 2"):
            raw.get_float("fluid.mu")
        # the pair and seed lists report their line like every other key
        for key, value, build in [
            ("monitors.pairs", "6:x", build_criterion_config),
            ("calibration.seeds", "0..x", build_calibration_config),
        ]:
            cfg = f"grid.n = 16\nfluid.mu = 0.1\n{key} = {value}\n"
            with pytest.raises(ConfigError, match=rf"'{key}', line 3\)"):
                build(parse_config(write_config(tmp_path / "b.cfg", cfg)))

    def test_duplicate_key_rejected(self, tmp_path):
        p = write_config(tmp_path / "a.cfg", "grid.n = 16\ngrid.n = 8\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(p)

    def test_pairs_inf_accepted(self):
        pairs = parse_pairs("6:4, inf:2")
        assert pairs == (SerrinPair(6.0, 4.0), SerrinPair(math.inf, 2.0))

    def test_pairs_malformed_rejected(self, tmp_path):
        # a repeated label would give the monitor CSV two blocks of one name
        for pairs in ["6", "3:10", ",", "6:4, 6:4", "6:4, 6.0:4.0"]:
            p = write_config(tmp_path / "a.cfg", BASE.replace("4:8,5:5,6:4,inf:2", pairs))
            with pytest.raises(ConfigError, match=r"'monitors.pairs', line 9\)"):
                build_criterion_config(parse_config(p))

    def test_seed_range_and_list(self, tmp_path):
        assert parse_seed_list("0..3") == (0, 1, 2, 3)
        assert parse_seed_list("5, 9, 2") == (5, 9, 2)
        for seeds in ["9..5", ","]:
            cfg = f"grid.n = 16\nfluid.mu = 0.1\ncalibration.seeds = {seeds}\n"
            with pytest.raises(ConfigError, match=r"'calibration.seeds', line 3\)"):
                build_calibration_config(parse_config(write_config(tmp_path / "a.cfg", cfg)))

    def test_unknown_key_rejected(self, tmp_path, capsys):
        p = write_config(tmp_path / "a.cfg", BASE + "monitors.strid = 5\n")
        with pytest.raises(ConfigError, match=r"unknown key.*'monitors.strid', line 12"):
            parse_config(p)
        assert cli.main(["simulate", p]) == 1
        assert_config_error(capsys)

    def test_docstring_lists_exactly_the_keys(self):
        documented = re.findall(r"^    (\S+)\s", config.__doc__, flags=re.MULTILINE)
        assert documented == list(config.KEYS)


class TestSimulate:
    def test_zero_duration_single_row(self, tmp_path):
        cfg = BASE.replace("time.t_end = 0.02", "time.t_end = 0.0")
        p = write_config(tmp_path / "a.cfg", cfg)
        assert cli.main(["simulate", p]) == 0
        csv = tmp_path / "run" / "monitors.csv"
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 2  # header + t = 0 row

    def test_csv_column_contract(self, tmp_path):
        p = write_config(tmp_path / "a.cfg", BASE.replace("0.02", "0.0"))
        cli.main(["simulate", p])
        header = (tmp_path / "run" / "monitors.csv").read_text().splitlines()[0]
        pair_block = lambda lab: (
            f"lp_{lab},serrin_{lab},serrin_int_{lab},log_serrin_{lab},log_serrin_int_{lab}"
        )
        expected = ",".join(
            ["t", "energy"]
            + [pair_block(lab) for lab in ("p4_s8", "p5_s5", "p6_s4", "pinf_s2")]
            + [
                "linf,sobolev1,sobolev2,sobolev3,bkm,bkm_int,chan_vasseur,"
                "chan_vasseur_int,identity_residual,gronwall_bound,"
                "ddt_sobolev2_sq,embed_ratio"
            ]
        )
        assert header == expected

    def test_csv_round_trips_doubles(self, tmp_path):
        p = write_config(tmp_path / "a.cfg", BASE)
        cli.main(["simulate", p])
        csv_path = str(tmp_path / "run" / "monitors.csv")
        cols, data = cli.read_series_csv(csv_path)
        # re-serialize one value and compare text
        with open(csv_path, encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
        first_value = raw_lines[1].split(",")[1]
        assert f"{data['energy'][0]:.17g}" == first_value

    def test_cfl_violation_exits_one(self, tmp_path):
        cfg = BASE.replace("time.dt = 1e-3", "time.dt = 0.45").replace(
            "time.t_end = 0.02", "time.t_end = 0.45"
        )
        p = write_config(tmp_path / "a.cfg", cfg)
        assert cli.main(["simulate", p]) == 1

    @pytest.mark.parametrize("command", ["simulate", "calibrate"])
    def test_out_of_memory_exits_one(self, tmp_path, capsys, monkeypatch, command):
        # at grid.n = 4096 simulate's first grid table and calibrate's random
        # draw ask numpy for hundreds of GiB; the raise is simulated, on a
        # small grid, so that nothing large is allocated
        message = "Unable to allocate 228. GiB for an array with shape (2731,)"

        def refuse(*_args):
            raise MemoryError(message.replace(" shape", "\nshape"))

        if command == "simulate":
            monkeypatch.setattr(spectral.Grid, "k_squared_max_retained", property(refuse))
            p = write_config(tmp_path / "a.cfg", BASE)
        else:
            monkeypatch.setattr(solv, "_drawn_field", refuse)
            p = write_config(
                tmp_path / "a.cfg",
                "grid.n = 16\nfluid.mu = 0.1\ncalibration.seeds = 0..1\n"
                "calibration.p = 5\noutput.dir = cal\n",
            )
        assert cli.main([command, p]) == 1
        err = capsys.readouterr().err
        assert err == f"out of memory: {message}\n"
        assert not (tmp_path / "run").exists() and not (tmp_path / "cal").exists()

    @pytest.mark.parametrize("length", ["inf", "nan"])
    def test_non_finite_length_exits_one(self, tmp_path, capsys, length):
        p = write_config(tmp_path / "a.cfg", BASE + f"grid.length = {length}\n")
        assert cli.main(["simulate", p]) == 1
        assert "finite" in assert_config_error(capsys)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("init.kind = taylor_green", "init.kind = random_divfree\ninit.seed = -1"),
            ("time.t_end = 0.02", "time.t_end = inf"),
            ("init.amplitude = 1.0", "init.amplitude = nan"),
            ("init.kind = taylor_green", "init.kind = random_divfree\ninit.spectrum_slope = nan"),
            ("4:8,5:5,6:4,inf:2", "6:4, 6:4"),
            ("4:8,5:5,6:4,inf:2", "6:4, 6.0:4.0"),
        ],
    )
    def test_damaged_value_exits_one_without_outputs(self, tmp_path, capsys, old, new):
        p = write_config(tmp_path / "a.cfg", BASE.replace(old, new))
        assert cli.main(["simulate", p]) == 1
        assert_config_error(capsys)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "init", ["init.spectrum_slope = 400", "init.amplitude = 1e300"]
    )
    def test_initial_field_out_of_range_exits_one(self, tmp_path, capsys, init):
        cfg = BASE.replace("init.kind = taylor_green", "init.kind = random_divfree").replace(
            "init.amplitude = 1.0", init
        )
        p = write_config(tmp_path / "a.cfg", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", p]) == 1
        assert "random_divfree" in assert_config_error(capsys)
        assert not (tmp_path / "run").exists()

    def test_overflowing_taylor_green_exits_one_without_a_warning(self, tmp_path, capsys):
        # the stage-1 term of the initial field overflows: run() rejects it,
        # and no RuntimeWarning comes first
        cfg = BASE.replace("init.amplitude = 1.0", "init.amplitude = 1e200")
        assert cli.main(["simulate", write_config(tmp_path / "a.cfg", cfg)]) == 1
        assert_config_error(capsys)

    @pytest.mark.parametrize("kind", ["taylor_green", "beltrami"])
    def test_overflowing_initial_field_is_named(self, tmp_path, capsys, kind):
        # |u|^2 overflows, so the grid max of |u| is inf: that is the field's
        # range, not a timestep that breaks the CFL bound
        cfg = BASE.replace("taylor_green", kind).replace(
            "init.amplitude = 1.0", "init.amplitude = 1e200"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["simulate", write_config(tmp_path / "a.cfg", cfg)]) == 1
        err = assert_config_error(capsys)
        assert kind in err and "init.amplitude = 1e+200" in err, err
        assert "stability" not in err, err
        assert not (tmp_path / "run").exists()

    def test_zero_amplitude_is_a_valid_run(self, tmp_path):
        cfg = BASE.replace("init.amplitude = 1.0", "init.amplitude = 0").replace("0.02", "0.002")
        assert cli.main(["simulate", write_config(tmp_path / "a.cfg", cfg)]) == 0

    def test_unknown_init_exits_one(self, tmp_path):
        p = write_config(tmp_path / "a.cfg", BASE.replace("taylor_green", "vortex"))
        assert cli.main(["simulate", p]) == 1

    def test_blowup_exits_two_with_partial_outputs(self, tmp_path, monkeypatch):
        p = write_config(tmp_path / "a.cfg", BASE)
        real_advance, calls = solv._advance, []

        def sabotage(config, u_kept, nl1, u_max, t):
            calls.append(t)
            if len(calls) > 5:  # the step from step 5, after its row
                raise solv.NumericalBlowup("synthetic blowup")
            return real_advance(config, u_kept, nl1, u_max, t)

        monkeypatch.setattr(solv, "_advance", sabotage)
        assert cli.main(["simulate", p]) == 2
        csv = tmp_path / "run" / "monitors.csv"
        assert csv.exists()
        assert len(csv.read_text().strip().splitlines()) == 7  # header + 6 samples
        manifest = (tmp_path / "run" / "manifest.json").read_text()
        assert '"exit_status": 2' in manifest

    def test_finite_state_with_overflowing_samples_is_one_blowup_line(
        self, tmp_path, capsys, monkeypatch
    ):
        # the step to t = 1e-3 scales the cube to a largest coefficient of
        # 1e306: the state is finite, but its |u|^2 and |u_hat|^2 overflow.
        # Its row is written with +inf and NaN columns and no warning, then
        # the CFL check on its grid max of |u| ends the run
        p = write_config(tmp_path / "a.cfg", BASE)
        real_advance = solv._advance

        def scaled(config, u_kept, nl1, u_max, t):
            new = real_advance(config, u_kept, nl1, u_max, t)
            if t == 0.0:
                new *= 1e306 / np.abs(new).max()
            return new

        monkeypatch.setattr(solv, "_advance", scaled)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["simulate", p]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert err.startswith("numerical blowup: CFL violated at t=0.001:"), err
        run = tmp_path / "run"
        _, data = cli.read_series_csv(str(run / "monitors.csv"))
        assert list(data["t"]) == [0.0, 1e-3]
        assert data["linf"][1] == math.inf
        assert json.loads((run / "manifest.json").read_text())["exit_status"] == 2

    def test_cfl_blowup_keeps_the_violating_states_row_and_snapshot(
        self, tmp_path, capsys, monkeypatch
    ):
        # the third stage-1 term, step 2's, reports a grid max of |u| that
        # breaks the CFL bound: the real check in _advance fires, after
        # step 2's monitor row and snapshot are written
        cfg = BASE.replace("snapshots.stride = 10", "snapshots.stride = 1")
        p = write_config(tmp_path / "a.cfg", cfg)
        real_half, stage_one = solv._nonlinear_half, []

        def lying_half(grid, kept, samples=True):
            out = real_half(grid, kept, samples)
            if samples:
                stage_one.append(kept)
                if len(stage_one) == 3:
                    return (out[0], 1e9, *out[2:])
            return out

        monkeypatch.setattr(solv, "_nonlinear_half", lying_half)
        assert cli.main(["simulate", p]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical blowup: CFL violated at t=0.002:"), err
        run = tmp_path / "run"
        _, data = cli.read_series_csv(str(run / "monitors.csv"))
        assert list(data["t"]) == [0.0, 1e-3, 2e-3]
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["exit_status"] == 2
        names = [f"snap_{i:08d}.bin" for i in range(3)]
        assert manifest["snapshots"] == names
        U, t = snap.read_snapshot(str(run / names[2]))
        assert t == 2e-3 and U.kept.tobytes() == stage_one[2].tobytes()

    def test_advective_bound_only_exits_one_without_outputs(self, tmp_path, capsys):
        # advective bound dx/u_max = 0.393, viscous bound 33, ceiling 0.5
        cfg = (
            BASE.replace("fluid.mu = 0.1", "fluid.mu = 0.001")
            .replace("time.dt = 1e-3", "time.dt = 0.45")
            .replace("time.t_end = 0.02", "time.t_end = 0.45")
        )
        p = write_config(tmp_path / "a.cfg", cfg)
        build_solver_config(parse_config(p))  # only the run sees the field
        assert cli.main(["simulate", p]) == 1
        assert "advective" in assert_config_error(capsys)
        assert not (tmp_path / "run").exists()

    def test_initial_field_built_once(self, tmp_path, monkeypatch):
        p = write_config(tmp_path / "a.cfg", BASE.replace("0.02", "0.002"))
        builds = count_calls(monkeypatch, "make_initial", solv)
        build_solver_config(parse_config(p))
        assert len(builds) == 0
        assert cli.main(["simulate", p]) == 0
        assert len(builds) == 1

    def test_calibration_at_another_mu_exits_one(self, calibrated_run, tmp_path, capsys):
        record = calibrated_run / "cal" / "calibration.txt"  # made at mu = 0.1
        cfg = BASE.replace("fluid.mu = 0.1", "fluid.mu = 0.05")
        p = write_config(tmp_path / "a.cfg", cfg + f"monitors.calibration = {record}\n")
        assert cli.main(["simulate", p]) == 1
        assert "mu" in assert_config_error(capsys)

    def test_calibration_without_a_monitored_pair_exits_one(
        self, calibrated_run, tmp_path, capsys
    ):
        record = criteria.CalibrationRecord.from_text(
            (calibrated_run / "cal" / "calibration.txt").read_text()
        )
        del record.entries["p6"]
        (tmp_path / "cal.txt").write_text(record.to_text(), encoding="utf-8")
        p = write_config(tmp_path / "a.cfg", BASE + "monitors.calibration = cal.txt\n")
        assert cli.main(["simulate", p]) == 1
        assert "p6_s4" in assert_config_error(capsys)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("constant", ["c_gn", "c_cal"])
    def test_calibration_with_an_infinite_constant_exits_one(
        self, calibrated_run, tmp_path, capsys, constant
    ):
        text = (calibrated_run / "cal" / "calibration.txt").read_text()
        (tmp_path / "cal.txt").write_text(with_infinite(text, constant), encoding="utf-8")
        p = write_config(tmp_path / "a.cfg", BASE + "monitors.calibration = cal.txt\n")
        assert cli.main(["simulate", p]) == 1
        assert "finite" in assert_config_error(capsys)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("damage", list(RECORD_DAMAGES))
    def test_damaged_calibration_record_exits_one(self, calibrated_run, tmp_path, capsys, damage):
        damaging, word = RECORD_DAMAGES[damage]
        text = (calibrated_run / "cal" / "calibration.txt").read_text()
        (tmp_path / "cal.txt").write_text(damaging(text), encoding="utf-8")
        p = write_config(tmp_path / "a.cfg", BASE + "monitors.calibration = cal.txt\n")
        assert cli.main(["simulate", p]) == 1
        assert word in assert_config_error(capsys)
        assert not (tmp_path / "run").exists()

    def test_empty_calibration_record_exits_one(self, tmp_path, capsys):
        (tmp_path / "empty.txt").write_text("mu = 0.1\n", encoding="utf-8")
        p = write_config(tmp_path / "a.cfg", BASE + "monitors.calibration = empty.txt\n")
        assert cli.main(["simulate", p]) == 1
        assert_config_error(capsys)

    def test_output_dir_is_a_file_exits_one(self, tmp_path, capsys):
        (tmp_path / "run").write_text("", encoding="utf-8")
        p = write_config(tmp_path / "a.cfg", BASE)
        assert cli.main(["simulate", p]) == 1
        assert_output_error(capsys, tmp_path / "run")


def with_infinite(record_text, constant):
    """A calibration record's text with its p6 ``constant`` set to inf."""
    out, count = re.subn(
        rf"^p6\.{constant} = .*$", f"p6.{constant} = inf", record_text, flags=re.M
    )
    assert count == 1
    return out


@pytest.fixture(scope="module")
def calibrated_run(tmp_path_factory):
    """A small calibrated reference run shared by verify/report tests."""
    root = tmp_path_factory.mktemp("cal_run")
    cal_cfg = write_config(
        root / "cal.cfg",
        """
grid.n = 16
fluid.mu = 0.1
init.spectrum_slope = -2.0
calibration.seeds = 0..4
calibration.p = 4,5,6,inf
output.dir = cal
""",
    )
    assert cli.main(["calibrate", cal_cfg]) == 0
    sim_cfg = write_config(
        root / "sim.cfg",
        """
grid.n = 16
fluid.mu = 0.1
time.dt = 1e-3
time.t_end = 0.05
init.kind = random_divfree
init.seed = 11
init.spectrum_slope = -2.0
init.amplitude = 1.0
monitors.pairs = 4:8,5:5,6:4,inf:2
monitors.calibration = cal/calibration.txt
snapshots.stride = 25
output.dir = run
""",
    )
    assert cli.main(["simulate", sim_cfg]) == 0
    return root


class TestCalibrate:
    def test_deterministic_record(self, tmp_path):
        cfg = """
grid.n = 16
fluid.mu = 0.1
calibration.seeds = 0..2
calibration.p = 6,inf
output.dir = out{i}
"""
        p1 = write_config(tmp_path / "c1.cfg", cfg.format(i=1))
        p2 = write_config(tmp_path / "c2.cfg", cfg.format(i=2))
        assert cli.main(["calibrate", p1]) == 0
        assert cli.main(["calibrate", p2]) == 0
        b1 = (tmp_path / "out1" / "calibration.txt").read_bytes()
        b2 = (tmp_path / "out2" / "calibration.txt").read_bytes()
        assert b1 == b2

    def test_infinite_p_entry_is_two(self, tmp_path):
        p = write_config(
            tmp_path / "c.cfg",
            "grid.n = 16\nfluid.mu = 0.1\ncalibration.seeds = 0..1\n"
            "calibration.p = inf\noutput.dir = out\n",
        )
        assert cli.main(["calibrate", p]) == 0
        text = (tmp_path / "out" / "calibration.txt").read_text()
        c_gn = [l for l in text.splitlines() if l.startswith("pinf.c_gn")][0]
        assert float(c_gn.split("=")[1]) == pytest.approx(2.0, rel=1e-9)

    def test_empty_corpus_exits_one(self, tmp_path):
        p = write_config(
            tmp_path / "c.cfg",
            "grid.n = 16\nfluid.mu = 0.1\ncalibration.seeds = \n"
            "calibration.p = 6\noutput.dir = out\n",
        )
        assert cli.main(["calibrate", p]) == 1

    def test_constant_out_of_float_range_exits_one(self, tmp_path, capsys):
        # c_cal at p = 3.01 overflows a double
        p = write_config(
            tmp_path / "c.cfg",
            "grid.n = 16\nfluid.mu = 0.1\ncalibration.seeds = 0..2\n"
            "calibration.p = 6,3.01\noutput.dir = out\n",
        )
        assert cli.main(["calibrate", p]) == 1
        assert "p = 3.01" in assert_config_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("grid.n = 16", "grid.n = 15"),
            ("fluid.mu = 0.1", "fluid.mu = 0"),
            ("fluid.mu = 0.1", "fluid.mu = -1"),
            ("calibration.p = 6", "calibration.p = 2"),
            ("calibration.p = 6", "calibration.p = 4,x"),
            ("grid.n = 16", "grid.n = 16\ngrid.length = inf"),
            ("calibration.seeds = 0..1", "calibration.seeds = -2..-1"),
            ("calibration.seeds = 0..1", "calibration.seeds = 3,-1"),
            ("fluid.mu = 0.1", "fluid.mu = 0.1\ninit.amplitude = 0"),
            ("fluid.mu = 0.1", "fluid.mu = 0.1\ninit.amplitude = nan"),
            ("fluid.mu = 0.1", "fluid.mu = 0.1\ninit.spectrum_slope = nan"),
        ],
    )
    def test_bad_input_exits_one(self, tmp_path, capsys, old, new):
        cfg = (
            "grid.n = 16\nfluid.mu = 0.1\ncalibration.seeds = 0..1\n"
            "calibration.p = 6\noutput.dir = out\n"
        )
        p = write_config(tmp_path / "c.cfg", cfg.replace(old, new))
        assert cli.main(["calibrate", p]) == 1
        assert_config_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "init", ["init.spectrum_slope = 400", "init.amplitude = 1e300"]
    )
    def test_initial_field_out_of_range_exits_one(self, tmp_path, capsys, init):
        p = write_config(
            tmp_path / "c.cfg",
            f"grid.n = 16\nfluid.mu = 0.1\ncalibration.seeds = 0..1\n"
            f"calibration.p = 6\noutput.dir = out\n{init}\n",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["calibrate", p]) == 1
        assert "random_divfree" in assert_config_error(capsys)
        assert not (tmp_path / "out").exists()

    def test_output_dir_is_a_file_exits_one(self, tmp_path, capsys):
        (tmp_path / "out").write_text("", encoding="utf-8")
        p = write_config(
            tmp_path / "c.cfg",
            "grid.n = 16\nfluid.mu = 0.1\ncalibration.seeds = 0..1\n"
            "calibration.p = 6\noutput.dir = out\n",
        )
        assert cli.main(["calibrate", p]) == 1
        assert_output_error(capsys, tmp_path / "out")

    def test_memory_does_not_grow_with_the_corpus(self, tmp_path):
        """The 8-field corpus peaks less than one corpus field above the
        2-field one, so no field outlives its ratios."""
        field_bytes = 3 * 11 * 11 * 6 * 16  # one n = 16 corpus field: its kept modes, complex128

        def peak(seeds):
            cfg = write_config(
                tmp_path / f"c{seeds}.cfg",
                f"grid.n = 16\nfluid.mu = 0.1\ncalibration.seeds = 0..{seeds - 1}\n"
                f"calibration.p = 5,6\noutput.dir = out{seeds}\n",
            )
            codes = []
            peak = reference.traced_peak(lambda: codes.append(cli.main(["calibrate", cfg])))
            assert codes == [0]
            return peak

        peak(2)  # first-call allocations (imports, caches) land here
        assert peak(8) - peak(2) < field_bytes


class TestVerify:
    def test_verify_passes_on_fresh_run(self, calibrated_run):
        rundir = str(calibrated_run / "run")
        assert cli.main(["verify", rundir]) == 0
        report = (calibrated_run / "run" / "verify_report.txt").read_text()
        assert "energy_law: PASS" in report
        assert "derived_columns: PASS (worst=0," in report
        assert "gronwall_dominance" in report
        # at t = 0 the bound equals the measured value, so the margin is
        # taken from sample 1 on
        margins = re.findall(r"^gronwall_dominance_\S+: PASS \(worst=([^,]+),", report, re.M)
        assert len(margins) == 4 and all(float(m) > 0.0 for m in margins), report

    def test_missing_artifacts_exit_one(self, tmp_path):
        assert cli.main(["verify", str(tmp_path)]) == 1

    def test_snapshot_residual_is_the_csv_residual(self, tmp_path):
        # a snapshot holds the state simulate stepped, so verify's identity
        # residual of each snapshot is the CSV's of that step bit for bit
        cfg = BASE.replace(
            "init.kind = taylor_green", "init.kind = random_divfree\ninit.seed = 3"
        ).replace("snapshots.stride = 10", "snapshots.stride = 1")
        assert cli.main(["simulate", write_config(tmp_path / "rd.cfg", cfg)]) == 0
        run = cli._load_run(str(tmp_path / "run"))
        csv = run.series.column("identity_residual")
        assert len(run.snap_paths) == len(csv) == 21
        for path in run.snap_paths:
            step = int(os.path.basename(path)[len("snap_") : -len(".bin")])
            residual = cli._snapshot_checks(path, run.grid, run.mu, [6.0])[0]
            assert residual > 0.0 and residual.hex() == float(csv[step]).hex(), step

    def test_corrupted_snapshot_fails_identity(self, calibrated_run, tmp_path):
        import shutil

        src = calibrated_run / "run"
        dst = tmp_path / "corrupt"
        shutil.copytree(src, dst)
        import json

        manifest = json.loads((dst / "manifest.json").read_text())
        victim = dst / manifest["snapshots"][-1]
        from regcrit import snapshot as snap

        state, t = snap.read_snapshot(victim)
        state.kept[2] *= -1.0  # flip the sign of one component
        snap.write_snapshot(victim, state, t)
        assert cli.main(["verify", str(dst)]) == 3
        report = (dst / "verify_report.txt").read_text()
        assert "identity_snapshots: FAIL" in report


def rewrite_snapshot_header(rundir, index, change):
    """Update the header of the run's ``index``-th snapshot with ``change``."""
    victim = rundir / json.loads((rundir / "manifest.json").read_text())["snapshots"][index]
    header, _, payload = victim.read_bytes().partition(b"\n")
    head = dict(json.loads(header), **change)
    victim.write_bytes(json.dumps(head).encode() + b"\n" + payload)


def damaged_copy(calibrated_run, tmp_path):
    import shutil

    dst = tmp_path / "damaged"
    shutil.copytree(calibrated_run / "run", dst)
    return dst


def damage_csv_value(csv, column, value):
    """Set ``column`` of the monitor CSV's sample 9 to the text ``value``: a
    sample after t = 0, where the Gronwall bound is not the measured value."""
    lines = csv.read_text().splitlines()
    row = lines[10].split(",")
    row[lines[0].split(",").index(column)] = value
    lines[10] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")


def assert_one_stderr_line(capsys):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err


def assert_config_error(capsys):
    """Check that stderr is one ``config error:`` line, and return it."""
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith("config error:"), err
    return err


def assert_output_error(capsys, path):
    """Check that stderr is one ``output error:`` line naming ``path``."""
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith("output error:"), err
    assert str(path) in err, err


def assert_damaged_run(capsys):
    """Check that stderr is one ``damaged run directory:`` line, and return it."""
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith("damaged run directory:"), err
    return err


def nan_sample(victim):
    """A NaN in the last 8 bytes, the imaginary part of u3's coefficient at
    the last index of the compact cube: every sample of u3 is then NaN."""
    raw = bytearray(victim.read_bytes())
    raw[-8:] = np.array([np.nan], dtype="<f8").tobytes()
    victim.write_bytes(bytes(raw))


def scale_by_1e160(victim):
    """A finite state whose identity, Hoelder bound and pressure overflow."""
    state, t = snap.read_snapshot(victim)
    state.kept[...] *= 1e160
    snap.write_snapshot(victim, state, t)


def sample_layout(victim):
    """The snapshot as it was written before snapshots held the state: the
    state's grid samples, x index fastest, under a header with no layout."""
    state, t = snap.read_snapshot(victim)
    samples = spectral.to_physical(state).values
    victim.write_bytes(
        snap._header(state.grid, t, "u1,u2,u3")
        + b"".join(map(reference.snapshot_payload, samples))
    )


def cut_last_sample(victim):
    victim.write_bytes(victim.read_bytes()[:-8])


def snapshot_path(rundir, index):
    return rundir / json.loads((rundir / "manifest.json").read_text())["snapshots"][index]


def swap_sobolev_names(lines):
    cols = lines[0].split(",")
    i, j = cols.index("sobolev1"), cols.index("sobolev2")
    cols[i], cols[j] = cols[j], cols[i]
    lines[0] = ",".join(cols)


def extra_energy_column(lines):
    lines[:] = [lines[0] + ",energy"] + [line + ",0" for line in lines[1:]]


def damage_header(csv, damage):
    """Rewrite the monitor CSV's lines with ``damage``."""
    lines = csv.read_text().splitlines()
    damage(lines)
    csv.write_text("\n".join(lines) + "\n")


HEADER_DAMAGES = [swap_sobolev_names, extra_energy_column]


def set_manifest_calibration(rundir, value):
    import json

    path = rundir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["calibration"] = value
    path.write_text(json.dumps(manifest), encoding="utf-8")


class TestVerifyDamaged:
    def test_malformed_manifest_exits_one(self, calibrated_run, tmp_path, capsys):
        dst = damaged_copy(calibrated_run, tmp_path)
        (dst / "manifest.json").write_text('{"config": ', encoding="utf-8")
        assert cli.main(["verify", str(dst)]) == 1
        assert_one_stderr_line(capsys)

    def test_csv_missing_column_exits_one(self, calibrated_run, tmp_path, capsys):
        dst = damaged_copy(calibrated_run, tmp_path)
        csv = dst / "monitors.csv"
        lines = csv.read_text().splitlines()
        lines[0] = lines[0].replace("sobolev1", "sobolev_one")
        csv.write_text("\n".join(lines) + "\n")
        assert cli.main(["verify", str(dst)]) == 1
        assert_one_stderr_line(capsys)

    @pytest.mark.parametrize("damage", HEADER_DAMAGES)
    def test_csv_header_not_the_monitor_columns_exits_one(
        self, calibrated_run, tmp_path, capsys, damage
    ):
        dst = damaged_copy(calibrated_run, tmp_path)
        damage_header(dst / "monitors.csv", damage)
        (dst / "verify_report.txt").unlink(missing_ok=True)  # left by earlier tests
        assert cli.main(["verify", str(dst)]) == 1
        assert_one_stderr_line(capsys)
        assert not (dst / "verify_report.txt").exists()

    @pytest.mark.parametrize(
        "calibration",
        [
            # the manifest layout that stored the record as a JSON object
            {"mu": 0.1, "corpus": "", "entries": {"p6": {"p": "6", "c_gn": 1.0, "c_cal": 1.0}}},
            "mu = 0.1\np6.c_gn = 1.0\n",
            "not a record",
            7,
        ],
    )
    def test_calibration_not_a_record_text_exits_one(
        self, calibrated_run, tmp_path, capsys, calibration
    ):
        dst = damaged_copy(calibrated_run, tmp_path)
        set_manifest_calibration(dst, calibration)
        assert cli.main(["verify", str(dst)]) == 1
        assert_one_stderr_line(capsys)

    def test_snapshot_header_size_mismatch_exits_one(self, calibrated_run, tmp_path, capsys):
        import json

        dst = damaged_copy(calibrated_run, tmp_path)
        victim = dst / json.loads((dst / "manifest.json").read_text())["snapshots"][0]
        raw = victim.read_bytes()
        header, _, payload = raw.partition(b"\n")
        head = json.loads(header)
        head["n"] = 1 << 20  # implies a payload of 2.6e19 bytes
        victim.write_bytes(json.dumps(head).encode() + b"\n" + payload)
        assert cli.main(["verify", str(dst)]) == 1
        assert_one_stderr_line(capsys)

    @pytest.mark.parametrize(
        "change", [{"length": math.inf}, {"n": 16.7}, {"length": 2.0}]
    )
    def test_snapshot_off_the_run_grid_exits_one(self, calibrated_run, tmp_path, capsys, change):
        # a 2pi run; the payload still holds 16^3 samples per component
        dst = damaged_copy(calibrated_run, tmp_path)
        rewrite_snapshot_header(dst, 0, change)
        assert cli.main(["verify", str(dst)]) == 1
        assert_damaged_run(capsys)

    @pytest.mark.parametrize("command", [["verify"], ["report", "--pressure"]])
    def test_sample_layout_snapshot_exits_one(self, calibrated_run, tmp_path, capsys, command):
        # a snapshot of grid samples, as written before snapshots held the state
        dst = damaged_copy(calibrated_run, tmp_path)
        sample_layout(snapshot_path(dst, 0))
        assert cli.main([command[0], str(dst), *command[1:]]) == 1
        assert "layout None" in assert_damaged_run(capsys)

    def test_non_finite_snapshot_fails_identity(self, calibrated_run, tmp_path, capsys):
        for damage in (nan_sample, scale_by_1e160):
            dst = damaged_copy(calibrated_run, tmp_path / damage.__name__)
            damage(snapshot_path(dst, -1))
            assert cli.main(["verify", str(dst)]) == 3
            assert_one_stderr_line(capsys)
            report = (dst / "verify_report.txt").read_text()
            assert "identity_snapshots: FAIL" in report
        # the residual and the margin of the scaled snapshot are NaN, and a
        # NaN fails its check
        assert "identity_snapshots: FAIL (worst=nan," in report
        assert "holder_snapshots: FAIL (worst=nan," in report

    @pytest.mark.parametrize(
        "column, value, failed",
        [
            ("sobolev2", "1e160", "gronwall_dominance_p6_s4: FAIL (worst=-inf,"),
            ("sobolev3", "1e160", "growth_inequality_p6_s4: FAIL (worst=-inf,"),
            ("sobolev1", "1e200", "energy_law: FAIL (worst=inf,"),
            ("lp_p6_s4", "nan", "growth_inequality_p6_s4: FAIL (worst=nan,"),
            ("linf", "-5", "growth_inequality_p6_s4: FAIL (worst=nan,"),
            ("identity_residual", "-5", "identity_series: FAIL (worst=5,"),
            ("gronwall_bound", "nan", "derived_columns: FAIL (worst=nan,"),
            ("serrin_int_p6_s4", "inf", "derived_columns: FAIL (worst=inf,"),
            ("bkm_int", "0", "derived_columns: FAIL (worst=1,"),
            ("embed_ratio", "nan", "derived_columns: FAIL (worst=nan,"),
            ("log_serrin_p6_s4", "0", "derived_columns: FAIL (worst=1,"),
        ],
    )
    def test_damaged_csv_value_fails_its_check(
        self, calibrated_run, tmp_path, capsys, column, value, failed
    ):
        dst = damaged_copy(calibrated_run, tmp_path)
        damage_csv_value(dst / "monitors.csv", column, value)
        assert cli.main(["verify", str(dst)]) == 3
        assert_one_stderr_line(capsys)
        assert failed in (dst / "verify_report.txt").read_text()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-5", "1e308"])
    def test_every_damaged_csv_value_ends_in_an_exit_code(
        self, calibrated_run, tmp_path, capsys, value
    ):
        # without snapshots, verify reads only the manifest and the CSV
        dst = damaged_copy(calibrated_run, tmp_path)
        manifest = json.loads((dst / "manifest.json").read_text())
        (dst / "manifest.json").write_text(json.dumps(dict(manifest, snapshots=[])))
        csv = dst / "monitors.csv"
        intact = csv.read_text()
        for column in intact.splitlines()[0].split(","):
            csv.write_text(intact)
            damage_csv_value(csv, column, value)
            code = cli.main(["verify", str(dst)])
            # a damaged time is a damaged run directory when the times stop
            # increasing; every other value is a check's to pass or fail
            assert code in ((1, 3) if column == "t" else (0, 3)), column
            err = capsys.readouterr().err
            assert len(err.splitlines()) <= 1, (column, err)
            # a running integral or the Gronwall bound, or an integrand of
            # either, no longer matches the columns verify re-derives
            if column in DERIVED_COLUMNS or column.startswith(("serrin_", "log_serrin_")):
                assert code == 3, column
                report = (dst / "verify_report.txt").read_text()
                assert "derived_columns: FAIL" in report, column
            # a norm column must not be NaN or negative; +inf is overflow
            if column in NORM_COLUMNS or column.startswith("lp_"):
                if value in ("nan", "-inf", "-5"):
                    assert code == 3, column
                    report = (dst / "verify_report.txt").read_text()
                    assert f"monitor_domain: FAIL (worst={value}," in report, column
                    assert f"[margin = min({column})]" in report, column


class TestReport:
    def test_series_files_and_summary(self, calibrated_run):
        rundir = str(calibrated_run / "run")
        assert cli.main(["report", rundir]) == 0
        rep = calibrated_run / "run" / "report"
        for name in (
            "energy",
            "bkm",
            "chan_vasseur",
            "serrin_p6_s4",
            "log_serrin_p6_s4",
            "gronwall_bound",
        ):
            f = rep / f"{name}.dat"
            assert f.exists()
            first = f.read_text().splitlines()[0].split()
            assert len(first) == 2
        assert (rep / "summary.txt").exists()

    def test_empty_rundir_exits_one(self, tmp_path):
        assert cli.main(["report", str(tmp_path)]) == 1

    def test_log_improved_at_most_half_when_field_is_large(self, tmp_path):
        # amplitude keeps ||u||_inf above e^2 - e for the whole run, so the
        # log-improved integral is at most a third of the classical one
        amp = (math.e**2 - math.e) * math.exp(2 * 0.1 * 0.05) * 1.01
        cfg = f"""
grid.n = 16
fluid.mu = 0.1
time.dt = 1e-3
time.t_end = 0.05
init.kind = taylor_green
init.amplitude = {amp}
monitors.pairs = 5:5
snapshots.stride = 50
output.dir = big
"""
        p = write_config(tmp_path / "big.cfg", cfg)
        assert cli.main(["simulate", p]) == 0
        assert cli.main(["report", str(tmp_path / "big")]) == 0
        summary = (tmp_path / "big" / "report" / "summary.txt").read_text()
        row = summary.splitlines()[1].split()
        classical, logged = float(row[1]), float(row[2])
        assert logged <= classical / 2.0

    def test_pressure_snapshots(self, calibrated_run):
        rundir = str(calibrated_run / "run")
        assert cli.main(["report", rundir, "--pressure"]) == 0
        rep = calibrated_run / "run" / "report"
        assert any(f.name.startswith("pressure_") for f in rep.iterdir())


def set_manifest_mu(rundir, mu):
    path = rundir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["mu"] = mu
    path.write_text(json.dumps(manifest), encoding="utf-8")


class TestRunRecordChecks:
    @pytest.mark.parametrize("command", [["verify"], ["report", "--pressure"]])
    def test_float_grid_size_exits_one(self, calibrated_run, tmp_path, capsys, command):
        dst = damaged_copy(calibrated_run, tmp_path)
        manifest = json.loads((dst / "manifest.json").read_text())
        (dst / "manifest.json").write_text(json.dumps(dict(manifest, grid_n=16.0)))
        assert cli.main([command[0], str(dst), *command[1:]]) == 1
        assert "not an integer" in assert_damaged_run(capsys)

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_record_at_another_mu_exits_one(self, calibrated_run, tmp_path, capsys, command):
        dst = damaged_copy(calibrated_run, tmp_path)
        set_manifest_mu(dst, 0.05)  # the record says mu = 0.1
        assert cli.main([command, str(dst)]) == 1
        assert_one_stderr_line(capsys)

    @pytest.mark.parametrize("command", ["verify", "report"])
    def test_record_without_entries_exits_one(self, calibrated_run, tmp_path, capsys, command):
        dst = damaged_copy(calibrated_run, tmp_path)
        set_manifest_calibration(dst, "mu = 0.1\n")
        assert cli.main([command, str(dst)]) == 1
        assert_one_stderr_line(capsys)


    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("damage", list(RECORD_DAMAGES))
    def test_damaged_record_exits_one(self, calibrated_run, tmp_path, capsys, command, damage):
        dst = damaged_copy(calibrated_run, tmp_path)
        damaging, word = RECORD_DAMAGES[damage]
        text = json.loads((dst / "manifest.json").read_text())["calibration"]
        set_manifest_calibration(dst, damaging(text))
        assert cli.main([command, str(dst)]) == 1
        assert word in assert_damaged_run(capsys)

    @pytest.mark.parametrize("command", ["verify", "report"])
    @pytest.mark.parametrize("constant", ["c_gn", "c_cal"])
    def test_record_with_an_infinite_constant_exits_one(
        self, calibrated_run, tmp_path, capsys, command, constant
    ):
        dst = damaged_copy(calibrated_run, tmp_path)
        text = json.loads((dst / "manifest.json").read_text())["calibration"]
        set_manifest_calibration(dst, with_infinite(text, constant))
        assert cli.main([command, str(dst)]) == 1
        assert_damaged_run(capsys)

    def test_record_without_a_monitored_pair_fails(self, calibrated_run, tmp_path, capsys):
        dst = damaged_copy(calibrated_run, tmp_path)
        manifest = json.loads((dst / "manifest.json").read_text())
        text = manifest["calibration"]
        kept = [line for line in text.splitlines() if not line.startswith("p6.")]
        set_manifest_calibration(dst, "\n".join(kept) + "\n")
        assert cli.main(["verify", str(dst)]) == 3
        report = (dst / "verify_report.txt").read_text()
        assert "growth_inequality_p6_s4: FAIL" in report
        assert "growth_inequality_p5_s5: PASS" in report
        assert "growth_inequality_p6_s4" in capsys.readouterr().err


class TestReportDamaged:
    def test_csv_header_only_exits_one(self, calibrated_run, tmp_path, capsys):
        dst = damaged_copy(calibrated_run, tmp_path)
        csv = dst / "monitors.csv"
        csv.write_text(csv.read_text().splitlines()[0] + "\n")
        assert cli.main(["report", str(dst)]) == 1
        assert_one_stderr_line(capsys)

    def test_csv_missing_column_exits_one(self, calibrated_run, tmp_path, capsys):
        dst = damaged_copy(calibrated_run, tmp_path)
        csv = dst / "monitors.csv"
        lines = csv.read_text().splitlines()
        lines[0] = lines[0].replace("serrin_int_p6_s4", "serrin_integral_p6_s4")
        csv.write_text("\n".join(lines) + "\n")
        assert cli.main(["report", str(dst)]) == 1
        assert_one_stderr_line(capsys)

    def test_malformed_manifest_exits_one(self, calibrated_run, tmp_path, capsys):
        dst = damaged_copy(calibrated_run, tmp_path)
        (dst / "manifest.json").write_text('{"config": ', encoding="utf-8")
        assert cli.main(["report", str(dst)]) == 1
        assert_one_stderr_line(capsys)

    @pytest.mark.parametrize("damage", HEADER_DAMAGES)
    def test_csv_header_not_the_monitor_columns_exits_one(
        self, calibrated_run, tmp_path, capsys, damage
    ):
        dst = damaged_copy(calibrated_run, tmp_path)
        damage_header(dst / "monitors.csv", damage)
        shutil.rmtree(dst / "report", ignore_errors=True)  # left by earlier tests
        assert cli.main(["report", str(dst)]) == 1
        assert_one_stderr_line(capsys)
        assert not (dst / "report").exists()

    @pytest.mark.parametrize("change", [{"n": 16.7}, {"length": 2.0}])
    def test_snapshot_off_the_run_grid_with_pressure_exits_one(
        self, calibrated_run, tmp_path, capsys, change
    ):
        dst = damaged_copy(calibrated_run, tmp_path)
        rewrite_snapshot_header(dst, -1, change)
        assert cli.main(["report", str(dst), "--pressure"]) == 1
        assert_damaged_run(capsys)

    def test_report_entry_is_a_file_exits_one(self, calibrated_run, tmp_path, capsys):
        dst = damaged_copy(calibrated_run, tmp_path)
        shutil.rmtree(dst / "report", ignore_errors=True)  # left by earlier tests
        (dst / "report").write_text("", encoding="utf-8")
        assert cli.main(["report", str(dst)]) == 1
        assert_output_error(capsys, dst / "report")

    def test_damaged_snapshot_with_pressure_exits_one(self, calibrated_run, tmp_path, capsys):
        for damage in (cut_last_sample, nan_sample, scale_by_1e160):
            dst = damaged_copy(calibrated_run, tmp_path / damage.__name__)
            victim = snapshot_path(dst, 0)
            damage(victim)
            assert cli.main(["report", str(dst), "--pressure"]) == 1
            assert victim.name in assert_damaged_run(capsys)


def count_calls(monkeypatch, name, *modules):
    """Wrap ``name`` in every given module with one shared call counter."""
    calls = []

    def counting(inner):
        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        return counted

    for module in modules:
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return calls


class TestSharedQuadrature:
    def test_verify_builds_one_table_per_snapshot(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path / "sim.cfg",
            BASE.replace("monitors.pairs = 4:8,5:5,6:4,inf:2", "monitors.pairs = 6:4, 5:5")
            .replace("time.t_end = 0.02", "time.t_end = 0.01"),
        )
        assert cli.main(["simulate", cfg]) == 0
        manifest = cli.RunManifest.from_json((tmp_path / "run" / "manifest.json").read_text())
        assert len(manifest.snapshots) == 2
        quads = count_calls(monkeypatch, "hessian_quadrature", criteria)
        builds = count_calls(monkeypatch, "derivative_slabs", criteria)
        assert cli.main(["verify", str(tmp_path / "run")]) == 0
        assert len(quads) == 2
        assert len(builds) == 2

    @pytest.mark.parametrize("pairs", ["6:4", "4:8,5:5,6:4,inf:2"])
    def test_verify_forms_one_magnitude_per_snapshot(self, tmp_path, monkeypatch, pairs):
        cfg = write_config(
            tmp_path / "sim.cfg",
            BASE.replace("monitors.pairs = 4:8,5:5,6:4,inf:2", f"monitors.pairs = {pairs}")
            .replace("time.t_end = 0.02", "time.t_end = 0.01"),
        )
        assert cli.main(["simulate", cfg]) == 0
        manifest = cli.RunManifest.from_json((tmp_path / "run" / "manifest.json").read_text())
        calls = []
        magnitude = spectral.VelocityField.magnitude

        def counted(field):
            calls.append(1)
            return magnitude(field)

        monkeypatch.setattr(spectral.VelocityField, "magnitude", counted)
        cli.run_checks(str(tmp_path / "run"))
        assert len(calls) == len(manifest.snapshots) == 2

    def test_each_state_reads_its_seminorms_once(self, tmp_path, monkeypatch):
        # calibrate takes ||grad^2 u|| and ||grad^3 u|| once per field and
        # verify ||grad^3 u|| once per snapshot, whatever the exponents
        fields = 3
        cal = write_config(
            tmp_path / "cal.cfg",
            f"grid.n = 16\nfluid.mu = 0.1\ncalibration.seeds = 0..{fields - 1}\n"
            "calibration.p = 4,5,6,inf\noutput.dir = out\n",
        )
        sim = write_config(tmp_path / "sim.cfg", BASE.replace("0.02", "0.01"))
        assert cli.main(["simulate", sim]) == 0
        calls = count_calls(monkeypatch, "sobolev_seminorm", norms)
        assert cli.main(["calibrate", cal]) == 0
        assert len(calls) == 2 * fields
        calls.clear()
        cli.run_checks(str(tmp_path / "run"))
        assert len(calls) == 2  # two snapshots, four exponents

    def test_verify_holds_one_snapshot_at_a_time(self, tmp_path):
        # verify's loop holds |u|, the state and its right-hand side, and
        # the grid's 4 powers of |k|^2 (``Grid.sobolev_weights``); its peak
        # is the right-hand side's kernel, whose slab buffers outweigh the
        # quadrature's 9-field x-pass table.  Measured at n = 32: 19.5
        # fields (5.1 MB).  The old loop also held the snapshot's samples
        # (3 fields), the last snapshot's |grad^2 u| and |u|, and a second
        # set of grid tables; with the 27-field x-pass table verify
        # peaked at 23.0 fields, in the quadrature
        n = 32
        text = (
            BASE.replace("grid.n = 16", f"grid.n = {n}")
            .replace("init.kind = taylor_green", "init.kind = random_divfree\ninit.seed = 1")
        )
        assert cli.main(["simulate", write_config(tmp_path / "sim.cfg", text)]) == 0
        rundir = str(tmp_path / "run")
        manifest = cli.RunManifest.from_json((tmp_path / "run" / "manifest.json").read_text())
        assert len(manifest.snapshots) == 3
        cli.run_checks(rundir)  # FFT plans of the first call
        assert reference.traced_peak(cli.run_checks, rundir) <= 20 * 8 * n**3

    def test_calibrate_builds_one_hessian_per_field(self, tmp_path, monkeypatch):
        k = 3
        cfg = write_config(
            tmp_path / "cal.cfg",
            f"grid.n = 16\nfluid.mu = 0.1\ncalibration.seeds = 0..{k - 1}\n"
            "calibration.p = 5,6\noutput.dir = out\n",
        )
        builds = count_calls(monkeypatch, "derivative_slabs", criteria)
        assert cli.main(["calibrate", cfg]) == 0
        assert len(builds) == k


class TestMonitorTable:
    def test_loaded_run_rewrites_csv_byte_for_byte(self, calibrated_run, tmp_path):
        rundir = calibrated_run / "run"
        out = tmp_path / "rewritten.csv"
        cli.write_series_csv(str(out), cli._load_run(str(rundir)).series)
        assert out.read_bytes() == (rundir / "monitors.csv").read_bytes()


class TestManifest:
    def test_round_trip(self, calibrated_run):
        text = (calibrated_run / "run" / "manifest.json").read_text()
        m = cli.RunManifest.from_json(text)
        assert m.to_json() == text.strip()
        pairs = m.serrin_pairs()
        assert pairs[-1].p == math.inf
        rec = criteria.CalibrationRecord.from_text(m.calibration)
        assert rec is not None and rec.for_p(6.0).c_cal > 0


#: the monitor columns that hold a norm, besides the lp_* columns
NORM_COLUMNS = ("energy", "linf", "sobolev1", "sobolev2", "sobolev3", "bkm", "chan_vasseur")

#: the columns verify re-derives or reads to re-derive them, besides the
#: serrin_* and log_serrin_* columns (integrands and integrals)
DERIVED_COLUMNS = (
    "bkm", "bkm_int", "chan_vasseur", "chan_vasseur_int", "gronwall_bound", "embed_ratio"
)


class RealTransformsOnly:
    """Stands in for ``numpy.fft`` inside ``regcrit.spectral``, exposing only
    the pruned 1-D passes of the two transform routes.  The n-D calls stay
    hidden: the full-cube ``fftn`` and ``ifftn``, and the full real
    ``rfftn`` and ``irfftn``, so every transform a command runs is pruned to
    the kept modes."""

    def __init__(self, module):
        self.rfft = module.rfft
        self.irfft = module.irfft
        self.fft = module.fft
        self.ifft = module.ifft


class TestSingleRepresentation:
    def test_commands_run_on_the_half_spectrum_only(self, tmp_path, monkeypatch):
        monkeypatch.setattr(spectral, "_fft", RealTransformsOnly(spectral._fft))
        cal = write_config(
            tmp_path / "cal.cfg",
            "grid.n = 16\nfluid.mu = 0.1\ncalibration.seeds = 0..1\n"
            "calibration.p = 6\noutput.dir = cal\n",
        )
        sim = write_config(
            tmp_path / "sim.cfg",
            BASE.replace("taylor_green", "random_divfree")
            .replace("monitors.pairs = 4:8,5:5,6:4,inf:2", "monitors.pairs = 6:4")
            + "monitors.calibration = cal/calibration.txt\n",
        )
        rundir = str(tmp_path / "run")
        assert cli.main(["calibrate", cal]) == 0
        assert cli.main(["simulate", sim]) == 0
        assert cli.main(["verify", rundir]) == 0
        assert cli.main(["report", rundir, "--pressure"]) == 0
        report = os.listdir(tmp_path / "run" / "report")
        assert any(name.startswith("pressure_") for name in report)


def run_python(script, *args):
    """Standard output of ``script`` run by a fresh interpreter on this
    checkout's ``regcrit``, as each command runs."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    return done.stdout


#: what a command may import that ``import regcrit.cli`` has not: argparse's
#: gettext imports ``locale`` (and its C part) on the first message it looks up
COMMAND_IMPORTS = {"locale", "_locale"}


class TestImports:
    """Every command is a fresh process, so what it imports is set-up time:
    the package imports no scipy, and everything a command needs is
    imported with ``regcrit.cli``, not inside the command."""

    def test_cli_imports_no_scipy(self):
        out = run_python(
            "import sys\nimport regcrit.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert out.strip() == "[]"

    def test_commands_import_nothing_new(self, tmp_path):
        cal = write_config(
            tmp_path / "cal.cfg",
            "grid.n = 16\nfluid.mu = 0.1\ncalibration.seeds = 0..1\n"
            "calibration.p = 6\noutput.dir = cal\n",
        )
        sim = write_config(
            tmp_path / "sim.cfg",
            BASE.replace("taylor_green", "random_divfree")
            .replace("monitors.pairs = 4:8,5:5,6:4,inf:2", "monitors.pairs = 6:4")
            .replace("time.t_end = 0.02", "time.t_end = 0.003")
            .replace("snapshots.stride = 10", "snapshots.stride = 1")
            + "monitors.calibration = cal/calibration.txt\n",
        )
        script = (
            "import json, os, sys\n"
            "from regcrit import cli\n"
            "os.chdir(sys.argv[1])\n"
            "seen = set(sys.modules)\n"
            "for argv in (['calibrate', sys.argv[2]], ['simulate', sys.argv[3]],\n"
            "             ['verify', 'run']):\n"
            "    code = cli.main(argv)\n"
            "    new = sorted(set(sys.modules) - seen)\n"
            "    seen.update(new)\n"
            "    print(json.dumps([argv[0], code, new]))\n"
        )
        lines = run_python(script, str(tmp_path), cal, sim).splitlines()
        reports = [json.loads(line) for line in lines if line.startswith('["')]
        assert [r[:2] for r in reports] == [["calibrate", 0], ["simulate", 0], ["verify", 0]]
        for command, _, new in reports:
            assert set(new) <= COMMAND_IMPORTS, command
