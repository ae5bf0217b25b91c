"""Config parsing and the four CLI subcommands, including the exit-code
contract and the CSV schema."""

import math
import os

import numpy as np
import pytest

from regcrit import cli
from regcrit import solver as solv
from regcrit.config import ConfigError, parse_config, parse_pairs, parse_seed_list
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

    def test_duplicate_key_rejected(self, tmp_path):
        p = write_config(tmp_path / "a.cfg", "grid.n = 16\ngrid.n = 8\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(p)

    def test_pairs_inf_accepted(self):
        pairs = parse_pairs("6:4, inf:2")
        assert pairs == (SerrinPair(6.0, 4.0), SerrinPair(math.inf, 2.0))

    def test_pairs_malformed_rejected(self):
        with pytest.raises(ConfigError):
            parse_pairs("6")
        with pytest.raises(ConfigError):
            parse_pairs("3:10")

    def test_seed_range_and_list(self):
        assert parse_seed_list("0..3") == (0, 1, 2, 3)
        assert parse_seed_list("5, 9, 2") == (5, 9, 2)
        with pytest.raises(ConfigError):
            parse_seed_list("9..5")


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

    def test_every_sample_field_is_one_csv_column(self):
        from dataclasses import fields

        from regcrit.criteria import MonitorSample, PairSample

        pair = SerrinPair(6.0, 4.0)
        cols = cli.csv_columns((pair,))
        names = [f.name for f in fields(MonitorSample) if f.name != "pairs"]
        names += [f"{f.name}_{pair.label}" for f in fields(PairSample)]
        assert sorted(names) == sorted(cols)
        assert all(cols.count(name) == 1 for name in names)

    def test_csv_round_trips_doubles(self, tmp_path):
        p = write_config(tmp_path / "a.cfg", BASE)
        cli.main(["simulate", p])
        csv_path = str(tmp_path / "run" / "monitors.csv")
        cols, data = cli.read_series_csv(csv_path)
        # re-serialize one value and compare text
        raw_lines = open(csv_path).read().splitlines()
        first_value = raw_lines[1].split(",")[1]
        assert f"{data['energy'][0]:.17g}" == first_value

    def test_cfl_violation_exits_one(self, tmp_path):
        cfg = BASE.replace("time.dt = 1e-3", "time.dt = 0.45").replace(
            "time.t_end = 0.02", "time.t_end = 0.45"
        )
        p = write_config(tmp_path / "a.cfg", cfg)
        assert cli.main(["simulate", p]) == 1

    def test_unknown_init_exits_one(self, tmp_path):
        p = write_config(tmp_path / "a.cfg", BASE.replace("taylor_green", "vortex"))
        assert cli.main(["simulate", p]) == 1

    def test_blowup_exits_two_with_partial_outputs(self, tmp_path, monkeypatch):
        p = write_config(tmp_path / "a.cfg", BASE)
        real_advance = solv._advance

        def sabotage(state, config, u_half, nl1, u_max):
            if state.step_index >= 5:
                raise solv.NumericalBlowup("synthetic blowup")
            return real_advance(state, config, u_half, nl1, u_max)

        monkeypatch.setattr(solv, "_advance", sabotage)
        assert cli.main(["simulate", p]) == 2
        csv = tmp_path / "run" / "monitors.csv"
        assert csv.exists()
        assert len(csv.read_text().strip().splitlines()) == 7  # header + 6 samples
        manifest = (tmp_path / "run" / "manifest.json").read_text()
        assert '"exit_status": 2' in manifest


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


class TestVerify:
    def test_verify_passes_on_fresh_run(self, calibrated_run):
        rundir = str(calibrated_run / "run")
        assert cli.main(["verify", rundir]) == 0
        report = (calibrated_run / "run" / "verify_report.txt").read_text()
        assert "energy_law: PASS" in report
        assert "gronwall_dominance" in report

    def test_missing_artifacts_exit_one(self, tmp_path):
        assert cli.main(["verify", str(tmp_path)]) == 1

    def test_corrupted_snapshot_fails_identity(self, calibrated_run, tmp_path):
        import shutil

        src = calibrated_run / "run"
        dst = tmp_path / "corrupt"
        shutil.copytree(src, dst)
        import json

        manifest = json.loads((dst / "manifest.json").read_text())
        victim = dst / manifest["snapshots"][-1]
        from regcrit import snapshot as snap

        field, t = snap.read_snapshot(victim)
        field.values[2] *= -1.0  # flip the sign of one component
        snap.write_snapshot(victim, field, t)
        assert cli.main(["verify", str(dst)]) == 3
        report = (dst / "verify_report.txt").read_text()
        assert "identity_snapshots: FAIL" in report


def damaged_copy(calibrated_run, tmp_path):
    import shutil

    dst = tmp_path / "damaged"
    shutil.copytree(calibrated_run / "run", dst)
    return dst


def assert_one_stderr_line(capsys):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err


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

    def test_non_finite_snapshot_fails_identity(self, calibrated_run, tmp_path, capsys):
        import json

        dst = damaged_copy(calibrated_run, tmp_path)
        victim = dst / json.loads((dst / "manifest.json").read_text())["snapshots"][-1]
        raw = bytearray(victim.read_bytes())
        nan = np.array([np.nan], dtype="<f8").tobytes()
        raw[-8:] = nan  # last sample of u3
        victim.write_bytes(bytes(raw))
        assert cli.main(["verify", str(dst)]) == 3
        assert_one_stderr_line(capsys)
        report = (dst / "verify_report.txt").read_text()
        assert "identity_snapshots: FAIL" in report


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


class TestManifest:
    def test_round_trip(self, calibrated_run):
        text = (calibrated_run / "run" / "manifest.json").read_text()
        m = cli.RunManifest.from_json(text)
        assert m.to_json() == text.strip()
        pairs = m.serrin_pairs()
        assert pairs[-1].p == math.inf
        rec = m.calibration_record()
        assert rec is not None and rec.for_p(6.0).c_cal > 0
