import importlib.resources
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iotsweep
from iotsweep import experiment
from iotsweep.cli import main
from iotsweep.frames import BleAdvPdu, BlePduType, ZWaveFrame, beacon_request, encode

TINY = """
scenario cli-tiny
algorithm passive
channels zigbee:11
dwell-time 1.0
scan-time 120
trials 2
seed 5

device solo
  protocol zigbee
  role end-device
  channels zigbee:11
  mean-interval 3.0
  address zigbee-short:0x0001:0x0002
end
"""


def write_tiny(tmp_path):
    p = tmp_path / "tiny.scn"
    p.write_text(TINY)
    return p


class TestScan:
    def test_scan_writes_outputs(self, tmp_path, capsys):
        scn = write_tiny(tmp_path)
        out = tmp_path / "out"
        assert main(["scan", str(scn), "--out", str(out)]) == 0
        assert (out / "trials.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "manifest.txt").exists()
        assert "cli-tiny" in capsys.readouterr().out

    def test_overrides(self, tmp_path, capsys):
        scn = write_tiny(tmp_path)
        out = tmp_path / "out"
        assert main(["scan", str(scn), "--out", str(out), "--trials", "3", "--seed", "9"]) == 0
        assert "3 trials" in capsys.readouterr().out
        assert "seed 9" in (out / "manifest.txt").read_text()

    def test_events_dump(self, tmp_path, capsys):
        scn = write_tiny(tmp_path)
        out = tmp_path / "out"
        assert main(["scan", str(scn), "--out", str(out), "--events-horizon", "30"]) == 0
        assert (out / "events.csv").read_text().startswith("time_s,")

    @pytest.mark.parametrize("horizon", ["-1", "nan", "inf"])
    def test_bad_events_horizon_exit_1_before_any_trial(self, tmp_path, capsys, horizon):
        scn = write_tiny(tmp_path)
        out = tmp_path / "out"
        assert main(["scan", str(scn), "--out", str(out), "--events-horizon", horizon]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --events-horizon ")
        assert "window must end at a finite time >= its start" in err
        assert not (out / "trials.csv").exists()
        assert not out.exists()

    def test_bundled_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["scan", "zwave-lora-multi", "--trials", "2"]) == 0
        assert (tmp_path / "results" / "zwave-lora-multi" / "summary.csv").exists()

    def test_dwell_that_cannot_advance_the_clock_exit_1(self, tmp_path, capsys):
        """At 1e17 s, clock + 1.0 == clock: the scan would never end."""
        scn = tmp_path / "huge.scn"
        scn.write_text(TINY.replace("scan-time 120", "scan-time 1e17"))
        assert main(["scan", str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "cannot advance" in err

    def test_probe_dwell_far_below_the_dwell(self, tmp_path, capsys):
        """After 16 probes of 30 us the rotation starts at 0.48 ms, a clock
        whose first 1 s window is more than 2^63 of its ulps: exit 0."""
        scenarios = importlib.resources.files("iotsweep") / "scenarios"
        text = (scenarios / "zigbee-ble-active-multi.scn").read_text()
        assert "probe-dwell-time 0.2\n" in text
        scn = tmp_path / "short-probes.scn"
        scn.write_text(text.replace("probe-dwell-time 0.2\n", "probe-dwell-time 0.00003\n"))
        assert main(["scan", str(scn), "--trials", "2", "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "trials.csv").exists()

    def test_validation_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(TINY.replace("channels zigbee:11\ndwell", "channels zigbee:12\ndwell", 1))
        assert main(["scan", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestModelAndCompare:
    def test_model_prints_rows(self, tmp_path, capsys):
        scn = write_tiny(tmp_path)
        assert main(["model", str(scn)]) == 0
        assert "n=1" in capsys.readouterr().out

    @pytest.mark.parametrize("delta_t", ["nan", "inf", "0"])
    def test_model_bad_delta_t_exit_1(self, tmp_path, capsys, delta_t):
        scn = write_tiny(tmp_path)
        assert main(["model", str(scn), "--delta-t", delta_t]) == 1
        assert "error: delta_t must be positive and finite" in capsys.readouterr().err

    def test_compare_pass_exit_0(self, tmp_path, capsys):
        scn = tmp_path / "c.scn"
        scn.write_text(TINY.replace("trials 2", "trials 10").replace("scan-time 120", "scan-time 400"))
        code = main(["compare", str(scn), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "compare.csv").exists()

    def test_compare_fail_exit_2(self, tmp_path, capsys):
        # at alpha 0.99 the intervals are too narrow to hold the expectation
        scn = tmp_path / "c.scn"
        scn.write_text(TINY.replace("trials 2", "trials 10\nalpha 0.99"))
        assert main(["compare", str(scn), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("command", ["model", "compare"])
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("seed 5", "seed 5\nloss-prob 0.1", "error: loss-prob: "),
            ("seed 5", "seed 5\nretune-latency 0.5", "error: retune-latency: "),
            ("  mean-interval 3.0\n", "  mean-interval 3.0\n  emitter periodic\n",
             "error: device solo: emitter periodic: "),
        ],
        ids=["loss-prob", "retune-latency", "periodic-emitter"],
    )
    def test_unmodelled_knob_exit_1(self, tmp_path, capsys, command, old, new, message):
        scn = tmp_path / "c.scn"
        scn.write_text(TINY.replace(old, new, 1))
        out = tmp_path / "out"
        assert main([command, str(scn), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert main(["scan", str(scn), "--out", str(tmp_path / "scan")]) == 0


class TestScenarioErrors:
    """Bad scenarios and overrides exit 1 from every command that loads one."""

    @pytest.mark.parametrize("command", ["scan", "model", "compare"])
    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("dwell-time 1.0", "dwel-time 5.0", "unknown key 'dwel-time'"),
            ("  role end-device\n", "  resonds-to-probe no\n", "unknown key 'resonds-to-probe'"),
            ("channels zigbee:11\ndwell", "channels zigbee:12\nprobe-channels zigbee:11\ndwell",
             "never visits"),
            ("dwell-time 1.0", "dwell-time nan", "dwell-time: must be positive"),
            ("seed 5", "seed 5\nprobe-dwell-time inf",
             "probe-dwell-time: must be positive and finite"),
            ("seed 5", "seed 5\nlora-id-index 2", "unknown key 'lora-id-index'"),
            ("seed 5", "seed 5\ntime-scale 10", "line 9: unknown key 'time-scale'"),
        ],
        ids=[
            "top-level-typo", "device-typo", "unreachable", "dwell-time-nan",
            "probe-dwell-time-inf", "lora-id-index", "time-scale",
        ],
    )
    def test_bad_scenario_exit_1(self, tmp_path, capsys, command, old, new, message):
        bad = tmp_path / "bad.scn"
        bad.write_text(TINY.replace(old, new, 1))
        assert main([command, str(bad), "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["scan", "model", "compare"])
    def test_directory_as_scenario_exit_1(self, tmp_path, capsys, command):
        scn = tmp_path / "not-a-file.scn"
        scn.mkdir()
        assert main([command, str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read scenario {scn}: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["scan", "model", "compare"])
    def test_scenario_not_utf8_exit_1(self, tmp_path, capsys, command):
        scn = tmp_path / "binary.scn"
        scn.write_bytes(b"\xff\xfe")
        assert main([command, str(scn), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read scenario {scn}: ") and "utf-8" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["scan", "model", "compare"])
    def test_out_under_a_regular_file_exit_1(self, tmp_path, capsys, command, monkeypatch):
        """The output directory is made before any trial, so a scan or
        compare that cannot make it runs no trial. Every trial runs in one
        array pass, which is handed the streams of each."""
        scans = []
        one_pass = experiment.rotation_first_seen

        def counted_pass(testbed, streams, *args):
            scans.extend(streams)
            return one_pass(testbed, streams, *args)

        monkeypatch.setattr(experiment, "rotation_first_seen", counted_pass)
        scn = write_tiny(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        assert main([command, str(scn), "--out", str(blocker / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err and err.count("\n") == 1
        assert blocker.read_text() == "a regular file\n"
        assert scans == []
        # compare may exit 2 (the model outside the CI); it still ran its trials
        assert main([command, str(scn), "--out", str(tmp_path / "out")]) in (0, 2)
        assert len(scans) == (0 if command == "model" else 2)  # the tiny scenario's 2 trials

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--trials", "0", "trials: must be >= 1"), ("--seed", "-1", "seed: must be non-negative")],
        ids=["trials-0", "seed-negative"],
    )
    def test_bad_override_exit_1(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "out"
        assert main(["scan", "zigbee-passive", flag, value, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestDissect:
    def test_ble_frame(self, capsys):
        raw = encode(BleAdvPdu(BlePduType.ADV_NONCONN_IND, adv_a=0x665544332211))
        assert main(["dissect", "ble", raw.hex()]) == 0
        out = capsys.readouterr().out
        assert "access-address 0x8E89BED6" in out
        assert "ble:66:55:44:33:22:11" in out

    def test_zigbee_sourceless(self, capsys):
        raw = encode(beacon_request())
        assert main(["dissect", "zigbee", raw.hex()]) == 0
        out = capsys.readouterr().out
        assert "command 0x07" in out
        assert "address (none)" in out

    def test_zwave_variant_hint(self, capsys):
        raw = encode(ZWaveFrame(0x9E0B1D42, 3, 0x4101, 0xFF, b"\x20\x01", crc16=True))
        assert main(["dissect", "zwave-r3", raw.hex()]) == 0
        assert "home-id 0x9E0B1D42" in capsys.readouterr().out

    def test_odd_length_hex(self, capsys):
        assert main(["dissect", "ble", "d6be8"]) == 1
        assert "hex" in capsys.readouterr().err

    def test_checksum_error_reports_offset(self, capsys):
        raw = bytearray(encode(BleAdvPdu(BlePduType.ADV_IND, adv_a=5)))
        raw[-1] ^= 0x01
        assert main(["dissect", "ble", bytes(raw).hex()]) == 1
        err = capsys.readouterr().err
        assert "at byte" in err

    def test_python_dash_m(self):
        """``python -m iotsweep`` runs the same command line."""
        env = dict(os.environ, PYTHONPATH=str(Path(iotsweep.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-m", "iotsweep", "dissect", "ble", "d6be898e0206112233445566f04454"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "ble:66:55:44:33:22:11" in done.stdout

    def test_unknown_protocol(self, capsys):
        assert main(["dissect", "wimax", "00"]) == 1
