import csv
import dataclasses
import io
import math

import pytest

from iotsweep.errors import ScenarioError
from iotsweep.experiment import (
    ExperimentResult,
    TrialRecord,
    compare,
    config_digest,
    device_channel_divisors,
    manifest_text,
    model_csv,
    run_experiment,
    run_model,
    summary_csv,
    trials_csv,
    trial_environment,
    events_csv,
)
from iotsweep.scanning import plan_channel_groups
from iotsweep.scenario import (
    Algorithm,
    load_bundled_scenario,
    parse_scenario,
    resolve_channel_list,
)

ONE_DEVICE = """
scenario one
algorithm passive
channels zigbee:11
dwell-time 1.0
scan-time 200
trials 1
seed 5

device solo
  protocol zigbee
  role end-device
  channels zigbee:11
  mean-interval 3.0
  address zigbee-short:0x0001:0x0002
end
"""


def one_device_cfg(**overrides):
    return dataclasses.replace(parse_scenario(ONE_DEVICE), **overrides)


class TestRunExperiment:
    def test_summary_mean_is_trial_mean(self):
        cfg = one_device_cfg(trials=2)
        result = run_experiment(cfg)
        assert len(result.trials) == 2
        values = sorted(t.first_seen[0][0] for t in result.trials)
        assert result.summary.rows[0].mean_s == pytest.approx(sum(values) / 2)

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg = load_bundled_scenario("zigbee-passive")
        a = run_experiment(cfg, out_dir=tmp_path / "a")
        b = run_experiment(cfg, out_dir=tmp_path / "b")
        for fname in ("trials.csv", "summary.csv", "manifest.txt"):
            assert (tmp_path / "a" / fname).read_bytes() == (
                tmp_path / "b" / fname
            ).read_bytes()

    def test_trials_csv_schema(self):
        cfg = one_device_cfg(trials=2)
        text = trials_csv(run_experiment(cfg))
        lines = text.strip().splitlines()
        assert lines[0] == "trial,n,first_seen_s,device"
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1" and first[3] == "solo"

    def test_trials_csv_quotes_names_as_the_csv_module_does(self):
        """Each row is one f-string and each name is quoted once, yet the
        text is what ``csv.writer`` writes for the same rows, for names that
        need quotes (a comma, a double quote, LF) and names that may not
        (CR, spaces at either end, an empty name), repeated across trials."""
        names = ["a,b", 'say "hi"', "cr\rhere", "lf\nhere", " lead", "trail ", "", "plain"]
        records = tuple(
            TrialRecord(trial, tuple((t + 0.25 * k, name) for k, name in enumerate(names)))
            for trial, t in enumerate([0.0, 1.0000005, 123456.789])
        )
        result = ExperimentResult(config=None, trials=records, summary=None, wall_clock_s=0.0)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["trial", "n", "first_seen_s", "device"])
        for rec in records:
            for n, (t, name) in enumerate(rec.first_seen, start=1):
                writer.writerow([rec.trial, n, f"{t:.6f}", name])
        assert trials_csv(result) == buf.getvalue()

    def test_summary_csv_schema(self):
        cfg = one_device_cfg(trials=3)
        text = summary_csv(run_experiment(cfg).summary)
        assert text.splitlines()[0] == "n,mean_s,ci_lo_s,ci_hi_s,censored_count"

    def test_censoring_reported(self):
        # scan budget far too small to ever find the device
        cfg = one_device_cfg(trials=2, scan_time_s=1.0, dwell_time_s=1.0)
        cfg = dataclasses.replace(cfg, loss_prob=1.0)
        result = run_experiment(cfg)
        assert result.summary.rows[0].censored_count == 2
        assert result.full_discovery_times() == []

    def test_manifest_contents(self):
        cfg = one_device_cfg()
        text = manifest_text(cfg)
        assert f"config-sha256 {config_digest(cfg)}" in text
        assert "seed 5" in text

    def test_events_csv(self):
        cfg = one_device_cfg()
        env = trial_environment(cfg, trial=0)
        text = events_csv(env, horizon_s=50.0)
        lines = text.strip().splitlines()
        assert lines[0] == "time_s,channel_label,protocol,device,frame_hex"
        assert len(lines) > 3
        assert ",zigbee:11,zigbee,solo," in lines[1]


class TestModel:
    def test_zigbee_divisor_is_16(self):
        cfg = load_bundled_scenario("zigbee-passive")
        assert set(device_channel_divisors(cfg)) == {16.0}

    def test_ble_divisor_is_1(self):
        cfg = load_bundled_scenario("ble-passive")
        assert set(device_channel_divisors(cfg)) == {1.0}

    def test_single_group_divisor_is_1(self):
        cfg = load_bundled_scenario("zwave-lora-multi")
        assert set(device_channel_divisors(cfg)) == {1.0}

    @pytest.mark.parametrize("bandwidth_mhz", [1, 2, 8, 26, 100])
    def test_divisors_match_the_group_intersection_count(self, bandwidth_mhz):
        """Each divisor is the number of groups over the number whose
        channels meet the device's, on a two-protocol rotation."""
        testbed = load_bundled_scenario("zigbee-ble-active-multi")
        cfg = dataclasses.replace(
            testbed,
            algorithm=Algorithm.MULTIPROTOCOL,
            channels=tuple(resolve_channel_list("zigbee:11..26,ble-adv:37..39")),
            probe_channels=(),
            sdr=dataclasses.replace(testbed.sdr, instantaneous_bandwidth_hz=bandwidth_mhz * 10**6),
        )
        groups = plan_channel_groups(list(cfg.channels), cfg.sdr.instantaneous_bandwidth_hz)
        expected = [
            len(groups) / sum(1 for g in groups if set(g) & set(dev.channels))
            for dev in cfg.devices
        ]
        assert device_channel_divisors(cfg) == expected

    def test_model_rows(self):
        cfg = load_bundled_scenario("zigbee-passive")
        model = run_model(cfg)
        assert [n for n, _ in model] == list(range(1, 13))
        times = [t for _, t in model]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_empty_device_list(self):
        cfg = one_device_cfg()
        cfg = dataclasses.replace(cfg, devices=())
        assert run_model(cfg) == []

    def test_model_rejects_active_algorithms(self):
        cfg = load_bundled_scenario("zigbee-active")
        with pytest.raises(ScenarioError, match="model"):
            run_model(cfg)

    def test_delta_t_override(self):
        cfg = one_device_cfg()
        coarse = run_model(cfg, delta_t_s=0.1)
        fine = run_model(cfg, delta_t_s=0.01)
        assert coarse[0][1] == pytest.approx(fine[0][1], rel=0.05)


class TestCompare:
    def test_self_consistent_scenario_passes(self):
        # model assumptions == simulation generator: continuous single channel
        cfg = one_device_cfg(trials=10, scan_time_s=400.0)
        report = compare(cfg)
        assert report.passed
        assert report.in_ci_fraction >= 0.75

    def test_loss_is_refused_before_any_trial(self, tmp_path):
        # the model has no frame loss, so it would print lossless expectations
        cfg = load_bundled_scenario("zigbee-passive")
        lossy = dataclasses.replace(cfg, loss_prob=0.9)
        with pytest.raises(ScenarioError, match="loss-prob"):
            compare(lossy, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_report_deterministic(self, tmp_path):
        cfg = one_device_cfg(trials=5, scan_time_s=400.0)
        a = compare(cfg, out_dir=tmp_path / "a")
        b = compare(cfg, out_dir=tmp_path / "b")
        assert a.rows == b.rows
        assert (tmp_path / "a" / "compare.csv").read_text() == (
            tmp_path / "b" / "compare.csv"
        ).read_text()
        assert (tmp_path / "a" / "model.csv").read_text().startswith("n,expected_time_s")

    def test_shares_run_experiment_outputs(self, tmp_path):
        cfg = one_device_cfg(trials=5, scan_time_s=400.0)
        compare(cfg, out_dir=tmp_path / "compare")
        run_experiment(cfg, out_dir=tmp_path / "run")
        for fname in ("trials.csv", "summary.csv", "manifest.txt"):
            assert (tmp_path / "compare" / fname).read_bytes() == (
                tmp_path / "run" / fname
            ).read_bytes()


class TestSingleTrial:
    def test_trials_one_summary_is_that_trial(self):
        cfg = one_device_cfg(trials=1)
        result = run_experiment(cfg)
        assert len(result.trials) == 1
        only = result.trials[0].first_seen[0][0]
        row = result.summary.rows[0]
        assert row.mean_s == only
        assert math.isnan(row.ci_halfwidth_s)
        assert result.summary.trial_count == 1


class TestConfigViews:
    def test_sequential_model_unsupported(self):
        from iotsweep.scenario import load_bundled_scenario as load

        with pytest.raises(ScenarioError, match="model"):
            run_model(load("zigbee-ble-sequential"))
