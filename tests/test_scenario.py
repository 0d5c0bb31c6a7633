import dataclasses
import re
from pathlib import Path

import pytest

from iotsweep import scenario
from iotsweep.address import ZigbeeShort
from iotsweep.channels import Protocol, zigbee_channel
from iotsweep.errors import ScenarioError
from iotsweep.scenario import (
    Algorithm,
    ScenarioConfig,
    bundled_scenario_names,
    load_bundled_scenario,
    parse_scenario,
    resolve_channel_list,
    resolve_channel_token,
)
from iotsweep.simulation import DeviceSpec, EmitterKind, Role

README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = """
scenario tiny
algorithm passive
channels zigbee:11
dwell-time 0.5
scan-time 10
trials 3
seed 42

device lamp
  protocol zigbee
  role end-device
  channels zigbee:11
  mean-interval 2.5
  address zigbee-short:0x1A2B:0x0001
end
"""


class TestChannelTokens:
    def test_single(self):
        (ch,) = resolve_channel_token("zigbee:15")
        assert ch.label == "zigbee:15"

    def test_range(self):
        chans = resolve_channel_token("zigbee:11..26")
        assert len(chans) == 16

    def test_named_families(self):
        assert resolve_channel_token("zwave:R2")[0].label == "zwave:R2"
        assert resolve_channel_token("yolink:up")[0].label == "yolink:up"
        assert resolve_channel_token("ble-adv:38")[0].label == "ble-adv:38"
        assert resolve_channel_token("lora-down:3")[0].label == "lora-down:3"

    def test_list_sorted_and_deduped(self):
        chans = resolve_channel_list("zigbee:15, zigbee:11, zigbee:11")
        assert [c.label for c in chans] == ["zigbee:11", "zigbee:15"]

    @pytest.mark.parametrize(
        "bad", ["nonsense", "zigbee", "zigbee:99", "zigbee:26..11", "warp:9"]
    )
    def test_bad_tokens(self, bad):
        with pytest.raises(ScenarioError):
            resolve_channel_token(bad)


class TestParser:
    def test_minimal(self):
        cfg = parse_scenario(MINIMAL)
        assert cfg.name == "tiny"
        assert cfg.algorithm is Algorithm.PASSIVE
        assert cfg.trials == 3
        assert len(cfg.devices) == 1
        dev = cfg.devices[0]
        assert dev.name == "lamp"
        assert dev.role is Role.END_DEVICE
        assert dev.address == ZigbeeShort(0x1A2B, 0x0001)
        assert dev.emitter is EmitterKind.POISSON

    def test_comments_and_blanks_ignored(self):
        cfg = parse_scenario("# heading\n\n" + MINIMAL + "\n# trailing\n")
        assert cfg.name == "tiny"

    def test_defaults(self):
        cfg = parse_scenario(MINIMAL)
        assert cfg.alpha == 0.05
        assert cfg.loss_prob == 0.0
        assert cfg.delta_t_s == 0.1
        assert cfg.sdr.instantaneous_bandwidth_hz == 8_000_000

    def test_bandwidth_suffixes(self):
        cfg = parse_scenario(MINIMAL + "\nbandwidth 8MHz\n")
        assert cfg.sdr.instantaneous_bandwidth_hz == 8_000_000
        cfg = parse_scenario(MINIMAL + "\nbandwidth 125kHz\n")
        assert cfg.sdr.instantaneous_bandwidth_hz == 125_000
        cfg = parse_scenario(MINIMAL + "\nbandwidth 2000000\n")
        assert cfg.sdr.instantaneous_bandwidth_hz == 2_000_000

    def test_unclosed_device_block(self):
        bad = MINIMAL.replace("end\n", "")
        with pytest.raises(ScenarioError, match="never closed"):
            parse_scenario(bad)

    def test_duplicate_top_key(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario(MINIMAL + "\nscenario again\n")

    def test_missing_device_field(self):
        bad = MINIMAL.replace("  mean-interval 2.5\n", "")
        with pytest.raises(ScenarioError, match="mean-interval"):
            parse_scenario(bad)

    def test_alias_lines(self):
        text = MINIMAL.replace(
            "  address zigbee-short:0x1A2B:0x0001\n",
            "  address zigbee-short:0x1A2B:0x0001\n"
            "  alias zigbee-ext:0x00124B0001020304\n",
        )
        cfg = parse_scenario(text)
        assert len(cfg.devices[0].aliases) == 1


class TestKeyTables:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown key 'dwel-time'"):
            parse_scenario(MINIMAL.replace("dwell-time 0.5", "dwel-time 5.0"))

    def test_unknown_device_key(self):
        text = MINIMAL.replace("  role end-device\n", "  role end-device\n  resonds-to-probe no\n")
        with pytest.raises(ScenarioError, match="device lamp: unknown key 'resonds-to-probe'"):
            parse_scenario(text)

    def test_bad_value_names_its_key(self):
        with pytest.raises(ScenarioError, match="line 7: trials: .*'three'"):
            parse_scenario(MINIMAL.replace("trials 3", "trials three"))
        with pytest.raises(ScenarioError, match="algorithm: 'sweep' is not a valid Algorithm"):
            parse_scenario(MINIMAL.replace("algorithm passive", "algorithm sweep"))

    def test_parser_adds_no_defaults(self):
        """A file's keys are all the parser passes on: every other setting is
        the dataclass field's default."""
        lamp = DeviceSpec(
            name="lamp",
            protocol=Protocol.ZIGBEE,
            role=Role.END_DEVICE,
            channels=(zigbee_channel(11),),
            mean_interarrival_s=2.5,
            address=ZigbeeShort(0x1A2B, 0x0001),
        )
        assert parse_scenario(MINIMAL) == ScenarioConfig(
            name="tiny",
            algorithm=Algorithm.PASSIVE,
            channels=(zigbee_channel(11),),
            dwell_time_s=0.5,
            scan_time_s=10.0,
            trials=3,
            seed=42,
            devices=(lamp,),
            source_text=MINIMAL,
        )

    def test_replace_is_validated(self):
        cfg = parse_scenario(MINIMAL)
        with pytest.raises(ScenarioError, match="trials"):
            dataclasses.replace(cfg, trials=0)
        with pytest.raises(ScenarioError, match="seed"):
            dataclasses.replace(cfg, seed=-1)

    def test_every_key_is_documented(self):
        section = README.read_text().split("## Scenario files", 1)[1].split("\n## ", 1)[0]
        tables = (scenario._SCENARIO_KEYS, scenario._SDR_KEYS, scenario._DEVICE_KEYS)
        keys = sorted({key for table in tables for key in table})
        for where, text in (("README", section), ("scenario docstring", scenario.__doc__)):
            missing = [k for k in keys if not re.search(rf"(?<![\w-]){k}(?![\w-])", text)]
            assert not missing, f"{where} does not document {missing}"


class TestValidation:
    def test_duplicate_address(self):
        text = MINIMAL + """
device lamp2
  protocol zigbee
  role end-device
  channels zigbee:11
  mean-interval 3
  address zigbee-short:0x1A2B:0x0001
end
"""
        with pytest.raises(ScenarioError, match="address"):
            parse_scenario(text)

    def test_device_off_scan_plan_rejected(self):
        text = MINIMAL.replace("channels zigbee:11\ndwell", "channels zigbee:12\ndwell", 1)
        with pytest.raises(ScenarioError, match="discovery impossible"):
            parse_scenario(text)

    def test_passive_scan_does_not_visit_probe_channels(self):
        text = MINIMAL.replace(
            "channels zigbee:11\ndwell", "channels zigbee:12\nprobe-channels zigbee:11\ndwell", 1
        )
        with pytest.raises(ScenarioError, match="passive scan never visits.*lamp"):
            parse_scenario(text)
        multi = parse_scenario(text.replace("algorithm passive", "algorithm active-multiprotocol"))
        assert multi.devices[0].name == "lamp"

    def test_sequential_scan_visits_only_its_phases(self):
        text = MINIMAL.replace("algorithm passive", "algorithm sequential-passive\nphases zigbee:12")
        with pytest.raises(ScenarioError, match="discovery impossible"):
            parse_scenario(text)
        parse_scenario(text.replace("phases zigbee:12", "phases zigbee:12 | zigbee:11"))

    def test_sequential_needs_phases(self):
        text = MINIMAL.replace("algorithm passive", "algorithm sequential-passive")
        with pytest.raises(ScenarioError, match="phases"):
            parse_scenario(text)

    def test_active_multiprotocol_needs_probe_channels(self):
        text = MINIMAL.replace("algorithm passive", "algorithm active-multiprotocol")
        with pytest.raises(ScenarioError, match="probe-channels"):
            parse_scenario(text)

    def test_protocol_channel_mismatch(self):
        text = MINIMAL.replace("  channels zigbee:11\n", "  channels ble-adv:37..39\n")
        with pytest.raises(ScenarioError):
            parse_scenario(text)

    def test_bad_trials(self):
        with pytest.raises(ScenarioError, match="trials"):
            parse_scenario(MINIMAL.replace("trials 3", "trials 0"))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dwell-time", "nan"),
            ("probe-dwell-time", "nan"),
            ("probe-dwell-time", "inf"),
            ("scan-time", "nan"),
            ("scan-time", "inf"),
            ("delta-t", "nan"),
            ("delta-t", "inf"),
            ("bandwidth", "0"),
            ("bandwidth", "infMHz"),
            ("retune-latency", "nan"),
            ("retune-latency", "-1"),
            ("mean-interval", "nan"),
            ("mean-interval", "inf"),
            ("probe-response-delay-max", "-1"),
            ("probe-response-delay-max", "nan"),
            ("probe-response-delay-max", "inf"),
            ("max-multi-arrival-prob", "nan"),
            ("max-multi-arrival-prob", "5"),
            ("max-multi-arrival-prob", "0"),
        ],
    )
    def test_out_of_range_value_names_its_key(self, key, value):
        """NaN and infinite values fail the range checks too, at parse time."""
        text, n = re.subn(rf"(?m)^(\s*){key} .*$", rf"\g<1>{key} {value}", MINIMAL)
        if not n:
            text = MINIMAL.replace("seed 42", f"seed 42\n{key} {value}")
        with pytest.raises(ScenarioError, match=f"{key}: "):
            parse_scenario(text)

    def test_dwell_within_scan_time(self):
        with pytest.raises(ScenarioError, match="dwell-time"):
            parse_scenario(MINIMAL.replace("dwell-time 0.5", "dwell-time 0"))
        with pytest.raises(ScenarioError, match="scan-time"):
            parse_scenario(MINIMAL.replace("scan-time 10", "scan-time 0.4"))
        cfg = parse_scenario(MINIMAL.replace("scan-time 10", "scan-time 0.5"))
        assert cfg.dwell_time_s == cfg.scan_time_s == 0.5


class TestBundled:
    def test_all_bundled_parse(self):
        names = bundled_scenario_names()
        assert len(names) == 8
        for name in names:
            cfg = load_bundled_scenario(name)
            assert cfg.name == name

    def test_rosters(self):
        assert len(load_bundled_scenario("zigbee-passive").devices) == 12
        assert len(load_bundled_scenario("ble-passive").devices) == 12
        assert len(load_bundled_scenario("zigbee-ble-active-multi").devices) == 24
        assert len(load_bundled_scenario("zwave-lora-multi").devices) == 7

    def test_paired_scenarios_share_traffic(self):
        seq = load_bundled_scenario("zigbee-ble-sequential")
        multi = load_bundled_scenario("zigbee-ble-active-multi")
        assert seq.seed == multi.seed
        assert [d.name for d in seq.devices] == [d.name for d in multi.devices]

    def test_unknown_name(self):
        with pytest.raises(ScenarioError, match="available"):
            load_bundled_scenario("no-such-thing")


class TestProbeabilityValidation:
    def test_active_on_ble_rejected(self):
        text = MINIMAL.replace("algorithm passive", "algorithm active").replace(
            "channels zigbee:11\ndwell", "channels ble-adv:37..39\ndwell", 1
        ).replace(
            """  protocol zigbee
  role end-device
  channels zigbee:11
  mean-interval 2.5
  address zigbee-short:0x1A2B:0x0001""",
            """  protocol ble
  role peripheral
  channels ble-adv:37..39
  mean-interval 2.5
  address ble:00:00:00:00:00:01""",
        )
        with pytest.raises(ScenarioError, match="broadcast probe"):
            parse_scenario(text)

    def test_active_multiprotocol_probes_zigbee_only(self):
        text = MINIMAL.replace(
            "algorithm passive", "algorithm active-multiprotocol\nprobe-channels zwave:R2"
        )
        with pytest.raises(ScenarioError, match="broadcast probe"):
            parse_scenario(text)

    def test_periodic_emitter_parses(self):
        text = MINIMAL.replace(
            "  mean-interval 2.5\n", "  mean-interval 2.5\n  emitter periodic\n"
        )
        cfg = parse_scenario(text)
        assert cfg.devices[0].emitter is EmitterKind.PERIODIC
