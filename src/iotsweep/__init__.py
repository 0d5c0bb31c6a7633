"""iotsweep: multi-protocol IoT channel scanning simulator and analytics."""

__version__ = "0.1.0"

from .address import BleAdvA, DeviceAddress, LoRaId, ZigbeeExtended, ZigbeeShort, ZWaveId
from .channels import (
    Channel,
    Protocol,
    ble_advertising_channels,
    ble_rf_channel,
    lora_downlink_channel,
    lora_uplink_channel,
    yolink_lora_channels,
    zigbee_channel,
    zigbee_channels,
    zwave_channels,
)
from .frames import decode, encode, extract_address
from .simulation import DeviceSpec, EmitterKind, Environment, Role, build_environment
from .scanning import DiscoveryLog, Scanner, SdrConfig, find_channels_in_range
from .analytics import (
    OrderStatSummary,
    ProbabilityVector,
    discretize,
    expected_order_statistics,
    mc_order_statistic,
    summarize,
    t_quantile,
)
from .scenario import Algorithm, ScenarioConfig, load_bundled_scenario, load_scenario, parse_scenario
from .experiment import ComparisonReport, ExperimentResult, compare, run_experiment, run_model
