"""Exception hierarchy shared across the package."""


class IotSweepError(Exception):
    """Base class for all package errors."""


class ChannelRangeError(IotSweepError, ValueError):
    """Channel index outside the protocol's defined plan."""


class ParameterError(IotSweepError, ValueError):
    """Invalid argument to a scan or analytics operation."""


class FrameError(IotSweepError):
    """Base class for codec failures."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class TruncatedFrame(FrameError):
    """Input ends before the frame layout is complete."""


class ChecksumError(FrameError):
    """Frame check sequence does not match the body."""


class UnsupportedFrame(FrameError):
    """Recognizable bytes but an unsupported type code or constant."""


class FrameEncodeError(FrameError):
    """Structured frame violates its own invariants."""


class SimulationError(IotSweepError):
    """Environment misuse, e.g. a listen window starting in the past."""


class UnsupportedProbe(SimulationError):
    """Probe injected on a protocol that has no broadcast probe."""


class ScenarioError(IotSweepError, ValueError):
    """Scenario file or config failed validation; message carries the field path."""


class DegenerateVectorError(IotSweepError, ValueError):
    """Probability vector gives some device no chance of being heard."""


class DeltaTooCoarseError(IotSweepError, ValueError):
    """Timestep too large: multi-arrival probability exceeds the gate."""

    def __init__(self, message: str, multi_arrival_prob: float):
        super().__init__(message)
        self.multi_arrival_prob = multi_arrival_prob
