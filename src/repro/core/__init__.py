"""Core simulation infrastructure: event engine, configuration, requests, stats."""

from repro.core.config import (
    CacheConfig,
    DRAMOrgConfig,
    DRAMTimingConfig,
    GPUConfig,
    MCConfig,
    SimConfig,
)
from repro.core.engine import Engine, SimulationError
from repro.core.request import LoadTransaction, MemoryRequest, warp_key
from repro.core.stats import ChannelStats, LoadRecord, SimStats

__all__ = [
    "CacheConfig",
    "ChannelStats",
    "DRAMOrgConfig",
    "DRAMTimingConfig",
    "Engine",
    "GPUConfig",
    "LoadRecord",
    "LoadTransaction",
    "MCConfig",
    "MemoryRequest",
    "SimConfig",
    "SimStats",
    "SimulationError",
    "warp_key",
]
