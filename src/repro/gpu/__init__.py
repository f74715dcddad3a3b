"""GPU-side substrates: SMs, coalescer, caches, crossbar, address mapping."""

from repro.gpu.address_map import AddressMap
from repro.gpu.cache import MSHR, Cache
from repro.gpu.coalescer import coalesce
from repro.gpu.interconnect import Crossbar
from repro.gpu.partition import MemoryPartition
from repro.gpu.sm import SMCore
from repro.gpu.system import GPUSystem, simulate
from repro.gpu.warp import WarpState, WarpStatus

__all__ = [
    "AddressMap",
    "Cache",
    "Crossbar",
    "GPUSystem",
    "MSHR",
    "MemoryPartition",
    "SMCore",
    "WarpState",
    "WarpStatus",
    "coalesce",
    "simulate",
]
