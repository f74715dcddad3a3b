"""Memory partition: an L2 slice fronting one memory controller (§II-B).

Each of the six partitions owns the slice of the physical address space
its channel maps; reads probe the L2 slice (with MSHR merging), misses
enter the controller's read queue, and dirty L2 evictions generate the
DRAM write traffic that the write-drain machinery batches.
"""

from __future__ import annotations

from typing import Callable

from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.request import MemoryRequest
from repro.core.stats import SimStats
from repro.gpu.address_map import AddressMap
from repro.gpu.cache import MSHR, Cache
from repro.mc.base import MemoryController

__all__ = ["MemoryPartition"]


class MemoryPartition:
    """L2 slice + memory controller for one channel."""

    def __init__(
        self,
        engine: Engine,
        part_id: int,
        config: SimConfig,
        amap: AddressMap,
        reply: Callable[[MemoryRequest], None],
        sim_stats: SimStats,
    ) -> None:
        self.engine = engine
        self.part_id = part_id
        self.config = config
        self.amap = amap
        self.reply = reply
        self.sim_stats = sim_stats
        self.l2 = Cache(config.gpu.l2_slice) if config.use_l2 else None
        self.mshr = MSHR(config.gpu.l2_slice.mshr_entries)
        self.l2_lat_ps = int(config.gpu.l2_slice.hit_latency_ns * 1000)
        self.mc: MemoryController | None = None  # set by the system after wiring
        self.writebacks = 0

    # ------------------------------------------------------------------
    # ingress (from the crossbar)
    # ------------------------------------------------------------------
    def receive(self, req: MemoryRequest) -> None:
        self.engine.schedule(self.l2_lat_ps, self._lookup, req)

    def _lookup(self, req: MemoryRequest) -> None:
        assert self.mc is not None, "partition not wired to a controller"
        line = req.addr
        if req.is_write:
            if self.l2 is None:
                self.mc.receive_write(req)
                return
            if self.l2.lookup(line, mark_dirty=True):
                return  # absorbed by the slice
            victim = self.l2.fill(line, dirty=True)  # write-validate allocate
            if victim is not None:
                self._writeback(victim)
            return

        if self.l2 is not None and self.l2.lookup(line):
            self.sim_stats.l2_hits += 1
            req.serviced_by = "l2"
            self.mc.resolve_read(req, to_dram=False)
            self.reply(req)
            return
        if self.l2 is not None:
            primary = self.mshr.allocate(line, req)
            if not primary:
                # Secondary miss: rides the in-flight fill.
                self.mc.resolve_read(req, to_dram=False)
                return
        self.mc.receive_read(req)

    # ------------------------------------------------------------------
    # egress (DRAM data ready)
    # ------------------------------------------------------------------
    def on_dram_data(self, req: MemoryRequest) -> None:
        if self.l2 is None:
            self.reply(req)
            return
        victim = self.l2.fill(req.addr)
        if victim is not None:
            self._writeback(victim)
        waiters = self.mshr.complete(req.addr)
        if not waiters:
            # Defensive: a fill whose MSHR entry vanished still answers
            # its own request.
            waiters = [req]
        for r in waiters:
            self.reply(r)

    def _writeback(self, victim_line: int) -> None:
        assert self.mc is not None
        wb = MemoryRequest(addr=victim_line, is_write=True, sm_id=-1, warp_id=-1)
        self.amap.route(wb)
        if wb.channel != self.part_id:
            raise RuntimeError(
                f"L2 victim {victim_line:#x} maps to channel {wb.channel}, "
                f"but lives in slice {self.part_id}"
            )
        self.writebacks += 1
        self.mc.receive_write(wb)
